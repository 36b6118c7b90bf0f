"""Exact coefficient fields: F_p for a prime p, and the rationals.

Field elements are plain Python values (int residues in [0, p) for F_p,
fractions.Fraction for Q).  A field object supplies the arithmetic; it never
wraps the elements.  All arithmetic is exact, floats are never produced.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """F_p with residues stored as ints in [0, p)."""

    kind = "fp"

    def __init__(self, p: int):
        # the cap comes first: trial division on a huge p never finishes
        if isinstance(p, int) and p >= 2**31:
            raise FieldError(f"modulus too large: {p}")
        if not isinstance(p, int) or not _is_prime(p):
            raise FieldError(f"modulus must be prime, got {p!r}")
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def of_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    @property
    def size(self):
        return self.p

    def elements(self):
        return range(self.p)

    def random(self, rng):
        return rng.randrange(self.p)

    def enc(self, a):
        return a % self.p

    def dec(self, v):
        if not isinstance(v, int) or isinstance(v, bool):
            raise FieldError(f"expected integer residue, got {v!r}")
        return v % self.p

    def to_json(self):
        return {"kind": "fp", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return f"F{self.p}"


class Rationals:
    """Q with elements stored as fractions.Fraction (auto-normalized)."""

    kind = "q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def of_int(self, n: int):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    # size None marks an infinite field; exhaustive searches are impossible.
    size = None

    def random(self, rng):
        # small numerators/denominators keep downstream fraction growth sane
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def enc(self, a):
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def dec(self, v):
        if isinstance(v, bool):
            raise FieldError(f"expected rational, got {v!r}")
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, str):
            try:
                return Fraction(v)
            except (ValueError, ZeroDivisionError) as e:
                raise FieldError(f"bad rational literal {v!r}") from e
        raise FieldError(f"expected rational, got {v!r}")

    def to_json(self):
        return {"kind": "q"}

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "Q"


QQ = Rationals()


def field_from_json(obj) -> "PrimeField | Rationals":
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FieldError(f"bad field description: {obj!r}")
    if obj["kind"] == "fp":
        return PrimeField(obj["p"])
    if obj["kind"] == "q":
        return QQ
    raise FieldError(f"unknown field kind {obj['kind']!r}")


def field_from_spec(s: str) -> "PrimeField | Rationals":
    """Parse a command-line field spec: 'fp:<p>' or 'q'."""
    s = s.strip().lower()
    if s == "q":
        return QQ
    if s.startswith("fp:"):
        try:
            return PrimeField(int(s[3:]))
        except ValueError as e:
            raise FieldError(f"bad field spec {s!r}") from e
    raise FieldError(f"bad field spec {s!r} (expected 'fp:<p>' or 'q')")
