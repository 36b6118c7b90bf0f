"""Finite abelian grading groups, given as products of cyclic factors.

Elements are tuples of residues, one per factor, and the trivial group is
the empty product with sole element ().  Element order in enumerate() is
lexicographic; constructions rely on that order being stable.
"""

from __future__ import annotations

from itertools import product


class FiniteAbelianGroup:
    __slots__ = ("factors",)

    def __init__(self, invariant_factors):
        factors = tuple(int(n) for n in invariant_factors)
        if any(n < 1 for n in factors):
            raise ValueError(f"cyclic factors must be positive, got {factors}")
        # a Z/1 factor contributes nothing; keep it out so elements stay canonical
        self.factors = tuple(n for n in factors if n > 1)

    @property
    def order(self):
        n = 1
        for f in self.factors:
            n *= f
        return n

    @property
    def is_trivial(self):
        return not self.factors

    def zero(self):
        return (0,) * len(self.factors)

    def reduce(self, el):
        el = tuple(int(x) for x in el)
        if len(el) != len(self.factors):
            raise ValueError(f"element {el} has wrong rank for factors {self.factors}")
        return tuple(x % n for x, n in zip(el, self.factors))

    def add(self, a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors))

    def sub(self, a, b):
        return tuple((x - y) % n for x, y, n in zip(a, b, self.factors))

    def neg(self, a):
        return tuple((-x) % n for x, n in zip(a, self.factors))

    def elements(self):
        return [tuple(t) for t in product(*(range(n) for n in self.factors))]

    def contains(self, el):
        return (len(el) == len(self.factors)
                and all(0 <= x < n for x, n in zip(el, self.factors)))

    def product_with(self, other: "FiniteAbelianGroup"):
        return FiniteAbelianGroup(self.factors + other.factors)

    def pair(self, a, b):
        """Element of self x other formed by concatenation."""
        return tuple(a) + tuple(b)

    def to_json(self):
        return {"invariant_factors": list(self.factors)}

    @classmethod
    def from_json(cls, obj):
        factors = obj["invariant_factors"]
        if not (isinstance(factors, list) and all(type(n) is int for n in factors)):
            raise ValueError(f"invariant_factors must be a list of integers, got {factors!r:.60}")
        return cls(factors)

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        if not self.factors:
            return "Z/1"
        return " x ".join(f"Z/{n}" for n in self.factors)


TRIVIAL_GROUP = FiniteAbelianGroup(())
