"""Answer checks that do not lean on injgen's own linear algebra.

Ranks and products are recomputed here with a small sparse elimination
of the benchmark's own, over F_p (ints mod p) or Q (fractions), and the
expected projective dimensions come from hand derivations written out
below.  Every checker raises WrongAnswer with a reason on a bad answer.
"""

from __future__ import annotations


class WrongAnswer(AssertionError):
    pass


def require(cond, msg):
    if not cond:
        raise WrongAnswer(msg)


def _modulus(field):
    # None means the rationals: entries are Fractions and never reduced
    return getattr(field, "p", None)


def _sparse_rows(rows, p):
    out = []
    for row in rows:
        d = {}
        for j, a in enumerate(row):
            if p is not None:
                a %= p
            if a:
                d[j] = a
        out.append(d)
    return out


def rank(rows, field):
    """Rank of a dense row list by first-nonzero-column elimination."""
    p = _modulus(field)
    pivots = {}
    for r in _sparse_rows(rows, p):
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(r[c], -1, p) if p is not None else 1 / r[c]
                pivots[c] = {j: (a * inv) % p if p is not None else a * inv
                             for j, a in r.items()}
                break
            f = r[c]
            for j, a in piv.items():
                v = r.get(j, 0) - f * a
                if p is not None:
                    v %= p
                if v:
                    r[j] = v
                else:
                    r.pop(j, None)
    return len(pivots)


def matmul(a_rows, b_rows, ncols, field):
    """Dense product of two row lists (b has ncols columns)."""
    p = _modulus(field)
    out = []
    for row in a_rows:
        acc = [0] * ncols
        for k, a in enumerate(row):
            if not a:
                continue
            for j, b in enumerate(b_rows[k]):
                if b:
                    acc[j] += a * b
        if p is not None:
            acc = [v % p for v in acc]
        out.append(acc)
    return out


def is_zero(rows):
    return all(not a for row in rows for a in row)


def is_identity(rows):
    return all((a == 1) if i == j else (not a)
               for i, row in enumerate(rows) for j, a in enumerate(row))


# -- hand-derived projective dimensions ----------------------------------------


def linear_quiver_pd(n, r, vertex, side):
    """pd of the simple at `vertex` (1-based) over the path algebra of
    1 -> 2 -> ... -> n with every path of length r killed (r >= n: no
    relations).

    The right projective P_i is uniserial with factors S_i, S_i+1, ... of
    length min(r, n - i + 1).  If it reaches vertex n, rad P_i = P_i+1
    and pd S_i = 1 (0 at i = n).  Otherwise rad P_i is covered by P_i+1
    with kernel S_i+r, so pd S_i = 2 + pd S_i+r.  Left modules read the
    quiver backwards.
    """
    i = vertex if side == "right" else n + 1 - vertex
    pd = 0
    while i != n:
        if n - i + 1 <= r:
            return pd + 1
        pd += 2
        i += r
    return pd


# -- result checkers -----------------------------------------------------------


def check_resolution(rep, module_dim, expected, field):
    """A ResolutionReport against its expected verdict and exactness.

    expected is ("finite", d) or ("atLeast", c).  Every boundary must
    have rank dim F_i - dim syzygy_i = dim syzygy_i-1 (dim M at i = 0),
    consecutive boundaries must compose to zero, and a finite verdict
    d > 0 must carry a splitting s of the last cover with pi s = id.
    """
    v = rep.pd_verdict
    require((v.kind, v.value) == tuple(expected),
            f"pd verdict {v!r}, expected {expected}")
    prev = module_dim
    for i, step in enumerate(rep.steps):
        b = step.boundary
        rk = rank(b.rows, field)
        require(rk == b.ncols - step.syzygy_dim,
                f"step {i}: rank {rk} but dim F - dim syzygy = "
                f"{b.ncols - step.syzygy_dim}")
        require(rk == prev, f"step {i}: rank {rk} but previous syzygy has dim {prev}")
        prev = step.syzygy_dim
        if i:
            a = rep.steps[i - 1].boundary
            require(is_zero(matmul(a.rows, b.rows, b.ncols, field)),
                    f"boundaries {i - 1} and {i} do not compose to zero")
    if v.kind == "finite" and v.value > 0:
        w = rep.steps[-1].syzygy_projectivity
        require(w.projective and w.splitting is not None,
                "finite verdict without a splitting witness")
        pi, s = w.cover.matrix, w.splitting.matrix
        require(is_identity(matmul(pi.rows, s.rows, s.ncols, field)),
                "splitting witness: pi . s is not the identity")


def check_tor(first, second, expected=None):
    require(first == second, f"Tor depends on the resolved side: {first} vs {second}")
    if expected is not None:
        require(list(first) == list(expected), f"Tor {first}, expected {expected}")
