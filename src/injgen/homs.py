"""Hom spaces between modules and exact-or-sampled isomorphism search."""

from __future__ import annotations

import itertools
import random

from .algebra import AlgebraError, GradedModule, ModuleHom, _sum_cells
from .linalg import kernel_basis, rank


def hom_space(M: GradedModule, N: GradedModule, graded: bool = True):
    """Basis of Hom_A(M, N) (degree-preserving maps when graded=True).

    Linearity is imposed against a generating subset of the algebra basis;
    that is equivalent to imposing it against every basis element because
    h(m (ab)) = (h(m a)) b whenever both a- and b-linearity hold.
    """
    if M.algebra != N.algebra or M.side != N.side:
        raise AlgebraError("hom spaces need a common algebra and side")
    A = M.algebra
    F = M.field
    if graded:
        unknowns = [(k, i) for k in range(N.dim) for i in range(M.dim)
                    if N.degree[k] == M.degree[i]]
    else:
        unknowns = [(k, i) for k in range(N.dim) for i in range(M.dim)]
    if not unknowns:
        return []
    pos = {u: t for t, u in enumerate(unknowns)}
    rows = []
    gens = A.generators()
    for i in range(M.dim):
        for j in gens:
            # h(act(m_i, e_j)) - act(h(m_i), e_j) = 0, one row per target
            # coord; kernel_basis reduces the sums
            step = M.action[i][j]
            row_for = [dict() for _ in range(N.dim)]
            for l, c in step.items():
                for k in range(N.dim):
                    if (k, l) in pos:
                        d = row_for[k]
                        d[pos[(k, l)]] = d.get(pos[(k, l)], 0) + c
            for k in range(N.dim):
                if (k, i) not in pos:
                    continue
                t = pos[(k, i)]
                for p, c in N.action[k][j].items():
                    d = row_for[p]
                    d[t] = d.get(t, 0) - c
            rows.extend(row_for)
    homs = []
    for v in kernel_basis(F, rows, len(unknowns)):
        cols = [{} for _ in range(M.dim)]
        for t, c in v.items():
            k, i = unknowns[t]
            cols[i][k] = c
        homs.append(ModuleHom(M, N, cols))
    return homs


class IsoReport:
    """Result of an isomorphism search.

    hom is None when no isomorphism was found; conclusive tells whether
    that absence is a proof (dimension mismatch, zero hom space, or a
    completed exhaustive search).  A found isomorphism is always
    conclusive.
    """

    def __init__(self, hom, conclusive, detail):
        self.hom = hom
        self.conclusive = conclusive
        self.detail = detail

    @property
    def found(self):
        return self.hom is not None

    def __repr__(self):
        return f"IsoReport(found={self.found}, conclusive={self.conclusive}, {self.detail!r})"


EXHAUSTIVE_LIMIT = 2 ** 16
_SAMPLES = 200


def find_isomorphism(M: GradedModule, N: GradedModule, graded: bool = True,
                     seed: int = 17) -> IsoReport:
    """Search Hom(M, N) for an isomorphism; modules over different
    algebras or sides raise AlgebraError, as hom_space does, zero modules
    included."""
    if M.algebra != N.algebra or M.side != N.side:
        raise AlgebraError("hom spaces need a common algebra and side")
    if M.dim != N.dim:
        return IsoReport(None, True, "dimension mismatch")
    if graded and M.dims_by_degree() != N.dims_by_degree():
        return IsoReport(None, True, "dimension-per-degree mismatch")
    if M.dim == 0:
        return IsoReport(ModuleHom(M, N, []), True, "zero modules")
    basis = hom_space(M, N, graded=graded)
    if not basis:
        return IsoReport(None, True, "hom space is zero")
    F = M.field
    d = len(basis)

    def invertible(coeffs):
        """The combination of the basis homs when its columns have full
        rank, else None."""
        terms = [(c, h.cols) for c, h in zip(coeffs, basis) if not F.is_zero(c)]
        cols = [_sum_cells(M._p, ((c, hcols[i]) for c, hcols in terms))
                for i in range(M.dim)]
        return ModuleHom(M, N, cols) if rank(F, cols) == N.dim else None

    # cheap candidates first: single basis homs and the all-ones sum
    one = F.one()
    cheap = [tuple(one if t == s else F.zero() for t in range(d)) for s in range(d)]
    cheap.append(tuple(one for _ in range(d)))
    for coeffs in cheap:
        hom = invertible(coeffs)
        if hom is not None:
            return IsoReport(hom, True, "found")

    if F.size is not None and F.size ** d <= EXHAUSTIVE_LIMIT:
        # exhaustive over all coefficient tuples
        for coeffs in itertools.product(F.elements(), repeat=d):
            if all(F.is_zero(c) for c in coeffs):
                continue
            hom = invertible(coeffs)
            if hom is not None:
                return IsoReport(hom, True, "found")
        return IsoReport(None, True, "exhausted coefficient space")

    rng = random.Random(seed)
    for _ in range(_SAMPLES):
        coeffs = [F.random(rng) for _ in range(d)]
        hom = invertible(coeffs)
        if hom is not None:
            return IsoReport(hom, True, "found")
    return IsoReport(None, False, f"no isomorphism in {_SAMPLES} samples")
