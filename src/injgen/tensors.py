"""Balanced tensor products X (x)_A Y as explicit quotient spaces.

The carrier is the full pair grid X (x)_k Y, pair (i, j) at column
i * dim Y + j; the quotient is by the Span of xa (x) y - x (x) ay for a
running over a generating subset of A's basis (sufficient: the balancing
relation for a product follows from the two factors').  Every relation
vector is homogeneous, so the elimination never mixes degrees and the
quotient basis inherits well-defined degrees.  Relations, classes of
pairs and induced actions are sparse cells {index: coefficient}, the form
of the action tables; no dense pair-grid vector is built.
"""

from __future__ import annotations

from .algebra import (AlgebraError, GradedAlgebra, GradedBimodule, GradedModule,
                      _sum_cells)
from .linalg import Span, _modulus, _nonzero, row_space_reducer


def _side_data(X, algebra, side):
    """(dim, action, degree) of X as a module over algebra on the given side."""
    if isinstance(X, GradedBimodule):
        alg, action = ((X.left_algebra, X.left_action) if side == "left"
                       else (X.right_algebra, X.right_action))
        if alg != algebra:
            raise AlgebraError(f"bimodule {side} algebra mismatch")
        return X.dim, action, X.degree
    if not isinstance(X, GradedModule) or X.side != side or X.algebra != algebra:
        raise AlgebraError(f"expected a {side} module over the tensor algebra")
    return X.dim, X.action, X.degree


class TensorSpace:
    """Quotient presentation of X (x)_A Y.

    dim: quotient dimension; section: list of representative pairs (i, j)
    (one per quotient basis vector); project_pair(i, j) gives the class of
    x_i (x) y_j as a sparse cell over the quotient basis, shared and never
    to be mutated.
    """

    def __init__(self, field, group, dimX, dimY, reduce, free_cols, degrees):
        self.field = field
        self.group = group
        self.dimX = dimX
        self.dimY = dimY
        self._reduce = reduce
        self.free_cols = free_cols
        self.dim = len(free_cols)
        self.section = [(c // dimY, c % dimY) for c in free_cols]
        self.degrees = degrees
        self._pair_cache = {}

    def project_pair(self, i, j):
        key = (i, j)
        if key not in self._pair_cache:
            self._pair_cache[key] = self._reduce({i * self.dimY + j: self.field.one()})
        return self._pair_cache[key]


def tensor_over_algebra(X, Y, algebra: GradedAlgebra) -> TensorSpace:
    dimX, Xact, degX = _side_data(X, algebra, "right")
    dimY, Yact, degY = _side_data(Y, algebra, "left")
    group, p = algebra.group, _modulus(algebra.field)
    rel = Span(algebra.field, dimX * dimY)
    for j in algebra.generators():
        for i in range(dimX):
            xa = Xact[i][j]
            for k in range(dimY):
                ay = Yact[k][j]
                if not xa and not ay:
                    continue
                row = {l * dimY + k: c for l, c in xa.items()}
                for q, c in ay.items():
                    col = i * dimY + q
                    row[col] = row.get(col, 0) - c
                rel.add(_nonzero(p, row.items()))
    reduce, free = row_space_reducer(rel)
    degrees = [group.add(degX[c // dimY], degY[c % dimY]) for c in free]
    return TensorSpace(algebra.field, group, dimX, dimY, reduce, free, degrees)


def _induced_action(T: TensorSpace, action, dim, on_first):
    """Action table on T of an outer action on one tensor factor.

    action[u][s] is basis vector u of the first factor (on_first) or of the
    second one acted on by basis vector s of the outer algebra (dim of
    them); the class of (i, j) goes to the class of the moved pair.  It
    descends because the outer action maps balancing relations to
    balancing relations.
    """
    p = _modulus(T.field)
    pair = T.project_pair
    table = []
    for (i, j) in T.section:
        if on_first:
            table.append([_sum_cells(p, ((c, pair(u, j)) for u, c in action[i][s].items()))
                          for s in range(dim)])
        else:
            table.append([_sum_cells(p, ((c, pair(i, u)) for u, c in action[j][s].items()))
                          for s in range(dim)])
    return table


def tensor_module_with_bimodule(X: GradedModule, P: GradedBimodule):
    """X (x)_A P for X a right A-module, P an (A, S)-bimodule.

    Returns (right S-module, TensorSpace).
    """
    T = tensor_over_algebra(X, P, X.algebra)
    S = P.right_algebra
    action = _induced_action(T, P.right_action, S.dim, on_first=False)
    labels = [f"t{k}" for k in range(T.dim)]
    return GradedModule._trusted(S, "right", labels, T.degrees, action), T


def tensor_bimodule_with_module(P: GradedBimodule, Y: GradedModule):
    """P (x)_A Y for P an (S, A)-bimodule, Y a left A-module -> left S-module."""
    T = tensor_over_algebra(P, Y, Y.algebra)
    S = P.left_algebra
    action = _induced_action(T, P.left_action, S.dim, on_first=True)
    labels = [f"t{k}" for k in range(T.dim)]
    return GradedModule._trusted(S, "left", labels, T.degrees, action), T


def tensor_bimodules(P: GradedBimodule, Q: GradedBimodule):
    """P (x)_A Q for P an (R, A)- and Q an (A, S)-bimodule -> (R, S)-bimodule."""
    A = P.right_algebra
    if Q.left_algebra != A:
        raise AlgebraError("middle algebras disagree")
    T = tensor_over_algebra(P, Q, A)
    R, S = P.left_algebra, Q.right_algebra
    left_action = _induced_action(T, P.left_action, R.dim, on_first=True)
    right_action = _induced_action(T, Q.right_action, S.dim, on_first=False)
    labels = [f"t{k}" for k in range(T.dim)]
    B = GradedBimodule._trusted(R, S, labels, T.degrees, left_action, right_action)
    return B, T

