"""Balanced tensor products X (x)_A Y as explicit quotient spaces.

The quotient is of X (x)_k Y by the Span of the balancing relations
xa (x) y - x (x) ay.  When A has two or more basis idempotents e_s
(algebra._structure) and every basis vector of X lies in one X e_s and
every basis vector of Y in one e_s Y, the carrier is the direct sum of
the blocks X e_s x e_s Y.  A pair off the blocks is zero in the quotient
(x (x) y = x e_s (x) e_t y = 0 for s != t), and the relations of the e_s
are exactly those off-block pairs, so they are dropped with them; a
basis vector a of the corner e_l A e_r relates only the pairs of
X e_l x e_r Y on the blocks.  Otherwise the carrier is the full pair
grid, one block, and the relations are those of a generating subset of
A's basis (sufficient: the balancing relation for a product follows from
the two factors').  Either way the carrier columns follow the grid order,
pair (i, j) at grid index i * dim Y + j, and Span keeps a unique reduced
echelon form, so the free columns (given as grid indices), the classes
of pairs and the degrees do not depend on the carrier chosen.

Every relation vector is homogeneous, so the elimination never mixes
degrees and the quotient basis inherits well-defined degrees.
Relations, classes of pairs and induced actions are sparse cells
{index: coefficient}, the form of the action tables; no dense pair-grid
vector is built.
"""

from __future__ import annotations

from .algebra import (AlgebraError, GradedAlgebra, GradedBimodule, GradedModule,
                      _corner_tags, _structure, _sum_cells)
from .linalg import Span, _modulus, _nonzero, row_space_reducer


def _side_data(X, algebra, side):
    """(dim, action, degree) of X, a module or a bimodule read through its
    one-sided view, as a module over algebra on the given side."""
    if isinstance(X, GradedBimodule):
        X = X.as_left_module() if side == "left" else X.as_right_module()
    if not isinstance(X, GradedModule) or X.side != side or X.algebra != algebra:
        raise AlgebraError(f"expected a {side} module over the tensor algebra")
    return X.dim, X.action, X.degree


def _blocks(algebra, dimX, Xact, dimY, Yact):
    """(tx, ty, rels): the block of each basis vector of X and of Y, and
    (j, l, r) for each basis vector b_j whose relations are imposed on
    X_l x Y_r.  With basis idempotents along which X and Y split, the
    blocks are the e_s and rels holds the other basis vectors with their
    corners; otherwise every tag is 0 and rels holds the generators."""
    rec = _structure(algebra)
    if len(rec.idems) > 1:
        supp = [next(iter(e.items())) for e in rec.idems]
        fld = algebra.field
        tx = _corner_tags(fld, supp, dimX, lambda i, k: Xact[i][k])
        ty = _corner_tags(fld, supp, dimY, lambda i, k: Yact[i][k])
        if tx is not None and ty is not None:
            tops = {k for k, _ in supp}
            return tx, ty, [(j, rec.left[j], rec.right[j])
                            for j in range(algebra.dim) if j not in tops]
    return [0] * dimX, [0] * dimY, [(j, 0, 0) for j in algebra.generators()]


class TensorSpace:
    """Quotient presentation of X (x)_A Y.

    dim: quotient dimension; free_cols: the grid indices i * dimY + j of
    the pairs kept as quotient basis; section: those pairs (i, j);
    project_pair(i, j) gives the class of x_i (x) y_j as a sparse cell over
    the quotient basis, shared and never to be mutated, and {} for a pair
    off the blocks.
    """

    def __init__(self, field, group, dimX, dimY, reduce, free_cols, degrees, col):
        self.field = field
        self.group = group
        self.dimX = dimX
        self.dimY = dimY
        self._reduce = reduce
        self.free_cols = free_cols
        self.dim = len(free_cols)
        self.section = [(c // dimY, c % dimY) for c in free_cols]
        self.degrees = degrees
        self._col = col     # grid index of a block pair -> carrier column
        self._pair_cache = {}

    def project_pair(self, i, j):
        key = (i, j)
        if key not in self._pair_cache:
            c = self._col.get(i * self.dimY + j)
            self._pair_cache[key] = {} if c is None else self._reduce({c: self.field.one()})
        return self._pair_cache[key]


def tensor_over_algebra(X, Y, algebra: GradedAlgebra) -> TensorSpace:
    dimX, Xact, degX = _side_data(X, algebra, "right")
    dimY, Yact, degY = _side_data(Y, algebra, "left")
    group, p = algebra.group, _modulus(algebra.field)
    tx, ty, rels = _blocks(algebra, dimX, Xact, dimY, Yact)
    grid = [i * dimY + k for i, s in enumerate(tx) for k, t in enumerate(ty) if s == t]
    col = {g: c for c, g in enumerate(grid)}
    xs, ys = {}, {}
    for i, s in enumerate(tx):
        xs.setdefault(s, []).append(i)
    for k, s in enumerate(ty):
        ys.setdefault(s, []).append(k)
    rel = Span(algebra.field, len(grid))
    for j, l, r in rels:
        for i in xs.get(l, ()):
            xa = Xact[i][j]
            for k in ys.get(r, ()):
                ay = Yact[k][j]
                if not xa and not ay:
                    continue
                row = {col[u * dimY + k]: c for u, c in xa.items()}
                for q, c in ay.items():
                    cq = col[i * dimY + q]
                    row[cq] = row.get(cq, 0) - c
                rel.add(_nonzero(p, row.items()))
    reduce, free = row_space_reducer(rel)
    free_cols = [grid[c] for c in free]
    degrees = [group.add(degX[c // dimY], degY[c % dimY]) for c in free_cols]
    return TensorSpace(algebra.field, group, dimX, dimY, reduce, free_cols, degrees, col)


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

