"""The sparse tensor layer against the dense code it replaced.

tensor_over_algebra builds its balancing relations as sparse cells in a
Span, row_space_reducer reads that Span's reduced rows, and project_pair,
the induced actions, quotient_module and TensorTower.mu all work on
sparse cells.  Before, each relation was a dense row of the whole pair
grid, gathered into a Matrix that the reducer eliminated again, classes
of pairs were dense vectors, and mu was a dense matrix on basis pairs.
That dense code is kept here as an oracle.  Reduced row echelon form is
unique, so free columns, sections, classes, tables and concatenation
pairings must agree exactly.  The inputs are the algebras of the
benchmark's pd sweeps (triangular rings over the dual numbers, coverings,
linear quivers, the tensor ring of a chain), seeded random modules over
F_2, F_5 and Q, the corpus's tensor rings and chains over k^n.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from dense_modules import zeros
from injgen.algebra import (GradedBimodule, GradedModule, _closure_span,
                            quotient_module, regular_bimodule, regular_module)
from injgen.bundled import corpus_docs
from injgen.constructions import (TensorTower, covering_ring, morita_ring,
                                  tensor_ring)
from injgen.field import QQ, PrimeField
from injgen.groups import FiniteAbelianGroup
from injgen.linalg import Matrix, _dense, _echelon, _modulus, _sparse
from injgen.quiver import path_algebra
from injgen.samples import (group_algebra, product_field_algebra,
                            random_graded_algebra, random_module,
                            truncated_polynomial)
from injgen.serialize import content_hash, from_json
from injgen.tensors import (_side_data, tensor_bimodule_with_module,
                            tensor_bimodules, tensor_module_with_bimodule,
                            tensor_over_algebra)

F2, F5 = PrimeField(2), PrimeField(5)
FIELDS = (F2, F5, QQ)


# -- the replaced dense code -----------------------------------------------------


def _dense_reducer(mat):
    """row_space_reducer as it was: eliminate the relation matrix, then
    reduce dense vectors to dense coordinates over the free columns."""
    p = _modulus(mat.field)
    piv = _echelon(mat.field, _sparse(mat))
    free = [c for c in range(mat.ncols) if c not in piv]
    pos = {c: k for k, c in enumerate(free)}
    prows = [(pc, [(pos[j], a) for j, a in row.items() if j != pc])
             for pc, row in sorted(piv.items())]

    def reduce(v):
        out = [v[c] for c in free]
        for pc, prow in prows:
            f = v[pc]
            if f:
                for k, a in prow:
                    out[k] -= f * a
        return [a % p for a in out] if p else out

    return reduce, free


class _DenseTensor:
    """X (x)_A Y from dense relation rows, with dense classes of pairs."""

    def __init__(self, X, Y, algebra):
        dimX, Xact, degX = _side_data(X, algebra, "right")
        dimY, Yact, degY = _side_data(Y, algebra, "left")
        F = self.field = algebra.field
        ncols = dimX * dimY
        rows = []
        for j in algebra.generators():
            for i in range(dimX):
                xa = Xact[i][j]
                for k in range(dimY):
                    ay = Yact[k][j]
                    if not xa and not ay:
                        continue
                    row = [F.zero()] * ncols
                    for l, c in xa.items():
                        col = l * dimY + k
                        row[col] = F.add(row[col], c)
                    for q, c in ay.items():
                        col = i * dimY + q
                        row[col] = F.sub(row[col], c)
                    if any(not F.is_zero(a) for a in row):
                        rows.append(row)
        self._reduce, self.free_cols = _dense_reducer(Matrix(F, rows, ncols))
        self.dimY = dimY
        self.dim = len(self.free_cols)
        self.section = [(c // dimY, c % dimY) for c in self.free_cols]
        self.degrees = [algebra.group.add(degX[c // dimY], degY[c % dimY])
                        for c in self.free_cols]
        self.ncols = ncols

    def project_pair(self, i, j):
        F = self.field
        v = [F.zero()] * self.ncols
        v[i * self.dimY + j] = F.one()
        return self._reduce(v)

    def induced_action(self, action, dim, on_first):
        F = self.field
        table = []
        for (i, j) in self.section:
            row = []
            for s in range(dim):
                acc = [F.zero()] * self.dim
                for u, c in action[i if on_first else j][s].items():
                    pv = self.project_pair(u, j) if on_first else self.project_pair(i, u)
                    for k, a in enumerate(pv):
                        if not F.is_zero(a):
                            acc[k] = F.add(acc[k], F.mul(c, a))
                row.append({k: a for k, a in enumerate(acc) if not F.is_zero(a)})
            table.append(row)
        return table


def _dense_quotient(M, vectors):
    """quotient_module's degrees and action table as they were: the dense
    closure basis reduced as a matrix, each action cell densified."""
    closure = [_dense(M.field, row, M.dim) for _, row in _closure_span(M, vectors).rows()]
    reduce, free = _dense_reducer(Matrix(M.field, closure, M.dim))
    action = [[{k: x for k, x in enumerate(reduce(_dense(M.field, M.action[c][j], M.dim)))
                if not M.field.is_zero(x)}
               for j in range(M.algebra.dim)] for c in free]
    return [M.degree[c] for c in free], action


def _column(m, j):
    return [r[j] for r in m.rows]


def _dense_mu(tower, spaces, memo, i, j):
    """TensorTower.mu as it was: a dense matrix on basis pairs, column
    u * dim power(j) + v, with spaces[k] the dense space of power(k)."""
    key = (i, j)
    if key in memo:
        return memo[key]
    F = tower.base.field
    Pi, Pj, Pij = tower.power(i), tower.power(j), tower.power(i + j)
    out = zeros(F, Pij.dim, Pi.dim * Pj.dim)
    if Pij.dim == 0 or Pi.dim == 0 or Pj.dim == 0:
        pass
    elif j == 0:
        for u in range(Pi.dim):
            for r in range(tower.base.dim):
                for k, c in Pi.right_action[u][r].items():
                    out.rows[k][u * Pj.dim + r] = c
    elif i == 0:
        for r in range(tower.base.dim):
            for v in range(Pj.dim):
                for k, c in Pj.left_action[v][r].items():
                    out.rows[k][r * Pj.dim + v] = c
    elif j == 1:
        space = spaces[i + 1]
        for u in range(Pi.dim):
            for v in range(Pj.dim):
                for k, c in enumerate(space.project_pair(u, v)):
                    out.rows[k][u * Pj.dim + v] = c
    else:
        inner = _dense_mu(tower, spaces, memo, i, j - 1)
        outer = _dense_mu(tower, spaces, memo, i + j - 1, 1)
        dmid = tower.power(i + j - 1).dim
        for v in range(Pj.dim):
            w, mlast = spaces[j].section[v]
            for u in range(Pi.dim):
                uw = _column(inner, u * tower.power(j - 1).dim + w)
                acc = [F.zero()] * Pij.dim
                for t in range(dmid):
                    if F.is_zero(uw[t]):
                        continue
                    piece = _column(outer, t * tower.bim.dim + mlast)
                    for k, a in enumerate(piece):
                        if not F.is_zero(a):
                            acc[k] = F.add(acc[k], F.mul(uw[t], a))
                for k, a in enumerate(acc):
                    out.rows[k][u * Pj.dim + v] = a
    memo[key] = out
    return out


# -- comparisons ----------------------------------------------------------------


def _same_space(T, D):
    assert T.free_cols == D.free_cols
    assert T.section == D.section
    assert T.degrees == D.degrees
    F = T.field
    for i in range(T.dimX):
        for j in range(T.dimY):
            assert _dense(F, T.project_pair(i, j), T.dim) == D.project_pair(i, j)


def _check_tensor(X, Y, A):
    _same_space(tensor_over_algebra(X, Y, A), _DenseTensor(X, Y, A))


def _check_with_bimodule(X, P):
    """X (x) P and P (x) X for a right or left module X, induced action
    included."""
    if X.side == "right":
        Q, T = tensor_module_with_bimodule(X, P)
        D = _DenseTensor(X, P, X.algebra)
        want = D.induced_action(P.right_action, P.right_algebra.dim, on_first=False)
    else:
        Q, T = tensor_bimodule_with_module(P, X)
        D = _DenseTensor(P, X, X.algebra)
        want = D.induced_action(P.left_action, P.left_algebra.dim, on_first=True)
    _same_space(T, D)
    assert Q.action == want and Q.degree == D.degrees


def _check_bimodules(P, Q):
    B, T = tensor_bimodules(P, Q)
    D = _DenseTensor(P, Q, P.right_algebra)
    _same_space(T, D)
    assert B.left_action == D.induced_action(P.left_action, P.left_algebra.dim, True)
    assert B.right_action == D.induced_action(Q.right_action, Q.right_algebra.dim, False)


def _check_module(M):
    """M against the regular module and bimodule on the other side."""
    A = M.algebra
    other = "left" if M.side == "right" else "right"
    R = regular_module(A, other)
    _check_tensor(*((M, R) if M.side == "right" else (R, M)), A)
    _check_with_bimodule(M, regular_bimodule(A))


def _check_tower(tower, top):
    """Every mu(i, j) with i + j <= top against the dense pairing."""
    tower.power(top)
    spaces = [None, None] + [
        _DenseTensor(tower.power(k - 1), tower.bim, tower.base)
        if tower.power(k - 1).dim else None for k in range(2, top + 1)]
    memo = {}
    F = tower.base.field
    for i in range(top + 1):
        for j in range(top + 1 - i):
            cells, want = tower.mu(i, j), _dense_mu(tower, spaces, memo, i, j)
            dj, dij = tower.power(j).dim, tower.power(i + j).dim
            assert len(cells) == tower.power(i).dim
            for u, row in enumerate(cells):
                assert len(row) == dj
                for v, cell in enumerate(row):
                    assert _dense(F, cell, dij) == _column(want, u * dj + v)


# -- the pd sweep families --------------------------------------------------------


def _char(A, side, hot):
    """The 1-dimensional module on which basis element hot acts as 1."""
    F = A.field
    return GradedModule(A, side, ["s"], [A.group.zero()],
                        [[{0: F.one()} if j == hot else {} for j in range(A.dim)]])


def _chain(F, n):
    """k^n and the chain bimodule i -> i+1 over it."""
    kn = product_field_algebra(F, n)
    one = F.one()
    left = [[{i: one} if j == i else {} for j in range(n)] for i in range(n - 1)]
    right = [[{i: one} if j == i + 1 else {} for j in range(n)] for i in range(n - 1)]
    return kn, GradedBimodule(kn, kn, [f"t{i}" for i in range(n - 1)], [()] * (n - 1),
                              left, right)


def _linear_quiver(F, n, r):
    verts = [str(i + 1) for i in range(n)]
    arrows = [(f"a{i}", verts[i], verts[i + 1]) for i in range(n - 1)]
    rels = [tuple(f"a{j}" for j in range(i, i + r)) for i in range(n - r)] if r < n else []
    return path_algebra(F, verts, arrows, rels)


def _sweep_modules():
    """Modules over the algebras of the pd sweeps, on both sides."""
    out = []
    for F in (F5, QQ):
        D = truncated_polynomial(F, 2)
        zero = GradedBimodule(D, D, [], [], [], [])
        ctx = morita_ring(D, D, regular_bimodule(D), zero)
        k = _char(D, "left", 0)
        out += [ctx.Z_A(k).as_module(), ctx.Z_B(k).as_module()]
        L = ctx.assembled
        out += [_char(L, "right", ctx.offsets[0]), _char(L, "right", ctx.offsets[3])]
    for F, m, n in ((F5, 2, 2), (F5, 3, 2), (F5, 2, 3), (F5, 3, 3), (QQ, 2, 2)):
        cov = covering_ring(truncated_polynomial(F, m, FiniteAbelianGroup((n,)), (1,)))
        g = cov.base.group.zero()
        out.append(_char(cov.algebra, "right", cov.pos[(g, g, 0)]))
        A = cov.algebra
        kill = [A.basis_vec(i) for i, (a, _, x) in enumerate(cov.basis_triples)
                if a != g or x >= 2]
        out.append(quotient_module(regular_module(A, "right"), kill)[0])
    for F, n, r in ((F5, 2, 2), (F5, 3, 2), (F5, 3, 3), (F5, 4, 4), (F5, 5, 2), (QQ, 3, 3)):
        pa = _linear_quiver(F, n, r)
        out += [_char(pa.algebra, "right", pa.vertex_index["1"]),
                _char(pa.algebra, "left", pa.vertex_index[str(n)])]
    for F in (F5, QQ):
        A = tensor_ring(*_chain(F, 3), 3).algebra
        out += [_char(A, "right", A.labels.index("t0:e1")),
                _char(A, "left", A.labels.index("t0:e2"))]
    return out


def test_sweep_families_match_the_dense_tensor_layer():
    seen = set()
    for M in _sweep_modules():
        _check_module(M)
        if id(M.algebra) not in seen:
            seen.add(id(M.algebra))
            P = regular_bimodule(M.algebra)
            _check_bimodules(P, P)


# -- random modules ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(range(len(FIELDS))), seed=st.integers(0, 2 ** 32))
def test_random_modules_match_the_dense_tensor_layer(field, seed):
    F = FIELDS[field]
    rng = random.Random(seed)
    A = random_graded_algebra(F, rng, max_dim=6, max_group=4)
    X = random_module(A, rng, "right")
    Y = random_module(A, rng, "left")
    _check_tensor(X, Y, A)
    _check_module(X)
    _check_module(Y)
    P = regular_bimodule(A)
    _check_bimodules(P, P)
    # a quotient by random homogeneous vectors
    vectors = []
    for _ in range(2):
        deg = rng.choice(X.degree) if X.dim else None
        v = [F.of_int(rng.randint(-2, 2)) if d == deg else F.zero() for d in X.degree]
        if any(not F.is_zero(c) for c in v):
            vectors.append(v)
    Q, _ = quotient_module(X, vectors)
    assert (Q.degree, Q.action) == _dense_quotient(X, vectors)


# -- concatenation pairings ------------------------------------------------------


def test_corpus_tensor_rings_match_the_dense_pairing():
    objs, rings = {}, 0
    for _, doc in corpus_docs():
        objs[content_hash(doc)] = from_json(doc)
        prov = doc.get("provenance") or {}
        if prov.get("construction") == "tensor_ring":
            R, M = (objs[h] for h in prov["inputs"])
            k = prov["params"]["nilpotency_index"]
            _check_tower(tensor_ring(R, M, k).tower, k + 1)
            rings += 1
    assert rings


def test_chain_towers_match_the_dense_pairing():
    # the chain of test_concatenation_theta_reproduces_tensor_ring, then
    # longer chains, whose pairings reach the general case
    kk = product_field_algebra(F5, 3)
    one = F5.one()
    N = GradedBimodule(kk, kk, ["b1", "b2"], [(), ()],
                       [[{0: one}, {}, {}], [{}, {1: one}, {}]],
                       [[{}, {0: one}, {}], [{}, {}, {1: one}]])
    _check_tower(tensor_ring(kk, N, 3).tower, 3)
    for F, n in ((F5, 5), (QQ, 4), (F2, 4)):
        _check_tower(TensorTower(*_chain(F, n)), n)


def test_non_nilpotent_towers_match_the_dense_pairing():
    for R in (truncated_polynomial(F5, 3), group_algebra(F2, FiniteAbelianGroup((2,))),
              truncated_polynomial(QQ, 2)):
        _check_tower(TensorTower(R, regular_bimodule(R)), 4)
