"""Covers by idempotent projectives against the free covers they replaced.

An algebra carried along a random invertible change of basis keeps its
homological answers, but its unit no longer has a support of orthogonal
basis idempotents, so it resolves through the one-idempotent case e A = A:
free covers.  A module carried along a random change of its own basis keeps
the algebra's idempotents but no longer has each basis vector in one
M e_i, so its generators split into their components m e_i.  The pd
verdicts and Tor dimensions of all three must agree.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from dense_modules import identity, is_module_hom, sparse_rows
from injgen.algebra import (GradedAlgebra, GradedBimodule, GradedModule,
                            check_axioms, regular_bimodule, regular_module)
from injgen.constructions import covering_ring, morita_ring, tensor_ring
from injgen.field import QQ, PrimeField
from injgen.groups import TRIVIAL_GROUP, FiniteAbelianGroup
from injgen.homology import (Verdict, _cover, _resolver, _structure,
                             flatten_module, is_projective,
                             projective_dimension, resolution_report, tor)
from injgen.linalg import Matrix, render_columns, right_inverse
from injgen.quiver import path_algebra
from injgen.samples import (product_field_algebra, random_graded_algebra,
                            random_module, truncated_polynomial)

F5 = PrimeField(5)


def _character(A, side, hot):
    fld = A.field
    action = [[{0: fld.one()} if j == hot else {} for j in range(A.dim)]]
    return GradedModule(A, side, ["s"], [A.group.zero()], action)


def _linear_quiver(fld, n, r):
    verts = [str(i + 1) for i in range(n)]
    arrows = [(f"a{i}", verts[i], verts[i + 1]) for i in range(n - 1)]
    rels = [tuple(f"a{j}" for j in range(i, i + r)) for i in range(n - r)]
    return path_algebra(fld, verts, arrows, rels)


def _triangular(fld):
    D = truncated_polynomial(fld, 2)
    zero = GradedBimodule(D, D, [], [], [], [])
    return morita_ring(D, D, regular_bimodule(D), zero)


def _chain_tensor_ring(fld, n):
    kn = product_field_algebra(fld, n)
    one = fld.one()
    left = [[{i: one} if j == i else {} for j in range(n)] for i in range(n - 1)]
    right = [[{i: one} if j == i + 1 else {} for j in range(n)] for i in range(n - 1)]
    W = GradedBimodule(kn, kn, [f"t{i}" for i in range(n - 1)], [()] * (n - 1),
                       left, right)
    return tensor_ring(kn, W, n).algebra


def _family_pairs(fld):
    """(name, right module X, left module Y) over the resolve-shaped
    algebras; X and Y are characters of basis idempotents."""
    ctx = _triangular(fld)
    L = ctx.assembled
    a, b = ctx.offsets[0], ctx.offsets[3]
    yield "tri:AB", _character(L, "right", a), _character(L, "left", b)
    yield "tri:BA", _character(L, "right", b), _character(L, "left", a)
    yield "tri:BB", _character(L, "right", b), _character(L, "left", b)
    for m, n in ((2, 2), (3, 2), (2, 3)):
        cov = covering_ring(truncated_polynomial(fld, m, FiniteAbelianGroup((n,)), (1,)))
        g0 = cov.base.group.zero()
        g1 = cov.base.group.reduce((1,))
        yield (f"cov:m{m}n{n}", _character(cov.algebra, "right", cov.pos[(g0, g0, 0)]),
               _character(cov.algebra, "left", cov.pos[(g1, g1, 0)]))
    for n, r in ((3, 2), (3, 3), (4, 2)):
        pa = _linear_quiver(fld, n, r)
        vi = pa.vertex_index
        for u, v in (("1", str(n)), ("2", "1")):
            yield (f"quiver:A{n}r{r}:S{u}S{v}", _character(pa.algebra, "right", vi[u]),
                   _character(pa.algebra, "left", vi[v]))
    T = _chain_tensor_ring(fld, 3)
    for u, v in (("1", "3"), ("2", "2")):
        yield (f"tensor:k3:S{u}S{v}", _character(T, "right", T.labels.index(f"t0:e{u}")),
               _character(T, "left", T.labels.index(f"t0:e{v}")))


# -- transport along a change of basis ---------------------------------------


def _random_invertible(fld, n, rng):
    while True:
        P = Matrix(fld, [[fld.of_int(rng.randint(-3, 3)) for _ in range(n)]
                         for _ in range(n)], n)
        Q = right_inverse(fld, sparse_rows(P), n)
        if Q is not None:
            return P, render_columns(fld, Q, n)


def _accumulate(fld, acc, c, vec):
    """acc += c * vec for a dense acc and a sparse or dense vec."""
    if not fld.is_zero(c):
        for k, x in (vec.items() if isinstance(vec, dict) else enumerate(vec)):
            acc[k] = fld.add(acc[k], fld.mul(c, x))
    return acc


def _in_basis(fld, old, Q):
    """Sparse coordinates over the new basis of a dense old-coordinate
    vector, where old basis vector k is sum_q Q[k][q] new_q."""
    acc = [fld.zero()] * Q.ncols
    for k, a in enumerate(old):
        _accumulate(fld, acc, a, Q.rows[k])
    return {q: x for q, x in enumerate(acc) if not fld.is_zero(x)}


def _rebase_algebra(A, rng):
    """(A', P): A with its trivial grading, written in the basis
    b'_i = sum_j P[i][j] b_j for a random invertible P."""
    fld, d = A.field, A.dim
    P, Q = _random_invertible(fld, d, rng)
    mult = []
    for i in range(d):
        row = []
        for l in range(d):
            prod = [fld.zero()] * d
            for j, pj in enumerate(P.rows[i]):
                for m, pm in enumerate(P.rows[l]):
                    _accumulate(fld, prod, fld.mul(pj, pm), A.mult[j][m])
            row.append(_in_basis(fld, prod, Q))
        mult.append(row)
    unit = [fld.zero()] * d
    for q, x in _in_basis(fld, A.unit, Q).items():
        unit[q] = x
    A2 = GradedAlgebra(fld, TRIVIAL_GROUP, [f"c{i}" for i in range(d)], [()] * d, unit, mult)
    return A2, P


def _rebase_module(M, rng, moved=None):
    """M written in a random new basis m'_g = sum_h R[g][h] m_h and, given
    moved = (A', P) from _rebase_algebra, made a module over A', on which
    b'_i acts as sum_j P[i][j] b_j."""
    M = flatten_module(M)
    fld, n = M.field, M.dim
    R, S = _random_invertible(fld, n, rng)
    A, P = moved if moved else (M.algebra, identity(fld, M.algebra.dim))
    action = []
    for g in range(n):
        row = []
        for i in range(A.dim):
            old = [fld.zero()] * n
            for h, r in enumerate(R.rows[g]):
                for j, p in enumerate(P.rows[i]):
                    _accumulate(fld, old, fld.mul(r, p), M.action[h][j])
            row.append(_in_basis(fld, old, S))
        action.append(row)
    return GradedModule(A, M.side, [f"m{g}" for g in range(n)], [()] * n, action)


def _three_ways(X, Y, rng):
    """(X, Y) as given, with scrambled module bases, and moved to a
    rebased algebra."""
    moved = _rebase_algebra(flatten_module(X).algebra, rng)
    out = [(flatten_module(X), flatten_module(Y)),
           (_rebase_module(X, rng), _rebase_module(Y, rng)),
           (_rebase_module(X, rng, moved), _rebase_module(Y, rng, moved))]
    for Xi, Yi in out[1:]:
        assert check_axioms(Xi.algebra).passed
        assert check_axioms(Xi).passed and check_axioms(Yi).passed
    return out


def _answers(X, Y, cutoff, i_max):
    first, second = tor(X, Y, i_max), tor(X, Y, i_max, resolve_side="second")
    assert first == second
    return projective_dimension(X, cutoff), projective_dimension(Y, cutoff), first


def _assert_witnesses(M, cutoff):
    """Every projective verdict of the resolution carries a splitting s, a
    module map with pi . s = id."""
    rep = resolution_report(M, cutoff)
    reports = [is_projective(M)] + [s.syzygy_projectivity for s in rep.steps]
    for r in reports:
        if r.projective:
            assert is_module_hom(r.splitting)
            assert r.cover.matrix.mul(r.splitting.matrix) == identity(M.field, r.module.dim)


# -- the idempotents -------------------------------------------------------------


def test_idempotents_of_the_families():
    counts = {name: len(_structure(X.algebra).idems) for name, X, _ in _family_pairs(F5)}
    assert counts["tri:AB"] == 2 and counts["cov:m3n2"] == 2 and counts["cov:m2n3"] == 3
    assert counts["quiver:A4r2:S1S4"] == 4 and counts["tensor:k3:S1S3"] == 3
    for A in (truncated_polynomial(F5, 3), product_field_algebra(F5, 1)):
        assert _structure(A)[:3] == ([{0: F5.one()}], [0] * A.dim, [0] * A.dim)


def test_idempotents_read_scaled_unit_support():
    # k x k over F_5 in the basis (2 e1, e2): the unit is 3 (2 e1) + e2
    one = F5.one()
    A = GradedAlgebra(F5, TRIVIAL_GROUP, ["f1", "f2"], [(), ()], [F5.of_int(3), one],
                      [[{0: F5.of_int(2)}, {}], [{}, {1: one}]])
    assert check_axioms(A).passed
    idems, left, right, _ = _structure(A)
    assert idems == [{0: F5.of_int(3)}, {1: one}] and left == right == [0, 1]


def test_idempotents_fall_back_to_the_unit():
    # the unit support of a rebased algebra is no set of basis idempotents,
    # so its covers are free
    pa = _linear_quiver(F5, 3, 2)
    rng = random.Random(3)
    moved = _rebase_algebra(pa.algebra, rng)
    A2 = moved[0]
    idems, left, right, _ = _structure(A2)
    assert len(idems) == 1 and idems[0] == {q: x for q, x in enumerate(A2.unit) if x}
    assert left == right == [0] * A2.dim
    cov = _cover(_rebase_module(_character(pa.algebra, "right", 0), rng, moved))
    assert cov.free.dim == A2.dim and cov.summands == (0,)


def _assert_kernel_in_corners(cov):
    # each kernel vector lies in one (ker pi) e_t
    for v in cov.kernel:
        assert len({cov.tags[f] for f in v}) == 1


def test_scrambled_module_splits_generators():
    # modules of A3 in a random basis: greedy generators are cut into their
    # components m e_i, and the cover kernel still lies in the corners
    for r in (2, 3):
        A = _linear_quiver(F5, 3, r).algebra
        for side in ("left", "right"):
            M = _rebase_module(regular_module(A, side), random.Random(5))
            cov = _cover(M)
            assert len(M.generators()) < len(cov.summands)
            _assert_kernel_in_corners(cov)
            assert is_projective(M).projective
            _assert_witnesses(M, 2)


# -- oracle: idempotent covers against free covers -----------------------------


def test_families_agree_across_bases():
    rng = random.Random(2024)
    names = []
    for fld in (F5, QQ):
        for name, X, Y in _family_pairs(fld):
            if fld is QQ and not name.startswith(("tri:AB", "cov:m2n2", "quiver:A3r2")):
                continue
            ways = _three_ways(X, Y, rng)
            assert len(_structure(ways[0][0].algebra).idems) > 1
            assert len(_structure(ways[2][0].algebra).idems) == 1
            answers = [_answers(Xi, Yi, 3, 2) for Xi, Yi in ways]
            assert answers[0] == answers[1] == answers[2], (name, answers)
            for Xi, Yi in ways:
                _assert_witnesses(Xi, 3)
                _assert_witnesses(Yi, 3)
            names.append(name)
    assert len(names) == 18


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rational=st.booleans())
def test_random_modules_agree_across_bases(seed, rational):
    rng = random.Random(seed)
    A = random_graded_algebra(QQ if rational else F5, rng, max_dim=6, max_group=4)
    X, Y = random_module(A, rng, "right"), random_module(A, rng, "left")
    ways = _three_ways(X, Y, rng)
    answers = [_answers(Xi, Yi, 2, 2) for Xi, Yi in ways]
    assert answers[0] == answers[1] == answers[2]
    for Xi, Yi in ways[:2]:
        for res in (_resolver(Xi), _resolver(Yi)):
            for cov in res.covers:
                _assert_kernel_in_corners(cov)


# -- depth now within reach ----------------------------------------------------------


def test_radical_square_zero_quiver_simples_resolve_with_rank_one():
    # S1 over 1 -> 2 -> ... -> n with radical square zero: pd n - 1, and
    # every cover is the one projective e_i A; free covers needed 1 GB at n = 5
    for n in range(4, 8):
        pa = _linear_quiver(F5, n, 2)
        rep = resolution_report(_character(pa.algebra, "right", pa.vertex_index["1"]), 8)
        assert rep.pd_verdict == Verdict.finite(n - 1)
        assert [s.rank for s in rep.steps] == [1] * (n - 1)
        assert [s.syzygy_dim for s in rep.steps] == [1] * (n - 1)
        assert rep.steps[-1].syzygy_projectivity.projective
