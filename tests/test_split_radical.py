"""The split radical witness, and projective covers against greedy covers.

When the basis idempotents are basis vectors and the other basis vectors
span a nilpotent ideal J, covers are projective covers: generators are a
lifted basis of M/MJ, and M is projective exactly when its cover has zero
kernel.  Elsewhere covers stay greedy and projectivity is decided by a
retraction onto the kernel.  Patching the witness to refuse every algebra
runs the greedy path on the same instances, so the two can be compared:
same verdicts, same pd and Tor, minimal ranks never above the greedy ones.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_modules import identity, is_module_hom
from test_idempotent_covers import (_chain_tensor_ring, _character, _family_pairs,
                                    _linear_quiver, _rebase_module, _triangular)
from injgen import homology
from injgen.algebra import (GradedAlgebra, GradedModule, _act_sparse, _closure_span,
                            check_axioms, module_from_span, regular_module)
from injgen.constructions import covering_ring
from injgen.field import QQ, PrimeField
from injgen.groups import TRIVIAL_GROUP, FiniteAbelianGroup
from injgen.homology import (_cover, _flat_algebra, _resolver, _retraction,
                             _structure, flatten_module, is_projective,
                             projective_dimension, tor)
from injgen.linalg import Span, rank
from injgen.samples import (group_algebra, product_field_algebra, random_graded_algebra,
                            random_module, truncated_polynomial)
from injgen.serialize import to_json

F2, F5 = PrimeField(2), PrimeField(5)
Z2 = FiniteAbelianGroup((2,))


# -- the witness -------------------------------------------------------------------


def _rebased_cube(fld):
    """k[x]/(x^3) on the basis 1, u = x + x^2, w = x - x^2.  Every product
    of u and w is x^2 = (u - w)/2, so the support graph of J J has cycles,
    yet J^3 = 0."""
    half = fld.inv(fld.of_int(2))
    x2 = {1: half, 2: fld.neg(half)}
    one = fld.one()
    mult = [[{0: one}, {1: one}, {2: one}], [{1: one}, x2, x2], [{2: one}, x2, x2]]
    A = GradedAlgebra(fld, TRIVIAL_GROUP, ["1", "u", "w"], [()] * 3,
                      [one, fld.zero(), fld.zero()], mult)
    assert check_axioms(A).passed
    return A


def _idempotent_plane(fld):
    """k x k on the basis 1, e: the span of e is an ideal, but e e = e."""
    one = fld.one()
    A = GradedAlgebra(fld, TRIVIAL_GROUP, ["1", "e"], [(), ()], [one, fld.zero()],
                      [[{0: one}, {1: one}], [{1: one}, {1: one}]])
    assert check_axioms(A).passed
    return A


def _assert_is_radical(A, rad):
    """rad spans a nilpotent two-sided ideal whose complement is a set of
    orthogonal idempotents summing to the unit, up to scalars: so A/J is
    k^n and J = rad A.  Checked apart from the witness's own reasoning."""
    fld, inside = A.field, set(rad)
    for j in rad:
        for a in range(A.dim):
            assert set(A.mult[j][a]) <= inside and set(A.mult[a][j]) <= inside
    power = [{j: fld.one()} for j in rad]
    for _ in range(len(rad)):       # J^(|J|+1) = 0 for a nilpotent J
        span = Span(fld, A.dim)
        for v in power:
            for a in rad:
                span.add(_act_sparse(A.mult, A._p, v, a))
        power = [row for _, row in span.rows()]
    assert not power
    idems = _structure(A).idems
    assert sorted(k for e in idems for k in e) == [k for k in range(A.dim) if k not in inside]
    for e in idems:
        for f in idems:
            (k, u), = e.items()
            (l, v), = f.items()
            prod = {t: fld.mul(fld.mul(u, v), x) for t, x in A.mult[k][l].items()}
            assert prod == (e if e is f else {})


def test_witness_finds_the_known_radicals():
    for fld in (F2, F5, QQ):
        for n, r in ((3, 2), (4, 2), (4, 3), (3, 3), (5, 9)):   # r >= n: no relations
            pa = _linear_quiver(fld, n, r)
            arrows = [j for j, p in enumerate(pa.paths) if p[0] != ""]
            assert _structure(pa.algebra).rad == arrows
        for m in (1, 2, 4):
            assert _structure(truncated_polynomial(fld, m)).rad == list(range(1, m))
        ctx = _triangular(fld)
        L = ctx.assembled
        tops = {ctx.offsets[0], ctx.offsets[3]}
        assert _structure(L).rad == [j for j in range(L.dim) if j not in tops]
        for m, n in ((2, 2), (3, 2), (2, 3)):
            cov = covering_ring(truncated_polynomial(fld, m, FiniteAbelianGroup((n,)), (1,)))
            assert _structure(cov.algebra).rad == sorted(
                k for (g, h, x), k in cov.pos.items() if x != 0)
        assert _structure(product_field_algebra(fld, 3)).rad == []
        for A in (_linear_quiver(fld, 4, 2).algebra, _triangular(fld).assembled,
                  _chain_tensor_ring(fld, 3)):
            _assert_is_radical(A, _structure(A).rad)


def test_witness_decides_nilpotency_past_a_cyclic_support_graph():
    for fld in (F5, QQ):
        A = _rebased_cube(fld)
        assert _structure(A).rad == [1, 2]
        _assert_is_radical(A, [1, 2])


def test_witness_refuses_what_is_not_the_radical():
    for fld in (F5, F2):
        kz2 = group_algebra(fld, Z2)
        assert _structure(kz2).rad is None
        assert _structure(_flat_algebra(kz2)).rad is None
        # the covering of kZ2 is M_2(k): its off-diagonal units multiply
        # to diagonal idempotents
        assert _structure(covering_ring(kz2).algebra).rad is None
        assert _structure(_idempotent_plane(fld)).rad is None


def test_witness_is_cached_and_never_serialized():
    A = truncated_polynomial(F5, 3)
    doc = to_json(A)
    rec = _structure(A)
    assert rec.rad == [1, 2] and A._cache["structure"] is rec
    assert to_json(A) == doc


def test_refused_algebras_keep_the_retraction():
    # over F_2, kZ2 is local with radical spanned by 1 + g, no basis
    # vector: the trivial module has infinite pd; over F_5 it is projective
    for fld, want in ((F2, homology.Verdict.at_least(3)), (F5, homology.Verdict.finite(0))):
        kz2 = _flat_algebra(group_algebra(fld, Z2))
        triv = GradedModule(kz2, "right", ["s"], [()], [[{0: fld.one()}, {0: fld.one()}]])
        assert check_axioms(triv).passed
        assert projective_dimension(triv, 3) == want
        rep = is_projective(triv)
        assert rep.projective == (_retraction(flatten_module(triv), _cover(triv)) is not None)
    plane = _idempotent_plane(F5)
    M = _character(plane, "right", 0)
    assert is_projective(M).projective and is_module_hom(is_projective(M).splitting)


# -- projective covers against greedy covers ----------------------------------------


def _top_dim(M):
    """dim M / M J for the split radical J of M's algebra."""
    M = flatten_module(M)
    rad = _structure(M.algebra).rad
    return M.dim - rank(M.field, [row[a] for row in M.action for a in rad])


def _run(X, Y, cutoff, i_max):
    """pd and Tor answers of (X, Y), the cover ranks out to the cutoff, and
    checks that hold on either path: every projectivity verdict equals the
    retraction's on the same cover, a projective verdict carries a
    splitting, and each syzygy equals the submodule the closure of the
    cover's kernel gives, row for row."""
    answers = (projective_dimension(X, cutoff), projective_dimension(Y, cutoff),
               tor(X, Y, i_max), tor(X, Y, i_max, resolve_side="second"))
    ranks = []
    for M in (X, Y):
        res = _resolver(M)
        res.ensure(cutoff)
        ranks.append(res.ranks[:cutoff])
        for prev, cov, syz in zip([res.module] + res.syzygies, res.covers, res.syzygies):
            rep = is_projective(prev)
            assert rep.projective == (_retraction(prev, cov) is not None)
            if rep.projective:
                assert is_module_hom(rep.splitting)
                assert rep.cover.matrix.mul(rep.splitting.matrix) == identity(
                    prev.field, prev.dim)
            S, incl = module_from_span(cov.free, cov.kernel, label="z")
            assert (S.action, S.labels) == (syz.action, syz.labels)
            assert incl.cols == [row for _, row in _closure_span(cov.free, cov.kernel).rows()]
    return answers, ranks


def _no_radical(A, structure=homology._structure):
    """The record of A with the witness refused: the greedy cover path."""
    return structure(A)._replace(rad=None)


def _both_ways(make, cutoff=3, i_max=2):
    """Run the instance make() builds on projective covers, then a fresh one
    on greedy covers, and compare."""
    X, Y = make()
    if _structure(flatten_module(X).algebra).rad is None:
        return False
    minimal, ranks = _run(X, Y, cutoff, i_max)
    for M, rk in zip((X, Y), ranks):
        assert rk[0] == _top_dim(M)
        cov = _cover(M)
        assert is_projective(M).projective == (not cov.kernel)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_structure", _no_radical)
        greedy, greedy_ranks = _run(*make(), cutoff, i_max)
    assert minimal == greedy
    assert minimal[2] == minimal[3]
    for rk, gk in zip(ranks, greedy_ranks):
        assert all(a <= b for a, b in zip(rk, gk)), (rk, gk)
    return True


def _random_instance(fld, seed, covering=False, simples=False):
    """A seeded algebra, or its covering, with a random right and left
    module, or with the simple tops of its first and last summand."""
    def make():
        rng = random.Random(seed)
        A = random_graded_algebra(fld, rng, max_dim=6, max_group=3)
        if covering:
            A = covering_ring(A).algebra
        if simples:
            tops = [k for e in _structure(A).idems for k in e]
            return _character(A, "right", tops[0]), _character(A, "left", tops[-1])
        return random_module(A, rng, "right"), random_module(A, rng, "left")
    return make


@pytest.mark.parametrize("fld", [F2, F5, QQ], ids=["F2", "F5", "Q"])
def test_random_split_draws_agree_with_greedy_covers(fld):
    for simples in (False, True):
        split = sum(_both_ways(_random_instance(fld, seed, simples=simples))
                    for seed in range(30))
        assert split >= 15


@pytest.mark.parametrize("fld", [F2, F5], ids=["F2", "F5"])
def test_random_coverings_agree_with_greedy_covers(fld):
    for simples in (False, True):
        split = sum(_both_ways(_random_instance(fld, seed, True, simples), cutoff=2)
                    for seed in range(12))
        assert split >= 6


def test_families_agree_with_greedy_covers():
    # triangular rings, coverings, linear quivers and the chain tensor ring
    for fld in (F5, QQ):
        names = [name for name, _, _ in _family_pairs(fld)]
        for name in names:
            def make(name=name):
                return next((X, Y) for n, X, Y in _family_pairs(fld) if n == name)
            assert _both_ways(make), name
        assert len(names) == 14


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), field=st.sampled_from([F2, F5, QQ]),
       covering=st.booleans(), simples=st.booleans())
def test_hypothesis_draws_agree_with_greedy_covers(seed, field, covering, simples):
    _both_ways(_random_instance(field, seed, covering, simples), cutoff=2)


def test_projective_covers_shrink_greedy_ranks():
    # A_3 as a module over itself in a scrambled basis: the greedy
    # generators split into components, some of them in M J
    for r, side in ((2, "left"), (2, "right"), (3, "left"), (3, "right")):
        A = _linear_quiver(F5, 3, r).algebra

        def make():
            M = _rebase_module(regular_module(A, side), random.Random(0))
            return (M, _character(A, "left", 0)) if side == "right" else \
                (_character(A, "right", 0), M)

        assert _both_ways(make)
        M = make()[side == "left"]
        res = _resolver(M)
        res.ensure(2)
        assert res.ranks == [3, 0] and not res.covers[0].kernel
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homology, "_structure", _no_radical)
            greedy = _resolver(make()[side == "left"])
            greedy.ensure(2)
        assert greedy.ranks[0] > 3
