import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_modules import action_matrix, columns, is_module_hom, sparse_rows, zeros
from injgen import homology
from injgen.algebra import (AlgebraError, ConstructionError, GradedAlgebra,
                            GradedBimodule, GradedModule, ModuleHom,
                            direct_sum, regular_bimodule, regular_module,
                            zero_module)
from injgen.constructions import covering_ring, morita_ring, \
    regular_right_tuple, trivial_extension
from injgen.field import QQ, PrimeField, Rationals
from injgen.groups import FiniteAbelianGroup
from injgen.homology import (CheckReport, Verdict, _cover, _structure,
                             _resolver, cleft_vanishing_bound,
                             cleft_vanishing_check, flatten_module,
                             is_projective, left_perfect_check,
                             morita_corner_pd, nilpotency_index,
                             one_dimensional_modules,
                             power_block_law_check, projective_dimension,
                             resolution_report, tensor_formula_check, tor)
from injgen.linalg import Matrix, rank, solve_sparse
from injgen.quiver import path_algebra
from injgen.samples import (product_field_algebra, random_graded_algebra,
                            random_module, truncated_polynomial)

F5 = PrimeField(5)
ONE = F5.one()
Z2 = FiniteAbelianGroup((2,))


def dual_numbers():
    return truncated_polynomial(F5, 2)


def simple_over(A, side, scalars, label="s"):
    # one dimensional module with the given scalar action per basis index
    action = [[{0: F5.enc(c)} if c else {} for c in scalars]]
    return GradedModule(A, side, [label], [A.group.zero()], action)


def a2_quiver():
    return path_algebra(F5, ["1", "2"], [("a", "1", "2")]).algebra


def a3_quiver():
    return path_algebra(F5, ["1", "2", "3"],
                        [("a", "1", "2"), ("b", "2", "3")]).algebra


def arrow_bimodule(kk):
    return GradedBimodule(kk, kk, ["b"], [()],
                          [[{0: ONE}, {}]], [[{}, {0: ONE}]])


def chain_bimodule(kn, n):
    # arrows i -> i+1 over the product of n field copies
    left = [[{i: ONE} if j == i else {} for j in range(n)] for i in range(n - 1)]
    right = [[{i: ONE} if j == i + 1 else {} for j in range(n)] for i in range(n - 1)]
    labels = [f"t{i}" for i in range(n - 1)]
    return GradedBimodule(kn, kn, labels, [()] * (n - 1), left, right)


# -- verdicts -----------------------------------------------------------------


def test_verdict_json_shapes():
    assert Verdict.finite(3).to_json() == {"finite": 3}
    assert Verdict.at_least(24).to_json() == {"atLeast": 24}
    assert Verdict.index(2).to_json() == {"index": 2}
    assert Verdict.finite(1) == Verdict.finite(1)
    assert Verdict.finite(1) != Verdict.at_least(1)
    with pytest.raises(ValueError):
        Verdict("bogus", 1)


# -- covers by idempotent projectives and projectivity -------------------------


def test_cover_zero_module():
    D = dual_numbers()
    cov = _cover(zero_module(D, "right"))
    assert cov.free.dim == 0 and cov.pi.matrix.ncols == 0 and cov.summands == ()


def test_cover_scalar_base_is_identity():
    k = truncated_polynomial(F5, 1)
    cov = _cover(regular_module(k, "right"))
    assert cov.free.dim == 1
    assert cov.pi.matrix.rows == [[ONE]]


def test_cover_of_simple_over_dual_numbers():
    D = dual_numbers()
    k = simple_over(D, "right", [1, 0])
    cov = _cover(k)
    # one free copy, kernel spanned by the nilpotent generator
    assert cov.free.dim == D.dim and cov.summands == (0,)
    assert rank(F5, cov.pi.cols) == 1
    assert len(cov.kernel) == 1
    assert 0 not in cov.kernel[0] and 1 in cov.kernel[0]


def test_cover_of_regular_over_a3_is_by_vertex_idempotents():
    A3 = a3_quiver()
    idems, left, right, _ = _structure(A3)
    assert len(idems) == 3
    for side in ("left", "right"):
        M = regular_module(A3, side)
        cov = _cover(M)
        # one summand e_i A per vertex, and pi is an isomorphism
        assert sorted(cov.summands) == [0, 1, 2]
        assert cov.free.dim == A3.dim == rank(F5, cov.pi.cols)
        assert cov.kernel == []


def test_projective_regular_and_witness():
    D = dual_numbers()
    for side in ("left", "right"):
        rep = is_projective(regular_module(D, side))
        assert rep.projective
        comp = rep.cover.matrix.mul(rep.splitting.matrix)
        n = comp.nrows
        assert all(comp.rows[i][j] == (ONE if i == j else F5.zero())
                   for i in range(n) for j in range(n))


def test_projective_free_of_rank_two():
    D = dual_numbers()
    M = direct_sum([regular_module(D, "right")] * 2)[0]
    assert is_projective(M).projective


def test_simple_over_dual_numbers_not_projective():
    D = dual_numbers()
    rep = is_projective(simple_over(D, "right", [1, 0]))
    assert not rep.projective and rep.splitting is None


def test_simple_projective_at_source_vertex():
    A2 = a2_quiver()   # basis e_1, e_2, a
    s1_left = simple_over(A2, "left", [1, 0, 0])
    assert is_projective(s1_left).projective
    s2_right = simple_over(A2, "right", [0, 1, 0])
    assert is_projective(s2_right).projective


def test_simple_nonprojective_vertices():
    A2 = a2_quiver()
    assert not is_projective(simple_over(A2, "left", [0, 1, 0])).projective
    assert not is_projective(simple_over(A2, "right", [1, 0, 0])).projective


def test_zero_module_projective():
    D = dual_numbers()
    assert is_projective(zero_module(D, "left")).projective


# -- projective dimension -----------------------------------------------------


def test_pd_over_scalar_base_is_zero():
    k = truncated_polynomial(F5, 1)
    M = direct_sum([regular_module(k, "right")] * 3)[0]
    assert projective_dimension(M) == Verdict.finite(0)


def test_pd_simple_over_dual_numbers_hits_cutoff():
    D = dual_numbers()
    k = simple_over(D, "right", [1, 0])
    assert projective_dimension(k, 24) == Verdict.at_least(24)


def test_pd_simple_over_path_algebra():
    A2 = a2_quiver()
    assert projective_dimension(simple_over(A2, "left", [0, 1, 0])) == Verdict.finite(1)
    assert projective_dimension(simple_over(A2, "right", [1, 0, 0])) == Verdict.finite(1)


def test_pd_direct_sum_max_law():
    A2 = a2_quiver()
    s2 = simple_over(A2, "left", [0, 1, 0])
    p1 = simple_over(A2, "left", [1, 0, 0])
    both = direct_sum([s2, p1])[0]
    assert projective_dimension(both) == Verdict.finite(1)


def test_pd_rejects_bad_cutoff():
    D = dual_numbers()
    with pytest.raises(AlgebraError):
        projective_dimension(regular_module(D, "left"), 0)


def test_pd_ignores_grading():
    graded = truncated_polynomial(F5, 2, Z2, (1,))
    k = GradedModule(graded, "right", ["k"], [graded.group.zero()],
                     [[{0: ONE}, {}]])
    assert projective_dimension(k, 6) == Verdict.at_least(6)


# -- resolutions --------------------------------------------------------------


def test_resolution_invariants_periodic():
    D = dual_numbers()
    k = simple_over(D, "right", [1, 0])
    rr = resolution_report(k, 4)
    assert rr.pd_verdict == Verdict.at_least(4)
    assert len(rr.steps) == 4
    for s in rr.steps:
        assert s.rank == 1 and s.syzygy_dim == 1 and not s.syzygy_projectivity.projective
    # consecutive boundaries compose to zero; syzygy = kernel of boundary
    for i in range(1, len(rr.steps)):
        comp = rr.steps[i - 1].boundary.mul(rr.steps[i].boundary)
        assert comp == zeros(F5, comp.nrows, comp.ncols)
    for s in rr.steps:
        assert s.syzygy_dim == s.boundary.ncols - rank(F5, sparse_rows(s.boundary))


def test_resolution_finite_with_split_witness():
    A2 = a2_quiver()
    s2 = simple_over(A2, "left", [0, 1, 0])
    rr = resolution_report(s2, 8)
    assert rr.pd_verdict == Verdict.finite(1)
    assert len(rr.steps) == 1
    last = rr.steps[-1]
    assert last.syzygy_projectivity.projective
    w = last.syzygy_projectivity
    comp = w.cover.matrix.mul(w.splitting.matrix)
    assert all(comp.rows[i][j] == (ONE if i == j else F5.zero())
               for i in range(comp.nrows) for j in range(comp.nrows))


def _assert_splits(rep):
    # pi . s = id on M, and s is a module map
    assert rep.projective and is_module_hom(rep.splitting)
    comp = rep.cover.matrix.mul(rep.splitting.matrix)
    assert all(comp.rows[i][j] == (ONE if i == j else F5.zero())
               for i in range(comp.nrows) for j in range(comp.nrows))


def test_triangular_simple_resolution_is_pinned():
    # covered by Lambda e_B, then by Lambda e_A + Lambda e_B: the first
    # syzygy is the projective Lambda e_A plus the simple itself, so the
    # ranks are the minimal ones
    D = dual_numbers()
    ctx = _triangular_ctx(D, regular_bimodule(D))
    M = ctx.Z_B(simple_over(D, "left", [1, 0])).as_module()
    assert (M.dim, M.algebra.dim) == (1, 6)
    assert len(_structure(M.algebra).idems) == 2
    rr = resolution_report(M, 5)
    assert rr.pd_verdict == Verdict.at_least(5)
    assert [s.rank for s in rr.steps] == [1, 2, 2, 2, 2]
    assert [s.syzygy_dim for s in rr.steps] == [3, 3, 3, 3, 3]
    assert not any(s.syzygy_projectivity.projective for s in rr.steps)
    res = _resolver(M)
    for s, cov in zip(rr.steps, res.covers):
        assert s.syzygy_dim == s.boundary.ncols - rank(F5, sparse_rows(s.boundary))
        assert s.boundary.ncols == cov.free.dim
        _assert_splits(is_projective(cov.free))


# -- the retraction test against the splitting system it replaced -------------


def _splitting_system(M):
    """Reference decision: the system "s is a module map and pi . s = id",
    with dim F * dim M unknowns, that decided projectivity before the
    kernel retraction replaced it."""
    M = flatten_module(M)
    A = M.algebra
    cov = _cover(M)
    F, pi = cov.free, cov.pi
    dM, dF = M.dim, F.dim
    fld = M.field
    zero, one = fld.zero(), fld.one()
    eqs, rhs = [], []       # unknown s[r][c] is column r * dM + c
    for i in range(dM):     # (pi . s)[i][c] = delta(i, c)
        nz = [(r * dM, a) for r, a in enumerate(pi.matrix.rows[i]) if not fld.is_zero(a)]
        for c in range(dM):
            eqs.append({off + c: a for off, a in nz})
            rhs.append(one if i == c else zero)
    for j in A.generators():  # (AF . s)[r][c] - (s . AM)[r][c] = 0
        AF, AM = action_matrix(F, j).rows, action_matrix(M, j).rows
        am_cols = [[(q, AM[q][c]) for q in range(dM) if not fld.is_zero(AM[q][c])]
                   for c in range(dM)]
        for r in range(dF):
            nz = [(q * dM, a) for q, a in enumerate(AF[r]) if not fld.is_zero(a)]
            for c in range(dM):
                eq = {off + c: a for off, a in nz}
                for q, a in am_cols[c]:
                    eq[r * dM + q] = fld.sub(eq.get(r * dM + q, zero), a)
                eqs.append(eq)
                rhs.append(zero)
    sol = solve_sparse(fld, eqs, rhs, dF * dM)
    split = None
    if sol is not None:
        dense = Matrix(fld, [sol[r * dM:(r + 1) * dM] for r in range(dF)], dM)
        split = ModuleHom(M, F, columns(dense))
    return sol is not None, split


def _agrees_with_splitting_system(M):
    """is_projective decides as the reference does, and a projective
    verdict carries a module map s with pi . s = id; returns the verdict."""
    rep = is_projective(M)
    projective, split = _splitting_system(M)
    assert rep.projective == projective, M
    if projective:
        _assert_splits(rep)
        assert is_module_hom(split)
    else:
        assert rep.splitting is None
    return projective


def _with_syzygies(M, depth=3):
    res = _resolver(M)
    res.ensure(depth)
    return [flatten_module(M)] + res.syzygies[:depth]


def _family_modules():
    D = dual_numbers()
    ctx = _triangular_ctx(D, regular_bimodule(D))
    k = simple_over(D, "left", [1, 0])
    yield ctx.Z_A(k).as_module()
    yield ctx.Z_B(k).as_module()
    for m, n in ((2, 2), (3, 2), (2, 3)):
        cov = covering_ring(truncated_polynomial(F5, m, FiniteAbelianGroup((n,)), (1,)))
        g = cov.base.group.zero()
        hot = cov.pos[(g, g, 0)]
        yield simple_over(cov.algebra, "right", [1 if j == hot else 0
                                                 for j in range(cov.algebra.dim)])
    for n, r in ((3, 2), (3, 3)):
        verts = [str(i + 1) for i in range(n)]
        arrows = [(f"a{i}", verts[i], verts[i + 1]) for i in range(n - 1)]
        rels = [tuple(f"a{j}" for j in range(i, i + r)) for i in range(n - r)]
        pa = path_algebra(F5, verts, arrows, rels)
        for v in verts:
            hot = pa.vertex_index[v]
            scalars = [1 if j == hot else 0 for j in range(pa.algebra.dim)]
            for side in ("left", "right"):
                yield simple_over(pa.algebra, side, scalars)


def test_retraction_agrees_with_splitting_system_on_families():
    verdicts = [_agrees_with_splitting_system(Z)
                for M in _family_modules() for Z in _with_syzygies(M)]
    assert len(verdicts) == 68 and any(verdicts) and not all(verdicts)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rational=st.booleans(),
       side=st.sampled_from(["left", "right"]))
def test_retraction_agrees_with_splitting_system_on_random_modules(seed, rational, side):
    rng = random.Random(seed)
    A = random_graded_algebra(QQ if rational else F5, rng, max_dim=6, max_group=4)
    M = random_module(A, rng, side)
    for Z in _with_syzygies(M, 2):
        _agrees_with_splitting_system(Z)


# -- tor ----------------------------------------------------------------------


def test_tor_simple_pair_over_dual_numbers():
    D = dual_numbers()
    kr = simple_over(D, "right", [1, 0])
    kl = simple_over(D, "left", [1, 0])
    assert tor(kr, kl, 3) == [1, 1, 1, 1]
    assert tor(kr, kl, 3, resolve_side="second") == [1, 1, 1, 1]


def test_tor_vanishes_against_free():
    D = dual_numbers()
    kr = simple_over(D, "right", [1, 0])
    assert tor(kr, regular_module(D, "left"), 3) == [1, 0, 0, 0]


def test_tor_zero_factor():
    D = dual_numbers()
    assert tor(zero_module(D, "right"), regular_module(D, "left"), 2) == [0, 0, 0]


def test_tor_drops_free_summand():
    D = dual_numbers()
    kr = simple_over(D, "right", [1, 0])
    kl = simple_over(D, "left", [1, 0])
    padded = direct_sum([regular_module(D, "left"), kl])[0]
    plain = tor(kr, kl, 3)
    fat = tor(kr, padded, 3)
    assert fat[1:] == plain[1:]
    assert fat[0] == plain[0] + 1   # k (x) A adds one dimension in degree 0


def test_tor_side_independence_path_algebra():
    A2 = a2_quiver()
    s1r = simple_over(A2, "right", [1, 0, 0])
    s2l = simple_over(A2, "left", [0, 1, 0])
    a = tor(s1r, s2l, 2)
    b = tor(s1r, s2l, 2, resolve_side="second")
    assert a == b == [0, 1, 0]


def test_tor_rejects_wrong_sides():
    D = dual_numbers()
    kr = simple_over(D, "right", [1, 0])
    with pytest.raises(AlgebraError):
        tor(kr, kr, 1)


def test_tor_over_rationals():
    Q = Rationals()
    DQ = truncated_polynomial(Q, 2)
    one = Q.one()
    kr = GradedModule(DQ, "right", ["k"], [()], [[{0: one}, {}]])
    kl = GradedModule(DQ, "left", ["k"], [()], [[{0: one}, {}]])
    assert tor(kr, kl, 2) == [1, 1, 1]


# -- nilpotency ---------------------------------------------------------------


def test_nilpotency_zero_bimodule():
    kk = product_field_algebra(F5, 2)
    zb = GradedBimodule(kk, kk, [], [], [], [])
    assert nilpotency_index(zb) == Verdict.index(1)


def test_nilpotency_arrow_and_chain():
    kk = product_field_algebra(F5, 2)
    assert nilpotency_index(arrow_bimodule(kk)) == Verdict.index(2)
    k3 = product_field_algebra(F5, 3)
    assert nilpotency_index(chain_bimodule(k3, 3)) == Verdict.index(3)


def test_nilpotency_regular_never_vanishes():
    kk = product_field_algebra(F5, 2)
    assert nilpotency_index(regular_bimodule(kk), cutoff=5) == Verdict.at_least(5)


def test_nilpotency_dim_limit_early_out(monkeypatch):
    kk = product_field_algebra(F5, 2)
    monkeypatch.setattr(homology, "DEFAULT_DIM_LIMIT", 1)
    v = nilpotency_index(regular_bimodule(kk), cutoff=10)
    assert v.kind == "atLeast" and v.value == 1


# -- perfectness --------------------------------------------------------------


def test_left_perfect_zero_bimodule():
    kk = product_field_algebra(F5, 2)
    zb = GradedBimodule(kk, kk, [], [], [], [])
    per = left_perfect_check(kk, zb)
    assert per.is_left_perfect and per.pd == Verdict.finite(0)


def test_left_perfect_arrow_over_semisimple():
    kk = product_field_algebra(F5, 2)
    per = left_perfect_check(kk, arrow_bimodule(kk))
    assert per.verdict == "LeftPerfect"
    assert per.pd == Verdict.finite(0)
    assert per.nilpotency == Verdict.index(2)
    assert per.table == {} and per.mirror_table == {}
    js = per.to_json()
    assert js["verdict"] == "LeftPerfect" and js["pd"] == {"finite": 0}


def test_left_perfect_inconclusive_on_nilpotency_cutoff():
    D = dual_numbers()
    xb = GradedBimodule(D, D, ["x"], [D.group.zero()],
                        [[{0: ONE}, {}]], [[{0: ONE}, {}]])
    per = left_perfect_check(D, xb, pd_cutoff=6, nil_cutoff=8)
    assert per.verdict == "Inconclusive"
    assert "nilpotency" in per.reason


def test_left_perfect_inconclusive_on_pd_cutoff():
    # dual numbers times a field copy, bridged by a one dimensional bimodule
    # whose left structure restricts to the periodic simple
    labels = ["u", "xu", "v"]
    mult = [
        [{0: ONE}, {1: ONE}, {}],
        [{1: ONE}, {}, {}],
        [{}, {}, {2: ONE}],
    ]
    A = GradedAlgebra(F5, FiniteAbelianGroup(()), labels, [(), (), ()],
                      [ONE, F5.zero(), ONE], mult)
    # left: u acts 1 (augmented dual-numbers side); right: v acts 1
    w = GradedBimodule(A, A, ["w"], [()],
                       [[{0: ONE}, {}, {}]], [[{}, {}, {0: ONE}]])
    assert nilpotency_index(w) == Verdict.index(2)
    per = left_perfect_check(A, w, pd_cutoff=5)
    assert per.verdict == "Inconclusive"
    assert "power 1" in per.reason


def test_left_perfect_refuted_with_witness():
    A2 = a2_quiver()
    # left structure is the sink simple, right structure the source simple
    w = GradedBimodule(A2, A2, ["w"], [()],
                       [[{}, {0: ONE}, {}]], [[{0: ONE}, {}, {}]])
    assert nilpotency_index(w) == Verdict.index(2)
    per = left_perfect_check(A2, w)
    assert per.verdict == "NotLeftPerfect"
    assert per.witness == ("tor", 1, 1, 1)
    assert per.mirror_consistent is True


def test_left_perfect_nontrivial_pd():
    A3 = a3_quiver()   # basis e_1, e_2, e_3, a, b, a*b
    # left structure = sink simple (pd 1), right structure = source simple
    w = GradedBimodule(A3, A3, ["w"], [()],
                       [[{}, {}, {0: ONE}, {}, {}, {}]],
                       [[{0: ONE}, {}, {}, {}, {}, {}]])
    assert nilpotency_index(w) == Verdict.index(2)
    per = left_perfect_check(A3, w)
    assert per.verdict == "LeftPerfect"
    assert per.pd == Verdict.finite(1)
    assert per.table == {(1, 1): 0}
    assert per.mirror_table == {(1, 1): 0}


def test_left_perfect_chain_power_pds():
    k3 = product_field_algebra(F5, 3)
    per = left_perfect_check(k3, chain_bimodule(k3, 3))
    assert per.is_left_perfect
    assert per.power_pds == {1: Verdict.finite(0), 2: Verdict.finite(0)}


# -- pd over assembled rings ----------------------------------------------------


def _triangular_ctx(A, N):
    zb = GradedBimodule(A, A, [], [], [], [])
    return morita_ring(A, A, N, zb)


def test_regular_tuples_are_projective():
    kk = product_field_algebra(F5, 2)
    ctx = _triangular_ctx(kk, arrow_bimodule(kk))
    tA = ctx.T_A(regular_module(kk, "left"))
    tB = ctx.T_B(regular_module(kk, "left"))
    assert projective_dimension(tA.as_module()) == Verdict.finite(0)
    assert projective_dimension(tB.as_module()) == Verdict.finite(0)
    assert tA.as_module().dim + tB.as_module().dim == ctx.assembled.dim


def test_morita_corner_pd_small_instance():
    kk = product_field_algebra(F5, 2)
    zb = GradedBimodule(kk, kk, [], [], [], [])
    ctx = morita_ring(kk, kk, zb, arrow_bimodule(kk))
    rep = morita_corner_pd(ctx)
    assert rep.ok is True
    assert rep.details["verdicts"] == {
        "(A,0)": Verdict.finite(1), "(0,A)": Verdict.finite(0),
        "(M,0)": Verdict.finite(0), "(0,M)": Verdict.finite(0)}


def test_morita_corner_pd_zero_bimodule():
    kk = product_field_algebra(F5, 2)
    zb = GradedBimodule(kk, kk, [], [], [], [])
    ctx = morita_ring(kk, kk, zb, zb)
    rep = morita_corner_pd(ctx)
    assert rep.ok is True
    assert rep.details["verdicts"]["(A,0)"] == Verdict.finite(0)


def test_morita_corner_pd_preconditions():
    A2 = a2_quiver()
    zb = GradedBimodule(A2, A2, [], [], [], [])
    ctx = morita_ring(A2, A2, zb, regular_bimodule(A2))
    with pytest.raises(ConstructionError):
        morita_corner_pd(ctx, nil_cutoff=6)   # regular bimodule not nilpotent
    w = GradedBimodule(A2, A2, ["w"], [()],
                       [[{}, {0: ONE}, {}]], [[{0: ONE}, {}, {}]])
    with pytest.raises(ConstructionError):
        morita_corner_pd(morita_ring(A2, A2, zb, w))   # not left perfect


# -- one dimensional modules ----------------------------------------------------


def test_one_dimensional_modules_counts():
    kk = product_field_algebra(F5, 2)
    assert len(one_dimensional_modules(kk)) == 2
    D = dual_numbers()
    mods = one_dimensional_modules(D)
    assert len(mods) == 1
    assert mods[0].action[0][1] == {}    # the nilpotent generator acts by zero


def test_one_dimensional_modules_guardrails():
    Q = Rationals()
    DQ = truncated_polynomial(Q, 2)
    with pytest.raises(ConstructionError):
        one_dimensional_modules(DQ)
    kk = product_field_algebra(F5, 2)
    with pytest.raises(ConstructionError):
        one_dimensional_modules(kk, limit=3)


# -- cleft extension vanishing ---------------------------------------------------


def test_cleft_bound_trivial_extension_of_semisimple():
    kk = product_field_algebra(F5, 2)
    td = trivial_extension(kk, arrow_bimodule(kk))
    B, n, s, per = cleft_vanishing_bound(td)
    assert (B, n, s) == (2, 1, 2)
    assert per.is_left_perfect


def test_cleft_vanishing_two_vertex_instance():
    kk = product_field_algebra(F5, 2)
    td = trivial_extension(kk, arrow_bimodule(kk))
    rep = cleft_vanishing_check(td)
    assert rep.ok is True
    assert rep.details["bound"] == 2
    assert rep.details["pd_base_over_extension"] == Verdict.finite(1)
    assert rep.details["violations"] == []
    # the bound is tight: one step below it the base hits itself
    assert rep.details["table"]["base@1"] == 1
    assert rep.details["table"]["base@2"] == 0


def test_cleft_vanishing_degenerate_extension():
    kk = product_field_algebra(F5, 2)
    zb = GradedBimodule(kk, kk, [], [], [], [])
    td = trivial_extension(kk, zb)
    rep = cleft_vanishing_check(td)
    assert rep.ok is True
    assert rep.details["bound"] == 1
    assert rep.details["pd_base_over_extension"] == Verdict.finite(0)
    for key, val in rep.details["table"].items():
        if not key.endswith("@0"):
            assert val == 0


def test_cleft_vanishing_requires_perfect_bimodule():
    D = dual_numbers()
    xb = GradedBimodule(D, D, ["x"], [D.group.zero()],
                        [[{0: ONE}, {}]], [[{0: ONE}, {}]])
    td = trivial_extension(D, xb)
    with pytest.raises(ConstructionError):
        cleft_vanishing_check(td, nil_cutoff=6)


# -- tensor product formula ------------------------------------------------------


def test_tensor_formula_regular_against_zero_partner():
    kk = product_field_algebra(F5, 2)
    ctx = _triangular_ctx(kk, arrow_bimodule(kk))
    rt = regular_right_tuple(ctx)
    rep = tensor_formula_check(ctx, rt, ctx.Z_A(regular_module(kk, "left")))
    assert rep.ok is True
    # the regular right module tensors to the partner's total space
    assert rep.details["direct_dim"] == 2


def test_tensor_formula_induced_tuple_collapses():
    kk = product_field_algebra(F5, 2)
    ctx = _triangular_ctx(kk, arrow_bimodule(kk))
    rt = regular_right_tuple(ctx)
    rep = tensor_formula_check(ctx, rt, ctx.T_B(regular_module(kk, "left")))
    assert rep.ok is True
    assert rep.details["collapsed_dim"] == rep.details["direct_dim"] == 3


def test_tensor_formula_nonzero_context():
    from injgen.constructions import covering_ring, split_covering
    from injgen.samples import group_algebra
    R = group_algebra(F5, Z2)
    ctx = split_covering(covering_ring(R))
    assert not ctx.is_zero_context
    rt = regular_right_tuple(ctx)
    for lt in (ctx.T_A(regular_module(ctx.A, "left")),
               ctx.T_B(regular_module(ctx.B, "left"))):
        rep = tensor_formula_check(ctx, rt, lt)
        assert rep.ok is True
        assert rep.details["quotient_dim"] == rep.details["direct_dim"]


def test_tensor_formula_rejects_foreign_tuples():
    kk = product_field_algebra(F5, 2)
    ctx1 = _triangular_ctx(kk, arrow_bimodule(kk))
    ctx2 = _triangular_ctx(kk, arrow_bimodule(kk))
    rt = regular_right_tuple(ctx1)
    with pytest.raises(ConstructionError):
        tensor_formula_check(ctx2, rt, ctx2.Z_A(regular_module(kk, "left")))


# -- power block law -------------------------------------------------------------


def test_power_block_law_two_vertices():
    kk = product_field_algebra(F5, 2)
    rep = power_block_law_check(kk, arrow_bimodule(kk))
    assert rep.ok is True
    assert rep.details["dims"] == [(1, 1, 1), (2, 0, 0)]
    assert rep.details["tor"]["status"] == "checked"


def test_power_block_law_three_vertices():
    k3 = product_field_algebra(F5, 3)
    rep = power_block_law_check(k3, chain_bimodule(k3, 3))
    assert rep.ok is True
    assert rep.details["dims"] == [(1, 4, 4), (2, 0, 0)]


def test_power_block_law_four_vertices_nonzero_square():
    k4 = product_field_algebra(F5, 4)
    rep = power_block_law_check(k4, chain_bimodule(k4, 4))
    assert rep.ok is True
    assert rep.details["dims"] == [(1, 8, 8), (2, 1, 1)]
    corners_i2 = rep.details["corners"][1][1]
    assert corners_i2[("bot", "top")] == 1
    assert sum(corners_i2.values()) == 1


def test_power_block_law_needs_nilpotency():
    kk = product_field_algebra(F5, 2)
    with pytest.raises(ConstructionError):
        power_block_law_check(kk, regular_bimodule(kk), nil_cutoff=4)


# -- report plumbing -------------------------------------------------------------


def test_check_report_json_round():
    rep = CheckReport("demo", True, {"verdict": Verdict.finite(2),
                                     "nested": {"v": Verdict.index(1)}})
    js = rep.to_json()
    assert js["ok"] is True
    assert js["details"]["verdict"] == {"finite": 2}
    assert js["details"]["nested"]["v"] == {"index": 1}
