import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_modules import (dense_act, dense_apply, dense_mul, identity,
                           is_module_hom, sparse_rows)
from injgen.algebra import (AlgebraError, GradedAlgebra, GradedBimodule,
                            GradedModule, check_algebra_axioms,
                            check_bimodule_axioms,
                            check_module_axioms, component_bimodule,
                            degree_zero_subalgebra, direct_sum, dual,
                            opposite, quotient_module, regular_bimodule,
                            regular_module, module_from_span,
                            strongly_graded_check, trivially_graded, twist,
                            zero_module)
from injgen.bundled import corpus_docs
from injgen.constructions import covering_ring, morita_ring, tensor_ring
from injgen.field import QQ, PrimeField
from injgen.groups import FiniteAbelianGroup, TRIVIAL_GROUP
from injgen.homology import _resolver, flatten_module
from injgen.homs import find_isomorphism, hom_space
from injgen.linalg import Span, render_columns, right_inverse
from injgen.quiver import path_algebra
from injgen.samples import (group_algebra, product_field_algebra,
                            random_graded_algebra, random_graded_module,
                            random_module, random_upper_half_zero_algebra,
                            truncated_polynomial)
from injgen.serialize import content_hash, from_json, object_kind, to_json
from injgen.tensors import tensor_over_algebra

F5 = PrimeField(5)
Z2 = FiniteAbelianGroup((2,))
Z4 = FiniteAbelianGroup((4,))


def dual_numbers(field=F5, graded=True):
    """k[x]/(x^2), with deg x = 1 over Z/2 when graded."""
    if graded:
        return truncated_polynomial(field, 2, Z2, (1,))
    return truncated_polynomial(field, 2)


def a2_quiver(field=F5):
    return path_algebra(field, ["1", "2"], [("a", "1", "2")])


def test_axioms_pass_on_basic_examples():
    for A in [dual_numbers(), group_algebra(F5, Z2), a2_quiver().algebra,
              product_field_algebra(QQ, 3), truncated_polynomial(QQ, 4, Z4, (1,))]:
        assert check_algebra_axioms(A).passed


def test_axiom_violations_are_reported():
    A = dual_numbers()
    # tamper: x*x = x lands in degree 1 instead of 0 (and stays associative),
    # so the report must carry a product-grading violation rather than raise
    bad_mult = [[dict(c) for c in row] for row in A.mult]
    bad_mult[1][1] = {1: F5.one()}
    from injgen.algebra import GradedAlgebra
    B = GradedAlgebra(F5, Z2, A.labels, A.degree, A.unit, bad_mult)
    rep = check_algebra_axioms(B)
    assert not rep.passed
    assert any(v.kind == "product-grading" for v in rep.violations)


def test_module_axiom_violations_are_pinned_on_both_sides():
    # the regular tables of k[x]/(x^2) with three cells changed; one
    # associativity loop serves both sides, so pin what each side reports
    A = dual_numbers()
    action = [[{0: 1}, {0: 2, 1: 1}],
              [{0: 3, 1: 1}, {0: 4}]]
    common = [("unit-action", (1,)), ("action-grading", (0, 1, 0)),
              ("action-grading", (1, 0, 0))]
    assoc = {"left": [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1)],
             "right": [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1)]}
    for side, where in assoc.items():
        M = GradedModule(A, side, ["m0", "m1"], [(0,), (1,)], action)
        got = [(v.kind, v.where) for v in check_module_axioms(M).violations]
        assert got == common + [("action-associativity", w) for w in where]


def test_unit_violation_detected():
    from injgen.algebra import GradedAlgebra
    A = dual_numbers()
    B = GradedAlgebra(F5, Z2, A.labels, A.degree, [F5.zero(), F5.one()], A.mult)
    rep = check_algebra_axioms(B)
    assert any("unit" in v.kind for v in rep.violations)


def test_path_algebra_a2_products():
    pa = a2_quiver()
    A = pa.algebra
    assert A.dim == 3
    i1, i2 = pa.vertex_index["1"], pa.vertex_index["2"]
    ia = A.labels.index("a")
    assert dense_mul(A, A.basis_vec(i1), A.basis_vec(ia)) == A.basis_vec(ia)
    assert dense_mul(A, A.basis_vec(ia), A.basis_vec(i2)) == A.basis_vec(ia)
    assert dense_mul(A, A.basis_vec(ia), A.basis_vec(i1)) == A.zero_vec()
    assert dense_mul(A, A.basis_vec(ia), A.basis_vec(ia)) == A.zero_vec()


def test_regular_module_axioms_and_generators():
    A = a2_quiver().algebra
    M = regular_module(A, "right")
    assert check_module_axioms(M).passed
    # the right regular module of a path algebra is generated by the
    # vertex idempotents; greedy generation must find at most dim gens
    assert len(M.generators()) <= A.dim
    B = regular_bimodule(A)
    assert check_bimodule_axioms(B).passed


def test_hom_space_endomorphisms_of_regular():
    # End_A(A_A) is isomorphic to A via left multiplication
    for A in [dual_numbers(), a2_quiver().algebra]:
        M = regular_module(A, "right")
        homs = hom_space(M, M, graded=False)
        assert len(homs) == A.dim
        for h in homs:
            assert is_module_hom(h)


def test_graded_hom_space_respects_degrees():
    A = dual_numbers()
    M = regular_module(A, "right")
    homs = hom_space(M, M, graded=True)
    # graded endomorphisms of A as a module over itself: left mult by
    # degree-zero elements only, here scalars
    assert len(homs) == 1
    homs_shift = hom_space(M, twist(M, (1,)), graded=True)
    # degree-one maps: left multiplication by x
    assert len(homs_shift) == 1


def test_twist_degrees_and_inverse():
    A = dual_numbers()
    M = regular_module(A, "right")
    T = twist(M, (1,))
    assert T.degree == [(1,), (0,)]
    back = twist(T, (1,))
    assert back.degree == M.degree
    assert back.action == M.action


def test_dual_swaps_side_and_negates_degrees():
    A = truncated_polynomial(F5, 2, Z4, (1,))
    M = regular_module(A, "right")
    D = dual(M)
    assert D.side == "left"
    assert check_module_axioms(D).passed
    assert D.degree == [(0,), (3,)]
    per_degree = D.dims_by_degree()
    for g, n in M.dims_by_degree().items():
        assert per_degree[A.group.neg(g)] == n


def test_double_dual_isomorphic():
    A = a2_quiver().algebra
    M = regular_module(A, "right")
    DD = dual(dual(M))
    assert DD.side == "right"
    rep = find_isomorphism(M, DD, graded=True)
    assert rep.found and rep.conclusive
    inv = right_inverse(F5, sparse_rows(rep.hom.matrix), M.dim)
    assert render_columns(F5, inv, M.dim).mul(rep.hom.matrix) == identity(F5, M.dim)


def test_dual_of_left_regular_is_right_module():
    A = dual_numbers()
    D = dual(regular_module(A, "left"))
    assert D.side == "right"
    assert check_module_axioms(D).passed


def test_opposite_involution_and_axioms():
    for A in [a2_quiver().algebra, dual_numbers()]:
        Aop = opposite(A)
        assert check_algebra_axioms(Aop).passed
        assert opposite(Aop) == A


def test_strongly_graded_examples():
    ok, fails = strongly_graded_check(group_algebra(F5, Z2))
    assert ok and not fails
    ok, fails = strongly_graded_check(dual_numbers())
    assert not ok
    assert ((1,), (1,)) in fails


def test_degree_zero_subalgebra():
    A = group_algebra(F5, Z2)
    A0 = degree_zero_subalgebra(A)
    assert A0.dim == 1
    assert check_algebra_axioms(A0).passed
    C = component_bimodule(A, (1,))
    assert C.dim == 1
    assert check_bimodule_axioms(C).passed


def test_quotient_and_span_of_regular():
    pa = a2_quiver()
    A = pa.algebra
    M = regular_module(A, "right")
    ia = A.labels.index("a")
    # the right ideal generated by the arrow is one dimensional
    S, inc = module_from_span(M, [M.basis_vec(ia)])
    assert S.dim == 1
    assert check_module_axioms(S).passed
    Q, proj = quotient_module(M, [M.basis_vec(ia)])
    assert Q.dim == 2
    assert check_module_axioms(Q).passed
    # projection then inclusion composes to zero on the ideal
    assert dense_apply(proj.matrix, dense_apply(inc.matrix, S.basis_vec(0))) == Q.zero_vec()


def test_tensor_regular_collapses_to_algebra():
    for A in [dual_numbers(), a2_quiver().algebra]:
        X = regular_module(A, "right")
        Y = regular_module(A, "left")
        T = tensor_over_algebra(X, Y, A)
        assert T.dim == A.dim


def test_tensor_with_simple_quotient():
    # k[x]/(x^2): (A/xA) (x)_A (A/Ax) has dimension 1
    A = dual_numbers(graded=False)
    M = regular_module(A, "right")
    Q, _ = quotient_module(M, [M.basis_vec(1)])
    L = regular_module(A, "left")
    QL, _ = quotient_module(L, [L.basis_vec(1)])
    T = tensor_over_algebra(Q, QL, A)
    assert T.dim == 1


def test_direct_sum_and_iso_search():
    A = a2_quiver().algebra
    M = regular_module(A, "right")
    S1, _ = direct_sum([M, twist(M, ())])
    S2, _ = direct_sum([twist(M, ()), M])
    rep = find_isomorphism(S1, S2, graded=True)
    assert rep.found and rep.conclusive


def test_find_isomorphism_conclusive_negative():
    A = dual_numbers()
    M = regular_module(A, "right")
    T = twist(M, (1,))
    # M and its twist have swapped graded dimensions but both are (1,1);
    # an honest negative: M vs the 2-dim module with zero x-action
    from injgen.algebra import GradedModule
    Z = GradedModule(A, "right",
                     ["u", "v"], [(0,), (1,)],
                     [[{0: F5.one()}, {}], [{1: F5.one()}, {}]])
    assert check_module_axioms(Z).passed
    rep = find_isomorphism(M, Z, graded=True)
    assert rep.hom is None and rep.conclusive
    rep2 = find_isomorphism(M, T, graded=True)
    # graded dims differ only by position: (0,)->1 for M twice
    assert rep2.hom is not None or rep2.conclusive


def test_find_isomorphism_refuses_modules_over_other_algebras_or_sides():
    # zero modules too: they used to pair as "zero modules" across both
    A, B = dual_numbers(), a2_quiver().algebra
    for M, N in ((zero_module(A, "right"), zero_module(B, "left")),
                 (zero_module(A, "right"), zero_module(B, "right")),
                 (zero_module(A, "right"), zero_module(A, "left")),
                 (regular_module(A, "right"), regular_module(A, "left"))):
        for graded in (True, False):
            with pytest.raises(AlgebraError, match="common algebra and side"):
                find_isomorphism(M, N, graded=graded)
    rep = find_isomorphism(zero_module(A, "left"), zero_module(A, "left"))
    assert rep.found and rep.conclusive and rep.detail == "zero modules"
    assert rep.hom.cols == [] and rep.hom.matrix.rows == []


def test_randomized_algebra_zoo_axioms():
    rng = random.Random(7)
    for _ in range(15):
        A = random_graded_algebra(F5, rng)
        assert check_algebra_axioms(A).passed
        M = random_graded_module(A, rng)
        assert check_module_axioms(M).passed
        assert all(d == A.group.reduce(d) for d in M.degree)


def test_trivially_graded_forgets():
    A = dual_numbers()
    T = trivially_graded(A)
    assert T.group is TRIVIAL_GROUP or T.group.is_trivial
    assert check_algebra_axioms(T).passed


def test_tables_hold_reduced_residues():
    # over F_5 the unit [6] and the product {0: 6} are the unit and the
    # product 1; the tables keep one representative, so both spellings are
    # equal objects and a stored copy equals the object it came from
    F7 = PrimeField(7)
    A6 = GradedAlgebra(F5, TRIVIAL_GROUP, ["e"], [()], [6], [[{0: 6}]])
    A1 = GradedAlgebra(F5, TRIVIAL_GROUP, ["e"], [()], [1], [[{0: 1}]])
    assert check_algebra_axioms(A6).passed
    assert A6.unit == [1] and A6.mult == [[{0: 1}]]
    assert A6 == A1 and from_json(to_json(A6)) == A6
    assert content_hash(to_json(A6)) == content_hash(to_json(A1))
    assert GradedAlgebra(F7, TRIVIAL_GROUP, ["e"], [()], [-6], [[{0: 8}]]).unit == [1]
    M = GradedModule(A6, "right", ["m", "n"], [(), ()], [[{0: 6, 1: 10}], [{1: -4}]])
    assert M.action == [[{0: 1}], [{1: 1}]]
    assert M == GradedModule(A1, "right", ["m", "n"], [(), ()], [[{0: 1}], [{1: 1}]])
    B = GradedBimodule(A6, A6, ["b", "c"], [(), ()], [[{0: 11}], [{1: 1}]],
                       [[{0: -9, 1: 5}], [{1: 6}]])
    assert B.left_action == B.right_action == [[{0: 1}], [{1: 1}]]
    # over Q the cells are filtered, never reduced
    Q = GradedAlgebra(QQ, TRIVIAL_GROUP, ["e", "f"], [(), ()], [1, 0],
                      [[{0: 1, 1: 0}, {}], [{}, {}]])
    assert Q.mult[0][0] == {0: 1}


@pytest.mark.parametrize("key", [5, -1, "0", False], ids=repr)
def test_constructors_refuse_cell_keys_outside_the_basis(key):
    # by the decoders' rule: an int, not a bool, in range(dim); -1 once
    # wrapped round to the last basis element, and a key past the end
    # raised IndexError only in check_axioms
    A = GradedAlgebra(F5, TRIVIAL_GROUP, ["e"], [()], [1], [[{0: 1}]])
    builds = [
        lambda: GradedAlgebra(F5, TRIVIAL_GROUP, ["e"], [()], [1], [[{key: 1}]]),
        lambda: GradedModule(A, "right", ["m"], [()], [[{key: 1}]]),
        lambda: GradedBimodule(A, A, ["b"], [()], [[{key: 1}]], [[{0: 1}]]),
        lambda: GradedBimodule(A, A, ["b"], [()], [[{0: 1}]], [[{key: 1}]]),
    ]
    for build in builds:
        with pytest.raises(AlgebraError, match="out of range"):
            build()


# -- generators against the closures they replaced ------------------------------


def _pairwise_generators(A):
    """The closure GradedAlgebra.generators used before the word closure:
    each new span vector is multiplied with every earlier one in both
    orders, on dense vectors.  Kept as an oracle."""
    span = Span(A.field, A.dim)
    span.add(list(A.unit))
    basis_of_span = [list(A.unit)]
    gens = []
    for idx in range(A.dim):
        if span.contains(A.basis_vec(idx)):
            continue
        gens.append(idx)
        queue = [A.basis_vec(idx)]
        while queue:
            v = queue.pop()
            if not span.add(v):
                continue
            basis_of_span.append(v)
            for w in list(basis_of_span):
                for prod in (dense_mul(A, v, w), dense_mul(A, w, v)):
                    if not span.contains(prod):
                        queue.append(prod)
    return gens


def _submodule(M, idxs):
    """Span of the submodule generated by the given basis vectors, closed
    under every algebra basis element."""
    A = M.algebra
    span = Span(M.field, M.dim)
    queue = [M.basis_vec(i) for i in idxs]
    while queue:
        v = queue.pop()
        if span.add(v):
            queue.extend(dense_act(M, v, A.basis_vec(j)) for j in range(A.dim))
    return span


def _pruned_generators(M):
    """GradedModule.generators as it was before the last pick was exempted
    from pruning: greedy picks, then every pick, latest first, is dropped
    when the others still generate.  Kept as an oracle."""
    gens, span = [], Span(M.field, M.dim)
    for idx in range(M.dim):
        if not span.contains(M.basis_vec(idx)):
            gens.append(idx)
            span = _submodule(M, gens)
    for g in reversed(list(gens)):
        if len(gens) == 1:
            break
        trial = [i for i in gens if i != g]
        if _submodule(M, trial).dim() == M.dim:
            gens = trial
    return gens


def _assert_algebra_generators(A):
    assert A.generators() == _pairwise_generators(A), A


def _linear_quiver(fld, n, r):
    verts = [str(i + 1) for i in range(n)]
    arrows = [(f"a{i}", verts[i], verts[i + 1]) for i in range(n - 1)]
    rels = [tuple(f"a{j}" for j in range(i, i + r)) for i in range(n - r)]
    return path_algebra(fld, verts, arrows, rels).algebra


def _coverings(fld):
    for m in (2, 3, 4):
        for n in (2, 3, 4):
            yield covering_ring(truncated_polynomial(fld, m, FiniteAbelianGroup((n,)), (1,))).algebra


def test_corpus_algebra_generators_match_the_pairwise_closure():
    algebras = [from_json(doc) for _, doc in corpus_docs() if object_kind(doc) == "algebra"]
    assert len(algebras) == 17
    for A in algebras:
        for B in (A, degree_zero_subalgebra(A), trivially_graded(A)):
            _assert_algebra_generators(B)


def test_quiver_and_covering_generators_match_the_pairwise_closure():
    for fld in (F5, QQ):
        for n in range(2, 6):
            for r in range(2, n + 1):
                _assert_algebra_generators(_linear_quiver(fld, n, r))
    for A in _coverings(F5):
        _assert_algebra_generators(A)


FIELDS = (PrimeField(2), F5, QQ)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), fld=st.sampled_from(FIELDS),
       upper=st.booleans())
def test_random_algebra_generators_match_the_pairwise_closure(seed, fld, upper):
    rng = random.Random(seed)
    A = (random_upper_half_zero_algebra(fld, rng, rng.randint(1, 3)) if upper
         else random_graded_algebra(fld, rng))
    _assert_algebra_generators(A)
    _assert_algebra_generators(opposite(A))


def _character(A, side, hot):
    action = [[{0: A.field.one()} if j == hot else {} for j in range(A.dim)]]
    return GradedModule(A, side, ["s"], [A.group.zero()], action)


def _family_modules(fld):
    """Simples and regular modules over the algebras of the pd and Tor
    sweeps: the triangular ring over the dual numbers, coverings of
    k[x]/(x^m), linear quivers with relations and the k^3 chain tensor
    ring."""
    D = truncated_polynomial(fld, 2)
    L = morita_ring(D, D, regular_bimodule(D),
                    GradedBimodule(D, D, [], [], [], [])).assembled
    kn = product_field_algebra(fld, 3)
    one = fld.one()
    W = GradedBimodule(kn, kn, ["t0", "t1"], [(), ()],
                       [[{i: one} if j == i else {} for j in range(3)] for i in range(2)],
                       [[{i: one} if j == i + 1 else {} for j in range(3)] for i in range(2)])
    algebras = [L, tensor_ring(kn, W, 3).algebra, *list(_coverings(fld))[:4],
                _linear_quiver(fld, 3, 2), _linear_quiver(fld, 4, 2), _linear_quiver(fld, 4, 3)]
    for A in algebras:
        for side in ("right", "left"):
            yield regular_module(A, side)
            for j in range(0, A.dim, 2):
                M = _character(A, side, j)
                if check_module_axioms(M).passed:
                    yield M


def test_family_syzygy_generators_match_the_pruning_oracle():
    count = 0
    for fld in (F5, QQ):
        for M in _family_modules(fld):
            res = _resolver(flatten_module(M))
            res.ensure(3)
            for X in [res.module, *res.syzygies]:
                assert X.generators() == _pruned_generators(X)
                count += 1
    assert count > 100


def _shuffled(M, rng):
    """M with its basis in a random order, so that early greedy picks are
    often redundant."""
    order = list(range(M.dim))
    rng.shuffle(order)
    pos = {i: q for q, i in enumerate(order)}
    action = [[{pos[k]: c for k, c in M.action[i][j].items()} for j in range(M.algebra.dim)]
              for i in order]
    return GradedModule(M.algebra, M.side, [M.labels[i] for i in order],
                        [M.degree[i] for i in order], action)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), fld=st.sampled_from(FIELDS),
       side=st.sampled_from(("right", "left")))
def test_random_module_generators_match_the_pruning_oracle(seed, fld, side):
    rng = random.Random(seed)
    A = random_graded_algebra(fld, rng, max_dim=6, max_group=4)
    M = random_module(A, rng, side, max_summands=3)
    for X in (M, flatten_module(M), _shuffled(M, rng)):
        assert X.generators() == _pruned_generators(X)


def test_pruning_drops_a_redundant_first_pick():
    # k[x]/(x^2) in the basis (x, 1): the greedy picks are x and 1, and x
    # lies in the submodule that 1 generates
    A = truncated_polynomial(F5, 2)
    M = GradedModule(A, "right", ["x", "1"], [(), ()],
                     [[{0: 1}, {}], [{1: 1}, {0: 1}]])
    assert check_module_axioms(M).passed
    assert M.generators() == _pruned_generators(M) == [1]
