"""Acceptance gate: one test per shipped criterion, exact arithmetic only.

Every test prints a single criterion line; run with -v (or -s) to see
them.  Randomized criteria use fixed seeds so reruns are bit-identical.
"""

import random

import pytest

from dense_modules import zeros
from injgen.algebra import (GradedBimodule, check_algebra_axioms,
                            regular_module)
from injgen.bundled import load_corpus
from injgen.constructions import (Bicharacter, CleftFunctors, covering_module,
                                  covering_module_inverse, covering_ring,
                                  morita_ring, regular_right_tuple,
                                  split_covering, split_positively_graded,
                                  tensor_product_algebra, tensor_ring,
                                  theta_extension, trivial_extension,
                                  twisted_tensor)
from injgen.field import PrimeField
from injgen.groups import FiniteAbelianGroup
from injgen.homology import (cleft_vanishing_check, morita_corner_pd,
                             power_block_law_check, resolution_report,
                             tensor_formula_check, tor)
from injgen.homs import find_isomorphism
from injgen.quiver import path_algebra
from injgen.reduction import (CONDITIONAL, ESTABLISHED, derive,
                              emit_certificate, validate_cert)
from injgen.registry import Registry
from injgen.samples import (group_algebra, product_field_algebra,
                            random_graded_algebra, random_graded_module,
                            random_module, random_upper_half_zero_algebra)
from injgen.serialize import canonical_bytes, to_json
from injgen.verify import run_suite

F5 = PrimeField(5)
ONE = F5.one()
Z2 = FiniteAbelianGroup((2,))
Z8 = FiniteAbelianGroup((8,))


def arrow_bimodule(kk):
    return GradedBimodule(kk, kk, ["b"], [()],
                          [[{0: ONE}, {}]], [[{}, {0: ONE}]])


def chain_bimodule_3(k3):
    return GradedBimodule(k3, k3, ["a", "b"], [(), ()],
                          [[{0: ONE}, {}, {}], [{}, {1: ONE}, {}]],
                          [[{}, {0: ONE}, {}], [{}, {}, {1: ONE}]])


def report(n, text):
    print(f"criterion {n:02d}: PASS ({text})")


def test_c01_covering_dimension_law():
    rng = random.Random(101)
    for _ in range(25):
        A = random_graded_algebra(F5, rng, max_dim=8, max_group=8)
        cov = covering_ring(A)
        assert cov.algebra.dim == A.group.order * A.dim
        assert check_algebra_axioms(cov.algebra).passed
    report(1, "covering dimension law, 25 random algebras")


def test_c02_zero_context_detection():
    rng = random.Random(202)
    for _ in range(25):
        A = random_upper_half_zero_algebra(F5, rng, rng.randint(1, 3))
        ctx = split_covering(covering_ring(A))
        assert ctx.is_zero_context is True
    kz2 = group_algebra(F5, Z2)
    assert split_covering(covering_ring(kz2)).is_zero_context is False
    report(2, "zero maps on 25 half-vanishing splits, nonzero on kZ/2")


def test_c03_covering_module_round_trip():
    rng = random.Random(303)
    for _ in range(25):
        A = random_graded_algebra(F5, rng, max_dim=8, max_group=8)
        M = random_graded_module(A, rng)
        cov = covering_ring(A)
        back = covering_module_inverse(covering_module(M, cov), cov)
        assert back.dims_by_degree() == M.dims_by_degree()
        rep = find_isomorphism(M, back)
        assert rep.conclusive and rep.found
    report(3, "module transport round trip, 25 random modules")


def test_c04_tensor_formula_agreement():
    rng = random.Random(404)
    collapsed = 0
    for _ in range(20):
        A = random_upper_half_zero_algebra(F5, rng, rng.randint(1, 3))
        ctx = split_covering(covering_ring(A))
        rt = regular_right_tuple(ctx)
        pick = rng.randrange(4)
        if pick == 0:
            lt = ctx.T_A(regular_module(ctx.A, "left"))
        elif pick == 1:
            lt = ctx.T_B(regular_module(ctx.B, "left"))
        elif pick == 2:
            lt = ctx.Z_A(regular_module(ctx.A, "left"))
        else:
            lt = ctx.Z_B(regular_module(ctx.B, "left"))
        rep = tensor_formula_check(ctx, rt, lt)
        assert rep.ok, rep.details
        assert rep.details["kills_relations"] and rep.details["surjective"]
        assert rep.details["quotient_dim"] == rep.details["direct_dim"]
        if "collapsed_dim" in rep.details:
            # triangular collapse: the product is just the B-side tensor
            assert rep.details["collapsed_dim"] == rep.details["direct_dim"]
            collapsed += 1
    assert collapsed >= 1
    report(4, f"tensor formula on 20 contexts, {collapsed} triangular collapses")


def test_c05_power_block_dimension_law():
    k3 = product_field_algebra(F5, 3)
    rep = power_block_law_check(k3, chain_bimodule_3(k3))
    assert rep.ok is True
    assert rep.details["dims"] == [(1, 4, 4), (2, 0, 0)]
    assert rep.details["isos"] == [(1, True, True)]
    report(5, "block power dims match 2*N^2i + N^2i+1 + N^2i-1 for i = 1, 2")


def test_c06_degeneracy_identities():
    kk = product_field_algebra(F5, 2)
    W = arrow_bimodule(kk)
    zero_pairing = theta_extension(kk, W, None).algebra
    square_zero = trivial_extension(kk, W).algebra
    assert canonical_bytes(to_json(zero_pairing)) == canonical_bytes(to_json(square_zero))

    az = group_algebra(PrimeField(3), Z2)
    plain = tensor_product_algebra(az, az)
    unit_twist = twisted_tensor(az, az, Bicharacter.trivial(az.field, Z2, Z2))
    assert canonical_bytes(to_json(plain)) == canonical_bytes(to_json(unit_twist))

    # tensor ring carries R in degree 0 and W in degree 1
    trd = tensor_ring(kk, W, 2)
    assert trd.algebra.dim == kk.dim + W.dim
    suite = run_suite(only=["degeneracy"])
    assert suite[0].ok is True, suite[0].details
    report(6, "zero pairing, unit twist, and tensor ring block identities")


def test_c07_twisted_dual_isomorphisms():
    suite = run_suite(only=["twisted-dual"])
    assert suite[0].ok is True, suite[0].details
    report(7, "dual additivity, product dual, twist compatibility over F3")


def test_c08_corner_pd_bounds():
    kk = product_field_algebra(F5, 2)
    zb = GradedBimodule(kk, kk, [], [], [], [])
    ctx = morita_ring(kk, kk, zb, arrow_bimodule(kk))
    rep = morita_corner_pd(ctx)
    assert rep.ok is True
    verdicts = rep.details["verdicts"]
    assert set(verdicts) == {"(A,0)", "(0,A)", "(M,0)", "(0,M)"}
    for name, v in verdicts.items():
        assert v.is_finite and v.value <= 6, (name, v)
    report(8, "all four corner tuples have finite pd at most 6")


def test_c09_cleft_vanishing_from_bound():
    a3 = path_algebra(F5, ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")],
                      group=Z8, degrees={"a": (1,), "b": (1,)}).algebra
    td, _perm = split_positively_graded(a3)
    rng = random.Random(909)
    extras = [random_module(td.algebra, rng, "right") for _ in range(10)]
    rep = cleft_vanishing_check(td)
    assert rep.ok is True
    assert rep.details["violations"] == []
    # random coefficient modules: Tor vanishes from the bound upward
    B = rep.details["bound"]
    Rleft = CleftFunctors(td).down.as_left_module()
    for X in extras:
        assert not any(tor(X, Rleft, B + 1, resolve_side="second")[B:])

    # square-zero instance where the bound is tight: nonzero right at B-1
    kk = product_field_algebra(F5, 2)
    td2 = trivial_extension(kk, arrow_bimodule(kk))
    rep2 = cleft_vanishing_check(td2)
    assert rep2.ok is True and rep2.details["bound"] == 2
    assert rep2.details["table"]["base@1"] == 1
    report(9, "vanishing above the bound for unit, random, and all 1-dim modules")


def test_c10_derive_validate_and_degrade(tmp_path):
    reg = Registry(tmp_path / "s1")
    labels = load_corpus(reg)
    tree = derive(reg, labels["a2-tensor"])
    assert tree.status == ESTABLISHED
    cert = emit_certificate(tree)
    # revalidate against a separate store with cold caches
    reg2 = Registry(tmp_path / "s2")
    load_corpus(reg2)
    ok, status, problems = validate_cert(cert, reg2)
    assert ok and status == ESTABLISHED and problems == []
    # halved cutoffs may lose strength but never flip to a refutation
    half = derive(reg, labels["a2-tensor"], pd_cutoff=12, nil_cutoff=8)
    assert half.status in (ESTABLISHED, CONDITIONAL)
    report(10, "derivation certificate validates from scratch; degrades safely")


def test_c11_tor_side_independence_and_exactness():
    rng = random.Random(1111)
    for _ in range(25):
        A = random_graded_algebra(F5, rng, max_dim=8, max_group=8)
        X = random_module(A, rng, "right")
        Y = random_module(A, rng, "left")
        assert tor(X, Y, 3, resolve_side="first") == \
               tor(X, Y, 3, resolve_side="second")
        for M in (X, Y):
            rr = resolution_report(M, 4)
            for i in range(1, len(rr.steps)):
                comp = rr.steps[i - 1].boundary.mul(rr.steps[i].boundary)
                assert comp == zeros(F5, comp.nrows, comp.ncols)
    report(11, "tor agrees across resolved side; boundaries compose to zero")
