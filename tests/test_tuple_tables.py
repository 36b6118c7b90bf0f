"""Tuple structure tables against the tensor-space reference.

The tuple builders (T_A, T_B, Z_A, Z_B, regular_right_tuple and
tuple_module) write f and g as cell tables on basis pairs and compute no
tensor product that only carried the maps.  tuple_reference keeps the
builds they replaced, with f and g maps on computed tensor spaces read
through their sections.  Every built tuple must give the reference's
tables and assembled module (==) on the corpus contexts, the split
coverings of the benchmark zoo at seeds 1 and 1009, triangular rings
over the dual numbers and hypothesis draws over F_2, F_5 and Q; the
collapse branch of the tensor formula must fire exactly when the
reference's g is an isomorphism.
"""

import importlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from injgen import homology, tensors
from injgen.algebra import GradedBimodule, regular_bimodule, regular_module
from injgen.bundled import corpus_docs
from injgen.constructions import (MoritaContext, covering_ring, morita_ring,
                                  reconstruct, regular_right_tuple,
                                  split_covering, tuple_module)
from injgen.field import QQ, PrimeField
from injgen.groups import FiniteAbelianGroup
from injgen.homology import tensor_formula_check
from injgen.linalg import rank
from injgen.samples import (group_algebra, random_graded_algebra, random_module,
                            random_upper_half_zero_algebra, truncated_polynomial)
from injgen.serialize import content_hash, from_json
from tuple_reference import (ref_induced, ref_left_tuple, ref_regular_right_tuple,
                             ref_zero_partner)

FIELDS = (PrimeField(2), PrimeField(5), QQ)
F5 = FIELDS[1]
Z2 = FiniteAbelianGroup((2,))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def assert_matches(t, ref):
    assert (t.side, t.X, t.Y) == (ref.side, ref.X, ref.Y)
    assert (t.f, t.g) == ref.tables()
    assert t.as_module() == ref.as_module()


def check_collapse(ctx, rt, lt, ref):
    """tensor_formula_check collapses onto Y (x)_B Y' exactly when the
    reference's g: N (x)_B Y' -> X' is an isomorphism."""
    g = ref.g
    iso = g.source.dim == g.target.dim and rank(ctx.A.field, g.cols) == g.target.dim
    assert ("collapsed_dim" in tensor_formula_check(ctx, rt, lt).details) == iso
    return iso


def check_context(ctx, rng=None):
    """Every tuple builder on ctx against its reference, on the regular
    corner modules and, given rng, a random left module at each corner.
    Returns how often the tensor formula collapsed."""
    rt = regular_right_tuple(ctx)
    assert_matches(rt, ref_regular_right_tuple(ctx))
    collapsed = 0
    for corner, ring in (("A", ctx.A), ("B", ctx.B)):
        mods = [regular_module(ring, "left")]
        if rng is not None:
            mods.append(random_module(ring, rng, "left"))
        for Z in mods:
            ref = ref_induced(ctx, Z, corner)
            lt = getattr(ctx, f"T_{corner}")(Z)
            assert_matches(lt, ref)
            # the reference maps handed to tuple_module as tables
            assert_matches(tuple_module(ctx, ref.X, ref.Y, *ref.tables()),
                           ref_left_tuple(ctx, ref.X, ref.Y, ref.f.cols, ref.g.cols))
            pairs = [(lt, ref)]
            if ctx.is_zero_context:
                ref = ref_zero_partner(ctx, Z, corner)
                lt = getattr(ctx, f"Z_{corner}")(Z)
                assert_matches(lt, ref)
                pairs.append((lt, ref))
            if ctx.M.dim == 0:
                collapsed += sum(check_collapse(ctx, rt, lt, ref) for lt, ref in pairs)
    return collapsed


def triangular(R, N):
    """The triangular context [[R, N], [0, R]]."""
    return morita_ring(R, R, N, GradedBimodule._trusted(R, R, [], [], [], []))


def dual_numbers(field, graded=True):
    """k[x]/(x^2), with deg x = 1 over Z/2 when graded."""
    if graded:
        return truncated_polynomial(field, 2, Z2, (1,))
    return truncated_polynomial(field, 2)


def test_corpus_contexts_match_the_reference():
    objs, contexts = {}, 0
    rng = random.Random(11)
    for _, doc in corpus_docs():
        objs[content_hash(doc)] = from_json(doc)
        prov = doc.get("provenance")
        if prov is None:
            continue
        data = reconstruct(prov, objs.__getitem__).data
        if isinstance(data, MoritaContext):
            check_context(data, rng)
            contexts += 1
        elif hasattr(data, "basis_triples") and len(data.base.group.factors) == 1:
            for k in range(data.base.group.order - 1):
                check_context(split_covering(data, k), rng)
                contexts += 1
    assert contexts


@pytest.mark.parametrize("seed", [1, 1009])
def test_zoo_split_coverings_match_the_reference(seed, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wl = importlib.import_module("workloads")
    rng = random.Random(seed)
    for rnd in range(wl.ZOO_ROUNDS["tensor"]):
        for i, (n, fam, dim) in enumerate(wl.TENSOR_STRATA):
            make = lambda r, n=n: wl._make_tensor(r, n)
            _, A = wl._sample(random.Random(f"{seed}:tensor:{rnd}:{i}"), make,
                              lambda A: (wl.family(A), A.dim), (fam, dim))
            check_context(split_covering(covering_ring(A)), rng)


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_triangular_rings_over_the_dual_numbers_match_the_reference(fld):
    rng = random.Random(3)
    collapsed = 0
    for graded in (True, False):
        D = dual_numbers(fld, graded)
        collapsed += check_context(triangular(D, regular_bimodule(D)), rng)
        collapsed += check_context(morita_ring(D, D, regular_bimodule(D),
                                               regular_bimodule(D)), rng)
    assert collapsed


@settings(max_examples=30, deadline=None)
@given(field=st.sampled_from(range(len(FIELDS))), seed=st.integers(0, 2 ** 32))
def test_random_contexts_match_the_reference(field, seed):
    F = FIELDS[field]
    rng = random.Random(seed)
    A = random_graded_algebra(F, rng, max_dim=4, max_group=4)
    check_context(triangular(A, regular_bimodule(A)), rng)
    if len(A.group.factors) == 1 and A.group.order >= 2:
        cov = covering_ring(A)
        for k in sorted({0, A.group.order // 2 - 1}):
            check_context(split_covering(cov, k), rng)
    U = random_upper_half_zero_algebra(F, rng, rng.choice([1, 2]))
    check_context(split_covering(covering_ring(U)), rng)
    G = group_algebra(F, FiniteAbelianGroup((rng.choice([2, 4]),)))
    check_context(split_covering(covering_ring(G)), rng)


def test_builders_compute_only_the_tensor_products_they_keep(monkeypatch):
    """Z_A, Z_B and regular_right_tuple compute no tensor product, T_A and
    T_B only W = P (x) Z, and as_module none; tensor_formula_check builds
    N (x)_B Y' only on a triangular ring, after the cells of g span X'."""
    calls = []
    real = tensors.tensor_over_algebra

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tensors, "tensor_over_algebra", spy)
    monkeypatch.setattr(homology, "tensor_over_algebra", spy)
    D = dual_numbers(F5)
    zero_ctx = triangular(D, regular_bimodule(D))
    split_ctx = split_covering(covering_ring(group_algebra(F5, Z2)))
    for ctx in (zero_ctx, split_ctx):
        regA, regB = regular_module(ctx.A, "left"), regular_module(ctx.B, "left")
        builds = [(lambda: regular_right_tuple(ctx), 0),
                  (lambda: ctx.T_A(regA), 1), (lambda: ctx.T_B(regB), 1)]
        if ctx.is_zero_context:
            builds += [(lambda: ctx.Z_A(regA), 0), (lambda: ctx.Z_B(regB), 0)]
        for build, want in builds:
            calls.clear()
            build().as_module()
            assert len(calls) == want
    rt = regular_right_tuple(zero_ctx)
    for lt, want in ((zero_ctx.T_B(regular_module(D, "left")), 4),
                     (zero_ctx.Z_A(regular_module(D, "left")), 3)):
        calls.clear()
        rep = tensor_formula_check(zero_ctx, rt, lt)
        assert len(calls) == want
        assert ("collapsed_dim" in rep.details) == (want == 4)
