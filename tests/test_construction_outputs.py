"""Every construction's output satisfies its axioms.

Constructions check the data a caller hands them but not what they build;
the object store checks each object once, where it enters.  This suite is
what stands behind that split: it runs every construction over the
bundled corpus and a seeded random zoo and checks each output with
check_axioms.
"""

import json
import random

import pytest

from injgen.algebra import (GradedAlgebra, check_axioms, component_bimodule,
                            degree_zero_subalgebra, regular_bimodule,
                            regular_module)
from injgen.bundled import corpus_docs
from injgen.constructions import (Bicharacter, CleftFunctors, MoritaContext,
                                  TensorTower, ThetaData, beilinson, construct,
                                  covering_module, covering_module_inverse,
                                  covering_ring, regular_right_tuple,
                                  split_covering, split_positively_graded,
                                  tensor_product_algebra, tensor_ring,
                                  trivial_extension,
                                  twisted_module, twisted_tensor)
from injgen.field import QQ, PrimeField
from injgen.groups import FiniteAbelianGroup
from injgen.quiver import path_algebra
from injgen.samples import (random_graded_algebra, random_graded_module,
                            random_upper_half_zero_algebra)
from injgen.serialize import content_hash, from_json, object_hash

F5 = PrimeField(5)
Z3 = FiniteAbelianGroup((3,))
ZOO_SEED = 1


def valid(obj):
    rep = check_axioms(obj)
    assert rep.passed, rep
    return obj


@pytest.fixture(scope="module")
def corpus():
    """label -> (object, provenance with inputs as labels)."""
    out, labels = {}, {}
    for label, doc in corpus_docs():
        labels[content_hash(doc)] = label
        prov = doc.get("provenance")
        if prov is not None:
            prov = dict(prov, inputs=[labels[h] for h in prov["inputs"]])
        out[label] = (from_json(doc), prov)
    return out


@pytest.fixture(scope="module")
def algebras(corpus):
    """The corpus algebras, then a seeded zoo over F_5 and Q."""
    rng = random.Random(ZOO_SEED)
    zoo = [random_graded_algebra(F5, rng, max_dim=5, max_group=4) for _ in range(10)]
    zoo += [random_graded_algebra(QQ, rng, max_dim=4, max_group=3) for _ in range(4)]
    return [o for o, _ in corpus.values() if isinstance(o, GradedAlgebra)] + zoo


@pytest.fixture(scope="module")
def positively_graded():
    """Algebras graded by Z/2^n with nothing in the upper half."""
    rng = random.Random(ZOO_SEED)
    return [random_upper_half_zero_algebra(F5, rng, rng.choice([1, 2, 3]))
            for _ in range(10)]


def _splits(A):
    """(covering, context cut from it) at the first and the middle index."""
    if len(A.group.factors) != 1 or A.group.order < 2:
        return []
    cov = covering_ring(A)
    return [(cov, split_covering(cov, k)) for k in sorted({0, A.group.order // 2 - 1})]


def _reassembles(cov, ctx):
    """The context ring is the covering with its basis reordered into the
    blocks A, N, M, B, constant for constant."""
    top = {(r,) for r in range(ctx.split_index + 1)}

    def block(rows_top, cols_top):
        return [i for i, (g, h, _) in enumerate(cov.basis_triples)
                if (g in top) == rows_top and (h in top) == cols_top]

    relabel = block(True, True) + block(True, False) + block(False, True) \
        + block(False, False)
    L, covm = ctx.assembled, cov.algebra.mult
    assert sorted(relabel) == list(range(cov.algebra.dim)) and L.dim == len(relabel)
    for p in range(L.dim):
        for q in range(L.dim):
            got = {relabel[t]: c for t, c in L.mult[p][q].items()}
            assert got == covm[relabel[p]][relabel[q]], (p, q)


def _check_context(ctx):
    valid(ctx.assembled)
    valid(regular_right_tuple(ctx).as_module())
    valid(ctx.T_A(regular_module(ctx.A, "left")).as_module())
    valid(ctx.T_B(regular_module(ctx.B, "left")).as_module())
    if ctx.is_zero_context:
        valid(ctx.Z_A(regular_module(ctx.A, "left")).as_module())
        valid(ctx.Z_B(regular_module(ctx.B, "left")).as_module())


def _check_extension(td):
    valid(td.base)
    valid(td.bim)
    valid(td.algebra)
    cf = CleftFunctors(td)
    for bim in (cf._up, cf.down, cf._pair):
        valid(bim)
    E = td.algebra
    valid(cf.U(regular_module(E, "right")))
    valid(cf.Z(regular_module(cf.base, "right")))


def test_coverings(algebras):
    rng = random.Random(ZOO_SEED)
    for A in algebras:
        cov = covering_ring(A)
        valid(cov.algebra)
        for M in (regular_module(A, "right"), random_graded_module(A, rng)):
            V = valid(covering_module(M, cov))
            valid(covering_module_inverse(V, cov))


def test_split_coverings_and_tuples(algebras, positively_graded):
    zero_contexts = 0
    for A in algebras + positively_graded:
        for cov, ctx in _splits(A):
            _reassembles(cov, ctx)
            _check_context(ctx)
            zero_contexts += ctx.is_zero_context
    assert zero_contexts  # the Z_A/Z_B functors were reached


def test_corpus_contexts_and_extensions(corpus):
    """Every recorded corpus construction, re-run through the provenance
    table, rebuilds its object and re-encodes its record byte for byte."""
    hashes = {label: object_hash(obj) for label, (obj, _prov) in corpus.items()}
    for label, (obj, prov) in corpus.items():
        if prov is None:
            continue
        built = construct(prov["construction"],
                          [corpus[i][0] for i in prov["inputs"]], prov.get("params"))
        if isinstance(built.data, MoritaContext):
            _check_context(built.data)
        elif isinstance(built.data, ThetaData):
            _check_extension(built.data)
        assert valid(built.obj) == obj, label
        record = built.provenance([hashes[i] for i in prov["inputs"]])
        assert json.dumps(record, sort_keys=True) == json.dumps(
            dict(prov, inputs=[hashes[i] for i in prov["inputs"]]), sort_keys=True)


def test_tensor_rings_and_theta_extensions(algebras, positively_graded):
    for A in algebras:
        _check_extension(trivial_extension(A, regular_bimodule(A)))
    tensor_rings = 0
    for A in positively_graded:
        td, _perm = split_positively_graded(A)
        _check_extension(td)
        R0 = degree_zero_subalgebra(A)
        W = valid(component_bimodule(A, (1,)))
        tower = TensorTower(R0, W)
        k = next((k for k in range(1, 5) if tower.power(k).dim == 0), None)
        if k is not None:  # over k[x], say, the tensor powers never vanish
            valid(tensor_ring(R0, W, k).algebra)
            tensor_rings += 1
    assert tensor_rings


def test_beilinson_parts(positively_graded):
    for A in positively_graded:
        top = max(d[0] for d in A.degree)
        bd = beilinson(A, max(top, 1))
        valid(bd.algebra)
        valid(bd.bim)
        valid(trivial_extension(bd.algebra, bd.bim).algebra)


def _bicharacter(rng, A, B):
    F = A.field
    values = []
    for n in A.group.factors:
        row = []
        for m in B.group.factors:
            roots = [v for v in range(1, F.p) if pow(v, n, F.p) == 1 == pow(v, m, F.p)]
            row.append(rng.choice(roots))
        values.append(row)
    return Bicharacter(F, A.group, B.group, values)


def test_twisted_products(algebras):
    rng = random.Random(ZOO_SEED)
    over_f5 = [A for A in algebras if A.field == F5 and A.dim <= 4]
    for _ in range(8):
        A, B = rng.choice(over_f5), rng.choice(over_f5)
        valid(tensor_product_algebra(A, B))
        t = _bicharacter(rng, A, B)
        AtB = valid(twisted_tensor(A, B, t))
        M, N = random_graded_module(A, rng), random_graded_module(B, rng)
        valid(twisted_module(M, N, t, AtB))


def test_path_algebras():
    rng = random.Random(ZOO_SEED)
    for field in (F5, QQ, PrimeField(2)):
        for _ in range(6):
            nv = rng.randint(1, 4)
            vertices = [f"v{i}" for i in range(nv)]
            arrows = [(f"a{i}{j}{r}", vertices[i], vertices[j])
                      for i in range(nv) for j in range(i + 1, nv)
                      for r in range(rng.randint(0, 2))]
            relations = [(a[0], b[0]) for a in arrows for b in arrows
                         if a[2] == b[1] and rng.random() < 0.5]
            degrees = {a[0]: (rng.randrange(3),) for a in arrows}
            pa = path_algebra(field, vertices, arrows, relations, group=Z3,
                              degrees=degrees)
            valid(pa.algebra)
