"""The trusted constructors and the tables they share.

Tables are cleaned once, where they enter: the public constructors and
the decoders.  Every builder inside the library hands tables it made
clean to GradedAlgebra._trusted, GradedModule._trusted or
GradedBimodule._trusted, which store them as they are, so tables are
shared between objects and nothing may mutate them.  The gate below
builds each trusted object a second time through the public constructor
and requires the two to be equal, over the corpus and its constructions,
seeded random draws and the resolution families; the immutability tests
snapshot the tables of their inputs around the operations that read
them most.
"""

import copy
import random
from collections import Counter

import pytest

from injgen.algebra import (AlgebraError, GradedAlgebra, GradedBimodule,
                            GradedModule, dual, opposite, regular_bimodule,
                            regular_module, trivially_graded, twist)
from injgen.bundled import corpus_docs, load_corpus
from injgen.constructions import (construct, covering_module,
                                  covering_module_inverse, covering_ring,
                                  morita_ring, regular_right_tuple,
                                  split_covering, tensor_ring)
from injgen.field import QQ, PrimeField
from injgen.groups import FiniteAbelianGroup
from injgen.homology import (flatten_module, resolution_report,
                             tensor_formula_check, tor)
from injgen.homs import find_isomorphism
from injgen.quiver import path_algebra
from injgen.reduction import ESTABLISHED, derive, emit_certificate, validate_cert
from injgen.registry import Registry
from injgen.samples import (product_field_algebra, random_graded_algebra,
                            random_module, random_upper_half_zero_algebra,
                            truncated_polynomial)
from injgen.serialize import content_hash, from_json

F2, F5 = PrimeField(2), PrimeField(5)
CLASSES = (GradedAlgebra, GradedModule, GradedBimodule)


@pytest.fixture
def gate(monkeypatch):
    """Check every trusted build against the public constructor's cleaned
    form of the same arguments; yields the number of builds per class."""
    built = Counter()
    for cls in CLASSES:
        def checked(cls_, *args, cls=cls, trusted=cls._trusted):
            obj = trusted(*args)
            assert obj == cls(*args), f"{cls.__name__} built from unclean tables"
            built[cls.__name__] += 1
            return obj
        monkeypatch.setattr(cls, "_trusted", classmethod(checked))
    yield built


# -- the workloads ----------------------------------------------------------------


def _character(A, side, hot):
    """The one-dimensional module on which basis element hot acts as 1."""
    return GradedModule(A, side, ["s"], [A.group.zero()],
                        [[{0: A.field.one()} if j == hot else {} for j in range(A.dim)]])


def _triangular(F):
    """The context ring [[D, D], [0, D]] over the dual numbers D."""
    D = truncated_polynomial(F, 2)
    zero = GradedBimodule(D, D, [], [], [], [])
    return D, morita_ring(D, D, regular_bimodule(D), zero)


def _cover(F, m, n):
    return covering_ring(truncated_polynomial(F, m, FiniteAbelianGroup((n,)), (1,)))


def _linear_quiver(F, n, r):
    verts = [str(i + 1) for i in range(n)]
    arrows = [(f"a{i}", verts[i], verts[i + 1]) for i in range(n - 1)]
    rels = [tuple(f"a{j}" for j in range(i, i + r)) for i in range(n - r)]
    return path_algebra(F, verts, arrows, rels)


def _chain_tensor_ring(F, n):
    """Tensor ring of k^n over the chain bimodule i -> i+1."""
    kn = product_field_algebra(F, n)
    one = F.one()
    left = [[{i: one} if j == i else {} for j in range(n)] for i in range(n - 1)]
    right = [[{i: one} if j == i + 1 else {} for j in range(n)] for i in range(n - 1)]
    W = GradedBimodule(kn, kn, [f"t{i}" for i in range(n - 1)], [()] * (n - 1),
                       left, right)
    return tensor_ring(kn, W, n).algebra


def _resolve_pairs(F):
    """(X, Y) pairs of a right and a left module from each resolve family:
    the triangular ring over the dual numbers (its corner simples and the
    zero-partner tuples), coverings of F[x]/(x^m), linear quivers and the
    k^3 chain tensor ring."""
    _, ctx = _triangular(F)
    L = ctx.assembled
    k = _character(ctx.A, "left", 0)
    yield _character(L, "right", ctx.offsets[0]), ctx.Z_A(k).as_module()
    yield _character(L, "right", ctx.offsets[3]), ctx.Z_B(k).as_module()
    yield _character(L, "right", ctx.offsets[0]), _character(L, "left", ctx.offsets[3])
    for m, n in ((2, 2), (3, 2), (2, 3)):
        cov = _cover(F, m, n)
        g0, g1 = cov.base.group.zero(), cov.base.group.reduce((1,))
        yield (_character(cov.algebra, "right", cov.pos[(g0, g0, 0)]),
               _character(cov.algebra, "left", cov.pos[(g1, g1, 0)]))
    for n, r in ((3, 2), (4, 3)):
        pa = _linear_quiver(F, n, r)
        yield (_character(pa.algebra, "right", pa.vertex_index["1"]),
               _character(pa.algebra, "left", pa.vertex_index[str(n)]))
    A = _chain_tensor_ring(F, 3)
    yield (_character(A, "right", A.labels.index("t0:e1")),
           _character(A, "left", A.labels.index("t0:e3")))


def _draws(field, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        A = random_graded_algebra(field, rng, max_dim=5, max_group=4)
        yield A, random_module(A, rng, "right"), random_module(A, rng, "left")
        U = random_upper_half_zero_algebra(field, rng, rng.choice([1, 2, 3]))
        yield U, random_module(U, rng, "right"), random_module(U, rng, "left")


# -- the gate ----------------------------------------------------------------------


def test_corpus_and_its_constructions_build_clean_tables(gate):
    objs, hashes = {}, {}
    for label, doc in corpus_docs():
        obj = objs[label] = from_json(doc)
        hashes[content_hash(doc)] = label
        prov = doc.get("provenance")
        if prov is not None:
            inputs = [objs[hashes[h]] for h in prov["inputs"]]
            assert construct(prov["construction"], inputs, prov.get("params")).obj == obj
        if isinstance(obj, GradedAlgebra):
            regular_module(obj, "left")
            opposite(obj)
            trivially_graded(obj)
            if len(obj.group.factors) == 1:
                cov = covering_ring(obj)
                split_covering(cov, 0)
                covering_module_inverse(covering_module(regular_module(obj, "right"),
                                                        cov), cov)
    assert sum(isinstance(o, GradedAlgebra) for o in objs.values()) == 17
    assert all(gate[cls.__name__] for cls in CLASSES)


@pytest.mark.parametrize("field,seed", [(F2, 0), (F5, 1), (QQ, 2)])
def test_random_draws_build_clean_tables(gate, field, seed):
    for A, right, left in _draws(field, seed, 6):
        for M in (right, left):
            dual(M)
            twist(M, A.group.elements()[-1])
            flatten_module(M)
    assert gate["GradedModule"]


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
def test_resolve_families_build_clean_tables(gate, field):
    for X, Y in _resolve_pairs(field):
        for M in (X, Y):
            resolution_report(M, 3)
        tor(X, Y, 3, resolve_side="first")
        tor(X, Y, 3, resolve_side="second")
    assert gate["GradedModule"] and gate["GradedBimodule"]


def test_trusted_builders_still_refuse_empty_input():
    # the public constructor refused a zero-dimensional algebra for them
    for build in (lambda: truncated_polynomial(F5, 0),
                  lambda: product_field_algebra(F5, 0),
                  lambda: path_algebra(F5, [], [])):
        with pytest.raises(AlgebraError):
            build()


# -- nothing mutates a shared table -----------------------------------------------


def _tables(obj):
    """Deep copies of every table an object holds, its rings' included."""
    if isinstance(obj, GradedAlgebra):
        return copy.deepcopy((obj.labels, obj.degree, obj.unit, obj.mult))
    if isinstance(obj, GradedBimodule):
        return (copy.deepcopy((obj.labels, obj.degree, obj.left_action,
                               obj.right_action)),
                _tables(obj.left_algebra), _tables(obj.right_algebra))
    return (copy.deepcopy((obj.labels, obj.degree, obj.action)),
            _tables(obj.algebra))


def _leaves_tables(run, *objs):
    before = [_tables(o) for o in objs]
    result = run()
    assert [_tables(o) for o in objs] == before
    return result


def test_derivation_and_validation_leave_the_store_tables(tmp_path):
    reg = Registry(tmp_path)
    labels = load_corpus(reg)
    objs = [reg.load(h) for h in reg.entries()]

    def run():
        cert = emit_certificate(derive(reg, labels["a2-tensor"]))
        return validate_cert(cert, reg)

    assert _leaves_tables(run, *objs) == (True, ESTABLISHED, [])


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
def test_resolutions_and_tor_leave_their_inputs(field):
    for X, Y in _resolve_pairs(field):
        _leaves_tables(lambda: resolution_report(X, 3), X)
        _leaves_tables(lambda: tor(X, Y, 3, resolve_side="first"), X, Y)
        _leaves_tables(lambda: tor(X, Y, 3, resolve_side="second"), X, Y)


def test_covering_round_trip_leaves_its_inputs():
    for A, M, _ in _draws(F5, 3, 4):
        def run():
            cov = covering_ring(A)
            back = covering_module_inverse(covering_module(M, cov), cov)
            return find_isomorphism(M, back).found

        assert _leaves_tables(run, A, M)


def test_tensor_formula_leaves_its_inputs():
    for m, n in ((2, 2), (3, 2), (2, 4)):
        ctx = split_covering(_cover(F5, m, n))
        rt = regular_right_tuple(ctx)
        for lt in (ctx.T_A(regular_module(ctx.A, "left")),
                   ctx.T_B(regular_module(ctx.B, "left"))):
            rep = _leaves_tables(lambda: tensor_formula_check(ctx, rt, lt),
                                 ctx.assembled, ctx.N, ctx.M, rt.X, rt.Y, lt.X, lt.Y)
            assert rep.ok is True
