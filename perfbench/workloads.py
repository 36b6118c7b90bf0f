"""The three benchmark workloads: certify, resolve and zoo.

Each workload builds a list of Op objects in set-up.  Calling op.run()
rebuilds the op's inputs from scratch and performs the timed work; the
caller then hands the result to op.check(), which is not timed.  Inputs
are rebuilt on every call because injgen caches per object (resolvers,
projectivity reports, flattened modules, the registry's live objects),
so reusing objects would make every pass after the first almost free.

op.check() returns True when the op did what it should and False for a
known fault of the program (counted as failed); it raises WrongAnswer
when an answer is wrong.
"""

from __future__ import annotations

import copy
import random

from checks import (WrongAnswer, check_resolution, check_tor,
                    linear_quiver_pd, rank, require)


class Op:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


# -- certify -------------------------------------------------------------------


def _hypotheses(node):
    for step in node.get("steps", []):
        yield from step["hypotheses"]
        for p in step["premises"]:
            yield from _hypotheses(p)


def forge(cert):
    """Copy of a certificate with one recorded evidence value changed: the
    first key (sorted) of the first hypothesis with evidence is set to
    999.  For most certificates that is construction-integrity
    `expected`."""
    forged = copy.deepcopy(cert)
    for hyp in _hypotheses(forged):
        if hyp["evidence"]:
            hyp["evidence"][sorted(hyp["evidence"])[0]] = 999
            return forged
    raise WrongAnswer("certificate records no evidence to forge")


def check_derived(cert, established):
    require(cert["status"] == established,
            f"derivation status {cert['status']}, expected {established}")


def check_validated(outcome, established):
    ok, status, problems = outcome
    require(ok and status == established and not problems,
            f"certificate failed to validate: {status} {problems[:2]}")


def check_forged(outcome):
    # accepted forgeries are the known fault: validation compares only
    # hypothesis statuses, never the recorded evidence
    return not outcome[0]


def certify_ops(seed, workdir):
    # injgen functions are looked up at call time, so that a traced run
    # sees the wrapped versions
    from injgen import bundled, reduction, registry

    store = workdir / "store"
    reg = registry.Registry(store)
    labels = bundled.load_corpus(reg)
    index_path = store / "index.json"
    pristine = index_path.read_bytes()
    targets = [(label, h) for label, h in labels.items()
               if reg.entry(h)["kind"] == "algebra"]
    random.Random(seed).shuffle(targets)
    established = reduction.ESTABLISHED
    certs = {}
    ops = []
    for label, h in targets:
        def run_derive(h=h):
            # every derivation starts from the freshly loaded corpus; a
            # derivation registers degree-zero subalgebras as it goes
            index_path.write_bytes(pristine)
            tree = reduction.derive(registry.Registry(store), h)
            certs[h] = reduction.emit_certificate(tree)
            return certs[h]

        def run_validate(h=h):
            return reduction.validate_cert(certs[h], registry.Registry(store))

        def run_forged(h=h):
            return reduction.validate_cert(forge(certs[h]), registry.Registry(store))

        ops.append(Op(f"derive:{label}", run_derive,
                      lambda c: check_derived(c, established) or True))
        ops.append(Op(f"validate:{label}", run_validate,
                      lambda o: check_validated(o, established) or True))
        ops.append(Op(f"forged:{label}", run_forged, check_forged))
    return ops


# -- resolve -------------------------------------------------------------------

# pd specs are (name, field, module builder, cutoff, finite pd or None).
# Over the self-injective coverings and the triangular ring over the dual
# numbers every module below is non-projective, hence of infinite pd, so
# the verdict must be AtLeast(cutoff); the path algebra and tensor ring
# values come from linear_quiver_pd.


def _character(A, hot):
    """The 1-dimensional module on which basis element `hot` acts as 1 and
    every other basis element as 0; hot must be a primitive idempotent
    whose corner is a field modulo the radical."""
    F = A.field
    action = [[{0: F.one()} if j == hot else {} for j in range(A.dim)]]
    return action


def _char_module(A, side, hot):
    from injgen.algebra import GradedModule
    return GradedModule(A, side, ["s"], [A.group.zero()], _character(A, hot))


def _dual_numbers(F):
    from injgen.samples import truncated_polynomial
    return truncated_polynomial(F, 2)


def _triangular(F):
    """The context ring [[D, D], [0, D]] over the dual numbers D."""
    from injgen.algebra import GradedBimodule, regular_bimodule
    from injgen.constructions import morita_ring
    D = _dual_numbers(F)
    zero = GradedBimodule(D, D, [], [], [], [])
    ctx = morita_ring(D, D, regular_bimodule(D), zero)
    return D, ctx


def _tri_tuple(F, corner):
    D, ctx = _triangular(F)
    k = _char_module(D, "left", 0)
    return (ctx.Z_A(k) if corner == "A" else ctx.Z_B(k)).as_module()


def _cover(F, m, n):
    from injgen.constructions import covering_ring
    from injgen.groups import FiniteAbelianGroup
    from injgen.samples import truncated_polynomial
    return covering_ring(truncated_polynomial(F, m, FiniteAbelianGroup((n,)), (1,)))


def _cover_simple(F, m, n):
    cov = _cover(F, m, n)
    g = cov.base.group.zero()
    return _char_module(cov.algebra, "right", cov.pos[(g, g, 0)])


def _cover_quotient(F, m, n, length):
    """The right module e_0 Cov / e_0 rad^length: uniserial of dim length."""
    from injgen.algebra import quotient_module, regular_module
    cov = _cover(F, m, n)
    A = cov.algebra
    g = cov.base.group.zero()
    P = regular_module(A, "right")
    # each row of the covering is a right ideal; keep row 0 below x^length
    kill = [A.basis_vec(i) for i, (a, b, x) in enumerate(cov.basis_triples)
            if a != g or x >= length]
    Q, _ = quotient_module(P, kill)
    return Q


def _linear_quiver(F, n, r):
    from injgen.quiver import path_algebra
    verts = [str(i + 1) for i in range(n)]
    arrows = [(f"a{i}", verts[i], verts[i + 1]) for i in range(n - 1)]
    rels = [tuple(f"a{j}" for j in range(i, i + r)) for i in range(n - r)] \
        if r < n else []
    return path_algebra(F, verts, arrows, rels)


def _quiver_simple(F, n, r, vertex, side):
    pa = _linear_quiver(F, n, r)
    return _char_module(pa.algebra, side, pa.vertex_index[str(vertex)])


def _chain_tensor_ring(F, n):
    """Tensor ring of k^n over the chain bimodule i -> i+1: the path
    algebra of the linear quiver without relations."""
    from injgen.algebra import GradedBimodule
    from injgen.constructions import tensor_ring
    from injgen.samples import product_field_algebra
    kn = product_field_algebra(F, n)
    one = F.one()
    left = [[{i: one} if j == i else {} for j in range(n)] for i in range(n - 1)]
    right = [[{i: one} if j == i + 1 else {} for j in range(n)] for i in range(n - 1)]
    W = GradedBimodule(kn, kn, [f"t{i}" for i in range(n - 1)], [()] * (n - 1),
                       left, right)
    return tensor_ring(kn, W, n).algebra


def _tensor_ring_simple(F, n, vertex, side):
    A = _chain_tensor_ring(F, n)
    return _char_module(A, side, A.labels.index(f"t0:e{vertex}"))


def _pd_specs(F5, Q):
    specs = []
    for F, pre, corner, cuts in ((F5, "", "B", (1, 2, 3)), (F5, "", "A", (1, 2, 3)),
                                 (Q, "Q:", "B", (1,)), (Q, "Q:", "A", (2,))):
        for c in cuts:
            specs.append((f"{pre}tri:{'(0,k)' if corner == 'B' else '(k,0)'}:c{c}", F,
                          lambda F=F, corner=corner: _tri_tuple(F, corner), c, None))
    for F, pre, m, n, cuts in ((F5, "", 2, 2, (2, 3, 4, 6)), (F5, "", 3, 2, (1, 2, 3)),
                               (F5, "", 2, 3, (1, 2)), (F5, "", 3, 3, (1,)),
                               (Q, "Q:", 2, 2, (2, 4))):
        for c in cuts:
            specs.append((f"{pre}cov:m{m}n{n}:simple:c{c}", F,
                          lambda F=F, m=m, n=n: _cover_simple(F, m, n), c, None))
    for m, n, length, c in ((3, 2, 2, 3), (4, 2, 3, 2), (3, 3, 2, 1)):
        specs.append((f"cov:m{m}n{n}:uniserial{length}:c{c}", F5,
                      lambda m=m, n=n, length=length: _cover_quotient(F5, m, n, length),
                      c, None))
    # path algebras stay small: the resolutions are not minimal, and a pd 2
    # simple over A4 with radical square zero already needs about 1 GB
    for F, pre, n, r, v, side in ((F5, "", 2, 2, 1, "right"), (F5, "", 2, 2, 2, "right"),
                                  (F5, "", 3, 2, 1, "right"), (F5, "", 3, 2, 3, "left"),
                                  (F5, "", 3, 3, 1, "right"), (F5, "", 4, 4, 2, "left"),
                                  (F5, "", 5, 2, 5, "right"), (F5, "", 5, 2, 2, "left"),
                                  (Q, "Q:", 3, 3, 1, "right")):
        specs.append((f"{pre}quiver:A{n}r{r}:S{v}{side[0]}", F,
                      lambda F=F, n=n, r=r, v=v, side=side: _quiver_simple(F, n, r, v, side),
                      8, linear_quiver_pd(n, r, v, side)))
    for F, pre, v in ((F5, "", 1), (F5, "", 2), (F5, "", 3), (Q, "Q:", 1)):
        specs.append((f"{pre}tensor:k3:S{v}r", F,
                      lambda F=F, v=v: _tensor_ring_simple(F, 3, v, "right"),
                      8, linear_quiver_pd(3, 3, v, "right")))
    return specs


def _tor_specs(F5, Q):
    def dual_pair(F):
        D = _dual_numbers(F)
        return _char_module(D, "right", 0), _char_module(D, "left", 0)

    def tri_pair(cx, cy):
        D, ctx = _triangular(F5)
        L = ctx.assembled
        idx = {"A": ctx.offsets[0], "B": ctx.offsets[3]}
        return _char_module(L, "right", idx[cx]), _char_module(L, "left", idx[cy])

    def cov_pair(m, n):
        cov = _cover(F5, m, n)
        g0 = cov.base.group.zero()
        g1 = cov.base.group.reduce((1,))
        return (_char_module(cov.algebra, "right", cov.pos[(g0, g0, 0)]),
                _char_module(cov.algebra, "left", cov.pos[(g1, g1, 0)]))

    def quiver_pair(n, r, u, v):
        pa = _linear_quiver(F5, n, r)
        A = pa.algebra
        return (_char_module(A, "right", pa.vertex_index[str(u)]),
                _char_module(A, "left", pa.vertex_index[str(v)]))

    # Tor_i(k, k) over the dual numbers is one-dimensional in every degree
    return [
        ("tor:dual:kk:i5", lambda: dual_pair(F5), 5, [1] * 6),
        ("Q:tor:dual:kk:i4", lambda: dual_pair(Q), 4, [1] * 5),
        ("tor:tri:AB:i2", lambda: tri_pair("A", "B"), 2, None),
        ("tor:tri:BA:i2", lambda: tri_pair("B", "A"), 2, None),
        ("tor:tri:BB:i2", lambda: tri_pair("B", "B"), 2, None),
        ("tor:cov:m2n2:i4", lambda: cov_pair(2, 2), 4, None),
        ("tor:cov:m3n2:i3", lambda: cov_pair(3, 2), 3, None),
        ("tor:quiver:A3r2:S1S3:i2", lambda: quiver_pair(3, 2, 1, 3), 2, None),
    ]


def resolve_ops(seed, workdir):
    from injgen import homology
    from injgen.field import QQ, PrimeField
    F5 = PrimeField(5)
    ops = []
    for name, field, build, cutoff, finite in _pd_specs(F5, QQ):
        expected = ("finite", finite) if finite is not None else ("atLeast", cutoff)

        def run(build=build, cutoff=cutoff):
            M = build()
            return M.dim, homology.resolution_report(M, cutoff)

        def check(res, field=field, expected=expected):
            dim, rep = res
            check_resolution(rep, dim, expected, field)
            return True

        ops.append(Op(f"pd:{name}", run, check))
    for name, build, imax, expected in _tor_specs(F5, QQ):
        # each side gets fresh modules, so neither reuses the other's caches
        def run(build=build, imax=imax):
            X, Y = build()
            first = homology.tor(X, Y, imax, resolve_side="first")
            X, Y = build()
            return first, homology.tor(X, Y, imax, resolve_side="second")

        def check(res, expected=expected):
            check_tor(res[0], res[1], expected)
            return True

        ops.append(Op(name, run, check))
    random.Random(seed).shuffle(ops)
    return ops


# -- zoo -------------------------------------------------------------------------

# Random instances from injgen.samples, drawn per slot until their shape
# matches the slot's stratum: (family, dim A, group order, dim M) for the
# covering round trips, (window exponent, family, dim A) for the tensor
# formula, and for Tor ((family, dim A[, vertices of a path algebra]),
# shape of X, shape of Y), where the shape of a module is (dim M, dims of
# M e over the basis idempotents e, dim M rad A), computed from the action
# tables with the benchmark's own elimination.  The seed moves the
# gradings, twists and relations inside each stratum, while the strata
# fix the size profile, so a pass costs about the same for every seed.
# Tor fixes the module shapes because they decide the size of the free
# covers and so of every projectivity system: with only the dimensions
# fixed, about one seed in five drew a rarer module over a 4-dim path
# algebra (4 generators, or dimension vector (2, 0, 2)) that took up to
# 0.26 s and 24 MB more than the rest of the pass, so peak_rss_mb jumped
# between 38 and 62 MB from seed to seed.  The caps keep every instance small: uncapped, one
# Tor instance took 100 s and 5 GB.

COVER_STRATA = [
    ("group", 3, 3, 3), ("group", 4, 4, 4), ("group", 5, 5, 5), ("group", 6, 6, 6),
    ("trunc", 3, 4, 3), ("trunc", 4, 4, 4), ("trunc", 2, 3, 2), ("trunc", 3, 2, 3),
    ("path", 4, 4, 4), ("path", 4, 5, 4), ("path", 5, 4, 5), ("path", 3, 4, 3),
    ("prod", 3, 4, 3), ("prod", 4, 2, 4), ("prod", 2, 4, 2), ("prod", 4, 3, 4),
]
TENSOR_STRATA = [(1, "trunc", 1), (1, "trunc", 2), (2, "trunc", 1), (2, "trunc", 2),
                 (2, "path", 3)]
TOR_STRATA = [
    (("path", 4, 2), (4, (1, 3), 2), (4, (3, 1), 2)),
    (("path", 4, 3), (4, (1, 1, 2), 1), (4, (2, 1, 1), 1)),
    (("path", 3), (3, (1, 2), 1), (3, (2, 1), 1)),
    (("path", 3), (3, (1, 2), 1), (6, (4, 2), 2)),
    (("path", 3), (6, (2, 4), 2), (3, (2, 1), 1)),
    (("group", 4), (4, (), 0), (4, (), 0)),
    (("group", 3), (3, (), 0), (3, (), 0)),
    (("group", 4), (4, (), 0), (8, (), 0)),
    (("trunc", 2), (2, (), 1), (2, (), 1)),
    (("trunc", 2), (2, (), 1), (4, (), 2)),
    (("trunc", 4), (4, (), 3), (4, (), 3)),
    (("trunc", 3), (3, (), 2), (6, (), 4)),
    (("prod", 2), (2, (1, 1), 0), (2, (1, 1), 0)),
    (("prod", 3), (3, (1, 1, 1), 0), (3, (1, 1, 1), 0)),
    (("prod", 1), (2, (2,), 0), (1, (1,), 0)),
    (("prod", 2), (4, (2, 2), 0), (2, (1, 1), 0)),
]
ZOO_ROUNDS = {"cover": 8, "tensor": 12, "tor": 8}
ZOO_MAX_TRIES = 20000
ZOO_MODULE_TRIES = 100
ZOO_TOR_DEPTH = 1


def family(A):
    head = A.labels[0]
    if head == "1":
        return "trunc"
    if head == "e1":
        return "prod"
    return "path" if head.startswith("e_") else "group"


def _draw(rng, make, accept, tries=ZOO_MAX_TRIES):
    """(rng state, object) such that make() from that state is accepted;
    replaying the state rebuilds the same object.  None if no draw within
    `tries` is."""
    for _ in range(tries):
        state = rng.getstate()
        obj = make(rng)
        if accept(obj):
            return state, obj
    return None


class Recipe:
    """rng states for an algebra and then each module over it."""

    def __init__(self, make_algebra, algebra_state, module_makers, module_states):
        self.make_algebra = make_algebra
        self.algebra_state = algebra_state
        self.module_makers = module_makers
        self.module_states = module_states

    def build(self):
        rng = random.Random()
        rng.setstate(self.algebra_state)
        A = self.make_algebra(rng)
        mods = []
        for make, state in zip(self.module_makers, self.module_states):
            rng.setstate(state)
            mods.append(make(A, rng))
        return (A, *mods)


def _recipe(key, make_algebra, algebra_shape, algebra_target, module_makers,
            module_targets, module_shape):
    """algebra_target is a prefix of algebra_shape(A).  An algebra over
    which some module target is not drawn within ZOO_MODULE_TRIES tries is
    replaced by the next draw."""
    rng = random.Random(key)
    for _ in range(ZOO_MAX_TRIES):
        a_state, A = _sample(rng, make_algebra,
                             lambda A: algebra_shape(A)[:len(algebra_target)],
                             algebra_target)
        states = []
        for make, target in zip(module_makers, module_targets):
            drawn = _draw(rng, lambda r, make=make: make(A, r),
                          lambda M, target=target: module_shape(M, target) == target,
                          ZOO_MODULE_TRIES)
            if drawn is None:
                break
            states.append(drawn[0])
        else:
            return Recipe(make_algebra, a_state, module_makers, states)
    raise RuntimeError(f"no sample of shape {algebra_target}, {module_targets}")


def _sample(rng, make, shape, target):
    drawn = _draw(rng, make, lambda obj: shape(obj) == target)
    if drawn is None:
        raise RuntimeError(f"no sample of shape {target}")
    return drawn


def _family_dim_order(A):
    return family(A), A.dim, A.group.order


def _family_dim_vertices(A):
    # a 4-dim path algebra has 2 vertices (two arrows) or 3 (one arrow); a
    # module shape names a dimension vector with one entry per vertex, so
    # fixing the count here saves drawing modules that cannot match
    return family(A), A.dim, sum(1 for label in A.labels if label.startswith("e_"))


def _dim(M, target):
    return M.dim


def _module_shape(M, target):
    """(dim M, dims of M e over the idempotent basis elements e, dim M rad A);
    just (dim M,) when the dimension already misses the target.  Path and
    product algebras have idempotent basis elements; the radical is
    spanned by the paths of positive length and by the positive powers of
    x, and it is zero in F_5 group algebras of order at most 4, which are
    semisimple."""
    if M.dim != target[0]:
        return (M.dim,)
    A = M.algebra
    fam = family(A)
    idempotents = [j for j, label in enumerate(A.labels)
                   if fam in ("path", "prod") and label.startswith("e")]
    radical = [j for j, label in enumerate(A.labels)
               if (fam == "path" and not label.startswith("e"))
               or (fam == "trunc" and label != "1")]

    def image(js):
        return [[M.action[i][j].get(k, 0) for k in range(M.dim)]
                for j in js for i in range(M.dim)]

    return (M.dim, tuple(rank(image([j]), M.field) for j in idempotents),
            rank(image(radical), M.field))


def _algebra_maker(max_dim, max_group):
    def make(rng):
        from injgen.field import PrimeField
        from injgen.samples import random_graded_algebra
        return random_graded_algebra(PrimeField(5), rng, max_dim=max_dim,
                                     max_group=max_group)
    return make


def _graded_module(A, rng):
    from injgen.samples import random_graded_module
    return random_graded_module(A, rng)


def _right_module(A, rng):
    from injgen.samples import random_module
    return random_module(A, rng, "right")


def _left_module(A, rng):
    from injgen.samples import random_module
    return random_module(A, rng, "left")


def _make_tensor(rng, n):
    from injgen.field import PrimeField
    from injgen.samples import random_upper_half_zero_algebra
    return random_upper_half_zero_algebra(PrimeField(5), rng, n)


def run_cover_round_trip(A, M):
    from injgen.constructions import (covering_module, covering_module_inverse,
                                      covering_ring)
    from injgen.homs import find_isomorphism
    cov = covering_ring(A)
    back = covering_module_inverse(covering_module(M, cov), cov)
    rep = find_isomorphism(M, back)
    return cov.algebra.dim, A.group.order * A.dim, rep.found, rep.conclusive


def check_cover_round_trip(res):
    dim, law, found, conclusive = res
    require(dim == law, f"covering ring has dim {dim}, expected |G| dim A = {law}")
    require(found and conclusive, "round trip found no isomorphism back")
    return True


def run_tensor_formula(A, pick):
    from injgen.algebra import regular_module
    from injgen.constructions import (covering_ring, regular_right_tuple,
                                      split_covering)
    from injgen.homology import tensor_formula_check
    ctx = split_covering(covering_ring(A))
    lt = (ctx.T_A, ctx.T_B, ctx.Z_A, ctx.Z_B)[pick]
    corner = ctx.A if pick in (0, 2) else ctx.B
    rep = tensor_formula_check(ctx, regular_right_tuple(ctx),
                               lt(regular_module(corner, "left")))
    return rep.ok, rep.details["quotient_dim"], rep.details["direct_dim"]


def check_tensor_formula(res):
    ok, qdim, ddim = res
    require(ok is True and qdim == ddim,
            f"tensor formula: ok={ok}, quotient {qdim} vs direct {ddim}")
    return True


def run_tor_sides(recipe):
    from injgen.homology import tor
    _, X, Y = recipe.build()
    first = tor(X, Y, ZOO_TOR_DEPTH, resolve_side="first")
    _, X, Y = recipe.build()
    return first, tor(X, Y, ZOO_TOR_DEPTH, resolve_side="second")


def check_tor_sides(res):
    check_tor(res[0], res[1])
    return True


def zoo_ops(seed, workdir):
    ops = []
    cover_alg = _algebra_maker(6, 6)
    tor_alg = _algebra_maker(4, 4)
    for rnd in range(ZOO_ROUNDS["cover"]):
        for i, (fam, dim, order, mdim) in enumerate(COVER_STRATA):
            r = _recipe(f"{seed}:cover:{rnd}:{i}", cover_alg, _family_dim_order,
                        (fam, dim, order), [_graded_module], [mdim], _dim)
            ops.append(Op(f"cover:{rnd}:{fam}-{dim}-{order}-{mdim}",
                          lambda r=r: run_cover_round_trip(*r.build()),
                          check_cover_round_trip))
    for rnd in range(ZOO_ROUNDS["tensor"]):
        for i, (n, fam, dim) in enumerate(TENSOR_STRATA):
            make = lambda rng, n=n: _make_tensor(rng, n)
            state, A = _sample(random.Random(f"{seed}:tensor:{rnd}:{i}"), make,
                               lambda A: (family(A), A.dim), (fam, dim))
            pick = (rnd + i) % 4

            def run(state=state, make=make, pick=pick):
                rng = random.Random()
                rng.setstate(state)
                return run_tensor_formula(make(rng), pick)

            ops.append(Op(f"tensor:{rnd}:{n}-{fam}-{dim}-{pick}", run,
                          check_tensor_formula))
    for rnd in range(ZOO_ROUNDS["tor"]):
        for i, (alg, xshape, yshape) in enumerate(TOR_STRATA):
            r = _recipe(f"{seed}:tor:{rnd}:{i}", tor_alg, _family_dim_vertices, alg,
                        [_right_module, _left_module], [xshape, yshape],
                        _module_shape)
            ops.append(Op(f"tor:{rnd}:{'-'.join(map(str, alg))}-{xshape[0]}-{yshape[0]}",
                          lambda r=r: run_tor_sides(r), check_tor_sides))
    return ops
