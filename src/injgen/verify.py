"""Quantitative checks of the toolkit's structural identities.

Every check runs on the bundled corpus and returns a CheckReport; the
suite is what the command line exposes as verify-theorems.  Checks are
independent and deterministic given the seed.
"""

from __future__ import annotations

from .algebra import direct_sum, dual, regular_module, twist
from .bundled import corpus_docs
from .constructions import (Bicharacter, covering_module,
                            covering_module_inverse, covering_ring,
                            morita_ring, reconstruct, regular_right_tuple,
                            split_covering, tensor_product_algebra, tensor_ring,
                            trivial_extension, twisted_module, twisted_tensor)
from .homology import (CheckReport, cleft_vanishing_check,
                       morita_corner_pd, power_block_law_check,
                       tensor_formula_check)
from .homs import find_isomorphism
from .serialize import canonical_bytes, content_hash, from_json, to_json


class _Corpus:
    def __init__(self):
        self.docs = dict(corpus_docs())
        self._objs = {}

    def doc(self, label):
        return self.docs[label]

    def obj(self, label):
        if label not in self._objs:
            self._objs[label] = from_json(self.docs[label])
        return self._objs[label]

    def built(self, label):
        """The construction of a corpus object, re-run from its provenance."""
        by_hash = {content_hash(doc): lab for lab, doc in self.docs.items()}
        return reconstruct(self.docs[label]["provenance"],
                           lambda h: self.obj(by_hash[h]))


def _check_zero_context(c, seed):
    ctx4 = split_covering(covering_ring(c.obj("kx2-z4")))
    ctxz = split_covering(covering_ring(c.obj("kz2")))
    upper_ok = ctx4.is_zero_context
    strongly_not = ctxz.is_zero_context
    ok = upper_ok and not strongly_not
    return CheckReport("zero-context", ok, {
        "upper_half_zero_context": upper_ok,
        "group_algebra_context_zero": strongly_not,
    })


def _check_covering_roundtrip(c, seed):
    rows = []
    ok = True
    for label in ("kz2", "dualnumbers-z2", "kx2-z4"):
        R = c.obj(label)
        cov = covering_ring(R)
        gens = [regular_module(R, "right"),
                twist(regular_module(R, "right"), (1,))]
        for tag, M in zip(("regular", "shifted"), gens):
            back = covering_module_inverse(covering_module(M, cov), cov)
            same_dims = M.dims_by_degree() == back.dims_by_degree()
            iso = find_isomorphism(M, back, graded=True, seed=seed)
            good = same_dims and iso.conclusive and iso.found
            ok = ok and good
            rows.append({"ring": label, "module": tag,
                         "dims_match": same_dims,
                         "isomorphic": bool(iso.found),
                         "conclusive": iso.conclusive})
    return CheckReport("covering-roundtrip", ok, {"cases": rows})


def _rebuild_morita_demo(c):
    return morita_ring(c.obj("kxk"), c.obj("kxk"), c.obj("kxk-zero-bim"),
                       c.obj("kxk-arrow"))


def _check_tensor_formula(c, seed):
    rows = []
    ok = True

    def run(ctx, name, lt):
        nonlocal ok
        rep = tensor_formula_check(ctx, regular_right_tuple(ctx), lt)
        good = rep.ok is True
        ok = ok and good
        rows.append({"case": name, "ok": rep.ok, "details": rep.details})

    ctx0 = _rebuild_morita_demo(c)
    run(ctx0, "zero-context Z_A", ctx0.Z_A(regular_module(ctx0.A, "left")))
    run(ctx0, "zero-context T_B", ctx0.T_B(regular_module(ctx0.B, "left")))
    ctxs = split_covering(covering_ring(c.obj("kx2-z4")))
    run(ctxs, "split T_A", ctxs.T_A(regular_module(ctxs.A, "left")))
    run(ctxs, "split T_B", ctxs.T_B(regular_module(ctxs.B, "left")))
    return CheckReport("tensor-formula", ok, {"cases": rows})


def _check_power_block_law(c, seed):
    reps = [
        ("two-point chain", power_block_law_check(c.obj("kxk"),
                                                  c.obj("kxk-arrow"))),
        ("three-point chain", power_block_law_check(c.obj("kxkxk"),
                                                    c.obj("a3-chain"))),
    ]
    ok = all(r.ok is True for _n, r in reps)
    return CheckReport("power-block-law", ok, {
        "cases": [{"case": n, "ok": r.ok, "dims": r.details["dims"],
                   "tor": r.details["tor"]["status"]} for n, r in reps]})


def _check_twisted_dual(c, seed):
    A = c.obj("kz2-f3")
    T = c.obj("twisted-f3")
    t = c.built("twisted-f3").args[0]
    rows = []
    ok = True

    def iso_case(name, M, N):
        nonlocal ok
        rep = find_isomorphism(M, N, graded=True, seed=seed)
        good = rep.conclusive and rep.found
        ok = ok and good
        rows.append({"case": name, "isomorphic": bool(rep.found),
                     "conclusive": rep.conclusive})

    M1 = regular_module(A, "right")
    M2 = twist(M1, (1,))
    N = regular_module(A, "right")
    both, _ = direct_sum([M1, M2])
    lhs = twisted_module(both, N, t, T)
    pieces, _ = direct_sum([twisted_module(M1, N, t, T),
                            twisted_module(M2, N, t, T)])
    iso_case("additivity", lhs, pieces)

    DT = dual(regular_module(T, "left"))
    DD = twisted_module(dual(regular_module(A, "left")),
                        dual(regular_module(A, "left")), t, T)
    iso_case("dual of product", DT, DD)

    sh_lhs = twisted_module(twist(M1, (1,)), twist(N, (1,)), t, T)
    sh_rhs = twist(twisted_module(M1, N, t, T), (1, 1))
    iso_case("twist compatibility", sh_lhs, sh_rhs)
    return CheckReport("twisted-dual", ok, {"cases": rows})


def _check_degeneracy(c, seed):
    R, W = c.obj("kxk"), c.obj("kxk-arrow")
    alg = tensor_ring(R, W, 2).algebra
    # R ⋉ W = T_R(W)/W^⊗2, built through the tensor tower; W ⊗ W = 0 here,
    # so only the labels and the grading differ
    triv = trivial_extension(R, W).algebra
    triv_eq = triv.mult == alg.mult and triv.unit == alg.unit

    A = c.obj("kz2-f3")
    ones = Bicharacter.trivial(A.field, A.group, A.group)
    tw = canonical_bytes(to_json(twisted_tensor(A, A, ones)))
    plain = canonical_bytes(to_json(tensor_product_algebra(A, A)))
    twist_eq = tw == plain

    d0 = [i for i, d in enumerate(alg.degree) if d == alg.group.zero()]
    d1 = [i for i, d in enumerate(alg.degree) if d == (1,)]
    base_eq = (len(d0) == R.dim and alg.unit[:R.dim] == R.unit and all(
        alg.mult[i][j] == R.mult[i][j] for i in d0 for j in d0))
    off = len(d0)
    deg1_eq = (len(d1) == W.dim and all(
        alg.mult[off + i][j] == {off + k: v
                                 for k, v in W.right_action[i][j].items()}
        for i in range(W.dim) for j in d0) and all(
        alg.mult[j][off + i] == {off + k: v
                                 for k, v in W.left_action[i][j].items()}
        for i in range(W.dim) for j in d0))

    ok = triv_eq and twist_eq and base_eq and deg1_eq
    return CheckReport("degeneracy", ok, {
        "trivial_extension_equals_truncated_tensor_ring": triv_eq,
        "trivial_twist_equals_plain_tensor": twist_eq,
        "tensor_ring_degree0_is_base": base_eq,
        "tensor_ring_degree1_is_bimodule": deg1_eq,
    })


def _check_corner_pd(c, seed):
    ctx = _rebuild_morita_demo(c)
    rep = morita_corner_pd(ctx)
    verdicts = rep.details["verdicts"]
    bounded = all(v.is_finite and v.value <= 6 for v in verdicts.values())
    ok = (rep.ok is True) and bounded
    return CheckReport("corner-pd", ok, {
        "verdicts": {k: v.to_json() for k, v in verdicts.items()},
        "bounded_by_6": bounded,
    })


def _check_cleft_vanishing(c, seed):
    cases = [
        ("pairing extension", cleft_vanishing_check(c.built("theta-a3").data)),
        ("square-zero extension", cleft_vanishing_check(
            trivial_extension(c.obj("kxk"), c.obj("kxk-arrow")))),
    ]
    ok = all(r.ok is True for _n, r in cases)
    return CheckReport("cleft-vanishing", ok, {
        "cases": [{"case": n, "ok": r.ok, "bound": r.details["bound"],
                   "violations": r.details["violations"]} for n, r in cases]})


CHECKS = [
    ("zero-context", _check_zero_context),
    ("covering-roundtrip", _check_covering_roundtrip),
    ("tensor-formula", _check_tensor_formula),
    ("power-block-law", _check_power_block_law),
    ("twisted-dual", _check_twisted_dual),
    ("degeneracy", _check_degeneracy),
    ("corner-pd", _check_corner_pd),
    ("cleft-vanishing", _check_cleft_vanishing),
]


def check_names():
    return [name for name, _f in CHECKS]


def run_suite(only=None, seed=17):
    """Run the named checks (all by default); returns CheckReports."""
    wanted = set(only) if only else None
    if wanted:
        unknown = wanted - set(check_names())
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
    corpus = _Corpus()
    out = []
    for name, f in CHECKS:
        if wanted and name not in wanted:
            continue
        out.append(f(corpus, seed))
    return out
