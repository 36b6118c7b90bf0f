import copy
import json

import pytest

from injgen.algebra import GradedAlgebra
from injgen.bundled import corpus_docs, load_corpus
from injgen.field import QQ, PrimeField
from injgen.groups import TRIVIAL_GROUP, FiniteAbelianGroup
from injgen.quiver import path_algebra
from injgen.reduction import (CONDITIONAL, ESTABLISHED, UNKNOWN, Env,
                              ReductionError, RULES, RULES_BY_ID, _GRADE,
                              derive, emit_certificate, validate_cert)
from injgen.registry import Registry
from injgen.samples import group_algebra, product_field_algebra

F5 = PrimeField(5)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    reg = Registry(tmp_path_factory.mktemp("store"))
    return reg, load_corpus(reg)


def matrix_algebra_2x2(field=F5):
    one, zero = field.one(), field.zero()
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    mult = [[{} for _ in range(4)] for _ in range(4)]
    for (i, j), r in idx.items():
        for (k, l), c in idx.items():
            if j == k:
                mult[r][c] = {idx[(i, l)]: one}
    return GradedAlgebra(field, TRIVIAL_GROUP, ["e11", "e12", "e21", "e22"],
                         [()] * 4, [one, zero, zero, one], mult)


# -- corpus derivations --------------------------------------------------------

# every bundled algebra is derivable; the root rule is pinned down because
# the rule order and edge enumeration are part of the contract
CORPUS_EXPECT = {
    "kxk": ("R-TEN", "backward"),
    "a2-tensor": ("R-TEN", "forward"),
    "triv-a2": ("R-THETA", "forward"),
    "morita-demo": ("R-TRI", "forward"),
    "kxkxk": ("BASE-COMM", "base"),
    "a3-graded": ("R-POSGR", "forward"),
    "a3-r0": ("BASE-COMM", "base"),
    "theta-a3": ("R-THETA", "forward"),
    "kz2": ("R-COV", "backward"),
    "kz2-cover": ("R-COV", "forward"),
    "dualnumbers-z2": ("R-COV", "backward"),
    "dualnumbers-cover": ("R-COV", "forward"),
    "kx2-z4": ("BASE-COMM", "base"),
    "kx3-z8": ("R-BEIL", "backward"),
    "beil-ext": ("R-BEIL", "forward"),
    "kz2-f3": ("R-STR", "backward"),
    "twisted-f3": ("R-STR", "backward"),
}


def test_every_corpus_algebra_establishes(corpus):
    reg, labels = corpus
    seen = {}
    for label, h in labels.items():
        if reg.entry(h)["kind"] != "algebra":
            continue
        tree = derive(reg, h)
        assert tree.status == ESTABLISHED, label
        seen[label] = (tree.step["rule"], tree.step["direction"])
    assert seen == CORPUS_EXPECT


def test_corpus_certificates_validate(corpus):
    reg, labels = corpus
    for label in ("a2-tensor", "theta-a3", "kz2", "twisted-f3"):
        cert = emit_certificate(derive(reg, labels[label]))
        ok, status, problems = validate_cert(cert, reg)
        assert ok and status == ESTABLISHED and problems == [], label


def test_derive_accepts_label_and_prefix(corpus):
    reg, labels = corpus
    h = labels["kz2"]
    assert derive(reg, "kz2").status == ESTABLISHED
    assert derive(reg, h[:10]).claim["hash"] == h


def test_derive_rejects_non_algebra(corpus):
    reg, labels = corpus
    with pytest.raises(ReductionError):
        derive(reg, labels["kxk-arrow"])


def test_deg0_registered_as_side_effect(tmp_path):
    # a store holding only a3-graded: its degree-zero part has no label yet
    reg = Registry(tmp_path / "s")
    h = reg.store(dict(corpus_docs())["a3-graded"], label="a3-graded")
    derive(reg, h)
    hits = reg.derived_from(h, "degree_zero_subalgebra")
    assert len(hits) == 1
    assert hits[0][1]["label"].endswith(":deg0")


def test_derived_label_never_replaces_a_user_label(tmp_path):
    reg = Registry(tmp_path / "s")
    labels = load_corpus(reg)
    derive(reg, "a3-graded")
    assert reg.resolve("a3-r0") == labels["a3-r0"]
    hits = reg.derived_from(labels["a3-graded"], "degree_zero_subalgebra")
    assert [e["label"] for _, e in hits] == ["a3-r0"]


# -- statuses below Established ------------------------------------------------


def test_bare_noncommutative_algebra_is_unknown(tmp_path):
    reg = Registry(tmp_path / "s")
    A = path_algebra(F5, ["1", "2"], [("a", "1", "2")]).algebra
    h = reg.store_object(A, label="ka2")
    tree = derive(reg, h)
    assert tree.status == UNKNOWN and tree.step is None


def test_matrix_algebra_established_by_self_injectivity(tmp_path):
    reg = Registry(tmp_path / "s")
    h = reg.store_object(matrix_algebra_2x2(), label="m2")
    tree = derive(reg, h)
    assert tree.status == ESTABLISHED
    assert tree.step["rule"] == "BASE-SELFINJ"


def test_starved_cutoff_gives_conditional(corpus):
    # nilpotency can't be confirmed at cutoff 1, so the tensor-ring edge
    # survives only with inconclusive hypotheses
    reg, labels = corpus
    tree = derive(reg, labels["a2-tensor"], nil_cutoff=1)
    assert tree.status == CONDITIONAL
    assert tree.step["rule"] == "R-TEN"
    statuses = {h["name"]: h["status"] for h in tree.step["hypotheses"]}
    assert statuses["bimodule-nilpotent"] == "inconclusive"


def test_cutoff_monotonicity(corpus):
    reg, labels = corpus
    for label, h in labels.items():
        if reg.entry(h)["kind"] != "algebra":
            continue
        full = derive(reg, h).status
        half = derive(reg, h, pd_cutoff=12, nil_cutoff=8).status
        assert _GRADE[half] <= _GRADE[full], label
        assert half in (ESTABLISHED, CONDITIONAL, UNKNOWN)


SEMISIMPLE = {
    "M2(F5)": lambda: matrix_algebra_2x2(),
    "M2(Q)": lambda: matrix_algebra_2x2(QQ),
    "F5^3": lambda: product_field_algebra(F5, 3),
    "Q^3": lambda: product_field_algebra(QQ, 3),
    "F5[Z3]": lambda: group_algebra(F5, FiniteAbelianGroup([3])),
    "F5[Z2xZ2]": lambda: group_algebra(F5, FiniteAbelianGroup([2, 2])),
    "Q[Z4]": lambda: group_algebra(QQ, FiniteAbelianGroup([4])),
    "F2[Z3]": lambda: group_algebra(PrimeField(2), FiniteAbelianGroup([3])),
}


@pytest.mark.parametrize("name", sorted(SEMISIMPLE))
def test_semisimple_algebras_are_self_injective(tmp_path, name):
    # a semisimple algebra is self-injective, so BASE-SELFINJ covers it
    reg = Registry(tmp_path / "s")
    h = reg.store_object(SEMISIMPLE[name](), label=name)
    edges = RULES_BY_ID["BASE-SELFINJ"].edges(Env(reg), h)
    assert [y["status"] for e in edges for y in e.hypotheses] == ["verified"]


def test_refuted_hypothesis_skips_edge_not_contrapositive(tmp_path):
    # noncommutative input: BASE-COMM is refuted and simply contributes
    # nothing; the overall answer comes from elsewhere
    reg = Registry(tmp_path / "s")
    h = reg.store_object(matrix_algebra_2x2(), label="m2")
    env = Env(reg)
    comm = RULES_BY_ID["BASE-COMM"].edges(env, h)
    assert comm[0].refuted
    tree = derive(reg, h)
    assert tree.status == ESTABLISHED and tree.step["rule"] != "BASE-COMM"


def test_rule_order_is_fixed():
    assert [r.rule_id for r in RULES] == [
        "R-COV", "R-STR", "R-TRI", "R-MOR", "R-BEIL", "R-TEN", "R-THETA",
        "R-POSGR", "R-TWIST", "BASE-COMM", "BASE-SELFINJ"]


def test_depth_limit_blocks_reduction_chains(corpus):
    # base facts still fire at depth 0, but anything needing a premise
    # cannot recurse
    reg, labels = corpus
    assert derive(reg, labels["kz2"], max_depth=0).status == ESTABLISHED
    assert derive(reg, labels["a2-tensor"], max_depth=0).status == UNKNOWN
    assert derive(reg, labels["a2-tensor"], max_depth=1).status == ESTABLISHED


# -- certificate validation ----------------------------------------------------


def sample_cert(corpus):
    reg, labels = corpus
    return emit_certificate(derive(reg, labels["a2-tensor"])), reg


def test_validator_rejects_wrong_rule(corpus):
    cert, reg = sample_cert(corpus)
    bad = copy.deepcopy(cert)
    bad["steps"][0]["rule"] = "R-COV"
    ok, status, problems = validate_cert(bad, reg)
    assert not ok and problems


def test_validator_rejects_a_retired_rule(tmp_path):
    reg = Registry(tmp_path / "s")
    h = reg.store_object(matrix_algebra_2x2(), label="m2")
    cert = emit_certificate(derive(reg, h))
    assert cert["steps"][0]["rule"] == "BASE-SELFINJ"
    cert["steps"][0]["rule"] = "BASE-SS"
    ok, status, problems = validate_cert(cert, reg)
    assert not ok and status == UNKNOWN
    assert problems == ["root: unknown rule 'BASE-SS'"]


def test_validator_rejects_inflated_status(corpus):
    cert, reg = sample_cert(corpus)
    bad = copy.deepcopy(cert)
    # claim Established from a node whose recomputation says otherwise
    bad["steps"][0]["hypotheses"] = [
        dict(y, status="verified") for y in bad["steps"][0]["hypotheses"]]
    bad["steps"][0]["premises"][0]["status"] = ESTABLISHED
    bad["steps"][0]["premises"][0]["steps"] = [{
        "rule": "BASE-SELFINJ", "direction": "base", "premises": [],
        "hypotheses": [{"name": "self-injective", "status": "verified",
                        "evidence": "forged"}]}]
    ok, status, problems = validate_cert(bad, reg)
    assert not ok


def test_validator_rejects_unknown_claim_hash(corpus):
    cert, reg = sample_cert(corpus)
    bad = copy.deepcopy(cert)
    bad["claim"]["hash"] = "0" * 64
    ok, status, problems = validate_cert(bad, reg)
    assert not ok and any("store" in p or "hash" in p for p in problems)


def test_validator_rejects_stepless_established(corpus):
    cert, reg = sample_cert(corpus)
    bad = copy.deepcopy(cert)
    bad["steps"] = []
    ok, status, problems = validate_cert(bad, reg)
    assert not ok and status == UNKNOWN


def test_validator_accepts_conditional_cert_at_low_cutoff(corpus):
    reg, labels = corpus
    cert = emit_certificate(derive(reg, labels["a2-tensor"], nil_cutoff=1))
    ok, status, problems = validate_cert(cert, reg, nil_cutoff=1)
    assert ok and status == CONDITIONAL
    # revalidating with generous cutoffs upgrades the hypothesis, which is
    # fine: recomputed >= recorded is the rule
    ok, status, problems = validate_cert(cert, reg)
    assert ok


@pytest.mark.parametrize("label", ["a3-graded", "theta-a3"])
def test_certificate_validates_at_its_recorded_cutoffs(corpus, label):
    reg, labels = corpus
    cert = json.loads(json.dumps(emit_certificate(
        derive(reg, labels[label], pd_cutoff=1, nil_cutoff=1))))
    assert cert["cutoffs"] == {"pd_cutoff": 1, "nil_cutoff": 1}
    assert cert["status"] == CONDITIONAL
    # no cutoffs given: recomputed at the recorded ones, so the
    # inconclusive nilpotency evidence matches instead of moving
    ok, status, problems = validate_cert(cert, reg)
    assert ok and status == CONDITIONAL and problems == []
    # cutoffs given: recomputed at those, here upgrading the hypotheses
    ok, status, problems = validate_cert(cert, reg, pd_cutoff=24, nil_cutoff=16)
    assert ok and status == ESTABLISHED


@pytest.mark.parametrize("cutoffs", [{"pd_cutoff": 1, "nil_cutoff": 2},
                                     {"pd_cutoff": 1},
                                     {"pd_cutoff": 1, "nil_cutoff": 0},
                                     {"pd_cutoff": 1, "nil_cutoff": "1"},
                                     {"pd_cutoff": 1, "nil_cutoff": True},
                                     [1, 1]])
def test_validator_rejects_forged_cutoffs(corpus, cutoffs):
    reg, labels = corpus
    cert = emit_certificate(derive(reg, labels["a3-graded"], pd_cutoff=1,
                                   nil_cutoff=1))
    bad = dict(cert, cutoffs=cutoffs)
    ok, status, problems = validate_cert(bad, reg)
    assert not ok and problems


@pytest.mark.parametrize("forged_status", ["inconclusive", "refuted"])
def test_validator_rejects_a_hypothesis_recorded_below_its_status(corpus, forged_status):
    cert, reg = sample_cert(corpus)
    bad = json.loads(json.dumps(cert))
    rec = next(y for y in bad["steps"][0]["hypotheses"]
               if y["name"] == "construction-integrity")
    rec.update(status=forged_status, evidence={"forged": 1})
    ok, status, problems = validate_cert(bad, reg)
    assert not ok and problems
    assert any("'construction-integrity'" in p for p in problems), problems
    # not even at other cutoffs: the integrity check reads none, so its
    # status cannot rise there
    assert cert["cutoffs"] == {"pd_cutoff": 24, "nil_cutoff": 16}
    ok, _, problems = validate_cert(bad, reg, pd_cutoff=25, nil_cutoff=17)
    assert not ok and problems
    assert any("'construction-integrity'" in p for p in problems), problems


def test_validator_roundtrips_json(corpus):
    cert, reg = sample_cert(corpus)
    again = json.loads(json.dumps(cert))
    ok, status, problems = validate_cert(again, reg)
    assert ok and status == ESTABLISHED


def _evidence_fields(value, path=()):
    """Paths to every scalar and every empty container inside evidence."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else None)
    if not items:
        yield path
        return
    for k, v in items:
        yield from _evidence_fields(v, path + (k,))


def _forge(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "-forged"
    if isinstance(value, list):
        return value + [0]
    if isinstance(value, dict):
        return dict(value, forged=0)
    return 0


def _hypothesis_records(node):
    for step in node.get("steps", []):
        yield from step["hypotheses"]
        for p in step["premises"]:
            yield from _hypothesis_records(p)


@pytest.mark.parametrize("label", sorted(CORPUS_EXPECT))
def test_validator_rejects_every_forged_evidence_field(corpus, label):
    reg, labels = corpus
    cert = json.loads(json.dumps(emit_certificate(derive(reg, labels[label]))))
    assert validate_cert(cert, reg)[0]
    forged_fields = 0
    for k, rec in enumerate(_hypothesis_records(cert)):
        for path in _evidence_fields(rec["evidence"]):
            bad = copy.deepcopy(cert)
            target = list(_hypothesis_records(bad))[k]
            if not path:
                target["evidence"] = _forge(target["evidence"])
            else:
                holder = target["evidence"]
                for key in path[:-1]:
                    holder = holder[key]
                holder[path[-1]] = _forge(holder[path[-1]])
            ok, _status, problems = validate_cert(bad, reg)
            assert not ok and problems, (label, rec["name"], path)
            forged_fields += 1
    assert forged_fields > 0


def _nodes(node):
    yield node
    for step in node.get("steps", []):
        for p in step["premises"]:
            yield from _nodes(p)


@pytest.mark.parametrize("label", sorted(CORPUS_EXPECT))
def test_validator_rejects_every_status_off_the_ladder(corpus, label):
    # "Verified" is off both ladders: statuses are compared as written
    reg, labels = corpus
    cert = json.loads(json.dumps(emit_certificate(derive(reg, labels[label]))))
    n_hyps = len(list(_hypothesis_records(cert)))
    n_nodes = len(list(_nodes(cert)))
    assert n_hyps and n_nodes
    for forged in ("banana", None, "Verified"):
        for records, count in ((_hypothesis_records, n_hyps), (_nodes, n_nodes)):
            for k in range(count):
                bad = copy.deepcopy(cert)
                list(records(bad))[k]["status"] = forged
                ok, status, problems = validate_cert(bad, reg)
                assert not ok and status == UNKNOWN, (label, records, k, forged)
                assert any(repr(forged) in p for p in problems), problems


def _located_steps(node, where="root"):
    """(where, step) for every step, where the node's place as the
    validator names it."""
    for step in node.get("steps", []):
        yield where, step
        for i, p in enumerate(step["premises"]):
            yield from _located_steps(p, f"{where}.{i}")


HYPOTHESIS_EDITS = {"emptied": lambda hyps: [], "first dropped": lambda hyps: hyps[1:],
                    "reversed": lambda hyps: hyps[::-1]}


def test_validator_rejects_dropped_or_reordered_hypotheses(corpus):
    """A step must record every hypothesis of its edge, in order: each
    corpus step with its hypotheses emptied, the first one dropped or
    their order reversed fails, naming the node."""
    reg, labels = corpus
    variants = 0
    for label in sorted(CORPUS_EXPECT):
        cert = json.loads(json.dumps(emit_certificate(derive(reg, labels[label]))))
        for k, (where, step) in enumerate(_located_steps(cert)):
            for how, edit in HYPOTHESIS_EDITS.items():
                if edit(step["hypotheses"]) == step["hypotheses"]:
                    continue
                bad = copy.deepcopy(cert)
                target = list(_located_steps(bad))[k][1]
                target["hypotheses"] = edit(target["hypotheses"])
                ok, status, problems = validate_cert(bad, reg)
                assert not ok and status == UNKNOWN, (label, where, how)
                assert any(p.startswith(f"{where}: hypotheses ") for p in problems), problems
                variants += 1
    assert variants == 92


def _set(path, value):
    def forge(cert):
        holder = cert
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
        return cert
    return forge


MALFORMED = [
    (_set(["status"], ["x"]), "root: status ['x']"),
    (_set(["steps"], "x"), "root: steps must be"),
    (_set(["steps", 0, "premises", 0], 5), "root.0: a node must be"),
    (_set(["claim"], 3), "root: a node must be"),
    (_set(["steps", 0, "hypotheses", 0], 7), "root: a step needs"),
    (_set(["steps", 0, "premises"], {"0": 5}), "root: a step needs"),
    (_set(["steps", 0, "rule"], ["R-TEN"]), "root: a step needs"),
    (_set(["steps", 0, "hypotheses", 0, "name"], ["x"]), "root: hypothesis ['x']"),
    (_set(["steps", 0, "premises", 0, "claim", "hash"], ["x"]),
     "root: rule R-TEN no longer yields this edge"),
    (_set(["claim", "hash"], {"x": 1}), "root: claim hash missing"),
    (lambda cert: [1], "root: a node must be"),
]


@pytest.mark.parametrize("forge,problem", MALFORMED,
                         ids=[problem for _, problem in MALFORMED])
def test_validator_reports_malformed_shapes(corpus, forge, problem):
    cert, reg = sample_cert(corpus)
    bad = forge(json.loads(json.dumps(cert)))
    ok, status, problems = validate_cert(bad, reg)
    assert not ok and status == UNKNOWN
    assert any(p.startswith(problem) for p in problems), problems
