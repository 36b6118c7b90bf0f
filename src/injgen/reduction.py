"""Derivation engine for the injective-generation property.

A claim names a stored algebra and asserts that injective modules
generate its derived category.  Rules connect a claim to premise claims,
guarded by machine-checkable hypotheses; provenance records in the
registry decide which rules can fire.  Every rule that leans on a stored
construction re-runs it through the provenance table in constructions
(once per derivation) and compares content hashes, so a certificate
really is re-derivable from the stored structure constants alone.  A
rule reads what it needs of a construction, such as whether a Morita
context's pairings vanish and the dimensions of its glueing bimodules,
from the rebuilt data and never from a recorded param.

Statuses form a ladder: Established needs every hypothesis verified and
every leaf a base fact; one inconclusive hypothesis anywhere drops the
grade to Refutation-free-but-Conditional, and nothing else does; anything
else is Unknown.  A refuted hypothesis only disqualifies the rule
application.  The engine never concludes a negative.
"""

from __future__ import annotations

import json

from .algebra import (AlgebraError, ConstructionError, component_bimodule,
                      degree_zero_subalgebra, dual, regular_module,
                      strongly_graded_check)
from .constructions import construct, reconstruct
from .homology import (DEFAULT_NIL_CUTOFF, DEFAULT_PD_CUTOFF, is_projective,
                       left_perfect_check, nilpotency_index,
                       projective_dimension)
from .registry import RegistryError
from .serialize import SerializeError, object_hash

ESTABLISHED = "Established"
CONDITIONAL = "Refutation-free-but-Conditional"
UNKNOWN = "Unknown"

_GRADE = {UNKNOWN: 0, CONDITIONAL: 1, ESTABLISHED: 2}
_HYP_GRADE = {"refuted": 0, "inconclusive": 1, "verified": 2}


class ReductionError(Exception):
    pass


def _hyp(name, status, evidence):
    if status not in _HYP_GRADE:
        raise ReductionError(f"bad hypothesis status {status!r}")
    return {"name": name, "status": status, "evidence": evidence}


def _pd_hyp(name, verdict):
    status = "verified" if verdict.is_finite else "inconclusive"
    return _hyp(name, status, {"pd": verdict.to_json()})


def _nil_hyp(name, verdict):
    status = "verified" if verdict.kind == "index" else "inconclusive"
    return _hyp(name, status, {"nilpotency": verdict.to_json()})


def _reads_cutoff(hyp):
    """Whether a hypothesis's verdict reads a cutoff: those built by
    _pd_hyp, _nil_hyp and _perfect_hyp, whose evidence holds a pd or a
    nilpotency verdict.  Only these may rise at other cutoffs."""
    return "pd" in hyp["evidence"] or "nilpotency" in hyp["evidence"]


def _perfect_hyp(name, report):
    status = {"LeftPerfect": "verified", "NotLeftPerfect": "refuted",
              "Inconclusive": "inconclusive"}[report.verdict]
    ev = {"verdict": report.verdict, "pd": report.pd.to_json(),
          "nilpotency": report.nilpotency.to_json()}
    if report.witness is not None:
        ev["witness"] = list(report.witness)
    if report.reason is not None:
        ev["reason"] = report.reason
    return _hyp(name, status, ev)


class Edge:
    """One candidate application of a rule at a fixed claim."""

    __slots__ = ("direction", "premises", "hypotheses")

    def __init__(self, direction, premises, hypotheses):
        self.direction = direction
        self.premises = list(premises)
        self.hypotheses = list(hypotheses)

    @property
    def refuted(self):
        return any(h["status"] == "refuted" for h in self.hypotheses)

    @property
    def grade_cap(self):
        if any(h["status"] == "inconclusive" for h in self.hypotheses):
            return _GRADE[CONDITIONAL]
        return _GRADE[ESTABLISHED]


class Env:
    """Registry access plus caches and cutoffs shared by one derivation."""

    def __init__(self, reg, pd_cutoff=DEFAULT_PD_CUTOFF,
                 nil_cutoff=DEFAULT_NIL_CUTOFF):
        self.reg = reg
        self.pd_cutoff = pd_cutoff
        self.nil_cutoff = nil_cutoff
        self._rebuilt = {}
        self._deg0 = {}

    def obj(self, h):
        return self.reg.load(h)

    def prov(self, h):
        return self.reg.entry(h).get("provenance") or {}

    def claim(self, h):
        return {"hash": h, "label": self.reg.label_of(h)}

    def deg0_of(self, h):
        """Hash of the degree-zero subalgebra, registering it if new.

        The derived label "<label>:deg0" goes only to an object that has no
        label yet: it never replaces a label the user gave.
        """
        if h not in self._deg0:
            built = construct("degree_zero_subalgebra", [self.obj(h)])
            sub, prov = built.obj, built.provenance([h])
            d0 = self.reg.store_object(sub, provenance=prov)
            if not self.reg.entry(d0).get("label"):
                self.reg.store_object(sub, label=self.reg.label_of(h) + ":deg0",
                                      provenance=prov)
            self._deg0[h] = d0
        return self._deg0[h]

    def rebuild(self, h):
        """Re-run the stored construction for h, once per derivation.

        Returns (built, err): the Built run, whose object's hash is not yet
        compared, or None with an error string.
        """
        if h not in self._rebuilt:
            try:
                self._rebuilt[h] = (reconstruct(self.prov(h), self.obj), None)
            except (AlgebraError, ConstructionError, SerializeError, KeyError,
                    IndexError, TypeError, ValueError) as e:
                self._rebuilt[h] = (None, f"{type(e).__name__}: {e}")
        return self._rebuilt[h]

    def zero_context(self, h):
        """The rebuilt context of h if h was recorded as a Morita context
        ring and both its pairings vanish; None otherwise."""
        if self.prov(h).get("construction") != "morita_ring":
            return None
        built, _err = self.rebuild(h)
        if built is None or not built.data.is_zero_context:
            return None
        return built.data

    def integrity_hyp(self, h):
        """The recorded construction of h, re-run, rebuilds h, and encoding
        the run reproduces the recorded params; where they differ the
        evidence also carries the params the run encodes."""
        built, err = self.rebuild(h)
        if err is not None:
            return _hyp("construction-integrity", "refuted", {"error": err})
        got = object_hash(built.obj)
        evidence = {"expected": h, "rebuilt": got}
        record = self.prov(h)
        params = built.provenance(record["inputs"]).get("params") or {}
        if params != (record.get("params") or {}):
            evidence["params"] = params
        status = "verified" if len(evidence) == 2 and got == h else "refuted"
        return _hyp("construction-integrity", status, evidence)


class Rule:
    rule_id = ""
    citation = ""

    def edges(self, env: Env, h: str):
        raise NotImplementedError


class CoveringRule(Rule):
    rule_id = "R-COV"
    citation = ("A ring graded by a finite abelian group and its covering "
                "ring have equivalent module theories, so injectives "
                "generate for one exactly when they do for the other.")

    def edges(self, env, h):
        out = []
        if env.prov(h).get("construction") == "covering_ring":
            out.append(Edge("forward", [env.prov(h)["inputs"][0]],
                            [env.integrity_hyp(h)]))
        for other, _e in env.reg.derived_from(h, "covering_ring"):
            out.append(Edge("backward", [other], [env.integrity_hyp(other)]))
        return out


class StronglyGradedRule(Rule):
    rule_id = "R-STR"
    citation = ("A ring strongly graded by a finite abelian group passes "
                "injective generation to and from its degree-zero subring.")

    def _strong_hyp(self, env, h):
        A = env.obj(h)
        if A.group.is_trivial:
            return None
        ok, failures = strongly_graded_check(A)
        ev = {"failures": [[list(g), list(k)] for g, k in failures[:8]],
              "failure_count": len(failures)}
        return _hyp("strongly-graded", "verified" if ok else "refuted", ev)

    def edges(self, env, h):
        out = []
        prov = env.prov(h)
        if prov.get("construction") == "degree_zero_subalgebra":
            parent = prov["inputs"][0]
            sh = self._strong_hyp(env, parent)
            if sh is not None:
                out.append(Edge("forward", [parent],
                                [env.integrity_hyp(h), sh]))
        A = env.obj(h)
        if not A.group.is_trivial:
            sh = self._strong_hyp(env, h)
            if sh is not None and sh["status"] != "refuted":
                out.append(Edge("backward", [env.deg0_of(h)], [sh]))
        return out


class TriangularRule(Rule):
    rule_id = "R-TRI"
    citation = ("For a triangular context with one vanishing corner "
                "bimodule, injective generation for both diagonal corners "
                "gives it for the whole ring, and the whole ring gives it "
                "for the corner away from the off-diagonal block.")

    @staticmethod
    def _descent_corners(env, h):
        """None unless h is a context ring with zero pairings and a zero
        glueing bimodule; else the corners generation descends to: A when
        N vanishes, B when M vanishes, both when both do."""
        ctx = env.zero_context(h)
        if ctx is None or (ctx.N.dim and ctx.M.dim):
            return None
        ins = env.prov(h)["inputs"]
        return [c for c, zero in ((ins[0], ctx.N.dim == 0), (ins[1], ctx.M.dim == 0))
                if zero]

    def edges(self, env, h):
        out = []
        if self._descent_corners(env, h) is not None:
            ins = env.prov(h)["inputs"]
            out.append(Edge("forward", [ins[0], ins[1]],
                            [env.integrity_hyp(h)]))
        for other, _e in env.reg.derived_from(h, "morita_ring"):
            if h in (self._descent_corners(env, other) or []):
                out.append(Edge("backward", [other], [env.integrity_hyp(other)]))
        return out


class MoritaRule(Rule):
    rule_id = "R-MOR"
    citation = ("For a context ring with both pairings zero: finite "
                "projective dimension of a glueing bimodule over a corner "
                "lets generation descend to that corner, and finite "
                "projective dimension of the two corner stalk tuples lets "
                "it ascend from both corners.")

    def edges(self, env, h):
        out = []
        ctx = env.zero_context(h)
        if ctx is not None:
            za = ctx.Z_A(regular_module(ctx.A, "left")).as_module()
            zb = ctx.Z_B(regular_module(ctx.B, "left")).as_module()
            hyps = [env.integrity_hyp(h),
                    _pd_hyp("stalk-pd[A]", projective_dimension(za, env.pd_cutoff)),
                    _pd_hyp("stalk-pd[B]", projective_dimension(zb, env.pd_cutoff))]
            ins = env.prov(h)["inputs"]
            out.append(Edge("forward", [ins[0], ins[1]], hyps))
        for other, e in env.reg.derived_from(h, "morita_ring"):
            ctx = env.zero_context(other)
            if ctx is None:
                continue
            ins = e["provenance"]["inputs"]
            for corner, bim, name in ((ins[0], ctx.N, "N"), (ins[1], ctx.M, "M")):
                if h != corner:
                    continue
                hyps = [env.integrity_hyp(other)]
                if bim.dim > 0:
                    v = projective_dimension(bim.as_left_module(), env.pd_cutoff)
                    hyps.append(_pd_hyp(f"glueing-pd[{name}]", v))
                out.append(Edge("backward", [other], hyps))
        return out


class BeilinsonRule(Rule):
    rule_id = "R-BEIL"
    citation = ("A positively and finitely graded ring generates injectives "
                "exactly when its upper-triangular pattern extension does.")

    def edges(self, env, h):
        out = []
        if env.prov(h).get("construction") == "beilinson":
            out.append(Edge("forward", [env.prov(h)["inputs"][0]],
                            [env.integrity_hyp(h)]))
        for other, _e in env.reg.derived_from(h, "beilinson"):
            out.append(Edge("backward", [other], [env.integrity_hyp(other)]))
        return out


def _bimodule_hyps(env, R, W):
    return [
        _nil_hyp("bimodule-nilpotent",
                 nilpotency_index(W, cutoff=env.nil_cutoff)),
        _perfect_hyp("bimodule-left-perfect",
                     left_perfect_check(R, W, pd_cutoff=env.pd_cutoff,
                                        nil_cutoff=env.nil_cutoff)),
    ]


class TensorRingRule(Rule):
    rule_id = "R-TEN"
    citation = ("The tensor ring of a nilpotent left perfect bimodule "
                "generates injectives exactly when its base ring does.")
    constructions = ("tensor_ring",)

    def edges(self, env, h):
        out = []
        prov = env.prov(h)
        if prov.get("construction") in self.constructions:
            ins = prov["inputs"]
            hyps = [env.integrity_hyp(h)]
            if hyps[0]["status"] == "verified":
                hyps += _bimodule_hyps(env, env.obj(ins[0]), env.obj(ins[1]))
            out.append(Edge("forward", [ins[0]], hyps))
        for cname in self.constructions:
            for other, e in env.reg.derived_from(h, cname):
                ins = (e.get("provenance") or {})["inputs"]
                if h != ins[0]:
                    continue
                hyps = [env.integrity_hyp(other)]
                if hyps[0]["status"] == "verified":
                    hyps += _bimodule_hyps(env, env.obj(ins[0]),
                                           env.obj(ins[1]))
                out.append(Edge("backward", [other], hyps))
        return out


class ThetaRule(TensorRingRule):
    rule_id = "R-THETA"
    citation = ("An extension along an associative pairing on a nilpotent "
                "left perfect bimodule generates injectives exactly when "
                "the base ring does.")
    constructions = ("theta_extension", "trivial_extension")


class PositivelyGradedRule(Rule):
    rule_id = "R-POSGR"
    citation = ("A ring graded in a positive window with every positive "
                "component nilpotent and left perfect over the degree-zero "
                "subring generates injectives exactly when that subring "
                "does.")

    @staticmethod
    def _window(A):
        """Positive degrees if the grading sits in the lower half of a
        cyclic 2-power group with nothing in the upper half."""
        fs = A.group.factors
        if len(fs) != 1:
            return None
        m = fs[0]
        if m < 2 or m & (m - 1):
            return None
        half = m // 2
        present = sorted({d[0] for d in A.degree})
        if any(d >= half for d in present):
            return None
        pos = [d for d in present if d > 0]
        return pos if pos else None

    def _hyps(self, env, A):
        pos = self._window(A)
        if pos is None:
            return None
        A0 = degree_zero_subalgebra(A)
        hyps = [_hyp("positive-window", "verified",
                     {"positive_degrees": pos,
                      "group_order": A.group.factors[0]})]
        for d in pos:
            W = component_bimodule(A, (d,), A0)
            hyps.append(_nil_hyp(f"component-nilpotent[{d}]",
                                 nilpotency_index(W, cutoff=env.nil_cutoff)))
            hyps.append(_perfect_hyp(
                f"component-left-perfect[{d}]",
                left_perfect_check(A0, W, pd_cutoff=env.pd_cutoff,
                                   nil_cutoff=env.nil_cutoff)))
        return hyps

    def edges(self, env, h):
        out = []
        A = env.obj(h)
        if self._window(A) is not None:
            hyps = self._hyps(env, A)
            out.append(Edge("forward", [env.deg0_of(h)], hyps))
        prov = env.prov(h)
        if prov.get("construction") == "degree_zero_subalgebra":
            parent = prov["inputs"][0]
            P = env.obj(parent)
            hyps = self._hyps(env, P)
            if hyps is not None:
                out.append(Edge("backward", [parent],
                                [env.integrity_hyp(h)] + hyps))
        return out


class TwistedTensorRule(Rule):
    rule_id = "R-TWIST"
    citation = ("A twisted tensor product of two finite dimensional graded "
                "algebras generates injectives when both factors do.")

    def edges(self, env, h):
        prov = env.prov(h)
        if prov.get("construction") != "twisted_tensor":
            return []
        ins = prov["inputs"]
        return [Edge("forward", [ins[0], ins[1]], [env.integrity_hyp(h)])]


class CommutativeBase(Rule):
    rule_id = "BASE-COMM"
    citation = ("Finite dimensional commutative algebras are commutative "
                "noetherian rings, for which injectives generate.")

    def edges(self, env, h):
        A = env.obj(h)
        bad = None
        for i in range(A.dim):
            for j in range(i + 1, A.dim):
                if A.mult[i][j] != A.mult[j][i]:
                    bad = [A.labels[i], A.labels[j]]
                    break
            if bad:
                break
        status = "refuted" if bad else "verified"
        ev = {"witness": bad} if bad else {"pairs_checked": A.dim * A.dim}
        return [Edge("base", [], [_hyp("commutative", status, ev)])]


class SelfInjectiveBase(Rule):
    rule_id = "BASE-SELFINJ"
    citation = ("When the regular module is injective every projective is "
                "already injective, so injectives generate.")

    def edges(self, env, h):
        A = env.obj(h)
        rep = is_projective(dual(regular_module(A, "right")))
        status = "verified" if rep.projective else "refuted"
        return [Edge("base", [],
                     [_hyp("regular-module-injective", status,
                           {"dual_of_regular_projective": rep.projective})])]


RULES = [CoveringRule(), StronglyGradedRule(), TriangularRule(), MoritaRule(),
         BeilinsonRule(), TensorRingRule(), ThetaRule(),
         PositivelyGradedRule(), TwistedTensorRule(), CommutativeBase(),
         SelfInjectiveBase()]

RULES_BY_ID = {r.rule_id: r for r in RULES}


class DerivationTree:
    def __init__(self, claim, status, step=None):
        self.claim = claim
        self.status = status
        self.step = step
        self.cutoffs = None     # set on the root by derive

    def to_json(self):
        steps = []
        if self.step is not None:
            s = dict(self.step)
            s["premises"] = [t.to_json() for t in self.step["premises"]]
            steps.append(s)
        return {"claim": self.claim, "status": self.status, "steps": steps}


def emit_certificate(tree: DerivationTree) -> dict:
    """The certificate of a derivation: the tree, plus the cutoffs it was
    derived with, which validation reuses unless told otherwise."""
    cert = tree.to_json()
    if tree.cutoffs is not None:
        cert["cutoffs"] = dict(tree.cutoffs)
    return cert


def _derive(env, h, depth, stack):
    claim = env.claim(h)
    if h in stack or depth < 0:
        return DerivationTree(claim, UNKNOWN)
    best = DerivationTree(claim, UNKNOWN)
    best_grade = 0
    for rule in RULES:
        for edge in rule.edges(env, h):
            if edge.refuted:
                continue
            cap = edge.grade_cap
            if cap <= best_grade:
                continue
            subtrees = [_derive(env, p, depth - 1, stack | {h})
                        for p in edge.premises]
            grade = cap
            for t in subtrees:
                grade = min(grade, _GRADE[t.status])
            if grade <= best_grade:
                continue
            status = next(s for s, g in _GRADE.items() if g == grade)
            step = {"rule": rule.rule_id, "citation": rule.citation,
                    "direction": edge.direction,
                    "hypotheses": edge.hypotheses, "premises": subtrees}
            best = DerivationTree(claim, status, step)
            best_grade = grade
            if best_grade == _GRADE[ESTABLISHED]:
                return best
    return best


def derive(reg, target, max_depth=6, pd_cutoff=DEFAULT_PD_CUTOFF,
           nil_cutoff=DEFAULT_NIL_CUTOFF) -> DerivationTree:
    env = Env(reg, pd_cutoff=pd_cutoff, nil_cutoff=nil_cutoff)
    h = reg.resolve(target)
    if reg.entry(h).get("kind") != "algebra":
        raise ReductionError("claims are about algebras; got a "
                             + str(reg.entry(h).get("kind")))
    env.obj(h)  # the store refuses an object that violates its axioms
    tree = _derive(env, h, max_depth, frozenset())
    tree.cutoffs = {"pd_cutoff": pd_cutoff, "nil_cutoff": nil_cutoff}
    return tree


def _match_edge(edges, direction, premise_hashes):
    for e in edges:
        if e.direction == direction and e.premises == premise_hashes:
            return e
    return None


def _json_form(value):
    """value as it reads back from a certificate file."""
    return json.loads(json.dumps(value))


def _on_ladder(status, ladder):
    return isinstance(status, str) and status in ladder


def _objects(value):
    return isinstance(value, list) and all(isinstance(v, dict) for v in value)


def _form_problems(node, where, problems):
    """Record where node, or a node below it, does not have the shape the
    validator reads, or records a status that is off its ladder."""
    if not isinstance(node, dict) or not isinstance(node.get("claim"), dict):
        problems.append(f"{where}: a node must be an object with a claim object")
        return
    if not _on_ladder(node.get("status"), _GRADE):
        problems.append(f"{where}: status {node.get('status')!r} is not one "
                        f"of {list(_GRADE)}")
    steps = node.get("steps", [])
    if not _objects(steps):
        problems.append(f"{where}: steps must be a list of objects")
        return
    for step in steps:
        hyps, premises = step.get("hypotheses", []), step.get("premises", [])
        if not (isinstance(step.get("rule"), str) and _objects(hyps)
                and isinstance(premises, list)):
            problems.append(f"{where}: a step needs a rule name, a list of "
                            "hypothesis objects and a list of premises")
            continue
        for rec in hyps:
            if not (isinstance(rec.get("name"), str)
                    and _on_ladder(rec.get("status"), _HYP_GRADE)):
                problems.append(
                    f"{where}: hypothesis {rec.get('name')!r} needs a string "
                    f"name and a status in {list(_HYP_GRADE)}, not "
                    f"{rec.get('status')!r}")
        for i, p in enumerate(premises):
            _form_problems(p, f"{where}.{i}", problems)


def _revalidate(env, node, problems, where, may_rise):
    """Replay one node whose form _form_problems has accepted; may_rise
    lets an inconclusive hypothesis whose verdict reads a cutoff recompute
    to verified."""
    h = node["claim"].get("hash")
    status = node["status"]
    steps = node.get("steps", [])
    if not isinstance(h, str) or h not in env.reg:
        problems.append(f"{where}: claim hash missing from the store")
        return UNKNOWN
    if not steps:
        if status != UNKNOWN:
            problems.append(f"{where}: status {status} with no derivation step")
        return UNKNOWN
    step = steps[0]
    rule = RULES_BY_ID.get(step["rule"])
    if rule is None:
        problems.append(f"{where}: unknown rule {step['rule']!r}")
        return UNKNOWN
    if step.get("citation") != rule.citation:
        problems.append(f"{where}: citation does not match rule {rule.rule_id}")
        return UNKNOWN
    premise_nodes = step.get("premises", [])
    premise_hashes = [p["claim"].get("hash") for p in premise_nodes]
    try:
        env.obj(h)
        edges = rule.edges(env, h)
    except RegistryError as e:  # the claim or an object its rule reads
        problems.append(f"{where}: {e}")
        return UNKNOWN
    edge = _match_edge(edges, step.get("direction"), premise_hashes)
    if edge is None:
        problems.append(f"{where}: rule {rule.rule_id} no longer yields this "
                        "edge")
        return UNKNOWN
    recs = step.get("hypotheses", [])
    names, fresh = ([hy["name"] for hy in hyps] for hyps in (recs, edge.hypotheses))
    if names != fresh:
        problems.append(f"{where}: hypotheses {names} do not match the "
                        f"{fresh} of rule {rule.rule_id}")
        return UNKNOWN
    for rec, f in zip(recs, edge.hypotheses):
        if rec["status"] == "refuted":
            problems.append(f"{where}: hypothesis {rec['name']!r} is recorded "
                            "refuted")
        elif f["status"] != rec["status"]:
            if not (may_rise and _reads_cutoff(f) and (rec["status"], f["status"])
                    == ("inconclusive", "verified")):
                problems.append(
                    f"{where}: hypothesis {rec['name']!r} recorded "
                    f"{rec['status']} but recomputed {f['status']}")
        elif _json_form(f["evidence"]) != _json_form(rec.get("evidence")):
            problems.append(f"{where}: hypothesis {rec['name']!r} evidence "
                            "differs from the recomputed evidence")
    if edge.refuted:
        problems.append(f"{where}: an edge hypothesis is now refuted")
        return UNKNOWN
    grade = edge.grade_cap
    for i, p in enumerate(premise_nodes):
        sub = _revalidate(env, p, problems, f"{where}.{i}", may_rise)
        grade = min(grade, _GRADE[sub])
    recomputed = next(s for s, g in _GRADE.items() if g == grade)
    if grade < _GRADE[status]:
        problems.append(f"{where}: recorded status {status} but recomputed "
                        f"{recomputed}")
    return recomputed


def _recorded_cutoffs(cert):
    """The certificate's cutoffs record, or None if it is malformed; a
    certificate without one was derived at the defaults."""
    rec = cert.get("cutoffs", {"pd_cutoff": DEFAULT_PD_CUTOFF,
                               "nil_cutoff": DEFAULT_NIL_CUTOFF})
    if (not isinstance(rec, dict) or set(rec) != {"pd_cutoff", "nil_cutoff"}
            or any(type(v) is not int or v < 1 for v in rec.values())):
        return None
    return rec


def validate_cert(cert: dict, reg, pd_cutoff=None, nil_cutoff=None):
    """Replay every step of a certificate against the store.

    Hypotheses are recomputed at the cutoffs the certificate records,
    unless pd_cutoff or nil_cutoff is given.  A step must record the
    hypotheses of its rule's edge by name, all of them and in order.  At
    the recorded cutoffs each hypothesis must recompute to exactly its
    recorded status and evidence; at other cutoffs an inconclusive one
    whose verdict reads a cutoff (pd, nilpotency, perfectness) may also
    recompute to verified, with new evidence.  A hypothesis recorded
    refuted is always a problem.  Returns (ok, recomputed_status,
    problems).  ok means the recorded status is supported by freshly
    recomputed hypotheses and premises.  A certificate of the wrong shape
    is invalid and is not replayed.
    """
    problems = []
    _form_problems(cert, "root", problems)
    if problems:
        return (False, UNKNOWN, problems)
    recorded = _recorded_cutoffs(cert)
    if recorded is None:
        return (False, UNKNOWN, [f"root: malformed cutoffs {cert.get('cutoffs')!r}"])
    cutoffs = {"pd_cutoff": recorded["pd_cutoff"] if pd_cutoff is None else pd_cutoff,
               "nil_cutoff": recorded["nil_cutoff"] if nil_cutoff is None else nil_cutoff}
    recomputed = _revalidate(Env(reg, **cutoffs), cert, problems, "root",
                             cutoffs != recorded)
    return (not problems, recomputed, problems)
