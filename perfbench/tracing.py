"""Per-layer tracing from outside the program.

Tracer.install() wraps the public functions of each injgen layer at every
module attribute through which callers reach them (homology binds
solve_linear and kernel_basis by name, algebra and homs bind rref, and so
on) and the methods of the classes that hold layer work.  Each call
becomes a span recorded in memory with its parent.  Tracer.metrics()
turns the spans of one pass into the per-layer metrics:

- `<name>.calls` counts every call;
- `<name>.s` is the time inside the outermost calls of that name
  (nested calls of the same name are not counted twice), except
  `homology.projectivity.s` and `homology.resolver.s`, which are self
  time: the span minus its traced children;
- the remaining counters are taken at the boundary, by the hooks below.
"""

from __future__ import annotations

import importlib
import sys
import time

BIG_CELLS = 10 ** 5

RULE_IDS = ["R-COV", "R-STR", "R-TRI", "R-MOR", "R-BEIL", "R-TEN", "R-THETA",
            "R-POSGR", "R-TWIST", "BASE-COMM", "BASE-SELFINJ", "BASE-SS"]

# span name -> (module, attribute or Class.method) of the wrapped callables
SPANS = {
    "linalg.rref": [("linalg", "rref")],
    "linalg.solve": [("linalg", "solve_linear")],
    "linalg.kernel": [("linalg", "kernel_basis")],
    "linalg.reducer": [("linalg", "row_space_reducer")],
    "linalg.span": [("linalg", "Span.add"), ("linalg", "Span.contains"),
                    ("linalg", "Span.coordinates")],
    "linalg.matmul": [("linalg", "Matrix.mul")],
    "homology.projectivity": [("homology", "is_projective")],
    "homology.resolver": [("homology", "_Resolver.ensure")],
    "homology.tor": [("homology", "tor")],
    "homology.nilpotency": [("homology", "nilpotency_index")],
    "homology.perfect": [("homology", "left_perfect_check")],
    "algebra.syzygy_module": [("algebra", "module_from_span")],
    "algebra.generators": [("algebra", "GradedModule.generators"),
                           ("algebra", "GradedAlgebra.generators")],
    "algebra.quotient": [("algebra", "quotient_module")],
    "tensors.tensor": [("tensors", "tensor_over_algebra")],
    "tensors.bimodule": [("tensors", "tensor_bimodules"),
                         ("tensors", "tensor_module_with_bimodule"),
                         ("tensors", "tensor_bimodule_with_module")],
    "constructions.build": [("constructions", name) for name in (
        "covering_ring", "covering_module", "covering_module_inverse",
        "morita_ring", "split_covering", "tensor_ring", "theta_extension",
        "trivial_extension", "twisted_tensor", "beilinson",
        "regular_right_tuple", "MoritaContext.T_A", "MoritaContext.T_B",
        "MoritaContext.Z_A", "MoritaContext.Z_B", "TupleModule.as_module")],
    "constructions.tower": [("constructions", "TensorTower.power"),
                            ("constructions", "TensorTower.mu")],
    "homs.iso": [("homs", "find_isomorphism")],
    "reduction.derive": [("reduction", "derive")],
    "reduction.validate": [("reduction", "validate_cert")],
    "registry.load": [("registry", "Registry.load")],
    "registry.store": [("registry", "Registry.store")],
    "serialize.hash": [("serialize", "content_hash")],
}
SELF_TIMED = {"homology.projectivity", "homology.resolver"}


PER_LAYER = [
    "linalg.rref.calls", "linalg.rref.s", "linalg.rref.cells", "linalg.rref.nnz",
    "linalg.rref.big.calls", "linalg.rref.big.s", "linalg.rref.q.s",
    "linalg.solve.s", "linalg.kernel.s", "linalg.reducer.s",
    "linalg.span.calls", "linalg.span.s", "linalg.matmul.s",
    "homology.projectivity.calls", "homology.projectivity.s",
    "homology.projectivity.unknowns", "homology.resolver.s",
    "homology.free_rank.sum", "homology.syzygy_dim.sum",
    "homology.tor.calls", "homology.tor.s", "homology.nilpotency.s",
    "homology.perfect.s",
    "algebra.syzygy_module.s", "algebra.generators.s", "algebra.quotient.s",
    "tensors.tensor.calls", "tensors.tensor.s", "tensors.bimodule.s",
    "constructions.build.calls", "constructions.build.s", "constructions.tower.s",
    "homs.iso.calls", "homs.iso.s",
    "reduction.derive.s", "reduction.validate.s",
    *[f"reduction.rule.{rid}.{kind}" for rid in RULE_IDS for kind in ("calls", "s")],
    "reduction.edges.repeats", "reduction.edges.useful_ratio",
    "registry.load.calls", "registry.load.s", "registry.store.calls",
    "registry.store.s", "serialize.hash.calls", "serialize.hash.s",
]


def unit_of(name):
    if name.endswith(".s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


class Tracer:
    def __init__(self):
        self.spans = []       # [name, parent index, t0, t1, child time, outermost, tags]
        self._stack = []
        self._open = {}       # span name -> number of open spans of that name
        self._derivations = []
        self.counts = {}
        self._undo = []

    # -- spans -----------------------------------------------------------------

    def _enter(self, name, tags=None):
        parent = self._stack[-1] if self._stack else None
        outer = not self._open.get(name)
        self._open[name] = self._open.get(name, 0) + 1
        self.spans.append([name, parent, time.perf_counter(), None, 0.0, outer, tags])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _exit(self, rec):
        rec[3] = time.perf_counter()
        self._stack.pop()
        self._open[rec[0]] -= 1
        if rec[1] is not None:
            self.spans[rec[1]][4] += rec[3] - rec[2]

    def _count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            tags = before(*args, **kwargs) if before else None
            rec = self._enter(name, tags)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if after:
                return after(out, tags, *args, **kwargs)
            return out
        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    def _patch(self, modname, attr, make):
        mod = importlib.import_module(f"injgen.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(mod, attr)
        new = make(orig)
        for m in list(sys.modules.values()):
            if not getattr(m, "__name__", "").startswith("injgen"):
                continue
            for k, v in list(vars(m).items()):
                if v is orig:
                    self._undo.append((m, k, orig))
                    setattr(m, k, new)

    def install(self):
        hooks = {
            "linalg.rref": (self._rref_before, self._rref_after),
            "linalg.reducer": (None, self._reducer_after),
            "homology.projectivity": (self._proj_before, self._proj_after),
            "homology.resolver": (self._ensure_before, self._ensure_after),
            "reduction.derive": (self._derive_before, self._derive_after),
        }
        for name, targets in SPANS.items():
            before, after = hooks.get(name, (None, None))
            for modname, attr in targets:
                self._patch(modname, attr,
                            lambda fn, name=name, b=before, a=after:
                            self.wrap(name, fn, b, a))
        reduction = importlib.import_module("injgen.reduction")
        for rule in reduction.RULES:
            cls = type(rule)
            if "edges" in cls.__dict__:
                orig = cls.__dict__["edges"]
                self._undo.append((cls, "edges", orig))
                setattr(cls, "edges", self._rule_wrapper(orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- boundary counters -----------------------------------------------------

    def _rref_before(self, mat):
        cells = mat.nrows * mat.ncols
        nnz = sum(1 for row in mat.rows for a in row if a)
        return {"cells": cells, "nnz": nnz, "q": mat.field.kind == "q"}

    def _rref_after(self, out, tags, mat):
        self._count("linalg.rref.cells", tags["cells"])
        self._count("linalg.rref.nnz", tags["nnz"])
        return out

    def _reducer_after(self, out, tags, mat):
        reduce, free = out
        return self.wrap("linalg.reducer", reduce), free

    @staticmethod
    def _proj_before(M):
        flat = M if M.algebra.group.is_trivial else M._cache.get("flat")
        return {"hit": flat is not None and "projres" in flat._cache}

    def _proj_after(self, rep, tags, M):
        if not tags["hit"]:
            self._count("homology.projectivity.unknowns",
                        rep.cover.source.dim * rep.cover.target.dim)
        return rep

    @staticmethod
    def _ensure_before(res, n):
        return {"steps": len(res.ranks)}

    def _ensure_after(self, out, tags, res, n):
        new = range(tags["steps"], len(res.ranks))
        self._count("homology.free_rank.sum", sum(res.ranks[i] for i in new))
        self._count("homology.syzygy_dim.sum", sum(res.syzygies[i].dim for i in new))
        return out

    def _derive_before(self, *args, **kwargs):
        self._derivations.append([])
        return None

    def _derive_after(self, tree, tags, *args, **kwargs):
        evals = self._derivations.pop()
        used = set()
        stack = [tree]
        while stack:
            t = stack.pop()
            if t.step is not None:
                used.add((t.step["rule"], t.claim["hash"]))
                stack.extend(t.step["premises"])
        self._count("reduction.edges.evaluations", len(evals))
        self._count("reduction.edges.repeats", len(evals) - len(set(evals)))
        self._count("reduction.edges.useful", sum(1 for e in evals if e in used))
        return tree

    def _rule_wrapper(self, fn):
        def edges(rule, env, h):
            if self._derivations:
                self._derivations[-1].append((rule.rule_id, h))
            rec = self._enter(f"reduction.rule.{rule.rule_id}")
            try:
                return fn(rule, env, h)
            finally:
                self._exit(rec)
        return edges

    # -- results ---------------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._derivations.clear()

    def metrics(self):
        """Per-layer metrics of the spans recorded since the last reset;
        the rref cell and nonzero counts are summed at call time."""
        calls, incl, self_time = {}, {}, {}
        for name, _parent, t0, t1, child, outer, tags in self.spans:
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + dur - child
            if outer:
                incl[name] = incl.get(name, 0.0) + dur
            if name == "linalg.rref" and tags:
                if tags["cells"] >= BIG_CELLS:
                    calls["linalg.rref.big"] = calls.get("linalg.rref.big", 0) + 1
                    incl["linalg.rref.big"] = incl.get("linalg.rref.big", 0.0) + dur
                if tags["q"]:
                    incl["linalg.rref.q"] = incl.get("linalg.rref.q", 0.0) + dur
        out = {}
        for key in PER_LAYER:
            base, _, kind = key.rpartition(".")
            if kind == "calls" and base in calls:
                out[key] = calls[base]
            elif kind == "s" and base in SELF_TIMED:
                out[key] = self_time.get(base, 0.0)
            elif kind == "s":
                out[key] = incl.get(base, 0.0)
            elif key == "reduction.edges.useful_ratio":
                n = self.counts.get("reduction.edges.evaluations", 0)
                out[key] = self.counts.get("reduction.edges.useful", 0) / n if n else 0.0
            else:
                out[key] = self.counts.get(key, 0)
        return out
