"""The benchmark's tracer must find and keep working what it wraps.

perfbench/tracing.py wraps injgen functions and methods by name, methods
through their class __dict__, and some wrappers take the wrapped call's
arguments; a rename or a signature change in src/ would otherwise break
`perfbench/run.py --trace 1` while the rest of the suite stays green.
So every wrapped name must resolve, and a small workload through the
installed tracer must give the untraced answers.  This test only reads
perfbench.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_callables_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, targets in tracing.SPANS.items():
        for modname, attr in targets:
            mod = importlib.import_module(f"injgen.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name, None)
                found = vars(owner).get(meth) if owner is not None else None
            else:
                found = getattr(mod, attr, None)
            if not callable(found):
                missing.append(f"{name}: injgen.{modname}.{attr}")
    assert not missing, missing


def _workload():
    """A balanced tensor product, a quotient, a tensor ring and a pd, as
    comparable plain data.  Imported here, so that once the tracer is
    installed these calls go through its wrappers too."""
    from injgen.algebra import (GradedBimodule, quotient_module, regular_bimodule,
                                regular_module)
    from injgen.constructions import tensor_ring
    from injgen.field import PrimeField
    from injgen.homology import projective_dimension
    from injgen.samples import product_field_algebra, truncated_polynomial
    from injgen.tensors import tensor_bimodules

    F = PrimeField(5)
    D = truncated_polynomial(F, 3)
    P = regular_bimodule(D)
    B, T = tensor_bimodules(P, P)
    Q, proj = quotient_module(regular_module(D, "right"), [[0, 0, 1]])
    kk = product_field_algebra(F, 2)
    one = F.one()
    arrow = GradedBimodule(kk, kk, ["b"], [()], [[{0: one}, {}]], [[{}, {0: one}]])
    ring = tensor_ring(kk, arrow, 2).algebra
    return (B.left_action, B.right_action, T.section, Q.action, proj.matrix.rows,
            ring.mult, str(projective_dimension(Q, 4)))


def test_traced_workload_matches_the_untraced_one():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    want = _workload()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        got = _workload()
    finally:
        tracer.uninstall()
    assert got == want
    calls = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    assert calls.get("linalg.reducer") and calls.get("tensors.tensor")
    assert tracer.metrics()["tensors.tensor.calls"] == calls["tensors.tensor"]
    # uninstalled: the program's own functions are back in place
    from injgen import linalg, tensors
    assert not hasattr(linalg.row_space_reducer, "__wrapped__")
    assert not hasattr(tensors.row_space_reducer, "__wrapped__")
