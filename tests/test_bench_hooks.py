"""Every callable the benchmark's tracer wraps must exist under its name.

perfbench/tracing.py wraps injgen functions and methods by name, methods
through their class __dict__; a rename in src/ would otherwise break
`perfbench/run.py --trace 1` while the rest of the suite stays green.
This test only reads perfbench.
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
