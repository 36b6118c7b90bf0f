"""tools/bench_pair.py summarize and measure on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"


@pytest.fixture(scope="module")
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "ratio", "unit": "ratio", "better": "higher", "bound": 0.25}]


def _runs(base, change):
    """Ten pairs around the given medians, each side with a small spread;
    the higher-is-better metric moves by the same share the other way."""
    def side(median):
        return [{"metrics": {"wall_s": {"value": median * (1 + k / 100)},
                             "ratio": {"value": 2 - median * (1 + k / 100)}}}
                for k in range(-5, 5)]
    return {"base": side(base), "change": side(change)}


@pytest.mark.parametrize("change,gain,regressed", [
    (0.8, True, False),    # 20% faster
    (1.1, False, False),   # 10% slower, inside the 25% bound
    (1.4, False, True),    # 40% slower, past it
])
def test_summarize_flags_gains_and_regressions(bench_pair, capsys, change, gain,
                                               regressed):
    out = bench_pair.summarize(_runs(1.0, change), METRICS)
    wall = out["wall_s"]
    assert (wall["gain"], wall["regressed"], wall["bound"]) == (gain, regressed, 0.25)
    assert wall["change_better_pairs"] == (10 if gain else 0)
    assert wall["change_vs_base"] == pytest.approx(change - 1)
    # ratio goes from 1.0 to 2 - change, the mirror of wall_s
    assert (out["ratio"]["gain"], out["ratio"]["regressed"]) == (gain, regressed)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 * regressed
    assert all(line.startswith("# regressed: ") and "25%" in line for line in err)
    assert any("wall_s" in line for line in err) == regressed


def test_pair_ratio_reads_each_pair(bench_pair):
    # the medians of the two sides move with the machine; the ratio
    # within each pair does not
    speed = [1.0, 1.3, 0.8, 1.1, 0.9]
    runs = {"base": [{"metrics": {"wall_s": {"value": 2 * s}}} for s in speed],
            "change": [{"metrics": {"wall_s": {"value": r * 2 * s}}}
                       for s, r in zip(speed, [0.7, 0.75, 0.8, 0.65, 0.9])]}
    ratio = bench_pair.summarize(runs, METRICS[:1])["wall_s"]["pair_ratio"]
    assert ratio == pytest.approx({"median": 0.75, "min": 0.65, "max": 0.9})


def test_measure_traces_each_side_once_after_the_pairs(bench_pair, monkeypatch):
    calls = []

    def fake_run(tree, workload, seed, seconds, trace=False):
        calls.append((tree, trace))
        if trace:
            metrics = {"linalg.span.calls": 10 if tree == "b" else 4,
                       "trace.overhead_s": 0.01}
        else:
            metrics = {"wall_s": 1.0 if tree == "b" else 0.8}
        return {"correct": True, "failed": 0,
                "metrics": {k: {"value": v} for k, v in metrics.items()}}

    monkeypatch.setattr(bench_pair, "run_once", fake_run)
    args = bench_pair.parse_args(["--name", "x", "--pairs", "2"])
    entry = bench_pair.measure({"base": "b", "change": "c"}, "resolve", 1, args,
                               METRICS[:1])
    assert calls == [("b", False), ("c", False), ("c", False), ("b", False),
                     ("b", True), ("c", True)]
    assert entry["metrics"]["wall_s"]["change_better_pairs"] == 2
    assert entry["correct"]
    assert entry["trace"] == {
        "base": {"linalg.span.calls": 10, "trace.overhead_s": 0.01},
        "change": {"linalg.span.calls": 4, "trace.overhead_s": 0.01}}
