"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They run every workload in quick mode, feed each answer checker a planted
wrong answer, and check the printed metrics against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import WrongAnswer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root, workload, trace, *extra):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "0", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_quick_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = run_bench(tmp_path, "certify", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# -- planted wrong answers -------------------------------------------------------


def dual_numbers_simple():
    from injgen.field import PrimeField
    D = workloads._dual_numbers(PrimeField(5))
    return workloads._char_module(D, "right", 0)


def test_resolution_checker_rejects_planted_errors():
    from injgen.field import PrimeField
    from injgen.homology import resolution_report
    F5 = PrimeField(5)
    good = resolution_report(dual_numbers_simple(), 3)
    checks.check_resolution(good, 1, ("atLeast", 3), F5)
    with pytest.raises(WrongAnswer, match="verdict"):
        checks.check_resolution(good, 1, ("finite", 3), F5)
    bad = resolution_report(dual_numbers_simple(), 3)
    bad.steps[1].boundary.rows[0][0] = 1
    with pytest.raises(WrongAnswer):
        checks.check_resolution(bad, 1, ("atLeast", 3), F5)
    bad = resolution_report(dual_numbers_simple(), 3)
    bad.steps[2].syzygy_dim += 1
    with pytest.raises(WrongAnswer, match="rank"):
        checks.check_resolution(bad, 1, ("atLeast", 3), F5)


def test_resolution_checker_rejects_a_bad_splitting():
    from injgen.field import PrimeField
    from injgen.homology import resolution_report
    F5 = PrimeField(5)
    M = workloads._quiver_simple(F5, 3, 2, 1, "right")
    rep = resolution_report(M, 8)
    checks.check_resolution(rep, 1, ("finite", 2), F5)
    s = rep.steps[-1].syzygy_projectivity.splitting.matrix
    s.rows[0][0] = (s.rows[0][0] + 1) % 5
    with pytest.raises(WrongAnswer, match="splitting"):
        checks.check_resolution(rep, 1, ("finite", 2), F5)


def test_rank_and_hand_values():
    from injgen.field import QQ, PrimeField
    F5 = PrimeField(5)
    assert checks.rank([[1, 2], [2, 4]], QQ) == 1
    assert checks.rank([[1, 2], [3, 1]], F5) == 1     # 3 * (1, 2) = (3, 1) mod 5
    assert checks.rank([[1, 2], [3, 1]], QQ) == 2
    # A2 = 1 -> 2: S1 has pd 1 on the right, S2 is projective
    assert checks.linear_quiver_pd(2, 2, 1, "right") == 1
    assert checks.linear_quiver_pd(2, 2, 2, "right") == 0
    assert checks.linear_quiver_pd(2, 2, 2, "left") == 1
    # A3 with radical square zero: S1 -> S2 -> S3 gives pd 2
    assert checks.linear_quiver_pd(3, 2, 1, "right") == 2


def test_tor_checker_rejects_planted_errors():
    checks.check_tor([1, 1], [1, 1], [1, 1])
    with pytest.raises(WrongAnswer, match="side"):
        checks.check_tor([1, 1], [1, 0])
    with pytest.raises(WrongAnswer, match="expected"):
        checks.check_tor([1, 0], [1, 0], [1, 1])


def test_certify_checkers():
    cert = {"status": "Established", "claim": {}, "steps": [{
        "hypotheses": [{"name": "construction-integrity", "status": "verified",
                        "evidence": {"expected": "ab", "rebuilt": "ab"}}],
        "premises": []}]}
    workloads.check_derived(cert, "Established")
    with pytest.raises(WrongAnswer):
        workloads.check_derived(dict(cert, status="Unknown"), "Established")
    workloads.check_validated((True, "Established", []), "Established")
    with pytest.raises(WrongAnswer):
        workloads.check_validated((False, "Unknown", ["x"]), "Established")
    with pytest.raises(WrongAnswer):
        workloads.check_validated((True, "Refutation-free-but-Conditional", []),
                                  "Established")
    forged = workloads.forge(cert)
    assert forged["steps"][0]["hypotheses"][0]["evidence"]["expected"] == 999
    assert cert["steps"][0]["hypotheses"][0]["evidence"]["expected"] == "ab"
    assert workloads.check_forged((False, "Unknown", ["x"])) is True
    assert workloads.check_forged((True, "Established", [])) is False


def test_zoo_checkers_reject_planted_errors():
    assert workloads.check_cover_round_trip((8, 8, True, True))
    with pytest.raises(WrongAnswer, match="dim"):
        workloads.check_cover_round_trip((8, 6, True, True))
    with pytest.raises(WrongAnswer, match="isomorphism"):
        workloads.check_cover_round_trip((8, 8, False, True))
    assert workloads.check_tensor_formula((True, 4, 4))
    with pytest.raises(WrongAnswer):
        workloads.check_tensor_formula((True, 4, 5))
    with pytest.raises(WrongAnswer):
        workloads.check_tensor_formula((False, 4, 4))
    with pytest.raises(WrongAnswer):
        workloads.check_tor_sides(([1, 0], [1, 1]))


def test_zoo_inputs_follow_the_seed():
    a = [op.name for op in workloads.zoo_ops(3, None)]
    b = workloads.zoo_ops(3, None)
    assert a == [op.name for op in b]
    first, second = b[0].run(), b[0].run()
    assert first == second


def test_zoo_module_shape_is_read_from_the_action_tables():
    from injgen.algebra import regular_module
    from injgen.field import PrimeField
    from injgen.samples import truncated_polynomial
    F5 = PrimeField(5)
    # k[x]/(x^3) over itself: M rad A is spanned by x and x^2
    A = truncated_polynomial(F5, 3)
    assert workloads._module_shape(regular_module(A, "right"), (3,)) == (3, (), 2)
    # the path algebra of 1 -> 2 over itself: one vertex carries two basis
    # paths, the other one, and M rad A is spanned by the arrow
    P = regular_module(workloads._linear_quiver(F5, 2, 2).algebra, "right")
    dim, dimvec, rad = workloads._module_shape(P, (3,))
    assert (dim, sorted(dimvec), rad) == (3, [1, 2], 1)
    assert workloads._module_shape(P, (4,)) == (3,)
