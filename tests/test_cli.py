import json

import pytest
from click.testing import CliRunner

from injgen.cli import main
from injgen.reduction import _GRADE, CONDITIONAL, ESTABLISHED
from injgen.field import PrimeField
from injgen.groups import FiniteAbelianGroup
from injgen.samples import group_algebra, product_field_algebra
from injgen.serialize import content_hash, to_json

F5 = PrimeField(5)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def store(tmp_path):
    return str(tmp_path / "store")


def invoke(runner, store, *args, code=0):
    result = runner.invoke(main, ["--store", store, *args])
    assert result.exit_code == code, result.output
    return result


def loaded(runner, store):
    invoke(runner, store, "corpus-load")


# -- check ---------------------------------------------------------------------


def test_check_accepts_valid_algebra(runner, store, tmp_path):
    doc = to_json(product_field_algebra(F5, 2))
    f = tmp_path / "a.json"
    f.write_text(json.dumps(doc))
    out = invoke(runner, store, "check", str(f)).output
    rep = json.loads(out)
    assert rep["passed"] and rep["kind"] == "algebra"
    assert rep["hash"] == content_hash(doc)


def test_check_flags_axiom_violation(runner, store, tmp_path):
    doc = to_json(product_field_algebra(F5, 2))
    doc["mult"][0][1] = [[0, 1], [1, 1]]     # breaks associativity/unit
    f = tmp_path / "a.json"
    f.write_text(json.dumps(doc))
    result = invoke(runner, store, "check", str(f), code=1)
    assert not json.loads(result.output)["passed"]


def test_check_rejects_garbage(runner, store, tmp_path):
    f = tmp_path / "a.json"
    f.write_text("{nope")
    invoke(runner, store, "check", str(f), code=2)
    f.write_text(json.dumps({"field": {"kind": "fp", "p": 5}}))
    invoke(runner, store, "check", str(f), code=2)


# -- store plumbing ------------------------------------------------------------


def test_corpus_load_and_reload_is_stable(runner, store):
    first = invoke(runner, store, "corpus-load").output
    second = invoke(runner, store, "corpus-load").output
    assert first == second
    assert "a2-tensor" in first


def test_file_arguments_are_registered(runner, store, tmp_path):
    f = tmp_path / "kz2.json"
    f.write_text(json.dumps(to_json(group_algebra(F5, FiniteAbelianGroup((2,))))))
    out = invoke(runner, store, "build", "covering", str(f)).output
    assert "kz2:cover" in out


def test_unknown_ref_is_input_error(runner, store):
    loaded(runner, store)
    invoke(runner, store, "build", "covering", "no-such-thing", code=2)


# -- build ---------------------------------------------------------------------


def test_build_covering_hash_matches_bundled(runner, store):
    loaded(runner, store)
    out = invoke(runner, store, "build", "covering", "kz2").output
    h = out.split()[0]
    # the bundled kz2-cover was built the same way, so the store dedups
    entries = invoke(runner, store, "corpus-load").output
    assert h in entries


def test_build_tensor_ring_then_derive(runner, store, tmp_path):
    loaded(runner, store)
    invoke(runner, store, "build", "tensor-ring", "kxk", "kxk-arrow",
           "-k", "2", "--label", "t2")
    cert = tmp_path / "cert.json"
    out = invoke(runner, store, "derive", "t2", "--out", str(cert)).output
    assert out.startswith("Established")
    invoke(runner, store, "validate-cert", str(cert))


def test_build_split_registers_pieces(runner, store):
    loaded(runner, store)
    invoke(runner, store, "build", "covering", "kx2-z4", "--label", "c4")
    out = invoke(runner, store, "build", "split", "c4", "--label", "s").output
    for piece in (":A", ":B", ":N", ":M"):
        assert "s" + piece in out


def test_build_morita_rejects_mismatched_corners(runner, store):
    # the glueing bimodules live over kxk, not kz2
    loaded(runner, store)
    invoke(runner, store, "build", "morita", "kxk", "kz2",
           "kxk-zero-bim", "kxk-arrow", code=1)


ZERO_CTX = ["kxk", "kxk", "kxk-zero-bim", "kxk-arrow"]


@pytest.mark.parametrize("args", [
    ["twisted", "kz2-f3", "kz2-f3", "--t", "[[2"],
    ["twisted", "kz2-f3", "kz2-f3", "--t", "[2]"],
    ["twisted", "kz2-f3", "kz2-f3", "--t", "[[2, 2]]"],
    ["morita", *ZERO_CTX, "--phi", "[[1"],
    ["morita", *ZERO_CTX, "--phi", "[1]"],
    ["morita", *ZERO_CTX, "--psi", "[[1], [1]]"],
    ["theta", "a3-r0", "a3-pos", "--theta", "[[2"],
    ["theta", "a3-r0", "a3-pos", "--theta", "[[1]]"],
], ids=lambda args: f"{args[0]} {args[-1]}")
def test_build_malformed_params_exit_2(runner, store, args):
    loaded(runner, store)
    result = invoke(runner, store, "build", *args, code=2)
    assert isinstance(result.exception, SystemExit)


def test_build_unbalanced_theta_exits_1(runner, store):
    loaded(runner, store)
    zero = [0] * 9
    theta = json.dumps([[1] + zero[1:], zero, zero])
    result = invoke(runner, store, "build", "theta", "a3-r0", "a3-pos",
                    "--theta", theta, code=1)
    assert isinstance(result.exception, SystemExit)
    assert "extension ring fails associativity at (m:a, r:e_1, m:a)" in result.output


# -- homology wrappers ---------------------------------------------------------


def test_pd_tor_nilpotency_perfect(runner, store):
    loaded(runner, store)
    out = invoke(runner, store, "pd", "kxk-arrow", "--side", "left").output
    assert json.loads(out)["pd"] == {"finite": 0}
    out = invoke(runner, store, "tor", "kxk-arrow", "kxk-arrow",
                 "--imax", "2").output
    assert json.loads(out)["tor"] == [0, 0, 0]
    out = invoke(runner, store, "nilpotency", "kxk-arrow").output
    assert json.loads(out)["nilpotency"] == {"index": 2}
    out = invoke(runner, store, "perfect", "kxk-arrow").output
    assert json.loads(out)["verdict"] == "LeftPerfect"


def test_nilpotency_over_two_rings_exits_2(runner, store):
    loaded(runner, store)
    invoke(runner, store, "build", "covering", "kx2-z4")
    invoke(runner, store, "build", "split", "kx2-z4:cover")
    result = invoke(runner, store, "nilpotency", "kx2-z4:cover:split:N", code=2)
    assert isinstance(result.exception, SystemExit)
    assert "one ring on both sides" in result.output


def test_long_strings_are_not_file_names(runner, store):
    # past the file system's name length, so probing them as paths fails
    loaded(runner, store)
    theta = "[[0]" + " " * 300 + "]"
    invoke(runner, store, "build", "theta", "kxk", "kxk-arrow", "--theta", theta)
    result = invoke(runner, store, "pd", "a" * 300, code=2)
    assert isinstance(result.exception, SystemExit)
    assert "no object matches" in result.output


def test_pd_rejects_algebra_ref(runner, store):
    loaded(runner, store)
    invoke(runner, store, "pd", "kxk", code=2)


# -- derive / validate ---------------------------------------------------------


def test_derive_unknown_target_strict_exit(runner, store, tmp_path):
    loaded(runner, store)
    quiver = {"field": {"kind": "fp", "p": 5}, "vertices": ["1", "2"],
              "arrows": [["a", "1", "2"]]}
    f = tmp_path / "q.json"
    f.write_text(json.dumps(quiver))
    invoke(runner, store, "build", "path-algebra", str(f), "--label", "ka2")
    cert = tmp_path / "c.json"
    out = invoke(runner, store, "derive", "ka2", "--out", str(cert)).output
    assert out.startswith("Unknown")
    invoke(runner, store, "--strict", "derive", "ka2", code=3)
    invoke(runner, store, "--strict", "derive", "a2-tensor")


def test_derive_deterministic_output(runner, store, tmp_path):
    loaded(runner, store)
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    invoke(runner, store, "derive", "theta-a3", "--out", str(c1))
    invoke(runner, store, "derive", "theta-a3", "--out", str(c2))
    assert c1.read_text() == c2.read_text()


def test_validate_cert_rejects_tampering(runner, store, tmp_path):
    loaded(runner, store)
    cert = tmp_path / "c.json"
    invoke(runner, store, "derive", "kz2", "--out", str(cert))
    doc = json.loads(cert.read_text())
    doc["steps"][0]["rule"] = "R-BEIL"
    cert.write_text(json.dumps(doc))
    result = invoke(runner, store, "validate-cert", str(cert), code=1)
    out = json.loads(result.output)
    assert not out["valid"] and out["recomputed_status"] in _GRADE


def test_validate_cert_reports_a_malformed_certificate(runner, store, tmp_path):
    loaded(runner, store)
    cert = tmp_path / "c.json"
    invoke(runner, store, "derive", "kz2", "--out", str(cert))
    doc = json.loads(cert.read_text())
    doc["steps"][0]["premises"] = [5]
    cert.write_text(json.dumps(doc))
    result = invoke(runner, store, "validate-cert", str(cert), code=1)
    assert isinstance(result.exception, SystemExit) and result.stderr == ""
    out = json.loads(result.stdout)
    assert not out["valid"] and out["problems"][0].startswith("root.0: ")
    assert out["recomputed_status"] in _GRADE


def test_validate_cert_refuses_a_deeply_nested_file(runner, store, tmp_path):
    cert = tmp_path / "c.json"
    cert.write_text("[" * 100000 + "]" * 100000)
    result = invoke(runner, store, "validate-cert", str(cert), code=2)
    assert isinstance(result.exception, SystemExit)
    assert "nested too deeply" in result.stderr


def test_validate_cert_uses_recorded_cutoffs_unless_given(runner, store, tmp_path):
    loaded(runner, store)
    cert = tmp_path / "c.json"
    invoke(runner, store, "--pd-cutoff", "1", "--nil-cutoff", "1",
           "derive", "a3-graded", "--out", str(cert))
    assert json.loads(cert.read_text())["cutoffs"] == {"pd_cutoff": 1,
                                                       "nil_cutoff": 1}
    out = json.loads(invoke(runner, store, "validate-cert", str(cert)).output)
    assert out["valid"] and out["recomputed_status"] == CONDITIONAL
    out = json.loads(invoke(runner, store, "--nil-cutoff", "16",
                            "validate-cert", str(cert)).output)
    assert out["valid"] and out["recomputed_status"] == ESTABLISHED


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize("option,command", [
    ("--pd-cutoff", ["derive", "a3-graded"]),
    ("--pd-cutoff", ["validate-cert", "cert.json"]),
    ("--pd-cutoff", ["pd", "kxk-arrow", "--side", "left"]),
    ("--pd-cutoff", ["perfect", "kxk-arrow"]),
    ("--nil-cutoff", ["derive", "a3-graded"]),
    ("--nil-cutoff", ["nilpotency", "kxk-arrow"]),
])
def test_cutoffs_below_one_are_malformed_input(runner, store, tmp_path, option, command,
                                               value):
    loaded(runner, store)
    cert = tmp_path / "cert.json"
    invoke(runner, store, "derive", "a3-graded", "--out", str(cert))
    command = [str(cert) if a == "cert.json" else a for a in command]
    result = invoke(runner, store, option, value, *command, code=2)
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert f"Invalid value for '{option}'" in result.output


# -- verify-theorems -----------------------------------------------------------


def test_verify_theorems_filter_and_unknown_name(runner, store):
    out = invoke(runner, store, "verify-theorems",
                 "--only", "degeneracy").output
    assert "degeneracy" in out and "pass" in out
    assert "covering-roundtrip" not in out
    invoke(runner, store, "verify-theorems", "--only", "nope", code=2)
