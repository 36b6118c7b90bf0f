"""The store is the trust boundary.

It admits only objects that satisfy their axioms: Registry.store and
Registry.load refuse any other, derive refuses it, validate_cert reports
it, and every command but `check` exits 2 on it.  Constructions no longer
check their output, so the data they take from a caller and that only
those checks used to reject (the degrees of context pairings and tuple
structure maps, the carrier of a twisted module) is checked on the way in.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import injgen
from injgen.algebra import (ConstructionError, GradedAlgebra, GradedBimodule,
                            GradedModule, check_axioms, regular_module)
from injgen.bundled import corpus_docs
from injgen.cli import main
from injgen.constructions import (Bicharacter, morita_ring,
                                  tensor_product_algebra, tuple_module,
                                  twisted_module, twisted_tensor)
from injgen.field import PrimeField
from injgen.groups import TRIVIAL_GROUP, FiniteAbelianGroup
from injgen.reduction import (ESTABLISHED, _GRADE, derive, emit_certificate,
                              validate_cert)
from injgen.registry import Registry, RegistryError
from injgen.samples import group_algebra
from injgen.serialize import canonical_bytes, content_hash, from_json

F5 = PrimeField(5)
Z2 = FiniteAbelianGroup((2,))


def corpus_doc(label):
    return json.loads(json.dumps(dict(corpus_docs())[label]))


def bad_kxk():
    """Corpus kxk with e1 e1 = e1 + e2: four axiom violations."""
    doc = corpus_doc("kxk")
    doc["mult"][0][0] = [[0, 1], [1, 1]]
    return doc


def hand_written(root, doc, label):
    """Put doc into the store at root without going through Registry."""
    root = pathlib.Path(root)
    h = content_hash(doc)
    (root / "objects").mkdir(parents=True, exist_ok=True)
    (root / "objects" / f"{h}.json").write_bytes(canonical_bytes(doc))
    index_path = root / "index.json"
    index = {"objects": {}}
    if index_path.exists():
        index = json.loads(index_path.read_text())
    index["objects"][h] = {"file": f"objects/{h}.json", "kind": "algebra",
                           "label": label, "provenance": None}
    index_path.write_text(json.dumps(index))
    return h


def cli(store, *args):
    return CliRunner().invoke(main, ["--store", str(store), *args])


# -- admission -----------------------------------------------------------------


def test_store_rejects_an_invalid_algebra(tmp_path):
    reg = Registry(tmp_path)
    with pytest.raises(RegistryError, match="violates 4 axiom"):
        reg.store(bad_kxk(), label="kxk")
    with pytest.raises(RegistryError, match="violates 4 axiom"):
        reg.store_object(from_json(bad_kxk()))
    assert len(reg) == 0 and not list((tmp_path / "objects").iterdir())


def test_store_rejects_a_document_that_does_not_parse(tmp_path):
    doc = corpus_doc("kxk")
    doc["mult"][0][0] = [[7, 1]]
    with pytest.raises(RegistryError, match="out of range"):
        Registry(tmp_path).store(doc)


def test_load_rejects_a_hand_written_invalid_object(tmp_path):
    h = hand_written(tmp_path, bad_kxk(), "kxk")
    with pytest.raises(RegistryError, match="object kxk violates 4 axiom"):
        Registry(tmp_path).load(h)


def test_derive_refuses_an_invalid_object(tmp_path):
    h = hand_written(tmp_path, bad_kxk(), "kxk")
    with pytest.raises(RegistryError, match="violates"):
        derive(Registry(tmp_path), h)
    res = cli(tmp_path, "derive", "kxk")
    assert res.exit_code == 2 and "violates 4 axiom" in res.output


def test_validate_cert_rejects_an_invalid_object(tmp_path):
    # the certificate derive issued for this document before the store
    # checked axioms: the valid kxk's, with the claim moved to the bad hash
    good = Registry(tmp_path / "good")
    cert = emit_certificate(derive(good, good.store(corpus_doc("kxk"), label="kxk")))
    assert cert["status"] == ESTABLISHED and cert["steps"][0]["rule"] == "BASE-COMM"
    bad = tmp_path / "bad"
    cert["claim"]["hash"] = hand_written(bad, bad_kxk(), "kxk")
    ok, status, problems = validate_cert(cert, Registry(bad))
    assert not ok and status in _GRADE and status != ESTABLISHED
    assert problems and all("object kxk violates 4 axiom" in p for p in problems)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    res = cli(bad, "validate-cert", str(path))
    assert res.exit_code == 1 and not json.loads(res.output)["valid"]


@pytest.mark.parametrize("args", [("build", "covering", "kxk"),
                                  ("build", "deg0", "kxk"),
                                  ("pd", "kxk"),
                                  ("nilpotency", "kxk")])
def test_commands_exit_2_on_an_invalid_stored_object(tmp_path, args):
    hand_written(tmp_path, bad_kxk(), "kxk")
    res = cli(tmp_path, *args)
    assert res.exit_code == 2 and "violates 4 axiom" in res.output


def test_invalid_file_argument_exits_2_but_check_reports_it(tmp_path):
    path = tmp_path / "kxk.json"
    path.write_text(json.dumps(bad_kxk()))
    store = tmp_path / "store"
    res = cli(store, "build", "covering", str(path))
    assert res.exit_code == 2 and "violates 4 axiom" in res.output
    assert len(Registry(store)) == 0
    res = cli(store, "check", str(path))
    assert res.exit_code == 1
    assert json.loads(res.output)["violation_count"] == 4


def test_derive_accepts_a_file_path(tmp_path):
    path = tmp_path / "kxkxk.json"
    path.write_text(json.dumps(corpus_doc("kxkxk")))
    res = cli(tmp_path / "store", "derive", str(path))
    assert res.exit_code == 0, res.output
    cert = json.loads(res.output)
    assert cert["status"] == ESTABLISHED and cert["claim"]["label"] == "kxkxk"


# not JSON, then JSON of the wrong shape: not an object, no "objects" map,
# a list for the map, an entry that is not an object with a file; then
# entries whose provenance is not an object, has no construction name or
# inputs that are not a list of hashes, and an entry whose label is not a
# string
BAD_ENTRIES = [{"provenance": [1, 2]}, {"provenance": {"inputs": []}},
               {"provenance": {"construction": "covering_ring", "inputs": "abc"}},
               {"provenance": {"construction": "covering_ring", "inputs": [1]}},
               {"label": 5}]
CORRUPT_INDEXES = ["{nope", "[]", '{"x": 1}', '{"objects": []}', '{"objects": {"abc": 5}}'] + [
    json.dumps({"objects": {"abc": dict(file="objects/abc.json", **e)}}) for e in BAD_ENTRIES]


@pytest.mark.parametrize("args", [("corpus-load",), ("pd", "kxk-arrow"), ("derive", "kxk")])
def test_corrupt_index_exits_2(tmp_path, args):
    for n, body in enumerate(CORRUPT_INDEXES):
        store = tmp_path / str(n)
        store.mkdir()
        (store / "index.json").write_text(body)
        res = cli(store, *args)
        assert res.exit_code == 2 and "corrupt index" in res.output, body


def test_store_refuses_a_document_with_malformed_provenance(tmp_path):
    # provenance is outside the hash, so the store checks its shape before
    # writing it into the index
    doc = dict(corpus_doc("kxkxk"), provenance=[1, 2])
    with pytest.raises(RegistryError, match="malformed provenance"):
        Registry(tmp_path / "store").store(doc, label="kxkxk")
    path = tmp_path / "kxkxk.json"
    path.write_text(json.dumps(doc))
    res = cli(tmp_path / "store", "derive", str(path))
    assert res.exit_code == 2 and "malformed provenance" in res.output, res.output
    assert len(Registry(tmp_path / "store")) == 0


def test_huge_prime_is_refused_quickly(tmp_path):
    # trial division on 2^521 - 1 would run for ever; the size cap comes first
    doc = corpus_doc("kxk")
    doc["field"]["p"] = 2 ** 521 - 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    src = str(pathlib.Path(injgen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "injgen.cli", "--store",
                           str(tmp_path / "store"), "check", str(path)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2 and "too large" in proc.stderr


# -- caller-supplied data that only the output checks used to catch --------------


def k_over(group, degree):
    return GradedAlgebra(F5, group, ["1"], [degree], [1], [[{0: 1}]])


def line(A, degree):
    """k as a bimodule over k, in the given degree."""
    return GradedBimodule(A, A, ["v"], [degree], [[{0: 1}]], [[{0: 1}]])


# 1 x 1 pairing tables; their rows are the one-column tuple maps
ONE, ZERO = [[{0: 1}]], [[{}]]


def test_ill_graded_context_pairings_are_rejected():
    k = k_over(Z2, (0,))
    N, M = line(k, (1,)), line(k, (0,))
    # psi sends n m (degree 1) to a (degree 0); phi sends m n likewise to b
    with pytest.raises(ConstructionError,
                       match=r"context ring fails product-grading at \(n:v, m:v, a:1\)"):
        morita_ring(k, k, N, M, ONE, ONE)
    with pytest.raises(ConstructionError,
                       match=r"context ring fails product-grading at \(n:v, m:v, a:1\)"):
        morita_ring(k, k, N, M, ZERO, ONE)
    with pytest.raises(ConstructionError,
                       match=r"context ring fails product-grading at \(m:v, n:v, b:1\)"):
        morita_ring(k, k, N, M, ONE, ZERO)
    # forgetting the grading leaves a valid context
    k0 = k_over(TRIVIAL_GROUP, ())
    ctx = morita_ring(k0, k0, line(k0, ()), line(k0, ()), ONE, ONE)
    assert check_axioms(ctx.assembled).passed


def test_ill_graded_tuple_maps_are_rejected():
    k = k_over(Z2, (0,))

    def module(degree):
        return GradedModule(k, "left", ["v"], [degree], [[{0: 1}]])

    ctx = morita_ring(k, k, line(k, (0,)), line(k, (0,)))
    with pytest.raises(ConstructionError,
                       match=r"tuple module fails action-grading at \(x:v, m:v, y:v\)"):
        tuple_module(ctx, module((0,)), module((1,)), ONE, ZERO)
    ctx = morita_ring(k, k, line(k, (1,)), line(k, (0,)))
    with pytest.raises(ConstructionError,
                       match=r"tuple module fails action-grading at \(y:v, n:v, x:v\)"):
        tuple_module(ctx, module((0,)), module((0,)), ZERO, ONE)
    # the same maps between modules of matching degrees form a tuple
    ctx = morita_ring(k, k, line(k, (0,)), line(k, (0,)))
    t = tuple_module(ctx, module((0,)), module((0,)), ONE, ZERO)
    assert check_axioms(t.as_module()).passed


def test_twisted_module_rejects_a_foreign_carrier():
    A = group_algebra(F5, Z2)
    t = Bicharacter(F5, Z2, Z2, [[4]])
    R = regular_module(A, "right")
    with pytest.raises(ConstructionError, match="twisted product"):
        twisted_module(R, R, t, tensor_product_algebra(A, A))
    assert check_axioms(twisted_module(R, R, t, twisted_tensor(A, A, t))).passed
