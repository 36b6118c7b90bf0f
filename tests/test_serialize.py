import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import injgen
from injgen.algebra import GradedBimodule, regular_module, twist
from injgen.field import PrimeField, QQ
from injgen.groups import FiniteAbelianGroup
from injgen.linalg import Matrix
from injgen.registry import Registry, RegistryError
from injgen.samples import (group_algebra, product_field_algebra,
                            truncated_polynomial)
from injgen.serialize import (SerializeError, canonical_bytes, content_hash,
                              from_json, matrix_from_json, matrix_to_json,
                              object_hash, object_kind, provenance_record,
                              to_json)

F5 = PrimeField(5)
Z2 = FiniteAbelianGroup((2,))
Z4 = FiniteAbelianGroup((4,))


def arrow_bimodule(kk):
    one = kk.field.one()
    return GradedBimodule(kk, kk, ["b"], [()],
                          [[{0: one}, {}]], [[{}, {0: one}]])


# -- round trips ---------------------------------------------------------------


def test_algebra_round_trip_prime_field():
    A = truncated_polynomial(F5, 3, Z4, (1,))
    doc = to_json(A)
    assert object_kind(doc) == "algebra"
    B = from_json(doc)
    assert B == A
    assert to_json(B) == doc


def test_algebra_round_trip_rationals():
    A = product_field_algebra(QQ, 3)
    doc = to_json(A)
    assert doc["field"] == {"kind": "q"}
    # rational scalars serialize as strings
    assert all(isinstance(c, str) for row in doc["mult"]
               for cell in row for _i, c in cell)
    assert from_json(doc) == A


def test_module_round_trip_both_sides():
    A = group_algebra(F5, Z2)
    for side in ("left", "right"):
        M = twist(regular_module(A, side), (1,))
        doc = to_json(M)
        key = "action_left" if side == "left" else "action_right"
        assert key in doc and object_kind(doc) == "module"
        N = from_json(doc)
        assert N.side == side and N == M


def test_bimodule_round_trip():
    kk = product_field_algebra(F5, 2)
    W = arrow_bimodule(kk)
    doc = to_json(W)
    assert object_kind(doc) == "bimodule"
    assert from_json(doc) == W


def test_matrix_round_trip():
    m = Matrix(F5, [[F5.of_int(1), F5.of_int(2)], [F5.of_int(0), F5.of_int(4)]])
    rows = matrix_to_json(F5, m)
    assert rows == [[1, 2], [0, 4]]
    back = matrix_from_json(F5, rows, 2)
    assert back.rows == m.rows


def test_matrix_from_json_checks_the_column_count():
    with pytest.raises(SerializeError, match="2 columns, not 1"):
        matrix_from_json(PrimeField(5), [[1, 2]], 1)
    assert matrix_from_json(F5, [], 3).ncols == 3


# -- canonical hashing ---------------------------------------------------------


def test_hash_stable_under_reserialization():
    A = truncated_polynomial(F5, 2, Z2, (1,))
    doc = to_json(A)
    h1 = content_hash(doc)
    rebuilt = json.loads(canonical_bytes(doc).decode())
    assert content_hash(rebuilt) == h1
    assert object_hash(from_json(doc)) == h1


def test_hash_ignores_provenance():
    A = product_field_algebra(F5, 2)
    bare = to_json(A)
    tagged = to_json(A, provenance=provenance_record("x", ["0" * 64]))
    assert content_hash(bare) == content_hash(tagged)
    assert canonical_bytes(bare) != canonical_bytes(tagged)


def test_hash_sensitive_to_content():
    a = to_json(product_field_algebra(F5, 2))
    b = to_json(product_field_algebra(F5, 3))
    assert content_hash(a) != content_hash(b)


# -- malformed documents -------------------------------------------------------


def test_rejects_unknown_kind():
    with pytest.raises(SerializeError):
        from_json({"field": {"kind": "fp", "p": 5}, "basis": []})


def test_rejects_module_with_both_actions():
    A = group_algebra(F5, Z2)
    doc = to_json(regular_module(A, "right"))
    doc["action_left"] = doc["action_right"]
    with pytest.raises(SerializeError):
        from_json(doc)


def test_rejects_bad_scalars_and_indices():
    A = product_field_algebra(F5, 2)
    doc = to_json(A)
    bad = json.loads(json.dumps(doc))
    bad["mult"][0][0] = [[7, 1]]       # basis index out of range
    with pytest.raises(SerializeError):
        from_json(bad)
    bad = json.loads(json.dumps(doc))
    bad["mult"][0][0] = [[0, 1], [0, 2]]   # duplicate index in one cell
    with pytest.raises(SerializeError):
        from_json(bad)
    bad = json.loads(json.dumps(doc))
    bad["mult"][0][0] = [[0, "x"]]
    with pytest.raises(SerializeError):
        from_json(bad)


def test_rejects_missing_field():
    with pytest.raises(SerializeError):
        from_json({"basis": [], "mult": []})


# -- registry ------------------------------------------------------------------


def test_registry_store_load_resolve(tmp_path):
    reg = Registry(tmp_path / "store")
    A = truncated_polynomial(F5, 2, Z2, (1,))
    h = reg.store_object(A, label="dn")
    assert h in reg and len(reg) == 1
    assert reg.load(h) == A
    assert reg.resolve("dn") == h
    assert reg.resolve(h[:8]) == h
    assert reg.label_of(h) == "dn"
    with pytest.raises(RegistryError):
        reg.resolve("nothere")
    with pytest.raises(RegistryError):
        reg.resolve(h[:4])      # prefixes shorter than 6 chars don't resolve
    with pytest.raises(RegistryError):
        reg.resolve(h[:5])
    assert reg.resolve(h[:6]) == h


def test_registry_survives_reopen(tmp_path):
    root = tmp_path / "store"
    A = product_field_algebra(F5, 2)
    h = Registry(root).store_object(A, label="kxk")
    reg = Registry(root)
    assert reg.resolve("kxk") == h
    assert reg.load(h) == A


def test_registry_detects_tampered_file(tmp_path):
    reg = Registry(tmp_path / "store")
    h = reg.store_object(product_field_algebra(F5, 2), label="a")
    path = tmp_path / "store" / "objects" / f"{h}.json"
    doc = json.loads(path.read_text())
    doc["basis"] = ["z1", "z2"]
    path.write_text(json.dumps(doc))
    with pytest.raises(RegistryError):
        reg.load_doc(h)


def test_registry_provenance_enrichment(tmp_path):
    # storing the same object again with provenance upgrades the bare entry
    reg = Registry(tmp_path / "store")
    A = product_field_algebra(F5, 2)
    h0 = reg.store(to_json(A), label="plain")
    prov = provenance_record("covering_ring", [h0])
    h1 = reg.store(to_json(A, provenance=prov))
    assert h1 == h0
    assert reg.entry(h0)["provenance"] == prov
    assert reg.label_of(h0) == "plain"      # first label sticks
    # the object file is rewritten with it too
    assert Registry(tmp_path / "store").load_doc(h0)["provenance"] == prov


def test_registry_leaves_the_index_alone_on_a_no_op_store(tmp_path):
    # an identical re-store, from this or another registry instance, adds
    # no entry, provenance or label, so index.json is not rewritten; a new
    # label still is written
    root = tmp_path / "store"
    index = root / "index.json"
    reg = Registry(root)
    A = product_field_algebra(F5, 2)
    h = reg.store_object(A, label="kxk")

    def state():
        st = index.stat()
        return index.read_bytes(), st.st_mtime_ns, st.st_ino

    before = state()
    assert reg.store_object(A, label="kxk") == h
    assert reg.store(to_json(A)) == h
    assert Registry(root).store_object(A, label="kxk") == h
    assert state() == before
    reg.store_object(A, label="k2")
    after = state()
    assert after[0] != before[0] and after[2] != before[2]
    assert Registry(root).label_of(h) == "k2"


def test_registry_derived_from(tmp_path):
    reg = Registry(tmp_path / "store")
    A = product_field_algebra(F5, 2)
    ha = reg.store_object(A, label="base")
    W = arrow_bimodule(A)
    hw = reg.store_object(W, label="arrow")
    from injgen.constructions import trivial_extension
    E = trivial_extension(A, W).algebra
    he = reg.store_object(E, label="ext",
                          provenance=provenance_record("trivial_extension",
                                                       [ha, hw]))
    hits = reg.derived_from(ha)
    assert [h for h, _e in hits] == [he]
    assert reg.derived_from(ha, "trivial_extension")[0][0] == he
    assert reg.derived_from(ha, "covering_ring") == []
    assert reg.derived_from(hw)[0][0] == he


# each writer opens the store, waits for the go file, then stores 20
# algebras of its own characteristic
_WRITER = """
import pathlib, sys, time
from injgen.field import PrimeField
from injgen.registry import Registry
from injgen.samples import truncated_polynomial
root, p = pathlib.Path(sys.argv[1]), int(sys.argv[2])
reg = Registry(root)
(root / f"ready{p}").touch()
while not (root / "go").exists():
    time.sleep(0.001)
for m in range(1, 21):
    reg.store_object(truncated_polynomial(PrimeField(p), m), label=f"p{p}m{m}")
"""


def test_registry_keeps_entries_of_concurrent_writers(tmp_path):
    root = tmp_path / "store"
    Registry(root)
    src = str(pathlib.Path(injgen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    primes = (5, 7)
    procs = [subprocess.Popen([sys.executable, "-c", _WRITER, str(root), str(p)],
                              env=env) for p in primes]
    try:
        deadline = time.monotonic() + 60
        while not all((root / f"ready{p}").exists() for p in primes):
            assert time.monotonic() < deadline and all(q.poll() is None for q in procs)
            time.sleep(0.001)
        (root / "go").touch()
        assert [q.wait(timeout=120) for q in procs] == [0, 0]
    finally:
        for q in procs:
            q.kill()
    reg = Registry(root)
    assert len(reg) == 40
    assert {reg.label_of(h) for h in reg.entries()} == {
        f"p{p}m{m}" for p in primes for m in range(1, 21)}
