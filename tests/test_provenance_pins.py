"""Each `build` subcommand writes one provenance record and one hash.

A case starts from a fresh store that holds only the inputs it names:
corpus objects, the four pieces cut from the covering of kz2, the right
regular module of kz2 and that module viewed over the covering.  It runs
one build command, then reads back the record stored with the result
(from the object file and from the index) and the result's content hash.
Records are compared as canonical JSON, so `true` never passes for `1`.
"""

import json

import pytest
from click.testing import CliRunner

from injgen.algebra import regular_module
from injgen.bundled import corpus_docs
from injgen.cli import main
from injgen.constructions import covering_module, covering_ring, split_covering
from injgen.registry import Registry
from injgen.serialize import from_json, to_json

THETA = [[0] * 9, [0] * 9, [0, 1, 0, 0, 0, 0, 0, 0, 0]]
Z2 = {"invariant_factors": [2]}

# (case, inputs to store, command, construction, input labels, params, hash)
PINS = [
    ("covering", ["kz2"], ["covering", "kz2"],
     "covering_ring", ["kz2"], None,
     "a24d4bc506fdc23da4454b63a3da353cb3ffbf64cf8bf615ce4460b18a09a65d"),
    ("module-cover", ["kz2", "kz2-cover", "kz2-mod"],
     ["module-cover", "kz2-mod", "kz2-cover"],
     "covering_module", ["kz2-mod", "kz2-cover"], None,
     "14d5f527e183067f9c8b32531eb750ee2ed8d02e5394611bd677f9dabbb3ba72"),
    ("module-uncover", ["kz2", "kz2-cover", "kz2-mod:covered"],
     ["module-uncover", "kz2-mod:covered", "kz2-cover"],
     "covering_module_inverse", ["kz2-mod:covered", "kz2-cover"], None,
     "9beb29d9e4af9914e80ef89c51a7b3282e86ff55575fa7d42baec73fb4b1a963"),
    ("morita-zero", ["kxk", "kxk-zero-bim", "kxk-arrow"],
     ["morita", "kxk", "kxk", "kxk-zero-bim", "kxk-arrow"],
     "morita_ring", ["kxk", "kxk", "kxk-zero-bim", "kxk-arrow"],
     {"zero_context": True},
     "deb56db9cc8e79471d7312dbe68e6ff780172a7e678a9b216f2ff72b71126a05"),
    ("morita-phi", ["s:A", "s:B", "s:N", "s:M"],
     ["morita", "s:A", "s:B", "s:N", "s:M", "--phi", "[[1]]", "--psi", "[[1]]"],
     "morita_ring", ["s:A", "s:B", "s:N", "s:M"],
     {"phi": [[1]], "psi": [[1]], "zero_context": False},
     "f275b365b45a8039c891ad22f483ab34bd1ad2b3b89785816d86900b961666d8"),
    ("split", ["kz2", "kz2-cover"], ["split", "kz2-cover", "--label", "s"],
     "morita_ring", ["s:A", "s:B", "s:N", "s:M"],
     {"phi": [[1]], "psi": [[1]], "zero_context": False},
     "f275b365b45a8039c891ad22f483ab34bd1ad2b3b89785816d86900b961666d8"),
    ("tensor-ring", ["kxk", "kxk-arrow"],
     ["tensor-ring", "kxk", "kxk-arrow", "-k", "2"],
     "tensor_ring", ["kxk", "kxk-arrow"], {"nilpotency_index": 2},
     "763af91e00d46f301a5e452b505bc53dd665287c3df44d2edbc8b73c1f4facde"),
    ("theta", ["a3-r0", "a3-pos"],
     ["theta", "a3-r0", "a3-pos", "--theta", json.dumps(THETA)],
     "theta_extension", ["a3-r0", "a3-pos"], {"theta": THETA},
     "218bc55abdb830113468657ee6984249e0a2096427731ecce7eb2e558ac71766"),
    ("theta-zero", ["a3-r0", "a3-pos"], ["theta", "a3-r0", "a3-pos"],
     "theta_extension", ["a3-r0", "a3-pos"], None,
     "f7197cdac4c952cc239b862455ae6bb5bb671b8e5623760b3fef75b70204ad9e"),
    ("trivial-ext", ["kxk", "kxk-arrow"], ["trivial-ext", "kxk", "kxk-arrow"],
     "trivial_extension", ["kxk", "kxk-arrow"], None,
     "f577640dadcb9dafdcd866d791842e13a23f377a449ee76516215449d18b4200"),
    ("twisted-one", ["kz2-f3"], ["twisted", "kz2-f3", "kz2-f3"],
     "twisted_tensor", ["kz2-f3", "kz2-f3"],
     {"t": {"group1": Z2, "group2": Z2, "values": [[1]]}},
     "eab4082b5895b3bdcf12e6d2085ca18698fadfe345e04784a1cc122607013819"),
    ("twisted-values", ["kz2-f3"],
     ["twisted", "kz2-f3", "kz2-f3", "--t", "[[2]]"],
     "twisted_tensor", ["kz2-f3", "kz2-f3"],
     {"t": {"group1": Z2, "group2": Z2, "values": [[2]]}},
     "363b1d017d8e47ea8b38705203347be29c115f5fd45aec02c534da92fbe490ec"),
    ("beilinson", ["kx3-z8"], ["beilinson", "kx3-z8", "--level", "2"],
     "beilinson", ["kx3-z8"], {"level": 2},
     "02618177b99887225bd53ee0f7603982f48abc27811d1e200e14fa8b4a46ea1a"),
    ("deg0", ["a3-graded"], ["deg0", "a3-graded"],
     "degree_zero_subalgebra", ["a3-graded"], None,
     "b988199968d58ba7b1ef5ab62d324a739d9b117e4fe6d26f87197fce2ef1e392"),
]


def _documents():
    """label -> document for the corpus and the extra inputs."""
    docs = dict(corpus_docs())
    kz2 = from_json(docs["kz2"])
    cov = covering_ring(kz2)
    ctx = split_covering(cov)
    for piece in "ABNM":
        docs[f"s:{piece}"] = to_json(getattr(ctx, piece))
    M = regular_module(kz2, "right")
    docs["kz2-mod"] = to_json(M)
    docs["kz2-mod:covered"] = to_json(covering_module(M, cov))
    return docs


def _canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("case", PINS, ids=[p[0] for p in PINS])
def test_build_records_pinned_provenance(tmp_path, case):
    _name, stored, command, construction, inputs, params, pinned = case
    docs = _documents()
    root = tmp_path / "store"
    reg = Registry(root)
    hashes = {label: reg.store(docs[label], label=label) for label in stored}
    result = CliRunner().invoke(main, ["--store", str(root), "build", *command])
    assert result.exit_code == 0, result.output
    h = result.output.strip().splitlines()[-1].split()[0]
    reg = Registry(root)
    hashes.update({reg.label_of(x): x for x in reg.entries()})
    expected = {"construction": construction,
                "inputs": [hashes[label] for label in inputs]}
    if params is not None:
        expected["params"] = params
    written = json.loads((root / "objects" / f"{h}.json").read_text())
    assert _canonical(written["provenance"]) == _canonical(expected)
    assert _canonical(reg.entry(h)["provenance"]) == _canonical(expected)
    assert h == pinned
