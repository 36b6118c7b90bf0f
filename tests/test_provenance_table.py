"""The provenance table: one place turns a record into a construction.

Rebuilds go through constructions.RECIPES, which looks each construction
up by its module-global name when it runs; the rules read what they need
from the rebuilt data, never from a recorded flag.
"""

import pytest

from injgen import cli, constructions
from injgen.bundled import corpus_docs, load_corpus
from injgen.constructions import construct, covering_ring, reconstruct, split_covering
from injgen.reduction import RULES_BY_ID, Env, derive
from injgen.registry import Registry
from injgen.serialize import SerializeError, from_json, provenance_record


@pytest.fixture()
def store(tmp_path):
    reg = Registry(tmp_path / "store")
    return reg, load_corpus(reg)


def _spy(monkeypatch, name):
    calls = []
    real = getattr(constructions, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(constructions, name, spy)
    return calls


def _rules_used(tree):
    if tree.step is None:
        return set()
    return {tree.step["rule"]}.union(*(_rules_used(t) for t in tree.step["premises"]))


def test_rebuilds_call_the_construction_by_its_module_name(store, monkeypatch):
    reg, labels = store
    calls = _spy(monkeypatch, "covering_ring")
    built, err = Env(reg).rebuild(labels["kz2-cover"])
    assert err is None and len(calls) == 1
    opts = cli.Options(str(reg.root), None, None, 17, False, None)
    h, cov = cli._covering_of(opts, "kz2-cover")
    assert h == labels["kz2-cover"] and len(calls) == 2
    assert cov.algebra == built.obj


@pytest.mark.parametrize("label", ["morita-demo", "kxk"])
def test_a_context_is_built_once_per_derivation(store, monkeypatch, label):
    reg, labels = store
    calls = _spy(monkeypatch, "morita_ring")
    derive(reg, labels[label])
    assert len(calls) == 1


def test_forged_zero_context_flag_is_not_trusted(tmp_path):
    # the split of the covering of kz2 pairs N and M nontrivially, but its
    # record claims a zero context; the hash still rebuilds
    reg = Registry(tmp_path / "store")
    ctx = split_covering(covering_ring(from_json(dict(corpus_docs())["kz2"])))
    assert not ctx.is_zero_context
    pieces = [reg.store_object(getattr(ctx, p), label=f"s:{p}") for p in "ABNM"]
    forged = provenance_record("morita_ring", pieces, {
        "phi": [[1]], "psi": [[1]], "zero_context": True})
    h = reg.store_object(ctx.assembled, label="s", provenance=forged)
    for target in (h, pieces[0]):
        tree = derive(reg, target)
        assert tree.status
        assert "R-MOR" not in _rules_used(tree)
        assert RULES_BY_ID["R-MOR"].edges(Env(reg), target) == []
        assert RULES_BY_ID["R-TRI"].edges(Env(reg), target) == []


def test_integrity_compares_the_recorded_params(tmp_path):
    # the split of the covering of kz2 stored under its honest morita_ring
    # record, under that record plus a junk param, and under a record whose
    # zero_context flag disagrees with its pairings: all three rebuild the
    # hash, only the honest one is verified, with unchanged evidence
    ctx = split_covering(covering_ring(from_json(dict(corpus_docs())["kz2"])))
    honest = None
    for n, change in enumerate(({}, {"junk": 1}, {"zero_context": True})):
        reg = Registry(tmp_path / f"store{n}")
        pieces = [reg.store_object(getattr(ctx, p), label=f"s:{p}") for p in "ABNM"]
        record = constructions.Built("morita_ring", ctx).provenance(pieces)
        honest = honest or dict(record["params"])
        record["params"].update(change)
        h = reg.store_object(ctx.assembled, label="s", provenance=record)
        hyp = Env(reg).integrity_hyp(h)
        if not change:
            assert hyp["status"] == "verified"
            assert hyp["evidence"] == {"expected": h, "rebuilt": h}
        else:
            assert hyp["status"] == "refuted"
            assert hyp["evidence"] == {"expected": h, "rebuilt": h, "params": honest}
    assert honest["zero_context"] is False


@pytest.mark.parametrize("name, ins, params", [
    ("no_such_construction", [], None),
    ("covering_ring", [], None),
    ("tensor_ring", ["kxk", "kxk-arrow"], None),
    ("tensor_ring", ["kxk", "kxk-arrow"], {"nilpotency_index": "2"}),
    ("tensor_ring", ["kxk", "kxk-arrow"], {"nilpotency_index": True}),
    ("beilinson", ["kx3-z8"], {"level": 2.0}),
    ("theta_extension", ["a3-r0", "a3-pos"], {"theta": [[2]]}),
    ("theta_extension", ["a3-r0", "a3-pos"], {"theta": "zero"}),
    ("morita_ring", ["kxk", "kxk", "kxk-zero-bim", "kxk-arrow"], {"phi": [[1], [1, 2]]}),
    ("morita_ring", ["kxk", "kxk", "kxk-zero-bim", "kxk-arrow"], [1]),
    ("twisted_tensor", ["kz2-f3", "kz2-f3"], {"t": [2]}),
    ("twisted_tensor", ["kz2-f3", "kz2-f3"], {"t": {"values": [2]}}),
    ("twisted_tensor", ["kz2-f3", "kz2-f3"], {"t": {"values": [[2, 2]]}}),
    ("twisted_tensor", ["kz2-f3", "kz2-f3"],
     {"t": {"group1": {"invariant_factors": [4]}, "values": [[2]]}}),
])
def test_malformed_params_raise_serialize_error(name, ins, params):
    objs = {label: from_json(doc) for label, doc in corpus_docs()}
    with pytest.raises(SerializeError):
        construct(name, [objs[i] for i in ins], params)


def test_reconstruct_rejects_a_malformed_record():
    for record in (None, {"construction": "covering_ring"},
                   {"construction": "covering_ring", "inputs": "ab"}):
        with pytest.raises(SerializeError):
            reconstruct(record, lambda h: None)
