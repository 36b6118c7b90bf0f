"""One codec for stored documents, against the six per-kind functions it
replaces.

serialize.to_json and serialize.from_json write and read the shared keys
of every kind once; serialize_reference keeps the per-kind functions they
replaced.  Encoding must give equal documents, keys in the same order, on
the corpus and on seeded draws.  Decoding must give an equal object, or
the same exception type and message, on every corpus document mutated one
field at a time and two top-level fields at a time (which is what shows
the order in which keys are checked and nested algebras decoded).  The
only differences allowed are the strict header refusals listed in
REFUSALS.
"""

import itertools
import random

import serialize_reference as ref
from injgen.algebra import regular_bimodule, regular_module
from injgen.bundled import corpus_docs
from injgen.field import QQ, PrimeField
from injgen.samples import random_graded_algebra, random_module
from injgen.serialize import SerializeError, from_json, to_json

DOCS = dict(corpus_docs())
VALUES = (None, {}, [], "x", 0, True, 1.5)

# (field name on a mutated path, start of the refusal, reason): the
# per-kind decoders read each of these loosely, so a document of that shape
# was filed under its own hash though its object re-encodes to another one.
# A shape of the field that they refused with another message now gets
# this one.
REFUSALS = [
    ("invariant_factors", "bad algebra document: invariant_factors must be a list of integers",
     "a string of digits split into factors, and booleans and floats counted as integers"),
    ("basis", "basis must be a list of strings",
     "a string split into one-character labels, and labels of other types turned into strings"),
    ("degree", "degree must be a list of group elements",
     "a string split into characters, and strings, floats and booleans taken as residues"),
    ("unit", "unit must be a list",
     "a string split into one-character scalars, and a mapping read as its keys"),
]


def outcome(decode, doc):
    try:
        return decode(doc)
    except Exception as e:
        return (type(e), str(e))


def put(doc, path, value=None, delete=False):
    """A copy of doc with the value at path replaced, or deleted; only the
    containers along the path are copied."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    if rest:
        out[head] = put(doc[head], rest, value, delete)
    elif delete:
        del out[head]
    else:
        out[head] = value
    return out


def nodes(x, path=()):
    """Every path into x, with the value there."""
    yield path, x
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield from nodes(v, path + (k,))


def single_mutants(doc):
    """(paths, mutant): each key deleted, each value replaced by each of
    VALUES, each list shortened by one element."""
    for path, x in nodes(doc):
        if path and isinstance(path[-1], str):
            yield [path], put(doc, path, delete=True)
        for v in VALUES:
            yield [path], put(doc, path, v)
        if isinstance(x, list) and x:
            yield [path], put(doc, path, x[:-1])


def pair_mutants(doc):
    """(paths, mutant): every two keys of the document and of its nested
    algebras deleted together, or both set to null."""
    keys = [(k,) for k in doc] + [(k, j) for k, v in doc.items()
                                  if k.endswith("algebra") and isinstance(v, dict) for j in v]
    for p, q in itertools.combinations(keys, 2):
        if q[:len(p)] == p:
            continue
        yield [p, q], put(put(doc, p, delete=True), q, delete=True)
        yield [p, q], put(put(doc, p), q)


def both_actions(doc):
    """A module document given its action under the other key too."""
    for key, other in (("action_left", "action_right"), ("action_right", "action_left")):
        if "algebra" in doc and key in doc:
            yield [(other,)], {**doc, other: doc[key]}


def refusal(paths, new):
    """The REFUSALS class that allows new on a mutant at paths, if any."""
    if not (isinstance(new, tuple) and new[0] is SerializeError):
        return None
    for name, message, _reason in REFUSALS:
        if new[1].startswith(message) and any(name in p for p in paths):
            return name
    return None


def test_decoding_matches_the_reference_on_mutated_corpus_documents():
    seen, refused = 0, dict.fromkeys([name for name, _m, _r in REFUSALS], 0)
    for label, doc in DOCS.items():
        mutants = itertools.chain([([()], doc)], single_mutants(doc), pair_mutants(doc),
                                  both_actions(doc))
        for paths, mutant in mutants:
            old, new = outcome(ref.from_json, mutant), outcome(from_json, mutant)
            seen += 1
            if old == new:
                continue
            name = refusal(paths, new)
            assert name is not None, (label, paths, old, new)
            refused[name] += 1
    assert seen > 10_000
    assert all(refused.values()), refused


def draws():
    """Seeded random algebras over F_2, F_5 and Q, with their regular and
    random modules on both sides and their regular bimodules."""
    rng = random.Random(29)
    for field in (PrimeField(2), PrimeField(5), QQ):
        for _ in range(12):
            A = random_graded_algebra(field, rng, max_dim=6, max_group=6)
            yield A
            yield regular_bimodule(A)
            for side in ("left", "right"):
                yield regular_module(A, side)
                yield random_module(A, rng, side)


def test_encoding_matches_the_reference():
    objs = list(draws())
    assert len(objs) >= 200
    for label, doc in DOCS.items():
        obj = ref.from_json(doc)
        objs.append(obj)
        new = to_json(obj, doc.get("provenance"))
        assert new == doc, label
    for obj in objs:
        new, old = to_json(obj), ref.to_json(obj)
        assert new == old and list(new) == list(old)
        for key in ("algebra", "left_algebra", "right_algebra"):
            if key in new:
                assert list(new[key]) == list(old[key])
        assert from_json(new) == ref.from_json(old) == obj

