"""JSON forms for algebras, modules, and bimodules, plus content hashing.

to_json and from_json are the one codec for stored documents.  Each has
the shared keys "field", "group" (its ring's, the left one's for a
bimodule), "basis" and "degree"; a module nests its algebra as "algebra",
a bimodule its two as "left_algebra" and "right_algebra".  Kinds are told
apart by their tables: "mult" marks an algebra, both "action_left" and
"action_right" mark a bimodule, exactly one of them a one-sided module.
Scalars serialize through the field's enc/dec pair (residue integers for
F_p, "a/b" strings for Q).  from_json refuses invariant factors or degrees
that are not lists of integers (booleans are not), a basis that is not a
list of strings and a unit that is not a list.

The content hash is the sha256 of the canonical bytes (sorted keys,
tight separators) with the top-level "provenance" key removed, so two
routes to the same structure constants collide on purpose.
"""

from __future__ import annotations

import hashlib
import json

from .algebra import GradedAlgebra, GradedBimodule, GradedModule
from .field import FieldError, field_from_json
from .groups import FiniteAbelianGroup


class SerializeError(Exception):
    pass


def _cells_out(field, cell: dict):
    return [[k, field.enc(c)] for k, c in sorted(cell.items())]


def _cells_in(field, lst, dim):
    if not isinstance(lst, list):
        raise SerializeError(f"sparse cell must be a list, got {type(lst).__name__}")
    out = {}
    for pair in lst:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SerializeError(f"sparse entry must be [index, coeff], got {pair!r}")
        k, c = pair
        if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k < dim:
            raise SerializeError(f"basis index {k!r} out of range for dim {dim}")
        if k in out:
            raise SerializeError(f"duplicate basis index {k} in sparse cell")
        out[k] = field.dec(c)
    return out


def _table_out(field, table):
    return [[_cells_out(field, cell) for cell in row] for row in table]


def _table_in(field, table, dim):
    if not isinstance(table, list):
        raise SerializeError("action/mult table must be a list of lists")
    return [[_cells_in(field, cell, dim) for cell in row] for row in table]


def _degrees_in(degs):
    if not (isinstance(degs, list) and all(isinstance(d, list) for d in degs)
            and all(type(x) is int for d in degs for x in d)):
        raise SerializeError("degree must be a list of group elements")
    return [tuple(d) for d in degs]


def _strings(x, what, size=None):
    """x if it is a list of strings, of the given size if one is given."""
    if (isinstance(x, list) and all(isinstance(s, str) for s in x)
            and size in (None, len(x))):
        return x
    raise SerializeError(f"{what}, got {x!r:.60}")


def to_json(obj, provenance=None) -> dict:
    """The document of an algebra, module or bimodule: the shared keys, the
    nested algebras its tables are over, then those tables."""
    if isinstance(obj, GradedAlgebra):
        ring, rings = obj, {}
        tables = {"unit": [obj.field.enc(c) for c in obj.unit],
                  "mult": _table_out(obj.field, obj.mult)}
    elif isinstance(obj, GradedBimodule):
        ring, R = obj.left_algebra, obj.right_algebra
        rings = {"left_algebra": ring, "right_algebra": R}
        tables = {"action_left": _table_out(ring.field, obj.left_action),
                  "action_right": _table_out(R.field, obj.right_action)}
    elif isinstance(obj, GradedModule):
        ring = obj.algebra
        rings = {"algebra": ring}
        key = "action_right" if obj.side == "right" else "action_left"
        tables = {key: _table_out(ring.field, obj.action)}
    else:
        raise SerializeError(f"cannot serialize {type(obj).__name__}")
    doc = {"field": ring.field.to_json(), "group": ring.group.to_json(),
           **{k: to_json(A) for k, A in rings.items()},
           "basis": list(obj.labels), "degree": [list(d) for d in obj.degree],
           **tables}
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def object_kind(doc: dict) -> str:
    if not isinstance(doc, dict):
        raise SerializeError("document must be a JSON object")
    if "mult" in doc:
        return "algebra"
    left, right = "action_left" in doc, "action_right" in doc
    if left and right:
        return "bimodule"
    if left or right:
        return "module"
    raise SerializeError("document has none of the keys mult/action_left/action_right")


def _require(doc, *keys):
    for k in keys:
        if k not in doc:
            raise SerializeError(f"missing key {k!r}")


def from_json(doc: dict):
    """The algebra, module or bimodule of a document, by object_kind."""
    return _decode(doc, object_kind(doc))


def _decode(doc, kind):
    """The object of a document of the given kind: its keys are checked in
    order, then its nested algebras decoded, then its own fields read."""
    if kind == "algebra":
        keys = ("field", "group", "basis", "degree", "unit", "mult")
    elif kind == "module":
        side = "right" if "action_right" in doc else "left"
        keys = ("algebra", "basis", "degree", "action_" + side)
    else:
        keys = ("left_algebra", "right_algebra", "basis", "degree", "action_left", "action_right")
    _require(doc, *keys)
    rings = [_decode(doc[k], "algebra") for k in keys if k.endswith("algebra")]
    try:
        if kind == "algebra":
            field = field_from_json(doc["field"])
            group = FiniteAbelianGroup.from_json(doc["group"])
        labels = _strings(doc["basis"], "basis must be a list of strings")
        degree = _degrees_in(doc["degree"])
        n = len(labels)
        if kind == "algebra":
            if not isinstance(doc["unit"], list):
                raise SerializeError(f"unit must be a list, got {doc['unit']!r:.60}")
            return GradedAlgebra(field, group, labels, degree, [field.dec(c) for c in doc["unit"]],
                                 _table_in(field, doc["mult"], n))
        if kind == "module":
            (A,) = rings
            return GradedModule(A, side, labels, degree,
                                _table_in(A.field, doc["action_" + side], n))
        L, R = rings
        return GradedBimodule(L, R, labels, degree, _table_in(L.field, doc["action_left"], n),
                              _table_in(R.field, doc["action_right"], n))
    except SerializeError:
        raise
    except Exception as e:  # field, scalar and constructor shape errors
        raise SerializeError(f"bad {kind} document: {e}") from e


def canonical_bytes(doc: dict) -> bytes:
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as e:
        raise SerializeError(f"document is not canonical JSON: {e}") from e


def content_hash(doc: dict) -> str:
    if not isinstance(doc, dict):
        raise SerializeError("document must be a JSON object")
    body = {k: v for k, v in doc.items() if k != "provenance"}
    return hashlib.sha256(canonical_bytes(body)).hexdigest()


def object_hash(obj) -> str:
    return content_hash(to_json(obj))


def provenance_record(construction: str, inputs, params=None) -> dict:
    rec = {"construction": str(construction), "inputs": list(inputs)}
    if params:
        rec["params"] = params
    return rec


def matrix_to_json(field, mat) -> list:
    return [[field.enc(c) for c in row] for row in mat.rows]


def matrix_from_json(field, rows, ncols: int):
    from .linalg import Matrix
    try:
        decoded = [[field.dec(c) for c in row] for row in rows]
        return Matrix(field, decoded, ncols)
    except (FieldError, TypeError, ValueError) as e:
        raise SerializeError(f"bad matrix: {e}") from e
