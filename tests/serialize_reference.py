"""The stored-document codec as it was before to_json and from_json
became one codec: six per-kind functions, algebra_to_json, module_to_json,
bimodule_to_json, algebra_from_json, module_from_json and
bimodule_from_json, kept unchanged as a reference together with their
helpers and dispatchers.  The group of a document is read as the codec
read it then, by FiniteAbelianGroup(obj["invariant_factors"]), which takes
a string of digits, booleans and floats as factors.
tests/test_serialize_oracle.py compares these with injgen.serialize on the
corpus, seeded draws and mutated corpus documents.
"""

from injgen import groups
from injgen.algebra import GradedAlgebra, GradedBimodule, GradedModule
from injgen.field import field_from_json
from injgen.serialize import SerializeError, object_kind


class FiniteAbelianGroup:
    @staticmethod
    def from_json(obj):
        return groups.FiniteAbelianGroup(obj["invariant_factors"])


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


def _degrees_out(degs):
    return [list(d) for d in degs]


def _degrees_in(degs):
    if not isinstance(degs, list):
        raise SerializeError("degree must be a list of group elements")
    return [tuple(d) for d in degs]


def algebra_to_json(A: GradedAlgebra, provenance=None) -> dict:
    doc = {
        "field": A.field.to_json(),
        "group": A.group.to_json(),
        "basis": list(A.labels),
        "degree": _degrees_out(A.degree),
        "unit": [A.field.enc(c) for c in A.unit],
        "mult": _table_out(A.field, A.mult),
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def module_to_json(M: GradedModule, provenance=None) -> dict:
    key = "action_right" if M.side == "right" else "action_left"
    doc = {
        "field": M.algebra.field.to_json(),
        "group": M.algebra.group.to_json(),
        "algebra": algebra_to_json(M.algebra),
        "basis": list(M.labels),
        "degree": _degrees_out(M.degree),
        key: _table_out(M.algebra.field, M.action),
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def bimodule_to_json(W: GradedBimodule, provenance=None) -> dict:
    doc = {
        "field": W.left_algebra.field.to_json(),
        "group": W.left_algebra.group.to_json(),
        "left_algebra": algebra_to_json(W.left_algebra),
        "right_algebra": algebra_to_json(W.right_algebra),
        "basis": list(W.labels),
        "degree": _degrees_out(W.degree),
        "action_left": _table_out(W.left_algebra.field, W.left_action),
        "action_right": _table_out(W.right_algebra.field, W.right_action),
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def to_json(obj, provenance=None) -> dict:
    if isinstance(obj, GradedAlgebra):
        return algebra_to_json(obj, provenance)
    if isinstance(obj, GradedBimodule):
        return bimodule_to_json(obj, provenance)
    if isinstance(obj, GradedModule):
        return module_to_json(obj, provenance)
    raise SerializeError(f"cannot serialize {type(obj).__name__}")


def _require(doc, *keys):
    for k in keys:
        if k not in doc:
            raise SerializeError(f"missing key {k!r}")


def algebra_from_json(doc: dict) -> GradedAlgebra:
    _require(doc, "field", "group", "basis", "degree", "unit", "mult")
    try:
        field = field_from_json(doc["field"])
        group = FiniteAbelianGroup.from_json(doc["group"])
        labels = [str(s) for s in doc["basis"]]
        degree = _degrees_in(doc["degree"])
        unit = [field.dec(c) for c in doc["unit"]]
        mult = _table_in(field, doc["mult"], len(labels))
        return GradedAlgebra(field, group, labels, degree, unit, mult)
    except SerializeError:
        raise
    except Exception as e:  # field, scalar and constructor shape errors
        raise SerializeError(f"bad algebra document: {e}") from e


def module_from_json(doc: dict) -> GradedModule:
    _require(doc, "algebra", "basis", "degree")
    A = algebra_from_json(doc["algebra"])
    if "action_right" in doc and "action_left" in doc:
        raise SerializeError("one-sided module cannot carry both actions")
    side = "right" if "action_right" in doc else "left"
    key = "action_" + side
    _require(doc, key)
    try:
        labels = [str(s) for s in doc["basis"]]
        degree = _degrees_in(doc["degree"])
        action = _table_in(A.field, doc[key], len(labels))
        return GradedModule(A, side, labels, degree, action)
    except SerializeError:
        raise
    except Exception as e:
        raise SerializeError(f"bad module document: {e}") from e


def bimodule_from_json(doc: dict) -> GradedBimodule:
    _require(doc, "left_algebra", "right_algebra", "basis", "degree",
             "action_left", "action_right")
    L = algebra_from_json(doc["left_algebra"])
    R = algebra_from_json(doc["right_algebra"])
    try:
        labels = [str(s) for s in doc["basis"]]
        degree = _degrees_in(doc["degree"])
        left = _table_in(L.field, doc["action_left"], len(labels))
        right = _table_in(R.field, doc["action_right"], len(labels))
        return GradedBimodule(L, R, labels, degree, left, right)
    except SerializeError:
        raise
    except Exception as e:
        raise SerializeError(f"bad bimodule document: {e}") from e


def from_json(doc: dict):
    kind = object_kind(doc)
    if kind == "algebra":
        return algebra_from_json(doc)
    if kind == "bimodule":
        return bimodule_from_json(doc)
    return module_from_json(doc)
