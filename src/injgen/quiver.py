"""Path algebras of finite acyclic quivers with monomial relations.

Paths compose left to right: for an arrow a: u -> v the products satisfy
e_u * a = a = a * e_v.  The basis consists of all paths avoiding every
relation as a contiguous subpath; acyclicity makes it finite.  Monomial
relations are homogeneous for any assignment of arrow degrees, so an
arbitrary degree map on arrows yields a graded algebra (vertices sit in
degree zero).

The basis order is fixed: the trivial paths in vertex order, then the
paths by length, each length ordered lexicographically by the positions
of its arrows in the arrow list.  The content hashes of stored path
algebras, and of the certificates and corpus built on them, depend on
this order.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice

from .algebra import AlgebraError, GradedAlgebra
from .field import field_from_json
from .groups import FiniteAbelianGroup, TRIVIAL_GROUP
from .serialize import SerializeError, _strings


class PathAlgebraData:
    def __init__(self, algebra, paths, vertex_index):
        self.algebra = algebra
        self.paths = paths              # tuple of arrow names; ("", v) for e_v
        self.vertex_index = vertex_index

    def __repr__(self):
        return f"PathAlgebraData(dim={self.algebra.dim})"


def _path_label(p):
    if p[0] == "":
        return f"e_{p[1]}"
    return "*".join(p)


def path_algebra(field, vertices, arrows, relations=(), group=TRIVIAL_GROUP,
                 degrees=None) -> PathAlgebraData:
    """Build the path algebra.

    vertices: list of names; arrows: list of (name, src, tgt);
    relations: iterable of arrow-name tuples (paths that vanish);
    degrees: dict arrow name -> group element (default all zero).
    """
    vertices = [str(v) for v in vertices]
    if not vertices:
        raise AlgebraError("a quiver needs at least one vertex")
    if len(set(vertices)) != len(vertices):
        raise AlgebraError("duplicate vertex names")
    arr = {}
    for name, src, tgt in arrows:
        name, src, tgt = str(name), str(src), str(tgt)
        if name in arr or name == "":
            raise AlgebraError(f"bad arrow name {name!r}")
        if src not in vertices or tgt not in vertices:
            raise AlgebraError(f"arrow {name} endpoints missing")
        arr[name] = (src, tgt)
    # acyclicity: peel off vertices that no remaining arrow enters (Kahn);
    # relations cannot rescue an infinite path basis reliably
    out = {v: [] for v in vertices}
    into = dict.fromkeys(vertices, 0)
    for name, (src, tgt) in arr.items():
        out[src].append((name, tgt))
        into[tgt] += 1
    peeled = [v for v in vertices if not into[v]]
    for v in peeled:
        for _, t in out[v]:
            into[t] -= 1
            if not into[t]:
                peeled.append(t)
    if len(peeled) < len(vertices):
        raise AlgebraError("quiver has a directed cycle")

    rels = [tuple(str(a) for a in r) for r in relations]
    for r in rels:
        if len(r) < 1 or any(a not in arr for a in r):
            raise AlgebraError(f"bad relation {r}")
    killed, lengths = set(rels), {len(r) for r in rels}

    degrees = {str(k): group.reduce(v) for k, v in (degrees or {}).items()}
    for a in arr:
        degrees.setdefault(a, group.zero())

    # basis paths (source, target, arrows): the trivial paths, then each
    # path grown by the arrows leaving its target.  A grown path avoids a
    # relation inside its parent, so only relations ending at the new
    # arrow need checking.  The loop also reads the paths it appends.
    paths = [(v, v, ()) for v in vertices]
    paths += [(s, t, (a,)) for a, (s, t) in arr.items() if (a,) not in killed]
    for s, t, p in islice(paths, len(vertices), None):
        for a, u in out[t]:
            q = p + (a,)
            if not any(q[-n:] in killed for n in lengths):
                paths.append((s, u, q))

    # the index holds exactly the surviving paths, so a product is its
    # concatenation's basis element if that is indexed and zero otherwise
    index = {(s, p): i for i, (s, t, p) in enumerate(paths)}
    starting = {v: [] for v in vertices}
    for j, (s, t, p) in enumerate(paths):
        starting[s].append((j, p))
    one, dim = field.one(), len(paths)
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for i, (s, t, p) in enumerate(paths):
        for j, q in starting[t]:
            k = index.get((s, p + q))
            if k is not None:
                mult[i][j] = {k: one}
    unit = [one] * len(vertices) + [field.zero()] * (dim - len(vertices))
    named = [p or ("", s) for s, t, p in paths]
    degs = [reduce(group.add, (degrees[a] for a in p), group.zero())
            for s, t, p in paths]
    A = GradedAlgebra._trusted(field, group, [_path_label(p) for p in named],
                               degs, unit, mult)
    return PathAlgebraData(A, named, {v: i for i, v in enumerate(vertices)})


def path_algebra_from_json(obj, field=None):
    """The path algebra of a quiver document: 'field' (unless field is
    given), 'vertices', 'arrows' as [name, source, target], and optional
    'relations', 'group' and 'degrees'.  A document of the wrong shape
    raises SerializeError; a quiver path_algebra refuses, AlgebraError."""
    if not isinstance(obj, dict):
        raise SerializeError("quiver document must be a JSON object")
    for key in ("field", "vertices", "arrows"):
        if key not in obj and (key != "field" or field is None):
            raise SerializeError(f"quiver document lacks {key!r}")
    vertices = _strings(obj["vertices"], "'vertices' must be a list of strings")
    arrows, relations = obj["arrows"], obj.get("relations", [])
    if not isinstance(arrows, list) or not isinstance(relations, list):
        raise SerializeError("'arrows' and 'relations' must be lists")
    arrows = [_strings(a, "an arrow must be [name, source, target]", 3) for a in arrows]
    relations = [_strings(r, "a relation must be a list of arrow names") for r in relations]
    degrees = obj.get("degrees", {})
    if not isinstance(degrees, dict) or not all(
            isinstance(d, list) and all(type(x) is int for x in d) for d in degrees.values()):
        raise SerializeError("'degrees' must map arrow names to lists of integers")
    try:
        F = field if field is not None else field_from_json(obj["field"])
        group = FiniteAbelianGroup.from_json(obj["group"]) if "group" in obj else TRIVIAL_GROUP
        degrees = {a: group.reduce(d) for a, d in degrees.items()}
    except (KeyError, TypeError, ValueError) as e:
        raise SerializeError(f"bad quiver document: {e}") from e
    return path_algebra(F, vertices, arrows, relations, group=group, degrees=degrees)
