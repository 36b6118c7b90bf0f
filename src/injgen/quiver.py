"""Path algebras of finite acyclic quivers with monomial relations.

Paths compose left to right: for an arrow a: u -> v the products satisfy
e_u * a = a = a * e_v.  The basis consists of all paths avoiding every
relation as a contiguous subpath; acyclicity makes it finite.  Monomial
relations are homogeneous for any assignment of arrow degrees, so an
arbitrary degree map on arrows yields a graded algebra (vertices sit in
degree zero).
"""

from __future__ import annotations

from .algebra import AlgebraError, GradedAlgebra
from .groups import FiniteAbelianGroup, TRIVIAL_GROUP


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
    # acyclicity (relations cannot rescue an infinite path basis reliably)
    color = {v: 0 for v in vertices}
    order = []

    def visit(v, stack):
        if v in stack:
            raise AlgebraError("quiver has a directed cycle")
        if color[v]:
            return
        color[v] = 1
        for name, (s, t) in arr.items():
            if s == v:
                visit(t, stack | {v})
        order.append(v)

    for v in vertices:
        visit(v, frozenset())

    rels = [tuple(str(a) for a in r) for r in relations]
    for r in rels:
        if len(r) < 1 or any(a not in arr for a in r):
            raise AlgebraError(f"bad relation {r}")

    degrees = {str(k): group.reduce(v) for k, v in (degrees or {}).items()}
    for a in arr:
        degrees.setdefault(a, group.zero())

    def has_relation(seq):
        for r in rels:
            L = len(r)
            for s in range(len(seq) - L + 1):
                if tuple(seq[s:s + L]) == r:
                    return True
        return False

    # enumerate surviving paths: trivial paths then grow by arrows
    paths = [("", v) for v in vertices]
    frontier = [(a,) for a in arr if not has_relation((a,))]
    while frontier:
        paths.extend(frontier)
        nxt = []
        for p in frontier:
            tail = arr[p[-1]][1]
            for a, (s, t) in arr.items():
                if s == tail and not has_relation(p + (a,)):
                    nxt.append(p + (a,))
        frontier = nxt

    index = {p: i for i, p in enumerate(paths)}

    def endpoints(p):
        if p[0] == "":
            return p[1], p[1]
        return arr[p[0]][0], arr[p[-1]][1]

    def path_degree(p):
        if p[0] == "":
            return group.zero()
        d = group.zero()
        for a in p:
            d = group.add(d, degrees[a])
        return d

    F = field
    dim = len(paths)
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for i, p in enumerate(paths):
        ps, pt = endpoints(p)
        for j, q in enumerate(paths):
            qs, qt = endpoints(q)
            if pt != qs:
                continue
            if p[0] == "":
                mult[i][j] = {j: F.one()}
            elif q[0] == "":
                mult[i][j] = {i: F.one()}
            else:
                cat = p + q
                if not has_relation(cat) and cat in index:
                    mult[i][j] = {index[cat]: F.one()}
                # concatenation may also fall out of the basis because one
                # of its subpaths was killed: then the product is zero
    unit = [F.zero()] * dim
    for v in vertices:
        unit[index[("", v)]] = F.one()
    labels = [_path_label(p) for p in paths]
    degs = [path_degree(p) for p in paths]
    A = GradedAlgebra._trusted(F, group, labels, degs, unit, mult)
    vertex_index = {v: index[("", v)] for v in vertices}
    return PathAlgebraData(A, paths, vertex_index)


def path_algebra_from_json(obj, field=None):
    from .field import field_from_json
    F = field if field is not None else field_from_json(obj["field"])
    group = FiniteAbelianGroup.from_json(obj["group"]) if "group" in obj else TRIVIAL_GROUP
    degrees = {k: tuple(v) for k, v in obj.get("degrees", {}).items()}
    return path_algebra(F, obj["vertices"],
                        [tuple(a) for a in obj["arrows"]],
                        [tuple(r) for r in obj.get("relations", [])],
                        group=group, degrees=degrees)
