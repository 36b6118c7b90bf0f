"""Seeded random object generators for test suites.

All sampling goes through an explicit random.Random so suites are
reproducible.  Generators only produce objects that already satisfy their
axioms (truncated polynomial rings, group algebras, path algebras of
random acyclic quivers, and graded modules built as quotients of sums of
twisted regular modules).
"""

from __future__ import annotations

from .algebra import (AlgebraError, GradedAlgebra, GradedModule, direct_sum,
                      quotient_module, regular_module, twist, vector_degree)
from .groups import FiniteAbelianGroup, TRIVIAL_GROUP
from .quiver import path_algebra


def truncated_polynomial(field, m, group=TRIVIAL_GROUP, xdeg=None):
    """k[x]/(x^m) with deg x = xdeg (default zero)."""
    if m < 1:
        raise AlgebraError(f"k[x]/(x^m) needs m >= 1, got {m}")
    d = group.reduce(xdeg) if xdeg is not None else group.zero()
    labels = ["1"] + [f"x{i}" if i > 1 else "x" for i in range(1, m)]
    degs = []
    acc = group.zero()
    for i in range(m):
        degs.append(acc)
        acc = group.add(acc, d)
    mult = [[({i + j: field.one()} if i + j < m else {}) for j in range(m)]
            for i in range(m)]
    unit = [field.one()] + [field.zero()] * (m - 1)
    return GradedAlgebra._trusted(field, group, labels, degs, unit, mult)


def group_algebra(field, group: FiniteAbelianGroup):
    """k[Gamma] graded by itself (deg g = g); strongly graded."""
    els = group.elements()
    index = {g: i for i, g in enumerate(els)}
    labels = ["g" + "_".join(map(str, g)) if g else "g0" for g in els]
    mult = [[{index[group.add(g, h)]: field.one()} for h in els] for g in els]
    unit = [field.zero()] * len(els)
    unit[index[group.zero()]] = field.one()
    return GradedAlgebra._trusted(field, group, labels, list(els), unit, mult)


def product_field_algebra(field, n, group=TRIVIAL_GROUP):
    """k x k x ... x k (n factors), trivially graded."""
    if n < 1:
        raise AlgebraError(f"a product of fields needs n >= 1 factors, got {n}")
    labels = [f"e{i+1}" for i in range(n)]
    mult = [[({i: field.one()} if i == j else {}) for j in range(n)] for i in range(n)]
    unit = [field.one()] * n
    degs = [group.zero()] * n
    return GradedAlgebra._trusted(field, group, labels, degs, unit, mult)


def _random_group(rng, max_order):
    choices = [()]
    for m in range(2, max_order + 1):
        choices.append((m,))
    if max_order >= 4:
        choices.append((2, 2))
    if max_order >= 8:
        choices.append((2, 4))
        choices.append((2, 2, 2))
    return FiniteAbelianGroup(rng.choice(choices))


def _random_acyclic_path_algebra(field, rng, group, max_dim):
    for _ in range(40):
        nv = rng.randint(2, 3)
        vertices = [str(i + 1) for i in range(nv)]
        arrows = []
        names = iter("abcdefgh")
        for i in range(nv):
            for j in range(i + 1, nv):
                for _ in range(rng.randint(0, 2) if j == i + 1 else rng.randint(0, 1)):
                    arrows.append((next(names), vertices[i], vertices[j]))
        if not arrows:
            continue
        degrees = {a[0]: tuple(rng.randrange(n) for n in group.factors)
                   for a in arrows}
        relations = []
        if len(arrows) >= 2 and rng.random() < 0.4:
            # kill one random composable pair
            for a in arrows:
                for b in arrows:
                    if a[2] == b[1]:
                        relations.append((a[0], b[0]))
                        break
                if relations:
                    break
        A = path_algebra(field, vertices, arrows, relations, group=group,
                         degrees=degrees).algebra
        if A.dim <= max_dim:
            return A
    return None


def random_graded_algebra(field, rng, max_dim=8, max_group=8) -> GradedAlgebra:
    group = _random_group(rng, max_group)
    kind = rng.randrange(4)
    if kind == 0:
        m = rng.randint(1, min(4, max_dim))
        if group.is_trivial:
            return truncated_polynomial(field, m)
        xdeg = tuple(rng.randrange(n) for n in group.factors)
        return truncated_polynomial(field, m, group, xdeg)
    if kind == 1 and group.order <= max_dim:
        return group_algebra(field, group)
    if kind == 2:
        A = _random_acyclic_path_algebra(field, rng, group, max_dim)
        if A is not None:
            return A
    return product_field_algebra(field, rng.randint(1, min(4, max_dim)), group)


def random_upper_half_zero_algebra(field, rng, n) -> GradedAlgebra:
    """Z/2^n-graded algebra whose components in degrees >= 2^(n-1) vanish."""
    group = FiniteAbelianGroup((2 ** n,))
    half = 2 ** (n - 1)
    kind = rng.randrange(3)
    if kind == 0:
        m = rng.randint(1, half)       # components 0..m-1 only
        return truncated_polynomial(field, m, group, (1,))
    if kind == 1 and half >= 2:
        # A_m path algebra, arrows in degree 1, longest path m-1 < half
        m = rng.randint(2, min(3, half))
        vertices = [str(i + 1) for i in range(m)]
        arrows = [(f"a{i}", vertices[i], vertices[i + 1]) for i in range(m - 1)]
        degrees = {f"a{i}": (1,) for i in range(m - 1)}
        return path_algebra(field, vertices, arrows, group=group,
                            degrees=degrees).algebra
    m = rng.randint(1, 2)
    return truncated_polynomial(field, m, group, (1,) if m <= half else (0,))


def random_graded_module(A: GradedAlgebra, rng, max_summands=2) -> GradedModule:
    """Quotient of a sum of twisted regular modules by a random homogeneous
    submodule; always a valid graded right module."""
    els = A.group.elements()
    summands = [twist(regular_module(A, "right"), rng.choice(els))
                for _ in range(rng.randint(1, max_summands))]
    M, _ = direct_sum(summands)
    # pick a few random homogeneous vectors to quotient by
    rels = []
    for _ in range(rng.randint(0, 2)):
        deg = rng.choice(els)
        idxs = [i for i, d in enumerate(M.degree) if d == deg]
        if not idxs:
            continue
        v = M.zero_vec()
        for i in idxs:
            if rng.random() < 0.6:
                v[i] = A.field.of_int(rng.randint(-2, 2))
        if any(not A.field.is_zero(c) for c in v):
            rels.append(v)
    if rels:
        Q, _ = quotient_module(M, rels)
        return Q
    return M


def random_module(A: GradedAlgebra, rng, side="right", max_summands=2) -> GradedModule:
    """Random one-sided module (trivial grading respected automatically)."""
    if side == "right":
        return random_graded_module(A, rng, max_summands)
    # mirror construction on the left
    summands = [regular_module(A, "left") for _ in range(rng.randint(1, max_summands))]
    M, _ = direct_sum(summands)
    rels = []
    for _ in range(rng.randint(0, 2)):
        v = [A.field.of_int(rng.randint(-2, 2)) if rng.random() < 0.5 else A.field.zero()
             for _ in range(M.dim)]
        deg = vector_degree(A.group, M.degree, v, A.field)
        if deg is not None and any(not A.field.is_zero(c) for c in v):
            rels.append(v)
    if rels:
        Q, _ = quotient_module(M, rels)
        return Q
    return M
