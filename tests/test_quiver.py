"""Path algebras from one path enumeration, against the builder they replace.

quiver.path_algebra grows each basis path by one arrow from a path that
already avoids every relation, checks acyclicity by peeling vertices, and
takes each product as one lookup of a concatenation.  quiver_reference
keeps the builder it replaced.  On seeded random quivers, with back arrows,
self-loops, relations and gradings, both must give the same basis, table,
unit and degrees, or refuse with the same error.  The refusals are also
pinned one by one.
"""

import random

import pytest

from quiver_reference import path_algebra as reference_path_algebra
from injgen.algebra import AlgebraError
from injgen.field import QQ, PrimeField
from injgen.groups import TRIVIAL_GROUP, FiniteAbelianGroup
from injgen.quiver import path_algebra

F5 = PrimeField(5)
GROUPS = (TRIVIAL_GROUP, FiniteAbelianGroup((3,)), FiniteAbelianGroup((2, 2)))


def _quiver(rng):
    """A random quiver on 1-6 vertices with up to 8 arrows, mostly forward,
    some back arrows and self-loops, rarely a bad name or endpoint, and up
    to 4 relations, mostly walks along composable arrows."""
    vertices = [str(i + 1) for i in range(rng.randint(1, 6))]
    arrows = []
    for k in range(rng.randint(0, 8)):
        i, j = sorted(rng.sample(range(len(vertices)), 2)) if len(vertices) > 1 else (0, 0)
        r = rng.random()
        if r < 0.02:
            j = i
        elif r < 0.05:
            i, j = j, i
        name, tgt = f"a{k}", vertices[j]
        if r > 0.995:
            name = rng.choice(["", "a0"])
        elif r > 0.99:
            tgt = "x"
        arrows.append((name, vertices[i], tgt))
    relations = []
    for _ in range(rng.randint(0, 4) if arrows else 0):
        a = rng.choice(arrows)
        walk = [a[0]]
        for _ in range(rng.randint(0, 2)):
            nxt = [b for b in arrows if b[1] == a[2]]
            if not nxt:
                break
            a = rng.choice(nxt)
            walk.append(a[0])
        if rng.random() < 0.05:
            walk = rng.choice([[], ["z"], [b[0] for b in rng.choices(arrows, k=2)]])
        relations.append(tuple(walk))
    return vertices, arrows, relations


def _outcome(build, fld, group, vertices, arrows, relations, degrees):
    try:
        pa = build(fld, vertices, arrows, relations, group=group, degrees=degrees)
    except Exception as e:
        return type(e), str(e)
    A = pa.algebra
    return A.labels, A.degree, A.unit, A.mult, pa.paths, pa.vertex_index


def test_path_algebra_matches_the_reference_builder():
    built = refused = 0
    for seed in range(3000):
        rng = random.Random(seed)
        fld = rng.choice([F5, QQ])
        group = rng.choice(GROUPS)
        vertices, arrows, relations = _quiver(rng)
        degrees = {a[0]: tuple(rng.randrange(n) for n in group.factors)
                   for a in arrows}
        args = (fld, group, vertices, arrows, relations, degrees)
        new = _outcome(path_algebra, *args)
        assert new == _outcome(reference_path_algebra, *args), (seed, vertices, arrows,
                                                                 relations)
        built += new[0] is not AlgebraError
        refused += new[0] is AlgebraError
    assert (built, refused) == (2071, 929)


@pytest.mark.parametrize("vertices, arrows, relations, message", [
    ([], [], [], "a quiver needs at least one vertex"),
    (["1", "2", "1"], [], [], "duplicate vertex names"),
    (["1", "2"], [("", "1", "2")], [], "bad arrow name ''"),
    (["1", "2"], [("a", "1", "2"), ("a", "1", "2")], [], "bad arrow name 'a'"),
    (["1", "2"], [("a", "1", "3")], [], "arrow a endpoints missing"),
    (["1", "2"], [("a", "1", "2"), ("b", "2", "1")], [], "quiver has a directed cycle"),
    (["1"], [("x", "1", "1")], [], "quiver has a directed cycle"),
    (["1"], [("x", "1", "1")], [("x",)], "quiver has a directed cycle"),
    (["1", "2"], [("a", "1", "2"), ("b", "2", "1")], [("a", "b"), ("b", "a")],
     "quiver has a directed cycle"),
    (["1", "2"], [("a", "1", "2")], [()], "bad relation ()"),
    (["1", "2"], [("a", "1", "2")], [("a", "z")], "bad relation ('a', 'z')"),
], ids=["no-vertex", "duplicate-vertex", "empty-arrow", "duplicate-arrow",
        "missing-endpoint", "2-cycle", "self-loop", "killed-loop", "killed-2-cycle",
        "empty-relation", "unknown-arrow"])
def test_path_algebra_refusals(vertices, arrows, relations, message):
    with pytest.raises(AlgebraError) as e:
        path_algebra(F5, vertices, arrows, relations)
    assert str(e.value) == message
