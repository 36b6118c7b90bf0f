"""The sparse axiom checkers against the dense loops they replaced.

_dense_algebra_axioms, _dense_module_axioms and _dense_bimodule_axioms are
the checkers of algebra.py as they were before they moved onto sparse
vectors: dense coefficient vectors, field arithmetic cell by cell.  They
are kept as an oracle: the sparse checkers must report the same
(kind, where) list, in the same order, on valid objects and on copies
with corrupted cells or a corrupted unit.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from injgen.algebra import (GradedAlgebra, GradedBimodule, GradedModule,
                            check_algebra_axioms, check_axioms,
                            check_bimodule_axioms, check_module_axioms, dual,
                            opposite, regular_bimodule, regular_module)
from injgen.bundled import corpus_docs
from injgen.field import QQ, PrimeField
from injgen.samples import (random_graded_algebra, random_module,
                            random_upper_half_zero_algebra)
from injgen.serialize import from_json

FIELDS = (PrimeField(2), PrimeField(5), QQ)


# -- the replaced dense checkers -----------------------------------------------


def _accumulate(F, acc, d, c):
    """acc += c * d for sparse dicts."""
    for k, v in d.items():
        w = F.mul(c, v)
        if k in acc:
            s = F.add(acc[k], w)
            if F.is_zero(s):
                del acc[k]
            else:
                acc[k] = s
        elif not F.is_zero(w):
            acc[k] = w


def _dense_apply(F, table, u, v, dim):
    acc = {}
    for i, a in enumerate(u):
        if F.is_zero(a):
            continue
        for j, b in enumerate(v):
            if F.is_zero(b):
                continue
            _accumulate(F, acc, table[i][j], F.mul(a, b))
    out = [F.zero()] * dim
    for k, c in acc.items():
        out[k] = c
    return out


def _basis(F, dim, i):
    v = [F.zero()] * dim
    v[i] = F.one()
    return v


def _dense_algebra_axioms(A):
    F, group, mult, n = A.field, A.group, A.mult, A.dim
    out = []
    for i, c in enumerate(A.unit):
        if not F.is_zero(c) and A.degree[i] != group.zero():
            out.append(("unit-not-degree-zero", (i,)))
    for i in range(n):
        if _dense_apply(F, mult, A.unit, _basis(F, n, i), n) != _basis(F, n, i):
            out.append(("left-unit", (i,)))
        if _dense_apply(F, mult, _basis(F, n, i), A.unit, n) != _basis(F, n, i):
            out.append(("right-unit", (i,)))
    for i in range(n):
        for j in range(n):
            target = group.add(A.degree[i], A.degree[j])
            for k in mult[i][j]:
                if A.degree[k] != target:
                    out.append(("product-grading", (i, j, k)))
    for i in range(n):
        for j in range(n):
            for l in range(n):
                if not mult[i][j] and not mult[j][l]:
                    continue
                acc1, acc2 = {}, {}
                for k, c in mult[i][j].items():
                    _accumulate(F, acc1, mult[k][l], c)
                for k, c in mult[j][l].items():
                    _accumulate(F, acc2, mult[i][k], c)
                if acc1 != acc2:
                    out.append(("associativity", (i, j, l)))
    return out


def _dense_module_axioms(M):
    A, F = M.algebra, M.field
    out = []
    for i in range(M.dim):
        if _dense_apply(F, M.action, _basis(F, M.dim, i), A.unit, M.dim) \
                != _basis(F, M.dim, i):
            out.append(("unit-action", (i,)))
    for i in range(M.dim):
        for j in range(A.dim):
            target = A.group.add(M.degree[i], A.degree[j])
            for k in M.action[i][j]:
                if M.degree[k] != target:
                    out.append(("action-grading", (i, j, k)))
    for i in range(M.dim):
        for j in range(A.dim):
            for l in range(A.dim):
                first, then = (j, l) if M.side == "right" else (l, j)
                step = M.action[i][first]
                if not step and not A.mult[j][l]:
                    continue
                acc1, acc2 = {}, {}
                for k, c in step.items():
                    _accumulate(F, acc1, M.action[k][then], c)
                for k, c in A.mult[j][l].items():
                    _accumulate(F, acc2, M.action[i][k], c)
                if acc1 != acc2:
                    out.append(("action-associativity", (i, j, l)))
    return out


def _dense_bimodule_axioms(B):
    F = B.field
    out = [("left-" + k, w) for k, w in _dense_module_axioms(B.as_left_module())]
    out += [("right-" + k, w) for k, w in _dense_module_axioms(B.as_right_module())]
    for i in range(B.dim):
        for j in range(B.left_algebra.dim):
            for l in range(B.right_algebra.dim):
                lm, rm = B.left_action[i][j], B.right_action[i][l]
                if not lm and not rm:
                    continue
                acc1, acc2 = {}, {}
                for k, c in lm.items():
                    _accumulate(F, acc1, B.right_action[k][l], c)
                for k, c in rm.items():
                    _accumulate(F, acc2, B.left_action[k][j], c)
                if acc1 != acc2:
                    out.append(("bimodule-compatibility", (i, j, l)))
    return out


def _dense_axioms(obj):
    if isinstance(obj, GradedAlgebra):
        return _dense_algebra_axioms(obj)
    if isinstance(obj, GradedBimodule):
        return _dense_bimodule_axioms(obj)
    return _dense_module_axioms(obj)


def _agrees(obj):
    """The sparse checker reports what the dense one does, in order;
    returns the number of violations."""
    checker = {GradedAlgebra: check_algebra_axioms, GradedModule: check_module_axioms,
               GradedBimodule: check_bimodule_axioms}[type(obj)]
    got = [(v.kind, v.where) for v in checker(obj).violations]
    assert got == _dense_axioms(obj), obj
    assert [(v.kind, v.where) for v in check_axioms(obj).violations] == got
    return len(got)


# -- corrupted copies ----------------------------------------------------------


def _coeff(F, rng):
    if F is QQ:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return rng.randrange(F.p)


def _corrupt_table(F, table, ncols, rng):
    """A copy of table with one or two cells replaced by random ones."""
    table = [[dict(c) for c in row] for row in table]
    for _ in range(rng.randint(1, 2)):
        i, j = rng.randrange(len(table)), rng.randrange(len(table[0]))
        table[i][j] = {rng.randrange(ncols): _coeff(F, rng)
                       for _ in range(rng.randint(0, 2))}
    return table


def _corrupt_unit(A, rng):
    unit = list(A.unit)
    unit[rng.randrange(A.dim)] = _coeff(A.field, rng)
    return GradedAlgebra(A.field, A.group, A.labels, A.degree, unit, A.mult)


def _corrupted(obj, rng):
    """Copies of obj with corrupted cells, and (for an algebra, and for a
    module through its algebra) a corrupted unit."""
    F = obj.field
    if isinstance(obj, GradedAlgebra):
        mult = _corrupt_table(F, obj.mult, obj.dim, rng)
        return [GradedAlgebra(F, obj.group, obj.labels, obj.degree, obj.unit, mult),
                _corrupt_unit(obj, rng)]
    if obj.dim == 0:
        return []
    if isinstance(obj, GradedBimodule):
        left = _corrupt_table(F, obj.left_action, obj.dim, rng)
        right = _corrupt_table(F, obj.right_action, obj.dim, rng)
        return [GradedBimodule(obj.left_algebra, obj.right_algebra, obj.labels,
                               obj.degree, left, obj.right_action),
                GradedBimodule(obj.left_algebra, obj.right_algebra, obj.labels,
                               obj.degree, obj.left_action, right)]
    action = _corrupt_table(F, obj.action, obj.dim, rng)
    A = obj.algebra
    return [GradedModule(A, obj.side, obj.labels, obj.degree, action),
            GradedModule(_corrupt_unit(A, rng), obj.side, obj.labels, obj.degree,
                         obj.action)]


def _family(A, rng):
    """A, its opposite, modules over it on both sides, a dual and the
    regular bimodule."""
    mods = [random_module(A, rng, side) for side in ("left", "right")]
    return [A, opposite(A), *mods, dual(mods[1]), regular_module(A, "left"),
            regular_bimodule(A)]


# -- tests ---------------------------------------------------------------------


def test_checkers_agree_on_the_corpus_and_its_corruptions():
    rng = random.Random(7)
    objs = [from_json(doc) for _, doc in sorted(corpus_docs())]
    clean = sum(_agrees(obj) for obj in objs)
    bad = [_agrees(c) for obj in objs for c in _corrupted(obj, rng)]
    assert clean == 0 and len(bad) >= 2 * len(objs) - 2 and sum(bad) > len(bad)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), fld=st.sampled_from(FIELDS),
       upper=st.booleans())
def test_checkers_agree_on_sampled_objects_and_corruptions(seed, fld, upper):
    rng = random.Random(seed)
    A = (random_upper_half_zero_algebra(fld, rng, rng.randint(1, 3)) if upper
         else random_graded_algebra(fld, rng, max_dim=6, max_group=4))
    for obj in _family(A, rng):
        assert _agrees(obj) == 0
        for c in _corrupted(obj, rng):
            _agrees(c)


def test_checkers_report_corruptions_on_every_field():
    """The corrupted copies are not vacuous: over each field they carry
    violations of every kind the checkers report."""
    kinds = set()
    for fld in FIELDS:
        rng = random.Random(11)
        for _ in range(12):
            A = random_graded_algebra(fld, rng, max_dim=6, max_group=4)
            for obj in _family(A, rng):
                for c in _corrupted(obj, rng):
                    _agrees(c)
                    kinds |= {v.kind for v in check_axioms(c).violations}
    module_kinds = {"unit-action", "action-grading", "action-associativity"}
    assert kinds == {"unit-not-degree-zero", "left-unit", "right-unit",
                     "product-grading", "associativity", "bimodule-compatibility",
                     *module_kinds, *(f"{side}-{k}" for side in ("left", "right")
                                      for k in module_kinds)}, kinds
