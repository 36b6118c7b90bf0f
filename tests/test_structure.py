"""The structure record against the three functions it replaced.

homology._structure finds the basis idempotents, their left and right
tags and the split radical J0 in one cached pass, and checks the ideal
property of J0 on J0 x J0 only.  The functions it replaced are kept in
structure_reference: _idempotents, and _split_radical with its
_find_split_radical, which checked the ideal property on J0 x A on both
sides.  On every seeded random algebra, its flat copy and its covering
ring, the record must equal their answers.
"""

import random

import pytest

from structure_reference import _idempotents, _split_radical
from injgen.constructions import covering_ring
from injgen.field import QQ, PrimeField
from injgen.homology import _flat_algebra, _structure
from injgen.samples import random_graded_algebra, random_upper_half_zero_algebra

F2, F5 = PrimeField(2), PrimeField(5)


def _draws(fld, seed):
    rng = random.Random(seed)
    yield random_graded_algebra(fld, rng)
    yield random_upper_half_zero_algebra(fld, rng, rng.randint(1, 3))


@pytest.mark.parametrize("fld", [F5, F2, QQ], ids=["F5", "F2", "Q"])
def test_record_equals_the_old_witness(fld):
    checked = split = 0
    for seed in range(200):
        for A in _draws(fld, seed):
            for B in (A, _flat_algebra(A), covering_ring(A).algebra):
                rec = _structure(B)
                assert rec == (*_idempotents(B), _split_radical(B)), (seed, B.labels)
                assert B._cache["structure"] is rec
                checked += 1
                split += rec.rad is not None
    assert (checked, split) == (1200, 1050)
