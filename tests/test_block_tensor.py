"""The block carrier of tensor_over_algebra against the dense pair grid.

With two or more basis idempotents e_s, and X and Y whose basis vectors
each lie in one X e_s or e_s Y, tensor_over_algebra builds its quotient
on the blocks X e_s x e_s Y from the relations of the basis vectors
outside the e_s, and never asks for A's generators.  Otherwise it keeps
the full grid and the relations of the generators.  Both must give what
the dense grid of tests/test_tensor_oracle.py gives: the same free
columns as grid indices, sections, degrees and classes of every pair,
the off-block pairs included.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_idempotent_covers import _family_pairs, _rebase_module
from test_tensor_oracle import (_DenseTensor, _check_module, _linear_quiver,
                                _same_space)
from injgen.algebra import (GradedAlgebra, GradedModule, _structure,
                            check_axioms, regular_bimodule, regular_module)
from injgen.constructions import covering_ring
from injgen.field import QQ, PrimeField
from injgen.homology import _flat_algebra
from injgen.samples import random_graded_algebra, random_module
from injgen.tensors import tensor_bimodules, tensor_over_algebra

F2, F5 = PrimeField(2), PrimeField(5)


def _builds_blocks(X, Y, A):
    """Compare tensor_over_algebra(X, Y, A) with the dense grid; True when
    it took the block carrier, which never calls A.generators()."""
    want = _DenseTensor(X, Y, A)
    asked = []
    real = GradedAlgebra.generators

    def counting(self):
        asked.append(self)
        return real(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GradedAlgebra, "generators", counting)
        T = tensor_over_algebra(X, Y, A)
    _same_space(T, want)
    return not asked


def _regulars(A):
    return regular_module(A, "right"), regular_module(A, "left")


def _rescaled(A, k, c):
    """A in the basis b'_k = c b_k, the other basis vectors kept."""
    fld = A.field
    s = [fld.one()] * A.dim
    s[k] = c
    inv = [fld.inv(x) for x in s]
    mult = [[{t: fld.mul(fld.mul(s[i], s[j]), fld.mul(x, inv[t]))
              for t, x in A.mult[i][j].items()} for j in range(A.dim)]
            for i in range(A.dim)]
    unit = [fld.mul(u, inv[t]) for t, u in enumerate(A.unit)]
    return GradedAlgebra(fld, A.group, A.labels, A.degree, unit, mult)


def test_unadapted_module_bases_keep_the_grid():
    # the regular modules of split algebras (graded trivially) take the
    # blocks; written in a random new basis they lie in no single X e_s
    # and take the grid
    rng = random.Random(7)
    seen = []
    for fld in (F5, QQ):
        for name, X, _ in _family_pairs(fld):
            if any(X.algebra is B for B in seen):
                continue
            seen.append(X.algebra)
            A = _flat_algebra(X.algebra)
            assert len(_structure(A).idems) > 1, name
            R, L = _regulars(A)
            assert _builds_blocks(R, L, A), name
            assert not _builds_blocks(_rebase_module(R, rng), L, A), name
            assert not _builds_blocks(R, _rebase_module(L, rng), A), name
    assert len(seen) == 16


def test_rescaled_basis_idempotents_take_the_blocks():
    # e_s = u b_k with u != 1: the tags multiply each cell by u
    for A in (_linear_quiver(F5, 3, 2).algebra, _linear_quiver(F5, 4, 3).algebra,
              covering_ring(_linear_quiver(F5, 2, 2).algebra).algebra):
        idems = _structure(A).idems
        k = next(iter(idems[0]))
        for c in (2, 3, 4):
            B = _rescaled(A, k, F5.of_int(c))
            assert check_axioms(B).passed
            rec = _structure(B)
            assert rec.idems[0] == {k: F5.inv(F5.of_int(c))}
            assert len(rec.idems) == len(idems)
            R, L = _regulars(B)
            assert _builds_blocks(R, L, B)
            # the simple at e_0, on which b'_k acts as c
            S = GradedModule(B, "right", ["s"], [B.group.zero()],
                             [[{0: F5.of_int(c)} if j == k else {} for j in range(B.dim)]])
            assert _builds_blocks(S, L, B)
            rng = random.Random(c)
            assert _builds_blocks(random_module(B, rng, "right"),
                                  random_module(B, rng, "left"), B)


def test_block_carrier_never_asks_for_generators():
    # the saving: on split inputs the relations come from the corners
    cases = []
    for fld in (F5, QQ):
        for name, X, Y in _family_pairs(fld):
            R, L = _regulars(X.algebra)
            cases += [(X, Y, X.algebra), (X, L, X.algebra), (R, Y, X.algebra)]
    wants = [_DenseTensor(X, Y, A) for X, Y, A in cases]
    P = regular_bimodule(cases[0][2])
    want_bim = _DenseTensor(P, P, cases[0][2])

    def refuse(self):
        raise AssertionError("generators() on a split input")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GradedAlgebra, "generators", refuse)
        spaces = [tensor_over_algebra(X, Y, A) for X, Y, A in cases]
        _, T = tensor_bimodules(P, P)
    for T_, D in zip(spaces, wants):
        _same_space(T_, D)
    _same_space(T, want_bim)


def test_seeded_random_modules_take_the_blocks():
    blocks = total = 0
    for fld in (F2, F5, QQ):
        for seed in range(20):
            rng = random.Random(seed)
            A = random_graded_algebra(fld, rng, max_dim=6, max_group=4)
            for B in (A, covering_ring(A).algebra):
                if len(_structure(B).idems) < 2:
                    continue
                total += 1
                blocks += _builds_blocks(random_module(B, rng, "right"),
                                         random_module(B, rng, "left"), B)
    assert total >= 40 and blocks == total


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from([F2, F5, QQ]), seed=st.integers(0, 2 ** 32),
       covering=st.booleans())
def test_random_modules_match_the_dense_grid(field, seed, covering):
    rng = random.Random(seed)
    A = random_graded_algebra(field, rng, max_dim=6, max_group=4)
    if covering:
        A = covering_ring(A).algebra
    X = random_module(A, rng, "right")
    Y = random_module(A, rng, "left")
    _builds_blocks(X, Y, A)
    _check_module(X)
    _check_module(Y)
