"""The sparse covering correspondence and hom spaces against the dense
code they replaced.

covering_module_inverse builds each idempotent image on sparse cells and
reads coordinates over the picked images from a Span; hom_space hands its
linearity rows to kernel_basis as sparse dicts.  Before, the images were
dense vectors gathered into a Matrix and inverted, every action was mapped
back through that inverse, and each linearity row was expanded to a dense
row of all unknowns.  That dense code is kept here as an oracle.
Coordinates over a basis and reduced row echelon forms are unique, so
labels, degrees, tables and hom-space bases must agree exactly, and
find_isomorphism must answer the same over either hom space.  The inputs
are the corpus coverings, the covering round trips of the benchmark's zoo
and hypothesis draws over F_2, F_5 and Q.
"""

import importlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_modules import columns, dense_act, dense_apply, sparse_rows, zeros
from injgen import homs
from injgen.algebra import (ConstructionError, GradedModule, ModuleHom,
                            regular_module, twist)
from injgen.bundled import corpus_docs
from injgen.constructions import (covering_module, covering_module_inverse,
                                  covering_ring)
from injgen.field import QQ, PrimeField
from injgen.groups import FiniteAbelianGroup
from injgen.homs import find_isomorphism, hom_space
from injgen.linalg import (Matrix, Span, _dense, _echelon, _modulus, _nonzero,
                           _sparse, render_columns, right_inverse)
from injgen.samples import (random_graded_algebra, random_graded_module,
                            truncated_polynomial)
from injgen.serialize import content_hash, from_json

F2, F5 = PrimeField(2), PrimeField(5)
FIELDS = (F2, F5, QQ)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# -- the replaced dense code -----------------------------------------------------


def _dense_idempotent(cov, g):
    F = cov.base.field
    v = cov.algebra.zero_vec()
    g = cov.base.group.reduce(g)
    for i, c in enumerate(cov.base.unit):
        if not F.is_zero(c):
            v[cov.pos[(g, g, i)]] = c
    return v


def _dense_inverse(V, cov):
    """(labels, degrees, action) of covering_module_inverse as it was: the
    idempotent images as columns of a Matrix, inverted, and each action
    mapped back through that inverse."""
    R = cov.base
    F = R.field
    group = R.group
    new_basis = []
    degrees = []
    for g in group.elements():
        u = _dense_idempotent(cov, g)
        seen = Span(F, V.dim)
        for i in range(V.dim):
            w = dense_act(V, V.basis_vec(i), u)
            if seen.add(w):
                new_basis.append(w)
                degrees.append(g)
    if len(new_basis) != V.dim:
        raise ConstructionError("idempotent images do not decompose the module")
    P = Matrix(F, [[c[i] for c in new_basis] for i in range(V.dim)], V.dim)
    Pinv = right_inverse(F, sparse_rows(P), V.dim)      # P is square: its inverse
    if Pinv is None:
        raise ConstructionError("idempotent images do not decompose the module")
    Pinv = render_columns(F, Pinv, V.dim)
    action = []
    for i, v in enumerate(new_basis):
        gi = degrees[i]
        row = []
        for x in range(R.dim):
            slot = cov.pos[(gi, group.add(gi, R.degree[x]), x)]
            w = dense_act(V, v, V.algebra.basis_vec(slot))
            row.append(_nonzero(_modulus(F), enumerate(dense_apply(Pinv, w))))
        action.append(row)
    labels = [f"c{i}" for i in range(len(new_basis))]
    return labels, degrees, action


def _dense_kernel(mat):
    F = mat.field
    piv = _echelon(F, _sparse(mat))
    basis = {fc: _dense(F, {fc: F.one()}, mat.ncols)
             for fc in range(mat.ncols) if fc not in piv}
    for pc, row in piv.items():
        for j, a in row.items():
            if j != pc:
                basis[j][pc] = F.neg(a)
    return list(basis.values())


def _dense_hom_space(M, N, graded=True):
    """hom_space as it was: each linearity row expanded to a dense row of
    all unknowns, for a dense Matrix and its kernel."""
    A = M.algebra
    F = M.field
    if graded:
        unknowns = [(k, i) for k in range(N.dim) for i in range(M.dim)
                    if N.degree[k] == M.degree[i]]
    else:
        unknowns = [(k, i) for k in range(N.dim) for i in range(M.dim)]
    if not unknowns:
        return []
    pos = {u: t for t, u in enumerate(unknowns)}
    rows = []
    for i in range(M.dim):
        for j in A.generators():
            step = M.action[i][j]
            row_for = [dict() for _ in range(N.dim)]
            for l, c in step.items():
                for k in range(N.dim):
                    if (k, l) in pos:
                        d = row_for[k]
                        d[pos[(k, l)]] = F.add(d.get(pos[(k, l)], F.zero()), c)
            for k in range(N.dim):
                if (k, i) not in pos:
                    continue
                t = pos[(k, i)]
                for p, c in N.action[k][j].items():
                    d = row_for[p]
                    d[t] = F.sub(d.get(t, F.zero()), c)
            for p in range(N.dim):
                if row_for[p]:
                    dense = [F.zero()] * len(unknowns)
                    for t, c in row_for[p].items():
                        dense[t] = c
                    rows.append(dense)
    homs_ = []
    for v in _dense_kernel(Matrix(F, rows, len(unknowns))):
        m = zeros(F, N.dim, M.dim)
        for t, (k, i) in enumerate(unknowns):
            m.rows[k][i] = v[t]
        homs_.append(ModuleHom(M, N, columns(m)))
    return homs_


# -- comparisons -----------------------------------------------------------------


def _same_homs(M, N):
    for graded in (True, False):
        got = [h.matrix.rows for h in hom_space(M, N, graded)]
        assert got == [h.matrix.rows for h in _dense_hom_space(M, N, graded)]


def _iso(M, N):
    rep = find_isomorphism(M, N)
    return rep.found, rep.conclusive, rep.detail, rep.hom and rep.hom.matrix.rows


def _check_round_trip(M):
    """The inverse, the hom spaces between M and it, and the isomorphism
    search agree with the dense code."""
    cov = covering_ring(M.algebra)
    V = covering_module(M, cov)
    back = covering_module_inverse(V, cov)
    assert (back.labels, back.degree, back.action) == _dense_inverse(V, cov)
    _same_homs(M, back)
    _same_homs(back, M)
    got = _iso(M, back)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(homs, "hom_space", _dense_hom_space)
        assert got == _iso(M, back)
    assert got[0]


def _corpus_coverings():
    """The bases of the corpus's covering rings."""
    objs, bases = {}, []
    for _, doc in corpus_docs():
        objs[content_hash(doc)] = from_json(doc)
        prov = doc.get("provenance") or {}
        if prov.get("construction") == "covering_ring":
            bases.append(objs[prov["inputs"][0]])
    return bases


def test_corpus_coverings_match_the_dense_code():
    bases = _corpus_coverings()
    assert bases
    rng = random.Random(7)
    for R in bases:
        reg = regular_module(R, "right")
        mods = [twist(reg, g) for g in R.group.elements()]
        mods += [random_graded_module(R, rng) for _ in range(4)]
        for M in mods:
            _check_round_trip(M)
        # hom spaces over the covering ring itself, which is ungraded
        cov = covering_ring(R)
        V = covering_module(mods[-1], cov)
        _same_homs(V, covering_module(reg, cov))


@pytest.mark.parametrize("seed", [1, 1009])
def test_zoo_round_trips_match_the_dense_code(seed, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wl = importlib.import_module("workloads")
    make = wl._algebra_maker(6, 6)
    for i, (fam, dim, order, mdim) in enumerate(wl.COVER_STRATA):
        r = wl._recipe(f"{seed}:cover:0:{i}", make, wl._family_dim_order,
                       (fam, dim, order), [wl._graded_module], [mdim], wl._dim)
        _check_round_trip(r.build()[1])


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(range(len(FIELDS))), seed=st.integers(0, 2 ** 32))
def test_random_modules_match_the_dense_code(field, seed):
    rng = random.Random(seed)
    A = random_graded_algebra(FIELDS[field], rng, max_dim=6, max_group=6)
    _check_round_trip(random_graded_module(A, rng))


def test_images_that_do_not_decompose_are_refused():
    # over the covering of the dual numbers graded by Z/2, the diagonal
    # idempotents are the slots 0 and 3; they send both basis vectors of
    # V to zero, or both to v0, so their images miss a dimension
    cov = covering_ring(truncated_polynomial(F5, 2, FiniteAbelianGroup((2,)), (1,)))
    onto_v0 = [{0: 1}, {}, {}, {0: 1}]
    for action in ([[{}] * 4] * 2, [onto_v0] * 2):
        V = GradedModule(cov.algebra, "right", ["v0", "v1"], [(), ()], action)
        for build in (covering_module_inverse, _dense_inverse):
            with pytest.raises(ConstructionError, match="do not decompose"):
                build(V, cov)
