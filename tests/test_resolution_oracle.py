"""Covers, splittings, boundaries, Tor, corner dimensions and pairings
against the dense code they replaced.

The library holds every linear map as a list of sparse columns: the cover
pi of a module, its splitting witness, the boundaries of a resolution,
the tensored boundaries whose ranks give Tor and the corner actions of
power_block_law_check; the pairings of context and extension rings are
cell tables in the form of mult.  Before, each was a dense Matrix: pi was
filled into a zero matrix, the splitting came from a dense right inverse,
the boundaries were composed with Matrix.mul, the tensored boundaries and
the corner actions were dense matrices, and the pairings were matrices
read off column by column, column a * d2 + b for the pair of basis
vectors (a, b).  That code is kept here as an oracle, on a dense
Gauss-Jordan elimination of its own.  The library must give the same
cover matrices, splittings and boundaries, the same Tor from both sides,
the same corner dimensions and the same assembled context and extension
rings on the corpus, the benchmark zoo's strata at seeds 1 and 1009, and
hypothesis draws over F_2, F_5 and Q.
"""

import importlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_modules import action_matrix, identity, zeros
from structure_reference import _idempotents
from injgen.algebra import (ConstructionError, GradedAlgebra, GradedBimodule,
                            GradedModule, _closure_span, component_bimodule,
                            degree_zero_subalgebra, direct_sum, module_from_span,
                            regular_module)
from injgen.bundled import corpus_docs
from injgen.constructions import (TensorTower, construct, covering_ring,
                                  morita_ring, split_covering,
                                  split_positively_graded)
from injgen.field import QQ, PrimeField
from injgen.homology import (_block_pattern_bimodule, _corner_dims,
                             _projective, _resolver,
                             _tensored_boundary,
                             flatten_module, is_projective, tor)
from injgen.linalg import Matrix, _dense, render_columns, solve_sparse
from injgen.groups import FiniteAbelianGroup
from injgen.quiver import path_algebra
from injgen.samples import (group_algebra, random_graded_algebra, random_module,
                            random_upper_half_zero_algebra, truncated_polynomial)
from injgen.serialize import content_hash, from_json, matrix_from_json, to_json

F2, F5 = PrimeField(2), PrimeField(5)
FIELDS = (F2, F5, QQ)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# -- a dense elimination of the oracle's own ---------------------------------------


def _rref(F, rows, ncols):
    """Gauss-Jordan elimination on dense rows, first-nonzero pivoting:
    (the nonzero reduced rows, their pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if not F.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, a) for a in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and not F.is_zero(f):
                rows[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _rank(mat):
    return len(_rref(mat.field, mat.rows, mat.ncols)[1])


def _kernel(mat):
    """Dense kernel basis, one vector per free column, entry one there and
    zero at the other free columns."""
    F, n = mat.field, mat.ncols
    R, pivots = _rref(F, mat.rows, n)
    out = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [F.zero()] * n
        v[fc] = F.one()
        for row, pc in zip(R, pivots):
            v[pc] = F.neg(row[fc])
        out.append(v)
    return out


def _right_inverse(mat):
    """X with mat X = I from the reduced [mat | I], or None: row c of X is
    the identity part of the row with pivot c, zero at the free columns."""
    F, m, n = mat.field, mat.nrows, mat.ncols
    ident = identity(F, m).rows
    R, pivots = _rref(F, [r + e for r, e in zip(mat.rows, ident)], n + m)
    if any(c >= n for c in pivots):
        return None
    at = dict(zip(pivots, R))
    return Matrix(F, [at[c][n:] if c in at else [F.zero()] * m for c in range(n)], m)


def _column(mat, j):
    return [r[j] for r in mat.rows]


# -- covers, projectivity and resolutions as they were ------------------------------


class _DenseCover:
    """The cover of a flattened module with pi filled into a zero matrix."""

    def __init__(self, M):
        fld = M.field
        idems = _idempotents(M.algebra)[0]
        gens = []
        for g in M.generators():
            v = {g: fld.one()}
            if len(idems) == 1:
                gens.append((0, v))
                continue
            for i, e in enumerate(idems):
                (k, u), = e.items()
                w = {t: fld.mul(u, x) for t, x in M.act_sparse(v, k).items()}
                if w:
                    gens.append((i, w))
        self.summands = tuple(i for i, _ in gens)
        self.free, self.basis, self.tags = _projective(M.algebra, M.side, self.summands)
        self.pi = zeros(fld, M.dim, self.free.dim)
        for f, (c, j) in enumerate(self.basis):
            for k, x in M.act_sparse(gens[c][1], j).items():
                self.pi.rows[k][f] = x
        self.kernel = _kernel(self.pi)


def _dense_projectivity(M):
    """(projective, cover matrix, splitting matrix or None) by the kernel
    retraction, the splitting built as s = sigma - T sigma from a dense
    right inverse sigma of pi."""
    cov = _DenseCover(M)
    F, pi, fld = cov.free, cov.pi, M.field
    fixed = {}
    for f, t in enumerate(cov.tags):
        fixed.setdefault(t, []).append(f)
    col, n = [], 0
    for i in cov.summands:
        col.append({g: n + q for q, g in enumerate(fixed[i])})
        n += len(fixed[i])
    eqs, rhs = [], []
    for row in pi.rows:
        nz = [(g, a) for g, a in enumerate(row) if not fld.is_zero(a)]
        for cc in col:
            eq = {cc[g]: a for g, a in nz if g in cc}
            if eq:
                eqs.append(eq)
                rhs.append(fld.zero())
    for rho in cov.kernel:
        rho = {f: a for f, a in enumerate(rho) if not fld.is_zero(a)}
        rows = {f: {} for f in rho}
        for ce, a in rho.items():
            c, j = cov.basis[ce]
            for g in fixed[cov.summands[c]]:
                for f, x in F.action[g][j].items():
                    row = rows.setdefault(f, {})
                    row[col[c][g]] = row.get(col[c][g], 0) + a * x
        for f, row in rows.items():
            eqs.append(row)
            rhs.append(rho.get(f, fld.zero()))
    sol = solve_sparse(fld, eqs, rhs, n)
    if sol is None:
        return False, pi, None
    k = [{g: sol[u] for g, u in cc.items() if not fld.is_zero(sol[u])} for cc in col]
    tcols = [F.act_sparse(k[c], j) for c, j in cov.basis]
    sigma = _right_inverse(pi)
    s = [list(row) for row in sigma.rows]
    for ce, tcol in enumerate(tcols):
        for i, a in enumerate(sigma.rows[ce]):
            if not fld.is_zero(a):
                for f, x in tcol.items():
                    s[f][i] = fld.sub(s[f][i], fld.mul(a, x))
    return True, pi, Matrix(fld, s, M.dim)


def _dense_resolution(M, n):
    """The covers and boundaries of the first n steps: boundary i is the
    inclusion of syzygy i - 1 into F_i-1 times pi_i, by Matrix.mul.  Each
    syzygy is built from the dense kernel and must be the library's."""
    M = flatten_module(M)
    res = _resolver(M)
    res.ensure(n)
    covers, boundaries = [], []
    prev, incl = M, None
    for i in range(n):
        cov = _DenseCover(prev)
        covers.append(cov)
        boundaries.append(cov.pi if incl is None else incl.mul(cov.pi))
        syz, inc = module_from_span(cov.free, cov.kernel, label="z")
        lib = res.syzygies[i]
        assert (syz.labels, syz.degree, syz.action) == (lib.labels, lib.degree, lib.action)
        # the inclusion has the reduced rows of the kernel's closure as columns
        basis = [_dense(M.field, r, cov.free.dim)
                 for _, r in _closure_span(cov.free, cov.kernel).rows()]
        incl = Matrix(M.field, [[b[k] for b in basis] for k in range(cov.free.dim)],
                      len(basis))
        assert inc.matrix == incl
        prev = lib
    return covers, boundaries


def _check_resolution(M, n):
    """The library's covers, boundaries and splittings along the first n
    steps of M's resolution are the dense ones."""
    M = flatten_module(M)
    covers, boundaries = _dense_resolution(M, n)
    res = _resolver(M)
    mods = [M] + res.syzygies[:n - 1]
    for i, (mod, cov, bd) in enumerate(zip(mods, covers, boundaries)):
        lib = res.covers[i]
        assert lib.summands == cov.summands and lib.basis == cov.basis
        assert lib.pi.matrix == cov.pi
        assert res.boundaries[i].matrix == bd
        rep = is_projective(mod)
        projective, pi, split = _dense_projectivity(mod)
        assert rep.projective == projective and rep.cover.matrix == pi
        assert (rep.splitting and rep.splitting.matrix) == split
        if split is not None:
            assert pi.mul(split) == identity(mod.field, mod.dim)
    for a, b in zip(boundaries, boundaries[1:]):
        comp = a.mul(b)
        assert comp == zeros(comp.field, comp.nrows, comp.ncols)


# -- Tor as it was --------------------------------------------------------------------


def _dense_tensored_boundary(bmat, src, dst, idems, partner):
    fld, dP = partner.field, partner.dim
    out = zeros(fld, len(dst.summands) * dP, len(src.summands) * dP)
    coord = {b: f for f, b in enumerate(src.basis)}
    for c, i in enumerate(src.summands):
        gen = [(coord[(c, k)], x) for k, x in idems[i].items()]
        for f, brow in enumerate(bmat.rows):
            lam = fld.zero()
            for g, x in gen:
                if not fld.is_zero(brow[g]):
                    lam = fld.add(lam, fld.mul(brow[g], x))
            if fld.is_zero(lam):
                continue
            cd, j = dst.basis[f]
            act = action_matrix(partner, j)
            for k in range(dP):
                row = out.rows[cd * dP + k]
                for t in range(dP):
                    a = act.rows[k][t]
                    if not fld.is_zero(a):
                        row[c * dP + t] = fld.add(row[c * dP + t], fld.mul(lam, a))
    return out


def _dense_tor(X, Y, i_max, resolve_side):
    X, Y = flatten_module(X), flatten_module(Y)
    resolved, partner = (X, Y) if resolve_side == "first" else (Y, X)
    if X.dim == 0 or Y.dim == 0:
        return [0] * (i_max + 1)
    cap = i_max
    if i_max >= 1:
        verdict = _resolver(resolved).pd_verdict(i_max)
        if verdict.is_finite:
            cap = min(cap, verdict.value)
    covers, boundaries = _dense_resolution(resolved, cap + 2)
    idems = _idempotents(resolved.algebra)[0]
    edim = ([partner.dim] if len(idems) == 1 else
            [_rank(action_matrix(partner, k)) for e in idems for k in e])
    res, tranks = _resolver(resolved), []
    for i in range(1, cap + 2):
        tb = _dense_tensored_boundary(boundaries[i], covers[i], covers[i - 1], idems, partner)
        # the library's tensored boundary, column for column
        assert tb == render_columns(tb.field, _tensored_boundary(
            res.boundaries[i], res.covers[i], res.covers[i - 1], idems, partner), tb.nrows)
        tranks.append(_rank(tb))
    chains = [sum(edim[i] for i in cov.summands) for cov in covers]
    dims = [chains[0] - tranks[0]]
    for i in range(1, cap + 1):
        dims.append(chains[i] - tranks[i - 1] - tranks[i])
    return dims + [0] * (i_max - cap)


def _check_tor(X, Y, i_max):
    want = _dense_tor(X, Y, i_max, "first")
    assert want == _dense_tor(X, Y, i_max, "second")
    assert tor(X, Y, i_max, "first") == want == tor(X, Y, i_max, "second")


def _check_module_pair(X, Y, steps, i_max):
    for M in (X, Y):
        _check_resolution(M, steps)
    _check_tor(X, Y, i_max)


# -- corner dimensions as they were -----------------------------------------------------


def _dense_corner_dims(V, idem_vectors):
    fld = V.field

    def act_matrix(action, avec):
        m = zeros(fld, V.dim, V.dim)
        for i in range(V.dim):
            for j, c in enumerate(avec):
                if fld.is_zero(c):
                    continue
                for k, x in action[i][j].items():
                    m.rows[k][i] = fld.add(m.rows[k][i], fld.mul(c, x))
        return m

    out = {}
    for rname, rv in idem_vectors.items():
        L = act_matrix(V.left_action, rv)
        for cname, cv in idem_vectors.items():
            out[(rname, cname)] = _rank(L.mul(act_matrix(V.right_action, cv)))
    return out


def _check_corner_dims(A, N, i_max=2):
    """On the powers of the doubled-block bimodule of (A, N), as
    power_block_law_check reads them; False, with nothing checked, when
    the powers of N below 2 i_max + 2 outgrow 16 dimensions."""
    tower = TensorTower(A, N)
    if any(tower.power(k).dim > 16 for k in range(1, 2 * i_max + 2)):
        return False
    zero = GradedBimodule(A, A, [], [], [], [])
    ctx = morita_ring(A, A, N, zero)
    Lam, fld = ctx.assembled, A.field
    towerM = TensorTower(Lam, _block_pattern_bimodule(ctx, tower, 1))
    oA, _, _, oB = ctx.offsets
    dense, sparse = {}, {}
    for name, off in (("top", oA), ("bot", oB)):
        v = [fld.zero()] * Lam.dim
        for e, c in enumerate(A.unit):
            v[off + e] = c
        dense[name] = v
        sparse[name] = {k: c for k, c in enumerate(v) if not fld.is_zero(c)}
    for i in range(1, i_max + 1):
        V = towerM.power(i)
        assert _corner_dims(V, sparse) == _dense_corner_dims(V, dense)
    return True


# -- pairings read off dense matrices, as they were ---------------------------------------


def _pair(raw, a, b, d2):
    """The sparse value of the pair (a, b) in a dense pairing matrix."""
    F = raw.field
    return {k: x for k, x in enumerate(_column(raw, a * d2 + b)) if not F.is_zero(x)}


def _dense_context_mult(A, B, N, M, phi_raw, psi_raw):
    dA, dN, dM, dB = A.dim, N.dim, M.dim, B.dim
    oA, oN, oM, oB = 0, dA, dA + dN, dA + dN + dM
    dim = dA + dN + dM + dB
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(dA):
        for j in range(dA):
            mult[oA + i][oA + j] = {oA + k: c for k, c in A.mult[i][j].items()}
        for j in range(dN):
            mult[oA + i][oN + j] = {oN + k: c for k, c in N.left_action[j][i].items()}
    for i in range(dN):
        for j in range(dM):
            mult[oN + i][oM + j] = {oA + k: c for k, c in _pair(psi_raw, i, j, dM).items()}
        for j in range(dB):
            mult[oN + i][oB + j] = {oN + k: c for k, c in N.right_action[i][j].items()}
    for i in range(dM):
        for j in range(dA):
            mult[oM + i][oA + j] = {oM + k: c for k, c in M.right_action[i][j].items()}
        for j in range(dN):
            mult[oM + i][oN + j] = {oB + k: c for k, c in _pair(phi_raw, i, j, dN).items()}
    for i in range(dB):
        for j in range(dM):
            mult[oB + i][oM + j] = {oM + k: c for k, c in M.left_action[j][i].items()}
        for j in range(dB):
            mult[oB + i][oB + j] = {oB + k: c for k, c in B.mult[i][j].items()}
    return mult


def _dense_theta_mult(R, M, theta_raw):
    dR, dM = R.dim, M.dim
    mult = [[{} for _ in range(dR + dM)] for _ in range(dR + dM)]
    for i in range(dR):
        for j in range(dR):
            mult[i][j] = R.mult[i][j]
        for j in range(dM):
            mult[i][dR + j] = {dR + k: c for k, c in M.left_action[j][i].items()}
    for i in range(dM):
        for j in range(dR):
            mult[dR + i][j] = {dR + k: c for k, c in M.right_action[i][j].items()}
        for j in range(dM):
            mult[dR + i][dR + j] = {dR + k: c for k, c in _pair(theta_raw, i, j, dM).items()}
    return mult


def _dense_split_pairings(cov, ctx):
    """phi and psi of split_covering as the dense matrices it filled in."""
    covm, F = cov.algebra.mult, cov.base.field
    labels = cov.algebra.labels
    at = {name: {labels.index(s): t for t, s in enumerate(corner.labels)}
          for name, corner in (("A", ctx.A), ("N", ctx.N), ("M", ctx.M), ("B", ctx.B))}
    idxN, idxM = sorted(at["N"], key=at["N"].get), sorted(at["M"], key=at["M"].get)
    dN, dM = len(idxN), len(idxM)
    psi = zeros(F, ctx.A.dim, dN * dM)
    for n, gn in enumerate(idxN):
        for m, gm in enumerate(idxM):
            for t, c in covm[gn][gm].items():
                psi.rows[at["A"][t]][n * dM + m] = c
    phi = zeros(F, ctx.B.dim, dM * dN)
    for m, gm in enumerate(idxM):
        for n, gn in enumerate(idxN):
            for t, c in covm[gm][gn].items():
                phi.rows[at["B"][t]][m * dN + n] = c
    return phi, psi


def _dense_positive_theta(Lam):
    """theta of split_positively_graded as the dense matrix it filled in."""
    pos = [i for i, d in enumerate(Lam.degree) if d != Lam.group.zero()]
    loc = {gi: i for i, gi in enumerate(pos)}
    d = len(pos)
    theta = zeros(Lam.field, d, d * d)
    for i, gi in enumerate(pos):
        for j, gj in enumerate(pos):
            for t, c in Lam.mult[gi][gj].items():
                theta.rows[loc[t]][i * d + j] = c
    return theta


def _check_split_covering(R):
    """split_covering of the covering of R at every cut: the pairings it
    fills in densely assemble the library's ring."""
    if len(R.group.factors) != 1 or R.group.order < 2:
        return
    cov = covering_ring(R)
    for k in range(R.group.order - 1):
        ctx = split_covering(cov, k)
        phi, psi = _dense_split_pairings(cov, ctx)
        assert ctx.assembled.mult == _dense_context_mult(ctx.A, ctx.B, ctx.N, ctx.M, phi, psi)


def _check_positive_split(Lam):
    try:
        td, _ = split_positively_graded(Lam)
    except ConstructionError:
        return
    theta = _dense_positive_theta(Lam)
    assert td.algebra.mult == _dense_theta_mult(td.base, td.bim, theta)


# -- the corpus ----------------------------------------------------------------------------


def _corpus():
    objs, records = {}, []
    for _, doc in corpus_docs():
        h = content_hash(doc)
        objs[h] = from_json(doc)
        prov = doc.get("provenance")
        if prov:
            records.append((h, prov))
    return objs, records


def test_corpus_pairings_decode_and_assemble_as_the_dense_code():
    objs, records = _corpus()
    seen = set()
    for h, prov in records:
        name, params = prov["construction"], prov.get("params") or {}
        if name not in ("morita_ring", "theta_extension"):
            continue
        ins = [objs[i] for i in prov["inputs"]]
        built = construct(name, ins, params)
        assert content_hash(to_json(built.obj)) == h
        assert built.provenance(prov["inputs"]) == prov
        F = ins[0].field
        if name == "morita_ring":
            A, B, N, M = ins
            phi, psi = (matrix_from_json(F, params[key], ncols) if key in params
                        else zeros(F, nrows, ncols)
                        for key, nrows, ncols in (("phi", B.dim, M.dim * N.dim),
                                                  ("psi", A.dim, N.dim * M.dim)))
            assert built.obj.mult == _dense_context_mult(A, B, N, M, phi, psi)
        else:
            R, M = ins
            theta = matrix_from_json(F, params["theta"], M.dim ** 2)
            assert built.obj.mult == _dense_theta_mult(R, M, theta)
        seen.add(name)
    assert seen == {"morita_ring", "theta_extension"}


def test_corpus_modules_resolve_as_the_dense_code():
    objs, _ = _corpus()
    algebras = [A for A in objs.values() if isinstance(A, GradedAlgebra)]
    bimodules = [W for W in objs.values() if isinstance(W, GradedBimodule)]
    assert algebras and bimodules
    rng = random.Random(11)
    for A in algebras:
        if A.dim <= 12:
            _check_module_pair(random_module(A, rng, "right"), random_module(A, rng, "left"),
                               3, 2)
        _check_split_covering(A)
        _check_positive_split(A)
    corners = []
    for W in bimodules:
        if W.left_algebra == W.right_algebra and W.dim <= 12:
            _check_module_pair(W.as_right_module(), W.as_left_module(), 3, 2)
            corners.append(_check_corner_dims(W.left_algebra, W))
    assert any(corners)


# -- the benchmark zoo ------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 1009])
def test_zoo_strata_match_the_dense_code(seed, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wl = importlib.import_module("workloads")
    tor_alg = wl._algebra_maker(4, 4)
    for i, (alg, xshape, yshape) in enumerate(wl.TOR_STRATA):
        r = wl._recipe(f"{seed}:tor:0:{i}", tor_alg, wl._family_dim_vertices, alg,
                       [wl._right_module, wl._left_module], [xshape, yshape],
                       wl._module_shape)
        _, X, Y = r.build()
        _check_module_pair(X, Y, 3, wl.ZOO_TOR_DEPTH + 1)
    for i, (n, fam, dim) in enumerate(wl.TENSOR_STRATA):
        make = lambda rng, n=n: wl._make_tensor(rng, n)
        _, A = wl._sample(random.Random(f"{seed}:tensor:0:{i}"), make,
                          lambda A: (wl.family(A), A.dim), (fam, dim))
        _check_split_covering(A)
        _check_positive_split(A)
        assert _check_corner_dims(degree_zero_subalgebra(A), component_bimodule(A, (1,)))


# -- hypothesis draws ----------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(range(len(FIELDS))), seed=st.integers(0, 2 ** 32))
def test_random_modules_match_the_dense_code(field, seed):
    rng = random.Random(seed)
    A = random_graded_algebra(FIELDS[field], rng, max_dim=6, max_group=4)
    _check_module_pair(random_module(A, rng, "right"), random_module(A, rng, "left"), 3, 2)
    _check_split_covering(A)


@settings(max_examples=20, deadline=None)
@given(field=st.sampled_from(range(len(FIELDS))), seed=st.integers(0, 2 ** 32))
def test_random_pairings_match_the_dense_code(field, seed):
    rng = random.Random(seed)
    A = random_upper_half_zero_algebra(FIELDS[field], rng, rng.randint(1, 3))
    _check_positive_split(A)
    _check_split_covering(A)
    if A.group.order >= 2:
        _check_corner_dims(degree_zero_subalgebra(A), component_bimodule(A, (1,)))


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_projective_witnesses_match_the_dense_code(fld):
    """Resolutions that end in a projective syzygy, so that the splitting
    witness is built and compared: the simples of A_3 and of A_3 with
    rad^2 = 0, and free and regular modules; and the trivial character of
    the group algebra of Z/3, projective over each of these fields, whose
    free cover has a kernel, so that the witness differs from the section
    it is built from."""
    free_seen = False
    for rels in ([], [("a", "b")]):
        pa = path_algebra(fld, ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")], rels)
        A = pa.algebra
        for v in ("1", "2", "3"):
            hot = pa.vertex_index[v]
            for side in ("right", "left"):
                S = _simple(A, side, hot)
                _check_resolution(S, 2)
                free_seen |= any(is_projective(m).projective for m in
                                 [flatten_module(S)] + _resolver(S).syzygies[:1])
        for side in ("right", "left"):
            _check_resolution(direct_sum([regular_module(A, side)] * 2)[0], 1)
    G = group_algebra(fld, FiniteAbelianGroup((3,)))
    trivial = GradedModule(G, "right", ["s"], [G.group.zero()],
                           [[{0: fld.one()} for _ in range(G.dim)]])
    _check_resolution(trivial, 1)
    assert is_projective(trivial).projective and _DenseCover(trivial).kernel
    D = truncated_polynomial(fld, 2)
    _check_resolution(regular_module(D, "right"), 1)
    _check_module_pair(_simple(D, "right", 0), _simple(D, "left", 0), 3, 3)
    # x acting by 3 on the partner of a Tor: the tensored boundaries carry
    # coefficients other than one
    for side in ("right", "left"):
        line = GradedModule(D, side, ["m0", "m1"], [(), ()],
                            [[{0: fld.one()}, {1: fld.of_int(3)}], [{1: fld.one()}, {}]])
        pair = (_simple(D, "right", 0), line) if side == "left" else \
            (line, _simple(D, "left", 0))
        _check_module_pair(*pair, 3, 3)
    assert free_seen


def _simple(A, side, hot):
    """The one-dimensional module on which basis element hot acts by one
    and every other basis element by zero."""
    one = A.field.one()
    return GradedModule(A, side, ["s"], [A.group.zero()],
                        [[{0: one} if j == hot else {} for j in range(A.dim)]])
