"""The block layout of the generalized matrix rings against loop references.

Morita context rings, tensor rings, theta extensions, tuple modules, the
doubled-block bimodule and direct sums write their tables block by block
through algebra._place; the positive splitter, the degree-zero subalgebra
and the component bimodules read blocks back through algebra._cut; the
covering ring, the four blocks and the pairings of its Morita split and
both parts of the Beilinson pattern are slot patterns of the graded ring
they start from.  The ref_* functions below build the same tables with
explicit loops, one cell at a time, and serve as references: every
construction must give identical labels, degrees, unit and tables (==),
and refuse the same inputs with the same message, on the bundled corpus,
on the benchmark zoo's tensor-family draws, and on hypothesis draws over
F_2, F_5 and Q.  test_cleft_modules_match_the_reference keeps
the base-over-extension module builder the vanishing check used before
it read both modules off CleftFunctors.
"""

import importlib
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from injgen.algebra import (ConstructionError, GradedAlgebra, GradedBimodule,
                            GradedModule, _place, component_bimodule,
                            degree_zero_subalgebra, direct_sum, regular_module,
                            zero_module)
from injgen.bundled import corpus_docs
from injgen.constructions import (CleftFunctors, MoritaContext, TensorRingData,
                                  ThetaData, beilinson, covering_ring,
                                  morita_ring, reconstruct, regular_right_tuple,
                                  split_covering, split_positively_graded,
                                  tensor_ring, tower_of, trivial_extension)
from injgen.field import QQ, PrimeField
from injgen.groups import TRIVIAL_GROUP
from injgen.homology import _block_pattern_bimodule, nilpotency_index
from injgen.samples import (random_graded_algebra, random_graded_module,
                            random_module, random_upper_half_zero_algebra)
from injgen.serialize import content_hash, from_json

FIELDS = (PrimeField(2), PrimeField(5), QQ)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# -- loop references: writers ----------------------------------------------------


def ref_morita(A, B, N, M, phi, psi):
    F = A.field
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
            mult[oN + i][oM + j] = {oA + k: c for k, c in psi[i][j].items()}
        for j in range(dB):
            mult[oN + i][oB + j] = {oN + k: c for k, c in N.right_action[i][j].items()}
    for i in range(dM):
        for j in range(dA):
            mult[oM + i][oA + j] = {oM + k: c for k, c in M.right_action[i][j].items()}
        for j in range(dN):
            mult[oM + i][oN + j] = {oB + k: c for k, c in phi[i][j].items()}
    for i in range(dB):
        for j in range(dM):
            mult[oB + i][oM + j] = {oM + k: c for k, c in M.left_action[j][i].items()}
        for j in range(dB):
            mult[oB + i][oB + j] = {oB + k: c for k, c in B.mult[i][j].items()}
    unit = ([c for c in A.unit] + [F.zero()] * (dN + dM) + [c for c in B.unit])
    labels = ([f"a:{s}" for s in A.labels] + [f"n:{s}" for s in N.labels]
              + [f"m:{s}" for s in M.labels] + [f"b:{s}" for s in B.labels])
    degrees = A.degree + N.degree + M.degree + B.degree
    return GradedAlgebra._trusted(F, A.group, labels, degrees, unit, mult)


def ref_theta_tables(R, M, theta):
    F = R.field
    dR, dM = R.dim, M.dim
    dim = dR + dM
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(dR):
        for j in range(dR):
            mult[i][j] = R.mult[i][j]
        for j in range(dM):
            mult[i][dR + j] = {dR + k: c for k, c in M.left_action[j][i].items()}
    for i in range(dM):
        for j in range(dR):
            mult[dR + i][j] = {dR + k: c for k, c in M.right_action[i][j].items()}
        for j in range(dM):
            mult[dR + i][dR + j] = {dR + k: c for k, c in theta[i][j].items()}
    unit = list(R.unit) + [F.zero()] * dM
    labels = [f"r:{s}" for s in R.labels] + [f"m:{s}" for s in M.labels]
    return GradedAlgebra._trusted(F, TRIVIAL_GROUP, labels, [()] * dim, unit, mult)


def ref_tensor_ring(trd):
    """The tensor ring's algebra from its tower, index and group."""
    tower, k, R = trd.tower, trd.index, trd.tower.base
    F = R.field
    offsets, labels, degrees = [], [], []
    for i in range(k):
        offsets.append(len(labels))
        Pi = tower.power(i)
        labels.extend(f"t{i}:{s}" for s in Pi.labels)
        degrees.extend([(i,)] * Pi.dim)
    dim = len(labels)
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(k):
        Pi = tower.power(i)
        for j in range(k - i):
            Pj = tower.power(j)
            if Pi.dim == 0 or Pj.dim == 0 or tower.power(i + j).dim == 0:
                continue
            off = offsets[i + j]
            for u, cells in enumerate(tower.mu(i, j)):
                row = mult[offsets[i] + u]
                for v, cell in enumerate(cells):
                    if cell:
                        row[offsets[j] + v] = {off + t: c for t, c in cell.items()}
    unit = [F.zero()] * dim
    for t, c in enumerate(R.unit):
        unit[t] = c
    assert offsets == trd.offsets
    return GradedAlgebra._trusted(F, trd.algebra.group, labels, degrees, unit, mult)


def ref_tuple_module(t):
    ctx, X, Y = t.ctx, t.X, t.Y
    Lam = ctx.assembled
    oA, oN, oM, oB = ctx.offsets
    (oX, PX), (oY, PY) = ((oN, ctx.N), (oM, ctx.M)) if t.side == "right" \
        else ((oM, ctx.M), (oN, ctx.N))
    dX = X.dim
    dim = dX + Y.dim
    action = [[{} for _ in range(Lam.dim)] for _ in range(dim)]
    for i in range(dX):
        for a in range(ctx.A.dim):
            action[i][oA + a] = X.action[i][a]
        for b in range(PX.dim):
            action[i][oX + b] = {dX + k: c for k, c in t.f[i][b].items()}
    for j in range(Y.dim):
        for b in range(ctx.B.dim):
            action[dX + j][oB + b] = {dX + k: c for k, c in Y.action[j][b].items()}
        for b in range(PY.dim):
            action[dX + j][oY + b] = t.g[j][b]
    labels = [f"x:{s}" for s in X.labels] + [f"y:{s}" for s in Y.labels]
    return GradedModule._trusted(Lam, t.side, labels, X.degree + Y.degree, action)


def ref_block_pattern(ctx, tower, k):
    Lam = ctx.assembled
    dA, dN = ctx.A.dim, ctx.N.dim
    oA, oN, _, oB = ctx.offsets
    pows = [2 * k, 2 * k + 1, 2 * k - 1, 2 * k]
    blocks = [tower.power(p) for p in pows]
    dims = [b.dim for b in blocks]
    offs = [sum(dims[:t]) for t in range(4)]
    total = sum(dims)
    labels, degrees = [], []
    for t, b in enumerate(blocks):
        labels.extend(f"{['tl', 'tr', 'bl', 'br'][t]}:{s}" for s in b.labels)
        degrees.extend(b.degree)
    left = [[{} for _ in range(Lam.dim)] for _ in range(total)]
    right = [[{} for _ in range(Lam.dim)] for _ in range(total)]
    for t, b in enumerate(blocks):
        row_corner = oA if t in (0, 1) else oB
        col_corner = oA if t in (0, 2) else oB
        for i in range(b.dim):
            for a in range(dA):
                left[offs[t] + i][row_corner + a] = {
                    offs[t] + kk: c for kk, c in b.left_action[i][a].items()}
                right[offs[t] + i][col_corner + a] = {
                    offs[t] + kk: c for kk, c in b.right_action[i][a].items()}
    for (src, dst) in ((2, 0), (3, 1)):
        if dims[src] == 0 or dN == 0:
            continue
        mu = tower.mu(1, pows[src])
        for i in range(dims[src]):
            for nn in range(dN):
                left[offs[src] + i][oN + nn] = {
                    offs[dst] + kk: c for kk, c in mu[nn][i].items()}
    for (src, dst) in ((0, 1), (2, 3)):
        if dims[src] == 0 or dN == 0:
            continue
        mu = tower.mu(pows[src], 1)
        for i in range(dims[src]):
            for nn in range(dN):
                right[offs[src] + i][oN + nn] = {
                    offs[dst] + kk: c for kk, c in mu[i][nn].items()}
    return GradedBimodule._trusted(Lam, Lam, labels, degrees, left, right)


def ref_direct_sum(mods):
    A, side = mods[0].algebra, mods[0].side
    labels, degree, action, offsets = [], [], [], []
    off = 0
    for t, m in enumerate(mods):
        offsets.append(off)
        labels.extend(f"{s}#{t}" for s in m.labels)
        degree.extend(m.degree)
        for i in range(m.dim):
            action.append([{k + off: c for k, c in m.action[i][j].items()}
                           for j in range(A.dim)])
        off += m.dim
    return GradedModule._trusted(A, side, labels, degree, action), offsets


def ref_covering_ring(R):
    """(algebra, basis_triples, pos) of the covering ring of R."""
    group = R.group
    F = R.field
    els = group.elements()
    triples = []
    block_index = {}
    pos = {}
    for g in els:
        for h in els:
            idxs = []
            for i in R.component_indices(group.sub(h, g)):
                pos[(g, h, i)] = len(triples)
                idxs.append(len(triples))
                triples.append((g, h, i))
            block_index[(g, h)] = idxs
    dim = len(triples)
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    # slot (g, h) composes with the slots (h, k) only
    for (g, h), left in block_index.items():
        for k in els:
            right = block_index[(h, k)]
            for p in left:
                row, i = mult[p], triples[p][2]
                for q in right:
                    row[q] = {pos[(g, k, t)]: c for t, c in R.mult[i][triples[q][2]].items()}
    unit = [F.zero()] * dim
    for g in els:
        for i, c in enumerate(R.unit):
            if not F.is_zero(c):
                unit[pos[(g, g, i)]] = c
    gl = lambda g: ",".join(str(x) for x in g) if g else "0"
    labels = [f"({gl(g)}>{gl(h)}){R.labels[i]}" for (g, h, i) in triples]
    alg = GradedAlgebra._trusted(F, TRIVIAL_GROUP, labels, [()] * dim, unit, mult)
    return alg, triples, pos


def ref_beilinson(Lam, level):
    """(algebra, bimodule) of the Beilinson pattern at the level, or the
    ConstructionError that refuses it."""
    group = Lam.group
    if len(group.factors) != 1:
        raise ConstructionError("triangular cut needs a cyclic grading group")
    m = group.factors[0]
    l = int(level)
    if l < 1 or l > m - 1:
        raise ConstructionError(f"level {l} out of range for order {m}")
    for i in range(l + 1, m):
        if Lam.component_indices((i,)):
            raise ConstructionError(f"component beyond the level is nonzero: degree {i}")
    if 2 * l - 1 >= m:
        raise ConstructionError("grading group too small for the block pattern; "
                                "re-embed in a larger cyclic group")
    F = Lam.field

    def build(slots, slot_degree):
        triples = []
        pos = {}
        for (r, c) in slots:
            for i in Lam.component_indices((slot_degree(r, c),)):
                pos[(r, c, i)] = len(triples)
                triples.append((r, c, i))
        return triples, pos

    upper = [(r, c) for r in range(l) for c in range(r, l)]
    btrip, bpos = build(upper, lambda r, c: c - r)
    dimb = len(btrip)
    mult = [[{} for _ in range(dimb)] for _ in range(dimb)]
    for p, (r, c, i) in enumerate(btrip):
        for q, (r2, c2, j) in enumerate(btrip):
            if c != r2:
                continue
            mult[p][q] = {bpos[(r, c2, k)]: v for k, v in Lam.mult[i][j].items()}
    unit = [F.zero()] * dimb
    for r in range(l):
        for i, v in enumerate(Lam.unit):
            if not F.is_zero(v):
                unit[bpos[(r, r, i)]] = v
    blabels = [f"b[{r},{c}]{Lam.labels[i]}" for (r, c, i) in btrip]
    balg = GradedAlgebra._trusted(F, TRIVIAL_GROUP, blabels, [()] * dimb, unit, mult)

    lower = [(r, c) for r in range(l) for c in range(r + 1)]
    xtrip, xpos = build(lower, lambda r, c: l - r + c)
    dimx = len(xtrip)
    left = [[{} for _ in range(dimb)] for _ in range(dimx)]
    right = [[{} for _ in range(dimb)] for _ in range(dimx)]
    for q, (r, c, j) in enumerate(xtrip):
        for p, (r2, c2, i) in enumerate(btrip):
            # left: b-slot (r2, c2) times x-slot (r, c) lands at (r2, c)
            if c2 == r:
                cell = {}
                for k, v in Lam.mult[i][j].items():
                    if (r2, c, k) not in xpos:
                        raise ConstructionError("block pattern leak in the bimodule part")
                    cell[xpos[(r2, c, k)]] = v
                left[q][p] = cell
            # right: x-slot (r, c) times b-slot (r2, c2) lands at (r, c2)
            if c == r2:
                cell = {}
                for k, v in Lam.mult[j][i].items():
                    if (r, c2, k) not in xpos:
                        raise ConstructionError("block pattern leak in the bimodule part")
                    cell[xpos[(r, c2, k)]] = v
                right[q][p] = cell
    xlabels = [f"x[{r},{c}]{Lam.labels[i]}" for (r, c, i) in xtrip]
    xbim = GradedBimodule._trusted(balg, balg, xlabels, [()] * dimx, left, right)
    return balg, xbim


# -- loop references: readers ----------------------------------------------------


def ref_split_covering(cov, k):
    """(A, B, N, M, phi, psi) of the split at index k."""
    top = {(r,) for r in range(k + 1)}
    F = cov.base.field

    def collect(rows_top, cols_top):
        return [idx for idx, (g, h, _) in enumerate(cov.basis_triples)
                if (g in top) == rows_top and (h in top) == cols_top]

    idxA, idxN, idxM, idxB = (collect(True, True), collect(True, False),
                              collect(False, True), collect(False, False))
    covm = cov.algebra.mult

    def subalgebra(indices):
        local = {gi: i for i, gi in enumerate(indices)}
        mult = [[{local[t]: c for t, c in covm[p][q].items()}
                 for q in indices] for p in indices]
        unit = [cov.algebra.unit[p] for p in indices]
        labels = [cov.algebra.labels[p] for p in indices]
        return GradedAlgebra._trusted(F, TRIVIAL_GROUP, labels, [()] * len(indices),
                                      unit, mult), local

    A_alg, locA = subalgebra(idxA)
    B_alg, locB = subalgebra(idxB)

    def subbimodule(indices, left_idx, right_idx):
        local = {gi: i for i, gi in enumerate(indices)}
        left = [[{local[t]: c for t, c in covm[p][q].items()}
                 for p in left_idx] for q in indices]
        right = [[{local[t]: c for t, c in covm[q][p].items()}
                  for p in right_idx] for q in indices]
        return [cov.algebra.labels[p] for p in indices], left, right

    labN, leftN, rightN = subbimodule(idxN, idxA, idxB)
    N_bim = GradedBimodule._trusted(A_alg, B_alg, labN, [()] * len(idxN), leftN, rightN)
    labM, leftM, rightM = subbimodule(idxM, idxB, idxA)
    M_bim = GradedBimodule._trusted(B_alg, A_alg, labM, [()] * len(idxM), leftM, rightM)
    psi = [[{locA[t]: c for t, c in covm[gn][gm].items()} for gm in idxM] for gn in idxN]
    phi = [[{locB[t]: c for t, c in covm[gm][gn].items()} for gn in idxN] for gm in idxM]
    return A_alg, B_alg, N_bim, M_bim, phi, psi


def ref_split_positively_graded(Lam):
    """(R0, M, theta, perm), or ConstructionError on a wraparound."""
    zero_idx = [i for i, d in enumerate(Lam.degree) if d == Lam.group.zero()]
    pos_idx = [i for i, d in enumerate(Lam.degree) if d != Lam.group.zero()]
    R0 = ref_degree_zero_subalgebra(Lam)
    locp = {gi: i for i, gi in enumerate(pos_idx)}

    def restrict(row_global, local):
        out = {}
        for t, c in row_global.items():
            if t not in local:
                raise ConstructionError(
                    "positive part is not multiplicatively closed; re-embed the "
                    "grading in a larger cyclic group")
            out[local[t]] = c
        return out

    left = [[restrict(Lam.mult[g0][gp], locp) for g0 in zero_idx] for gp in pos_idx]
    right = [[restrict(Lam.mult[gp][g0], locp) for g0 in zero_idx] for gp in pos_idx]
    labels = [Lam.labels[i] for i in pos_idx]
    M = GradedBimodule._trusted(R0, R0, labels, [()] * len(pos_idx), left, right)
    theta = [[restrict(Lam.mult[gi][gj], locp) for gj in pos_idx] for gi in pos_idx]
    perm = [None] * Lam.dim
    for i, gi in enumerate(zero_idx):
        perm[gi] = i
    for i, gi in enumerate(pos_idx):
        perm[gi] = len(zero_idx) + i
    return R0, M, theta, perm


def ref_degree_zero_subalgebra(A):
    idx = A.component_indices(A.group.zero())
    pos = {i: t for t, i in enumerate(idx)}
    labels = [A.labels[i] for i in idx]
    unit = [A.unit[i] for i in idx]
    mult = [[{pos[k]: c for k, c in A.mult[i][j].items()} for j in idx] for i in idx]
    return GradedAlgebra._trusted(A.field, TRIVIAL_GROUP, labels, [() for _ in idx],
                                  unit, mult)


def ref_component_bimodule(A, gamma, A0):
    zidx = A.component_indices(A.group.zero())
    cidx = A.component_indices(gamma)
    pos = {i: t for t, i in enumerate(cidx)}
    labels = [A.labels[i] for i in cidx]
    left = [[{pos[k]: c for k, c in A.mult[j][i].items()} for j in zidx] for i in cidx]
    right = [[{pos[k]: c for k, c in A.mult[i][j].items()} for j in zidx] for i in cidx]
    return GradedBimodule._trusted(A0, A0, labels, [() for _ in cidx], left, right)


def ref_base_over_extension(td, side):
    """The base ring as a module over the extension, through the quotient
    map that kills the bimodule block."""
    E, R = td.algebra, td.base
    dR = R.dim
    action = [[(R.mult[j][i] if side == "left" else R.mult[i][j]) if j < dR else {}
               for j in range(E.dim)] for i in range(dR)]
    return GradedModule._trusted(E, side, R.labels, [E.group.zero()] * dR, action)


# -- checks ----------------------------------------------------------------------


def check_context(ctx):
    assert ctx.assembled == ref_morita(ctx.A, ctx.B, ctx.N, ctx.M, ctx.phi, ctx.psi)
    tuples = [regular_right_tuple(ctx), ctx.T_A(regular_module(ctx.A, "left")),
              ctx.T_B(regular_module(ctx.B, "left"))]
    if ctx.is_zero_context:
        tuples += [ctx.Z_A(regular_module(ctx.A, "left")),
                   ctx.Z_B(regular_module(ctx.B, "left"))]
    for t in tuples:
        assert t.as_module() == ref_tuple_module(t)


def check_extension(td):
    assert td.algebra == ref_theta_tables(td.base, td.bim, td.theta)
    assert trivial_extension(td.base, td.bim).algebra == ref_theta_tables(
        td.base, td.bim, [[{} for _ in range(td.bim.dim)] for _ in range(td.bim.dim)])


def check_bimodule(R, N, i_max=2):
    """Tensor ring and doubled-block bimodules of a bimodule over R."""
    tower = tower_of(N)
    nil = nilpotency_index(N)
    if nil.is_conclusive:
        trd = tensor_ring(R, N, nil.value)
        assert trd.algebra == ref_tensor_ring(trd)
    zero_bim = GradedBimodule._trusted(R, R, [], [], [], [])
    ctx = morita_ring(R, R, N, zero_bim)
    check_context(ctx)
    for k in range(1, i_max + 1):
        assert _block_pattern_bimodule(ctx, tower, k) == ref_block_pattern(ctx, tower, k)


def check_algebra(A, rng):
    """Every reader and writer that starts from one graded algebra."""
    A0 = degree_zero_subalgebra(A)
    assert A0 == ref_degree_zero_subalgebra(A)
    for g in A.group.elements():
        assert component_bimodule(A, g) == ref_component_bimodule(A, g, A0)
    cov = check_covering(A)
    check_beilinson(A)
    if len(A.group.factors) == 1 and A.group.order >= 2:
        for k in sorted({0, A.group.order // 2 - 1}):
            check_split_covering(cov, k)
        check_positive_split(A)
    mods = [regular_module(A, "right"), random_graded_module(A, rng),
            random_module(A, rng, "right"), zero_module(A, "right")]
    for summands in (mods[:1], mods[:2], mods):
        got, offsets = direct_sum(summands)
        want, want_offsets = ref_direct_sum(summands)
        assert got == want and offsets == want_offsets


def check_covering(R):
    cov = covering_ring(R)
    assert (cov.algebra, cov.basis_triples, cov.pos) == ref_covering_ring(R)
    return cov


def check_beilinson(Lam):
    """beilinson against the reference at every level from 0 to the group
    order, refusals included; the number of levels it builds."""
    built = 0
    for level in range(Lam.group.order + 1):
        try:
            want = ref_beilinson(Lam, level)
        except ConstructionError as e:
            with pytest.raises(ConstructionError) as got:
                beilinson(Lam, level)
            assert str(got.value) == str(e)
            continue
        bd = beilinson(Lam, level)
        assert (bd.algebra, bd.bim) == want
        built += 1
    return built


def check_split_covering(cov, k):
    ctx = split_covering(cov, k)
    assert (ctx.A, ctx.B, ctx.N, ctx.M, ctx.phi, ctx.psi) == ref_split_covering(cov, k)
    check_context(ctx)


def check_positive_split(Lam):
    try:
        want = ref_split_positively_graded(Lam)
    except ConstructionError as e:
        with pytest.raises(ConstructionError, match=re.escape(str(e))):
            split_positively_graded(Lam)
        return False
    td, perm = split_positively_graded(Lam)
    assert (td.base, td.bim, td.theta, perm) == want
    check_extension(td)
    if td.bim.dim:
        check_bimodule(td.base, td.bim)
    return True


# -- the tests -------------------------------------------------------------------


def test_place_writes_a_transposed_non_square_block():
    table = [[{0: 1}, {1: 2}, {}], [{2: 3}, {}, {0: 4}]]      # 2 x 3
    out = [[None] * 6 for _ in range(5)]
    _place(out, 1, 2, table, 10, swap=True)
    written = {(r, c): cell for r, row in enumerate(out) for c, cell in enumerate(row)
               if cell is not None}
    assert written == {(1, 2): {10: 1}, (1, 3): {12: 3}, (2, 2): {11: 2}, (2, 3): {},
                       (3, 2): {}, (3, 3): {10: 4}}
    out = [[None] * 3 for _ in range(2)]
    _place(out, 0, 0, table)
    assert all(out[r][c] is table[r][c] for r in range(2) for c in range(3))


def test_corpus_constructions_match_the_loop_references():
    objs = {}
    rng = random.Random(7)
    seen = set()
    for label, doc in corpus_docs():
        obj = objs[content_hash(doc)] = from_json(doc)
        prov = doc.get("provenance")
        if prov is not None:
            data = reconstruct(prov, objs.__getitem__).data
            seen.add(type(data))
            if isinstance(data, MoritaContext):
                check_context(data)
            elif isinstance(data, ThetaData):
                check_extension(data)
            elif isinstance(data, TensorRingData):
                assert data.algebra == ref_tensor_ring(data)
            elif hasattr(data, "basis_triples") and len(data.base.group.factors) == 1:
                for k in range(data.base.group.order - 1):
                    check_split_covering(data, k)
        if isinstance(obj, GradedAlgebra):
            check_algebra(obj, rng)
        elif isinstance(obj, GradedBimodule) and obj.left_algebra == obj.right_algebra:
            check_bimodule(obj.left_algebra, obj)
    assert {MoritaContext, ThetaData, TensorRingData} <= seen


@pytest.mark.parametrize("seed", [1, 1009])
def test_zoo_splits_match_the_loop_references(seed, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wl = importlib.import_module("workloads")
    positive = patterns = 0
    for rnd in range(wl.ZOO_ROUNDS["tensor"]):
        for i, (n, fam, dim) in enumerate(wl.TENSOR_STRATA):
            make = lambda rng, n=n: wl._make_tensor(rng, n)
            _, A = wl._sample(random.Random(f"{seed}:tensor:{rnd}:{i}"), make,
                              lambda A: (wl.family(A), A.dim), (fam, dim))
            check_split_covering(check_covering(A), A.group.order // 2 - 1)
            positive += check_positive_split(A)
            patterns += check_beilinson(A)
    assert positive and patterns


@settings(max_examples=30, deadline=None)
@given(field=st.sampled_from(range(len(FIELDS))), seed=st.integers(0, 2 ** 32))
def test_random_draws_match_the_loop_references(field, seed):
    F = FIELDS[field]
    rng = random.Random(seed)
    check_algebra(random_graded_algebra(F, rng, max_dim=4, max_group=4), rng)
    U = random_upper_half_zero_algebra(F, rng, rng.choice([1, 2]))
    check_algebra(U, rng)
    assert check_positive_split(U)
    assert check_beilinson(U)


def test_cleft_modules_match_the_reference():
    """The vanishing check's base-over-extension modules, read off
    CleftFunctors, equal the loop-built ones on the corpus extensions."""
    objs, extensions = {}, []
    for _, doc in corpus_docs():
        objs[content_hash(doc)] = from_json(doc)
        prov = doc.get("provenance")
        if prov is not None:
            data = reconstruct(prov, objs.__getitem__).data
            if isinstance(data, ThetaData):
                extensions.append(data)
    assert extensions
    for td in extensions:
        cf = CleftFunctors(td)
        assert cf.down.as_left_module() == ref_base_over_extension(td, "left")
        assert cf.Z(regular_module(cf.base, "right")) == ref_base_over_extension(td, "right")
