"""Context and extension pairings, and tuple maps, against the checks
they replaced.

morita_ring and theta_extension decide a nonzero pairing by the axioms of
the ring it assembles.  Before, they checked each condition on its own:
degrees of phi and psi, balance through the tensor space, two-sided
linearity on algebra generators, mixed associativity, and theta's
associativity with itself.  tuple_module decides caller-supplied tuple
maps by the module axioms of the tuple over the context ring.  Before,
TupleModule checked the degrees of f and g, that they are module maps,
and the two compatibility squares.  Those checks are kept here as an
oracle, on dense pairing matrices (column a * d2 + b holds the pairing
of basis vectors a and b) and dense tuple maps on the computed tensor
spaces (tuple_reference.RefTuple), and the constructions, handed the
same data as cell tables, must accept and reject exactly what it does.
Tuple tables that do not descend to the tensor space, which no map on it
can give, must be rejected too.  The tuples that the constructions build
hold their structure maps as cell tables of block products; the descent
check the old section reads replaced is kept here too, and the built
tables must pass it.
"""

import random
import re
from fractions import Fraction

import pytest

from dense_modules import (action_matrix, columns, dense_act, dense_apply,
                           dense_mul, is_module_hom, pairing_matrix,
                           pairing_table, zeros)
from injgen.algebra import (ConstructionError, GradedAlgebra, GradedBimodule,
                            ModuleHom, check_module_axioms, regular_bimodule,
                            regular_module)
from injgen.constructions import (TupleModule, covering_ring, morita_ring,
                                  regular_right_tuple, split_covering,
                                  split_positively_graded, theta_extension,
                                  tuple_module)
from injgen.field import QQ, PrimeField
from injgen.groups import FiniteAbelianGroup
from injgen.linalg import Matrix, _dense
from injgen.samples import (group_algebra, random_upper_half_zero_algebra,
                            truncated_polynomial)
from injgen.tensors import tensor_bimodules, tensor_over_algebra
from tuple_reference import (RefTuple, ref_induced, ref_left_tuple,
                             ref_regular_right_tuple)

F2, F5 = PrimeField(2), PrimeField(5)
FIELDS = (F2, F5, QQ)


# -- the replaced checks -------------------------------------------------------


def _preserves_degrees(matrix, source_degrees, target_degrees):
    F = matrix.field
    return all(F.is_zero(c) or source_degrees[t] == target_degrees[k]
               for k, row in enumerate(matrix.rows) for t, c in enumerate(row))


def _two_sided_linear(source, target, matrix):
    """matrix (target x source) commutes with both actions of the algebra
    generators."""
    for side in ("left", "right"):
        src = getattr(source, f"as_{side}_module")()
        tgt = getattr(target, f"as_{side}_module")()
        for j in src.algebra.generators():
            if matrix.mul(action_matrix(src, j)) != action_matrix(tgt, j).mul(matrix):
                return False
    return True


def _through_tensor(T, raw, target_dim):
    """raw (target x pair grid, column i*dimY + j) on T's basis, or None
    unless it kills the balancing relations (checked exactly)."""
    out = zeros(T.field, target_dim, T.dim)
    for t, (i, j) in enumerate(T.section):
        for k in range(target_dim):
            out.rows[k][t] = raw.rows[k][i * T.dimY + j]
    for i in range(T.dimX):
        for j in range(T.dimY):
            want = [raw.rows[k][i * T.dimY + j] for k in range(target_dim)]
            if dense_apply(out, _dense(T.field, T.project_pair(i, j), T.dim)) != want:
                return None
    return out


def _descends(P, Q, raw, target):
    """raw, a pairing P x Q -> target on basis pairs, is balanced over the
    middle algebra and two-sided linear."""
    T, S = tensor_bimodules(P, Q)
    induced = _through_tensor(S, raw, target.dim)
    return induced is not None and _two_sided_linear(T, target, induced)


def _mixed_associative(P, Q, pq_raw, qp_raw):
    """(p q) p2 = p (q p2) on all basis triples of P x Q x P."""
    F = P.field

    def act(table, coeffs):
        out = [F.zero()] * P.dim
        for r, c in enumerate(coeffs):
            for k, c2 in table[r].items():
                out[k] = F.add(out[k], F.mul(c, c2))
        return out

    return all(act(P.left_action[p2], _column(pq_raw, p * Q.dim + q))
               == act(P.right_action[p], _column(qp_raw, q * P.dim + p2))
               for p in range(P.dim) for q in range(Q.dim) for p2 in range(P.dim))


def _context_oracle(A, B, N, M, phi, psi):
    add = A.group.add
    return (_preserves_degrees(phi, [add(m, n) for m in M.degree for n in N.degree],
                               B.degree)
            and _preserves_degrees(psi, [add(n, m) for n in N.degree for m in M.degree],
                                   A.degree)
            and _descends(N, M, psi, regular_bimodule(A))
            and _descends(M, N, phi, regular_bimodule(B))
            and _mixed_associative(M, N, phi, psi)
            and _mixed_associative(N, M, psi, phi))


def _theta_oracle(R, M, theta):
    if theta == zeros(theta.field, theta.nrows, theta.ncols):
        return True
    F, d = R.field, M.dim
    if not _descends(M, M, theta, M):
        return False
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs, rhs = [F.zero()] * d, [F.zero()] * d
                for l, c in enumerate(_column(theta, i * d + j)):
                    for t, a in enumerate(_column(theta, l * d + k)):
                        lhs[t] = F.add(lhs[t], F.mul(c, a))
                for l, c in enumerate(_column(theta, j * d + k)):
                    for t, a in enumerate(_column(theta, i * d + l)):
                        rhs[t] = F.add(rhs[t], F.mul(c, a))
                if lhs != rhs:
                    return False
    return True


def _square_holds(t, Z, P, Q, pair, first_at, second, S_second):
    """(p q) acting on Z equals the two bimodule factors acting one after
    the other through the structure maps: q first on a left tuple, p first
    on a right one.  first_at(z, b) is the first map's value on a basis
    pair; second maps S_second back into Z."""
    F = Z.field
    right = t.side == "right"
    for p in range(P.dim):
        for q in range(Q.dim):
            near, far = (p, q) if right else (q, p)
            for z in range(Z.dim):
                image = [F.zero()] * S_second.dim
                for j, c in first_at(z, near).items():
                    for k, a in S_second.project_pair(*t._factors(j, far)).items():
                        image[k] = F.add(image[k], F.mul(c, a))
                if dense_apply(second.matrix, image) != dense_act(Z, Z.basis_vec(z), pair(p, q)):
                    return False
    return True


def _tuple_oracle(t):
    """f and g of the RefTuple t preserve degrees and are module maps, and
    both squares hold: psi(n (x) m) on X through f and g, phi(m (x) n) on
    Y through g and f."""
    ctx = t.ctx
    F = ctx.A.field

    def psi(n, m):
        return _dense(F, ctx.psi[n][m], ctx.A.dim)

    def phi(m, n):
        return _dense(F, ctx.phi[m][n], ctx.B.dim)

    return (all(_preserves_degrees(h.matrix, h.source.degree, h.target.degree)
                and is_module_hom(h) for h in (t.f, t.g))
            and _square_holds(t, t.X, ctx.N, ctx.M, psi, t.f_at, t.g, t.S_Y)
            and _square_holds(t, t.Y, ctx.M, ctx.N, phi, t.g_at, t.f, t.S_X))


def _left_tuple(ctx, X, Y, f, g):
    """The reference tuple with these dense maps on the tensor spaces."""
    return ref_left_tuple(ctx, X, Y, columns(f), columns(g))


def _table_matrix(F, table, nb, target_dim, bimodule_first):
    """The dense target x pair grid matrix of a cell table with rows v
    and columns b: pair (v, b) in grid column v * nb + b, or in
    b * len(table) + v when the bimodule is the left tensor factor."""
    nv = len(table)
    m = zeros(F, target_dim, nv * nb)
    for v, row in enumerate(table):
        for b, cell in enumerate(row):
            for k, c in cell.items():
                m.rows[k][b * nv + v if bimodule_first else v * nb + b] = c
    return m


def _descended(ctx, X, Y, f, g):
    """The left RefTuple whose maps on the computed M (x) X and N (x) Y
    read f and g on every basis pair, or None when a table does not
    descend to its tensor space."""
    F = X.field
    S_MX = tensor_over_algebra(ctx.M, X, ctx.A)
    S_NY = tensor_over_algebra(ctx.N, Y, ctx.B)
    fm = _through_tensor(S_MX, _table_matrix(F, f, ctx.M.dim, Y.dim, True), Y.dim)
    gm = _through_tensor(S_NY, _table_matrix(F, g, ctx.N.dim, X.dim, True), X.dim)
    if fm is None or gm is None:
        return None
    return _left_tuple(ctx, X, Y, fm, gm)


def _column(m, j):
    return [r[j] for r in m.rows]


def _phi_psi(ctx):
    """The pairings of the context as dense matrices."""
    F = ctx.A.field
    return pairing_matrix(F, ctx.phi, ctx.B.dim), pairing_matrix(F, ctx.psi, ctx.A.dim)


def _morita(A, B, N, M, phi, psi):
    """morita_ring on dense pairing matrices."""
    return morita_ring(A, B, N, M, pairing_table(phi, M.dim, N.dim),
                       pairing_table(psi, N.dim, M.dim))


def _theta(R, M, theta):
    """theta_extension on a dense pairing matrix."""
    return theta_extension(R, M, pairing_table(theta, M.dim, M.dim))


def _decides(build, oracle_says, what):
    """build() accepts exactly when the oracle does; a rejection names
    the ring or module, the violated axiom and its basis labels.  Returns
    the decision."""
    try:
        build()
    except ConstructionError as e:
        assert not oracle_says, e
        assert re.fullmatch(what + r" fails [a-z-]+ at \([a-z]:.*\)", str(e)), e
        return False
    assert oracle_says
    return True


# -- perturbations -------------------------------------------------------------


def _coeff(F, rng):
    """A random nonzero field element."""
    if F is QQ:
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return rng.randrange(1, F.p)


def _copy(m):
    return Matrix(m.field, [list(r) for r in m.rows], m.ncols)


def _scaled(m, c):
    F = m.field
    return Matrix(F, [[F.mul(c, a) for a in r] for r in m.rows], m.ncols)


def _poked(m, rng):
    """m with one random cell moved by a random nonzero amount."""
    m = _copy(m)
    if m.nrows and m.ncols:
        k, t = rng.randrange(m.nrows), rng.randrange(m.ncols)
        m.rows[k][t] = m.field.add(m.rows[k][t], _coeff(m.field, rng))
    return m


def _variants(m, rng):
    """m, zero, scaled, poked once and twice."""
    F = m.field
    zero = zeros(F, m.nrows, m.ncols)
    return [m, zero, _scaled(m, _coeff(F, rng)), _poked(m, rng),
            _poked(_poked(m, rng), rng)]


# -- families ------------------------------------------------------------------


def _contexts(fld, rng):
    """Split coverings of group algebras (nonzero pairings) and of
    upper-half-zero algebras (zero pairings)."""
    for order in (2, 4):
        cov = covering_ring(group_algebra(fld, FiniteAbelianGroup((order,))))
        for k in range(order - 1):
            yield split_covering(cov, k)
    for _ in range(2):
        A = random_upper_half_zero_algebra(fld, rng, rng.randint(1, 2))
        if A.group.order >= 2:
            yield split_covering(covering_ring(A))


def _extensions(fld, rng):
    """(R, M, theta): the multiplication of the positive part of k[x]/(x^4)
    and of upper-half-zero algebras, and c * mult on the regular bimodule
    of the 2 x 2 matrix corner of a split group-algebra covering."""
    Z8 = FiniteAbelianGroup((8,))
    for A in (truncated_polynomial(fld, 4, Z8, (1,)),
              random_upper_half_zero_algebra(fld, rng, 3),
              random_upper_half_zero_algebra(fld, rng, 3)):
        td, _ = split_positively_graded(A)
        yield td.base, td.bim, pairing_matrix(fld, td.theta, td.bim.dim)
    ctx = split_covering(covering_ring(group_algebra(fld, FiniteAbelianGroup((4,)))), 1)
    R = ctx.A
    c = _coeff(fld, rng)
    theta = zeros(fld, R.dim, R.dim ** 2)
    for i in range(R.dim):
        for j in range(R.dim):
            for k, a in R.mult[i][j].items():
                theta.rows[k][i * R.dim + j] = fld.mul(c, a)
    yield R, regular_bimodule(R), theta


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_context_pairings_decide_as_the_replaced_checks(fld):
    rng = random.Random(1)
    seen = []
    for ctx in _contexts(fld, rng):
        A, B, N, M = ctx.A, ctx.B, ctx.N, ctx.M
        phi0, psi0 = _phi_psi(ctx)
        for phi in _variants(phi0, rng):
            for psi in _variants(psi0, rng):
                seen.append(_decides(lambda: _morita(A, B, N, M, phi, psi),
                                     _context_oracle(A, B, N, M, phi, psi), "context ring"))
    assert any(seen) and not all(seen)


def test_one_nonzero_pairing_is_checked():
    """Dropping psi while keeping phi (and the reverse) is rejected."""
    ctx = split_covering(covering_ring(group_algebra(F5, FiniteAbelianGroup((2,)))))
    A, B, N, M = ctx.A, ctx.B, ctx.N, ctx.M
    phi0, psi0 = _phi_psi(ctx)
    zero_phi = zeros(F5, phi0.nrows, phi0.ncols)
    zero_psi = zeros(F5, psi0.nrows, psi0.ncols)
    for phi, psi in ((phi0, zero_psi), (zero_phi, psi0)):
        assert not _context_oracle(A, B, N, M, phi, psi)
        with pytest.raises(ConstructionError, match=r"context ring fails associativity "
                           r"at \((n|m):"):
            _morita(A, B, N, M, phi, psi)


def test_graded_line_pairings_decide_as_the_replaced_checks():
    """k graded over Z/n, N and M lines of every degree pair, phi and psi
    scalars in {0, 1, 2} over F_5: 261 contexts."""
    decisions = []
    for n in (2, 3, 4):
        group = FiniteAbelianGroup((n,))
        k = GradedAlgebra(F5, group, ["1"], [(0,)], [1], [[{0: 1}]])
        for dn in group.elements():
            for dm in group.elements():
                N = GradedBimodule(k, k, ["v"], [dn], [[{0: 1}]], [[{0: 1}]])
                M = GradedBimodule(k, k, ["w"], [dm], [[{0: 1}]], [[{0: 1}]])
                for a in range(3):
                    for b in range(3):
                        phi, psi = Matrix(F5, [[a]]), Matrix(F5, [[b]])
                        decisions.append(_decides(
                            lambda: _morita(k, k, N, M, phi, psi),
                            _context_oracle(k, k, N, M, phi, psi), "context ring"))
    assert len(decisions) == 261
    assert sum(decisions) == 47


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_theta_decides_as_the_replaced_checks(fld):
    rng = random.Random(2)
    seen = []
    for R, M, theta in _extensions(fld, rng):
        for th in _variants(theta, rng):
            seen.append(_decides(lambda: _theta(R, M, th),
                                 _theta_oracle(R, M, th), "extension ring"))
    assert any(seen) and not all(seen)


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_tuple_maps_decide_as_module_axioms(fld):
    """tuple_module on left tuples, and the module axioms of right ones,
    accept exactly the structure maps the replaced check accepts, handed
    their tables on basis pairs."""
    rng = random.Random(3)
    seen, right = [], []
    for ctx in _contexts(fld, rng):
        for t in (ref_induced(ctx, regular_module(ctx.A, "left"), "A"),
                  ref_induced(ctx, regular_module(ctx.B, "left"), "B")):
            X, Y = t.X, t.Y
            for f in _variants(t.f.matrix, rng)[::2]:
                for g in _variants(t.g.matrix, rng)[::2]:
                    ref = _left_tuple(ctx, X, Y, f, g)
                    seen.append(_decides(lambda: tuple_module(ctx, X, Y, *ref.tables()),
                                         _tuple_oracle(ref), "tuple module"))
        rt = ref_regular_right_tuple(ctx)
        for g in _variants(rt.g.matrix, rng)[::2]:
            t = RefTuple(ctx, rt.X, rt.Y, rt.f,
                         ModuleHom(rt.g.source, rt.g.target, columns(g)), rt.S_X, rt.S_Y)
            decision = check_module_axioms(TupleModule(ctx, t.X, t.Y, *t.tables())
                                           .as_module()).passed
            assert decision == _tuple_oracle(t)
            right.append(decision)
    assert any(seen) and not all(seen)
    assert any(right) and not all(right)


def _poked_table(table, target_dim, F, rng):
    """A copy of the cell table over range(target_dim) with one random
    coefficient of one random cell moved by a random nonzero amount."""
    out = [[dict(cell) for cell in row] for row in table]
    row = out[rng.randrange(len(out))]
    b, k = rng.randrange(len(row)), rng.randrange(target_dim)
    c = F.add(row[b].get(k, F.zero()), _coeff(F, rng))
    row[b] = {j: a for j, a in {**row[b], k: c}.items() if not F.is_zero(a)}
    return out


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_tuple_tables_decide_as_balanced_maps(fld):
    """The built tables, and tables with one poked cell, are accepted
    exactly when they descend to maps on the tensor spaces that the
    replaced check accepts: balancedness is part of the module axioms."""
    rng = random.Random(5)
    seen, balanced = [], []
    for ctx in _contexts(fld, rng):
        for t in (ctx.T_A(regular_module(ctx.A, "left")),
                  ctx.T_B(regular_module(ctx.B, "left"))):
            X, Y = t.X, t.Y
            if not (X.dim and Y.dim):
                continue
            for poke in (False, True, True, True):
                f, g = t.f, t.g
                if poke and ctx.M.dim and (rng.random() < 0.5 or not ctx.N.dim):
                    f = _poked_table(f, Y.dim, fld, rng)
                elif poke and ctx.N.dim:
                    g = _poked_table(g, X.dim, fld, rng)
                ref = _descended(ctx, X, Y, f, g)
                balanced.append(ref is not None)
                seen.append(_decides(lambda: tuple_module(ctx, X, Y, f, g),
                                     ref is not None and _tuple_oracle(ref),
                                     "tuple module"))
    assert any(seen) and not all(seen)
    assert any(balanced) and not all(balanced)


def _blocks(ctx):
    """The assembled indices of the blocks A, N, M, B."""
    ends = ctx.offsets + (ctx.assembled.dim,)
    return [list(range(a, b)) for a, b in zip(ends, ends[1:])]


def _raw(ctx, value, rows, cols, target):
    """The bilinear map value(r, c), a sparse vector of the assembled
    ring, for r in rows and c in cols, as a matrix from the pair grid
    onto target, a list of assembled indices."""
    at = {c: k for k, c in enumerate(target)}
    raw = zeros(ctx.assembled.field, len(target), len(rows) * len(cols))
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            for t, a in value(r, c).items():
                raw.rows[at[t]][i * len(cols) + j] = a
    return raw


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_built_tuple_maps_descend(fld):
    """The structure tables of the built tuples are the block products of
    the assembled ring, which kill the balancing relations, and they are
    the tables of the reference maps on the tensor spaces."""
    rng = random.Random(4)
    for ctx in _contexts(fld, rng):
        L = ctx.assembled
        A, N, M, B = _blocks(ctx)

        def product(*idx):
            v = L.basis_vec(idx[0])
            for i in idx[1:]:
                v = dense_mul(L, v, L.basis_vec(i))
            return {k: c for k, c in enumerate(v) if not fld.is_zero(c)}

        rt, ref = regular_right_tuple(ctx), ref_regular_right_tuple(ctx)
        for table, rows, P, target, S, h in (
                (rt.f, A + M, N, N + B, ref.S_X, ref.f),
                (rt.g, N + B, M, A + M, ref.S_Y, ref.g)):
            raw = _raw(ctx, product, rows, P, target)
            assert _table_matrix(fld, table, len(P), len(target), False) == raw
            assert _through_tensor(S, raw, len(target)) == h.matrix
        # the map back into the regular corner Z sends q (x) w to (q p) z
        # for (p, z) the section pair of w
        for corner, Z, P, Q in (("A", A, M, N), ("B", B, N, M)):
            ring = ctx.A if corner == "A" else ctx.B
            Zmod = regular_module(ring, "left")
            t = getattr(ctx, f"T_{corner}")(Zmod)
            ref = ref_induced(ctx, Zmod, corner)
            S_PZ, S_QW, back, h = ((ref.S_X, ref.S_Y, t.g, ref.g) if corner == "A"
                                   else (ref.S_Y, ref.S_X, t.f, ref.f))
            W = [(P[p], Z[z]) for p, z in S_PZ.section]
            raw = _raw(ctx, lambda q, w: product(q, *W[w]), Q, range(len(W)), Z)
            assert _table_matrix(fld, back, len(Q), len(Z), True) == raw
            assert _through_tensor(S_QW, raw, len(Z)) == h.matrix
