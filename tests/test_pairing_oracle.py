"""Context and extension pairings against the checks they replaced.

morita_ring and theta_extension decide a nonzero pairing by the axioms of
the ring it assembles.  Before, they checked each condition on its own:
degrees of phi and psi, balance through the tensor space, two-sided
linearity on algebra generators, mixed associativity, and theta's
associativity with itself.  Those checks are kept here as an oracle, and
the constructions must accept and reject exactly the pairings it does.
Tuple structure maps keep their own check in TupleModule; their oracle is
the module axioms of the tuple over the assembled ring.
"""

import random
import re
from fractions import Fraction

import pytest

from injgen.algebra import (ConstructionError, GradedAlgebra, GradedBimodule,
                            ModuleHom, check_module_axioms, regular_bimodule,
                            regular_module)
from injgen.constructions import (TupleModule, covering_ring, morita_ring,
                                  split_covering, split_positively_graded,
                                  theta_extension, tuple_module)
from injgen.field import QQ, PrimeField
from injgen.groups import FiniteAbelianGroup
from injgen.linalg import Matrix
from injgen.samples import (group_algebra, random_upper_half_zero_algebra,
                            truncated_polynomial)
from injgen.tensors import (bilinear_through_tensor, tensor_bimodule_with_module,
                            tensor_bimodules)

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
            if matrix.mul(src.action_matrix(j)) != tgt.action_matrix(j).mul(matrix):
                return False
    return True


def _descends(P, Q, raw, target):
    """raw, a pairing P x Q -> target on basis pairs, is balanced over the
    middle algebra and two-sided linear."""
    T, S = tensor_bimodules(P, Q)
    induced = bilinear_through_tensor(S, raw, target.dim)
    return induced is not None and _two_sided_linear(T, target, induced)


def _mixed_associative(P, Q, pq_raw, qp_raw):
    """(p q) p2 = p (q p2) on all basis triples of P x Q x P."""
    F = P.field

    def act(table, coeffs):
        out = P.zero_vec()
        for r, c in enumerate(coeffs):
            for k, c2 in table[r].items():
                out[k] = F.add(out[k], F.mul(c, c2))
        return out

    return all(act(P.left_action[p2], pq_raw.column(p * Q.dim + q))
               == act(P.right_action[p], qp_raw.column(q * P.dim + p2))
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
    if theta.is_zero():
        return True
    F, d = R.field, M.dim
    if not _descends(M, M, theta, M):
        return False
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs, rhs = [F.zero()] * d, [F.zero()] * d
                for l, c in enumerate(theta.column(i * d + j)):
                    for t, a in enumerate(theta.column(l * d + k)):
                        lhs[t] = F.add(lhs[t], F.mul(c, a))
                for l, c in enumerate(theta.column(j * d + k)):
                    for t, a in enumerate(theta.column(i * d + l)):
                        rhs[t] = F.add(rhs[t], F.mul(c, a))
                if lhs != rhs:
                    return False
    return True


def _tuple_oracle(ctx, X, Y, f, g):
    """The tuple's module over the assembled ring satisfies the module
    axioms (built without TupleModule's own checks)."""
    MX, S_MX = tensor_bimodule_with_module(ctx.M, X)
    NY, S_NY = tensor_bimodule_with_module(ctx.N, Y)
    t = TupleModule.__new__(TupleModule)
    t.ctx, t.X, t.Y, t.S_X, t.S_Y, t.side, t._mod = ctx, X, Y, S_MX, S_NY, X.side, None
    t.f, t.g = ModuleHom(MX, Y, f), ModuleHom(NY, X, g)
    return check_module_axioms(t.as_module()).passed


def _decides(build, oracle_says, ring=None):
    """build() accepts exactly when the oracle does; a rejection of a
    pairing names the ring, the violated axiom and its basis labels.
    Returns the decision."""
    try:
        build()
    except ConstructionError as e:
        assert not oracle_says, e
        if ring is not None:
            assert re.fullmatch(ring + r" ring fails [a-z-]+ at \([a-z]:.*\)", str(e)), e
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
    zero = Matrix.zeros(F, m.nrows, m.ncols)
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
        yield td.base, td.bim, td.theta_raw
    ctx = split_covering(covering_ring(group_algebra(fld, FiniteAbelianGroup((4,)))), 1)
    R = ctx.A
    c = _coeff(fld, rng)
    theta = Matrix.zeros(fld, R.dim, R.dim ** 2)
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
        for phi in _variants(ctx.phi_raw, rng):
            for psi in _variants(ctx.psi_raw, rng):
                seen.append(_decides(lambda: morita_ring(A, B, N, M, phi, psi),
                                     _context_oracle(A, B, N, M, phi, psi), "context"))
    assert any(seen) and not all(seen)


def test_one_nonzero_pairing_is_checked():
    """Dropping psi while keeping phi (and the reverse) is rejected."""
    ctx = split_covering(covering_ring(group_algebra(F5, FiniteAbelianGroup((2,)))))
    A, B, N, M = ctx.A, ctx.B, ctx.N, ctx.M
    zero_phi = Matrix.zeros(F5, ctx.phi_raw.nrows, ctx.phi_raw.ncols)
    zero_psi = Matrix.zeros(F5, ctx.psi_raw.nrows, ctx.psi_raw.ncols)
    for phi, psi in ((ctx.phi_raw, zero_psi), (zero_phi, ctx.psi_raw)):
        assert not _context_oracle(A, B, N, M, phi, psi)
        with pytest.raises(ConstructionError, match=r"context ring fails associativity "
                           r"at \((n|m):"):
            morita_ring(A, B, N, M, phi, psi)


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
                            lambda: morita_ring(k, k, N, M, phi, psi),
                            _context_oracle(k, k, N, M, phi, psi), "context"))
    assert len(decisions) == 261
    assert sum(decisions) == 47


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_theta_decides_as_the_replaced_checks(fld):
    rng = random.Random(2)
    seen = []
    for R, M, theta in _extensions(fld, rng):
        for th in _variants(theta, rng):
            seen.append(_decides(lambda: theta_extension(R, M, th),
                                 _theta_oracle(R, M, th), "extension"))
    assert any(seen) and not all(seen)


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_tuple_maps_decide_as_module_axioms(fld):
    rng = random.Random(3)
    seen = []
    for ctx in _contexts(fld, rng):
        for t in (ctx.T_A(regular_module(ctx.A, "left")),
                  ctx.T_B(regular_module(ctx.B, "left"))):
            X, Y = t.X, t.Y
            for f in _variants(t.f.matrix, rng)[::2]:
                for g in _variants(t.g.matrix, rng)[::2]:
                    seen.append(_decides(lambda: tuple_module(ctx, X, Y, f, g),
                                         _tuple_oracle(ctx, X, Y, f, g)))
    assert any(seen) and not all(seen)
