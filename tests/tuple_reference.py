"""Tuple modules with their structure maps on computed tensor spaces.

A tuple (X, Y, f, g) over a Morita context used to hold f and g as
linear maps on the balanced tensor spaces they start from, and every
builder computed those spaces: M (x) X and N (x) Y for a left tuple,
X (x) N and Y (x) M for a right one.  A value on a basis pair was read
by projecting the pair onto the space's section and applying the map.
RefTuple and the ref_* builders below keep that form as a reference for
the cell tables that constructions now builds directly: for a valid
context both read the same balanced value on every basis pair.
"""

from injgen.algebra import GradedModule, ModuleHom, _act_by, _sum_cells, zero_module
from injgen.linalg import _modulus
from injgen.tensors import tensor_bimodule_with_module, tensor_module_with_bimodule


class RefTuple:
    """(X, Y, f, g) with f: S_X -> Y and g: S_Y -> X ModuleHoms on the
    tensor spaces S_X and S_Y.  The bimodule is the left tensor factor of
    a left tuple's spaces and the right one of a right tuple's."""

    def __init__(self, ctx, X, Y, f, g, S_X, S_Y):
        self.ctx = ctx
        self.X = X
        self.Y = Y
        self.f = f
        self.g = g
        self.S_X = S_X
        self.S_Y = S_Y
        self.side = X.side
        self._p = _modulus(X.field)

    def _factors(self, v, b):
        return (v, b) if self.side == "right" else (b, v)

    def f_at(self, x, b):
        cell = self.S_X.project_pair(*self._factors(x, b))
        return _sum_cells(self._p, ((c, self.f.cols[s]) for s, c in cell.items()))

    def g_at(self, y, b):
        cell = self.S_Y.project_pair(*self._factors(y, b))
        return _sum_cells(self._p, ((c, self.g.cols[s]) for s, c in cell.items()))

    def bimodules(self):
        """(bimodule X pairs with, bimodule Y pairs with)."""
        ctx = self.ctx
        return (ctx.N, ctx.M) if self.side == "right" else (ctx.M, ctx.N)

    def tables(self):
        """f and g as cell tables on basis pairs, one pair at a time."""
        PX, PY = self.bimodules()
        return ([[self.f_at(x, b) for b in range(PX.dim)] for x in range(self.X.dim)],
                [[self.g_at(y, b) for b in range(PY.dim)] for y in range(self.Y.dim)])

    def as_module(self):
        """The module over the assembled ring, written one cell at a time."""
        ctx, X, Y = self.ctx, self.X, self.Y
        Lam = ctx.assembled
        oA, oN, oM, oB = ctx.offsets
        oX, oY = (oN, oM) if self.side == "right" else (oM, oN)
        PX, PY = self.bimodules()
        dX = X.dim
        action = [[{} for _ in range(Lam.dim)] for _ in range(dX + Y.dim)]
        for i in range(dX):
            for a in range(ctx.A.dim):
                action[i][oA + a] = X.action[i][a]
            for b in range(PX.dim):
                action[i][oX + b] = {dX + k: c for k, c in self.f_at(i, b).items()}
        for j in range(Y.dim):
            for b in range(ctx.B.dim):
                action[dX + j][oB + b] = {dX + k: c for k, c in Y.action[j][b].items()}
            for b in range(PY.dim):
                action[dX + j][oY + b] = self.g_at(j, b)
        labels = [f"x:{s}" for s in X.labels] + [f"y:{s}" for s in Y.labels]
        return GradedModule._trusted(Lam, self.side, labels, X.degree + Y.degree, action)


def _on_section(T, value):
    return [value(i, j) for i, j in T.section]


def ref_left_tuple(ctx, X, Y, f_cols, g_cols):
    """The left tuple whose maps have these columns on the computed
    M (x)_A X and N (x)_B Y."""
    MX, S_MX = tensor_bimodule_with_module(ctx.M, X)
    NY, S_NY = tensor_bimodule_with_module(ctx.N, Y)
    return RefTuple(ctx, X, Y, ModuleHom(MX, Y, f_cols), ModuleHom(NY, X, g_cols),
                    S_MX, S_NY)


def ref_induced(ctx, Z, corner):
    """T_A(Z) or T_B(Z): the map into W = P (x) Z is the identity, the one
    back sends q (x) (p (x) z) to (q p) z on the section of Q (x) W."""
    if corner == "A":
        P, Q, pair = ctx.M, ctx.N, ctx.psi
    else:
        P, Q, pair = ctx.N, ctx.M, ctx.phi
    one = Z.field.one()
    W, S_PZ = tensor_bimodule_with_module(P, Z)
    ident = ModuleHom(W, W, [{i: one} for i in range(W.dim)])
    QW, S_QW = tensor_bimodule_with_module(Q, W)

    def back_at(q, t):
        p, z = S_PZ.section[t]
        return _act_by(Z.action, Z._p, z, pair[q][p])

    back = ModuleHom(QW, Z, _on_section(S_QW, back_at))
    if corner == "A":
        return RefTuple(ctx, Z, W, ident, back, S_PZ, S_QW)
    return RefTuple(ctx, W, Z, back, ident, S_QW, S_PZ)


def ref_zero_partner(ctx, Z, corner):
    """Z_A(Z) or Z_B(Z): zero maps on the computed M (x) X and N (x) Y."""
    if corner == "A":
        X, Y = Z, zero_module(ctx.B, "left")
    else:
        X, Y = zero_module(ctx.A, "left"), Z
    MX, S_MX = tensor_bimodule_with_module(ctx.M, X)
    NY, S_NY = tensor_bimodule_with_module(ctx.N, Y)
    return RefTuple(ctx, X, Y, ModuleHom(MX, Y, [{} for _ in range(MX.dim)]),
                    ModuleHom(NY, X, [{} for _ in range(NY.dim)]), S_MX, S_NY)


def ref_regular_right_tuple(ctx):
    """The block multiplications on the computed X (x) N and Y (x) M, for
    X = A + M and Y = N + B the block columns of the assembled ring."""
    dA, dN, dM, dB = ctx.A.dim, ctx.N.dim, ctx.M.dim, ctx.B.dim
    xact = list(ctx.A.mult)
    for j in range(dM):
        xact.append([{dA + k: c for k, c in ctx.M.right_action[j][a].items()}
                     for a in range(dA)])
    X = GradedModule._trusted(
        ctx.A, "right", [f"a.{s}" for s in ctx.A.labels] + [f"m.{s}" for s in ctx.M.labels],
        ctx.A.degree + ctx.M.degree, xact)
    yact = list(ctx.N.right_action)
    for j in range(dB):
        yact.append([{dN + k: c for k, c in ctx.B.mult[j][b].items()}
                     for b in range(dB)])
    Y = GradedModule._trusted(
        ctx.B, "right", [f"n.{s}" for s in ctx.N.labels] + [f"b.{s}" for s in ctx.B.labels],
        ctx.N.degree + ctx.B.degree, yact)

    def f_at(i, n):
        if i < dA:
            return ctx.N.left_action[n][i]
        return {dN + k: c for k, c in ctx.phi[i - dA][n].items()}

    def g_at(i, m):
        if i < dN:
            return ctx.psi[i][m]
        return {dA + k: c for k, c in ctx.M.left_action[m][i - dN].items()}

    XN, S_XN = tensor_module_with_bimodule(X, ctx.N)
    YM, S_YM = tensor_module_with_bimodule(Y, ctx.M)
    return RefTuple(ctx, X, Y, ModuleHom(XN, Y, _on_section(S_XN, f_at)),
                    ModuleHom(YM, X, _on_section(S_YM, g_at)), S_XN, S_YM)
