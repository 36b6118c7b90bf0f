"""Ring-building constructions.

Matrix-pattern coverings of graded rings, Morita context assembly and
splitting, tuple modules over context rings, tensor rings of nilpotent
bimodules, multiplication-twisted extensions R + M, twisted tensor
products along a bicharacter, and the triangular/corner data attached to
a nonnegatively graded algebra.

Constructions check the data a caller supplies (shapes, sides, pairings,
tuple maps) and raise ConstructionError with a witness.  A nonzero
pairing (phi and psi of a Morita context, theta of an extension) is
valid exactly when the ring it defines is a graded associative algebra,
so it is checked through that ring's axioms; caller-supplied tuple maps
are valid exactly when the tuple is a module over its context ring, so
they are checked through that module's axioms.  Constructions trust
their input objects, which the store checks on entry, and do not
re-check their output; the test suite checks every construction's
output.

RECIPES, at the end, maps each construction name a provenance record
can carry to how that construction runs and how its params are read and
written; construct and reconstruct run a construction through it.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import (ConstructionError, GradedAlgebra, GradedBimodule,
                      GradedModule, ModuleHom, _act_by, _act_sparse, _clean_table,
                      _cut, _place, _sum_cells, _transposed, check_axioms,
                      degree_zero_subalgebra, regular_bimodule, trivially_graded,
                      zero_module)
from .groups import TRIVIAL_GROUP, FiniteAbelianGroup
from .linalg import (Span, _modulus, _nonzero, render_columns,
                     row_space_reducer)
from .serialize import (SerializeError, matrix_from_json, matrix_to_json,
                        provenance_record)
from .tensors import (tensor_bimodule_with_module, tensor_bimodules,
                      tensor_module_with_bimodule)

__all__ = [
    "CoveringData", "covering_ring", "covering_module",
    "covering_module_inverse",
    "MoritaContext", "morita_ring", "split_covering",
    "TupleModule", "tuple_module",
    "TensorTower", "TensorRingData", "tensor_ring",
    "ThetaData", "theta_extension", "trivial_extension",
    "split_positively_graded",
    "Bicharacter", "twisted_tensor", "twisted_module",
    "tensor_product_algebra",
    "BeilinsonData", "beilinson",
    "CleftFunctors",
    "RECIPES", "Built", "construct", "reconstruct",
]


def _check_assembled(obj, what):
    """Raise on the first axiom violation of a ring assembled around a
    pairing, or of a tuple's module over its context ring, naming the
    violated axiom and its basis elements."""
    bad = check_axioms(obj).violations
    if bad:
        kind, where = bad[0].kind, bad[0].where
        if isinstance(obj, GradedModule):
            # a module index, a ring index, then a module index for a
            # grading violation and a ring index for an associativity one
            ring = obj.algebra.labels
            scopes = (obj.labels, ring, obj.labels if kind == "action-grading" else ring)
        else:
            scopes = (obj.labels,) * 3
        names = ", ".join(labels[i] for labels, i in zip(scopes, where))
        raise ConstructionError(f"{what} fails {kind} at ({names})")


def _on_section(T, value):
    """The columns on T's basis of a balanced bilinear map, read off at
    T's section pairs; value(i, j) is its sparse value on the pair."""
    return [value(i, j) for i, j in T.section]


def _is_zero(table):
    return not any(cell for row in table for cell in row)


def _zero_table(nrows, ncols):
    return [[{} for _ in range(ncols)] for _ in range(nrows)]


def _checked_table(p, table, nrows, ncols, dim, what):
    """A caller's table of nrows x ncols cells over range(dim), cleaned to
    nonzero reduced residues: ConstructionError on a wrong shape, and
    AlgebraError on a cell key outside range(dim)."""
    if (not isinstance(table, list) or len(table) != nrows
            or any(not isinstance(row, list) or len(row) != ncols
                   or not all(isinstance(cell, dict) for cell in row) for row in table)):
        raise ConstructionError(f"{what} has the wrong shape")
    return _clean_table(p, table, dim)


# -- slot patterns -------------------------------------------------------------
#
# A covering ring, the blocks of its Morita split and both parts of the
# Beilinson pattern lay a graded ring R out on slots (a, b) that compose
# like matrix units.  A Pattern is such an object with its basis triples
# and their positions.

Pattern = namedtuple("Pattern", "obj triples pos")


def _slot_basis(R, slots, degree):
    """(triples, pos): triple (a, b, i) puts basis vector i of degree
    degree(a, b) in slot (a, b), slot by slot; pos inverts triples."""
    triples, pos = [], {}
    for a, b in slots:
        for i in R.component_indices(degree(a, b)):
            pos[(a, b, i)] = len(triples)
            triples.append((a, b, i))
    return triples, pos


def _slot_products(table, rows, cols, pos):
    """The cell table of products of the row triples with the column
    triples: row (a, b, i) times column (b, c, j) is table[i][j] moved to
    slot (a, c) through pos.  Slots that do not meet multiply to zero;
    KeyError on a product outside pos."""
    starts = {}
    for q, (b, c, j) in enumerate(cols):
        starts.setdefault(b, []).append((q, c, j))
    out = [[{} for _ in cols] for _ in rows]
    for (a, b, i), row in zip(rows, out):
        products = table[i]
        for q, c, j in starts.get(b, ()):
            row[q] = {pos[(a, c, k)]: x for k, x in products[j].items()}
    return out


def _pattern_algebra(R, slots, degree, tag) -> Pattern:
    """The ungraded algebra of R on the slots, basis vector (a, b, i)
    labelled tag(a, b) then R's label, with R's unit on the diagonal."""
    triples, pos = _slot_basis(R, slots, degree)
    zero = R.field.zero()
    alg = GradedAlgebra._trusted(
        R.field, TRIVIAL_GROUP, [f"{tag(a, b)}{R.labels[i]}" for a, b, i in triples],
        [()] * len(triples), [R.unit[i] if a == b else zero for a, b, i in triples],
        _slot_products(R.mult, triples, triples, pos))
    return Pattern(alg, triples, pos)


def _pattern_bimodule(R, left: Pattern, right: Pattern, slots, degree, tag) -> Pattern:
    """R on the slots, labelled as in _pattern_algebra, as a bimodule
    over two pattern algebras acting by slot products; KeyError on a
    product outside the slots."""
    triples, pos = _slot_basis(R, slots, degree)
    bim = GradedBimodule._trusted(
        left.obj, right.obj, [f"{tag(a, b)}{R.labels[i]}" for a, b, i in triples],
        [()] * len(triples), _transposed(_slot_products(R.mult, left.triples, triples, pos)),
        _slot_products(R.mult, triples, right.triples, pos))
    return Pattern(bim, triples, pos)


# -- coverings ---------------------------------------------------------------


class CoveringData:
    """A graded ring spread out over a square of group-indexed blocks.

    basis_triples[i] = (g, h, base_index) with the base element's degree
    equal to h - g, and pos inverts basis_triples.
    """

    def __init__(self, algebra, base, basis_triples, pos):
        self.algebra = algebra
        self.base = base
        self.basis_triples = basis_triples
        self.pos = pos

    def idempotent(self, g):
        """The diagonal unit block at g, as a sparse covering vector."""
        g = self.base.group.reduce(g)
        return {self.pos[(g, g, i)]: c for i, c in enumerate(self.base.unit) if c}

    def __repr__(self):
        return f"CoveringData(dim={self.algebra.dim} over {self.base!r})"


def _cover_tag(g, h):
    return "({}>{})".format(*(",".join(str(x) for x in e) if e else "0" for e in (g, h)))


def _cover_pattern(build, R, keep, *over):
    """build run on the covering slots (g, h) that keep accepts, slot
    (g, h) holding the degree h - g component of R."""
    els = R.group.elements()
    slots = [(g, h) for g in els for h in els if keep(g, h)]
    return build(R, *over, slots, lambda g, h: R.group.sub(h, g), _cover_tag)


def covering_ring(R: GradedAlgebra) -> CoveringData:
    """Square matrix pattern over the grading group.

    Entry slot (g, h) holds the degree h-g component of R; slots multiply
    like matrix units through R's structure constants.  The result is an
    ungraded algebra of dimension |group| * dim R.
    """
    cov = _cover_pattern(_pattern_algebra, R, lambda g, h: True)
    return CoveringData(cov.obj, R, cov.triples, cov.pos)


def covering_module(M: GradedModule, cov: CoveringData) -> GradedModule:
    """The graded module M as a module over the covering ring.

    Row-vector convention: a covering element in slot (g, h) eats the
    degree-g part of M and deposits the product in degree h.
    """
    if M.side != "right":
        raise ConstructionError("the covering correspondence uses row vectors; "
                                "pass a right module")
    if M.algebra != cov.base:
        raise ConstructionError("module is not over the covered ring")
    action = []
    for i in range(M.dim):
        gi = M.degree[i]
        action.append([M.action[i][x] if gi == g else {}
                       for (g, h, x) in cov.basis_triples])
    return GradedModule._trusted(cov.algebra, "right", M.labels, [()] * M.dim, action)


def covering_module_inverse(V: GradedModule, cov: CoveringData) -> GradedModule:
    """Graded module recovered from a covering-ring module.

    The degree-g part is the image of the diagonal idempotent at g; a Span
    picks a basis w_k of it among the images of V's basis vectors.  The
    base ring acts through single-slot covering elements, and coordinates
    over the picked w_k are read from the Span of the rows (w_k | -e_k) of
    width 2 dim V: when the w_k form a basis of V, the first dim V columns
    are its pivots, and reducing (w | 0) leaves (0 | coordinates of w).
    Everything runs on sparse cells.
    """
    if V.side != "right" or V.algebra != cov.algebra:
        raise ConstructionError("input must be a right module over the covering ring")
    R = cov.base
    F, p, n = R.field, V._p, V.dim
    group = R.group
    picked = []
    degrees = []
    for g in group.elements():
        u = cov.idempotent(g)
        seen = Span(F, n)
        for i in range(n):
            w = _act_by(V.action, p, i, u)
            if seen.add(w):
                picked.append(w)
                degrees.append(g)
    if len(picked) != n:
        raise ConstructionError("idempotent images do not decompose the module")
    graph = Span(F, 2 * n)
    minus_one = F.neg(F.one())
    for k, w in enumerate(picked):
        graph.add({**w, n + k: minus_one})
    reduce, free = row_space_reducer(graph)
    if any(c < n for c in free):
        raise ConstructionError("idempotent images do not decompose the module")
    action = []
    for w, g in zip(picked, degrees):
        action.append([reduce(_act_sparse(V.action, p, w,
                                          cov.pos[(g, group.add(g, R.degree[x]), x)]))
                       for x in range(R.dim)])
    labels = [f"c{i}" for i in range(n)]
    return GradedModule._trusted(R, "right", labels, degrees, action)


# -- Morita contexts ---------------------------------------------------------


class MoritaContext:
    """Two rings glued along a pair of bimodules into one square ring.

    N is an (A, B)-bimodule, M a (B, A)-bimodule; the cell table psi
    pairs N x M into A (psi[n][m] is a cell over A) and phi pairs M x N
    into B (phi[m][n] over B), in the form of mult.  assembled carries the
    2x2 block multiplication, basis ordered A, N, M, B.
    """

    def __init__(self, A, B, N, M, phi, psi, assembled):
        self.A = A
        self.B = B
        self.N = N
        self.M = M
        self.phi = phi
        self.psi = psi
        self.assembled = assembled
        self.offsets = (0, A.dim, A.dim + N.dim, A.dim + N.dim + M.dim)

    @property
    def is_zero_context(self):
        return _is_zero(self.phi) and _is_zero(self.psi)

    # tuple functors; modules here are left modules over the corners

    def T_A(self, X: GradedModule) -> "TupleModule":
        """Tuple with Y induced from X through the bimodule M."""
        return self._induced_tuple(X, "A")

    def T_B(self, Y: GradedModule) -> "TupleModule":
        """Tuple with X induced from Y through the bimodule N."""
        return self._induced_tuple(Y, "B")

    def Z_A(self, X: GradedModule) -> "TupleModule":
        """X paired with the zero module; needs both context maps zero."""
        return self._zero_partner(X, "A")

    def Z_B(self, Y: GradedModule) -> "TupleModule":
        """Y paired with the zero module; needs both context maps zero."""
        return self._zero_partner(Y, "B")

    def _corner(self, corner):
        """(corner ring, bimodule out of it, bimodule back into it, pairing
        table back x out -> corner ring) for corner "A" or "B"."""
        if corner == "A":
            return self.A, self.M, self.N, self.psi
        return self.B, self.N, self.M, self.phi

    def _induced_tuple(self, Z, corner):
        """Z at its own corner and W = P (x) Z at the other one; the
        structure map into W is the identity, the one back sends
        q (x) (p (x) z) to (q p) z through the pairing."""
        ring, P, Q, pair = self._corner(corner)
        _require_left_module(Z, ring, f"T_{corner}")
        one = Z.field.one()
        W, S_PZ = tensor_bimodule_with_module(P, Z)
        ident = ModuleHom(W, W, [{i: one} for i in range(W.dim)])
        QW, S_QW = tensor_bimodule_with_module(Q, W)

        def back_at(q, t):
            p, z = S_PZ.section[t]
            return _act_by(Z.action, Z._p, z, pair[q][p])

        back = ModuleHom(QW, Z, _on_section(S_QW, back_at))
        if corner == "A":
            return TupleModule(self, Z, W, ident, back, S_PZ, S_QW)
        return TupleModule(self, W, Z, back, ident, S_QW, S_PZ)

    def _zero_partner(self, Z, corner):
        if not self.is_zero_context:
            raise ConstructionError("zero-partner tuples need phi = psi = 0")
        _require_left_module(Z, self._corner(corner)[0], f"Z_{corner}")
        if corner == "A":
            X, Y = Z, zero_module(self.B, "left")
        else:
            X, Y = zero_module(self.A, "left"), Z
        MX, S_MX = tensor_bimodule_with_module(self.M, X)
        NY, S_NY = tensor_bimodule_with_module(self.N, Y)
        f = ModuleHom(MX, Y, [{} for _ in range(MX.dim)])
        g = ModuleHom(NY, X, [{} for _ in range(NY.dim)])
        return TupleModule(self, X, Y, f, g, S_MX, S_NY)

    def __repr__(self):
        return (f"MoritaContext(A={self.A.dim}, N={self.N.dim}, "
                f"M={self.M.dim}, B={self.B.dim})")


def _require_left_module(X, algebra, who):
    if X.side != "left" or X.algebra != algebra:
        raise ConstructionError(f"{who} expects a left module over the matching corner")


class TupleModule:
    """(X, Y, f, g) over a Morita context, for a module on either side.

    The side is X's.  A left tuple has X a left A-module, Y a left
    B-module, f: M (x)_A X -> Y and g: N (x)_B Y -> X.  A right tuple has
    X a right A-module, Y a right B-module, f: X (x)_A N -> Y and
    g: Y (x)_B M -> X.  S_X and S_Y are the tensor spaces f and g start
    from.  Like GradedModule, construction checks nothing: the tuple is
    valid exactly when as_module() satisfies the module axioms over the
    assembled ring, which tuple_module checks for caller-supplied maps.
    """

    def __init__(self, ctx: MoritaContext, X, Y, f: ModuleHom, g: ModuleHom,
                 S_X, S_Y):
        self.ctx = ctx
        self.X = X
        self.Y = Y
        self.f = f
        self.g = g
        self.S_X = S_X
        self.S_Y = S_Y
        self.side = X.side
        self._p = _modulus(X.field)
        self._mod = None

    def _factors(self, v, b):
        """Module index v and bimodule index b in tensor-factor order: the
        bimodule is the left factor of a left tuple's tensor spaces."""
        return (v, b) if self.side == "right" else (b, v)

    def f_at(self, x, b):
        """f on basis vector x of X paired with basis vector b of its
        bimodule, as a sparse cell over Y."""
        cell = self.S_X.project_pair(*self._factors(x, b))
        return _sum_cells(self._p, ((c, self.f.cols[s]) for s, c in cell.items()))

    def g_at(self, y, b):
        """g on basis vector y of Y paired with basis vector b of its
        bimodule, as a sparse cell over X."""
        cell = self.S_Y.project_pair(*self._factors(y, b))
        return _sum_cells(self._p, ((c, self.g.cols[s]) for s, c in cell.items()))

    @property
    def dim(self):
        return self.X.dim + self.Y.dim

    def as_module(self) -> GradedModule:
        """The module over the assembled ring carried by the tuple."""
        if self._mod is not None:
            return self._mod
        ctx, X, Y = self.ctx, self.X, self.Y
        Lam = ctx.assembled
        oA, oN, oM, oB = ctx.offsets
        # the bimodule X pairs with sends X into Y, the other one Y into X
        (oX, PX), (oY, PY) = ((oN, ctx.N), (oM, ctx.M)) if self.side == "right" \
            else ((oM, ctx.M), (oN, ctx.N))
        dX = X.dim
        action = [[{} for _ in range(Lam.dim)] for _ in range(dX + Y.dim)]
        _place(action, 0, oA, X.action)
        _place(action, 0, oX, [[self.f_at(i, b) for b in range(PX.dim)]
                               for i in range(dX)], dX)
        _place(action, dX, oB, Y.action, dX)
        _place(action, dX, oY, [[self.g_at(j, b) for b in range(PY.dim)]
                                for j in range(Y.dim)])
        labels = [f"x:{s}" for s in X.labels] + [f"y:{s}" for s in Y.labels]
        degrees = X.degree + Y.degree
        self._mod = GradedModule._trusted(Lam, self.side, labels, degrees, action)
        return self._mod

    def __repr__(self):
        return f"TupleModule({self.side}, X={self.X.dim}, Y={self.Y.dim})"


def tuple_module(ctx: MoritaContext, X, Y, f_cols, g_cols):
    """Wrap user-supplied structure maps into a checked left tuple.

    f_cols lists the images in Y, as sparse cells {index: coeff}, of the
    basis vectors of the computed M (x)_A X, and g_cols those in X of the
    basis of the computed N (x)_B Y.  A list of the wrong length, or a
    cell key outside the target's basis, raises; the cells are cleaned to
    nonzero reduced residues.  The maps are valid exactly when the tuple
    is a module over the context ring: degree-preserving, module maps,
    and compatible with the pairings.  The first violated module axiom
    raises, naming its basis elements by their labels in the tuple's
    module (x:, y:) and the context ring (a:, n:, m:, b:).
    """
    _require_left_module(X, ctx.A, "tuple_module")
    _require_left_module(Y, ctx.B, "tuple_module")
    MX, S_MX = tensor_bimodule_with_module(ctx.M, X)
    NY, S_NY = tensor_bimodule_with_module(ctx.N, Y)
    p = _modulus(X.field)
    f = ModuleHom(MX, Y, _checked_table(p, [f_cols], 1, MX.dim, Y.dim, "map f")[0])
    g = ModuleHom(NY, X, _checked_table(p, [g_cols], 1, NY.dim, X.dim, "map g")[0])
    t = TupleModule(ctx, X, Y, f, g, S_MX, S_NY)
    _check_assembled(t.as_module(), "tuple module")
    return t


def regular_right_tuple(ctx: MoritaContext) -> TupleModule:
    """The assembled ring as a right module over itself, in tuple form.

    X is the first block column A + M (a right A-module), Y the second
    block column N + B; the structure maps are the block multiplications.
    """
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

    def f_at(i, n):  # a n in N, m n = phi(m, n) in B
        if i < dA:
            return ctx.N.left_action[n][i]
        return {dN + k: c for k, c in ctx.phi[i - dA][n].items()}

    def g_at(i, m):  # n m = psi(n, m) in A, b m in M
        if i < dN:
            return ctx.psi[i][m]
        return {dA + k: c for k, c in ctx.M.left_action[m][i - dN].items()}

    XN, S_XN = tensor_module_with_bimodule(X, ctx.N)
    YM, S_YM = tensor_module_with_bimodule(Y, ctx.M)
    return TupleModule(ctx, X, Y, ModuleHom(XN, Y, _on_section(S_XN, f_at)),
                       ModuleHom(YM, X, _on_section(S_YM, g_at)), S_XN, S_YM)


def morita_ring(A, B, N, M, phi=None, psi=None) -> MoritaContext:
    """Assemble the square ring [[A, N], [M, B]].

    phi: cell table of the pairing M x N -> B in the form of mult,
    phi[m][n] the sparse cell {index: coeff} over B of the pair of basis
    vectors (m, n); psi likewise, psi[n][m] a cell over A.  None means
    zero.  A table of the wrong shape or with a key outside its ring's
    basis raises, and the cells are cleaned to nonzero reduced residues.
    The pairings are valid exactly when the assembled ring is a graded
    associative algebra: balanced, two-sided linear, mixed-associative and
    degree-preserving.  When one of them is nonzero the assembled ring's
    axioms are checked and the first violation raises, naming its basis
    elements by their assembled labels (a:, n:, m:, b:); zero pairings
    satisfy every condition.
    """
    if N.left_algebra != A or N.right_algebra != B:
        raise ConstructionError("N must be an (A, B)-bimodule")
    if M.left_algebra != B or M.right_algebra != A:
        raise ConstructionError("M must be a (B, A)-bimodule")
    p = _modulus(A.field)
    dA, dN, dM, dB = A.dim, N.dim, M.dim, B.dim
    phi = _zero_table(dM, dN) if phi is None else _checked_table(p, phi, dM, dN, dB, "phi")
    psi = _zero_table(dN, dM) if psi is None else _checked_table(p, psi, dN, dM, dA, "psi")
    ctx = _assemble_context(A, B, N, M, phi, psi)
    if not ctx.is_zero_context:
        _check_assembled(ctx.assembled, "context ring")
    return ctx


def _assemble_context(A, B, N, M, phi, psi) -> MoritaContext:
    """The context of clean pairing tables that make a graded associative
    algebra, assembled as they are."""
    F = A.field
    dA, dN, dM, dB = A.dim, N.dim, M.dim, B.dim
    oA, oN, oM, oB = 0, dA, dA + dN, dA + dN + dM
    dim = dA + dN + dM + dB
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    _place(mult, oA, oA, A.mult, oA)
    _place(mult, oA, oN, N.left_action, oN, swap=True)
    _place(mult, oN, oM, psi, oA)
    _place(mult, oN, oB, N.right_action, oN)
    _place(mult, oM, oA, M.right_action, oM)
    _place(mult, oM, oN, phi, oB)
    _place(mult, oB, oM, M.left_action, oM, swap=True)
    _place(mult, oB, oB, B.mult, oB)
    unit = ([c for c in A.unit] + [F.zero()] * (dN + dM) + [c for c in B.unit])
    labels = ([f"a:{s}" for s in A.labels] + [f"n:{s}" for s in N.labels]
              + [f"m:{s}" for s in M.labels] + [f"b:{s}" for s in B.labels])
    degrees = A.degree + N.degree + M.degree + B.degree
    assembled = GradedAlgebra._trusted(F, A.group, labels, degrees, unit, mult)
    return MoritaContext(A, B, N, M, phi, psi, assembled)


def split_covering(cov: CoveringData, k=None) -> MoritaContext:
    """Cut a covering ring into a 2x2 context along the residue index.

    Rows and columns with residue <= k form the A corner; k defaults to
    the half split (group order a power of two, k = order/2 - 1).  The
    context ring is the covering with its basis reordered into the blocks
    A, N, M, B.  The blocks and the pairings are slot patterns of the
    covered ring, and the context ring, a reordering of the covering
    ring, is assembled without an axiom check.
    """
    R = cov.base
    if len(R.group.factors) != 1:
        raise ConstructionError("splitting needs a cyclic grading group")
    m = R.group.factors[0]
    if k is None:
        if m & (m - 1):
            raise ConstructionError("default half split needs a 2-power order; pass k")
        k = m // 2 - 1
    if not 0 <= k <= m - 2:
        raise ConstructionError(f"split index {k} out of range for order {m}")
    top = {(r,) for r in range(k + 1)}

    def block(rows_top, cols_top):
        return lambda g, h: (g in top) == rows_top and (h in top) == cols_top

    A = _cover_pattern(_pattern_algebra, R, block(True, True))
    B = _cover_pattern(_pattern_algebra, R, block(False, False))
    N = _cover_pattern(_pattern_bimodule, R, block(True, False), A, B)
    M = _cover_pattern(_pattern_bimodule, R, block(False, True), B, A)
    phi = _slot_products(R.mult, M.triples, N.triples, B.pos)
    psi = _slot_products(R.mult, N.triples, M.triples, A.pos)
    ctx = _assemble_context(A.obj, B.obj, N.obj, M.obj, phi, psi)
    ctx.split_index = k
    return ctx


# -- tensor rings ------------------------------------------------------------


class TensorTower:
    """Iterated products of a bimodule over its base ring.

    power(i) is the i-fold product (power(0) is the base as a bimodule
    over itself); mu(i, j) is the concatenation pairing
    power(i) x power(j) -> power(i+j) as a cell table like mult:
    mu(i, j)[u][v] is the sparse cell over power(i+j) of the product of
    basis vectors u of power(i) and v of power(j).
    """

    def __init__(self, R: GradedAlgebra, M: GradedBimodule):
        if M.left_algebra != R or M.right_algebra != R:
            raise ConstructionError("tensor tower needs a bimodule over the base on both sides")
        self.base = R
        self.bim = M
        self.powers = [regular_bimodule(R), M]
        self.spaces = [None, None]
        self._mu = {}

    def power(self, i: int) -> GradedBimodule:
        while len(self.powers) <= i:
            prev = self.powers[-1]
            if prev.dim == 0:
                self.powers.append(GradedBimodule._trusted(self.base, self.base,
                                                           [], [], [], []))
                self.spaces.append(None)
                continue
            nxt, space = tensor_bimodules(prev, self.bim)
            self.powers.append(nxt)
            self.spaces.append(space)
        return self.powers[i]

    def mu(self, i: int, j: int):
        key = (i, j)
        if key in self._mu:
            return self._mu[key]
        Pi, Pj, Pij = self.power(i), self.power(j), self.power(i + j)
        if Pij.dim == 0 or Pi.dim == 0 or Pj.dim == 0:
            out = [[{} for _ in range(Pj.dim)] for _ in range(Pi.dim)]
        elif j == 0:
            out = Pi.right_action
        elif i == 0:
            out = _transposed(Pj.left_action)
        elif j == 1:
            pair = self.spaces[i + 1].project_pair
            out = [[pair(u, v) for v in range(Pj.dim)] for u in range(Pi.dim)]
        else:
            # u (w m) = (u w) m for the section pair (w, m) of v
            p = _modulus(self.base.field)
            inner = self.mu(i, j - 1)
            outer = self.mu(i + j - 1, 1)
            section = self.spaces[j].section
            out = [[_act_sparse(outer, p, inner[u][w], mlast) for (w, mlast) in section]
                   for u in range(Pi.dim)]
        self._mu[key] = out
        return out


class TensorRingData:
    def __init__(self, algebra, tower, index, offsets):
        self.algebra = algebra
        self.tower = tower
        self.index = index        # first vanishing power
        self.offsets = offsets    # block start per power

    def __repr__(self):
        return f"TensorRingData(dim={self.algebra.dim}, index={self.index})"


def tensor_ring(R: GradedAlgebra, M: GradedBimodule, nilpotency_index: int) -> TensorRingData:
    """Direct sum of the powers of M below the vanishing index.

    The power at nilpotency_index must come out zero-dimensional (that is
    checked here, on the actual tensor powers); the result is graded by
    the cyclic 2-power group just large enough that the occupied degrees
    sit strictly inside the lower half.
    """
    k = int(nilpotency_index)
    if k < 1:
        raise ConstructionError("nilpotency index must be at least 1")
    tower = TensorTower(R, M)
    Pk = tower.power(k)
    if Pk.dim != 0:
        raise ConstructionError(
            f"power {k} of the bimodule has dimension {Pk.dim}; nilpotency not confirmed")
    n = 1
    while 2 ** (n - 1) < k:
        n += 1
    group = FiniteAbelianGroup((2 ** n,))
    F = R.field
    offsets = []
    labels = []
    degrees = []
    for i in range(k):
        offsets.append(len(labels))
        Pi = tower.power(i)
        labels.extend(f"t{i}:{s}" for s in Pi.labels)
        degrees.extend([(i,)] * Pi.dim)
    dim = len(labels)
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(k):
        for j in range(k - i):
            _place(mult, offsets[i], offsets[j], tower.mu(i, j), offsets[i + j])
    unit = [F.zero()] * dim
    for t, c in enumerate(R.unit):
        unit[t] = c
    alg = GradedAlgebra._trusted(F, group, labels, degrees, unit, mult)
    return TensorRingData(alg, tower, k, offsets)


# -- multiplication-twisted extensions ---------------------------------------


class ThetaData:
    """Extension of a ring by a bimodule with a chosen pairing on it.

    algebra has basis base then bimodule; the cell table theta pairs the
    bimodule with itself, theta[i][j] the cell over the bimodule of the
    pair of basis vectors (m_i, m_j).
    """

    def __init__(self, algebra, base, bim, theta):
        self.algebra = algebra
        self.base = base
        self.bim = bim
        self.theta = theta

    def __repr__(self):
        return f"ThetaData(dim={self.algebra.dim})"


def _theta_tables(R, M, theta):
    F = R.field
    dR, dM = R.dim, M.dim
    dim = dR + dM
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    _place(mult, 0, 0, R.mult)
    _place(mult, 0, dR, M.left_action, dR, swap=True)
    _place(mult, dR, 0, M.right_action, dR)
    _place(mult, dR, dR, theta, dR)
    unit = list(R.unit) + [F.zero()] * dM
    labels = [f"r:{s}" for s in R.labels] + [f"m:{s}" for s in M.labels]
    return GradedAlgebra._trusted(F, TRIVIAL_GROUP, labels, [()] * dim, unit, mult)


def theta_extension(R: GradedAlgebra, M: GradedBimodule, theta=None) -> ThetaData:
    """Ring on R + M where two bimodule elements multiply through theta.

    theta: cell table of the pairing in the form of mult, theta[i][j] the
    sparse cell {index: coeff} over M of the pair (m_i, m_j); None means
    the zero pairing.  A table of the wrong shape or with a key outside
    M's basis raises, and the cells are cleaned.  theta is valid
    exactly when the extension ring is associative: balanced, two-sided
    linear and associative with itself.  A nonzero theta is checked
    through the extension ring's axioms and the first violation raises,
    naming its basis elements by their labels (r:, m:).
    """
    if M.left_algebra != R or M.right_algebra != R:
        raise ConstructionError("extension needs a bimodule over the base on both sides")
    dM = M.dim
    theta = (_zero_table(dM, dM) if theta is None
             else _checked_table(_modulus(R.field), theta, dM, dM, dM, "theta"))
    algebra = _theta_tables(R, M, theta)
    if not _is_zero(theta):
        _check_assembled(algebra, "extension ring")
    return ThetaData(algebra, R, M, theta)


def trivial_extension(R: GradedAlgebra, M: GradedBimodule) -> ThetaData:
    """Square-zero extension of R by M (independent of the theta path)."""
    if M.left_algebra != R or M.right_algebra != R:
        raise ConstructionError("extension needs a bimodule over the base on both sides")
    zero = _zero_table(M.dim, M.dim)
    return ThetaData(_theta_tables(R, M, zero), R, M, zero)


def split_positively_graded(Lam: GradedAlgebra):
    """Cut a cyclically graded algebra into degree zero plus the rest.

    Returns (ThetaData, perm) where theta is the multiplication of the
    positive part and perm maps the input basis indices to the extension's
    (degree-zero block first).  Products must stay inside the positive
    part; a wraparound into degree zero is rejected.
    """
    if len(Lam.group.factors) != 1:
        raise ConstructionError("positive splitting needs a cyclic grading group")
    zero_idx = [i for i, d in enumerate(Lam.degree) if d == Lam.group.zero()]
    pos_idx = [i for i, d in enumerate(Lam.degree) if d != Lam.group.zero()]
    R0 = degree_zero_subalgebra(Lam)
    locp = {gi: i for i, gi in enumerate(pos_idx)}
    try:
        left = _transposed(_cut(Lam.mult, zero_idx, pos_idx, locp))
        right = _cut(Lam.mult, pos_idx, zero_idx, locp)
        theta = _cut(Lam.mult, pos_idx, pos_idx, locp)
    except KeyError:
        raise ConstructionError(
            "positive part is not multiplicatively closed; re-embed the "
            "grading in a larger cyclic group") from None
    labels = [Lam.labels[i] for i in pos_idx]
    M = GradedBimodule._trusted(R0, R0, labels, [()] * len(pos_idx), left, right)
    td = theta_extension(R0, M, theta)
    perm = [None] * Lam.dim
    for i, gi in enumerate(zero_idx):
        perm[gi] = i
    for i, gi in enumerate(pos_idx):
        perm[gi] = len(zero_idx) + i
    return td, perm


# -- twisted tensor products -------------------------------------------------


def _field_pow(F, v, e):
    out = F.one()
    acc = v
    e = int(e)
    while e:
        if e & 1:
            out = F.mul(out, acc)
        acc = F.mul(acc, acc)
        e >>= 1
    return out


class Bicharacter:
    """Pairing of two grading groups into the field's units.

    Specified by its values on the canonical cyclic generators; values
    elsewhere follow by biadditivity.  Well-definedness on residues
    requires each generator value to be a root of unity of the right
    orders, which is validated eagerly.
    """

    def __init__(self, field, group1: FiniteAbelianGroup,
                 group2: FiniteAbelianGroup, generator_values):
        self.field = field
        self.group1 = group1
        self.group2 = group2
        vals = [[v for v in row] for row in generator_values]
        if len(vals) != len(group1.factors) or any(len(r) != len(group2.factors)
                                                   for r in vals):
            raise ConstructionError("generator value table has the wrong shape")
        one = field.one()
        for i, n in enumerate(group1.factors):
            for j, m in enumerate(group2.factors):
                v = vals[i][j]
                if field.is_zero(v):
                    raise ConstructionError("bicharacter values must be units")
                if _field_pow(field, v, n) != one or _field_pow(field, v, m) != one:
                    raise ConstructionError(
                        f"value at generator pair ({i}, {j}) is not a root of "
                        f"unity matching orders ({n}, {m})")
        self.values = vals
        self._cache = {}

    @classmethod
    def trivial(cls, field, group1, group2):
        one = field.one()
        return cls(field, group1, group2,
                   [[one] * len(group2.factors) for _ in range(len(group1.factors))])

    def value(self, a, b):
        a = self.group1.reduce(a)
        b = self.group2.reduce(b)
        key = (a, b)
        if key not in self._cache:
            F = self.field
            out = F.one()
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out = F.mul(out, _field_pow(F, self.values[i][j], x * y))
            self._cache[key] = out
        return self._cache[key]

    def to_json(self):
        return {"group1": self.group1.to_json(), "group2": self.group2.to_json(),
                "values": [[self.field.enc(v) for v in row] for row in self.values]}


def twisted_tensor(A: GradedAlgebra, B: GradedAlgebra, t: Bicharacter) -> GradedAlgebra:
    """Tensor product algebra with the cross-term commutation scaled by t.

    Basis pairs multiply by (a (x) b)(a' (x) b') =
    t(|a'|, |b|) (aa' (x) bb'), graded over the product group.
    """
    if A.field != B.field or A.field != t.field:
        raise ConstructionError("twisted product needs a common field")
    if t.group1 != A.group or t.group2 != B.group:
        raise ConstructionError("bicharacter groups do not match the factors")
    F = A.field
    group = A.group.product_with(B.group)
    dA, dB = A.dim, B.dim
    dim = dA * dB
    labels = [f"({la}|{lb})" for la in A.labels for lb in B.labels]
    degrees = [A.group.pair(da, db) for da in A.degree for db in B.degree]
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(dA):
        for j in range(dB):
            row = i * dB + j
            for p in range(dA):
                coef = t.value(A.degree[p], B.degree[j])
                if F.is_zero(coef):
                    continue
                am = A.mult[i][p]
                if not am:
                    continue
                for q in range(dB):
                    bm = B.mult[j][q]
                    if not bm:
                        continue
                    cell = {}
                    for r, ca in am.items():
                        for s, cb in bm.items():
                            cell[r * dB + s] = F.mul(coef, F.mul(ca, cb))
                    mult[row][p * dB + q] = cell
    unit = [F.zero()] * dim
    for i, ca in enumerate(A.unit):
        if F.is_zero(ca):
            continue
        for j, cb in enumerate(B.unit):
            if not F.is_zero(cb):
                unit[i * dB + j] = F.mul(ca, cb)
    return GradedAlgebra._trusted(F, group, labels, degrees, unit, mult)


def tensor_product_algebra(A: GradedAlgebra, B: GradedAlgebra) -> GradedAlgebra:
    """Plain tensor product algebra, same basis order as the twisted one."""
    F = A.field
    if A.field != B.field:
        raise ConstructionError("tensor product needs a common field")
    group = A.group.product_with(B.group)
    dA, dB = A.dim, B.dim
    dim = dA * dB
    labels = [f"({la}|{lb})" for la in A.labels for lb in B.labels]
    degrees = [A.group.pair(da, db) for da in A.degree for db in B.degree]
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(dA):
        for j in range(dB):
            row = i * dB + j
            for p in range(dA):
                am = A.mult[i][p]
                if not am:
                    continue
                for q in range(dB):
                    bm = B.mult[j][q]
                    if not bm:
                        continue
                    mult[row][p * dB + q] = {r * dB + s: F.mul(ca, cb)
                                             for r, ca in am.items()
                                             for s, cb in bm.items()}
    unit = [F.zero()] * dim
    for i, ca in enumerate(A.unit):
        for j, cb in enumerate(B.unit):
            c = F.mul(ca, cb)
            if not F.is_zero(c):
                unit[i * dB + j] = c
    return GradedAlgebra._trusted(F, group, labels, degrees, unit, mult)


def twisted_module(M: GradedModule, N: GradedModule, t: Bicharacter,
                   AtB: GradedAlgebra) -> GradedModule:
    """Right module M (x) N over the twisted product of the two algebras.

    (m (x) n)(a (x) b) = t(|a|, |n|) (ma (x) nb); AtB must be
    twisted_tensor(A, B, t), passed in so repeated module constructions
    share one carrier.
    """
    A, B = M.algebra, N.algebra
    if M.side != "right" or N.side != "right":
        raise ConstructionError("twisted modules are built from right modules")
    if t.group1 != A.group or t.group2 != B.group:
        raise ConstructionError("bicharacter groups do not match the factors")
    if AtB != twisted_tensor(A, B, t):
        raise ConstructionError("carrier is not the twisted product along t")
    F = A.field
    dB = B.dim
    dN = N.dim
    dim = M.dim * dN
    labels = [f"({lm}|{ln})" for lm in M.labels for ln in N.labels]
    degrees = [A.group.pair(dm, dn) for dm in M.degree for dn in N.degree]
    action = [[{} for _ in range(AtB.dim)] for _ in range(dim)]
    for p in range(M.dim):
        for q in range(dN):
            row = p * dN + q
            for k in range(A.dim):
                coef = t.value(A.degree[k], N.degree[q])
                ma = M.action[p][k]
                if not ma:
                    continue
                for l in range(dB):
                    nb = N.action[q][l]
                    if not nb:
                        continue
                    cell = {}
                    for r, cm in ma.items():
                        for s, cn in nb.items():
                            cell[r * dN + s] = F.mul(coef, F.mul(cm, cn))
                    action[row][k * dB + l] = cell
    return GradedModule._trusted(AtB, "right", labels, degrees, action)


# -- triangular data of a nonnegatively graded algebra -----------------------


class BeilinsonData:
    def __init__(self, algebra, bim):
        self.algebra = algebra  # the upper-triangular component pattern
        self.bim = bim          # the complementary lower pattern, a bimodule

    def __repr__(self):
        return f"BeilinsonData(dim={self.algebra.dim})"


def beilinson(Lam: GradedAlgebra, level: int) -> BeilinsonData:
    """Block-triangular algebra and bimodule cut from a graded algebra.

    The algebra part is the level x level upper-triangular pattern with
    slot (r, c) holding the degree c-r component; the bimodule part is
    the lower pattern with slot (r, c), c <= r, holding degree
    level - r + c.  Components above `level` must vanish.
    """
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
    upper = [(r, c) for r in range(l) for c in range(r, l)]
    balg = _pattern_algebra(Lam, upper, lambda r, c: (c - r,), lambda r, c: f"b[{r},{c}]")
    lower = [(r, c) for r in range(l) for c in range(r + 1)]
    try:
        xbim = _pattern_bimodule(Lam, balg, balg, lower, lambda r, c: (l - r + c,),
                                 lambda r, c: f"x[{r},{c}]")
    except KeyError:
        raise ConstructionError("block pattern leak in the bimodule part") from None
    return BeilinsonData(balg.obj, xbim.obj)


# -- functor package for theta extensions -------------------------------------


class CleftFunctors:
    """Restriction and extension functors between a ring and its extension.

    All modules are right modules; graded inputs are flattened because the
    extension itself is ungraded.  T sends a base module up, U restricts
    back down, Z inflates through the quotient map, C collapses an
    extension module onto the base, F pairs with the bimodule.  down is
    the base as an (extension, base)-bimodule through the quotient map
    that kills the bimodule block; C tensors with it.
    """

    def __init__(self, td: ThetaData):
        self.ext = td
        E = td.algebra
        R = td.base
        base = R if R.group.is_trivial else trivially_graded(R)
        self.base = base
        dR, dE = R.dim, E.dim
        left = [[E.mult[j][i] for j in range(dR)] for i in range(dE)]
        self._up = GradedBimodule._trusted(base, E, E.labels, [()] * dE, left, E.mult)
        lp = [[base.mult[j][i] if j < dR else {} for j in range(dE)]
              for i in range(dR)]
        self.down = GradedBimodule._trusted(E, base, base.labels, [()] * dR, lp,
                                            base.mult)
        bm = td.bim
        self._pair = GradedBimodule._trusted(base, base, bm.labels, [()] * bm.dim,
                                             bm.left_action, bm.right_action)

    def _check_base(self, X):
        if X.side != "right" or X.algebra != self.base:
            raise ConstructionError("expected a right module over the base ring "
                                    "(grading forgotten)")

    def _check_ext(self, Y):
        if Y.side != "right" or Y.algebra != self.ext.algebra:
            raise ConstructionError("expected a right module over the extension")

    def T(self, X: GradedModule) -> GradedModule:
        """X paired up along the ring extension."""
        self._check_base(X)
        out, _ = tensor_module_with_bimodule(X, self._up)
        return out

    def C(self, Y: GradedModule) -> GradedModule:
        """Y collapsed onto the base through the quotient map."""
        self._check_ext(Y)
        out, _ = tensor_module_with_bimodule(Y, self.down)
        return out

    def U(self, Y: GradedModule) -> GradedModule:
        """Plain restriction along the inclusion of the base."""
        self._check_ext(Y)
        dR = self.base.dim
        action = [row[:dR] for row in Y.action]
        return GradedModule._trusted(self.base, "right", Y.labels, [()] * Y.dim, action)

    def Z(self, X: GradedModule) -> GradedModule:
        """Inflation: the bimodule part acts by zero."""
        self._check_base(X)
        dR = self.base.dim
        dE = self.ext.algebra.dim
        action = [[X.action[i][j] if j < dR else {} for j in range(dE)]
                  for i in range(X.dim)]
        return GradedModule._trusted(self.ext.algebra, "right", X.labels, [()] * X.dim,
                                     action)

    def F(self, X: GradedModule) -> GradedModule:
        """X paired with the bimodule (stays over the base)."""
        self._check_base(X)
        out, _ = tensor_module_with_bimodule(X, self._pair)
        return out


# -- provenance ----------------------------------------------------------------
#
# An object a construction built is stored with a provenance record: the
# construction's name, the hashes of its inputs and JSON params.  RECIPES
# has one entry per recorded name and is the one place that turns a record
# into a construction and back: the command line and the corpus generator
# record through it, the derivation engine rebuilds through it.  Entries
# call their construction by module-global name at call time, so a wrapper
# installed on this module sees every call.


def _matrix_param(field, params, key, nrows, ncols):
    """params[key] as an nrows x ncols matrix; None (zero) when absent."""
    if params.get(key) is None:
        return None
    m = matrix_from_json(field, params[key], ncols)
    if (m.nrows, m.ncols) != (nrows, ncols):
        raise SerializeError(f"{key} must be a {nrows} x {ncols} matrix, "
                             f"got {m.nrows} x {m.ncols}")
    return m


def _pairing_param(field, params, key, dim, d1, d2):
    """params[key], recorded as a dim x (d1 d2) matrix whose column
    a d2 + b holds the pairing of basis vectors a and b, as a d1 x d2
    cell table over range(dim); None (zero) when absent."""
    m = _matrix_param(field, params, key, dim, d1 * d2)
    if m is None:
        return None
    p = _modulus(field)
    return [[_nonzero(p, ((k, row[a * d2 + b]) for k, row in enumerate(m.rows)))
             for b in range(d2)] for a in range(d1)]


def _pairing_json(field, table, dim):
    """The pairing table as the matrix _pairing_param reads."""
    return matrix_to_json(field, render_columns(field, [c for row in table for c in row], dim))


def _int_args(params, key):
    if type(params.get(key)) is not int:
        raise SerializeError(f"param {key!r} must be an integer")
    return (params[key],)


def _decode_pairings(ins, params):
    A, B, N, M = ins
    return (_pairing_param(A.field, params, "phi", B.dim, M.dim, N.dim),
            _pairing_param(A.field, params, "psi", A.dim, N.dim, M.dim))


def _encode_pairings(ctx, _args):
    params = {"zero_context": ctx.is_zero_context}
    for key, table, ring in (("phi", ctx.phi, ctx.B), ("psi", ctx.psi, ctx.A)):
        if not _is_zero(table):
            params[key] = _pairing_json(ctx.A.field, table, ring.dim)
    return params


def _decode_twist(ins, params):
    """The bicharacter params["t"]; the trivial one when absent."""
    A, B = ins
    t = params.get("t")
    if t is None:
        return (Bicharacter.trivial(A.field, A.group, B.group),)
    if not isinstance(t, dict) or t.get("values") is None:
        raise SerializeError("param 't' needs its generator values")
    if any(k in t and t[k] != X.group.to_json()
           for k, X in (("group1", A), ("group2", B))):
        raise SerializeError("param 't' names groups other than the factors'")
    vals = _matrix_param(A.field, t, "values", len(A.group.factors),
                         len(B.group.factors))
    return (Bicharacter(A.field, A.group, B.group, vals.rows),)


def _pattern_extension(Lam, level):
    bd = beilinson(Lam, level)
    return trivial_extension(bd.algebra, bd.bim)


# decode(ins, params) turns the recorded JSON params into the extra
# arguments of run, raising SerializeError on malformed ones; run(*ins,
# *args) returns the construction's data; primary(data) is the object the
# record is stored with; encode(data, args) is the params to record.
Recipe = namedtuple("Recipe", "arity run decode primary encode", defaults=(
    lambda ins, params: (), lambda data: data.algebra, lambda data, args: None))

RECIPES = {
    "covering_ring": Recipe(1, lambda R: covering_ring(R)),
    "covering_module": Recipe(2, lambda M, cov: covering_module(M, cov),
                              primary=lambda M: M),
    "covering_module_inverse": Recipe(
        2, lambda V, cov: covering_module_inverse(V, cov), primary=lambda M: M),
    "degree_zero_subalgebra": Recipe(1, lambda A: degree_zero_subalgebra(A),
                                     primary=lambda A: A),
    "morita_ring": Recipe(
        4, lambda A, B, N, M, phi, psi: morita_ring(A, B, N, M, phi, psi),
        _decode_pairings, lambda ctx: ctx.assembled, _encode_pairings),
    "tensor_ring": Recipe(
        2, lambda R, W, k: tensor_ring(R, W, k),
        lambda ins, p: _int_args(p, "nilpotency_index"),
        encode=lambda data, args: {"nilpotency_index": args[0]}),
    "theta_extension": Recipe(
        2, lambda R, W, theta: theta_extension(R, W, theta),
        lambda ins, p: (_pairing_param(ins[0].field, p, "theta", ins[1].dim,
                                       ins[1].dim, ins[1].dim),),
        encode=lambda td, args: None if _is_zero(td.theta) else
        {"theta": _pairing_json(td.base.field, td.theta, td.bim.dim)}),
    "trivial_extension": Recipe(2, lambda R, W: trivial_extension(R, W)),
    "beilinson": Recipe(1, lambda Lam, level: _pattern_extension(Lam, level),
                        lambda ins, p: _int_args(p, "level"),
                        encode=lambda data, args: {"level": args[0]}),
    "twisted_tensor": Recipe(2, lambda A, B, t: twisted_tensor(A, B, t),
                             _decode_twist, lambda T: T,
                             lambda data, args: {"t": args[0].to_json()}),
}


class Built:
    """A construction run under its recorded name: the data it returned
    and the decoded params it ran with."""

    def __init__(self, name, data, args=()):
        self.name = name
        self.data = data
        self.args = args

    @property
    def obj(self):
        """The object the record is stored with."""
        return RECIPES[self.name].primary(self.data)

    def provenance(self, inputs):
        """The record of this run on the inputs with these hashes."""
        return provenance_record(self.name, inputs,
                                 RECIPES[self.name].encode(self.data, self.args))


def construct(name, ins, params=None) -> Built:
    """Run the construction recorded as name on loaded inputs (a covering
    ring as its CoveringData) and JSON params."""
    recipe = RECIPES.get(name)
    if recipe is None or len(ins) != recipe.arity:
        raise SerializeError(f"no construction {name!r} on {len(ins)} inputs")
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise SerializeError("params must be a JSON object")
    args = recipe.decode(ins, params)
    return Built(name, recipe.run(*ins, *args), args)


def reconstruct(record, load) -> Built:
    """Re-run the construction a provenance record names; load(h) returns
    the stored object of hash h."""
    if not isinstance(record, dict) or not isinstance(record.get("inputs"), list):
        raise SerializeError("malformed provenance record")
    return construct(record.get("construction"),
                     [load(h) for h in record["inputs"]], record.get("params"))
