"""Graded algebras and modules with explicit structure constants.

Everything is finite dimensional over an exact field, graded by a finite
abelian group.  An ungraded object is the same thing graded trivially (all
degrees zero, or the trivial group).  Multiplication tables are stored
sparsely: mult[i][j] is a dict {k: coeff} giving e_i * e_j = sum coeff e_k.

Axiom checking returns violation lists rather than raising: callers decide
whether a violation is an error.  check_axioms picks the checker by type.
Objects are checked once, where they enter the object store; constructions
trust their inputs and do not re-check what they build.

Tables are cleaned once, where they enter: the public constructors (and
the serialize decoders, which call them) reduce degrees and residues,
drop zero coefficients and refuse a cell key that is not a basis index.
Builders inside the library make clean tables
and pass them to the private _trusted constructors, which store them as
they are.  So tables are shared between objects, and the library never
mutates one: a caller that edits a table in place copies it first.
"""

from __future__ import annotations

from collections import namedtuple

from .groups import FiniteAbelianGroup, TRIVIAL_GROUP
from .linalg import Span, _modulus, _nonzero, render_columns, row_space_reducer


class AlgebraError(ValueError):
    pass


class ConstructionError(RuntimeError):
    """Data handed to a construction fails one of its requirements; the
    message names a witness."""


class Violation:
    __slots__ = ("kind", "where", "detail")

    def __init__(self, kind, where, detail=""):
        self.kind = kind
        self.where = tuple(where)
        self.detail = detail

    def __repr__(self):
        return f"Violation({self.kind}, {self.where}, {self.detail!r})"

    def to_json(self):
        return {"kind": self.kind, "where": list(self.where), "detail": self.detail}


class AxiomReport:
    def __init__(self, violations):
        self.violations = list(violations)

    @property
    def passed(self):
        return not self.violations

    def __repr__(self):
        if self.passed:
            return "AxiomReport(ok)"
        return f"AxiomReport({len(self.violations)} violations, first={self.violations[0]!r})"

    def to_json(self):
        return {"passed": self.passed,
                "violations": [v.to_json() for v in self.violations[:20]],
                "violation_count": len(self.violations)}


def _act_sparse(table, p, v, j):
    """The sparse vector v ({basis index: coefficient}) acted on by basis
    element j through the sparse action table: table[i][j] expands the
    action of e_j on basis vector i.  p is the modulus, None over Q."""
    acc = {}
    for i, a in v.items():
        for k, c in table[i][j].items():
            acc[k] = acc.get(k, 0) + a * c
    return _nonzero(p, acc.items()) if acc else acc


def _act_by(table, p, i, v):
    """Basis vector i acted on by the sparse vector v ({algebra basis
    index: coefficient}): sum over k of v_k table[i][k], as a sparse vector."""
    acc = {}
    row = table[i]
    for k, a in v.items():
        for t, c in row[k].items():
            acc[t] = acc.get(t, 0) + a * c
    return _nonzero(p, acc.items()) if acc else acc


def _sum_cells(p, terms):
    """The sparse vector sum of c * cell over the (c, cell) pairs of terms."""
    acc = {}
    for c, cell in terms:
        for k, a in cell.items():
            acc[k] = acc.get(k, 0) + c * a
    return _nonzero(p, acc.items()) if acc else acc


def _clean_table(p, table, dim):
    """The table with each cell cleaned to its nonzero reduced residues;
    AlgebraError on a cell key that is not a basis index in range(dim),
    by the rule the serialize decoders apply."""
    for row in table:
        for cell in row:
            for k in cell:
                if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k < dim:
                    raise AlgebraError(f"basis index {k!r} out of range for dim {dim}")
    return [[_nonzero(p, cell.items()) for cell in row] for row in table]


def _support(cells):
    """Indices of the nonempty cells of a table row."""
    return [l for l, c in enumerate(cells) if c]


def _reach(supports, v, extra):
    """Sorted indices l where sum over k of v_k row_k[l] can be nonzero
    (supports[k] is the support of row k), joined with extra."""
    out = set(extra)
    for k in v:
        out.update(supports[k])
    return sorted(out)


def _close(span, queue, table, p, gens):
    """Grow span, already mapped into itself by the action of the basis
    elements gens, to the smallest such subspace that also holds the
    sparse vectors in queue (consumed).  A full span cannot grow, so the
    walk stops there."""
    while queue and span.dim() < span.ncols:
        v = queue.pop()
        if not span.add(v):
            continue
        # a vector already in the span is dropped when popped
        queue.extend(_act_sparse(table, p, v, j) for j in gens)
    return span


class GradedAlgebra:
    def __init__(self, field, group: FiniteAbelianGroup, labels, degree, unit, mult):
        labels = [str(s) for s in labels]
        dim = len(labels)
        if dim == 0:
            raise AlgebraError("zero-dimensional algebras are not admitted")
        degree = [group.reduce(d) for d in degree]
        if len(degree) != dim:
            raise AlgebraError("degree list length mismatch")
        if len(unit) != dim:
            raise AlgebraError("unit vector length mismatch")
        if len(mult) != dim or any(len(row) != dim for row in mult):
            raise AlgebraError("mult table shape mismatch")
        p = _modulus(field)
        self._hold(field, group, labels, degree,
                   [c % p for c in unit] if p else list(unit),
                   _clean_table(p, mult, dim))

    @classmethod
    def _trusted(cls, field, group, labels, degree, unit, mult):
        """The algebra holding the given lists as they are, for builders
        whose tables are clean: string labels, reduced degrees, a reduced
        unit and cells holding only nonzero reduced residues.  Nothing is
        checked or copied, so the lists are shared with the caller."""
        A = cls.__new__(cls)
        A._hold(field, group, labels, degree, unit, mult)
        return A

    def _hold(self, field, group, labels, degree, unit, mult):
        self.field = field
        self.group = group
        self.labels = labels
        self.dim = len(labels)
        self.degree = degree
        self._p = _modulus(field)
        self.unit = unit
        self.mult = mult
        self._cache = {}

    # -- arithmetic on coefficient vectors ---------------------------------

    def zero_vec(self):
        return [self.field.zero()] * self.dim

    def basis_vec(self, i):
        v = self.zero_vec()
        v[i] = self.field.one()
        return v

    def component_indices(self, gamma):
        key = ("comp", gamma)
        if key not in self._cache:
            g = self.group.reduce(gamma)
            self._cache[key] = [i for i, d in enumerate(self.degree) if d == g]
        return self._cache[key]

    def generators(self):
        """Indices of a basis subset generating the algebra (with the unit).

        Greedy: walk the basis, keep an element whenever it falls outside
        the subalgebra generated so far.  Downstream linear systems only
        impose relations at these indices, which is enough because the
        balancing and linearity conditions are multiplicative.

        The subalgebra generated by the picks is the span of the words in
        the unit and the picks, so the span starts at the unit and is closed
        under right multiplication by the picks only, on sparse vectors: the
        closure walk of the right regular module.  A new pick multiplies
        every row of the span so far; later rows meet every pick in the
        walk.  Words span the subalgebra only for an associative table.
        Every algebra that reaches this method has passed the store's axiom
        check (or was built from such algebras by a construction), and no
        axiom check calls it.
        """
        if "gens" not in self._cache:
            one, p, mult = self.field.one(), self._p, self.mult
            span = Span(self.field, self.dim)
            span.add(self.unit)
            gens = []
            for idx in range(self.dim):
                if span.contains({idx: one}):
                    continue
                gens.append(idx)
                queue = [_act_sparse(mult, p, row, idx) for _, row in span.rows()]
                _close(span, queue, mult, p, gens)
            self._cache["gens"] = gens
        return self._cache["gens"]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GradedAlgebra)
            and self.field == other.field and self.group == other.group
            and self.labels == other.labels and self.degree == other.degree
            and self.unit == other.unit and self.mult == other.mult)

    def __repr__(self):
        return f"GradedAlgebra(dim={self.dim}, group={self.group!r}, field={self.field!r})"


# -- the structure record ----------------------------------------------------


Structure = namedtuple("Structure", "idems left right rad")


def _corner_tags(fld, supp, n, cell):
    """For each vector j < n, the s whose idempotent u b_k = supp[s]
    fixes j while the others kill it: cell(j, k) is b_k acting on j, so
    the cell of that k is the one nonempty cell of the support, and u
    times it is {j: 1}.  None if some j has no such s.  Cells hold only
    nonzero residues, so only that one cell is multiplied out."""
    one = fld.one()
    out = []
    for j in range(n):
        hit = [(s, c) for s, (k, _) in enumerate(supp) if (c := cell(j, k))]
        if len(hit) != 1:
            return None
        s, c = hit[0]
        if len(c) != 1 or fld.mul(supp[s][1], c.get(j, 0)) != one:
            return None
        out.append(s)
    return out


def _structure(A: GradedAlgebra) -> Structure:
    """(idems, left, right, rad): the basis idempotents of A and, when A
    splits over its radical on the basis, the basis indices spanning
    J0 = rad A.  Cached on A, never serialized.

    The e_i are the unit's support u_k b_k when an exact check passes: on
    each side every b_j is fixed by one e_i and killed by the others, so it
    lies in one corner e_left[j] A e_right[j], and the e_i fix their own
    support, which makes e_i e_j = delta_ij e_i; sum e_i = 1 holds by
    construction.  Otherwise idems is [1], every tag is 0 and e A = A.
    The tags are read by the covers of homology and by the carrier of
    tensors.tensor_over_algebra, which keeps only the pairs of X e_i x e_i Y.

    The witness for rad: every e_i is one basis vector u b_k, and the other
    basis vectors span a nilpotent two-sided ideal J0.  Then J0 = rad A: a
    nilpotent ideal lies in the radical, and A/J0 is spanned by n
    orthogonal idempotents, so it is k^n and semisimple.  As each e_i fixes
    or kills every basis vector on either side, J0 is an ideal once
    J0 J0 lies in J0 on the table supports.  Nilpotency is decided
    exactly: the powers J0^(m+1) = J0^m J0 are computed until they vanish
    or stop shrinking.  Where the witness fails, rad is None.

    Nilpotency already implies J0 J0 in J0: a product of two J0 basis
    vectors with a component c e_i (c != 0) is c e_i + v in the corner
    e_i A e_i, with v a nilpotent combination of J0 vectors, so it is
    invertible in the corner, yet nilpotent as a product in J0.  The
    support check stays as a cheap early refusal (group algebras, M_2(k)).
    """
    if "structure" in A._cache:
        return A._cache["structure"]
    fld = A.field
    supp = [(k, u) for k, u in enumerate(A.unit) if not fld.is_zero(u)]
    left = right = None
    if len(supp) > 1:
        left = _corner_tags(fld, supp, A.dim, lambda j, k: A.mult[k][j])
        right = _corner_tags(fld, supp, A.dim, lambda j, k: A.mult[j][k])
    if left and right and all(left[k] == i == right[k] for i, (k, _) in enumerate(supp)):
        idems = [{k: u} for k, u in supp]
    else:
        idems, left, right = [dict(supp)], [0] * A.dim, [0] * A.dim
    rec = A._cache["structure"] = Structure(idems, left, right, None)
    if any(len(e) != 1 for e in idems):
        return rec
    tops = {k for e in idems for k in e}
    rad = [j for j in range(A.dim) if j not in tops]
    inside = set(rad)
    if any(not A.mult[j][a].keys() <= inside for j in rad for a in rad):
        return rec
    power = [{j: fld.one()} for j in rad]
    while power:
        span = Span(fld, A.dim)
        for v in power:
            for a in rad:
                span.add(_act_sparse(A.mult, A._p, v, a))
        if span.dim() == len(power):    # J0^(m+1) = J0^m is not zero
            return rec
        power = [row for _, row in span.rows()]
    rec = A._cache["structure"] = rec._replace(rad=rad)
    return rec


class GradedModule:
    """One-sided module with homogeneous basis.

    action[i][j] is the expansion of the action of algebra basis element
    e_j on module basis element m_i: m_i * e_j for side 'right' and
    e_j * m_i for side 'left'.
    """

    def __init__(self, algebra: GradedAlgebra, side, labels, degree, action):
        if side not in ("left", "right"):
            raise AlgebraError(f"bad side {side!r}")
        labels = [str(s) for s in labels]
        degree = [algebra.group.reduce(d) for d in degree]
        if len(degree) != len(labels):
            raise AlgebraError("degree list length mismatch")
        if len(action) != len(labels) or any(len(row) != algebra.dim for row in action):
            raise AlgebraError("action table shape mismatch")
        p = _modulus(algebra.field)
        self._hold(algebra, side, labels, degree, _clean_table(p, action, len(labels)))

    @classmethod
    def _trusted(cls, algebra, side, labels, degree, action):
        """The module holding the given lists as they are; see
        GradedAlgebra._trusted."""
        M = cls.__new__(cls)
        M._hold(algebra, side, labels, degree, action)
        return M

    def _hold(self, algebra, side, labels, degree, action):
        self.algebra = algebra
        self.field = algebra.field
        self.side = side
        self.labels = labels
        self.dim = len(labels)
        self.degree = degree
        self._p = _modulus(self.field)
        self.action = action
        self._cache = {}

    def zero_vec(self):
        return [self.field.zero()] * self.dim

    def basis_vec(self, i):
        v = self.zero_vec()
        v[i] = self.field.one()
        return v

    def act_sparse(self, v, j):
        """Action of algebra basis element e_j on the sparse module vector
        v ({basis index: coefficient}), as a sparse vector."""
        return _act_sparse(self.action, self._p, v, j)

    def generators(self):
        """Irredundant generating subset of the basis (indices).

        Greedy: walk the basis, keep an element whenever it falls outside
        the submodule generated so far (closed under the algebra's
        generators, see GradedAlgebra.generators).  The picks depend on the
        basis order and may overshoot, and a redundant pick inflates every
        later syzygy in a resolution, so a pick is then dropped, latest
        first, when the cyclic submodules of the others already sum to the
        whole module.  The last pick is never tried: it lies outside the
        submodule of the earlier picks.  Cyclic submodules are built the
        first time a trial needs them.
        """
        if "gens" not in self._cache:
            one, p, action = self.field.one(), self._p, self.action
            agens = self.algebra.generators()
            span = Span(self.field, self.dim)
            gens = []
            for idx in range(self.dim):
                if not span.contains({idx: one}):
                    gens.append(idx)
                    _close(span, [{idx: one}], action, p, agens)
            cyclic = {}
            for g in reversed(gens[:-1]):
                trial = [i for i in gens if i != g]
                total = Span(self.field, self.dim)
                for i in trial:
                    if i not in cyclic:
                        cyclic[i] = _close(Span(self.field, self.dim), [{i: one}],
                                           action, p, agens).rows()
                    for _, row in cyclic[i]:
                        total.add(row)
                if total.dim() == self.dim:
                    gens = trial
            self._cache["gens"] = gens
        return self._cache["gens"]

    def dims_by_degree(self):
        out = {}
        for d in self.degree:
            out[d] = out.get(d, 0) + 1
        return out

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GradedModule) and self.algebra == other.algebra
            and self.side == other.side and self.labels == other.labels
            and self.degree == other.degree and self.action == other.action)

    def __repr__(self):
        return f"GradedModule(side={self.side}, dim={self.dim})"


class GradedBimodule:
    """Bimodule over (left_algebra, right_algebra) with homogeneous basis.

    left_action[i][j] expands e_j * m_i (e_j in left_algebra);
    right_action[i][j] expands m_i * e_j (e_j in right_algebra).
    Both algebras must be graded by the same group.
    """

    def __init__(self, left_algebra, right_algebra, labels, degree,
                 left_action, right_action):
        if left_algebra.group != right_algebra.group:
            raise AlgebraError("bimodule requires a common grading group")
        if left_algebra.field != right_algebra.field:
            raise AlgebraError("bimodule requires a common field")
        labels = [str(s) for s in labels]
        dim = len(labels)
        degree = [left_algebra.group.reduce(d) for d in degree]
        if len(left_action) != dim or any(len(r) != left_algebra.dim for r in left_action):
            raise AlgebraError("left action shape mismatch")
        if (len(right_action) != dim
                or any(len(r) != right_algebra.dim for r in right_action)):
            raise AlgebraError("right action shape mismatch")
        p = _modulus(left_algebra.field)
        self._hold(left_algebra, right_algebra, labels, degree,
                   _clean_table(p, left_action, dim), _clean_table(p, right_action, dim))

    @classmethod
    def _trusted(cls, left_algebra, right_algebra, labels, degree,
                 left_action, right_action):
        """The bimodule holding the given lists as they are; see
        GradedAlgebra._trusted."""
        B = cls.__new__(cls)
        B._hold(left_algebra, right_algebra, labels, degree, left_action, right_action)
        return B

    def _hold(self, left_algebra, right_algebra, labels, degree,
              left_action, right_action):
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.field = left_algebra.field
        self.group = left_algebra.group
        self.labels = labels
        self.dim = len(labels)
        self.degree = degree
        self.left_action = left_action
        self.right_action = right_action
        self._left = GradedModule._trusted(left_algebra, "left", labels, degree, left_action)
        self._right = GradedModule._trusted(right_algebra, "right", labels, degree,
                                            right_action)
        self._cache = {}

    def as_left_module(self):
        """The underlying left module over left_algebra: one object, so what
        is cached on it (cover, resolver, projectivity) serves every caller."""
        return self._left

    def as_right_module(self):
        """The underlying right module over right_algebra, one object too."""
        return self._right

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GradedBimodule)
            and self.left_algebra == other.left_algebra
            and self.right_algebra == other.right_algebra
            and self.labels == other.labels and self.degree == other.degree
            and self.left_action == other.left_action
            and self.right_action == other.right_action)

    def __repr__(self):
        return f"GradedBimodule(dim={self.dim})"


class ModuleHom:
    """Linear map between modules as sparse columns: cols[i] is the image
    of source basis vector i, a cell {index: coeff} over the target basis.

    matrix is the dense target x source Matrix, rendered on first read and
    kept, for the resolution report, the JSON edge and the tests."""

    def __init__(self, source, target, cols):
        if len(cols) != source.dim:
            raise AlgebraError(f"hom has {len(cols)} columns, not {source.dim}")
        self.source = source
        self.target = target
        self.cols = cols
        self._matrix = None

    @property
    def matrix(self):
        if self._matrix is None:
            self._matrix = render_columns(self.source.field, self.cols, self.target.dim)
        return self._matrix

    def __repr__(self):
        return f"ModuleHom({self.source.dim} -> {self.target.dim})"


# -- axiom checks ----------------------------------------------------------


def check_algebra_axioms(A: GradedAlgebra) -> AxiomReport:
    group, p, mult = A.group, A._p, A.mult
    out = []
    zero_deg = group.zero()
    unit = _nonzero(p, enumerate(A.unit))
    for i in unit:
        if A.degree[i] != zero_deg:
            out.append(Violation("unit-not-degree-zero", (i,)))
    # unit laws
    for i in range(A.dim):
        e = {i: A.field.one()}
        if _act_sparse(mult, p, unit, i) != e:
            out.append(Violation("left-unit", (i,)))
        if _act_by(mult, p, i, unit) != e:
            out.append(Violation("right-unit", (i,)))
    # grading of products
    for i in range(A.dim):
        di = A.degree[i]
        for j in range(A.dim):
            target = group.add(di, A.degree[j])
            for k in mult[i][j]:
                if A.degree[k] != target:
                    out.append(Violation("product-grading", (i, j, k)))
    # associativity, (e_i e_j) e_l = e_i (e_j e_l); a triple where both
    # association orders are empty holds, so l runs only where one of
    # them can be nonzero
    support = [_support(row) for row in mult]
    for i in range(A.dim):
        for j in range(A.dim):
            mij = mult[i][j]
            for l in _reach(support, mij, support[j]):
                if _act_sparse(mult, p, mij, l) != _act_by(mult, p, i, mult[j][l]):
                    out.append(Violation("associativity", (i, j, l)))
    return AxiomReport(out)


def check_module_axioms(M: GradedModule) -> AxiomReport:
    A = M.algebra
    group, p, action = A.group, M._p, M.action
    out = []
    unit = _nonzero(p, enumerate(A.unit))
    for i in range(M.dim):
        if _act_by(action, p, i, unit) != {i: M.field.one()}:
            out.append(Violation("unit-action", (i,)))
    for i in range(M.dim):
        di = M.degree[i]
        for j in range(A.dim):
            target = group.add(di, A.degree[j])
            for k in action[i][j]:
                if M.degree[k] != target:
                    out.append(Violation("action-grading", (i, j, k)))
    # compatibility with multiplication, (m e_j) e_l = m (e_j e_l); a left
    # module is checked as a right module over the transposed product,
    # whose case (l, j) is e_j (e_l m) = (e_j e_l) m.  A triple where both
    # sides are empty holds, so l runs only where one of them can be nonzero
    right = M.side == "right"
    support = [_support(row) for row in A.mult]
    steps = [_support(row) for row in action]
    for i in range(M.dim):
        for j in range(A.dim):
            ls = (_reach(steps, action[i][j], support[j]) if right
                  else sorted({*steps[i], *support[j]}))
            for l in ls:
                first, then = (j, l) if right else (l, j)
                if (_act_sparse(action, p, action[i][first], then)
                        != _act_by(action, p, i, A.mult[j][l])):
                    out.append(Violation("action-associativity", (i, j, l)))
    return AxiomReport(out)


def check_bimodule_axioms(B: GradedBimodule) -> AxiomReport:
    out = []
    for side, M in (("left-", B.as_left_module()), ("right-", B.as_right_module())):
        out.extend(Violation(side + v.kind, v.where, v.detail)
                   for v in check_module_axioms(M).violations)
    # (e_j m) e_l = e_j (m e_l), where one of the two sides can be nonzero
    p = _modulus(B.field)
    support = [_support(row) for row in B.right_action]
    for i in range(B.dim):
        for j in range(B.left_algebra.dim):
            lm = B.left_action[i][j]
            for l in _reach(support, lm, support[i]):
                if (_act_sparse(B.right_action, p, lm, l)
                        != _act_sparse(B.left_action, p, B.right_action[i][l], j)):
                    out.append(Violation("bimodule-compatibility", (i, j, l)))
    return AxiomReport(out)


def check_axioms(obj) -> AxiomReport:
    """The axiom report of an algebra, a one-sided module or a bimodule."""
    if isinstance(obj, GradedAlgebra):
        return check_algebra_axioms(obj)
    if isinstance(obj, GradedBimodule):
        return check_bimodule_axioms(obj)
    if isinstance(obj, GradedModule):
        return check_module_axioms(obj)
    raise TypeError(f"no axioms for {type(obj).__name__}")


# -- basic constructions on modules ---------------------------------------


def _transposed(table):
    """The table with its two indices swapped; the cells are shared."""
    return [list(col) for col in zip(*table)]


def _place(out, r0, c0, table, shift=0, swap=False):
    """Write table (transposed when swap) into out as the block whose top
    left cell is out[r0][c0], with the keys of each cell raised by shift.
    Unshifted cells are shared."""
    for r, row in enumerate(zip(*table) if swap else table, r0):
        dst = out[r]
        for c, cell in enumerate(row, c0):
            dst[c] = {k + shift: x for k, x in cell.items()} if shift else cell


def _cut(table, rows, cols, pos):
    """The block of table at the given row and column indices, with the
    keys of each cell renamed through pos; KeyError on a key outside pos."""
    return [[{pos[k]: x for k, x in table[r][c].items()} for c in cols] for r in rows]


def regular_module(A: GradedAlgebra, side) -> GradedModule:
    action = A.mult if side == "right" else _transposed(A.mult)
    return GradedModule._trusted(A, side, A.labels, A.degree, action)


def regular_bimodule(A: GradedAlgebra) -> GradedBimodule:
    return GradedBimodule._trusted(A, A, A.labels, A.degree, _transposed(A.mult), A.mult)


def zero_module(A: GradedAlgebra, side) -> GradedModule:
    return GradedModule._trusted(A, side, [], [], [])


def twist(M: GradedModule, gamma) -> GradedModule:
    """Degree shift: the component of the twist at g is the component at
    gamma + g of M, so basis degrees drop by gamma."""
    g = M.algebra.group.reduce(gamma)
    degs = [M.algebra.group.sub(d, g) for d in M.degree]
    return GradedModule._trusted(M.algebra, M.side, M.labels, degs, M.action)


def opposite(A: GradedAlgebra) -> GradedAlgebra:
    """Opposite algebra: products reversed, degrees negated."""
    degs = [A.group.neg(d) for d in A.degree]
    return GradedAlgebra._trusted(A.field, A.group, A.labels, degs, A.unit,
                                  _transposed(A.mult))


def dual(M: GradedModule) -> GradedModule:
    """Linear dual with the side swapped and degrees negated.

    For a right module the dual carries the left action
    (e_j f)(m) = f(m e_j), so a dual basis vector sits in degree -d when
    the original basis vector sits in degree d.  A left module over A is
    the same data as a right module over opposite(A); the side-swapped
    presentation keeps the grading of the action strict.
    """
    A = M.algebra
    dim = M.dim
    new_side = "left" if M.side == "right" else "right"
    action = [[{} for _ in range(A.dim)] for _ in range(dim)]
    for k in range(dim):
        for j in range(A.dim):
            for i, c in M.action[k][j].items():
                action[i][j][k] = c
    degs = [A.group.neg(d) for d in M.degree]
    labels = [s + "*" for s in M.labels]
    return GradedModule._trusted(A, new_side, labels, degs, action)


def direct_sum(mods):
    """Direct sum of modules over a common algebra and side."""
    mods = list(mods)
    if not mods:
        raise AlgebraError("direct sum needs at least one summand")
    A = mods[0].algebra
    side = mods[0].side
    for m in mods:
        if m.algebra != A or m.side != side:
            raise AlgebraError("direct sum requires equal algebra and side")
    labels, degree, offsets = [], [], []
    for t, m in enumerate(mods):
        offsets.append(len(labels))
        labels.extend(f"{s}#{t}" for s in m.labels)
        degree.extend(m.degree)
    action = [[None] * A.dim for _ in labels]
    for off, m in zip(offsets, mods):
        _place(action, off, 0, m.action, off)
    return GradedModule._trusted(A, side, labels, degree, action), offsets


def vector_degree(group, degree_list, vec, field):
    """Degree of a homogeneous vector, or None if mixed or zero."""
    deg = None
    for i, c in enumerate(vec):
        if field.is_zero(c):
            continue
        if deg is None:
            deg = degree_list[i]
        elif degree_list[i] != deg:
            return None
    return deg


def _closure_span(M: GradedModule, vectors) -> Span:
    """Span of the submodule generated by the given vectors, dense (lists)
    or sparse ({index: coeff} dicts) as Span takes them."""
    queue = [_nonzero(M._p, v.items() if isinstance(v, dict) else enumerate(v))
             for v in vectors]
    return _close(Span(M.field, M.dim), queue, M.action, M._p, M.algebra.generators())


def quotient_module(M: GradedModule, vectors, label="q"):
    """Quotient of M by the submodule generated by the given vectors.

    Each generator must be homogeneous (for the trivially graded case every
    vector is).  Returns (Q, projection hom M -> Q).
    """
    span = _closure_span(M, vectors)
    for _, row in span.rows():
        if len({M.degree[k] for k in row}) != 1:
            raise AlgebraError("quotient by a non-homogeneous submodule")
    reduce, free = row_space_reducer(span)
    labels = [f"{label}{t}" for t in range(len(free))]
    degree = [M.degree[c] for c in free]
    # action on the class of coordinate c: act on e_c in M, then reduce
    action = [[reduce(cell) for cell in M.action[c]] for c in free]
    Q = GradedModule._trusted(M.algebra, M.side, labels, degree, action)
    one = M.field.one()
    return Q, ModuleHom(M, Q, [reduce({c: one}) for c in range(M.dim)])


def module_from_span(M: GradedModule, vectors, label="s"):
    """The submodule generated by the vectors, as an abstract module.

    Returns (S, inclusion hom S -> M).  vectors may also be a Span that
    holds a submodule already, such as the kernel of a module map; it is
    then taken as it is, without a closure.  Basis vectors of S are the
    reduced rows of the span; as they have unit pivots and zeros at the
    other pivots, a vector of S has its entries at the pivot columns as
    coordinates.  The rows are unique to the subspace, so any span of the
    same submodule gives the same S.
    """
    span = vectors if isinstance(vectors, Span) else _closure_span(M, vectors)
    rows = span.rows()
    pos = {c: t for t, (c, _) in enumerate(rows)}
    degree = []
    for _, row in rows:
        degs = {M.degree[k] for k in row}
        if len(degs) != 1:
            raise AlgebraError("span of non-homogeneous vectors")
        degree.append(degs.pop())
    action = [[{pos[c]: x for c, x in sorted(M.act_sparse(row, j).items()) if c in pos}
               for j in range(M.algebra.dim)] for _, row in rows]
    labels = [f"{label}{t}" for t in range(len(rows))]
    S = GradedModule._trusted(M.algebra, M.side, labels, degree, action)
    return S, ModuleHom(S, M, [row for _, row in rows])


def strongly_graded_check(A: GradedAlgebra):
    """Check R_g R_h = R_{g+h} as spans, for every pair of group elements.

    Returns (ok, failures) where failures lists pairs (g, h) with a strict
    inclusion.  The product span is always contained in the target
    component by gradedness, so only dimensions need comparing.
    """
    failures = []
    els = A.group.elements()
    for g in els:
        gi = A.component_indices(g)
        for h in els:
            hi = A.component_indices(h)
            target = A.component_indices(A.group.add(g, h))
            span = Span(A.field, A.dim)
            for i in gi:
                for j in hi:
                    span.add(A.mult[i][j])
            if span.dim() != len(target):
                failures.append((g, h))
    return (not failures), failures


def degree_zero_subalgebra(A: GradedAlgebra) -> GradedAlgebra:
    """The degree-zero component as a trivially graded algebra, built once
    per algebra and cached on it."""
    if "deg0" in A._cache:
        return A._cache["deg0"]
    idx = A.component_indices(A.group.zero())
    if not idx:
        raise AlgebraError("degree-zero component is zero; not an algebra")
    pos = {i: t for t, i in enumerate(idx)}
    labels = [A.labels[i] for i in idx]
    unit = [A.unit[i] for i in idx]
    degs = [() for _ in idx]
    A0 = A._cache["deg0"] = GradedAlgebra._trusted(A.field, TRIVIAL_GROUP, labels, degs,
                                                   unit, _cut(A.mult, idx, idx, pos))
    return A0


def component_bimodule(A: GradedAlgebra, gamma):
    """The degree-gamma component of A as a bimodule over
    degree_zero_subalgebra(A), built once per algebra and degree and
    cached on A."""
    key = ("component", A.group.reduce(gamma))
    if key in A._cache:
        return A._cache[key]
    A0 = degree_zero_subalgebra(A)
    zidx = A.component_indices(A.group.zero())
    cidx = A.component_indices(gamma)
    pos = {i: t for t, i in enumerate(cidx)}
    labels = [A.labels[i] for i in cidx]
    degs = [() for _ in cidx]
    W = A._cache[key] = GradedBimodule._trusted(A0, A0, labels, degs,
                                                _transposed(_cut(A.mult, zidx, cidx, pos)),
                                                _cut(A.mult, cidx, zidx, pos))
    return W


def trivially_graded(A: GradedAlgebra) -> GradedAlgebra:
    """Forget the grading (same constants over the trivial group)."""
    degs = [() for _ in range(A.dim)]
    return GradedAlgebra._trusted(A.field, TRIVIAL_GROUP, A.labels, degs, A.unit, A.mult)
