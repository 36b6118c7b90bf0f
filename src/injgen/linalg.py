"""Exact linear algebra over a coefficient field, on one sparse engine.

Vectors and linear maps are sparse: a vector is a dict {index: value} of
its nonzero entries, a row of a system is such a dict over the unknowns,
and a linear map is the list of its columns, column i the image of basis
vector i.  rank(field, rows), kernel_basis(field, rows, ncols),
right_inverse(field, rows, ncols) and solve_sparse(field, rows, rhs,
ncols) take sparse rows (zero and unreduced entries allowed); kernels
and right inverses come back as sparse columns.  Span grows a subspace
one vector at a time, and row_space_reducer maps sparse vectors to their
classes modulo a Span.  All of them run on one echelon engine: pivots
are the first nonzero columns, forward reduction runs in increasing
pivot order, then back-substitution clears the pivot columns.  Over F_p
the reduction mod p is inlined, over Q the entries are Fractions.  The
reduced row echelon form is unique, so no result depends on the order
of the work.  Functions never mutate inputs.

Matrix is the dense row-major form of a map, for what is read from
outside: render_columns draws it from sparse columns once, for the JSON
params of a construction, a resolution report and the tests.  rref,
solve_linear, Matrix.mul and Span.coordinates take or give the dense
form and have no caller in the library.
"""

from __future__ import annotations


class Matrix:
    """Row-major dense matrix over a field object from injgen.field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if ncols is not None and ncols != self.ncols:
                raise ValueError(f"rows have {self.ncols} columns, not {ncols}")
        else:
            self.ncols = 0 if ncols is None else ncols
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        F = self.field
        z = F.zero()
        out = []
        orows = other.rows
        for row in self.rows:
            acc = [z] * other.ncols
            for k, a in enumerate(row):
                if F.is_zero(a):
                    continue
                orow = orows[k]
                for j, b in enumerate(orow):
                    if not F.is_zero(b):
                        acc[j] = F.add(acc[j], F.mul(a, b))
            out.append(acc)
        return Matrix(F, out, other.ncols)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"


# -- the sparse echelon engine: a row is a dict {column: value} of nonzero
# entries, and p is the modulus over F_p, None over Q.


def _modulus(field):
    return field.p if field.kind == "fp" else None


def _nonzero(p, items):
    """Sparse row of the (column, value) pairs whose value is nonzero."""
    if p:
        return {j: a % p for j, a in items if a % p}
    return {j: a for j, a in items if a}


def _sparse(mat):
    p = _modulus(mat.field)
    return [_nonzero(p, enumerate(row)) for row in mat.rows]


def _dense(field, row, ncols):
    out = [field.zero()] * ncols
    for j, a in row.items():
        out[j] = a
    return out


def render_columns(field, cols, nrows):
    """The dense nrows x len(cols) Matrix whose column s is the sparse
    vector cols[s]."""
    rows = [[field.zero()] * len(cols) for _ in range(nrows)]
    for s, col in enumerate(cols):
        for k, a in col.items():
            rows[k][s] = a
    return Matrix(field, rows, len(cols))


def _sub_multiple(row, f, prow, p):
    """row -= f * prow in place.  f and the entries of prow are nonzero, so
    a column missing from row never cancels."""
    for j, a in prow.items():
        v = (row.get(j, 0) - f * a) % p if p else row.get(j, 0) - f * a
        if v:
            row[j] = v
        else:
            del row[j]


def _unit(field, p, row, c):
    """row scaled to have entry one at column c."""
    if row[c] == 1:
        return row
    inv = field.inv(row[c])
    return {j: x * inv % p for j, x in row.items()} if p else {j: x * inv for j, x in row.items()}


def _clear(row, reduced, p):
    """Clear row at the pivots of reduced ({pivot: row}, each row zero at
    the other pivots); returns row."""
    for c in [c for c in row if c in reduced]:
        _sub_multiple(row, row[c], reduced[c], p)
    return row


def _echelon(field, rows, back=True):
    """Echelon form of sparse rows as {pivot column: row with unit pivot},
    reduced (zero at the other pivots) when back is true.  The rows may
    hold zero and unreduced entries; each is cleaned as it is copied."""
    p = _modulus(field)
    piv = {}
    for row in rows:
        row = _nonzero(p, row.items())
        while row:
            c = min(row)
            if c not in piv:
                piv[c] = _unit(field, p, row, c)
                break
            _sub_multiple(row, row[c], piv[c], p)
    if not back:
        return piv
    reduced = {}
    for c in sorted(piv, reverse=True):
        reduced[c] = _clear(piv[c], reduced, p)
    return reduced


def rref(mat: Matrix):
    """Reduced row echelon form.

    Returns (R, pivots) where pivots lists the pivot column of each nonzero
    row; R keeps the shape of mat, its zero rows last.
    """
    F = mat.field
    piv = _echelon(F, _sparse(mat))
    pivots = sorted(piv)
    rows = [_dense(F, piv[c], mat.ncols) for c in pivots]
    rows += [[F.zero()] * mat.ncols for _ in range(mat.nrows - len(pivots))]
    return Matrix(F, rows, mat.ncols), pivots


def rank(field, rows) -> int:
    """Rank of the sparse rows ({column: value} dicts, zeros allowed); the
    columns of a map have its rank too."""
    return len(_echelon(field, rows, back=False))


def kernel_basis(field, rows, ncols):
    """Basis of the kernel {x : sum_j rows[i][j] * x_j = 0 for every i}
    over range(ncols), as a list of sparse vectors.

    Row i is a dict {column: coefficient}, zeros allowed, as for
    solve_sparse.  Each basis vector has entry one at its free column and
    zeros at the other free columns, so coordinates w.r.t. this basis can
    be read off.
    """
    piv = _echelon(field, rows)
    basis = {fc: {fc: field.one()} for fc in range(ncols) if fc not in piv}
    for pc, row in piv.items():
        for j, a in row.items():
            if j != pc:
                basis[j][pc] = field.neg(a)
    return list(basis.values())


def right_inverse(field, rows, ncols):
    """The columns of one X with mat @ X = I, or None if mat is not onto;
    mat has the sparse rows over range(ncols).

    Rows of [mat | I] are reduced; X has the identity part of the row with
    pivot c as its row c, and zero rows at the free columns.
    """
    one = field.one()
    aug = [{**row, ncols + i: one} for i, row in enumerate(rows)]
    piv = _echelon(field, aug)
    if any(c >= ncols for c in piv):   # a pivot in I: some row combination vanishes
        return None
    cols = [{} for _ in aug]
    for c in sorted(piv):
        for j, a in piv[c].items():
            if j >= ncols:
                cols[j - ncols][c] = a
    return cols


def solve_sparse(field, rows, rhs, ncols):
    """One solution x of the system with sparse rows, or None if inconsistent.

    Row i is a dict {column: coefficient} (zeros allowed) and states
    sum_j rows[i][j] * x_j = rhs[i] over range(ncols).  Free variables are
    set to zero.
    """
    if len(rhs) != len(rows):
        raise ValueError("rhs length mismatch")
    p = _modulus(field)
    piv = _echelon(field, [{**row, ncols: b} for row, b in zip(rows, rhs)], back=False)
    if ncols in piv:
        return None
    x = [field.zero()] * ncols
    for c in sorted(piv, reverse=True):     # back-substitute values only
        v = piv[c].get(ncols, field.zero())
        for j, a in piv[c].items():
            if j != c and j != ncols:
                v -= a * x[j]
        x[c] = v % p if p else v
    return x


def solve_linear(mat: Matrix, rhs):
    """One solution x of mat @ x = rhs, or None if inconsistent."""
    return solve_sparse(mat.field, _sparse(mat), rhs, mat.ncols)


class Span:
    """Incrementally maintained subspace of k^n, rows kept in reduced form.

    Rows are stored sparse, with unit pivots and cleared pivot columns, so
    membership and coordinates are cheap.  Insertion order is not
    preserved; rows() returns the reduced rows sorted by pivot.  Vectors
    may be given dense (lists, cleaned here) or as clean sparse cells
    ({column: value} dicts of nonzero reduced entries, the form of the
    action tables), which are copied, not re-reduced.
    """

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self._p = _modulus(field)
        self._rows = {}   # pivot column -> reduced sparse row

    def _clean(self, v):
        if isinstance(v, dict):
            return dict(v)
        return _nonzero(self._p, enumerate(v))

    def _reduce(self, v):
        return _clear(self._clean(v), self._rows, self._p)

    def add(self, v) -> bool:
        """Insert v; returns True if the span grew."""
        row = self._reduce(v)
        if not row:
            return False
        c = min(row)
        row = _unit(self.field, self._p, row, c)
        for other in self._rows.values():
            if c in other:
                _sub_multiple(other, other[c], row, self._p)
        self._rows[c] = row
        return True

    def contains(self, v) -> bool:
        return not self._reduce(v)

    def dim(self):
        return len(self._rows)

    def rows(self):
        """(pivot, sparse reduced row) pairs sorted by pivot.  A vector v
        of the span is the sum of v[pivot] * row."""
        return [(c, self._rows[c]) for c in sorted(self._rows)]

    def coordinates(self, v):
        """Coordinates of v over rows(), or None if v is outside: the
        entries of v at the pivots."""
        row = self._clean(v)
        if _clear(dict(row), self._rows, self._p):
            return None
        z = self.field.zero()
        return [row.get(c, z) for c in sorted(self._rows)]


def row_space_reducer(span: Span):
    """Precompute reduction modulo a Span.

    Returns (reduce, free_cols) where reduce maps a sparse vector
    {column: value} over range(span.ncols) to its sparse coordinates
    {k: value} over the free columns (k indexing free_cols), after
    subtracting the unique span element matching v at the pivot columns.
    This is the workhorse for quotient spaces: the classes of the free
    coordinates form a basis of k^ncols / span.
    """
    p = span._p
    free = [c for c in range(span.ncols) if c not in span._rows]
    pos = {c: k for k, c in enumerate(free)}
    # off its pivot, a reduced row has entries at free columns only
    prows = {pc: [(pos[j], a) for j, a in row.items() if j != pc]
             for pc, row in span._rows.items()}

    def reduce(v):
        out = {}
        for c, f in v.items():
            if c in pos:
                k = pos[c]
                out[k] = out.get(k, 0) + f
            else:
                for k, a in prows[c]:
                    out[k] = out.get(k, 0) - f * a
        return _nonzero(p, out.items())

    return reduce, free
