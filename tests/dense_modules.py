"""Dense module arithmetic shared by the tests.

The library acts on sparse cells {index: coeff} and holds linear maps as
lists of sparse columns.  These helpers spell the same operations out on
dense coefficient vectors and matrices, independently of it, for tests
that state facts on whole vectors: a matrix or hom applied to a vector,
a product in an algebra, an action on a module, and the check that a hom
is a module map.  They also convert between the dense forms the tests
write and the sparse ones the library takes: zero and identity matrices,
the matrix of an action, the columns and rows of a matrix, and pairing
tables against the pairing matrices whose column a * d2 + b holds the
pairing of basis vectors a and b.
"""

from injgen.linalg import Matrix


def zeros(F, nrows, ncols):
    return Matrix(F, [[F.zero()] * ncols for _ in range(nrows)], ncols)


def identity(F, n):
    m = zeros(F, n, n)
    for i in range(n):
        m.rows[i][i] = F.one()
    return m


def action_matrix(M, j):
    """The Matrix of the action of algebra basis element e_j on M."""
    m = zeros(M.field, M.dim, M.dim)
    for i in range(M.dim):
        for k, c in M.action[i][j].items():
            m.rows[k][i] = c
    return m


def columns(mat):
    """The columns of a dense Matrix as sparse cells."""
    F = mat.field
    return [{k: row[s] for k, row in enumerate(mat.rows) if not F.is_zero(row[s])}
            for s in range(mat.ncols)]


def sparse_rows(mat):
    """The rows of a dense Matrix as sparse cells."""
    F = mat.field
    return [{j: a for j, a in enumerate(row) if not F.is_zero(a)} for row in mat.rows]


def pairing_table(mat, d1, d2):
    """The d1 x d2 cell table of a dense pairing matrix."""
    cols = columns(mat)
    return [[cols[a * d2 + b] for b in range(d2)] for a in range(d1)]


def pairing_matrix(F, table, dim):
    """The dense dim x (d1 d2) pairing matrix of a d1 x d2 cell table."""
    cells = [cell for row in table for cell in row]
    m = zeros(F, dim, len(cells))
    for s, cell in enumerate(cells):
        for k, c in cell.items():
            m.rows[k][s] = c
    return m


def dense_apply(mat, vec):
    """The Matrix mat applied to the dense vector vec (indexed by columns)."""
    F = mat.field
    out = []
    for row in mat.rows:
        acc = F.zero()
        for a, x in zip(row, vec):
            acc = F.add(acc, F.mul(a, x))
        out.append(acc)
    return out


def _bilinear(table, F, dim, u, v):
    """The dense vector sum over i and j of u_i v_j table[i][j]."""
    out = [F.zero()] * dim
    for i, a in enumerate(u):
        if F.is_zero(a):
            continue
        for j, b in enumerate(v):
            if F.is_zero(b):
                continue
            ab = F.mul(a, b)
            for k, c in table[i][j].items():
                out[k] = F.add(out[k], F.mul(ab, c))
    return out


def dense_mul(A, u, v):
    """The product u v of dense vectors of the algebra A."""
    return _bilinear(A.mult, A.field, A.dim, u, v)


def dense_act(M, m, a):
    """The dense algebra vector a acting on the dense module vector m."""
    return _bilinear(M.action, M.field, M.dim, m, a)


def is_module_hom(h):
    """h commutes with the action of every algebra generator (exact)."""
    M, N = h.source, h.target
    A = M.algebra
    for i in range(M.dim):
        for j in A.generators():
            lhs = dense_apply(h.matrix, dense_act(M, M.basis_vec(i), A.basis_vec(j)))
            rhs = dense_act(N, dense_apply(h.matrix, M.basis_vec(i)), A.basis_vec(j))
            if lhs != rhs:
                return False
    return True
