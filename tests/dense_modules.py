"""Dense module arithmetic shared by the tests.

The library acts on sparse cells {index: coeff}.  These helpers spell the
same operations out on dense coefficient vectors, independently of it,
for tests that state facts on whole vectors: a matrix or hom applied to
a vector, a product in an algebra, an action on a module, and the check
that a hom is a module map.
"""


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
