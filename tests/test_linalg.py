import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_modules import dense_apply, identity
from injgen.field import QQ, PrimeField, field_from_spec, FieldError
from injgen.linalg import (Matrix, Span, _dense, _sparse, kernel_basis, rank,
                           render_columns, right_inverse, rref,
                           row_space_reducer, solve_linear, solve_sparse)


F5 = PrimeField(5)


def test_field_parsing():
    assert field_from_spec("fp:7").p == 7
    assert field_from_spec("q") is QQ
    with pytest.raises(FieldError):
        field_from_spec("fp:6")
    with pytest.raises(FieldError):
        field_from_spec("float")


def test_prime_field_ops():
    F = PrimeField(7)
    assert F.add(5, 4) == 2
    assert F.inv(3) == 5
    assert F.mul(3, F.inv(3)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_rational_encoding_round_trip():
    assert QQ.enc(Fraction(-3, 6)) == "-1/2"
    assert QQ.enc(Fraction(4)) == "4"
    assert QQ.dec("-1/2") == Fraction(-1, 2)
    assert QQ.dec(3) == Fraction(3)


def test_rref_known_rational():
    m = Matrix(QQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    R, pivots = rref(m)
    assert pivots == [0]
    assert R.rows == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]]


def test_kernel_known_rational():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    ker = kernel_basis(QQ, rows, 2)
    assert len(ker) == 1
    assert ker[0] == {0: Fraction(-2), 1: Fraction(1)}


def test_solve_known_f5():
    m = Matrix(F5, [[2]])
    assert solve_linear(m, [1]) == [3]


def test_solve_inconsistent():
    m = Matrix(QQ, [[Fraction(1)], [Fraction(1)]])
    assert solve_linear(m, [Fraction(0), Fraction(1)]) is None


def test_empty_shapes():
    m = Matrix(QQ, [], 3)
    assert rref(m)[1] == []
    assert len(kernel_basis(QQ, [], 3)) == 3
    n = Matrix(QQ, [[Fraction(1), Fraction(0)]], 2)
    assert solve_linear(n, [Fraction(2)]) == [Fraction(2), Fraction(0)]


def test_matrix_rows_must_match_declared_columns():
    assert Matrix(F5, [[1, 2]], 2).ncols == 2
    assert Matrix(F5, [[1, 2]]).ncols == 2
    for ncols in (0, 1, 3):
        with pytest.raises(ValueError, match="2 columns"):
            Matrix(F5, [[1, 2]], ncols)
    with pytest.raises(ValueError, match="ragged"):
        Matrix(F5, [[1, 2], [3]], 2)


def _random_matrix(field, rng, nrows, ncols):
    return Matrix(field, [[field.of_int(rng.randint(-4, 4)) for _ in range(ncols)]
                          for _ in range(nrows)], ncols)


@pytest.mark.parametrize("fieldspec", ["fp:5", "fp:101", "q"])
def test_randomized_invariants(fieldspec):
    field = field_from_spec(fieldspec)
    rng = random.Random(1234)
    for _ in range(40):
        nrows = rng.randint(0, 6)
        ncols = rng.randint(0, 6)
        m = _random_matrix(field, rng, nrows, ncols)
        R, pivots = rref(m)
        # rref is idempotent and rank-stable
        R2, pivots2 = rref(R)
        assert R2.rows == R.rows and pivots2 == pivots
        ker = kernel_basis(field, _sparse(m), ncols)
        assert len(ker) + len(pivots) == ncols
        for v in ker:
            assert all(field.is_zero(x) for x in dense_apply(m, _dense(field, v, ncols)))
        # a random rhs in the column space must be solvable, and the
        # solution must reproduce it
        coeffs = [field.of_int(rng.randint(-3, 3)) for _ in range(ncols)]
        rhs = dense_apply(m, coeffs)
        x = solve_linear(m, rhs)
        assert x is not None
        assert dense_apply(m, x) == rhs
        transpose = Matrix(field, [[r[j] for r in m.rows] for j in range(ncols)], nrows)
        assert rank(field, _sparse(m)) == rank(field, _sparse(transpose)) == len(pivots)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_rref_row_space_f7(rows):
    # row space is preserved: every original row reduces to zero against
    # the rref rows, and vice versa
    F = PrimeField(7)
    m = Matrix(F, [[F.of_int(x) for x in r] for r in rows])
    R, pivots = rref(m)
    sp = Span(F, 3)
    for i in range(len(pivots)):
        sp.add(R.rows[i])
    for r in m.rows:
        assert sp.contains(r)
    sp2 = Span(F, 3)
    for r in m.rows:
        sp2.add(r)
    assert sp2.dim() == len(pivots)


def test_span_coordinates():
    sp = Span(QQ, 3)
    sp.add([Fraction(1), Fraction(1), Fraction(0)])
    sp.add([Fraction(0), Fraction(2), Fraction(2)])
    v = [Fraction(3), Fraction(5), Fraction(2)]
    coords = sp.coordinates(v)
    assert coords is not None
    basis = [_dense(QQ, row, 3) for _, row in sp.rows()]
    acc = [Fraction(0)] * 3
    for c, b in zip(coords, basis):
        acc = [a + c * x for a, x in zip(acc, b)]
    assert acc == v
    assert sp.coordinates([Fraction(0), Fraction(0), Fraction(1)]) is None
    # sparse input, and coordinates read as reduced residues
    fp = Span(F5, 3)
    fp.add([1, 0, 0])
    fp.add([0, 1, 0])
    assert fp.coordinates({0: 1}) == [1, 0]
    assert fp.coordinates([6, 0, 0]) == [1, 0]
    assert fp.coordinates({2: 3}) is None


# -- the sparse engine against a dense reference -------------------------------


def dense_rref(F, rows, ncols):
    """Reference Gauss-Jordan elimination on dense rows, first-nonzero
    pivoting, one field-method call per entry.  Returns (rows, pivots)."""
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
    return rows, pivots


def _sparse_matrix(field, rng, nrows, ncols, density):
    def entry():
        if rng.random() >= density:
            return field.zero()
        if field.kind == "q":
            return Fraction(rng.choice([-9, -3, -2, -1, 1, 2, 5, 7]), rng.randint(1, 4))
        return rng.randrange(1, field.p)
    return Matrix(field, [[entry() for _ in range(ncols)] for _ in range(nrows)], ncols)


def _check_against_reference(m, rng):
    F, n = m.field, m.ncols
    ref, ref_piv = dense_rref(F, m.rows, n)
    R, pivots = rref(m)
    assert pivots == ref_piv and R.rows == ref
    # rows with zero entries, as the sparse entry points take them
    sparse_rows = [{j: a for j, a in enumerate(r)} for r in m.rows]
    assert rank(F, sparse_rows) == len(ref_piv)
    free = [c for c in range(n) if c not in ref_piv]
    ker = []
    for fc in free:
        v = [F.zero()] * n
        v[fc] = F.one()
        for i, pc in enumerate(ref_piv):
            v[pc] = F.neg(ref[i][fc])
        ker.append(v)
    assert [_dense(F, v, n) for v in kernel_basis(F, sparse_rows, n)] == ker
    # one consistent and one arbitrary right-hand side
    coeffs = [F.of_int(rng.randint(-3, 3)) for _ in range(n)]
    for rhs in (dense_apply(m, coeffs),
                [F.of_int(rng.randint(-3, 3)) for _ in range(m.nrows)]):
        aug, aug_piv = dense_rref(F, [r + [b] for r, b in zip(m.rows, rhs)], n + 1)
        want = None
        if n not in aug_piv:
            want = [F.zero()] * n
            for i, pc in enumerate(aug_piv):
                want[pc] = aug[i][n]
        assert solve_linear(m, rhs) == want
        assert solve_sparse(F, sparse_rows, rhs, n) == want
    if m.nrows == n:
        ident = identity(F, n).rows
        aug, aug_piv = dense_rref(F, [r + e for r, e in zip(m.rows, ident)], 2 * n)
        inv = right_inverse(F, sparse_rows, n)
        if aug_piv[:n] == list(range(n)):
            assert render_columns(F, inv, n).rows == [row[n:] for row in aug[:n]]
        else:
            assert inv is None
    rinv = right_inverse(F, sparse_rows, n)
    if len(ref_piv) == m.nrows:
        assert len(rinv) == m.nrows
        assert m.mul(render_columns(F, rinv, n)) == identity(F, m.nrows)
    else:
        assert rinv is None
    sp = Span(F, n)
    for row in m.rows:
        sp.add(row)
    assert sp.dim() == len(ref_piv)
    assert [_dense(F, r, n) for _, r in sp.rows()] == ref[:len(ref_piv)]
    # sparse input gives the same span
    sparse_sp = Span(F, n)
    for row in m.rows:
        sparse_sp.add({j: a for j, a in enumerate(row) if not F.is_zero(a)})
    assert sparse_sp.rows() == sp.rows()
    assert [(c, {j: a for j, a in enumerate(r) if not F.is_zero(a)})
            for c, r in zip(ref_piv, ref)] == sp.rows()
    combo = [F.zero()] * n
    for row in m.rows:
        f = F.of_int(rng.randint(-2, 2))
        combo = [F.add(a, F.mul(f, b)) for a, b in zip(combo, row)]
    assert sp.coordinates(combo) == [combo[pc] for pc in ref_piv]
    reduce, got_free = row_space_reducer(sp)
    assert got_free == free
    v = [F.of_int(rng.randint(-4, 4)) for _ in range(n)]
    red = list(v)
    for i, pc in enumerate(ref_piv):
        red = [F.sub(a, F.mul(v[pc], b)) for a, b in zip(red, ref[i])]
    assert reduce({j: a for j, a in enumerate(v) if not F.is_zero(a)}) == {
        k: red[c] for k, c in enumerate(free) if not F.is_zero(red[c])}
    assert (sp.coordinates(v) is None) == any(not F.is_zero(red[c]) for c in free)


FIELDS = {"fp:2": PrimeField(2), "fp:5": F5, "fp:101": PrimeField(101), "q": QQ}


@settings(max_examples=120, deadline=None)
@given(field=st.sampled_from(sorted(FIELDS)),
       shape=st.sampled_from(["square", "wide", "tall"]),
       size=st.integers(0, 12),
       density=st.sampled_from([0.01, 0.05, 0.2, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 32))
def test_engine_matches_dense_reference(field, shape, size, density, seed):
    rng = random.Random(seed)
    nrows, ncols = {"square": (size, size), "wide": (size, 2 * size + 1),
                    "tall": (2 * size + 1, size)}[shape]
    _check_against_reference(_sparse_matrix(FIELDS[field], rng, nrows, ncols, density), rng)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("shape,density", [((300, 60), 0.01), ((80, 50), 0.05),
                                           ((24, 60), 0.3), ((20, 20), 1.0)])
def test_engine_matches_dense_reference_on_larger_shapes(field, shape, density):
    rng = random.Random(f"{field} {shape} {density}")
    m = _sparse_matrix(FIELDS[field], rng, shape[0], shape[1], density)
    _check_against_reference(m, rng)
