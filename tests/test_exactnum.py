from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from isodecomp.exactnum import (
    Matrix,
    determinant,
    inverse,
    kernel_basis,
    rank,
    rat,
    rref_rank,
    solve,
    to_decimal_str,
)

rationals = st.builds(F, st.integers(-30, 30), st.integers(1, 7))


def matrices(max_n=4):
    return st.integers(1, max_n).flatmap(
        lambda r: st.integers(1, max_n).flatmap(
            lambda c: st.lists(st.lists(rationals, min_size=c, max_size=c),
                               min_size=r, max_size=r)))


def test_rref_identity():
    m = Matrix.identity(3)
    reduced, rank, pivots = rref_rank(m)
    assert rank == 3
    assert pivots == (0, 1, 2)
    assert reduced.rows == m.rows


def test_rref_single_row_and_proportional_rows():
    assert rref_rank(Matrix.from_rows([[1, 1, 1]]))[1] == 1
    assert rref_rank(Matrix.from_rows([[1, 2], [2, 4]]))[1] == 1


def test_kernel_examples():
    assert len(kernel_basis(Matrix.from_rows([[1, 1, 1]]))) == 2
    assert kernel_basis(Matrix.identity(2)) == []
    basis = kernel_basis(Matrix.from_rows([[1, -1, 0], [0, 1, -1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[1] == v[2] != 0


def test_determinant_examples():
    assert determinant(Matrix.identity(4)) == 1
    assert determinant(Matrix.from_rows([[1, 2], [3, 4]])) == -2
    cov = Matrix.from_rows([[F(1, 18), F(-1, 36)], [F(-1, 36), F(1, 18)]])
    assert determinant(cov) == F(1, 432)


def test_determinant_requires_square():
    with pytest.raises(ValueError):
        determinant(Matrix.from_rows([[1, 2, 3]]))


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(rows):
    m = Matrix.from_rows(rows)
    reduced, rank, pivots = rref_rank(m)
    again, rank2, pivots2 = rref_rank(reduced)
    assert again.rows == reduced.rows
    assert (rank, pivots) == (rank2, pivots2)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(rows):
    m = Matrix.from_rows(rows)
    basis = kernel_basis(m)
    assert len(basis) == m.ncols - rref_rank(m)[1]
    for v in basis:
        assert all(x == 0 for x in m.matvec(v))


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@settings(max_examples=60, deadline=None)
def test_determinant_zero_iff_rank_deficient(rows):
    m = Matrix.from_rows(rows)
    assert (determinant(m) == 0) == (rref_rank(m)[1] < m.nrows)


def test_inverse_and_solve():
    m = Matrix.from_rows([[2, 1], [1, 1]])
    inv = inverse(m)
    assert m.matmul(inv).rows == Matrix.identity(2).rows
    assert solve(m, (F(3), F(2))) == (F(1), F(1))
    assert solve(Matrix.from_rows([[1, 1], [1, 1]]), (0, 1)) is None


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)
    assert rat("3/4") == F(3, 4)


def test_decimal_rendering():
    assert to_decimal_str(F(1, 108), 12).startswith("0.0092592592")



# ---------------------------------------------------------------------------
# the integer elimination against the Fraction Gauss-Jordan it replaced

wide = st.builds(F, st.integers(-2 ** 64, 2 ** 64), st.integers(2 ** 63, 2 ** 64))
entries = st.one_of(st.just(F(0)), rationals, wide)


@st.composite
def low_rank_matrices(draw, square=False):
    """r x c products of an r x k and a k x c matrix (rank at most k; k = 0
    gives the zero matrix), with up to two zero rows inserted: zero rows,
    more rows than columns, rank 0 and ~64-bit mixed denominators."""
    c = draw(st.integers(1, 5))
    r = c if square else draw(st.integers(0, 6))
    zeros = 0 if square else draw(st.integers(0, min(2, r)))
    k = draw(st.integers(0, min(r - zeros, c)))
    left = [[draw(entries) for _ in range(k)] for _ in range(r - zeros)]
    right = [[draw(entries) for _ in range(c)] for _ in range(k)]
    rows = [[sum((a * b[j] for a, b in zip(row, right)), F(0)) for j in range(c)]
            for row in left]
    for _ in range(zeros):
        rows.insert(draw(st.integers(0, len(rows))), [F(0)] * c)
    return Matrix.from_rows(rows, c)


@given(low_rank_matrices())
@settings(max_examples=80, deadline=None)
def test_rref_rank_and_kernel_match_fraction_oracle(m):
    expected = support.rref_rank_by_fractions(m)
    assert rref_rank(m) == expected
    assert rank(m.rows) == expected[1]
    assert kernel_basis(m) == support.kernel_basis_by_fractions(m)


@given(low_rank_matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_matches_fraction_oracle(m, data):
    x = [data.draw(entries) for _ in range(m.ncols)]
    for b in (m.matvec(x), [data.draw(entries) for _ in range(m.nrows)]):
        assert solve(m, b) == support.solve_by_fractions(m, b)


@given(low_rank_matrices(square=True))
@settings(max_examples=80, deadline=None)
def test_inverse_matches_fraction_oracle(m):
    try:
        expected = support.inverse_by_fractions(m)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            inverse(m)
        return
    assert inverse(m) == expected


def test_rank_of_integer_rows():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[2, 4], [1, 2], [0, 3]]) == 2
    assert rank([[1, F(1, 2)], [2, 1]]) == 1
