"""Exact rational scalars, vectors and matrices.

Every decision in this package (ranks, signs, kernels, determinants,
polytope incidences) is made in exact rational arithmetic: over
`fractions.Fraction`, or over `int` once a common denominator has been
cleared (the fraction-free determinant below, the hull's supporting
hyperplanes and the planar search's shoelace sums).  Floating point
exists only at the reporting boundary, via ``float()`` and
:func:`to_decimal_str`.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]


def rat(x) -> Fraction:
    """Coerce an int, string ("p/q" or "p") or Fraction to Fraction.

    Floats are refused: silent binary-to-rational conversion is how
    exactness is usually lost.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing to coerce float %r to an exact rational" % x)
    return Fraction(x)


def vec(xs: Iterable) -> Vec:
    return tuple(rat(x) for x in xs)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def vsub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def is_zero_vec(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def to_decimal_str(x: Fraction, digits: int = 17) -> str:
    """Exact rational rendered to `digits` significant decimal digits."""
    with localcontext() as ctx:
        ctx.prec = max(1, digits)
        return str(Decimal(x.numerator) / Decimal(x.denominator))


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of Fractions (row-major)."""

    rows: tuple[Vec, ...]
    ncols: int

    @staticmethod
    def from_rows(rows: Iterable[Iterable], ncols: int | None = None) -> "Matrix":
        rs = tuple(vec(r) for r in rows)
        if rs:
            width = len(rs[0])
            if any(len(r) != width for r in rs):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols does not match row length")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return Matrix(rs, ncols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return Matrix(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)), n)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix(tuple(() for _ in range(self.ncols)), 0)
        return Matrix(tuple(zip(*self.rows)), self.nrows)

    def matvec(self, v: Sequence[Fraction]) -> Vec:
        return tuple(dot(row, v) for row in self.rows)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows)) if other.rows else [() for _ in range(other.ncols)]
        return Matrix(
            tuple(tuple(dot(row, col) for col in cols) for row in self.rows), other.ncols
        )


def rref_rank(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form, rank and pivot columns, all exact."""
    rows = [list(r) for r in m.rows]
    nrows, ncols = len(rows), m.ncols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Matrix(tuple(tuple(row) for row in rows), ncols), len(pivots), tuple(pivots)


def kernel_basis(m: Matrix) -> list[Vec]:
    """Basis of {v : m v = 0}, one vector per free column of the RREF.

    The basis is canonical given the matrix: free coordinates are unit,
    pivot coordinates read off the reduced form.
    """
    reduced, _, pivots = rref_rank(m)
    ncols = m.ncols
    pivot_set = set(pivots)
    basis: list[Vec] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -reduced.rows[i][free]
        basis.append(tuple(v))
    return basis


def _bareiss(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination, in place: every intermediate value stays an integer
    (a minor of the input), which bounds coefficient growth."""
    n = len(rows)
    if n == 0:
        return 1
    a = rows
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def determinant(m: Matrix) -> Fraction:
    """Exact determinant: rows scaled to integers, then :func:`_bareiss`."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    scale = 1
    a: list[list[int]] = []
    for row in m.rows:
        denom_lcm = lcm(*(x.denominator for x in row))
        scale *= denom_lcm
        a.append([int(x * denom_lcm) for x in row])
    return Fraction(_bareiss(a), scale)


def solve(m: Matrix, b: Sequence[Fraction]) -> Vec | None:
    """One exact solution of m x = b, or None if inconsistent.

    Free coordinates are set to zero, so the result is deterministic.
    """
    aug = Matrix.from_rows([list(row) + [bi] for row, bi in zip(m.rows, b, strict=True)],
                           m.ncols + 1)
    reduced, _, pivots = rref_rank(aug)
    if m.ncols in pivots:
        return None
    x = [Fraction(0)] * m.ncols
    for i, pc in enumerate(pivots):
        x[pc] = reduced.rows[i][m.ncols]
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    n = m.nrows
    if n != m.ncols:
        raise ValueError("inverse of a non-square matrix")
    aug = Matrix.from_rows(
        [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(m.rows)],
        2 * n,
    )
    reduced, rk, pivots = rref_rank(aug)
    if rk < n or pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("singular matrix")
    return Matrix(tuple(row[n:] for row in reduced.rows), n)
