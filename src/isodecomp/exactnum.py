"""Exact rational scalars, vectors and matrices.

Every decision in this package (ranks, signs, kernels, determinants,
polytope incidences) is made in exact rational arithmetic: over
`fractions.Fraction`, or over `int` once denominators have been cleared.
The integer layers are the linear algebra below (one fraction-free
Gauss-Jordan, `_eliminate`, behind `rank`, `rref_rank`, `kernel_basis`,
`solve` and `inverse`, and one Bareiss loop behind `determinant`), the
hull's supporting hyperplanes and the structure checks of a body
(`polytope`), the cone sums, the polynomial facet sums of
`boundary_moment`, the boundary weights and second-variation forms
(`moments`), the radial side checks and the kernel map (`variations`),
and the planar search's shoelace sums (`cli`).  `Fraction`s are built
only for the values these return.  Floating point exists only at the
reporting boundary, via ``float()`` and :func:`to_decimal_str`.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]


def rat(x) -> Fraction:
    """Coerce an int, string ("p/q" or "p") or Fraction to Fraction.

    Floats are refused: silent binary-to-rational conversion is how
    exactness is usually lost.  So are bools, which a JSON `true` would
    otherwise turn into 1.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, bool)):
        raise TypeError("refusing to coerce %s %r to an exact rational" % (type(x).__name__, x))
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


def _cleared(vectors: Iterable[Sequence]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, the vectors times d as int tuples) for d the lcm of every
    denominator in them: the vectors over one common denominator."""
    vectors = list(vectors)
    d = lcm(*(x.denominator for v in vectors for x in v))
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in v) for v in vectors)


def _int_rows(rows: Iterable[Sequence]) -> list[list[int]]:
    """Each row of ints or Fractions times the lcm of its denominators: a
    positive row scale, which keeps the row space and every rank."""
    out = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (d // x.denominator) for x in row])
    return out


def _eliminate(a: list[list[int]], ncols: int, back: bool = True) -> tuple[int, ...]:
    """Gauss-Jordan elimination of integer rows in place, without fractions.

    A row r is cleared against the pivot row p by ``(p_c r - r_c p) / g``
    with g = gcd(p_c, r_c), and then divided by the gcd of its entries, so
    every row stays a primitive integer vector and the row space never
    changes.  On return the first rank rows are the reduced row echelon
    form, each times its pivot entry, and the rest are zero.  With
    ``back=False`` only the rows below each pivot are cleared: enough for
    the rank and the pivot columns.
    """
    nrows = len(a)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        row = a[r]
        g = gcd(*row)
        if g != 1:
            row = a[r] = [x // g for x in row]
        p = row[c]
        for i in range(0 if back else r + 1, nrows):
            x = a[i][c]
            if i == r or not x:
                continue
            g = gcd(p, x)
            s, t = p // g, x // g
            new = [s * u - t * v for u, v in zip(a[i], row)]
            g = gcd(*new)
            a[i] = [u // g for u in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return tuple(pivots)


def rank(rows: Iterable[Sequence]) -> int:
    """Exact rank of rows of ints or Fractions, built from no Fraction."""
    a = _int_rows(rows)
    return len(_eliminate(a, len(a[0]) if a else 0, back=False))


def rref_rank(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form, rank and pivot columns, all exact.

    The elimination runs on integer rows (`_eliminate`); the reduced form
    is unique, so dividing each pivot row by its pivot entry gives it."""
    a = _int_rows(m.rows)
    pivots = _eliminate(a, m.ncols)
    zero = Fraction(0)
    rows = tuple(tuple(Fraction(x, row[c]) for x in row) for row, c in zip(a, pivots))
    rows += tuple((zero,) * m.ncols for _ in range(m.nrows - len(pivots)))
    return Matrix(rows, m.ncols), len(pivots), pivots


def kernel_basis(m: Matrix) -> list[Vec]:
    """Basis of {v : m v = 0}, one vector per free column of the RREF.

    The basis is canonical given the matrix: free coordinates are unit,
    pivot coordinates read off the reduced form.
    """
    a = _int_rows(m.rows)
    pivots = _eliminate(a, m.ncols)
    pivot_set = set(pivots)
    zero, one = Fraction(0), Fraction(1)
    basis: list[Vec] = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        v = [zero] * m.ncols
        v[free] = one
        for row, pc in zip(a, pivots):
            if row[free]:
                v[pc] = Fraction(-row[free], row[pc])
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
    n = m.ncols
    a = _int_rows([list(row) + [bi] for row, bi in zip(m.rows, b, strict=True)])
    pivots = _eliminate(a, n + 1)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row, pc in zip(a, pivots):
        x[pc] = Fraction(row[n], row[pc])
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    n = m.nrows
    if n != m.ncols:
        raise ValueError("inverse of a non-square matrix")
    a = _int_rows([list(row) + [1 if i == j else 0 for j in range(n)]
                   for i, row in enumerate(m.rows)])
    pivots = _eliminate(a, 2 * n)
    if pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("singular matrix")
    return Matrix(tuple(tuple(Fraction(x, row[i]) for x in row[n:])
                        for i, row in enumerate(a)), n)
