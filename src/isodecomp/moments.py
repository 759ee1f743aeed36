"""Exact integration over polytopes and their facets.

Every integral is a sum over simplices whose vertices are vertices of the
polytope, plus the origin for body moments.  The Dirichlet moment of the
uniform measure on a d-simplex, E[lam^beta] = d! beta! / (d+|beta|)! in
barycentric coordinates, summed over vertex tuples gives the mean of a
product of affine factors l_1, ..., l_k over the simplex with vertices
w_0, ..., w_d:

    d!/(d+k)! * sum over set partitions pi of {1..k} of
        prod_{B in pi} (|B|-1)! * sum_v prod_{t in B} l_t(w_v),

so a factor enters only through its values at the vertices.  Facets are
triangulated into (n-1)-simplices by pulling on P's own vertex-facet
incidences: each face is coned from its smallest vertex index over the
faces one dimension down that miss it.  Every integral here is a sum
over any triangulation of the facet, so the choice of apex changes no
value.  A simplex inside the hyperplane <a, x> = b has

    vol_{n-1}(S) = |det[w_1-w_0, ..., w_{n-1}-w_0, a]| / ((n-1)! * |a|),

so every facet integral is (rational) / |a|, a single radical per facet.
The distance-weighted integral (b/|a|) * integral_F, the quantity every
boundary-variation formula here consumes, is exactly rational.

Body moments are cone sums from the origin over the facet simplices
(`cone_moments`), signed by b wherever the origin lies.  Euler's identity
(x h(x) has divergence (n+k) h for h homogeneous of degree k),

    integral_P h dx = sum_F (b/|a|) integral_F h dsigma / (n+k),

ties them to the facet sums of `boundary_moment`: the tests' cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Iterable, Mapping, Sequence

from .errors import DegeneratePolytope, UnsupportedDegree
from .exactnum import Matrix, Vec, determinant, dot, rat, vec, vsub
from .polytope import Facet, Polytope, _subfaces

# sparse polynomial: exponent tuple (length n) -> rational coefficient
Poly = dict[tuple[int, ...], Fraction]

MAX_DEGREE = 4  # heaviest integrand used anywhere: (affine)^2 * x_i x_j


# ---------------------------------------------------------------------------
# sparse polynomials

def poly_const(c, n: int) -> Poly:
    return {tuple([0] * n): rat(c)}

def poly_norm2(n: int) -> Poly:
    out: Poly = {}
    for i in range(n):
        e = [0] * n
        e[i] = 2
        out[tuple(e)] = Fraction(1)
    return out

def as_poly(poly, n: int) -> Poly:
    """Accept a dict or an iterable of (exponents, coefficient) pairs."""
    if isinstance(poly, Mapping):
        items: Iterable = poly.items()
    else:
        items = poly
    out: Poly = {}
    for e, c in items:
        e = tuple(int(k) for k in e)
        if len(e) != n:
            raise ValueError("exponent tuple %r does not match dimension %d" % (e, n))
        c = rat(c)
        if c != 0:
            out[e] = out.get(e, Fraction(0)) + c
    return out


def _monomial_factors(columns: Sequence[Sequence[Fraction]], alpha) -> list:
    """x^alpha as coordinate factors: columns[i] holds x_i at each vertex."""
    if sum(alpha) > MAX_DEGREE:
        raise UnsupportedDegree("integrands are capped at degree %d" % MAX_DEGREE)
    return [columns[i] for i, a in enumerate(alpha) for _ in range(a)]


# ---------------------------------------------------------------------------
# Dirichlet products

@lru_cache(maxsize=None)
def _partitions(k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Set partitions of range(k), each as (prod_B (|B|-1)!, block bitmasks)."""
    if k == 0:
        return ((1, ()),)
    out = []
    bit = 1 << (k - 1)
    for weight, blocks in _partitions(k - 1):
        for b, block in enumerate(blocks):
            out.append((weight * block.bit_count(), blocks[:b] + (block | bit,) + blocks[b + 1:]))
        out.append((weight, blocks + (bit,)))
    return tuple(out)


def _dirichlet_mean(factors: Sequence[Sequence[Fraction]], idx: Sequence[int]) -> Fraction:
    """Mean of prod_t l_t over the simplex with vertices w_i, i in idx,
    where factors[t][i] = l_t(w_i) (see the module docstring)."""
    d, k = len(idx) - 1, len(factors)
    sums = [Fraction(0)] * (1 << k)  # by block bitmask: sum_i prod_{t in B} l_t(w_i)
    for i in idx:
        products = [Fraction(1)] * (1 << k)
        for block in range(1, 1 << k):
            low = block & -block
            value = factors[low.bit_length() - 1][i]
            products[block] = value if block == low else products[block ^ low] * value
            sums[block] += products[block]
    total = sum(weight * prod(sums[b] for b in blocks) for weight, blocks in _partitions(k))
    return total * Fraction(factorial(d), factorial(d + k))


def simplex_monomial_integral(s: Sequence[Sequence], alpha: Sequence[int]) -> Fraction:
    """Exact integral of x^alpha over a full-dimensional simplex."""
    pts = tuple(vec(q) for q in s)
    n = len(pts[0])
    if len(pts) != n + 1:
        raise ValueError("need n+1 points for a full-dimensional simplex")
    factors = _monomial_factors(list(zip(*pts)), [int(a) for a in alpha])
    vol = abs(determinant(Matrix.from_rows([vsub(q, pts[0]) for q in pts[1:]], n))) / factorial(n)
    return vol * _dirichlet_mean(factors, range(n + 1))


# ---------------------------------------------------------------------------
# facet triangulation

def _pulled_simplices(p: Polytope, face: frozenset[int], k: int) -> list[tuple[int, ...]]:
    """Pulling triangulation of a k-face of P, as vertex-index tuples: its
    smallest vertex index coned over the triangulated (k-1)-faces that
    miss it."""
    if len(face) == k + 1:
        return [tuple(sorted(face))]
    apex = min(face)
    return [(apex,) + s for sub in _subfaces(p, face, k) if apex not in sub
            for s in _pulled_simplices(p, sub, k - 1)]


def _facet_index(p: Polytope, facet) -> int:
    if isinstance(facet, int):
        return facet
    if isinstance(facet, Facet):
        return p.facets.index(facet)
    raise TypeError("facet must be an index or a Facet")


@lru_cache(maxsize=4096)
def _facet_raw_table(p: Polytope, fi: int) -> tuple[tuple[Fraction, tuple[int, ...]], ...]:
    """The (n-1)-simplices of facet fi pulled from P's incidences, each as
    (|det[diffs, a]| / (n-1)! = vol_{n-1}(S) * |a|, indices of its vertices in P).

    The facet is coned from its smallest vertex index (its
    lexicographically smallest vertex, since vertices are sorted) over
    the pulled triangulations of the ridges that miss it, and so on down
    (`polytope._subfaces`)."""
    f = p.facets[fi]
    n = p.dim
    pieces = []
    for idx in _pulled_simplices(p, frozenset(f.vertex_indices), n - 1):
        base = p.vertices[idx[0]]
        rows = [vsub(p.vertices[i], base) for i in idx[1:]] + [f.normal]
        measure = abs(determinant(Matrix.from_rows(rows, n))) / factorial(n - 1)
        pieces.append((measure, idx))
    return tuple(pieces)


def _facet_raw(p: Polytope, fi: int, factors) -> Fraction:
    """|a| * integral_F prod_t l_t dsigma, factors given per vertex of P."""
    return sum((measure * _dirichlet_mean(factors, idx)
                for measure, idx in _facet_raw_table(p, fi)), Fraction(0))


def facet_moment(p: Polytope, facet, factors: Sequence[Sequence[Fraction]]) -> Fraction:
    """Distance-weighted facet integral (b/|a|) * integral_F prod_t l_t dsigma.

    Each factor l_t is affine on the facet and given by its values at the
    vertices of P, factors[t][i] = l_t(vertices[i]): a coordinate column,
    or a facewise affine speed g, whose speed function equals g at the
    vertices.  b/|a| is the signed distance from the origin to the facet
    hyperplane, which cancels the surface-measure radical: the result is
    rational.
    """
    fi = _facet_index(p, facet)
    f = p.facets[fi]
    return f.offset * _facet_raw(p, fi, factors) / dot(f.normal, f.normal)


def boundary_moment(p: Polytope, poly) -> Fraction:
    """Sum of distance-weighted facet integrals of a polynomial over all facets."""
    columns = list(zip(*p.vertices))
    return sum((c * facet_moment(p, fi, _monomial_factors(columns, alpha))
                for alpha, c in as_poly(poly, p.dim).items()
                for fi in range(len(p.facets))), Fraction(0))


@lru_cache(maxsize=256)
def boundary_weights(p: Polytope) -> tuple[Vec, ...]:
    """Per-vertex weight rows w_h with <w_h, g> = sum_F facet_moment(F, [h, g])
    for h = 1, then x_i x_j (i <= j), then x_i: the boundary moments that
    are linear in a speed g given by its vertex values.

    In the Dirichlet formula a facet simplex S of F gives its vertex v

        1                                                        (k = 1),
        2 y_v z_v + sum y z + y_v sum z + z_v sum y + sum y sum z (y = x_i, z = x_j, k = 3),
        y_v + sum y                                              (y = x_i, k = 2),

    with sums over the vertices of S, times (b/|a|^2) * measure * d!/(d+k)!
    for d = n-1.  With g = 1 the rows give n vol, (n+2) int x_i x_j and
    (n+1) int x_i (Euler's identity).
    """
    n, m = p.dim, len(p.vertices)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    w = [[Fraction(0)] * m for _ in range(1 + len(pairs) + n)]
    k1, k2, k3 = (Fraction(factorial(n - 1), factorial(n - 1 + k)) for k in (1, 2, 3))
    for fi, f in enumerate(p.facets):
        height = f.offset / dot(f.normal, f.normal)
        for measure, idx in _facet_raw_table(p, fi):
            c1, c2, c3 = (height * measure * k for k in (k1, k2, k3))
            pts = [p.vertices[v] for v in idx]
            s = [sum(q[i] for q in pts) for i in range(n)]
            for v in idx:
                w[0][v] += c1
            for r, (i, j) in enumerate(pairs, 1):
                common = sum(q[i] * q[j] for q in pts) + s[i] * s[j]
                for v, q in zip(idx, pts):
                    w[r][v] += c3 * (2 * q[i] * q[j] + common + q[i] * s[j] + q[j] * s[i])
            for i in range(n):
                for v, q in zip(idx, pts):
                    w[1 + len(pairs) + i][v] += c2 * (q[i] + s[i])
    return tuple(tuple(row) for row in w)


# ---------------------------------------------------------------------------
# body moments

@dataclass(frozen=True)
class MomentData:
    """Exact volume, first moments and second moment matrix of a body."""

    volume: Fraction
    first_moments: Vec
    second_moments: Matrix

    def centroid(self) -> Vec:
        return tuple(x / self.volume for x in self.first_moments)

    def covariance(self) -> Matrix:
        c = self.centroid()
        v = self.volume
        n = len(c)
        return Matrix.from_rows(
            [[self.second_moments.rows[i][j] / v - c[i] * c[j] for j in range(n)]
             for i in range(n)])

    def norm2_integral(self) -> Fraction:
        return sum(self.second_moments.rows[i][i] for i in range(len(self.first_moments)))

    def l_pow_2n(self) -> Fraction:
        """Exact L^(2n) = det(covariance) / volume^2."""
        det_cov = determinant(self.covariance())
        if det_cov <= 0:
            raise DegeneratePolytope("covariance is singular")
        return det_cov / (self.volume * self.volume)


def _leading_minors_positive(m: Matrix) -> bool:
    n = m.nrows
    for k in range(1, n + 1):
        sub = Matrix.from_rows([row[:k] for row in m.rows[:k]], k)
        if determinant(sub) <= 0:
            return False
    return True


def cone_moments(p: Polytope, scale: Sequence[Fraction]) -> MomentData:
    """Exact moments of the union of the cones from the origin over P's
    facet simplices, each vertex v of P moved to w = v / scale(v), scale > 0.

    A cone simplex 0, w_1..w_n has

        vol = |det w| / n!,   int x = vol * sum w / (n+1),
        int x x^T = vol * (sum w w^T + sum w sum w^T) / ((n+1)(n+2)),

    where |det w| = |det v| / prod scale(v) and, for a facet simplex in
    <a, x> = b, |det v| / n! = measure * b / (n |a|^2) (signed by b).  With
    scale = 1 this is P, wherever the origin lies; for other scales the
    union is a body only when the moved simplices still bound it, which the
    caller must know.
    """
    n = p.dim
    moved = [tuple(x / s for x in v) for v, s in zip(p.vertices, scale)]
    vol = Fraction(0)
    first = [Fraction(0)] * n
    second = [[Fraction(0)] * n for _ in range(n)]
    for fi, f in enumerate(p.facets):
        height = f.offset / (n * dot(f.normal, f.normal))
        for measure, idx in _facet_raw_table(p, fi):
            cone = measure * height / prod(scale[i] for i in idx)
            pts = [moved[i] for i in idx]
            s = [sum(q[a] for q in pts) for a in range(n)]
            vol += cone
            for a in range(n):
                first[a] += cone * s[a]
                for b in range(a, n):
                    second[a][b] += cone * (sum(q[a] * q[b] for q in pts) + s[a] * s[b])
    for a in range(n):
        for b in range(a):
            second[a][b] = second[b][a]
    return MomentData(vol, tuple(x / (n + 1) for x in first),
                      Matrix.from_rows([[x / ((n + 1) * (n + 2)) for x in row] for row in second]))


@lru_cache(maxsize=256)
def body_moments(p: Polytope) -> MomentData:
    """Exact volume, integral of x and integral of x x^T over P: the cone
    sums at unit scale."""
    md = cone_moments(p, [1] * len(p.vertices))
    if md.volume <= 0:
        raise DegeneratePolytope("nonpositive volume")
    if not _leading_minors_positive(md.second_moments):
        raise DegeneratePolytope("second moment matrix is not positive definite")
    return md


@dataclass(frozen=True)
class IsotropyReport:
    centroid: Vec
    covariance: Matrix
    l_pow_2n: Fraction
    isotropizing_map: tuple[tuple[float, ...], ...]
    residual: float


def l_pow_2n(p: Polytope) -> Fraction:
    """Exact L^(2n) = det(covariance) / volume^2."""
    return body_moments(p).l_pow_2n()


def isotropy(p: Polytope) -> IsotropyReport:
    """Centroid, covariance, exact L^(2n), and a floating isotropizing map.

    The map M with A_{M(K - c)} approximately the identity is the float
    inverse square root of the covariance, rendered by the lk report and
    used nowhere else; the reported residual is max |M A M^T - I|.  numpy
    is imported here, so importing the package does not load it.
    """
    import numpy as np

    md = body_moments(p)
    cov = md.covariance()
    l2n = md.l_pow_2n()
    a = np.array([[float(x) for x in row] for row in cov.rows], dtype=float)
    evals, evecs = np.linalg.eigh(a)
    m = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
    residual = float(np.max(np.abs(m @ a @ m.T - np.eye(p.dim))))
    return IsotropyReport(
        centroid=md.centroid(),
        covariance=cov,
        l_pow_2n=l2n,
        isotropizing_map=tuple(tuple(float(x) for x in row) for row in m),
        residual=residual,
    )
