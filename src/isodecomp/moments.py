"""Exact integration over polytopes and their facets.

Body integrals of monomials are sums over a deterministic triangulation,
each simplex handled by the Dirichlet formula

    integral over a d-simplex S of  lam^beta  =  d! vol(S) beta! / (d+|beta|)!

in barycentric coordinates.  Facet integrals carry the surface measure:
an (n-1)-simplex inside the hyperplane <a, x> = b has

    vol_{n-1}(S) = |det[w_1-w_0, ..., w_{n-1}-w_0, a]| / ((n-1)! * |a|),

so every facet integral is (rational) / |a|, a single radical per facet.
The distance-weighted integral (b/|a|) * integral_F, the quantity every
boundary-variation formula here consumes, is exactly rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DegeneratePolytope, UnsupportedDegree
from .exactnum import (
    Matrix,
    RadicalValue,
    Vec,
    determinant,
    dot,
    inverse,
    rat,
    rref_rank,
    vec,
    vsub,
)
from .polytope import Facet, Polytope, _affine_rank, hull_facets

Point = Vec
Simplex = tuple[Point, ...]
# sparse polynomial: exponent tuple (length n) -> rational coefficient
Poly = dict[tuple[int, ...], Fraction]

MAX_DEGREE = 4  # heaviest integrand used anywhere: (affine)^2 * |x|^2


# ---------------------------------------------------------------------------
# sparse polynomials

def poly_const(c, n: int) -> Poly:
    return {tuple([0] * n): rat(c)}

def poly_coord(i: int, n: int) -> Poly:
    e = [0] * n
    e[i] = 1
    return {tuple(e): Fraction(1)}

def poly_linear(coeffs: Sequence[Fraction]) -> Poly:
    n = len(coeffs)
    out: Poly = {}
    for i, c in enumerate(coeffs):
        if c != 0:
            e = [0] * n
            e[i] = 1
            out[tuple(e)] = rat(c)
    return out

def poly_norm2(n: int) -> Poly:
    out: Poly = {}
    for i in range(n):
        e = [0] * n
        e[i] = 2
        out[tuple(e)] = Fraction(1)
    return out

def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, Fraction(0)) + c
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out

def poly_scale(c: Fraction, p: Poly) -> Poly:
    c = rat(c)
    if c == 0:
        return {}
    return {e: c * v for e, v in p.items()}

def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
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


# ---------------------------------------------------------------------------
# triangulation

def simplex_volume(s: Simplex) -> Fraction:
    n = len(s) - 1
    m = Matrix.from_rows([vsub(p, s[0]) for p in s[1:]], len(s[0]))
    return abs(determinant(m)) / factorial(n)


def _triangulate_convex_points(points: Sequence[Point]) -> list[Simplex]:
    """Triangulate the convex hull of points in convex position.

    Fans from the lexicographically smallest point; recursion on the
    hull facets runs in exact affine chart coordinates.
    """
    pts = sorted(set(points))
    k = _affine_rank(pts)
    if len(pts) == k + 1:
        return [tuple(pts)]
    n = len(pts[0])
    base = pts[0]
    basis_rows: list[Vec] = []
    r = 0
    for p in pts[1:]:
        d = vsub(p, base)
        cand = basis_rows + [d]
        rk = rref_rank(Matrix.from_rows(cand, n))[1]
        if rk > r:
            basis_rows.append(d)
            r = rk
        if r == k:
            break
    b = Matrix.from_rows(basis_rows, n)
    ginv = inverse(b.matmul(b.transpose()))

    def chart(p: Point) -> Point:
        return ginv.matvec(b.matvec(vsub(p, base)))

    back = {chart(p): p for p in pts}
    body = hull_facets(list(back.keys()), check=False)
    apex = chart(base)
    simplices: list[Simplex] = []
    for f in body.facets:
        fverts = [body.vertices[i] for i in f.vertex_indices]
        if apex in fverts:
            continue
        for piece in _triangulate_convex_points(fverts):
            simplices.append(tuple(back[q] for q in (apex,) + piece))
    return simplices


def triangulate(p: Polytope) -> list[Simplex]:
    """Positively oriented simplices with disjoint interiors covering P.

    Each facet is triangulated by a fan from its lexicographically
    smallest vertex; the pieces are coned to the vertex barycenter.
    """
    n = p.dim
    m = len(p.vertices)
    bary = tuple(sum(v[i] for v in p.vertices) / m for i in range(n))
    out: list[Simplex] = []
    for f in p.facets:
        fpts = [p.vertices[i] for i in f.vertex_indices]
        for piece in _triangulate_convex_points(fpts):
            simplex = list((bary,) + piece)
            d = determinant(Matrix.from_rows([vsub(q, simplex[0]) for q in simplex[1:]], n))
            if d == 0:
                raise DegeneratePolytope("degenerate simplex in triangulation")
            if d < 0:
                simplex[-1], simplex[-2] = simplex[-2], simplex[-1]
            out.append(tuple(simplex))
    return out


# ---------------------------------------------------------------------------
# Dirichlet integration

LamPoly = dict[tuple[int, ...], Fraction]


def _lam_linear_forms(s: Simplex) -> list[LamPoly]:
    """Coordinate functions x_i as linear forms in barycentric lambda."""
    m = len(s)
    forms = []
    for i in range(len(s[0])):
        form: LamPoly = {}
        for k in range(m):
            if s[k][i] != 0:
                e = [0] * m
                e[k] = 1
                form[tuple(e)] = s[k][i]
        forms.append(form)
    return forms


def _dirichlet_value(lam_poly: LamPoly, d: int) -> Fraction:
    """integral over the standard d-simplex, normalized so vol = 1."""
    total = Fraction(0)
    fd = factorial(d)
    for beta, c in lam_poly.items():
        num = fd
        for bi in beta:
            num *= factorial(bi)
        total += c * Fraction(num, factorial(d + sum(beta)))
    return total


def _monomial_table(s: Simplex, max_degree: int) -> dict[tuple[int, ...], Fraction]:
    """Normalized integrals of all monomials x^alpha, |alpha| <= max_degree.

    Returned values are integral_S x^alpha / vol(S) for the d-simplex S.
    """
    n = len(s[0])
    d = len(s) - 1
    forms = _lam_linear_forms(s)
    zero = tuple([0] * n)
    lam_cache: dict[tuple[int, ...], LamPoly] = {zero: {tuple([0] * len(s)): Fraction(1)}}
    table: dict[tuple[int, ...], Fraction] = {zero: Fraction(1)}
    frontier = [zero]
    for _ in range(max_degree):
        nxt = []
        for e in frontier:
            for i in range(n):
                e2 = list(e)
                e2[i] += 1
                e2t = tuple(e2)
                if e2t in lam_cache:
                    continue
                lp = poly_mul(lam_cache[e], forms[i])  # same dict layout
                lam_cache[e2t] = lp
                table[e2t] = _dirichlet_value(lp, d)
                nxt.append(e2t)
        frontier = nxt
    return table


def simplex_monomial_integral(s: Sequence[Sequence], alpha: Sequence[int]) -> Fraction:
    """Exact integral of x^alpha over a full-dimensional simplex."""
    pts = tuple(vec(q) for q in s)
    n = len(pts[0])
    if len(pts) != n + 1:
        raise ValueError("need n+1 points for a full-dimensional simplex")
    alpha = tuple(int(a) for a in alpha)
    vol = simplex_volume(pts)
    forms = _lam_linear_forms(pts)
    lp: LamPoly = {tuple([0] * (n + 1)): Fraction(1)}
    for i, ai in enumerate(alpha):
        for _ in range(ai):
            lp = poly_mul(lp, forms[i])
    return vol * _dirichlet_value(lp, n)


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


def _leading_minors_positive(m: Matrix) -> bool:
    n = m.nrows
    for k in range(1, n + 1):
        sub = Matrix.from_rows([row[:k] for row in m.rows[:k]], k)
        if determinant(sub) <= 0:
            return False
    return True


@lru_cache(maxsize=256)
def body_moments(p: Polytope) -> MomentData:
    """Exact volume, integral of x and integral of x x^T over P."""
    n = p.dim
    vol = Fraction(0)
    first = [Fraction(0)] * n
    second = [[Fraction(0)] * n for _ in range(n)]
    for s in triangulate(p):
        v = simplex_volume(s)
        vol += v
        col = [sum(q[i] for q in s) for i in range(n)]
        for i in range(n):
            first[i] += v * col[i] / (n + 1)
        w = v / ((n + 1) * (n + 2))
        for i in range(n):
            for j in range(i, n):
                val = w * (sum(q[i] * q[j] for q in s) + col[i] * col[j])
                second[i][j] += val
    for i in range(n):
        for j in range(i):
            second[i][j] = second[j][i]
    if vol <= 0:
        raise DegeneratePolytope("nonpositive volume")
    md = MomentData(vol, tuple(first), Matrix.from_rows(second))
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
    md = body_moments(p)
    det_cov = determinant(md.covariance())
    if det_cov <= 0:
        raise DegeneratePolytope("covariance is singular")
    return det_cov / (md.volume * md.volume)


def isotropy(p: Polytope) -> IsotropyReport:
    """Centroid, covariance, exact L^(2n), and a floating isotropizing map.

    The map M with A_{M(K - c)} approximately the identity is the float
    inverse square root of the covariance, rendered by the lk report and
    used nowhere else; the reported residual is max |M A M^T - I|.
    """
    md = body_moments(p)
    cov = md.covariance()
    l2n = l_pow_2n(p)
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


# ---------------------------------------------------------------------------
# facet integrals

def _facet_index(p: Polytope, facet) -> int:
    if isinstance(facet, int):
        return facet
    if isinstance(facet, Facet):
        return p.facets.index(facet)
    raise TypeError("facet must be an index or a Facet")


@lru_cache(maxsize=4096)
def _facet_raw_table(p: Polytope, fi: int) -> dict[tuple[int, ...], Fraction]:
    """RAW(alpha) with integral_F x^alpha dsigma = RAW(alpha) / |a|.

    RAW is a sum over facet simplices of |det[diffs, a]| / (n-1)! times
    the normalized Dirichlet monomial value.
    """
    f = p.facets[fi]
    n = p.dim
    pts = [p.vertices[i] for i in f.vertex_indices]
    out: dict[tuple[int, ...], Fraction] = {}
    for s in _triangulate_convex_points(pts):
        rows = [vsub(q, s[0]) for q in s[1:]] + [f.normal]
        det = abs(determinant(Matrix.from_rows(rows, n)))
        measure = det / factorial(n - 1)  # = vol_{n-1}(S) * |a|
        for alpha, val in _monomial_table(s, MAX_DEGREE).items():
            out[alpha] = out.get(alpha, Fraction(0)) + measure * val
    return out


def _raw_combination(p: Polytope, fi: int, poly: Poly) -> Fraction:
    table = _facet_raw_table(p, fi)
    total = Fraction(0)
    for alpha, c in poly.items():
        if sum(alpha) > MAX_DEGREE:
            raise UnsupportedDegree("facet integrands are capped at degree %d" % MAX_DEGREE)
        total += c * table[alpha]
    return total


def facet_integral(p: Polytope, facet, poly) -> RadicalValue:
    """Exact integral of a polynomial over a facet, surface measure.

    The value is rational / |normal|; it is returned as an exact
    coefficient-times-square-root value (often plainly rational).
    """
    fi = _facet_index(p, facet)
    f = p.facets[fi]
    poly = as_poly(poly, p.dim)
    raw = _raw_combination(p, fi, poly)
    a2 = dot(f.normal, f.normal)
    return RadicalValue.of(raw / a2, a2)


def facet_moment(p: Polytope, facet, poly) -> Fraction:
    """Distance-weighted facet integral: (b/|a|) * integral_F poly dsigma.

    b/|a| is the signed distance from the origin to the facet hyperplane,
    which cancels the surface-measure radical: the result is rational.
    This is the facet quantity appearing in all boundary variations and
    in the divergence identities sum_F (b/|a|) area(F) = n vol(P).
    """
    fi = _facet_index(p, facet)
    f = p.facets[fi]
    poly = as_poly(poly, p.dim)
    raw = _raw_combination(p, fi, poly)
    a2 = dot(f.normal, f.normal)
    return f.offset * raw / a2


def boundary_moment(p: Polytope, poly) -> Fraction:
    """Sum of distance-weighted facet integrals over all facets."""
    poly = as_poly(poly, p.dim)
    return sum(facet_moment(p, fi, poly) for fi in range(len(p.facets)))
