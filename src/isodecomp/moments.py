"""Exact integration over polytopes and their facets, on integers.

Every integral is a sum over simplices whose vertices are vertices of the
polytope, plus the origin for body moments.  The facet simplices are the
ones `validate` checks for closure (`polytope._facet_raw_table`): each
face is pulled from its smallest vertex index over the faces one
dimension down that miss it, read off P's vertex-facet incidences.  Every
integral here is a sum over any triangulation of the facet, so the choice
of apex changes no value.

One table carries them all (`_cone_table`): with D the lcm of the vertex
denominators and V = D v, each facet simplex S in <a, x> = b holds the
integer K_S = |det V_S| signed by b, so that the cone from the origin over
S has signed volume K_S / (D^n n!).  The Dirichlet moment of the uniform
measure on a d-simplex, E[lam^beta] = d! beta! / (d+|beta|)! in
barycentric coordinates, summed over vertex tuples gives the integral of a
product of affine factors l_1, ..., l_k over S as vol(S) d!/(d+k)! times

    sum over set partitions pi of {1..k} of
        prod_{B in pi} (|B|-1)! * sum_{v in S} prod_{t in B} l_t(v)

(`_partition_sum`), so a factor enters only through its values at the
vertices.  The cone over S has height |b|/|a|, so (b/|a|) vol_{n-1}(S) =
K_S / (D^n (n-1)!), and in the coordinates V the distance-weighted
integral, the quantity every boundary-variation formula here consumes, is
exactly rational:

    (b/|a|) * integral_S prod_t l_t dsigma
        = K_S * partition sum of the factors on V / (D^(n+k) (n-1+k)!).

The polynomial facet sums (`boundary_moment`), the boundary weights linear
in a speed (`boundary_weights`), the quadratic forms of the second
variation (`second_variation_weights`) and the body moments (`cone_moments`,
signed by b wherever the origin lies) accumulate integers over one
denominator each and build their fractions at the end.  Euler's identity
(x h(x) has divergence (n+k) h for h homogeneous of degree k),

    integral_P h dx = sum_F (b/|a|) integral_F h dsigma / (n+k),

ties the cone sums to the facet sums.  The tests check every sum here
against a Fraction oracle over the same facet simplices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Iterable, Mapping, Sequence

from .errors import DegeneratePolytope, UnsupportedDegree
from .exactnum import Matrix, Vec, _bareiss, _cleared, determinant, rat
from .polytope import Polytope, _facet_raw_table

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


def _partition_sum(factors: Sequence[Sequence[int]], idx: Sequence[int]) -> int:
    """sum_pi prod_{B in pi} (|B|-1)! * sum_{i in idx} prod_{t in B} l_t(w_i)
    over the set partitions pi of the factors, where factors[t][i] =
    l_t(w_i): the integral of prod_t l_t over the simplex with vertices w_i,
    i in idx, divided by vol * d!/(d+k)! (see the module docstring)."""
    k = len(factors)
    sums = [0] * (1 << k)  # by block bitmask: sum_i prod_{t in B} l_t(w_i)
    for i in idx:
        products = [1] * (1 << k)
        for block in range(1, 1 << k):
            low = block & -block
            value = factors[low.bit_length() - 1][i]
            products[block] = value if block == low else products[block ^ low] * value
            sums[block] += products[block]
    return sum(weight * prod(sums[b] for b in blocks) for weight, blocks in _partitions(k))


# ---------------------------------------------------------------------------
# facet simplices on cleared denominators

@lru_cache(maxsize=256)
def _cone_table(p: Polytope) -> tuple[int, tuple[tuple[int, ...], ...],
                                      tuple[tuple[int, tuple[int, ...]], ...]]:
    """P on cleared denominators: (D, V, cones) with D the lcm of the vertex
    denominators, V the vertices times D as int tuples, and one pair
    (K_S, vertex indices) per facet simplex S of nonzero cone volume, where
    K_S = |det(V_v, v in S)| signed by the facet offset b.

    The cone from the origin over S has signed volume K_S / (D^n n!), and
    (b/|a|) * vol_{n-1}(S) = K_S / (D^n (n-1)!) is the weight that every
    distance-weighted facet integral over S carries.
    """
    d, verts = _cleared(p.vertices)
    cones = []
    for fi, f in enumerate(p.facets):
        sign = (f.offset > 0) - (f.offset < 0)
        for idx in _facet_raw_table(p, fi):
            k = sign * abs(_bareiss([list(verts[i]) for i in idx]))
            if k:
                cones.append((k, idx))
    return d, verts, tuple(cones)


def boundary_moment(p: Polytope, poly) -> Fraction:
    """Sum over all facets F of the distance-weighted facet integrals
    (b/|a|) * integral_F h dsigma of a polynomial h.

    A monomial c x^alpha of degree k contributes c times the partition sums
    of its coordinate factors on V, weighted by K_S (`_cone_table`), over
    D^(n+k) (n-1+k)!.  The monomials are brought to the denominator of the
    heaviest one and the coefficients to the lcm of theirs, so one
    fraction is built at the end.
    """
    n = p.dim
    d, verts, cones = _cone_table(p)
    columns = list(zip(*verts))
    terms = [(_monomial_factors(columns, alpha), c) for alpha, c in as_poly(poly, n).items()]
    top = max((len(factors) for factors, _ in terms), default=0)
    q, (coeffs,) = _cleared([[c for _, c in terms]])
    total = 0
    for (factors, _), c in zip(terms, coeffs):
        k = len(factors)
        lift = d ** (top - k) * factorial(n - 1 + top) // factorial(n - 1 + k)
        total += c * lift * sum(w * _partition_sum(factors, idx) for w, idx in cones)
    return Fraction(total, q * d ** (n + top) * factorial(n - 1 + top))


@lru_cache(maxsize=256)
def boundary_weights(p: Polytope) -> tuple[Vec, ...]:
    """Per-vertex weight rows w_h with <w_h, g> = sum_F (b/|a|) integral_F h g
    dsigma for h = 1, then x_i x_j (i <= j), then x_i: the boundary moments
    that are linear in a speed g given by its vertex values.

    In the Dirichlet formula a facet simplex S of F gives its vertex v

        1                                                        (k = 1),
        2 y_v z_v + sum y z + y_v sum z + z_v sum y + sum y sum z (y = x_i, z = x_j, k = 3),
        y_v + sum y                                              (y = x_i, k = 2),

    with sums over the vertices of S, times (b/|a|) * vol_{n-1}(S) * d!/(d+k)!
    for d = n-1, which is K_S / (D^n (n-1+k)!) (`_cone_table`).  The sums
    run in the integer coordinates V = D x, so the k = 3 and k = 2 rows
    carry a further D^2 and D, and each row becomes fractions only at the
    end.  With g = 1 the rows give n vol, (n+2) int x_i x_j and (n+1)
    int x_i (Euler's identity).
    """
    n, m = p.dim, len(p.vertices)
    d, verts, cones = _cone_table(p)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    w = [[0] * m for _ in range(1 + len(pairs) + n)]
    for k, idx in cones:
        pts = [verts[v] for v in idx]
        s = [sum(q[i] for q in pts) for i in range(n)]
        for v in idx:
            w[0][v] += k
        for r, (i, j) in enumerate(pairs, 1):
            common = sum(q[i] * q[j] for q in pts) + s[i] * s[j]
            for v, q in zip(idx, pts):
                w[r][v] += k * (2 * q[i] * q[j] + common + q[i] * s[j] + q[j] * s[i])
        for i in range(n):
            for v, q in zip(idx, pts):
                w[1 + len(pairs) + i][v] += k * (q[i] + s[i])
    dens = ([d ** n * factorial(n)] + [d ** (n + 2) * factorial(n + 2)] * len(pairs)
            + [d ** (n + 1) * factorial(n + 1)] * n)
    return tuple(tuple(Fraction(x, den) for x in row) for row, den in zip(w, dens))


@lru_cache(maxsize=256)
def second_variation_weights(p: Polytope) -> tuple[int, tuple, tuple]:
    """The boundary moments that are quadratic in a speed g, as integer
    quadratic forms on its vertex values: (den, W0, W) with

        g^T W0 g / den   = sum_F (b/|a|) integral_F g^2 dsigma,
        g^T W_r g / den  = sum_F (b/|a|) integral_F g^2 x_i x_j dsigma,

    W0 and each W_r integer m x m matrices, r running over i <= j.

    In the Dirichlet formula a facet simplex S of F, with weight
    K_S / (D^n (n-1+k)!) (`_cone_table`), gives the pair u, w of its
    vertices the coefficient of g_u g_w

        1 + d_uw                                                (k = 2),
        (1 + d_uw) (base + e_u + e_w + y_u z_w + y_w z_u)       (y = x_i, z = x_j, k = 4),

    with base = sum y sum z + sum y z and e_u = y_u sum z + z_u sum y +
    2 y_u z_u, sums over the vertices of S: the sum over vertex pairs
    a, b of y_a z_b times the product of the factorials of the
    multiplicities in (u, w, a, b).  In the integer coordinates V = D x,
    the k = 4 forms carry a further D^2, so den = D^(n+2) (n+3)! and W0 is
    scaled by D^2 (n+2)(n+3).
    """
    n, m = p.dim, len(p.vertices)
    d, verts, cones = _cone_table(p)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    w0 = [[0] * m for _ in range(m)]
    w = [[[0] * m for _ in range(m)] for _ in pairs]
    for k, idx in cones:
        pts = [verts[v] for v in idx]
        for u in idx:
            for v in idx:
                w0[u][v] += k if u != v else 2 * k
        for r, (i, j) in enumerate(pairs):
            y = [q[i] for q in pts]
            z = [q[j] for q in pts]
            sy, sz = sum(y), sum(z)
            base = sy * sz + sum(a * b for a, b in zip(y, z))
            e = [a * sz + b * sy + 2 * a * b for a, b in zip(y, z)]
            row = w[r]
            for a, u in enumerate(idx):
                for b, v in enumerate(idx):
                    t = base + e[a] + e[b] + y[a] * z[b] + y[b] * z[a]
                    row[u][v] += k * t if a != b else 2 * k * t
    lift = d * d * (n + 2) * (n + 3)
    return (d ** (n + 2) * factorial(n + 3),
            tuple(tuple(x * lift for x in row) for row in w0),
            tuple(tuple(tuple(row) for row in mat) for mat in w))


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

    where |det w| = |det v| / prod scale(v), signed by the offset b of the
    facet.  With scale = 1 this is P, wherever the origin lies; for other
    scales the union is a body only when the moved simplices still bound
    it, which the caller must know.

    The sums run on cleared denominators (`_cone_table`): with V = D v,
    scale(v) = N_v / Q and, per simplex S, P_S = prod_{v in S} N_v and
    u_v = P_S / N_v, the cone over S contributes

        vol      K_S / P_S                                 * Q^n / (D^n n!),
        int x    K_S A / P_S^2                             * Q^(n+1) / (D^(n+1) n! (n+1)),
        int xx^T K_S (sum_v u_v^2 V V^T + A A^T) / P_S^3  * Q^(n+2) / (D^(n+2) n! (n+1)(n+2)),

    with A = sum_v u_v V.  Each sum is kept as one integer over a power of
    L = prod_v N_v, which every P_S divides, and the 1 + n + n(n+1)/2
    fractions of the result are built at the end.
    """
    n = p.dim
    d, verts, cones = _cone_table(p)
    q, (nums,) = _cleared([[rat(s) for s in scale]])
    big = prod(nums)
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    vol = 0
    first = [0] * n
    second = [0] * len(pairs)
    for k, idx in cones:
        ps = prod(nums[i] for i in idx)
        c = big // ps
        u = [ps // nums[i] for i in idx]
        pts = [verts[i] for i in idx]
        s = [sum(ui * v[a] for ui, v in zip(u, pts)) for a in range(n)]
        u2 = [ui * ui for ui in u]
        k1 = k * c
        k2 = k1 * c
        k3 = k2 * c
        vol += k1
        for a in range(n):
            first[a] += k2 * s[a]
        for r, (a, b) in enumerate(pairs):
            second[r] += k3 * (sum(w * v[a] * v[b] for w, v in zip(u2, pts)) + s[a] * s[b])
    base = factorial(n) * big
    out = [[Fraction(0)] * n for _ in range(n)]
    for (a, b), x in zip(pairs, second):
        out[a][b] = out[b][a] = Fraction(x * q ** (n + 2),
                                         d ** (n + 2) * (n + 1) * (n + 2) * base * big * big)
    return MomentData(Fraction(vol * q ** n, d ** n * base),
                      tuple(Fraction(x * q ** (n + 1), d ** (n + 1) * (n + 1) * base * big)
                            for x in first),
                      Matrix(tuple(tuple(row) for row in out), n))


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
    used nowhere else; the reported residual is max |M A M^T - I|.  Where
    floats cannot hold the covariance or the map, their entries are NaN
    or infinite.  numpy is imported here, so importing the package does
    not load it.
    """
    import numpy as np

    md = body_moments(p)
    cov = md.covariance()
    l2n = md.l_pow_2n()
    try:
        a = np.array([[float(x) for x in row] for row in cov.rows], dtype=float)
    except OverflowError:
        m, residual = np.full((p.dim, p.dim), np.nan), float("nan")
    else:
        with np.errstate(all="ignore"):
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
