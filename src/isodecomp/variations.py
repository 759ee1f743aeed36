"""Radial perturbation families, exact boundary derivatives, shadow
systems, and the not-a-local-maximizer certificate pipeline.

A facewise affine vertex-value vector g induces a positively homogeneous
speed f with f(v) = g(v) at vertices; the radial family moves each vertex
to v / (1 + t g(v)) and tilts each facet normal to a + t c_F, where c_F
is the unique linear form agreeing with g on the facet.  First variations
of integrals over the family are boundary integrals weighted by the
distance of each facet plane from the origin, hence exactly rational:

    d/dt integral_{K_t} h dx |_0   = - sum_F (b/|a|) integral_F h f dsigma
    d^2/dt^2 vol |_0               = (n+1) sum_F (b/|a|) integral_F f^2
    d^2/dt^2 integral x x^T |_0    = (n+3) sum_F (b/|a|) integral_F f^2 x x^T

L^(2n), the radial family and the kernel conditions all commute with
linear maps, so the certificate works on the body centered at its exact
centroid and needs no isotropic position.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence

from .decomp import facewise_affine_space
from .errors import (
    CaseNotSupported,
    Degenerate,
    EpsilonTooLarge,
    NotCentered,
    NotFullDimensional,
    OriginNotInterior,
    PreconditionError,
    StepTooLarge,
    ValidationError,
)
from .exactnum import (
    Matrix,
    Vec,
    _cleared,
    _int_rows,
    dot,
    inverse,
    is_zero_vec,
    kernel_basis,
    rat,
    solve,
    vec,
)
from .moments import (
    MomentData,
    _cone_table,
    body_moments,
    boundary_weights,
    cone_moments,
    l_pow_2n,
    second_variation_weights,
)
from .polytope import Polytope, _subfaces, hull_facets, validate

DEFAULT_FD_STEP = Fraction(1, 1000)


@dataclass(frozen=True)
class ShadowSystem:
    """Vertices moving linearly along a common direction: hull of
    {v + t * speed(v) * direction}."""

    base: Polytope
    direction: Vec
    speeds: Vec
    t_range: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class DerivativeReport:
    d_vol: Fraction
    d_x: Vec
    d_xx: tuple[Vec, ...]
    d_x2: Fraction
    dd_vol: Fraction | None
    dd_xx: tuple[Vec, ...] | None
    dd_x2: Fraction | None
    method: str

    def gap(self) -> Fraction:
        """The gap integral of `gap_integral`, read off the second
        variation: dd_x2/(n+3) - (n+2) dd_vol/(n+1)."""
        n = len(self.d_x)
        return self.dd_x2 / (n + 3) - (n + 2) * self.dd_vol / (n + 1)


@dataclass(frozen=True)
class SecondDerivativeCertificate:
    value: float
    fd_value: float
    certificate: bool
    exact_value: Fraction
    exact_fd: Fraction


def _check_speed(p: Polytope, g: Sequence) -> Vec:
    g = vec(g)
    if len(g) != len(p.vertices):
        raise PreconditionError("speed vector length %d != %d vertices"
                                % (len(g), len(p.vertices)))
    return g


@lru_cache(maxsize=4096)
def _facet_linear_forms(p: Polytope, g: Vec) -> tuple[Vec, ...]:
    """Per facet, the unique linear form c with <c, v> = g(v) on its vertices.

    With the origin interior each facet's vertices linearly span R^n, so
    c exists iff g is facewise affine and is then unique.
    """
    forms = []
    for f in p.facets:
        rows = [p.vertices[i] for i in f.vertex_indices]
        rhs = [g[i] for i in f.vertex_indices]
        c = solve(Matrix.from_rows(rows, p.dim), rhs)
        if c is None:
            raise PreconditionError("speed vector is not facewise affine")
        forms.append(c)
    return tuple(forms)


@lru_cache(maxsize=4096)
def _side_table(p: Polytope, g: Vec) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per facet F and vertex v of P, a positive multiple (U, W) of the pair

        (1 - <a, v>, <c_F, v> - g(v)),

    so that the moved vertex v / (1 + t g(v)) lies beyond, on or inside
    the moved plane <a + t c_F, x> = 1 as t W - U is positive, zero or
    negative.  With the origin inside (offsets 1), incident vertices read
    (0, 0).  Built on cleared denominators: V = D v (`moments._cone_table`),
    G = q g, and each facet's A and C over their own lcm.
    """
    d, verts, _ = _cone_table(p)
    q, (gi,) = _cleared([g])
    table = []
    for f, c in zip(p.facets, _facet_linear_forms(p, g)):
        la, (a,) = _cleared([f.normal])
        lc, (ci,) = _cleared([c])
        row = []
        for v, gv in zip(verts, gi):
            u = la * d - sum(x * y for x, y in zip(a, v))
            w = q * sum(x * y for x, y in zip(ci, v)) - lc * d * gv
            u, w = lc * q * u, la * w
            k = gcd(u, w) or 1
            row.append((u // k, w // k))
        table.append(tuple(row))
    return tuple(table)


@lru_cache(maxsize=4096)
def eps_bound(p: Polytope, g: Vec) -> Fraction:
    """Symmetric validity radius for the radial family of speed g.

    Takes half of the first parameter value at which a moving vertex
    meets a moving non-incident facet plane, intersected with the vertex
    condition |t g(v)| <= 1/2, capped at 1.  The zero speed has no
    breakpoints and returns the cap.
    """
    g = _check_speed(p, g)
    if not p.origin_interior:
        raise OriginNotInterior("radial families need the origin inside")
    candidates: list[Fraction] = []
    max_speed = max(abs(x) for x in g)
    if max_speed != 0:
        candidates.append(Fraction(1, 2) / max_speed)
    for f, row in zip(p.facets, _side_table(p, g)):
        incident = set(f.vertex_indices)
        for i, (u, w) in enumerate(row):
            if i not in incident and w != 0:
                candidates.append(abs(Fraction(u, w)) / 2)
    if not candidates:
        return Fraction(1)
    return min(min(candidates), Fraction(1))


def radial_polytope(p: Polytope, g: Sequence, t: Fraction) -> Polytope:
    """Body whose gauge is gauge(P) + t * f: vertices move radially to
    v / (1 + t g(v)), facet normals to a + t c_F, incidences unchanged."""
    g = _check_speed(p, g)
    t = rat(t)
    if abs(t) > eps_bound(p, g):
        raise EpsilonTooLarge("|t| = %s exceeds the validity radius %s"
                              % (t, eps_bound(p, g)))
    forms = _facet_linear_forms(p, g)
    verts = [tuple(x / (1 + t * g[i]) for x in v) for i, v in enumerate(p.vertices)]
    facets = [(tuple(a + t * c for a, c in zip(f.normal, cf)), Fraction(1), f.vertex_indices)
              for f, cf in zip(p.facets, forms)]
    try:
        return validate(verts, facets)
    except ValidationError as exc:  # unreachable inside the bound; defensive
        raise EpsilonTooLarge("radial body failed validation at t = %s: %s" % (t, exc)) from exc


def radial_moments(p: Polytope, g: Sequence, t: Fraction) -> MomentData:
    """Exact moments of the radial body at t, without building or
    validating the body.

    For |t| <= eps the body P_t is the union of the cones from the origin
    over P's facet simplices with moved vertices w = v / (1 + t g(v)), so
    its moments are `moments.cone_moments` with scale 1 + t g.

    The guarantees of `radial_polytope` hold here too: EpsilonTooLarge
    when |t| exceeds eps_bound, and when a moved vertex lies outside a
    moved facet plane <a + t c_F, x> = 1, or on it without being incident.
    With the incidences unchanged the map x -> x / (1 + t <c_F, x>) is
    projective on the cone over each facet F, so it carries F's simplices
    onto a triangulation of the moved facet; the rank conditions that
    `validate` checks follow.
    """
    g = _check_speed(p, g)
    t = rat(t)
    eps = eps_bound(p, g)
    if abs(t) > eps:
        raise EpsilonTooLarge("|t| = %s exceeds the validity radius %s" % (t, eps))
    tn, td = t.numerator, t.denominator
    for f, row in zip(p.facets, _side_table(p, g)):
        incident = set(f.vertex_indices)
        for i, (u, w) in enumerate(row):
            side = tn * w - td * u  # the sign of <a + t c_F, w_i> - 1
            if side > 0 or (side == 0) != (i in incident):
                raise EpsilonTooLarge("radial body at t = %s: vertex %d reaches the plane "
                                      "of facet %s" % (t, i, f.normal))
    return cone_moments(p, [1 + t * x for x in g])


def boundary_first_derivatives(p: Polytope, g: Sequence) -> DerivativeReport:
    """d/dt at t=0 of vol, int x, int x x^T, int |x|^2 along the family:
    minus the boundary moments of g, read from `moments.boundary_weights`."""
    g = _check_speed(p, g)
    if not p.origin_interior:
        raise OriginNotInterior("boundary derivatives need the origin inside")
    _facet_linear_forms(p, g)  # g must be facewise affine
    n = p.dim
    d = iter([-dot(row, g) for row in boundary_weights(p)])
    d_vol = next(d)
    d_xx = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            d_xx[i][j] = d_xx[j][i] = next(d)
    d_x = tuple(d)
    return DerivativeReport(
        d_vol=d_vol, d_x=d_x, d_xx=tuple(tuple(r) for r in d_xx),
        d_x2=sum(d_xx[i][i] for i in range(n)), dd_vol=None, dd_xx=None, dd_x2=None,
        method="exact-facet")


def boundary_second_derivatives(p: Polytope, g: Sequence) -> DerivativeReport:
    """Adds the exact second derivatives of vol and int x x^T at t=0:
    (n+1) and (n+3) times the distance-weighted facet integrals of f^2 and
    f^2 x_i x_j, each the quadratic form of `moments.second_variation_weights`
    evaluated on the integer numerators of g over their common denominator."""
    g = _check_speed(p, g)
    first = boundary_first_derivatives(p, g)
    n = p.dim
    den, w0, w = second_variation_weights(p)
    q, (gi,) = _cleared([g])
    den *= q * q

    def form(mat) -> int:
        return sum(a * sum(x * b for x, b in zip(row, gi)) for a, row in zip(gi, mat) if a)

    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    dd_xx = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), mat in zip(pairs, w):
        dd_xx[i][j] = dd_xx[j][i] = Fraction((n + 3) * form(mat), den)
    return DerivativeReport(
        d_vol=first.d_vol, d_x=first.d_x, d_xx=first.d_xx, d_x2=first.d_x2,
        dd_vol=Fraction((n + 1) * form(w0), den), dd_xx=tuple(tuple(r) for r in dd_xx),
        dd_x2=sum(dd_xx[i][i] for i in range(n)), method="exact-facet")


def gap_integral(p: Polytope, g: Sequence) -> Fraction:
    """Distance-weighted boundary integral of f^2 (|x|^2 - (n+2)), read off
    the exact second variation (`DerivativeReport.gap`).

    The second variation of int (|x|^2 - (n+2)) along the radial family
    strictly exceeds (n+3) times this value whenever g is nonzero; at a
    local maximizer the value itself must be nonnegative.
    """
    return boundary_second_derivatives(p, g).gap()


def kernel_direction(p: Polytope) -> Vec | None:
    """Nonzero facewise affine speed killing all first moment derivatives.

    Kernel of the linear map g -> (d/dt int x_i x_j, d/dt int x_i) on
    F(P), assembled once from the weight rows of `moments.boundary_weights`
    and applied to a basis of F(P); nonempty whenever dim F(P) exceeds
    (n^2+3n)/2.  Exact.
    """
    if not p.origin_interior:
        raise OriginNotInterior("kernel search needs the origin inside")
    basis = facewise_affine_space(p).basis
    # basis vector k is B_k / beta_k with B_k integer; a weight row w is a
    # positive multiple of an integer row W.  Row r, column k holds
    # <W_r, B_k> L / beta_k for L the lcm of the beta_k: a nonzero multiple
    # of the matrix of d/dt int x_i x_j (i <= j), then d/dt int x_i, on
    # the basis, with the same kernel.
    scaled = [_cleared([b]) for b in basis]
    betas = [beta for beta, _ in scaled]
    cols = [col for _, (col,) in scaled]
    big = lcm(*betas)
    rows = [[sum(x * y for x, y in zip(w, col)) * (big // beta) for beta, col in zip(betas, cols)]
            for w in _int_rows(boundary_weights(p)[1:])]
    ker = kernel_basis(Matrix.from_rows(rows, len(basis)))
    if not ker:
        return None
    # g = sum_k c_k b_k = sum_k (c_k / beta_k) B_k, over one denominator
    den, (nums,) = _cleared([[c / beta for c, beta in zip(ker[0], betas)]])
    g = tuple(Fraction(sum(c * col[i] for c, col in zip(nums, cols) if c), den)
              for i in range(len(p.vertices)))
    if is_zero_vec(g):
        return None
    return g


def _require_centered(p: Polytope) -> None:
    if not is_zero_vec(body_moments(p).first_moments):
        raise NotCentered("the centroid of the body is not the origin")


def _log_first(p: Polytope, rep: DerivativeReport):
    """B = M^-1 for M = int x x^T, the product B M', and
    L'/L = tr(B M') - (n+2) V'/V.

    On a centered body L^(2n) = det(M - m m^T / V) / V^(n+2) with m = int x
    and m = 0, so to first order it sees only M' and V'.
    """
    md = body_moments(p)
    n = p.dim
    b = inverse(md.second_moments).rows
    bm1 = [[sum(b[i][k] * rep.d_xx[k][j] for k in range(n)) for j in range(n)]
           for i in range(n)]
    log1 = sum(bm1[i][i] for i in range(n)) - (n + 2) * rep.d_vol / md.volume
    return b, bm1, log1


def lk_first_derivative(p: Polytope, g: Sequence) -> Fraction:
    """d/dt of L^(2n) at t=0 along the radial family, for centered P:
    L * (tr(B M') - (n+2) V'/V)."""
    g = _check_speed(p, g)
    _require_centered(p)
    return l_pow_2n(p) * _log_first(p, boundary_first_derivatives(p, g))[2]


def lk_second_derivative(p: Polytope, g: Sequence,
                         fd_step: Fraction | None = None) -> SecondDerivativeCertificate:
    """d^2/dt^2 of L^(2n) at t=0 along the radial family of g, assembled
    exactly from boundary derivatives, with a finite-difference check.

    Requires P centered (int x = 0) and the variation centered
    (d/dt int x = 0); then, with V = vol, M = int x x^T and B = M^-1,

        L''/L = tr(B M'') - tr((B M')^2) - (n+2) V''/V + (n+2) (V'/V)^2 + (L'/L)^2.

    A positive value certified by both routes means P is not a local
    maximizer along this family.
    """
    g = _check_speed(p, g)
    _require_centered(p)
    rep = boundary_second_derivatives(p, g)
    if not is_zero_vec(rep.d_x):
        raise NotCentered("d/dt of the first moments does not vanish")
    v = body_moments(p).volume
    n = p.dim
    b, bm1, log1 = _log_first(p, rep)
    log2 = (sum(b[i][k] * rep.dd_xx[k][i] for i in range(n) for k in range(n))
            - sum(bm1[i][k] * bm1[k][i] for i in range(n) for k in range(n))
            - (n + 2) * rep.dd_vol / v + (n + 2) * (rep.d_vol / v) ** 2)
    l0 = l_pow_2n(p)
    exact_value = l0 * (log2 + log1 ** 2)

    h = fd_step if fd_step is not None else DEFAULT_FD_STEP
    _, second = _richardson(p, g, min(rat(h), eps_bound(p, g) / 2))
    exact_fd = second(MomentData.l_pow_2n)
    certificate = exact_value > 0 and exact_fd > 0
    return SecondDerivativeCertificate(
        value=float(exact_value), fd_value=float(exact_fd),
        certificate=certificate, exact_value=exact_value, exact_fd=exact_fd)


# ---------------------------------------------------------------------------
# finite differences

def _richardson(p: Polytope, g: Vec, h: Fraction):
    """Richardson-extrapolated central differences along the radial family
    of g from the exact moments at t = 0, +-h, +-2h, evaluated once.

    Returns (first, second): each maps a reader of `MomentData` to its
    first or second derivative at t = 0, with error O(h^4).
    """
    h = rat(h)
    if h <= 0:
        raise StepTooLarge("step must be positive")
    eps = eps_bound(p, g)
    if 2 * h > eps:
        raise StepTooLarge("2h = %s exceeds the validity radius %s" % (2 * h, eps))
    md0 = body_moments(p)
    mds = {k: radial_moments(p, g, k * h) for k in (-2, -1, 1, 2)}

    def first(read) -> Fraction:
        d_h = (read(mds[1]) - read(mds[-1])) / (2 * h)
        d_2h = (read(mds[2]) - read(mds[-2])) / (4 * h)
        return (4 * d_h - d_2h) / 3

    def second(read) -> Fraction:
        s_h = (read(mds[1]) - 2 * read(md0) + read(mds[-1])) / h ** 2
        s_2h = (read(mds[2]) - 2 * read(md0) + read(mds[-2])) / (4 * h ** 2)
        return (4 * s_h - s_2h) / 3

    return first, second


def finite_difference_report(p: Polytope, g: Sequence,
                             h: Fraction = DEFAULT_FD_STEP) -> DerivativeReport:
    """All first derivatives (and second, for vol, x x^T and |x|^2) by
    central differences of exact moments, sharing the four body evaluations."""
    g = _check_speed(p, g)
    n = p.dim
    first, second = _richardson(p, g, h)
    d_xx = [[first(lambda m, i=i, j=j: m.second_moments.rows[i][j]) for j in range(n)]
            for i in range(n)]
    dd_xx = [[second(lambda m, i=i, j=j: m.second_moments.rows[i][j]) for j in range(n)]
             for i in range(n)]
    return DerivativeReport(
        d_vol=first(lambda m: m.volume),
        d_x=tuple(first(lambda m, i=i: m.first_moments[i]) for i in range(n)),
        d_xx=tuple(tuple(r) for r in d_xx),
        d_x2=first(lambda m: m.norm2_integral()),
        dd_vol=second(lambda m: m.volume),
        dd_xx=tuple(tuple(r) for r in dd_xx),
        dd_x2=second(lambda m: m.norm2_integral()),
        method="finite-difference")


# ---------------------------------------------------------------------------
# shadow systems

def _check_direction(p: Polytope, u: Sequence) -> Vec:
    u = vec(u)
    if is_zero_vec(u):
        raise PreconditionError("direction must be nonzero")
    if len(u) != p.dim:
        raise PreconditionError("direction length %d != dimension %d" % (len(u), p.dim))
    return u


def shadow_polytope(s: ShadowSystem, t: Fraction) -> Polytope:
    """Hull of the moved vertex set at parameter t; vertices may merge or
    become interior."""
    direction = _check_direction(s.base, s.direction)
    t = rat(t)
    lo, hi = s.t_range
    if not (lo <= t <= hi):
        raise PreconditionError("t = %s outside the declared range [%s, %s]" % (t, lo, hi))
    moved = [tuple(x + t * s.speeds[i] * u for x, u in zip(v, direction))
             for i, v in enumerate(s.base.vertices)]
    try:
        return hull_facets(moved, check=False)
    except NotFullDimensional as exc:
        raise Degenerate("shadow body degenerated at t = %s" % t) from exc


def _edges(p: Polytope) -> list[tuple[int, int]]:
    """Vertex-index pairs of P's edges: its facets' faces, taken down to
    dimension 1 (`polytope._subfaces`)."""
    faces = {frozenset(f.vertex_indices) for f in p.facets}
    for k in range(p.dim - 1, 1, -1):
        faces = {sub for face in faces for sub in _subfaces(p, face, k)}
    return sorted(tuple(sorted(e)) for e in faces)


def rs_speed_space(p: Polytope, u: Sequence) -> int:
    """Dimension of the chord-affine shadow speed space in direction u,
    in the tractable case: no facet normal orthogonal to u and the shadow
    of P equal to its central slice.  Then restriction to the boundary
    identifies the space with F(P)."""
    if p.dim < 2:
        raise CaseNotSupported("shadow speed spaces need dimension >= 2")
    u = _check_direction(p, u)
    for f in p.facets:
        if dot(f.normal, u) == 0:
            raise CaseNotSupported("vertical facet: normal orthogonal to the direction")

    n = p.dim
    basis = kernel_basis(Matrix.from_rows([u], n))
    b = Matrix.from_rows(basis, n)
    ginv = inverse(b.matmul(b.transpose()))

    def chart(x: Vec) -> Vec:
        return ginv.matvec(b.matvec(x))

    shadow = hull_facets([chart(v) for v in p.vertices], check=False)

    uu = dot(u, u)
    slice_points = [chart(v) for v in p.vertices if dot(u, v) == 0]
    for i, j in _edges(p):
        vi, vj = p.vertices[i], p.vertices[j]
        si, sj = dot(u, vi), dot(u, vj)
        if (si > 0 and sj < 0) or (si < 0 and sj > 0):
            lam = si / (si - sj)
            point = tuple(a + lam * (c - a) for a, c in zip(vi, vj))
            slice_points.append(chart(point))
    try:
        central = hull_facets(slice_points, check=False)
    except NotFullDimensional:
        raise CaseNotSupported("central slice is lower-dimensional in the chart")
    if central != shadow:
        raise CaseNotSupported("shadow differs from the central slice")
    return facewise_affine_space(p).dimension
