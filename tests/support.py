"""Shared construction helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial, prod
from typing import Sequence

from isodecomp.decomp import _dependence_rows, facewise_affine_space
from isodecomp.errors import IncidenceMismatch, NotConvexPosition, NotFullDimensional
from isodecomp.exactnum import (
    Matrix,
    Vec,
    determinant,
    dot,
    is_zero_vec,
    vec,
    vsub,
)
from isodecomp.moments import (
    MomentData,
    _facet_raw_table,
    _monomial_factors,
    as_poly,
    body_moments,
)
from isodecomp.polytope import (
    Polytope,
    _canonical,
    _hull_1d,
    _hull_2d,
    affine_image,
    convex_hull_2d,
    hull_facets,
    translate,
)
from isodecomp.variations import (
    DEFAULT_FD_STEP,
    DerivativeReport,
    _check_speed,
    _facet_linear_forms,
    _richardson,
    boundary_first_derivatives,
    eps_bound,
)

Point = Vec
Simplex = tuple[Point, ...]


# ---------------------------------------------------------------------------
# Fraction elimination and structure checks: the oracles for exactnum's
# integer elimination and polytope._check_structure, and the linear algebra
# of every other oracle here

def rref_rank_by_fractions(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Gauss-Jordan elimination in Fraction arithmetic: reduced row
    echelon form, rank and pivot columns."""
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


def kernel_basis_by_fractions(m: Matrix) -> list[Vec]:
    """One kernel vector per free column of rref_rank_by_fractions(m)."""
    reduced, _, pivots = rref_rank_by_fractions(m)
    basis = []
    for free in range(m.ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * m.ncols
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -reduced.rows[i][free]
        basis.append(tuple(v))
    return basis


def solve_by_fractions(m: Matrix, b: Sequence[Fraction]) -> Vec | None:
    """The solution of m x = b with free coordinates zero, or None."""
    aug = Matrix.from_rows([list(row) + [bi] for row, bi in zip(m.rows, b, strict=True)],
                           m.ncols + 1)
    reduced, _, pivots = rref_rank_by_fractions(aug)
    if m.ncols in pivots:
        return None
    x = [Fraction(0)] * m.ncols
    for i, pc in enumerate(pivots):
        x[pc] = reduced.rows[i][m.ncols]
    return tuple(x)


def inverse_by_fractions(m: Matrix) -> Matrix:
    n = m.nrows
    aug = Matrix.from_rows([list(row) + [Fraction(int(i == j)) for j in range(n)]
                            for i, row in enumerate(m.rows)], 2 * n)
    reduced, _, pivots = rref_rank_by_fractions(aug)
    if pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("singular matrix")
    return Matrix(tuple(row[n:] for row in reduced.rows), n)


def affine_rank_by_fractions(points: Sequence[Point]) -> int:
    if len(points) <= 1:
        return 0
    m = Matrix.from_rows([vsub(p, points[0]) for p in points[1:]], len(points[0]))
    return rref_rank_by_fractions(m)[1]


def check_structure_by_fractions(body: Polytope) -> None:
    """Oracle for polytope._check_structure: the same checks, in the same
    order and with the same messages, on Fraction dot products."""
    n = body.dim
    verts = body.vertices
    for f in body.facets:
        listed = set(f.vertex_indices)
        on_plane = set()
        for i, v in enumerate(verts):
            val = dot(f.normal, v)
            if val > f.offset:
                raise NotConvexPosition(
                    "vertex %s violates facet inequality <%s, x> <= %s"
                    % (v, f.normal, f.offset))
            if val == f.offset:
                on_plane.add(i)
        if on_plane != listed:
            raise IncidenceMismatch(
                "facet %s/%s: vertices on hyperplane %s != listed %s"
                % (f.normal, f.offset, sorted(on_plane), sorted(listed)))
        if affine_rank_by_fractions([verts[i] for i in f.vertex_indices]) != n - 1:
            raise IncidenceMismatch(
                "facet %s/%s: incident vertices do not span a hyperplane"
                % (f.normal, f.offset))
    for v in verts:
        active = [f.normal for f in body.facets if dot(f.normal, v) == f.offset]
        if not active or rref_rank_by_fractions(Matrix.from_rows(active, n))[1] != n:
            raise NotConvexPosition(
                "vertex %s is not extreme (active facet normals do not span)" % (v,))


def cube(n: int) -> Polytope:
    pts = []
    for mask in range(2 ** n):
        pts.append(tuple(Fraction(1 if mask & (1 << i) else -1) for i in range(n)))
    return hull_facets(pts)


def cross_polytope(n: int) -> Polytope:
    pts = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        pts.append(tuple(e))
        pts.append(tuple(-x for x in e))
    return hull_facets(pts)


def centered_simplex(n: int) -> Polytope:
    pts = [tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n)]
    pts.append(tuple(Fraction(-1) for _ in range(n)))
    return hull_facets(pts)


def hexagon() -> Polytope:
    return hull_facets([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])


def triangle_origin() -> Polytope:
    return hull_facets([(2, -1), (-1, 2), (-1, -1)])


def standard_triangle() -> Polytope:
    return hull_facets([(0, 0), (1, 0), (0, 1)])


@lru_cache(maxsize=None)
def hexagonal_prism() -> Polytope:
    """The hexagon times [-1, 1]: two 6-vertex and six 4-vertex facets."""
    return hull_facets([v + (z,) for v in hexagon().vertices for z in (-1, 1)])


@lru_cache(maxsize=None)
def cube4() -> Polytope:
    return cube(4)


@lru_cache(maxsize=None)
def cell24() -> Polytope:
    """The 24-cell: the permutations of (+-1, +-1, 0, 0), 24 octahedral facets."""
    pts = set()
    for i, j in combinations(range(4), 2):
        for a, b in product((-1, 1), repeat=2):
            v = [0] * 4
            v[i], v[j] = a, b
            pts.add(tuple(v))
    return hull_facets(sorted(pts))


def nonsimplicial_bodies() -> list[Polytope]:
    return [hexagonal_prism(), cube4(), cell24()]


def shear_frame(n: int):
    """A fixed rational frame (m, c), x -> m x + c with m unipotent upper
    triangular, that reorders the vertices of the bodies above."""
    m = [[Fraction(1) if i == j else Fraction(i - j, j + 1) if j > i else Fraction(0)
          for j in range(n)] for i in range(n)]
    return m, [Fraction(1, 2 + i) for i in range(n)]


def sheared(body: Polytope) -> Polytope:
    return affine_image(body, *shear_frame(body.dim))


def mixed_denominators(body: Polytope, rng: random.Random) -> Polytope:
    """body under a diagonal map with entries in [1/2, 2] and a shift of
    less than 1/8 per coordinate, every entry over its own denominator of
    about 64 bits.  For n <= 4, a body that holds the ball of radius 1/2
    about the origin keeps the origin in its interior."""
    n = body.dim
    m = [[Fraction(rng.randrange(2 ** 63, 2 ** 64), rng.randrange(2 ** 63, 2 ** 64))
           if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    c = [Fraction(rng.randrange(-2 ** 60, 2 ** 60), rng.randrange(2 ** 63, 2 ** 64))
         for _ in range(n)]
    return affine_image(body, m, c)


def oracle_bodies() -> list[Polytope]:
    """Bodies with the origin interior for the integer-route oracles: the
    square, the hexagon, the prism in two frames, cube3, the octahedron,
    cube4, the 24-cell, seeded random 3-D and 4-D bodies, and three bodies
    over 64-bit denominators."""
    rng = random.Random(47)
    prism = hexagonal_prism()
    bodies = [cube(2), hexagon(), prism, sheared(prism), cube(3), cross_polytope(3), cube4(),
              cell24(), random_polytope(rng, 3, 10), random_polytope(rng, 4, 8)]
    return bodies + [mixed_denominators(b, rng) for b in (hexagon(), cross_polytope(3), cube(3))]


def uncentred_bodies() -> list[Polytope]:
    """Bodies with the origin outside, so some facet offsets are negative."""
    rng = random.Random(53)
    body = random_polytope(rng, 3, 9, centered=False)
    return [translate(cube(3), [3, Fraction(1, 2), -5]), translate(body, [Fraction(7, 3)] * 3),
            translate(mixed_denominators(cube4(), rng), [2, 0, 0, 0])]


def oracle_speeds(body: Polytope, rng: random.Random) -> list[Vec]:
    """The zero speed, a constant speed and a random facewise affine speed."""
    m = len(body.vertices)
    return [(Fraction(0),) * m, (Fraction(3, 7),) * m, random_speed(rng, body)]


def random_polytope(rng: random.Random, n: int, npts: int, bound: int = 4,
                    centered: bool = True) -> Polytope:
    """Hull of random small-integer points, translated so 0 is interior."""
    while True:
        pts = [tuple(Fraction(rng.randrange(-bound, bound + 1)) for _ in range(n))
               for _ in range(npts)]
        try:
            body = hull_facets(pts)
        except NotFullDimensional:
            continue
        if not centered:
            return body
        c = body_moments(body).centroid()
        return translate(body, [-x for x in c])


def _maximal_minors(rows, n: int):
    """Kernel vector of an (n-1) x n matrix via signed maximal minors."""
    out = []
    sign = 1
    for j in range(n):
        sub = Matrix.from_rows([[row[k] for k in range(n) if k != j] for row in rows], n - 1)
        out.append(sign * determinant(sub))
        sign = -sign
    return tuple(out)


def hull_facets_by_fractions(points, check: bool = True) -> Polytope:
    """Test oracle for hull_facets: the same n-subset enumeration with
    every normal, offset and support test in Fraction arithmetic, and
    supporting hyperplanes deduplicated on the normal and offset divided
    by the first nonzero normal entry's absolute value."""
    pts = [vec(p) for p in points]
    if not pts:
        raise NotFullDimensional("no points")
    n = len(pts[0])
    if n < 1:
        raise NotFullDimensional("dimension must be >= 1")
    pts = sorted(set(pts))
    if affine_rank_by_fractions(pts) != n:
        raise NotFullDimensional("points do not affinely span R^n")
    if n == 1:
        return _hull_1d(pts)
    if n == 2:
        return _hull_2d(pts)

    supports = {}
    for subset in combinations(range(len(pts)), n):
        base = pts[subset[0]]
        normal = _maximal_minors([vsub(pts[i], base) for i in subset[1:]], n)
        if all(x == 0 for x in normal):
            continue
        offset = dot(normal, base)
        above = below = False
        for p in pts:
            val = dot(normal, p)
            if val > offset:
                above = True
            elif val < offset:
                below = True
            if above and below:
                break
        if above and below:
            continue
        if above:
            normal = tuple(-x for x in normal)
            offset = -offset
        scale = abs(next(x for x in normal if x != 0))
        supports.setdefault((tuple(x / scale for x in normal), offset / scale), (normal, offset))

    facet_data = []
    for normal, offset in supports.values():
        incident = [i for i, p in enumerate(pts) if dot(normal, p) == offset]
        if affine_rank_by_fractions([pts[i] for i in incident]) == n - 1:
            facet_data.append((normal, offset, incident))
    vertex_ids = []
    for i in range(len(pts)):
        active = [normal for normal, _, inc in facet_data if i in inc]
        if len(active) >= n and rref_rank_by_fractions(Matrix.from_rows(active, n))[1] == n:
            vertex_ids.append(i)
    keep = {old: new for new, old in enumerate(vertex_ids)}
    facets = [(normal, offset, tuple(keep[i] for i in inc if i in keep))
              for normal, offset, inc in facet_data]
    body = _canonical(n, [pts[i] for i in vertex_ids], facets)
    if check:
        check_structure_by_fractions(body)
    return body


def hull_midpoint(ccw1, ccw2):
    """Test oracle for the search's edge-merge Minkowski midpoint: the
    planar hull of all pairwise midpoints of the two vertex lists."""
    sums = [((p[0] + q[0]) / 2, (p[1] + q[1]) / 2) for p in ccw1 for q in ccw2]
    return convex_hull_2d(sums)


# ---------------------------------------------------------------------------
# Fraction oracle for the planar quasi-convexity search: the search's
# draws and polygon steps with every vertex a Fraction tuple, polygons as
# counterclockwise vertex lists.

def _polygon_l2n(ccw) -> Fraction:
    """L^(2n) = det(cov)/vol^2 from the Fraction shoelace sums."""
    a = b0 = b1 = c00 = c01 = c11 = Fraction(0)
    p = ccw[-1]
    for q in ccw:
        det = p[0] * q[1] - p[1] * q[0]
        a += det
        b0 += det * (p[0] + q[0])
        b1 += det * (p[1] + q[1])
        c00 += det * 2 * (p[0] * p[0] + p[0] * q[0] + q[0] * q[0])
        c01 += det * (2 * p[0] * p[1] + 2 * q[0] * q[1] + p[0] * q[1] + p[1] * q[0])
        c11 += det * 2 * (p[1] * p[1] + p[1] * q[1] + q[1] * q[1])
        p = q
    vol = a / 2
    m = (b0 / 6 / vol, b1 / 6 / vol)
    cov = [[c / 24 / vol - m[i] * m[j] for j, c in enumerate(row)]
           for i, row in enumerate(((c00, c01), (c01, c11)))]
    return (cov[0][0] * cov[1][1] - cov[0][1] * cov[1][0]) / (vol * vol)


def _polygon_center(ccw):
    """Translate the polygon by minus its centroid."""
    a = b0 = b1 = Fraction(0)
    p = ccw[-1]
    for q in ccw:
        det = p[0] * q[1] - p[1] * q[0]
        a += det
        b0 += det * (p[0] + q[0])
        b1 += det * (p[1] + q[1])
        p = q
    c = (b0 / (3 * a), b1 / (3 * a))
    return [(p[0] - c[0], p[1] - c[1]) for p in ccw]


def _polygon_polar(ccw):
    """Polar polygon, cyclic order; None unless the origin is strictly inside."""
    out = []
    m = len(ccw)
    for k in range(m):
        p, q = ccw[k], ccw[(k + 1) % m]
        nx, ny = q[1] - p[1], p[0] - q[0]
        b = nx * p[0] + ny * p[1]
        if b <= 0:
            return None
        out.append((nx / b, ny / b))
    return out


def _random_points(rng: random.Random, cfg, k: int):
    d = cfg.denominator_bound
    pts = []
    for _ in range(k):
        s = Fraction(rng.randrange(-d, d + 1), d)
        sign = 1 if rng.getrandbits(1) else -1
        den = 1 + s * s
        direction = (sign * (1 - s * s) / den, sign * 2 * s / den)
        radius = Fraction(rng.randrange(1, 9), rng.randrange(1, 4))
        pts.append((radius * direction[0], radius * direction[1]))
    return pts


def _random_polygon(rng: random.Random, cfg):
    kmin, kmax = cfg.vertex_range
    while True:
        k = rng.randrange(kmin, kmax + 1)
        hull = convex_hull_2d(_random_points(rng, cfg, k))
        if len(hull) >= 3:
            return _polygon_center(hull)


def _cut_corner(ccw, idx: int, depth: Fraction):
    m = len(ccw)
    a, b, c = ccw[idx], ccw[(idx + 1) % m], ccw[(idx - 1) % m]
    p1 = tuple(a[i] + depth * (b[i] - a[i]) for i in range(2))
    p2 = tuple(a[i] + depth * (c[i] - a[i]) for i in range(2))
    return convex_hull_2d([p1, p2] + [ccw[j] for j in range(m) if j != idx])


def _random_cut_triangle_pair(rng: random.Random, cfg):
    while True:
        hull = convex_hull_2d(_random_points(rng, cfg, 3))
        if len(hull) == 3:
            break
    depth = Fraction(rng.randrange(1, 9), 32)
    return [_polygon_center(_cut_corner(hull, rng.randrange(3), depth)) for _ in range(2)]


def _random_pair(rng: random.Random, cfg):
    if rng.randrange(100) == 0:
        return _random_cut_triangle_pair(rng, cfg)
    return [_random_polygon(rng, cfg), _random_polygon(rng, cfg)]


def _minkowski_midpoint(ccw1, ccw2):
    """Edge merge of two counterclockwise polygons that start at their
    lexicographically smallest vertices, in Fractions."""
    def edges(ccw):
        return [(q[0] - p[0], q[1] - p[1]) for p, q in zip(ccw, ccw[1:] + ccw[:1])]

    e1, e2 = edges(ccw1), edges(ccw2)
    x, y = ccw1[0][0] + ccw2[0][0], ccw1[0][1] + ccw2[0][1]
    out = []
    i = j = 0
    while i < len(e1) or j < len(e2):
        out.append((x / 2, y / 2))
        if i == len(e1):
            cross = -1
        elif j == len(e2):
            cross = 1
        else:
            cross = e1[i][0] * e2[j][1] - e1[i][1] * e2[j][0]
        if cross >= 0:
            x, y = x + e1[i][0], y + e1[i][1]
            i += 1
        if cross <= 0:
            x, y = x + e2[j][0], y + e2[j][1]
            j += 1
    return out


def search_trial_by_fractions(cfg, trial: int, cut_pair: bool = False) -> dict:
    """Test oracle for one trial of cli.quasiconvex_search, in Fractions.

    Draws the pair from the trial's seeded generator (with cut_pair, a
    corner-cut triangle pair from the same generator, as if the 1% draw
    had chosen it) and returns the vertices of k, l and their Minkowski
    midpoint, the L^(2n) of the three bodies, and that of the polars of
    k, l and the centred midpoint, None for a rejected polar.
    """
    rng = random.Random(cfg.seed * 1_000_003 + trial)
    k, l = _random_cut_triangle_pair(rng, cfg) if cut_pair else _random_pair(rng, cfg)
    mid = _minkowski_midpoint(k, l)
    polars = (_polygon_polar(k), _polygon_polar(l), _polygon_polar(_polygon_center(mid)))
    return {
        "k": k, "l": l, "mid": mid,
        "l2n": tuple(_polygon_l2n(p) for p in (k, l, mid)),
        "polar_l2n": tuple(None if p is None else _polygon_l2n(p) for p in polars),
    }


def _triangulate_convex_points(points: Sequence[Point]) -> list[Simplex]:
    """Triangulate the convex hull of points in convex position.

    Fans from the lexicographically smallest point; recursion on the
    hull facets runs in exact affine chart coordinates.
    """
    pts = sorted(set(points))
    k = affine_rank_by_fractions(pts)
    if len(pts) == k + 1:
        return [tuple(pts)]
    n = len(pts[0])
    base = pts[0]
    basis_rows: list[Vec] = []
    r = 0
    for p in pts[1:]:
        d = vsub(p, base)
        cand = basis_rows + [d]
        rk = rref_rank_by_fractions(Matrix.from_rows(cand, n))[1]
        if rk > r:
            basis_rows.append(d)
            r = rk
        if r == k:
            break
    b = Matrix.from_rows(basis_rows, n)
    ginv = inverse_by_fractions(b.matmul(b.transpose()))

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


def reference_moments(body: Polytope) -> MomentData:
    """Test oracle for body_moments: each facet's chart triangulation
    (`_triangulate_convex_points`) coned to the vertex barycenter, with
    the closed form of a simplex S whose vertex coordinate sums are c:

        int_S x = vol(S) c / (n+1),
        int_S x x^T = vol(S) (sum_v v v^T + c c^T) / ((n+1)(n+2)).
    """
    n = body.dim
    m = len(body.vertices)
    bary = tuple(sum(v[i] for v in body.vertices) / m for i in range(n))
    vol = Fraction(0)
    first = [Fraction(0)] * n
    second = [[Fraction(0)] * n for _ in range(n)]
    for f in body.facets:
        for piece in _triangulate_convex_points([body.vertices[i] for i in f.vertex_indices]):
            s = [bary] + list(piece)
            v = abs(determinant(Matrix.from_rows([vsub(q, bary) for q in s[1:]]))) / factorial(n)
            col = [sum(q[i] for q in s) for i in range(n)]
            vol += v
            for i in range(n):
                first[i] += v * col[i] / (n + 1)
                for j in range(n):
                    second[i][j] += (v * (sum(q[i] * q[j] for q in s) + col[i] * col[j])
                                     / ((n + 1) * (n + 2)))
    return MomentData(vol, tuple(first), Matrix.from_rows(second))


def random_speed(rng: random.Random, body: Polytope, min_eps: Fraction | None = None):
    """Random nonzero facewise affine vertex-value vector; optionally
    rescaled so that the radial validity radius is at least min_eps."""
    basis = facewise_affine_space(body).basis
    m = len(body.vertices)
    while True:
        coeffs = [Fraction(rng.randrange(-3, 4)) for _ in basis]
        g = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(m))
        if any(x != 0 for x in g):
            break
    if min_eps is not None:
        e = eps_bound(body, g)
        if e < min_eps:
            factor = e / (2 * min_eps)  # eps scales inversely with the speed
            g = tuple(x * factor for x in g)
    return g


def cyclic_vertex_order(body: Polytope) -> list[int]:
    """Vertex indices of a polygon in cyclic boundary order."""
    assert body.dim == 2
    nbrs: dict[int, list[int]] = {i: [] for i in range(len(body.vertices))}
    for f in body.facets:
        a, b = f.vertex_indices
        nbrs[a].append(b)
        nbrs[b].append(a)
    order = [0, nbrs[0][0]]
    while len(order) < len(body.vertices):
        prev, cur = order[-2], order[-1]
        order.append(nbrs[cur][0] if nbrs[cur][0] != prev else nbrs[cur][1])
    return order


def rs_tent_movement(rng: random.Random, body: Polytope):
    """Chord-aligned tent speeds on a polygon: a shadow movement that
    translates every chord in the direction of a vertex pair rigidly.

    Returns (direction, speeds) or None if no admissible pair exists.
    """
    assert body.dim == 2
    m = len(body.vertices)
    adjacency = {frozenset(f.vertex_indices) for f in body.facets}
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)
             if frozenset((i, j)) not in adjacency]
    rng.shuffle(pairs)
    for i, j in pairs:
        u = tuple(a - b for a, b in zip(body.vertices[i], body.vertices[j]))
        w = (-u[1], u[0])
        y = [dot(w, v) for v in body.vertices]
        y0 = y[i]
        ymin, ymax = min(y), max(y)
        if not (ymin < y0 < ymax):
            continue
        speeds = []
        for yk in y:
            if yk <= y0:
                speeds.append((yk - ymin) / (y0 - ymin))
            else:
                speeds.append((ymax - yk) / (ymax - y0))
        return u, tuple(speeds)
    return None


def first_derivatives_by_facets(body: Polytope, g) -> DerivativeReport:
    """Test oracle for boundary_first_derivatives: minus the distance-weighted
    facet integrals of g, x_i g and x_i x_j g, one facet_moment_by_fractions
    call each."""
    n = body.dim
    x = list(zip(*body.vertices))

    def moment(factors):
        return -sum((facet_moment_by_fractions(body, fi, factors + [g])
                     for fi in range(len(body.facets))), Fraction(0))

    d_xx = tuple(tuple(moment([x[min(i, j)], x[max(i, j)]]) for j in range(n)) for i in range(n))
    return DerivativeReport(
        d_vol=moment([]), d_x=tuple(moment([x[i]]) for i in range(n)), d_xx=d_xx,
        d_x2=sum(d_xx[i][i] for i in range(n)), dd_vol=None, dd_xx=None, dd_x2=None,
        method="exact-facet")


def kernel_rows_by_basis(body: Polytope) -> list[list[Fraction]]:
    """Test oracle for the kernel matrix of kernel_direction: one column per
    basis vector b of F(P), holding d/dt int x_i x_j (i <= j) and then
    d/dt int x_i from first_derivatives_by_facets(body, b); returned as rows."""
    n = body.dim
    cols = []
    for b in facewise_affine_space(body).basis:
        rep = first_derivatives_by_facets(body, b)
        cols.append([rep.d_xx[i][j] for i in range(n) for j in range(i, n)] + list(rep.d_x))
    return [list(row) for row in zip(*cols)]


def kernel_direction_by_basis(body: Polytope):
    """Test oracle for kernel_direction: the first kernel vector of
    kernel_rows_by_basis, as vertex values, or None."""
    basis = facewise_affine_space(body).basis
    ker = kernel_basis_by_fractions(Matrix.from_rows(kernel_rows_by_basis(body), len(basis)))
    if not ker:
        return None
    g = tuple(sum(c * b[i] for c, b in zip(ker[0], basis)) for i in range(len(body.vertices)))
    return g if any(x != 0 for x in g) else None


def gap_integral_by_facets(body: Polytope, g) -> Fraction:
    """Test oracle for gap_integral: the distance-weighted integral of
    f^2 (|x|^2 - (n+2)), summed facet by facet with one
    facet_moment_by_fractions call per factor list."""
    n = body.dim
    x = list(zip(*body.vertices))
    total = Fraction(0)
    for fi in range(len(body.facets)):
        total += sum(facet_moment_by_fractions(body, fi, [g, g, x[i], x[i]]) for i in range(n))
        total -= (n + 2) * facet_moment_by_fractions(body, fi, [g, g])
    return total


def edges_by_pair_scan(p: Polytope) -> list[tuple[int, int]]:
    """Test oracle for variations._edges: every vertex pair whose shared
    facet normals have rank n-1."""
    n = p.dim
    out = []
    for i in range(len(p.vertices)):
        for j in range(i + 1, len(p.vertices)):
            shared = [f.normal for f in p.facets
                      if i in f.vertex_indices and j in f.vertex_indices]
            if (len(shared) >= n - 1
                    and rref_rank_by_fractions(Matrix.from_rows(shared, n))[1] == n - 1):
                out.append((i, j))
    return out


# ---------------------------------------------------------------------------
# Finite-difference oracle on top of the certificate's Richardson routine

def _quantity_value(md: MomentData, quantity) -> Fraction:
    if quantity == "vol":
        return md.volume
    if quantity == "x2":
        return md.norm2_integral()
    if quantity == "l2n":
        return md.l_pow_2n()
    if isinstance(quantity, tuple) and quantity and quantity[0] == "x":
        return md.first_moments[quantity[1]]
    if isinstance(quantity, tuple) and quantity and quantity[0] == "xx":
        return md.second_moments.rows[quantity[1]][quantity[2]]
    raise ValueError("unknown quantity %r" % (quantity,))


def finite_difference_oracle(p: Polytope, g: Sequence, quantity,
                             h: Fraction = DEFAULT_FD_STEP) -> float:
    """Richardson-extrapolated central difference of an exact quantity
    along the radial family; the independent check of the facet formulas.

    quantity is one of "vol", "x2", "l2n", ("x", i), ("xx", i, j).
    """
    first, _ = _richardson(p, _check_speed(p, g), h)
    return float(first(lambda md: _quantity_value(md, quantity)))


# ---------------------------------------------------------------------------
# Fraction oracles for the integer moment and second-variation routes

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
    where factors[t][i] = l_t(w_i):

        d!/(d+k)! * sum over set partitions pi of {1..k} of
            prod_{B in pi} (|B|-1)! * sum_v prod_{t in B} l_t(w_v),

    the Dirichlet moments of the barycentric coordinates summed over
    vertex tuples."""
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


@lru_cache(maxsize=4096)
def facet_measures(p: Polytope, fi: int) -> tuple[tuple[Fraction, tuple[int, ...]], ...]:
    """The pulled (n-1)-simplices of facet fi, each as
    (|det[diffs, a]| / (n-1)! = vol_{n-1}(S) * |a|, indices of its vertices in P)."""
    f = p.facets[fi]
    n = p.dim
    pieces = []
    for idx in _facet_raw_table(p, fi):
        base = p.vertices[idx[0]]
        rows = [vsub(p.vertices[i], base) for i in idx[1:]] + [f.normal]
        measure = abs(determinant(Matrix.from_rows(rows, n))) / factorial(n - 1)
        pieces.append((measure, idx))
    return tuple(pieces)


def facet_moment_by_fractions(p: Polytope, fi: int,
                              factors: Sequence[Sequence[Fraction]]) -> Fraction:
    """Distance-weighted facet integral (b/|a|) * integral_F prod_t l_t dsigma
    in Fractions, each factor given by its values at the vertices of P,
    factors[t][i] = l_t(vertices[i]).  b/|a| is the signed distance from
    the origin to the facet hyperplane, which cancels the surface-measure
    radical."""
    f = p.facets[fi]
    raw = sum((measure * _dirichlet_mean(factors, idx) for measure, idx in facet_measures(p, fi)),
              Fraction(0))
    return f.offset * raw / dot(f.normal, f.normal)


def boundary_moment_by_fractions(p: Polytope, poly) -> Fraction:
    """Test oracle for moments.boundary_moment: one facet_moment_by_fractions
    call per facet and monomial."""
    columns = list(zip(*p.vertices))
    return sum((c * facet_moment_by_fractions(p, fi, _monomial_factors(columns, alpha))
                for alpha, c in as_poly(poly, p.dim).items()
                for fi in range(len(p.facets))), Fraction(0))


def cone_moments_by_fractions(p: Polytope, scale: Sequence[Fraction]) -> MomentData:
    """Test oracle for moments.cone_moments: the same cone sums over P's
    facet simplices, every vertex moved to v / scale(v) and every sum
    accumulated in Fractions.

    A cone simplex 0, w_1..w_n has

        vol = |det w| / n!,   int x = vol * sum w / (n+1),
        int x x^T = vol * (sum w w^T + sum w sum w^T) / ((n+1)(n+2)),

    where |det w| = |det v| / prod scale(v) and, for a facet simplex in
    <a, x> = b, |det v| / n! = measure * b / (n |a|^2) (signed by b).
    """
    n = p.dim
    moved = [tuple(x / s for x in v) for v, s in zip(p.vertices, scale)]
    vol = Fraction(0)
    first = [Fraction(0)] * n
    second = [[Fraction(0)] * n for _ in range(n)]
    for fi, f in enumerate(p.facets):
        height = f.offset / (n * dot(f.normal, f.normal))
        for measure, idx in facet_measures(p, fi):
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


def second_derivatives_by_facets(p: Polytope, g) -> DerivativeReport:
    """Test oracle for boundary_second_derivatives: the distance-weighted
    facet integrals of g^2 and g^2 x_i x_j, one facet_moment_by_fractions
    call per facet and factor list, on top of boundary_first_derivatives."""
    g = _check_speed(p, g)
    first = boundary_first_derivatives(p, g)
    forms = _facet_linear_forms(p, g)
    n = p.dim
    x = list(zip(*p.vertices))
    s_f2 = Fraction(0)
    s_f2xx = [[Fraction(0)] * n for _ in range(n)]
    for fi, c in enumerate(forms):
        if is_zero_vec(c):
            continue
        s_f2 += facet_moment_by_fractions(p, fi, [g, g])
        for i in range(n):
            for j in range(i, n):
                s_f2xx[i][j] += facet_moment_by_fractions(p, fi, [g, g, x[i], x[j]])
    dd_xx = [[(n + 3) * s_f2xx[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return DerivativeReport(
        d_vol=first.d_vol, d_x=first.d_x, d_xx=first.d_xx, d_x2=first.d_x2,
        dd_vol=(n + 1) * s_f2, dd_xx=tuple(tuple(r) for r in dd_xx),
        dd_x2=sum(dd_xx[i][i] for i in range(n)), method="exact-facet")


def simplex_monomial_integral(s: Sequence[Sequence], alpha: Sequence[int]) -> Fraction:
    """Exact integral of x^alpha over a full-dimensional simplex."""
    pts = tuple(vec(q) for q in s)
    n = len(pts[0])
    if len(pts) != n + 1:
        raise ValueError("need n+1 points for a full-dimensional simplex")
    factors = _monomial_factors(list(zip(*pts)), [int(a) for a in alpha])
    vol = abs(determinant(Matrix.from_rows([vsub(q, pts[0]) for q in pts[1:]], n))) / factorial(n)
    return vol * _dirichlet_mean(factors, range(n + 1))


def is_facewise_affine(p: Polytope, g: Sequence) -> bool:
    """Whether g is orthogonal to every facet's affine dependences."""
    g = vec(g)
    return all(dot(row, g) == 0 for row in _dependence_rows(p))
