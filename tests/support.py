"""Shared construction helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from isodecomp.decomp import facewise_affine_space
from isodecomp.errors import NotFullDimensional
from isodecomp.exactnum import Matrix, determinant, dot, rref_rank, vsub
from isodecomp.moments import MomentData, body_moments
from isodecomp.polytope import Polytope, convex_hull_2d, hull_facets, translate
from isodecomp.variations import eps_bound


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


def hull_midpoint(ccw1, ccw2):
    """Test oracle for the search's edge-merge Minkowski midpoint: the
    planar hull of all pairwise midpoints of the two vertex lists."""
    sums = [((p[0] + q[0]) / 2, (p[1] + q[1]) / 2) for p in ccw1 for q in ccw2]
    return convex_hull_2d(sums)


def _face_simplices(body: Polytope, face: frozenset, k: int) -> list[tuple[int, ...]]:
    """Pulling triangulation of a k-face (a set of vertex indices): its
    smallest vertex coned over the triangulated (k-1)-faces missing it.
    Those are the intersections with facets of the body that have
    affine rank k-1."""
    if len(face) == k + 1:
        return [tuple(sorted(face))]
    apex = min(face)
    subfaces = set()
    for f in body.facets:
        sub = face & set(f.vertex_indices)
        pts = [body.vertices[i] for i in sorted(sub)]
        if (apex not in sub and len(pts) >= k
                and rref_rank(Matrix.from_rows([vsub(q, pts[0]) for q in pts[1:]]))[1] == k - 1):
            subfaces.add(frozenset(sub))
    return [(apex,) + s for sub in subfaces for s in _face_simplices(body, sub, k - 1)]


def reference_moments(body: Polytope) -> MomentData:
    """Test oracle for body_moments: each facet's pulling triangulation
    coned to the vertex barycenter, with the closed form of a simplex S
    whose vertex coordinate sums are c:

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
        for piece in _face_simplices(body, frozenset(f.vertex_indices), n - 1):
            s = [bary] + [body.vertices[i] for i in piece]
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
