"""Exact full-dimensional polytopes with dual vertex/facet data.

Conventions (fixed once, relied on everywhere):
  * facets are inequalities <normal, x> <= offset, scaled so offset = 1
    whenever the offset is positive; otherwise the first nonzero normal
    entry is scaled to +-1.  With the origin interior every facet reads
    <a, x> <= 1 and polarity is a pure transcription.
  * vertices are sorted lexicographically; facets by (normal, offset).
    Equality of bodies is equality of these canonical forms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    IncidenceMismatch,
    NotConvexPosition,
    NotFullDimensional,
    OriginNotInterior,
    SingularMatrix,
    ValidationError,
)
from .exactnum import Matrix, Vec, _bareiss, _cleared, _int_rows, dot, inverse, rank, rat, vec, vsub

Point = Vec


@dataclass(frozen=True)
class Facet:
    normal: Vec
    offset: Fraction
    vertex_indices: tuple[int, ...]


class Polytope:
    """Immutable full-dimensional polytope, vertices + facets, all exact."""

    __slots__ = ("dim", "vertices", "facets", "_hash")

    def __init__(self, dim: int, vertices: tuple[Point, ...], facets: tuple[Facet, ...]):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Polytope is immutable")

    def __repr__(self) -> str:
        return "Polytope(dim=%d, %d vertices, %d facets)" % (
            self.dim, len(self.vertices), len(self.facets))

    def _key(self):
        return (self.dim, self.vertices,
                tuple((f.normal, f.offset, f.vertex_indices) for f in self.facets))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polytope):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def origin_interior(self) -> bool:
        return all(f.offset == 1 for f in self.facets)


def _normalize_facet(normal: Sequence[Fraction], offset: Fraction,
                     idx: tuple[int, ...]) -> Facet:
    normal = vec(normal)
    offset = rat(offset)
    if offset > 0:
        scale = offset
    else:
        first = next((x for x in normal if x != 0), None)
        if first is None:
            raise ValueError("zero facet normal")
        scale = abs(first)
    return Facet(tuple(x / scale for x in normal), offset / scale, tuple(sorted(idx)))


def _canonical(dim: int, vertices: Sequence[Point],
               facets: Iterable[tuple[Sequence[Fraction], Fraction, tuple[int, ...]]]) -> Polytope:
    """Sort vertices lexicographically, remap incidences, sort facets."""
    order = sorted(range(len(vertices)), key=lambda i: vertices[i])
    remap = {old: new for new, old in enumerate(order)}
    verts = tuple(vertices[i] for i in order)
    fs = []
    for normal, offset, idx in facets:
        fs.append(_normalize_facet(normal, offset, tuple(remap[i] for i in idx)))
    fs.sort(key=lambda f: (f.normal, f.offset))
    return Polytope(dim, verts, tuple(fs))


def _affine_rank(points: Sequence[Sequence]) -> int:
    """Dimension of the affine hull of points of ints or Fractions: the
    rank of the rows (1, p), less one."""
    if len(points) <= 1:
        return 0
    return rank([(1, *p) for p in points]) - 1


def _subfaces(p: Polytope, face: frozenset[int], k: int) -> list[frozenset[int]]:
    """The (k-1)-faces of a k-face of P, as sets of vertex indices.

    Every face of P is the intersection of the facets containing it, so
    the facets of a face are exactly its intersections with P's facets
    that have affine rank k-1.
    """
    seen: set[frozenset[int]] = set()
    out = []
    for f in p.facets:
        sub = face.intersection(f.vertex_indices)
        if len(sub) < k or sub in seen:
            continue
        seen.add(sub)
        if _affine_rank([p.vertices[i] for i in sorted(sub)]) == k - 1:
            out.append(sub)
    return out


def _pulled_simplices(p: Polytope, face: frozenset[int], k: int) -> list[tuple[int, ...]]:
    """Pulling triangulation of a k-face of P, as vertex-index tuples: its
    smallest vertex index coned over the triangulated (k-1)-faces that
    miss it."""
    if len(face) == k + 1:
        return [tuple(sorted(face))]
    apex = min(face)
    return [(apex,) + s for sub in _subfaces(p, face, k) if apex not in sub
            for s in _pulled_simplices(p, sub, k - 1)]


def _check_closed(body: Polytope) -> None:
    """The facets close up: pulling every facet with one vertex order
    triangulates the boundary consistently, so each (n-2)-face of a facet
    simplex lies in exactly two of them exactly when no facet is missing
    or listed twice."""
    n = body.dim
    count: dict[tuple[int, ...], int] = {}
    for f in body.facets:
        for simplex in _pulled_simplices(body, frozenset(f.vertex_indices), n - 1):
            for ridge in combinations(simplex, n - 1):
                count[ridge] = count.get(ridge, 0) + 1
    for ridge, c in count.items():
        if c != 2:
            raise IncidenceMismatch("the facets do not close up: the face %s of the facet "
                                    "triangulation lies in %d facet simplices, not 2"
                                    % (list(ridge), c))


def validate(vertices: Sequence[Sequence], facets: Sequence[tuple | Facet]) -> Polytope:
    """Check every polytope invariant exactly and return the canonical body.

    `facets` entries are Facet objects or (normal, offset, vertex_indices)
    triples; indices refer to the supplied vertex order.
    """
    verts = [vec(v) for v in vertices]
    if not verts:
        raise NotFullDimensional("no vertices")
    n = len(verts[0])
    if n < 1:
        raise NotFullDimensional("dimension must be >= 1")
    if any(len(v) != n for v in verts):
        raise DimensionMismatch("vertices of mixed dimension")
    if len(set(verts)) != len(verts):
        raise NotConvexPosition("duplicate vertices")
    if len(verts) < n + 1:
        raise NotFullDimensional("need at least n+1 vertices")
    if _affine_rank(verts) != n:
        raise NotFullDimensional("vertices do not affinely span R^n")

    raw = []
    for f in facets:
        if isinstance(f, Facet):
            raw.append((f.normal, f.offset, tuple(f.vertex_indices)))
        else:
            normal, offset, idx = f
            raw.append((vec(normal), rat(offset), tuple(idx)))
    for k, (normal, _, idx) in enumerate(raw):
        if len(normal) != n:
            raise DimensionMismatch("facet %d has a normal of length %d in dimension %d"
                                    % (k, len(normal), n))
        if not any(normal):
            raise ValidationError("facet %d has a zero normal" % k)
        bad = [i for i in idx if isinstance(i, bool) or not isinstance(i, int)
               or not 0 <= i < len(verts)]
        if bad:
            raise IncidenceMismatch("facet %d lists vertex indices %s outside 0..%d"
                                    % (k, bad, len(verts) - 1))

    body = _canonical(n, verts, raw)
    _check_structure(body)
    if n >= 2:
        _check_closed(body)
    return body


def _check_structure(body: Polytope) -> None:
    """Every facet is valid, lists exactly its on-plane vertices and is
    spanned by them, and every vertex is extreme.

    The tests run on cleared denominators: the vertices times the lcm D
    of their denominators, and each facet's normal and offset times the
    lcm of its own, so <a, v> against b reads <A, V> against B D.
    """
    n = body.dim
    verts = body.vertices
    d, ivs = _cleared(verts)
    normals = []
    for f in body.facets:
        [row] = _int_rows([(*f.normal, f.offset)])
        normal, offset = row[:-1], row[-1] * d
        listed = set(f.vertex_indices)
        on_plane = set()
        for i, v in enumerate(ivs):
            val = sum(a * x for a, x in zip(normal, v))
            if val > offset:
                raise NotConvexPosition(
                    "vertex %s violates facet inequality <%s, x> <= %s"
                    % (verts[i], f.normal, f.offset))
            if val == offset:
                on_plane.add(i)
        if on_plane != listed:
            raise IncidenceMismatch(
                "facet %s/%s: vertices on hyperplane %s != listed %s"
                % (f.normal, f.offset, sorted(on_plane), sorted(listed)))
        if _affine_rank([ivs[i] for i in f.vertex_indices]) != n - 1:
            raise IncidenceMismatch(
                "facet %s/%s: incident vertices do not span a hyperplane"
                % (f.normal, f.offset))
        normals.append((normal, listed))
    for i, v in enumerate(verts):
        active = [normal for normal, listed in normals if i in listed]
        if not active or rank(active) != n:
            raise NotConvexPosition(
                "vertex %s is not extreme (active facet normals do not span)" % (v,))


def _hull_1d(points: list[Point]) -> Polytope:
    lo = min(points)
    hi = max(points)
    if lo == hi:
        raise NotFullDimensional("all points equal")
    verts = [lo, hi]
    facets = [((Fraction(1),), hi[0], (1,)), ((Fraction(-1),), -lo[0], (0,))]
    return _canonical(1, verts, facets)


def convex_hull_2d(points: Iterable[Point]) -> list[Point]:
    """Vertices of the convex hull of planar points by the monotone chain,
    counterclockwise from the lexicographically smallest; fewer than
    three when the points are collinear."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out: list[Point] = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return chain(pts)[:-1] + chain(reversed(pts))[:-1]


def _hull_2d(points: list[Point]) -> Polytope:
    hull = convex_hull_2d(points)
    if len(hull) < 3:
        raise NotFullDimensional("points are collinear")
    index = {p: i for i, p in enumerate(hull)}
    facets = []
    m = len(hull)
    for k in range(m):
        p, q = hull[k], hull[(k + 1) % m]
        d = vsub(q, p)
        normal = (d[1], -d[0])  # outward for ccw order
        facets.append((normal, dot(normal, p), (index[p], index[q])))
    return _canonical(2, hull, facets)


def hull_facets(points: Sequence[Sequence], check: bool = True) -> Polytope:
    """Convex hull by brute-force supporting-hyperplane enumeration.

    Every n-subset of points proposes a hyperplane; supporting ones whose
    contact set is (n-1)-dimensional are facets.  O(m^(n+1)) is accepted:
    exactness and simplicity dominate at desk scale (n <= 4, ~40 points).
    Interior input points are silently dropped.

    The enumeration runs over integers: the points are first scaled by
    the lcm d of their coordinate denominators, a homothety that keeps
    their order and their facets.  A subset's normal is the vector of
    signed maximal minors of its integer difference rows, divided by the
    gcd of its entries; two normals are positive multiples of each other
    exactly when these primitive forms are equal, so supporting
    hyperplanes are deduplicated on them.  A facet <a, y> <= c of the
    scaled points is <a, x> <= c/d of the input, a positive multiple of
    the normal and offset the same enumeration finds in Fraction
    arithmetic, so the normalized facets are identical.
    """
    pts = [vec(p) for p in points]
    if not pts:
        raise NotFullDimensional("no points")
    n = len(pts[0])
    if n < 1:
        raise NotFullDimensional("dimension must be >= 1")
    pts = sorted(set(pts))
    if _affine_rank(pts) != n:
        raise NotFullDimensional("points do not affinely span R^n")
    if n == 1:
        return _hull_1d(pts)
    if n == 2:
        return _hull_2d(pts)

    d, ipts = _cleared(pts)
    supports: dict[tuple[int, ...], int] = {}
    for subset in combinations(range(len(ipts)), n):
        base = ipts[subset[0]]
        rows = [[a - b for a, b in zip(ipts[i], base)] for i in subset[1:]]
        normal = [(-1) ** j * _bareiss([row[:j] + row[j + 1:] for row in rows])
                  for j in range(n)]
        g = gcd(*normal)
        if g == 0:
            continue
        normal = [x // g for x in normal]
        offset = sum(a * b for a, b in zip(normal, base))
        above = below = False
        for p in ipts:
            val = sum(a * b for a, b in zip(normal, p))
            if val > offset:
                above = True
            elif val < offset:
                below = True
            if above and below:
                break
        if above and below:
            continue
        if above:
            normal = [-x for x in normal]
            offset = -offset
        supports.setdefault(tuple(normal), offset)

    facet_data = []
    for normal, offset in supports.items():
        incident = [i for i, p in enumerate(ipts)
                    if sum(a * b for a, b in zip(normal, p)) == offset]
        if _affine_rank([ipts[i] for i in incident]) == n - 1:
            facet_data.append((normal, Fraction(offset, d), incident))

    vertex_ids = []
    for i, p in enumerate(pts):
        active = [normal for normal, offset, inc in facet_data if i in set(inc)]
        if len(active) >= n and rank(active) == n:
            vertex_ids.append(i)
    keep = {old: new for new, old in enumerate(vertex_ids)}
    verts = [pts[i] for i in vertex_ids]
    facets = [(normal, offset, tuple(keep[i] for i in inc if i in keep))
              for normal, offset, inc in facet_data]
    body = _canonical(n, verts, facets)
    if check:
        _check_structure(body)
    return body


def polar(p: Polytope) -> Polytope:
    """Polar body {y : <x, y> <= 1 for all x in P}; pure transcription.

    Vertices of the polar are the facet normals of P, facets of the polar
    come from the vertices of P with incidences transposed.
    """
    if not p.origin_interior:
        raise OriginNotInterior("polar needs the origin strictly inside")
    verts = [f.normal for f in p.facets]
    facets = []
    for i, v in enumerate(p.vertices):
        incident = tuple(j for j, f in enumerate(p.facets) if i in f.vertex_indices)
        facets.append((v, Fraction(1), incident))
    return _canonical(p.dim, verts, facets)


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    if p.dim != q.dim:
        raise DimensionMismatch("summands live in different dimensions")
    sums = [tuple(a + b for a, b in zip(v, w)) for v in p.vertices for w in q.vertices]
    return hull_facets(sums, check=False)


def gauge_value(p: Polytope, x: Sequence) -> Fraction:
    """Minkowski functional ||x||_P = min {t >= 0 : x in t P}."""
    if not p.origin_interior:
        raise OriginNotInterior("gauge needs the origin strictly inside")
    x = vec(x)
    return max(max(dot(f.normal, x) for f in p.facets), Fraction(0))


def support_value(p: Polytope, u: Sequence) -> Fraction:
    u = vec(u)
    return max(dot(v, u) for v in p.vertices)


def translate(p: Polytope, c: Sequence) -> Polytope:
    c = vec(c)
    verts = [tuple(a + b for a, b in zip(v, c)) for v in p.vertices]
    facets = [(f.normal, f.offset + dot(f.normal, c), f.vertex_indices) for f in p.facets]
    return _canonical(p.dim, verts, facets)


def affine_image(p: Polytope, m: Sequence[Sequence] | Matrix, c: Sequence | None = None) -> Polytope:
    """Image M P + c with facet normals mapped by the inverse transpose."""
    mat = m if isinstance(m, Matrix) else Matrix.from_rows(m)
    if mat.nrows != p.dim or mat.ncols != p.dim:
        raise DimensionMismatch("matrix shape does not match the polytope dimension")
    try:
        minv = inverse(mat)
    except ZeroDivisionError:
        raise SingularMatrix("affine image needs an invertible matrix") from None
    shift = vec(c) if c is not None else tuple(Fraction(0) for _ in range(p.dim))
    verts = [tuple(a + b for a, b in zip(mat.matvec(v), shift)) for v in p.vertices]
    minv_t = minv.transpose()
    facets = []
    for f in p.facets:
        normal = minv_t.matvec(f.normal)
        facets.append((normal, f.offset + dot(normal, shift), f.vertex_indices))
    return _canonical(p.dim, verts, facets)


def scale(p: Polytope, c: Fraction) -> Polytope:
    c = rat(c)
    if c == 0:
        raise SingularMatrix("scale factor must be nonzero")
    n = p.dim
    m = Matrix.from_rows([[c if i == j else Fraction(0) for j in range(n)] for i in range(n)])
    return affine_image(p, m)


# ---------------------------------------------------------------------------
# JSON interchange: {"dim": n, "vertices": [["p/q", ...], ...],
#                    "facets": [{"normal": [...], "offset": "p/q",
#                                "vertices": [i, ...]}, ...]}
# "facets" is optional; hull_facets reconstructs it when absent.

def to_json_dict(p: Polytope) -> dict:
    return {
        "dim": p.dim,
        "vertices": [[str(x) for x in v] for v in p.vertices],
        "facets": [
            {
                "normal": [str(x) for x in f.normal],
                "offset": str(f.offset),
                "vertices": list(f.vertex_indices),
            }
            for f in p.facets
        ],
    }


def from_json_dict(data: dict) -> Polytope:
    try:
        verts = [[rat(x) for x in v] for v in data["vertices"]]
        facets = [(vec(f["normal"]), rat(f["offset"]), tuple(f["vertices"]))
                  for f in data.get("facets") or ()]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError("malformed polytope JSON (%s: %s)"
                              % (type(exc).__name__, exc)) from None
    declared = data.get("dim")
    if "dim" in data and (isinstance(declared, bool) or not isinstance(declared, int)):
        raise ValidationError("declared dim must be an integer, got %r" % (declared,))
    body = validate(verts, facets) if facets else hull_facets(verts)
    if "dim" in data and body.dim != declared:
        raise DimensionMismatch("declared dim %d != coordinate dim %d" % (declared, body.dim))
    return body


def load(path: str) -> Polytope:
    with open(path) as fh:
        return from_json_dict(json.load(fh))


def dump(p: Polytope, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(p), fh, indent=2)
        fh.write("\n")
