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
from .exactnum import Matrix, Vec, dot, inverse, rat, rref_rank, vec, vsub

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


def _affine_rank(points: Sequence[Point]) -> int:
    if len(points) <= 1:
        return 0
    m = Matrix.from_rows([vsub(p, points[0]) for p in points[1:]], len(points[0]))
    return rref_rank(m)[1]


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
    for k, (_, _, idx) in enumerate(raw):
        bad = [i for i in idx if isinstance(i, bool) or not isinstance(i, int)
               or not 0 <= i < len(verts)]
        if bad:
            raise IncidenceMismatch("facet %d lists vertex indices %s outside 0..%d"
                                    % (k, bad, len(verts) - 1))

    body = _canonical(n, verts, raw)
    _check_structure(body)
    return body


def _check_structure(body: Polytope) -> None:
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
        if _affine_rank([verts[i] for i in f.vertex_indices]) != n - 1:
            raise IncidenceMismatch(
                "facet %s/%s: incident vertices do not span a hyperplane"
                % (f.normal, f.offset))
    for i, v in enumerate(verts):
        active = [f.normal for f in body.facets if dot(f.normal, v) == f.offset]
        if not active or rref_rank(Matrix.from_rows(active, n))[1] != n:
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


def _maximal_minors(rows: list[Vec], n: int) -> Vec:
    """Kernel vector of an (n-1) x n matrix via signed maximal minors."""
    from .exactnum import determinant

    out = []
    sign = 1
    for j in range(n):
        sub = Matrix.from_rows([[row[k] for k in range(n) if k != j] for row in rows], n - 1)
        out.append(sign * determinant(sub))
        sign = -sign
    return tuple(out)


def hull_facets(points: Sequence[Sequence], check: bool = True) -> Polytope:
    """Convex hull by brute-force supporting-hyperplane enumeration.

    Every n-subset of points proposes a hyperplane; supporting ones whose
    contact set is (n-1)-dimensional are facets.  O(m^(n+1)) is accepted:
    exactness and simplicity dominate at desk scale (n <= 4, ~40 points).
    Interior input points are silently dropped.
    """
    pts = [vec(p) for p in points]
    if not pts:
        raise NotFullDimensional("no points")
    n = len(pts[0])
    pts = sorted(set(pts))
    if _affine_rank(pts) != n:
        raise NotFullDimensional("points do not affinely span R^n")
    if n == 1:
        return _hull_1d(pts)
    if n == 2:
        return _hull_2d(pts)

    m = len(pts)
    supports: dict[tuple, tuple[Vec, Fraction]] = {}
    for subset in combinations(range(m), n):
        base = pts[subset[0]]
        rows = [vsub(pts[i], base) for i in subset[1:]]
        normal = _maximal_minors(rows, n)
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
        first = next(x for x in normal if x != 0)
        scale = abs(first)
        key = (tuple(x / scale for x in normal), offset / scale)
        if key not in supports:
            supports[key] = (normal, offset)

    facet_data = []
    for normal, offset in supports.values():
        incident = [i for i, p in enumerate(pts) if dot(normal, p) == offset]
        if _affine_rank([pts[i] for i in incident]) == n - 1:
            facet_data.append((normal, offset, incident))

    vertex_ids = []
    for i, p in enumerate(pts):
        active = [normal for normal, offset, inc in facet_data if i in set(inc)]
        if len(active) >= n and rref_rank(Matrix.from_rows(active, n))[1] == n:
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
