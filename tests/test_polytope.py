import itertools
import random
from fractions import Fraction as F

import pytest

import support
from isodecomp import polytope
from isodecomp.errors import (
    DimensionMismatch,
    IncidenceMismatch,
    NotConvexPosition,
    NotFullDimensional,
    OriginNotInterior,
    SingularMatrix,
    ValidationError,
)
from isodecomp.polytope import (
    Facet,
    Polytope,
    _check_structure,
    _subfaces,
    affine_image,
    from_json_dict,
    gauge_value,
    hull_facets,
    minkowski_sum,
    polar,
    scale,
    support_value,
    to_json_dict,
    translate,
    validate,
)
from isodecomp.variations import ShadowSystem, rs_speed_space, shadow_polytope


def test_validate_square(square):
    body = validate([v for v in square.vertices],
                    [(f.normal, f.offset, f.vertex_indices) for f in square.facets])
    assert body == square


def test_validate_rejects_interior_point_as_vertex(square):
    verts = list(square.vertices) + [(F(0), F(0))]
    facets = [(f.normal, f.offset, f.vertex_indices) for f in square.facets]
    with pytest.raises(NotConvexPosition):
        validate(verts, facets)


def test_validate_rejects_incidence_mismatch():
    # facet x+y <= 1 lists only two of its vertices, the third sits on the line
    verts = [(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 2))]
    facets = [
        ((0, -1), 0, (0, 1)),
        ((-1, 0), 0, (0, 2)),
        ((1, 1), 1, (1, 2)),
    ]
    with pytest.raises(IncidenceMismatch):
        validate(verts, facets)


def _cuboctahedron():
    return hull_facets([p for p in itertools.product((-1, 0, 1), repeat=3)
                        if sorted(map(abs, p)) == [0, 1, 1]])


def _open_facet_lists():
    """Facet lists whose every vertex keeps n independent facets, so the
    structure check passes, but which do not close up: each read wrong
    exact values before the closure check (volume 7/6 for 4/3, 5/8 for
    2/3, 5 for 4, and L^(2n) = 19/32000 for 3087/6250000)."""
    octahedron, cross4, square, cubo = (support.cross_polytope(3), support.cross_polytope(4),
                                        support.cube(2), _cuboctahedron())
    first_square = next(f for f in cubo.facets if len(f.vertex_indices) == 4)
    return [
        (octahedron, octahedron.facets[1:]),
        (cross4, cross4.facets[1:]),
        (square, square.facets + square.facets[:1]),
        (cubo, tuple(f for f in cubo.facets if f != first_square)),
    ]


@pytest.mark.parametrize("case", range(4), ids=["octahedron-7-of-8", "cross4-15-of-16",
                                                "square-facet-twice", "cuboctahedron-no-square"])
def test_validate_rejects_facets_that_do_not_close(case):
    body, facets = _open_facet_lists()[case]
    assert validate(body.vertices, body.facets) == body
    with pytest.raises(IncidenceMismatch, match="do not close up"):
        validate(body.vertices, facets)


@pytest.mark.parametrize("body", [support.cell24(), support.random_polytope(random.Random(1), 3, 20)],
                         ids=["cell24", "random3"])
def test_validate_accepts_closed_facet_lists(body):
    assert validate(body.vertices, body.facets) == body


def test_validate_rejects_flat_input():
    with pytest.raises(NotFullDimensional):
        hull_facets([(0, 0), (1, 1), (2, 2), (3, 3)])


def test_hull_drops_interior_points(square):
    body = hull_facets(list(square.vertices) + [(0, 0), (F(1, 2), F(1, 3))])
    assert body == square
    assert len(body.vertices) == 4 and len(body.facets) == 4


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hull_simplex(n):
    body = support.centered_simplex(n)
    assert len(body.vertices) == n + 1
    assert len(body.facets) == n + 1


def test_hull_hexagon(hexagon):
    assert len(hexagon.facets) == 6
    assert all(len(f.vertex_indices) == 2 for f in hexagon.facets)


def test_subfaces_give_the_f_vector(cube3):
    """Faces of faces, from the facets down, by the stored incidences: the
    face counts of closed-form bodies."""
    # the bipyramid over the 4-cube, apexes +-e_5: its facets conv(apex, C)
    # over the 3-cubes C meet across the cube in 4-vertex squares of rank 2
    verts = [v + (0,) for v in itertools.product((-1, 1), repeat=4)] + [
        (0, 0, 0, 0, -1), (0, 0, 0, 0, 1)]
    bipyramid = validate(verts, [
        ([s * (j == i) for j in range(4)] + [h], 1,
         [k for k, v in enumerate(verts) if s * v[i] + h * v[4] == 1])
        for i in range(4) for s in (-1, 1) for h in (-1, 1)])
    for body, f_vector in [(cube3, [12, 6]), (support.hexagonal_prism(), [18, 8]),
                           (support.cube4(), [32, 24, 8]), (support.cell24(), [96, 96, 24]),
                           (bipyramid, [64, 88, 56, 16])]:
        faces = {frozenset(f.vertex_indices) for f in body.facets}
        counts = [len(faces)]
        for k in range(body.dim - 1, 1, -1):
            faces = {sub for face in faces for sub in _subfaces(body, face, k)}
            counts.append(len(faces))
        assert counts[::-1] == f_vector, body
        assert all(len(e) == 2 for e in faces), body


def test_polar_examples(square, cube3, octahedron, triangle_o):
    assert polar(square) == support.cross_polytope(2)
    assert polar(cube3) == octahedron
    assert polar(polar(triangle_o)) == triangle_o
    assert sorted(polar(triangle_o).vertices) == sorted(
        [(F(1), F(1)), (F(-1), F(0)), (F(0), F(-1))])


def test_polar_requires_interior_origin(standard_triangle):
    with pytest.raises(OriginNotInterior):
        polar(standard_triangle)


def test_polar_involution_random():
    rng = random.Random(7)
    for _ in range(10):
        body = support.random_polytope(rng, 2, 8)
        assert polar(polar(body)) == body


def test_minkowski_sum_examples(square):
    assert minkowski_sum(square, square) == scale(square, 2)
    rotated = hull_facets([(1, 0), (0, 1), (-1, 0), (0, -1)])
    octagon = minkowski_sum(square, rotated)
    assert len(octagon.vertices) == 8 and len(octagon.facets) == 8


def test_minkowski_commutative_associative():
    rng = random.Random(3)
    a = support.random_polytope(rng, 2, 5)
    b = support.random_polytope(rng, 2, 5)
    c = support.random_polytope(rng, 2, 5)
    assert minkowski_sum(a, b) == minkowski_sum(b, a)
    assert minkowski_sum(minkowski_sum(a, b), c) == minkowski_sum(a, minkowski_sum(b, c))


def test_minkowski_dimension_mismatch(square, cube3):
    with pytest.raises(DimensionMismatch):
        minkowski_sum(square, cube3)


def test_gauge_and_support(square, triangle_o):
    assert gauge_value(square, (2, 1)) == 2
    assert gauge_value(square, (0, 0)) == 0
    # dilate by 2: the gauge of (1,1) halves to 1
    assert gauge_value(scale(triangle_o, 2), (1, 1)) == 1
    assert support_value(square, (1, 0)) == 1
    assert support_value(square, (0, 0)) == 0


def test_gauge_is_one_at_vertices():
    rng = random.Random(11)
    for _ in range(5):
        body = support.random_polytope(rng, 2, 7)
        for v in body.vertices:
            assert gauge_value(body, v) == 1


def test_support_of_polar_is_gauge(square):
    rng = random.Random(5)
    body = support.random_polytope(rng, 2, 7)
    dual = polar(body)
    for _ in range(20):
        x = (F(rng.randrange(-9, 10), 3), F(rng.randrange(-9, 10), 3))
        assert support_value(dual, x) == gauge_value(body, x)


def test_affine_image(square, cube3):
    assert affine_image(square, [[1, 0], [0, 1]]) == square
    sheared = affine_image(square, [[1, 1], [0, 1]])
    assert len(sheared.vertices) == 4
    with pytest.raises(SingularMatrix):
        affine_image(square, [[1, 1], [1, 1]])
    moved = translate(cube3, (1, 2, 3))
    assert translate(moved, (-1, -2, -3)) == cube3


def test_hull_reproduces_validated_facets():
    rng = random.Random(23)
    for n, npts in ((2, 9), (3, 8)):
        body = support.random_polytope(rng, n, npts)
        assert hull_facets(body.vertices) == body


def test_json_round_trip(cube3):
    data = to_json_dict(cube3)
    assert data["vertices"][0][0] == "-1"
    assert from_json_dict(data) == cube3
    no_facets = {"dim": 3, "vertices": data["vertices"]}
    assert from_json_dict(no_facets) == cube3


def test_json_declared_dim_and_facet_indices(cube3):
    data = to_json_dict(cube3)
    for dim in ("3", True, None, 3.0):
        with pytest.raises(ValidationError, match="declared dim must be an integer"):
            from_json_dict(dict(data, dim=dim))
    with pytest.raises(DimensionMismatch):
        from_json_dict(dict(data, dim=2))
    facets = [dict(f) for f in data["facets"]]
    facets[-1]["normal"] = facets[-1]["normal"][:2]
    with pytest.raises(DimensionMismatch, match="facet 5 has a normal of length 2"):
        from_json_dict(dict(data, facets=facets))
    for bad in (8, -1, "0"):
        facets = [dict(f) for f in data["facets"]]
        facets[2]["vertices"] = facets[2]["vertices"][:-1] + [bad]
        with pytest.raises(IncidenceMismatch, match="facet 2 lists vertex indices"):
            from_json_dict(dict(data, facets=facets))


def test_facet_normalization(triangle_o):
    assert all(f.offset == 1 for f in triangle_o.facets)
    shifted = translate(triangle_o, (10, 10))  # origin no longer interior
    assert any(f.offset != 1 for f in shifted.facets)
    for f in shifted.facets:
        lead = next(x for x in f.normal if x != 0)
        if f.offset != 1:
            assert abs(lead) == 1


def test_facet_dataclass():
    f = Facet((F(1), F(0)), F(1), (0, 1))
    assert f.vertex_indices == (0, 1)


def test_validate_normalizes_scaled_facets(square):
    scaled = [(tuple(2 * x for x in f.normal), 2 * f.offset, f.vertex_indices)
              for f in square.facets]
    assert validate(square.vertices, scaled) == square


def test_validate_rejects_empty_facet_list(square):
    with pytest.raises(NotConvexPosition):
        validate(square.vertices, [])


def test_segment_dimension_one():
    seg = hull_facets([(F(-1),), (F(2),), (F(0),)])
    assert seg.dim == 1
    assert len(seg.vertices) == 2 and len(seg.facets) == 2


def _lattice_cloud(rng, n, npts, bound=3):
    """Random lattice points with some repeated and with the origin (interior
    when the cloud surrounds it)."""
    pts = [tuple(rng.randrange(-bound, bound + 1) for _ in range(n)) for _ in range(npts)]
    return pts + pts[:3] + [(0,) * n]


def _symmetric_cloud(rng, n, npairs, bound=3):
    half = [tuple(F(rng.randrange(-bound, bound + 1), rng.randrange(1, 4)) for _ in range(n))
            for _ in range(npairs)]
    return half + [tuple(-x for x in p) for p in half]


def _wide_denominator_cloud(rng, n, npts):
    """Coordinates with mixed denominators of up to 64 bits."""
    return [tuple(F(rng.randrange(-2 ** 64, 2 ** 64), rng.choice([1, 3, rng.randrange(1, 2 ** 64)]))
                  for _ in range(n)) for _ in range(npts)]


def _cube_with_midpoints(n, face_dims):
    """Vertices of [-2, 2]^n plus the centers of its faces of the given
    dimensions: boundary points that are not vertices, and the interior
    origin when n is among them."""
    pts = []
    for signs in itertools.product((-2, 0, 2), repeat=n):
        if sum(1 for x in signs if x == 0) in (0,) + tuple(face_dims):
            pts.append(signs)
    return pts


def _minkowski_cloud(ps, qs):
    return [tuple(a + b for a, b in zip(p, q)) for p in ps for q in qs]


def _flat_cloud(rng, n, npts):
    """Points inside a hyperplane through a rational point."""
    normal = [rng.randrange(1, 4) for _ in range(n)]
    pts = []
    for _ in range(npts):
        x = [F(rng.randrange(-3, 4)) for _ in range(n - 1)]
        last = (F(1, 2) - sum(a * b for a, b in zip(normal, x))) / normal[-1]
        pts.append(tuple(x) + (last,))
    return pts


HULL_ORACLE_CASES = {
    "lattice3-%d" % s: (lambda s=s: _lattice_cloud(random.Random(s), 3, 12)) for s in range(4)
} | {
    "lattice4-%d" % s: (lambda s=s: _lattice_cloud(random.Random(s), 4, 9)) for s in range(3)
} | {
    "cube3-face-midpoints": lambda: _cube_with_midpoints(3, (2, 3)) + [(0, 2, -2), (2, 0, 2)],
    "cube4-face-midpoints": lambda: _cube_with_midpoints(4, ())
    + [(0, 0, 0, 2), (-2, 0, 0, 0), (0, 0, -2, 2), (2, 0, 2, -2)],
    "cube4": lambda: list(itertools.product((-1, 1), repeat=4)),
    "24-cell": lambda: sorted({p for s in set(itertools.permutations((1, 1, 0, 0)))
                               for p in itertools.product(*[(x, -x) if x else (0,) for x in s])}),
    "symmetric3": lambda: _symmetric_cloud(random.Random(7), 3, 6),
    "symmetric4": lambda: _symmetric_cloud(random.Random(8), 4, 5),
    "wide-denominators3": lambda: _wide_denominator_cloud(random.Random(9), 3, 9),
    "wide-denominators4": lambda: _wide_denominator_cloud(random.Random(10), 4, 8),
    "minkowski3": lambda: _minkowski_cloud(
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)],
        [(0, 0, 0), (-1, -1, 0), (F(1, 2), -1, 1), (0, 1, -1)]),
    "minkowski4": lambda: _minkowski_cloud(
        [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        [(0, 0, 0, 0), (1, 1, 1, 1), (F(-1, 3), 0, 1, 0)]),
    "flat3": lambda: _flat_cloud(random.Random(11), 3, 8),
    "flat4": lambda: _flat_cloud(random.Random(12), 4, 8),
    "equal-points": lambda: [(1, 2, 3)] * 4,
    "zero-dimensional": lambda: [()],
}


@pytest.mark.parametrize("case", sorted(HULL_ORACLE_CASES))
def test_hull_matches_fraction_oracle(case):
    """hull_facets equals the Fraction enumeration it replaced, body for body
    or exception type for exception type.  The oracle's check=True is its
    check=False body passed through _check_structure, so the enumeration
    runs once per case."""
    pts = HULL_ORACLE_CASES[case]()
    try:
        expected = support.hull_facets_by_fractions(pts, check=False)
        support.check_structure_by_fractions(expected)
    except ValidationError as exc:
        with pytest.raises(type(exc)):
            hull_facets(pts)
        return
    assert hull_facets(pts) == expected


def test_every_hull_is_checked(monkeypatch, square, octahedron):
    """Each hull reaches the structure check once, in every dimension and
    behind every caller that builds one."""
    calls = []
    check = polytope._check_structure

    def counted(body):
        calls.append(body)
        check(body)

    monkeypatch.setattr(polytope, "_check_structure", counted)
    system = ShadowSystem(square, (F(0), F(1)), (F(1), F(0), F(0), F(-1)), (F(-1), F(1)))
    cases = {
        "1-D": (lambda: hull_facets([(F(-1),), (F(2),), (F(0),)]), 1),
        "2-D": (lambda: hull_facets([(0, 0), (1, 0), (0, 1), (F(1, 4), F(1, 4))]), 1),
        "3-D": (lambda: hull_facets(list(itertools.product((0, 1), repeat=3))), 1),
        "minkowski_sum": (lambda: minkowski_sum(square, square), 1),
        "shadow_polytope": (lambda: shadow_polytope(system, F(1, 2)), 1),
        "rs_speed_space": (lambda: rs_speed_space(octahedron, (0, 0, 1)), 2),
    }
    for name, (build, count) in cases.items():
        calls.clear()
        build()
        assert len(calls) == count, name


def test_validate_rejects_a_repeated_vertex_index(square):
    """A facet that names a vertex twice is a malformed incidence list:
    its dependence rows would count the vertex twice."""
    facets = [(f.normal, f.offset, f.vertex_indices) for f in square.facets]
    normal, offset, idx = facets[0]
    with pytest.raises(IncidenceMismatch, match="facet 0 lists a vertex index twice"):
        validate(square.vertices, [(normal, offset, idx[:1] + idx)] + facets[1:])


def test_subfaces_match_the_rank_oracle():
    """The incidence walk finds the faces the affine-rank test finds, face
    by face and in the same order, from the facets down to the vertices."""
    for body in support.face_walk_bodies():
        faces = [frozenset(f.vertex_indices) for f in body.facets]
        for k in range(body.dim - 1, 0, -1):
            found = []
            for face in faces:
                subs = _subfaces(body, face, k)
                assert subs == support.subfaces_by_rank(body, face, k), (body, face)
                found += subs
            faces = list(dict.fromkeys(found))
        assert sorted(faces, key=min) == [frozenset([i]) for i in range(len(body.vertices))]


def _broken_bodies(body):
    """Four corruptions of a valid body, one per failure of the structure
    check, with the class and a phrase of the message each must raise."""
    facets = list(body.facets)
    f = facets[0]
    doubled = Facet(tuple(2 * x for x in f.normal), f.offset, f.vertex_indices)
    short = Facet(f.normal, f.offset, f.vertex_indices[1:])
    # a supporting plane that touches only vertex 0: the mean of its facet normals
    active = [g for g in facets if 0 in g.vertex_indices]
    mean = tuple(sum(xs) / len(active) for xs in zip(*(g.normal for g in active)))
    return [
        ([doubled] + facets[1:], NotConvexPosition, "violates facet inequality"),
        ([short] + facets[1:], IncidenceMismatch, "vertices on hyperplane"),
        (facets + [Facet(mean, F(1), (0,))], IncidenceMismatch, "do not span a hyperplane"),
        ([g for g in facets if g not in active], NotConvexPosition, "is not extreme"),
    ]


def _outcome(check, body):
    try:
        check(body)
    except ValidationError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", ["hexagon", "cross_polytope3", "cube3", "cube4"])
def test_structure_check_matches_fraction_oracle(name):
    """On bodies over ~64-bit mixed denominators, the integer structure
    check accepts what the Fraction check accepts and raises the same class
    and message on each of its four failures: a vertex outside a facet, a
    listed set unlike the on-plane set, incidences that do not span, and a
    vertex that is not extreme."""
    base = {"hexagon": support.hexagon, "cross_polytope3": lambda: support.cross_polytope(3),
            "cube3": lambda: support.cube(3), "cube4": support.cube4}[name]()
    body = support.mixed_denominators(base, random.Random(61))
    assert _outcome(_check_structure, body) is None
    assert _outcome(support.check_structure_by_fractions, body) is None
    for facets, cls, phrase in _broken_bodies(body):
        broken = Polytope(body.dim, body.vertices, tuple(facets))
        got = _outcome(_check_structure, broken)
        assert got == _outcome(support.check_structure_by_fractions, broken)
        assert got is not None and got[0] is cls and phrase in got[1], (phrase, got)
