import random
from fractions import Fraction as F

import pytest

import support
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
