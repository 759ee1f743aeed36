import random
from fractions import Fraction as F

import pytest

import support
from isodecomp.decomp import (
    dependence_space,
    facewise_affine_space,
    hypergraph_components,
    is_facewise_affine,
    smilansky_dimension,
    summand_pair,
    symmetry_analysis,
    threshold_check,
)
from isodecomp import decomp
from isodecomp.errors import GroupTooLarge, InternalCheckFailed, NotASymmetry
from isodecomp.exactnum import Matrix, determinant, dot
from isodecomp.polytope import affine_image, hull_facets, minkowski_sum, polar, scale, translate
from isodecomp.variations import eps_bound


def hexagonal_prism():
    hex_pts = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    return hull_facets([(x, y, z) for x, y in hex_pts for z in (-1, 1)])


def triangular_prism():
    return hull_facets([(2, -1, -1), (-1, 2, -1), (-1, -1, -1),
                        (2, -1, 1), (-1, 2, 1), (-1, -1, 1)])


def test_dependence_space_dimensions(cube3, octahedron):
    for f in octahedron.facets:  # triangles: no dependences
        assert dependence_space(octahedron, f).dimension == 0
    square_facet = cube3.facets[0]
    ds = dependence_space(cube3, square_facet)
    assert ds.dimension == 1
    x = ds.basis[0]
    assert sorted(x) == [F(-1), F(-1), F(1), F(1)]
    assert sum(x) == 0

    prism = hexagonal_prism()
    hex_facet = next(f for f in prism.facets if len(f.vertex_indices) == 6)
    assert dependence_space(prism, hex_facet).dimension == 3


def test_facewise_dimensions(octahedron, cube3, hexagon):
    assert facewise_affine_space(octahedron).dimension == 6
    assert facewise_affine_space(cube3).dimension == 4
    assert facewise_affine_space(hexagon).dimension == 6
    for n in (2, 3, 4):
        assert facewise_affine_space(support.centered_simplex(n)).dimension == n + 1
    # simplicial: dimension equals the vertex count
    assert facewise_affine_space(support.cross_polytope(4)).dimension == 8


def test_smilansky_agrees(octahedron, cube3):
    assert smilansky_dimension(octahedron) == 6
    assert smilansky_dimension(cube3) == 4
    rng = random.Random(13)
    for n, npts in ((2, 9), (3, 8), (4, 7)):
        body = support.random_polytope(rng, n, npts)
        assert smilansky_dimension(body) == facewise_affine_space(body).dimension


def test_dimension_bounds_and_simplicial_equality():
    rng = random.Random(29)
    for n, npts in ((2, 8), (3, 8)):
        for _ in range(4):
            body = support.random_polytope(rng, n, npts)
            dim = facewise_affine_space(body).dimension
            m = len(body.vertices)
            assert n + 1 <= dim <= m
            simplicial = all(len(f.vertex_indices) == n for f in body.facets)
            assert (dim == m) == simplicial


def test_dim_affine_invariance(cube3):
    rng = random.Random(41)
    base = facewise_affine_space(cube3).dimension
    for _ in range(3):
        while True:
            m = [[F(rng.randrange(-2, 3)) for _ in range(3)] for _ in range(3)]
            if determinant(Matrix.from_rows(m)) != 0:
                break
        image = affine_image(cube3, m, [F(rng.randrange(-2, 3)) for _ in range(3)])
        assert facewise_affine_space(image).dimension == base


def test_threshold_examples(hexagon, triangle_o):
    rep = threshold_check(triangle_o)
    assert (rep.dim, rep.bound, rep.exceeds) == (3, 5, False)
    rep = threshold_check(hexagon)
    assert (rep.dim, rep.bound, rep.exceeds) == (6, 5, True)
    assert threshold_check(support.centered_simplex(3)).bound == 9


def test_cross_check_failures_raise_internal_check(monkeypatch, octahedron):
    """A disagreement between the two routes to dim F(P) is a fault of the
    program, reported as InternalCheckFailed, not as a bare assertion."""
    space = facewise_affine_space(octahedron)
    short = decomp.FacewiseAffineSpace(octahedron, space.basis[:1])
    monkeypatch.setattr(decomp, "facewise_affine_space", lambda p: short)
    with pytest.raises(InternalCheckFailed, match="dimension cross-check"):
        smilansky_dimension(octahedron)
    with pytest.raises(InternalCheckFailed, match="component lower bound"):
        hypergraph_components(octahedron)


def test_hypergraph_components(octahedron, cube3):
    rep = hypergraph_components(octahedron)
    assert len(rep.components) == 6
    assert rep.dims == (0,) * 6
    assert rep.lower_bound == 6 == facewise_affine_space(octahedron).dimension

    rep = hypergraph_components(cube3)
    assert len(rep.components) == 1
    assert rep.dims == (3,)
    assert rep.lower_bound == 4 == facewise_affine_space(cube3).dimension

    rep = hypergraph_components(triangular_prism())
    assert len(rep.components) == 1
    assert rep.dims == (3,)
    assert rep.lower_bound == 4


def test_single_facet_component_dimension():
    # square pyramid over [-1,1]^2: one non-simplex facet, its own component
    pyramid = hull_facets([(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0),
                           (0, 0, 1)])
    rep = hypergraph_components(pyramid)
    dims = sorted(rep.dims)
    assert dims == [0, 2]  # apex isolated, base facet is a single-facet component
    assert rep.lower_bound == 4


def test_summand_pair_reconstruction(hexagon):
    g = (F(1), F(0), F(0), F(0), F(0), F(0))
    eps = eps_bound(hexagon, g)
    q, r = summand_pair(hexagon, g, eps)
    assert minkowski_sum(q, r) == scale(polar(hexagon), 2)
    # the pair is not a pair of homothets of the polar
    assert q != r


def test_summand_pair_constant_speed_gives_homothets(hexagon):
    ones = (F(1),) * 6
    q, r = summand_pair(hexagon, ones, F(1, 4))
    assert q == scale(polar(hexagon), F(5, 4))
    assert r == scale(polar(hexagon), F(3, 4))
    assert minkowski_sum(q, r) == scale(polar(hexagon), 2)


def test_summand_pair_linear_speed_gives_translates(cube3):
    w = (F(1, 8), F(0), F(0))
    g = tuple(dot(w, v) for v in cube3.vertices)
    assert is_facewise_affine(cube3, g)
    eps = eps_bound(cube3, g)
    q, r = summand_pair(cube3, g, eps)
    dual = polar(cube3)
    assert q == translate(dual, [eps * x for x in w])
    assert r == translate(dual, [-eps * x for x in w])


def test_summand_pair_random_suite():
    rng = random.Random(101)
    for _ in range(5):
        body = support.random_polytope(rng, 2, 7)
        g = support.random_speed(rng, body)
        eps = eps_bound(body, g)
        q, r = summand_pair(body, g, eps)
        assert minkowski_sum(q, r) == scale(polar(body), 2)


NEG_I3 = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]
REFLECTIONS_3 = [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
                 [[1, 0, 0], [0, -1, 0], [0, 0, 1]],
                 [[1, 0, 0], [0, 1, 0], [0, 0, -1]]]
SIGNED_PERMS_3 = [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
                  [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                  [[0, 1, 0], [0, 0, 1], [1, 0, 0]]]


def test_symmetry_bounds_cube(cube3):
    rep = symmetry_analysis(cube3, [NEG_I3])
    assert (rep.group.v_dim, rep.group.w_dim) == (6, 0)
    rep = symmetry_analysis(cube3, REFLECTIONS_3)
    assert (rep.group.v_dim, rep.group.w_dim) == (3, 0)
    rep = symmetry_analysis(cube3, SIGNED_PERMS_3)
    assert (rep.group.v_dim, rep.group.w_dim) == (1, 0)
    assert len(rep.group.elements) == 48
    assert rep.satisfies


def test_symmetry_v_dim_weakly_decreasing(cube3):
    dims = []
    gens = []
    for g in ([NEG_I3] + REFLECTIONS_3[:2]):
        gens.append(g)
        dims.append(symmetry_analysis(cube3, gens).group.v_dim)
    assert dims == sorted(dims, reverse=True)


def test_symmetry_fixed_space_within_f(cube3):
    rep = symmetry_analysis(cube3, [NEG_I3])
    assert rep.fixed_space_dim <= facewise_affine_space(cube3).dimension
    assert rep.fixed_space_dim == 1  # only the constant maps survive -id


def test_symmetry_errors(cube3, hexagon, triangle_o):
    with pytest.raises(NotASymmetry):
        symmetry_analysis(cube3, [[[2, 0, 0], [0, 1, 0], [0, 0, 1]]])
    rot_hexagon = [[0, -1], [1, -1]]  # maps the hexagon's vertex set to itself but not orthogonal
    with pytest.raises(NotASymmetry):
        symmetry_analysis(hexagon, [rot_hexagon])
    with pytest.raises(NotASymmetry):
        # orthogonal, but not a symmetry of the triangle
        symmetry_analysis(triangle_o, [[[1, 0], [0, -1]]])
    with pytest.raises(GroupTooLarge):
        symmetry_analysis(cube3, SIGNED_PERMS_3, cap=10)


def test_summand_pair_rejects_large_eps(hexagon):
    from isodecomp.errors import EpsilonTooLarge

    g = (F(1), F(0), F(0), F(0), F(0), F(0))
    with pytest.raises(EpsilonTooLarge):
        summand_pair(hexagon, g, 100 * eps_bound(hexagon, g))
