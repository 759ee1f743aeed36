import random
from fractions import Fraction as F
from itertools import product
from math import factorial, sqrt

import pytest

import support
from isodecomp import moments, polytope
from isodecomp.decomp import facewise_affine_space
from isodecomp.errors import UnsupportedDegree
from isodecomp.exactnum import Matrix, determinant, vsub
from isodecomp.moments import (
    body_moments,
    boundary_weights,
    cone_moments,
    boundary_moment,
    isotropy,
    l_pow_2n,
    poly_const,
    poly_norm2,
)
from isodecomp.polytope import affine_image, hull_facets, scale, translate, validate
from isodecomp.variations import eps_bound

UNIT_SIMPLEX_2D = [(0, 0), (1, 0), (0, 1)]
UNIT_SIMPLEX_3D = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


# hand-computed by iterated integration over {x >= 0, y >= 0, x + y <= 1}:
# int 1 = 1/2, int x^2 = int_0^1 x^2 (1-x) dx = 1/12,
# int x y = int_0^1 x (1-x)^2 / 2 dx = 1/24; the degree 3 and 4 values and
# the 3-D ones over the unit simplex follow from alpha! / (|alpha| + n)!
@pytest.mark.parametrize("alpha,expected", [
    ((0, 0), F(1, 2)),
    ((2, 0), F(1, 12)),
    ((1, 1), F(1, 24)),
    ((2, 1), F(1, 60)),
    ((2, 2), F(1, 180)),
    ((4, 0), F(1, 30)),
    ((1, 1, 1), F(1, 720)),
    ((2, 1, 1), F(1, 2520)),
])
def test_simplex_monomial_integral(alpha, expected):
    simplex = UNIT_SIMPLEX_2D if len(alpha) == 2 else UNIT_SIMPLEX_3D
    assert support.simplex_monomial_integral(simplex, alpha) == expected


def test_simplex_monomial_degree_cap():
    with pytest.raises(UnsupportedDegree):
        support.simplex_monomial_integral(UNIT_SIMPLEX_2D, (3, 2))


def test_simplex_monomial_matches_body_moments(standard_triangle):
    md = body_moments(standard_triangle)
    assert md.volume == support.simplex_monomial_integral(UNIT_SIMPLEX_2D, (0, 0))
    assert md.first_moments[0] == support.simplex_monomial_integral(UNIT_SIMPLEX_2D, (1, 0))
    assert md.second_moments.rows[0][0] == support.simplex_monomial_integral(UNIT_SIMPLEX_2D, (2, 0))
    assert md.second_moments.rows[0][1] == support.simplex_monomial_integral(UNIT_SIMPLEX_2D, (1, 1))


def test_body_moments_triangle(standard_triangle):
    md = body_moments(standard_triangle)
    assert md.volume == F(1, 2)
    assert md.first_moments == (F(1, 6), F(1, 6))
    assert md.second_moments.rows == ((F(1, 12), F(1, 24)), (F(1, 24), F(1, 12)))


def nonsimplicial_in_two_frames():
    """The hexagonal prism, cube4 and the 24-cell, each also in a frame
    that moves the smallest vertex index of some facets."""
    return [b for body in support.nonsimplicial_bodies() for b in (body, support.sheared(body))]


def test_shear_frame_moves_facet_apexes():
    for body in support.nonsimplicial_bodies():
        m, c = support.shear_frame(body.dim)
        image = support.sheared(body)
        moved = [tuple(x + y for x, y in zip(Matrix.from_rows(m).matvec(v), c))
                 for v in body.vertices]
        index = [image.vertices.index(w) for w in moved]
        assert any(min(index[i] for i in f.vertex_indices) != index[min(f.vertex_indices)]
                   for f in body.facets), body


def test_facet_simplices_tile_each_facet(square, cube3, octahedron, hexagon):
    """Each facet's pulled simplices are proper (n-1)-simplices on its
    vertices whose measures add up to the facet's, as measured over the
    independent chart triangulation."""
    def measure(simplex, normal):
        rows = [vsub(q, simplex[0]) for q in simplex[1:]] + [normal]
        return abs(determinant(Matrix.from_rows(rows))) / factorial(len(normal) - 1)

    for body in [square, cube3, octahedron, hexagon, *nonsimplicial_in_two_frames()]:
        n = body.dim
        for fi, f in enumerate(body.facets):
            pieces = moments._facet_raw_table(body, fi)
            measures = [measure([body.vertices[i] for i in idx], f.normal) for idx in pieces]
            for m, idx in zip(measures, pieces):
                assert m > 0 and len(set(idx)) == n, (body, fi, idx)
                assert set(idx) <= set(f.vertex_indices), (body, fi, idx)
            chart = support._triangulate_convex_points([body.vertices[i] for i in f.vertex_indices])
            assert sum(measures) == sum(measure(s, f.normal) for s in chart), (body, fi)


def test_validated_body_is_pulled_once():
    """validate's closure check and the moments read one facet table: the
    moments after validating miss it for no facet."""
    for cache in (moments._facet_raw_table, moments._cone_table, moments.body_moments):
        cache.cache_clear()
    cell = support.cell24()
    body = validate(cell.vertices, cell.facets)
    assert moments._facet_raw_table.cache_info().misses == len(body.facets)
    moments.body_moments(body)
    info = moments._facet_raw_table.cache_info()
    assert (info.misses, info.hits) == (len(body.facets), len(body.facets))
    assert moments._facet_raw_table is polytope._facet_raw_table


def test_body_moments_match_reference(square, cube3, octahedron, hexagon, triangle_o,
                                      standard_triangle):
    """The facet route equals the barycenter cone over an independent
    facet triangulation, wherever the origin lies."""
    rng = random.Random(23)
    bodies = [square, cube3, octahedron, hexagon, triangle_o, standard_triangle,
              *nonsimplicial_in_two_frames()]
    for n, npts in ((2, 7), (3, 7), (4, 7)):
        body = support.random_polytope(rng, n, npts, centered=False)
        bodies += [body, translate(body, [F(7, 3)] * n), support.random_polytope(rng, n, npts)]
    for body in bodies:
        assert body_moments(body) == support.reference_moments(body), body


def test_cone_sums_and_boundary_weights_match_reference(square, octahedron, hexagon,
                                                       standard_triangle):
    """With unit scale the cone sums are P's moments, and the boundary
    weights summed against g = 1 give n vol, (n+2) int x x^T and
    (n+1) int x (Euler's identity), wherever the origin lies."""
    rng = random.Random(29)
    bodies = [square, octahedron, hexagon, standard_triangle, *nonsimplicial_in_two_frames()]
    for n, npts in ((2, 7), (3, 7), (4, 7)):
        body = support.random_polytope(rng, n, npts, centered=False)
        bodies += [body, translate(body, [F(7, 3)] * n)]
    for body in bodies:
        n = body.dim
        ref = support.reference_moments(body)
        assert cone_moments(body, [F(1)] * len(body.vertices)) == ref, body
        sums = [sum(row) for row in boundary_weights(body)]
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        assert sums == ([n * ref.volume]
                        + [(n + 2) * ref.second_moments.rows[i][j] for i, j in pairs]
                        + [(n + 1) * x for x in ref.first_moments]), body


def test_body_moments_cube(cube3):
    md = body_moments(cube3)
    assert md.volume == 8
    assert md.first_moments == (0, 0, 0)
    for i in range(3):
        for j in range(3):
            assert md.second_moments.rows[i][j] == (F(8, 3) if i == j else 0)


def test_moment_scaling_law(triangle_o):
    n = 2
    md = body_moments(triangle_o)
    doubled = body_moments(scale(triangle_o, 2))
    assert doubled.volume == 2 ** n * md.volume
    assert doubled.first_moments == tuple(2 ** (n + 1) * x for x in md.first_moments)
    for i in range(n):
        for j in range(n):
            assert doubled.second_moments.rows[i][j] == 2 ** (n + 2) * md.second_moments.rows[i][j]


def test_isotropy_triangle(standard_triangle):
    rep = isotropy(standard_triangle)
    assert rep.covariance.rows == ((F(1, 18), F(-1, 36)), (F(-1, 36), F(1, 18)))
    assert determinant(rep.covariance) == F(1, 432)
    assert rep.l_pow_2n == F(1, 108)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_isotropy_cube(n):
    rep = isotropy(support.cube(n))
    for i in range(n):
        for j in range(n):
            assert rep.covariance.rows[i][j] == (F(1, 3) if i == j else 0)
    assert rep.l_pow_2n == F(1, 12 ** n)


def test_l2n_affine_invariance():
    rng = random.Random(9)
    body = support.random_polytope(rng, 2, 7)
    base = isotropy(body).l_pow_2n
    for _ in range(5):
        while True:
            m = [[F(rng.randrange(-3, 4)) for _ in range(2)] for _ in range(2)]
            if determinant(Matrix.from_rows(m)) != 0:
                break
        image = affine_image(body, m, (F(rng.randrange(-3, 4)), F(rng.randrange(-3, 4))))
        assert isotropy(image).l_pow_2n == base


def test_l2n_and_dim_f_frame_invariance_non_simplicial(cube3):
    """Pulling cones each facet from its smallest vertex index, which a
    frame change moves; L^(2n) and dim F(P) must not notice."""
    rng = random.Random(41)
    for body in [cube3, *support.nonsimplicial_bodies()]:
        n = body.dim
        base, dim_f = l_pow_2n(body), facewise_affine_space(body).dimension
        for _ in range(2):
            while True:
                m = [[F(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(n)]
                     for _ in range(n)]
                if determinant(Matrix.from_rows(m)) != 0:
                    break
            image = affine_image(body, m, [F(rng.randrange(-3, 4), 2) for _ in range(n)])
            assert l_pow_2n(image) == base, (body, m)
            assert facewise_affine_space(image).dimension == dim_f, (body, m)


def test_isotropizing_residual_small(standard_triangle):
    assert isotropy(standard_triangle).residual < 1e-10


def test_divergence_identities_on_fixtures(square, cube3, octahedron, hexagon, triangle_o):
    """Euler's identity ties the facet Dirichlet sums of `boundary_moment`
    to the cone sums of `body_moments`, wherever the origin lies."""
    rng = random.Random(31)
    bodies = [square, cube3, octahedron, hexagon, triangle_o, support.cross_polytope(4)]
    for n, npts in ((2, 8), (3, 7), (4, 7)):
        body = support.random_polytope(rng, n, npts)
        bodies += [body, translate(body, [F(7, 3)] * n)]
    for body in bodies:
        n = body.dim
        md = body_moments(body)
        assert boundary_moment(body, poly_const(1, n)) == n * md.volume
        assert boundary_moment(body, poly_norm2(n)) == (n + 2) * md.norm2_integral()


def test_cube_weighted_area_sum(cube3):
    total = sum(support.facet_moment_by_fractions(cube3, i, []) for i in range(6))
    assert total == 24  # n * vol = 3 * 8


def segment_from_origin():
    """[0, 5/2]: a 1-D body whose facet at the origin has offset 0."""
    return hull_facets([(F(0),), (F(5, 2),)])


def test_boundary_moment_matches_fraction_oracle(square, cube3, octahedron, hexagon, triangle_o,
                                                 standard_triangle):
    """Every monomial of degree <= 4 with a rational coefficient, one at a
    time and all together, integrates over the facets as the Fraction
    Dirichlet route does, also off the origin and in one dimension."""
    bodies = [square, cube3, octahedron, hexagon, triangle_o, standard_triangle,
              *support.uncentred_bodies(), support.cross_polytope(4), segment_from_origin()]
    for body in bodies:
        n = body.dim
        monomials = [alpha for alpha in product(range(5), repeat=n) if sum(alpha) <= 4]
        coeffs = {alpha: F(-1) ** r * F(r + 2, 2 * r + 3) for r, alpha in enumerate(monomials)}
        expected = {alpha: support.boundary_moment_by_fractions(body, {alpha: c})
                    for alpha, c in coeffs.items()}
        for alpha, c in coeffs.items():
            assert boundary_moment(body, {alpha: c}) == expected[alpha], (body, alpha)
        assert boundary_moment(body, coeffs) == sum(expected.values()), body
        assert boundary_moment(body, {}) == 0
        with pytest.raises(UnsupportedDegree):
            boundary_moment(body, {(5,) + (0,) * (n - 1): 1})


def test_monte_carlo_sanity():
    rng = random.Random(17)
    body = support.random_polytope(rng, 2, 7)
    exact = float(body_moments(body).volume)
    lo = [min(float(v[i]) for v in body.vertices) for i in range(2)]
    hi = [max(float(v[i]) for v in body.vertices) for i in range(2)]
    box = (hi[0] - lo[0]) * (hi[1] - lo[1])
    n_samples = 20000
    facets = [([float(x) for x in f.normal], float(f.offset)) for f in body.facets]
    hits = 0
    for _ in range(n_samples):
        x = lo[0] + (hi[0] - lo[0]) * rng.random()
        y = lo[1] + (hi[1] - lo[1]) * rng.random()
        if all(a[0] * x + a[1] * y <= b + 1e-12 for a, b in facets):
            hits += 1
    p = hits / n_samples
    estimate = p * box
    sigma = box * sqrt(max(p * (1 - p), 1e-12) / n_samples)
    assert abs(estimate - exact) <= 3 * sigma


def test_second_moments_positive_definite_guard():
    rng = random.Random(4)
    body = support.random_polytope(rng, 3, 6)
    md = body_moments(body)
    for k in range(1, 4):
        sub = Matrix.from_rows([row[:k] for row in md.second_moments.rows[:k]])
        assert determinant(sub) > 0


def test_cone_moments_match_fraction_oracle():
    """The integer cone sums equal the Fraction cone sums exactly: at unit
    scale and at scale 1 + t g for t = +-h, +-2h, with h = 1/10^9 and
    h = eps/2, and at t = +-1/10^9, +-2/10^9 off the origin."""
    rng = random.Random(59)
    for body in support.oracle_bodies():
        one = [F(1)] * len(body.vertices)
        assert cone_moments(body, one) == support.cone_moments_by_fractions(body, one), body
        for g in support.oracle_speeds(body, rng):
            for h in (F(1, 10 ** 9), eps_bound(body, g) / 2):
                for k in (-2, -1, 1, 2):
                    scale = [1 + k * h * x for x in g]
                    assert (cone_moments(body, scale)
                            == support.cone_moments_by_fractions(body, scale)), (body, g, k * h)
    for body in support.uncentred_bodies():
        assert any(f.offset < 0 for f in body.facets)
        for g in support.oracle_speeds(body, rng):
            for k in (-2, -1, 1, 2):
                scale = [1 + F(k, 10 ** 9) * x for x in g]
                assert (cone_moments(body, scale)
                        == support.cone_moments_by_fractions(body, scale)), (body, g, k)


def test_second_variation_weights_match_facet_moments():
    """The assembled quadratic forms equal the facet-by-facet Fraction
    Dirichlet sums of g^2 and g^2 x_i x_j, also off the origin and for
    vertex values that are not facewise affine."""
    rng = random.Random(61)
    for body in support.uncentred_bodies() + [support.cell24(), support.random_polytope(rng, 4, 8)]:
        n = body.dim
        x = list(zip(*body.vertices))
        den, w0, w = moments.second_variation_weights(body)
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        arbitrary = tuple(F(rng.randrange(-9, 10), rng.randrange(1, 9)) for _ in body.vertices)
        for g in support.oracle_speeds(body, rng) + [arbitrary]:
            def form(mat):
                return sum(a * b * mat[u][v] for u, a in enumerate(g)
                           for v, b in enumerate(g)) / den

            def facet_sum(factors):
                return sum((support.facet_moment_by_fractions(body, fi, factors)
                            for fi in range(len(body.facets))), F(0))

            assert form(w0) == facet_sum([g, g]), (body, g)
            for (i, j), mat in zip(pairs, w):
                assert form(mat) == facet_sum([g, g, x[i], x[j]]), (body, g, i, j)
