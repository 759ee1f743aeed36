import random
from fractions import Fraction as F

import pytest

import support
from isodecomp import moments, variations
from isodecomp.errors import (
    CaseNotSupported,
    EpsilonTooLarge,
    NotCentered,
    StepTooLarge,
)
from isodecomp.decomp import facewise_affine_space
from isodecomp.exactnum import Matrix, determinant, inverse, kernel_basis
from isodecomp.moments import body_moments, isotropy
from isodecomp.polytope import affine_image, gauge_value, hull_facets, scale, translate
from isodecomp.variations import (
    ShadowSystem,
    boundary_first_derivatives,
    boundary_second_derivatives,
    eps_bound,
    finite_difference_report,
    gap_integral,
    kernel_direction,
    lk_first_derivative,
    lk_second_derivative,
    radial_moments,
    radial_polytope,
    rs_speed_space,
    shadow_polytope,
)


def close(a, b, tol=1e-6):
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= tol * max(1.0, abs(fa), abs(fb))


def ones(body):
    return (F(1),) * len(body.vertices)


def centered(body):
    return translate(body, [-x for x in body_moments(body).centroid()])


@pytest.fixture
def sheared_hexagon(hexagon):
    """The hexagon in another rational frame, off the origin until centered."""
    return centered(affine_image(hexagon, [[2, 1], [0, 1]], (F(1, 3), F(-1, 2))))


# ---------------------------------------------------------------------------
# eps_bound and radial_polytope

def test_eps_bound_rescaling(square):
    assert eps_bound(square, ones(square)) == F(1, 2)


def test_eps_bound_bump(square):
    g = (F(1), F(0), F(0), F(0))
    eps = eps_bound(square, g)
    assert eps == F(1, 2)
    assert radial_polytope(square, g, eps) is not None
    with pytest.raises(EpsilonTooLarge):
        radial_polytope(square, g, 4 * eps)


def test_eps_bound_linear_speed_capped(square):
    # restriction of a global linear functional with |l(v)| <= 1/4
    g = tuple(F(1, 8) * (v[0] + v[1]) for v in square.vertices)
    assert max(abs(x) for x in g) == F(1, 4)
    assert eps_bound(square, g) == 1


def test_eps_bound_zero_speed(square):
    assert eps_bound(square, (F(0),) * 4) == 1


def test_radial_identity_and_homothety(hexagon):
    assert radial_polytope(hexagon, ones(hexagon), F(0)) == hexagon
    c = F(1, 3)
    moved = radial_polytope(hexagon, tuple(c for _ in range(6)), F(1, 2))
    assert moved == scale(hexagon, 1 / (1 + F(1, 2) * c))


def test_radial_bump_validated(hexagon):
    g = (F(1), F(0), F(0), F(0), F(0), F(0))
    eps = eps_bound(hexagon, g)
    moved = radial_polytope(hexagon, g, eps / 2)
    assert len(moved.vertices) == 6
    # only the bumped vertex moved, radially
    moved_set = set(moved.vertices)
    assert sum(1 for v in hexagon.vertices if v not in moved_set) == 1


def test_radial_gauge_identity():
    rng = random.Random(19)
    for _ in range(5):
        body = support.random_polytope(rng, 2, 6)
        g = support.random_speed(rng, body)
        eps = eps_bound(body, g)
        for t in (eps / 2, -eps / 2, eps):
            moved = radial_polytope(body, g, t)
            for i, v in enumerate(body.vertices):
                assert gauge_value(moved, v) == 1 + t * g[i]


def _oracle_bodies():
    """Named fixtures plus seeded random bodies for n = 2..4, all centered."""
    prism = hull_facets([v + (s,) for v in support.hexagon().vertices for s in (-1, 1)])
    bodies = [("hexagon", support.hexagon()), ("prism", prism),
              ("cube", support.cube(3)), ("octahedron", support.cross_polytope(3))]
    rng = random.Random(41)
    for n, npts in ((2, 7), (3, 9), (4, 8)):
        for k in range(2):
            bodies.append(("random%dd-%d" % (n, k), support.random_polytope(rng, n, npts)))
    return bodies


ORACLE_BODIES = _oracle_bodies()


@pytest.mark.parametrize("body", [b for _, b in ORACLE_BODIES],
                         ids=[name for name, _ in ORACLE_BODIES])
def test_radial_moments_match_radial_body(body):
    g = support.random_speed(random.Random(len(body.vertices)), body)
    eps = eps_bound(body, g)
    for t in (F(0), eps / 2, -eps / 2, eps, -eps):
        fast = radial_moments(body, g, t)
        slow = body_moments(radial_polytope(body, g, t))
        assert fast.volume == slow.volume
        assert fast.first_moments == slow.first_moments
        assert fast.second_moments.rows == slow.second_moments.rows
    for t in (eps + F(1, 10 ** 9), -eps - F(1, 10 ** 9)):
        with pytest.raises(EpsilonTooLarge):
            radial_moments(body, g, t)


def test_radial_moments_check_sides_past_the_bound(hexagon, monkeypatch):
    # the bump at (-1,-1) puts the vertex on the line x + y = -1 through its
    # neighbours at t = 1 and inside it beyond; with the bound disabled both
    # the cone sums and the validated body must refuse
    g = (F(1),) + (F(0),) * 5
    assert eps_bound(hexagon, g) == F(1, 2)
    monkeypatch.setattr(variations, "eps_bound", lambda p, g: F(2))
    for t in (F(1), F(3, 2)):
        with pytest.raises(EpsilonTooLarge):
            radial_moments(hexagon, g, t)
        with pytest.raises(EpsilonTooLarge):
            radial_polytope(hexagon, g, t)
    assert radial_moments(hexagon, g, F(9, 10)).volume > 0


# ---------------------------------------------------------------------------
# derivative engine

def test_first_derivatives_rescaling(cube3):
    md = body_moments(cube3)
    rep = boundary_first_derivatives(cube3, ones(cube3))
    assert rep.d_vol == -3 * md.volume
    assert rep.d_x2 == -5 * md.norm2_integral()
    for i in range(3):
        assert rep.d_x[i] == -4 * md.first_moments[i]


def test_second_derivatives_rescaling(square, cube3):
    for body in (square, cube3):
        n = body.dim
        md = body_moments(body)
        rep = boundary_second_derivatives(body, ones(body))
        assert rep.dd_vol == n * (n + 1) * md.volume
    rep = boundary_second_derivatives(square, ones(square))
    assert rep.dd_x2 == F(160, 3)


def test_second_derivatives_zero_speed(square):
    rep = boundary_second_derivatives(square, (F(0),) * 4)
    assert rep.dd_vol == 0 and rep.dd_x2 == 0 and rep.d_vol == 0


def test_gap_integral_values(square):
    assert gap_integral(square, ones(square)) == F(-64, 3)
    assert gap_integral(square, (F(0),) * 4) == 0
    # far-out body: |x|^2 > n + 2 on the whole boundary, so the gap is positive
    big = scale(square, 3)
    assert gap_integral(big, ones(big)) > 0


def test_gap_integral_matches_facet_sums(hexagon, cube3):
    rng = random.Random(41)
    cases = [(hexagon, ones(hexagon)), (cube3, ones(cube3)),
             (hexagon, support.random_speed(rng, hexagon)),
             (cube3, support.random_speed(rng, cube3))]
    for n, npts in ((2, 7), (3, 7), (4, 7)):
        body = support.random_polytope(rng, n, npts)
        cases.append((body, support.random_speed(rng, body)))
    for body, g in cases:
        assert gap_integral(body, g) == support.gap_integral_by_facets(body, g), body


def test_second_derivatives_match_facet_oracle():
    """The assembled integer quadratic forms give the facet-by-facet
    second derivatives exactly, for zero, constant and random speeds."""
    rng = random.Random(67)
    for body in support.oracle_bodies():
        for g in support.oracle_speeds(body, rng):
            assert (boundary_second_derivatives(body, g)
                    == support.second_derivatives_by_facets(body, g)), (body, g)


def test_second_variation_strict_inequality():
    rng = random.Random(23)
    for n, npts in ((2, 7), (3, 6)):
        for _ in range(4):
            body = support.random_polytope(rng, n, npts)
            g = support.random_speed(rng, body)
            rep = boundary_second_derivatives(body, g)
            lhs = rep.dd_x2 - (n + 2) * rep.dd_vol
            rhs = (n + 3) * gap_integral(body, g)
            assert lhs > rhs  # exact rational strictness for nonzero speeds


def test_fd_oracle_and_report_agree():
    rng = random.Random(29)
    h = F(1, 1000)
    body = support.random_polytope(rng, 2, 6)
    g = support.random_speed(rng, body, min_eps=4 * h)
    exact = boundary_second_derivatives(body, g)
    fd = finite_difference_report(body, g, h)
    assert close(exact.d_vol, fd.d_vol)
    assert close(exact.d_x2, fd.d_x2)
    assert close(exact.dd_vol, fd.dd_vol)
    assert close(exact.dd_x2, fd.dd_x2)
    for i in range(2):
        assert close(exact.d_x[i], fd.d_x[i])
        for j in range(2):
            assert close(exact.d_xx[i][j], fd.d_xx[i][j])
            assert close(exact.dd_xx[i][j], fd.dd_xx[i][j])
    assert exact.dd_x2 == exact.dd_xx[0][0] + exact.dd_xx[1][1]
    assert close(exact.d_vol, support.finite_difference_oracle(body, g, "vol", h))


def test_fd_step_too_large(square):
    with pytest.raises(StepTooLarge):
        support.finite_difference_oracle(square, ones(square), "vol", F(1))


@pytest.mark.parametrize("h", [F(0), F(-1, 1000)])
def test_fd_step_must_be_positive(square, h):
    with pytest.raises(StepTooLarge):
        finite_difference_report(square, ones(square), h)
    with pytest.raises(StepTooLarge):
        support.finite_difference_oracle(square, ones(square), "vol", h)


# ---------------------------------------------------------------------------
# kernel directions and the certificate

def test_kernel_direction_hexagon(sheared_hexagon):
    body = sheared_hexagon
    g = kernel_direction(body)
    assert g is not None and any(x != 0 for x in g)
    rep = boundary_first_derivatives(body, g)
    assert all(x == 0 for x in rep.d_x)
    assert all(x == 0 for row in rep.d_xx for x in row)


@pytest.mark.parametrize("body", [b for _, b in ORACLE_BODIES],
                         ids=[name for name, _ in ORACLE_BODIES])
def test_first_derivatives_match_facet_oracle(body):
    basis = facewise_affine_space(body).basis
    rows = [[-sum(w * x for w, x in zip(row, b)) for b in basis]
            for row in moments.boundary_weights(body)[1:]]
    assert rows == support.kernel_rows_by_basis(body)
    assert kernel_direction(body) == support.kernel_direction_by_basis(body)
    for g in list(basis) + [support.random_speed(random.Random(7), body)]:
        assert boundary_first_derivatives(body, g) == support.first_derivatives_by_facets(body, g)


def test_kernel_direction_triangle_none_or_annihilating(triangle_o):
    g = kernel_direction(triangle_o)
    if g is not None:
        rep = boundary_first_derivatives(triangle_o, g)
        assert all(x == 0 for x in rep.d_x)
        assert all(x == 0 for row in rep.d_xx for x in row)


def test_kernel_direction_simplex_none_permissible():
    body = support.centered_simplex(3)
    g = kernel_direction(body)
    if g is not None:
        rep = boundary_first_derivatives(body, g)
        assert all(x == 0 for row in rep.d_xx for x in row)


def test_certificate_hexagon(sheared_hexagon):
    body = sheared_hexagon
    g = kernel_direction(body)
    cert = lk_second_derivative(body, g)
    assert cert.certificate
    assert cert.exact_value > 0 and cert.exact_fd > 0
    assert close(cert.value, cert.fd_value, 1e-4)


def test_certificate_frame_invariance():
    """The radial family commutes with linear maps and L^(2n) does not see
    them, so the exact second derivative and its Richardson value along
    g, read through the induced vertex permutation, are the same numbers
    in every rational frame."""
    rng = random.Random(71)
    maps = [[[2, 1, 0], [F(1, 3), 1, 1], [1, 0, F(-5, 7)]]]
    while len(maps) < 3:
        m = [[F(rng.randrange(-4, 5), rng.randrange(1, 6)) for _ in range(3)] for _ in range(3)]
        if determinant(Matrix.from_rows(m)) != 0:
            maps.append(m)
    h = F(1, 10 ** 9)
    for seed in (1, 3, 5):
        body = support.random_polytope(random.Random(seed), 3, 12)
        g = kernel_direction(body)
        assert g is not None, seed
        ref = lk_second_derivative(body, g, h)
        index = {v: i for i, v in enumerate(body.vertices)}
        for m in maps:
            image = affine_image(body, m)
            inv = inverse(Matrix.from_rows(m))
            perm = [index[inv.matvec(w)] for w in image.vertices]
            assert kernel_direction(image) is not None, (seed, m)
            cert = lk_second_derivative(image, tuple(g[i] for i in perm), h)
            assert cert.exact_value == ref.exact_value, (seed, m)
            assert cert.exact_fd == ref.exact_fd, (seed, m)


def test_certificate_hexagon_exact_value(hexagon):
    body = centered(hexagon)
    cert = lk_second_derivative(body, kernel_direction(body))
    assert cert.exact_value == F(10, 243)


def test_general_formula_off_the_kernel(sheared_hexagon):
    # speeds that keep the centroid but move int x x^T exercise every
    # term of the log-det formula, which the kernel directions zero out
    body = sheared_hexagon
    basis = facewise_affine_space(body).basis
    reps = [boundary_first_derivatives(body, b) for b in basis]
    rows = [[rep.d_x[i] for rep in reps] for i in range(2)]
    combos = kernel_basis(Matrix.from_rows(rows, len(basis)))
    moving = 0
    for coeffs in combos:
        g = tuple(sum(c * b[k] for c, b in zip(coeffs, basis)) for k in range(6))
        if all(x == 0 for row in boundary_first_derivatives(body, g).d_xx for x in row):
            continue
        moving += 1
        cert = lk_second_derivative(body, g)
        assert close(cert.value, cert.fd_value, 1e-4)
        assert close(lk_first_derivative(body, g),
                     support.finite_difference_oracle(body, g, "l2n", F(1, 1000)))
    assert moving >= 2


def test_certificate_requires_centering(sheared_hexagon):
    body = sheared_hexagon
    bump = (F(1),) + (F(0),) * 5
    with pytest.raises(NotCentered):
        lk_second_derivative(body, bump)
    off_center = translate(body, (F(1, 7), F(0)))
    with pytest.raises(NotCentered):
        lk_second_derivative(off_center, kernel_direction(off_center))
    with pytest.raises(NotCentered):
        lk_first_derivative(off_center, ones(off_center))


def test_constant_speed_gives_zero_second_derivative(sheared_hexagon):
    body = sheared_hexagon
    cert = lk_second_derivative(body, ones(body))
    assert cert.exact_value == 0 and cert.exact_fd == 0
    assert not cert.certificate
    assert lk_first_derivative(body, ones(body)) == 0


# ---------------------------------------------------------------------------
# shadow systems

def test_shadow_triangle_linear_volume(standard_triangle):
    # speed 1 on the top vertex (0,1): vol(K_t) = (1+t)/2
    speeds = tuple(F(1) if v == (0, 1) else F(0) for v in standard_triangle.vertices)
    system = ShadowSystem(standard_triangle, (F(0), F(1)), speeds, (F(-1, 2), F(1, 2)))
    for t in (F(-1, 4), F(0), F(1, 4), F(1, 2)):
        assert body_moments(shadow_polytope(system, t)).volume == (1 + t) / 2


def test_shadow_translation_constant_volume(hexagon):
    system = ShadowSystem(hexagon, (F(1), F(0)), ones(hexagon), (F(-1), F(1)))
    base = body_moments(hexagon)
    for t in (F(-1), F(-1, 2), F(1, 3), F(1)):
        moved = shadow_polytope(system, t)
        assert body_moments(moved).volume == base.volume
        assert isotropy(moved).l_pow_2n == isotropy(hexagon).l_pow_2n


def test_shadow_volume_convexity_random():
    rng = random.Random(37)
    for _ in range(5):
        body = support.random_polytope(rng, 2, 6)
        speeds = tuple(F(rng.randrange(-2, 3), 4) for _ in body.vertices)
        system = ShadowSystem(body, (F(1), F(1)), speeds, (F(-1), F(1)))
        grid = [F(k, 4) for k in range(-4, 5)]
        vols = [body_moments(shadow_polytope(system, t)).volume for t in grid]
        for k in range(1, len(vols) - 1):
            assert vols[k - 1] - 2 * vols[k] + vols[k + 1] >= 0


def test_rs_movement_tent_is_volume_preserving():
    rng = random.Random(43)
    body = support.random_polytope(rng, 2, 7)
    tent = support.rs_tent_movement(rng, body)
    assert tent is not None
    u, speeds = tent
    system = ShadowSystem(body, u, speeds, (F(-1), F(1)))
    eps = F(1, 4)
    base = body_moments(body).volume
    while body_moments(shadow_polytope(system, eps)).volume != base or \
            body_moments(shadow_polytope(system, -eps)).volume != base:
        eps /= 2
    l2n = [isotropy(shadow_polytope(system, eps * F(k, 4))).l_pow_2n
           for k in range(-4, 5)]
    for k in range(1, 8):
        assert l2n[k - 1] - 2 * l2n[k] + l2n[k + 1] > 0


# ---------------------------------------------------------------------------
# RS speed space cases

def test_rs_speed_space_cross_polytope():
    diamond = support.cross_polytope(2)
    assert rs_speed_space(diamond, (1, 0)) == 4


def test_rs_speed_space_octahedron(octahedron):
    """Shadow and central slice are the same square: dim F of the
    simplicial octahedron is its vertex count."""
    assert rs_speed_space(octahedron, (0, 0, 1)) == 6


def test_edges_match_pair_scan(cube3, octahedron):
    rng = random.Random(37)
    bodies = [cube3, octahedron, *support.nonsimplicial_bodies()]
    for n in (2, 3, 4):
        bodies += [support.random_polytope(rng, n, 8, centered=False) for _ in range(2)]
    for body in bodies:
        assert variations._edges(body) == support.edges_by_pair_scan(body), body


def test_rs_speed_space_vertical_facets(cube3):
    with pytest.raises(CaseNotSupported):
        rs_speed_space(cube3, (1, 0, 0))


def test_rs_speed_space_shadow_slice_mismatch(octahedron):
    with pytest.raises(CaseNotSupported):
        rs_speed_space(octahedron, (1, 1, 3))


def test_fd_oracle_l2n_constant_for_rescaling(hexagon):
    value = support.finite_difference_oracle(hexagon, ones(hexagon), "l2n", F(1, 1000))
    assert abs(value) < 1e-9


def test_fd_oracle_componentwise(square):
    g = ones(square)
    exact = boundary_first_derivatives(square, g)
    assert close(support.finite_difference_oracle(square, g, ("x", 0), F(1, 1000)), exact.d_x[0])
    assert close(support.finite_difference_oracle(square, g, ("xx", 0, 1), F(1, 1000)),
                 exact.d_xx[0][1])


def test_shadow_degenerate(standard_triangle):
    from isodecomp.errors import Degenerate

    # speeds cancel the height exactly at t = 1: the body flattens
    speeds = tuple(-v[1] for v in standard_triangle.vertices)
    system = ShadowSystem(standard_triangle, (F(0), F(1)), speeds, (F(-1), F(1)))
    with pytest.raises(Degenerate):
        shadow_polytope(system, F(1))
