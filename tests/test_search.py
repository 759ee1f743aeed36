"""The planar fast path of the quasi-convexity search against independent
routes: integer shoelace sums against the canonical moment engine, and
the edge-merge Minkowski midpoint against the hull of all midpoints."""

import contextlib
import hashlib
import io
import random
from fractions import Fraction as F

import pytest

import support
from isodecomp import cli, moments, polytope
from isodecomp.cli import (
    RunConfig,
    _minkowski_midpoint,
    _polygon_center,
    _polygon_l2n,
    _polygon_polar,
    _random_cut_triangle_pair,
    _random_pair,
    main,
)
from isodecomp.errors import (
    InternalCheckFailed,
    IsodecompError,
    PreconditionError,
    ValidationError,
)


def mixed_polygon(rng, npts=7):
    """Hull of random points whose coordinates have denominators 1..12."""
    while True:
        pts = [(F(rng.randrange(-20, 21), rng.randrange(1, 13)),
                F(rng.randrange(-20, 21), rng.randrange(1, 13))) for _ in range(npts)]
        hull = polytope.convex_hull_2d(pts)
        if len(hull) >= 3:
            return hull


def search_polygons():
    rng = random.Random(20)
    cfg = RunConfig(subcommand="quasiconvex-search", inputs=[])
    polys = []
    for _ in range(12):
        p = mixed_polygon(rng, rng.randrange(3, 9))
        polys += [p, _polygon_center(p)]
    for _ in range(4):
        for p in _random_cut_triangle_pair(rng, cfg):
            polys += [p, _polygon_polar(p)]
    return polys


@pytest.mark.parametrize("poly", search_polygons())
def test_polygon_l2n_matches_canonical(poly):
    assert _polygon_l2n(poly) == moments.l_pow_2n(polytope.hull_facets(poly))


@pytest.mark.parametrize("poly", search_polygons())
def test_polygon_center_matches_centroid(poly):
    centered = _polygon_center(poly)
    shift = tuple(a - b for a, b in zip(poly[0], centered[0]))
    assert all(tuple(a - b for a, b in zip(p, q)) == shift for p, q in zip(poly, centered))
    assert shift == moments.body_moments(polytope.hull_facets(poly)).centroid()


def _hull(points):
    return polytope.convex_hull_2d([(F(x), F(y)) for x, y in points])


SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
TRIANGLE = [(0, 0), (1, 0), (0, 1)]

SPECIAL_PAIRS = {
    "square+square": (SQUARE, [(2, 3), (5, 3), (5, 4), (2, 4)]),
    "hexagon+triangle": (HEXAGON, TRIANGLE),
    "triangle+reflection": (TRIANGLE, [(-x, -y) for x, y in TRIANGLE]),
    "vertical-edges": ([(0, 0), (3, 1), (3, 2), (0, 4)], [(F(1, 2), -1), (2, 0), (F(1, 2), 3)]),
    "vertical+slanted": ([(0, 0), (0, 5), (-2, 1)], [(1, 1), (2, -3), (4, 7)]),
    "identical": (HEXAGON, HEXAGON),
}


@pytest.mark.parametrize("pair", SPECIAL_PAIRS.values(), ids=SPECIAL_PAIRS.keys())
def test_minkowski_midpoint_special_cases(pair):
    k, l = (_hull(p) for p in pair)
    for a, b in ((k, l), (l, k), (_polygon_center(k), l)):
        assert _minkowski_midpoint(a, b) == support.hull_midpoint(a, b)


def test_minkowski_midpoint_matches_hull_oracle():
    rng = random.Random(21)
    cfg = RunConfig(subcommand="quasiconvex-search", inputs=[])
    for trial in range(150):
        k, l = mixed_polygon(rng, rng.randrange(3, 10)), mixed_polygon(rng, rng.randrange(3, 10))
        assert _minkowski_midpoint(k, l) == support.hull_midpoint(k, l)
        k, l = _random_pair(random.Random(trial), cfg)
        assert _minkowski_midpoint(k, l) == support.hull_midpoint(k, l)


def test_search_golden_digest():
    """Seed 0, 300 trials (two records): the report bytes are pinned."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["quasiconvex-search", "--seed", "0", "--budget", "300"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "fc78a499f8d01ada268772d86bf6c7459f630423b3b7c85ce8aa9eff8fa5f7c2")


def test_failed_cross_check_exits_4(monkeypatch, capsys):
    assert issubclass(InternalCheckFailed, IsodecompError)
    assert not issubclass(InternalCheckFailed, (ValidationError, PreconditionError))
    monkeypatch.setattr(cli, "_verify_counterexample", lambda record: False)
    assert main(["quasiconvex-search", "--seed", "0", "--budget", "300"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal check failed: fast path and canonical path disagree")
    assert "Traceback" not in err
