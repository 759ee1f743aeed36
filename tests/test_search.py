"""The integer planar path of the quasi-convexity search against
independent routes: the shoelace sums against the canonical moment
engine, the edge-merge Minkowski midpoint against the hull of all
midpoints, the polar against the canonical polar, and whole trials
against the search done in Fractions (`support.search_trial_by_fractions`).

A search polygon is a pair (pts, s) of integer vertices and a positive
scale; `real` turns it into the Fraction vertex list pts/s."""

import contextlib
import hashlib
import io
import random
from fractions import Fraction as F
from math import lcm

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
    _reduced,
    main,
)
from isodecomp.errors import (
    InternalCheckFailed,
    IsodecompError,
    PreconditionError,
    ValidationError,
)


def real(poly):
    pts, s = poly
    return [(F(x, s), F(y, s)) for x, y in pts]


def as_pair(ccw):
    """The search pair of a Fraction vertex list."""
    s = lcm(*(x.denominator for p in ccw for x in p))
    return _reduced([(int(x * s), int(y * s)) for x, y in ccw], s)


def l2n(poly) -> F:
    return F(*_polygon_l2n(poly))


def mixed_polygon(rng, npts=7):
    """Hull of random points whose coordinates have denominators 1..12."""
    while True:
        pts = [(F(rng.randrange(-20, 21), rng.randrange(1, 13)),
                F(rng.randrange(-20, 21), rng.randrange(1, 13))) for _ in range(npts)]
        hull = polytope.convex_hull_2d(pts)
        if len(hull) >= 3:
            return as_pair(hull)


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
    # the origin at a vertex, on an edge, outside, and just inside
    for pts in ([(0, 0), (1, 0), (1, 1), (0, 1)], [(-1, 0), (1, 0), (0, 1)],
                [(2, 1), (3, 1), (2, 2)], [(F(-1, 100), F(-1, 7)), (1, 0), (0, 1)]):
        polys.append(as_pair(polytope.convex_hull_2d([(F(x), F(y)) for x, y in pts])))
    return polys


@pytest.mark.parametrize("poly", search_polygons())
def test_polygon_l2n_matches_canonical(poly):
    num, den = _polygon_l2n(poly)
    assert den > 0
    assert F(num, den) == moments.l_pow_2n(polytope.hull_facets(real(poly)))


@pytest.mark.parametrize("poly", search_polygons())
def test_polygon_center_matches_centroid(poly):
    centered = _polygon_center(poly)
    assert centered == _reduced(*centered) and centered[1] > 0
    before, after = real(poly), real(centered)
    shift = tuple(a - b for a, b in zip(before[0], after[0]))
    assert all(tuple(a - b for a, b in zip(p, q)) == shift for p, q in zip(before, after))
    assert shift == moments.body_moments(polytope.hull_facets(before)).centroid()


@pytest.mark.parametrize("poly", search_polygons())
def test_polygon_polar_matches_canonical(poly):
    """Rejected exactly when the origin is not strictly inside; otherwise a
    positive multiple of the canonical polar, with the same L^(2n)."""
    body = polytope.hull_facets(real(poly))
    polar = _polygon_polar(poly)
    if not all(f.offset > 0 for f in body.facets):
        assert polar is None
        return
    assert polar is not None and polar[1] > 0
    canonical = polytope.polar(body)
    assert polytope.hull_facets(real(polar)).vertices == tuple(
        tuple(x / poly[1] for x in v) for v in canonical.vertices)
    assert l2n(polar) == moments.l_pow_2n(canonical)


def _hull(points):
    return as_pair(polytope.convex_hull_2d([(F(x), F(y)) for x, y in points]))


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
        assert real(_minkowski_midpoint(a, b)) == support.hull_midpoint(real(a), real(b))


def test_minkowski_midpoint_matches_hull_oracle():
    rng = random.Random(21)
    cfg = RunConfig(subcommand="quasiconvex-search", inputs=[])
    for trial in range(150):
        k, l = mixed_polygon(rng, rng.randrange(3, 10)), mixed_polygon(rng, rng.randrange(3, 10))
        assert real(_minkowski_midpoint(k, l)) == support.hull_midpoint(real(k), real(l))
        k, l = _random_pair(random.Random(trial), cfg)
        assert real(_minkowski_midpoint(k, l)) == support.hull_midpoint(real(k), real(l))


def integer_trial(cfg, trial, cut_pair=False):
    """One trial of the integer search, in the form of the Fraction oracle."""
    rng = random.Random(cfg.seed * 1_000_003 + trial)
    k, l = _random_cut_triangle_pair(rng, cfg) if cut_pair else _random_pair(rng, cfg)
    mid = _minkowski_midpoint(k, l)
    polars = (_polygon_polar(k), _polygon_polar(l), _polygon_polar(_polygon_center(mid)))
    for poly in (k, l, mid) + tuple(p for p in polars if p is not None):
        assert poly == _reduced(*poly) and poly[1] > 0
    return {
        "k": real(k), "l": real(l), "mid": real(mid),
        "l2n": tuple(l2n(p) for p in (k, l, mid)),
        "polar_l2n": tuple(None if p is None else l2n(p) for p in polars),
    }


SEARCH_CONFIGS = {
    "seed0": (dict(seed=0), 200, False),
    "seed1": (dict(seed=1), 200, False),
    "seed2": (dict(seed=2), 200, False),
    "wide": (dict(seed=3, vertex_range=(3, 12), denominator_bound=40), 100, False),
    "cut-pairs": (dict(seed=4), 60, True),
}


@pytest.mark.parametrize("config", SEARCH_CONFIGS.values(), ids=SEARCH_CONFIGS.keys())
def test_search_trials_match_fraction_oracle(config):
    """Trial by trial: the same real vertices of k, l and the midpoint, the
    same L^(2n) of the bodies and of the polars, the same polar rejections."""
    kwargs, trials, cut_pair = config
    cfg = RunConfig(subcommand="quasiconvex-search", inputs=[], **kwargs)
    for trial in range(trials):
        assert integer_trial(cfg, trial, cut_pair) == support.search_trial_by_fractions(
            cfg, trial, cut_pair), trial


def test_search_records_match_fraction_oracle():
    """The records are the trials whose midpoint value beats both bodies'
    in Fraction comparisons, with the oracle's vertices and values."""
    cfg = RunConfig(subcommand="quasiconvex-search", inputs=[], seed=0, budget=300)
    expected = []
    for trial in range(cfg.budget):
        t = support.search_trial_by_fractions(cfg, trial)
        for functional, (vk, vl, vm) in (("direct", t["l2n"]), ("polar", t["polar_l2n"])):
            if None not in (vk, vl, vm) and vm > max(vk, vl):
                expected.append((trial, functional, [[str(x) for x in v] for v in t["k"]],
                                 str(vk), str(vl), str(vm)))
    got = [(r["trial"], r["functional"], r["k_vertices"], r["l2n_k"], r["l2n_l"], r["l2n_mid"])
           for r in cli.quasiconvex_search(cfg)["counterexamples"]]
    assert got == expected and len(got) == 2


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
