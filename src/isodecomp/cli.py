"""Command-line interface, JSON/CSV report generation, and the planar
quasi-convexity counterexample search.

One parser, built at import, gives each subcommand only the flags it
reads and converts and checks them; RunConfig holds every default.  Exit
codes: 0 success, 2 validation failure (a bad flag included), 3 violated
precondition, 4 failed internal cross-check.  Reports carry exact "p/q"
strings next to 12-significant-digit floats, null (an empty CSV cell)
where no finite float holds the value; identical configuration (including
seed) produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isfinite, lcm
from typing import Sequence

from . import decomp, moments, polytope, variations
from .errors import InternalCheckFailed, PreconditionError, ValidationError
from .exactnum import Matrix, rat, to_decimal_str, vec
from .polytope import Polytope

DEFAULT_PRECISION_BITS = 53


@dataclass
class RunConfig:
    """The settings of one run; every flag's default lives here."""
    subcommand: str
    inputs: list[str] = field(default_factory=list)
    precision: int = DEFAULT_PRECISION_BITS
    fd_step: Fraction = variations.DEFAULT_FD_STEP
    seed: int = 0
    budget: int = 10_000
    vertex_range: tuple[int, int] = (3, 8)
    denominator_bound: int = 12
    out: str | None = None
    generators: str | None = None
    speed: str | None = None
    eps: Fraction | None = None
    direction: str | None = None
    beta: str | None = None
    grid: int = 9
    t_range: Fraction = Fraction(1, 4)


def _jfloat(x) -> float | None:
    """x to 12 significant digits, or None where no finite float holds it."""
    try:
        f = float(x)
    except OverflowError:
        return None
    return float("%.12g" % f) if isfinite(f) else None


def _csv_float(x) -> str:
    f = _jfloat(x)
    return "" if f is None else "%.12g" % f


def _exact_pair(x: Fraction, precision: int | None = None) -> dict:
    out = {"exact": str(x), "float": _jfloat(x)}
    if precision and precision > DEFAULT_PRECISION_BITS:
        digits = max(12, -(-precision * 30103 // 100000))
        out["decimal"] = to_decimal_str(x, digits)
    return out


def _vec_exact(v) -> list[str]:
    return [str(x) for x in v]


def _matrix_exact(m: Matrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.rows]


def _load_json_arg(value: str):
    """Accept an inline JSON literal or a path to a JSON file."""
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        with open(value) as fh:
            return json.load(fh)


def _rational_arg(value: str, convert, what: str):
    """Load a JSON argument and convert its entries to rationals; an entry
    that is not a rational, or a wrongly nested value, is a ValidationError."""
    data = _load_json_arg(value)
    try:
        return convert(data)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError("%s must hold rationals: %s" % (what, exc)) from exc


def _generators_arg(value: str):
    return _rational_arg(value, lambda gens: [Matrix.from_rows(g) for g in gens], "--generators")


def _speed_from_arg(p: Polytope, value: str, what: str = "--speed"):
    g = _rational_arg(value, vec, what)
    if len(g) != len(p.vertices):
        raise PreconditionError(
            "speed has %d entries, polytope has %d vertices (canonical order)"
            % (len(g), len(p.vertices)))
    return g


def _emit(config: RunConfig, payload, text: str = "") -> None:
    """Write the report to --out, or to stdout after the text."""
    if isinstance(payload, str):
        rendered = payload
    else:
        rendered = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(rendered)
    else:
        text += rendered
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand reports

def _moments_report(p: Polytope, precision: int) -> dict:
    md = moments.body_moments(p)
    return {
        "dim": p.dim,
        "n_vertices": len(p.vertices),
        "n_facets": len(p.facets),
        "volume": _exact_pair(md.volume, precision),
        "first_moments": _vec_exact(md.first_moments),
        "second_moments": _matrix_exact(md.second_moments),
        "norm2_integral": _exact_pair(md.norm2_integral()),
    }


def _lk_report(p: Polytope, precision: int) -> dict:
    rep = moments.isotropy(p)
    return {
        "dim": p.dim,
        "centroid": _vec_exact(rep.centroid),
        "covariance": _matrix_exact(rep.covariance),
        "L_pow_2n": _exact_pair(rep.l_pow_2n, precision),
        "isotropizing_map": [[_jfloat(x) for x in row] for row in rep.isotropizing_map],
        "isotropizing_residual": _jfloat(rep.residual),
    }


def _decomp_report(p: Polytope) -> dict:
    dim = decomp.smilansky_dimension(p)  # asserts agreement with the kernel route
    thr = decomp.threshold_check(p)
    simple = all(
        sum(1 for f in p.facets if i in f.vertex_indices) == p.dim
        for i in range(len(p.vertices)))
    simplicial = all(len(f.vertex_indices) == p.dim for f in p.facets)
    report = {
        "dim": p.dim,
        "n_vertices": len(p.vertices),
        "decomposability_dim": dim,
        "threshold_bound": thr.bound,
        "exceeds_threshold": thr.exceeds,
        "simplicial": simplicial,
        "simple": simple,
    }
    if p.dim == 2:
        report["note"] = ("the simple-polytope equality dim = n+1 is only applied "
                          "for n >= 3; planar bodies are all simple and can exceed it")
    return report


def _components_report(p: Polytope) -> dict:
    rep = decomp.hypergraph_components(p)
    return {
        "components": [list(c) for c in rep.components],
        "dims": list(rep.dims),
        "lower_bound": rep.lower_bound,
        "facewise_affine_dim": decomp.facewise_affine_space(p).dimension,
    }


def _symmetry_report(p: Polytope, generators) -> dict:
    rep = decomp.symmetry_analysis(p, generators)
    return {
        "group_order": len(rep.group.elements),
        "V_G_dim": rep.group.v_dim,
        "W_G_dim": rep.group.w_dim,
        "F_G_dim": rep.fixed_space_dim,
        "bound": rep.bound,
        "satisfies_bound": rep.satisfies,
    }


def _derivative_report_dict(rep: variations.DerivativeReport) -> dict:
    out = {
        "method": rep.method,
        "d_vol": _exact_pair(rep.d_vol),
        "d_x": _vec_exact(rep.d_x),
        "d_xx": [[str(x) for x in row] for row in rep.d_xx],
        "d_x2": _exact_pair(rep.d_x2),
    }
    if rep.dd_vol is not None:
        out["dd_vol"] = _exact_pair(rep.dd_vol)
        out["dd_x2"] = _exact_pair(rep.dd_x2)
    return out


def _variation_report(p: Polytope, g, fd_step: Fraction) -> dict:
    eps = variations.eps_bound(p, g)
    exact = variations.boundary_second_derivatives(p, g)
    h = min(fd_step, eps / 2)
    fd = variations.finite_difference_report(p, g, h)
    return {
        "speed": _vec_exact(g),
        "eps_bound": str(eps),
        "exact": _derivative_report_dict(exact),
        "finite_difference": {
            "step": str(h),
            "d_vol": _jfloat(fd.d_vol),
            "d_x2": _jfloat(fd.d_x2),
            "dd_vol": _jfloat(fd.dd_vol),
            "dd_x2": _jfloat(fd.dd_x2),
        },
        "gap_integral": _exact_pair(exact.gap()),
    }


def maximizer_report(p: Polytope, generators=None,
                     fd_step: Fraction = variations.DEFAULT_FD_STEP,
                     precision: int = DEFAULT_PRECISION_BITS) -> dict:
    """Aggregate exclusion report: L value, decomposability dimension vs
    threshold, hypergraph components, optional symmetry bound, and a
    constructive second-derivative certificate when one exists."""
    thr = decomp.threshold_check(p)
    report = {
        "dim": p.dim,
        "L_pow_2n": _exact_pair(moments.l_pow_2n(p), precision),
        "decomposability_dim": thr.dim,
        "threshold_bound": thr.bound,
        "exceeds_threshold": thr.exceeds,
        "components": _components_report(p),
    }
    if generators is not None:
        report["symmetry"] = _symmetry_report(p, generators)
    certificate = None
    note = None
    try:
        # translation keeps the vertex order, so g indexes p's vertices
        body = polytope.translate(p, [-x for x in moments.body_moments(p).centroid()])
        g = variations.kernel_direction(body)
        if g is not None:
            cert = variations.lk_second_derivative(body, g, fd_step)
            certificate = {
                "direction": _vec_exact(g),
                "second_derivative": _jfloat(cert.value),
                "second_derivative_fd": _jfloat(cert.fd_value),
                "positive": cert.certificate,
            }
        else:
            note = "no nonzero direction kills all moment derivatives"
    except (ValidationError, PreconditionError) as exc:
        note = "certificate pipeline unavailable: %s" % exc
    report["certificate"] = certificate
    if note:
        report["certificate_note"] = note
    if thr.exceeds:
        verdict = "excluded: decomposability dimension %d > bound %d" % (thr.dim, thr.bound)
    elif certificate is not None and certificate["positive"]:
        verdict = "excluded: certified increasing family along a kernel direction"
    else:
        verdict = "not excluded by the decomposability threshold (dim %d <= bound %d)" % (
            thr.dim, thr.bound)
    report["verdict"] = verdict
    return report


def render_maximizer_text(report: dict) -> str:
    lines = [
        "dim %d body: L^(2n) = %s (%s)" % (
            report["dim"], report["L_pow_2n"]["exact"], report["L_pow_2n"]["float"]),
        "decomposability dim %d vs bound %d" % (
            report["decomposability_dim"], report["threshold_bound"]),
        report["verdict"],
    ]
    cert = report.get("certificate")
    if cert:
        lines.append("certificate second derivative: %s (fd %s), positive: %s" % (
            cert["second_derivative"], cert["second_derivative_fd"], cert["positive"]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exact 2-D path for the quasi-convexity search, in integers
#
# A search polygon is a pair (pts, s): integer vertex tuples in
# counterclockwise order and a positive integer scale s, standing for the
# polygon with vertices pts/s.  A positive scale keeps the lexicographic
# order, the duplicates and the orientation of the points, so
# `polytope.convex_hull_2d` on pts returns the same vertex list as on
# pts/s.  `_reduced` divides out the gcd of s and all coordinates, so
# equal polygons in the same vertex order have equal pairs.

def _reduced(pts, s):
    g = gcd(s, *(x for p in pts for x in p))
    if g == 1:
        return pts, s
    return [(x // g, y // g) for x, y in pts], s // g


def _polygon_sums(pts):
    """Integer shoelace sums of integer vertices in cyclic order.

    Over the edges (p, q), with det = p0 q1 - p1 q0, the sums are
    a = sum det, b_i = sum det (p_i + q_i) and c_ij = sum det (2 p_i p_j
    + 2 q_i q_j + p_i q_j + p_j q_i).  The signed origin-fan moments of
    the polygon pts are vol = a/2, int x_i = b_i/6 and int x_i x_j =
    c_ij/24.  Returns (a, b0, b1, c00, c01, c11).
    """
    a = b0 = b1 = c00 = c01 = c11 = 0
    px, py = pts[-1]
    for qx, qy in pts:
        det = px * qy - py * qx
        a += det
        b0 += det * (px + qx)
        b1 += det * (py + qy)
        c00 += det * (px * px + px * qx + qx * qx)
        c01 += det * (2 * px * py + 2 * qx * qy + px * qy + py * qx)
        c11 += det * (py * py + py * qy + qy * qy)
        px, py = qx, qy
    return a, b0, b1, 2 * c00, c01, 2 * c11


def _polygon_l2n(poly):
    """L^(2n) = det(cov)/vol^2 as the unreduced pair (num, den), den > 0.

    It does not change under scaling, so the sums of `_polygon_sums` on
    pts serve: cov_ij = (3 a c_ij - 4 b_i b_j)/(36 a^2) and vol = a/2
    give num/den = (s00 s11 - s01^2)/(324 a^6) with s_ij = 3 a c_ij -
    4 b_i b_j.
    """
    a, b0, b1, c00, c01, c11 = _polygon_sums(poly[0])
    s00 = 3 * a * c00 - 4 * b0 * b0
    s11 = 3 * a * c11 - 4 * b1 * b1
    s01 = 3 * a * c01 - 4 * b0 * b1
    return s00 * s11 - s01 * s01, 324 * a ** 6


def _polygon_center(poly):
    """Translate the polygon by minus its centroid b/(3 a s): the vertex
    p/s becomes (3 a p - b)/(3 a s), with a > 0 for counterclockwise
    order."""
    pts, s = poly
    a, b0, b1, *_ = _polygon_sums(pts)
    t = 3 * a
    return _reduced([(t * x - b0, t * y - b1) for x, y in pts], t * s)


def _polygon_polar(poly):
    """Polar of the integer polygon pts, in cyclic order, or None unless
    the origin is strictly inside.

    Edge (p, q) has the integer outer normal n = (q1 - p1, p0 - q0) and
    offset b = n.p, and its polar vertex is n/b; the vertices are put
    over the lcm of the offsets.  This is 1/s times the polar of pts/s,
    and L^(2n) does not see the factor.
    """
    pts = poly[0]
    rows = []
    px, py = pts[0]
    for qx, qy in pts[1:] + pts[:1]:
        nx, ny = qy - py, px - qx
        b = nx * px + ny * py
        if b <= 0:
            return None
        rows.append((nx, ny, b))
        px, py = qx, qy
    d = lcm(*(b for _, _, b in rows))
    return _reduced([(nx * (d // b), ny * (d // b)) for nx, ny, b in rows], d)


def _random_points(rng: random.Random, cfg: RunConfig, k: int):
    """k points on rays of rational slope, as one pair (pts, s).

    With the denominator bound d, each point draws a in [-d, d], a sign,
    p in 1..8 and q in 1..3, and is sign p (d^2 - a^2, 2 a d) / (q (d^2 +
    a^2)): the radius p/q on the circle point of the half-angle chart at
    a/d.  The points are put over the lcm of their denominators.
    """
    d = cfg.denominator_bound
    draws = []
    for _ in range(k):
        a = rng.randrange(-d, d + 1)
        sign = 1 if rng.getrandbits(1) else -1
        p = sign * rng.randrange(1, 9)
        q = rng.randrange(1, 4)
        draws.append((p * (d * d - a * a), p * 2 * a * d, q * (d * d + a * a)))
    s = lcm(*(den for _, _, den in draws))
    return [(x * (s // den), y * (s // den)) for x, y, den in draws], s


def _random_polygon(rng: random.Random, cfg: RunConfig):
    kmin, kmax = cfg.vertex_range
    while True:
        k = rng.randrange(kmin, kmax + 1)
        pts, s = _random_points(rng, cfg, k)
        hull = polytope.convex_hull_2d(pts)
        if len(hull) >= 3:
            return _polygon_center((hull, s))


def _cut_corner(poly, idx: int, r: int):
    """Replace vertex idx by two points at depth r/32 along its edges:
    a + (r/32)(b - a) is (32 a + r (b - a))/(32 s)."""
    pts, s = poly
    m = len(pts)
    a, b, c = pts[idx], pts[(idx + 1) % m], pts[(idx - 1) % m]
    p1 = tuple(32 * a[i] + r * (b[i] - a[i]) for i in range(2))
    p2 = tuple(32 * a[i] + r * (c[i] - a[i]) for i in range(2))
    rest = [(32 * x, 32 * y) for j, (x, y) in enumerate(pts) if j != idx]
    return polytope.convex_hull_2d([p1, p2] + rest), 32 * s


def _random_cut_triangle_pair(rng: random.Random, cfg: RunConfig):
    """Two independent corner truncations of one random triangle.

    The isotropic constant peaks at triangles, so Minkowski segments
    between two differently truncated copies cross the peak sideways;
    these pairs carry most of the counterexample mass.
    """
    while True:
        pts, s = _random_points(rng, cfg, 3)
        hull = polytope.convex_hull_2d(pts)
        if len(hull) == 3:
            break
    # one common depth: the polar functional only dips symmetrically
    r = rng.randrange(1, 9)
    out = []
    for _ in range(2):
        corner = rng.randrange(3)
        out.append(_polygon_center(_cut_corner((hull, s), corner, r)))
    return out


def _random_pair(rng: random.Random, cfg: RunConfig):
    if rng.randrange(100) == 0:
        return _random_cut_triangle_pair(rng, cfg)
    return [_random_polygon(rng, cfg), _random_polygon(rng, cfg)]


def _minkowski_midpoint(poly1, poly2):
    """Minkowski midpoint (K + L)/2 of two polygons by merging their edge
    sequences in O(m + k), over 2 lcm(s1, s2).

    Precondition: each polygon is counterclockwise, strictly convex and
    starts at its lexicographically smallest vertex, as every translate
    of `convex_hull_2d` output does.  Then the edge directions of each
    increase in angle within (-pi/2, 3pi/2], two current edges are less
    than pi apart, and the sign of their cross product orders them; a
    zero cross product means parallel edges, which are added into one.
    The result has the same form, starting at the sum of the two first
    vertices, with no zero-length edge: it equals `convex_hull_2d` of all
    pairwise midpoints.
    """
    (pts1, s1), (pts2, s2) = poly1, poly2
    s = lcm(s1, s2)

    def edges(pts, f):
        return [(f * (q[0] - p[0]), f * (q[1] - p[1])) for p, q in zip(pts, pts[1:] + pts[:1])]

    f1, f2 = s // s1, s // s2
    e1, e2 = edges(pts1, f1), edges(pts2, f2)
    m, k = len(e1), len(e2)
    x, y = f1 * pts1[0][0] + f2 * pts2[0][0], f1 * pts1[0][1] + f2 * pts2[0][1]
    out = []
    i = j = 0
    while i < m or j < k:
        out.append((x, y))
        if i == m:
            cross = -1
        elif j == k:
            cross = 1
        else:
            cross = e1[i][0] * e2[j][1] - e1[i][1] * e2[j][0]
        if cross >= 0:
            x, y = x + e1[i][0], y + e1[i][1]
            i += 1
        if cross <= 0:
            x, y = x + e2[j][0], y + e2[j][1]
            j += 1
    return _reduced(out, 2 * s)


def _exceeds(values) -> bool:
    """Whether the midpoint's (num, den) pair exceeds both others;
    denominators are positive, so the tests cross-multiply."""
    (nk, dk), (nl, dl), (nm, dm) = values
    return nm * dk > nk * dm and nm * dl > nl * dm


def _vertex_strings(poly) -> list[list[str]]:
    pts, s = poly
    return [[str(Fraction(x, s)) for x in v] for v in pts]


def _verify_counterexample(record: dict) -> bool:
    """Recompute the record's inequality from scratch with the canonical
    (validated) machinery; exact strict inequality must reproduce."""
    k = polytope.hull_facets([[rat(x) for x in v] for v in record["k_vertices"]])
    l = polytope.hull_facets([[rat(x) for x in v] for v in record["l_vertices"]])
    mid = polytope.scale(polytope.minkowski_sum(k, l), Fraction(1, 2))

    def value(body: Polytope) -> Fraction:
        if record["functional"] == "polar":
            centered = polytope.translate(body, [-x for x in moments.body_moments(body).centroid()])
            return moments.l_pow_2n(polytope.polar(centered))
        return moments.l_pow_2n(body)

    vk, vl, vm = value(k), value(l), value(mid)
    return (str(vk) == record["l2n_k"] and str(vl) == record["l2n_l"]
            and str(vm) == record["l2n_mid"] and vm > max(vk, vl))


def quasiconvex_search(cfg: RunConfig) -> dict:
    """Search random planar bodies for failures of quasi-convexity of the
    isotropic constant (of the body and of its centered polar) under
    Minkowski midpoints; every hit is re-verified exactly before emission.
    """
    records = []
    for trial in range(cfg.budget):
        rng = random.Random(cfg.seed * 1_000_003 + trial)
        k, l = _random_pair(rng, cfg)
        mid = _minkowski_midpoint(k, l)
        candidates = []
        values = (_polygon_l2n(k), _polygon_l2n(l), _polygon_l2n(mid))
        if _exceeds(values):
            candidates.append(("direct", values))
        pk = _polygon_polar(k)
        pl = _polygon_polar(l)
        pm = _polygon_polar(_polygon_center(mid))
        if pk and pl and pm:
            values = (_polygon_l2n(pk), _polygon_l2n(pl), _polygon_l2n(pm))
            if _exceeds(values):
                candidates.append(("polar", values))
        for functional, values in candidates:
            vk, vl, vm = (Fraction(num, den) for num, den in values)
            record = {
                "trial": trial,
                "functional": functional,
                "k_vertices": _vertex_strings(k),
                "l_vertices": _vertex_strings(l),
                "l2n_k": str(vk),
                "l2n_l": str(vl),
                "l2n_mid": str(vm),
                "margin": str(vm - max(vk, vl)),
            }
            if not _verify_counterexample(record):
                raise InternalCheckFailed("fast path and canonical path disagree on %r" % record)
            records.append(record)
    records.sort(key=lambda r: (r["trial"], r["functional"]))
    return {
        "seed": cfg.seed,
        "budget": cfg.budget,
        "model": {
            "vertex_range": list(cfg.vertex_range),
            "denominator_bound": cfg.denominator_bound,
            "radii": "p/q with p in 1..8, q in 1..3",
            "directions": "rational points of the circle via the half-angle chart",
            "centering": "translate to the centroid before taking polars",
            "pairing": "99% independent polygons, 1% corner-truncated copies "
                       "of a common random triangle (importance sampling near "
                       "the planar maximizer)",
        },
        "counterexamples": records,
        "n_counterexamples": len(records),
    }


# ---------------------------------------------------------------------------
# dispatch

def run(config: RunConfig) -> int:
    cmd = config.subcommand
    if cmd == "quasiconvex-search":
        _emit(config, quasiconvex_search(config))
        return 0

    body = polytope.load(config.inputs[0])
    if cmd == "moments":
        _emit(config, _moments_report(body, config.precision))
    elif cmd == "lk":
        _emit(config, _lk_report(body, config.precision))
    elif cmd == "decomp":
        _emit(config, _decomp_report(body))
    elif cmd == "components":
        _emit(config, _components_report(body))
    elif cmd == "polar":
        _emit(config, polytope.to_json_dict(polytope.polar(body)))
    elif cmd == "summands":
        g = _speed_from_arg(body, config.speed)
        eps = config.eps if config.eps is not None else variations.eps_bound(body, g)
        q, r = decomp.summand_pair(body, g, eps)
        doubled = polytope.scale(polytope.polar(body), Fraction(2))
        _emit(config, {
            "eps": str(eps),
            "summand_plus": polytope.to_json_dict(q),
            "summand_minus": polytope.to_json_dict(r),
            "reconstructs_double_polar": polytope.minkowski_sum(q, r) == doubled,
        })
    elif cmd == "symmetric":
        _emit(config, _symmetry_report(body, _generators_arg(config.generators)))
    elif cmd == "variation":
        g = _speed_from_arg(body, config.speed)
        _emit(config, _variation_report(body, g, config.fd_step))
    elif cmd == "certify":
        gens = _generators_arg(config.generators) if config.generators else None
        report = maximizer_report(body, gens, config.fd_step, config.precision)
        _emit(config, report, text=render_maximizer_text(report))
    elif cmd == "shadow":
        direction = _rational_arg(config.direction, vec, "--dir")
        beta = _speed_from_arg(body, config.beta, "--beta")
        t = config.t_range
        system = variations.ShadowSystem(body, direction, beta, (-t, t))
        k = config.grid
        lines = ["t,vol,vol_float,l_pow_2n,l_pow_2n_float"]
        for i in range(k):
            ti = -t + 2 * t * Fraction(i, k - 1)
            body_t = variations.shadow_polytope(system, ti)
            md = moments.body_moments(body_t)
            l2n = md.l_pow_2n()
            lines.append("%s,%s,%s,%s,%s" % (
                ti, md.volume, _csv_float(md.volume), l2n, _csv_float(l2n)))
        _emit(config, "\n".join(lines) + "\n")
    elif cmd == "rs-dim":
        direction = _rational_arg(config.direction, vec, "--dir")
        _emit(config, {
            "direction": _vec_exact(direction),
            "rs_speed_dim": variations.rs_speed_space(body, direction),
            "threshold_bound": decomp.decomposability_threshold(body.dim),
        })
    else:  # pragma: no cover
        raise ValueError("unknown subcommand %r" % cmd)
    return 0


def _checked(convert, kind: str, ok, need: str):
    """An argparse type: convert the text, refusing it unless ok(value)."""
    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError("must be %s, got %s" % (kind, text)) from None
        if not ok(value):
            raise argparse.ArgumentTypeError("must be %s, got %s" % (need, text))
        return value
    return parse


def _int_at_least(low: int):
    return _checked(int, "an integer", lambda k: k >= low, "at least %d" % low)


_POSITIVE_RATIONAL = _checked(rat, "a rational p/q", lambda x: x > 0, "positive")
_VERTEX_RANGE = _checked(lambda text: tuple(int(k) for k in text.split(":")), "min:max",
                         lambda r: len(r) == 2 and 3 <= r[0] <= r[1], "min:max, 3 <= min <= max")

_JSON = "JSON, inline or a file path"
_FLAGS = {
    "--out": dict(help="write the report to this file"),
    "--precision": dict(type=int, help="bits; above %d the headline exact values gain a long "
                        "decimal (default $ISODECOMP_PRECISION)" % DEFAULT_PRECISION_BITS),
    "--fd-step": dict(type=_POSITIVE_RATIONAL, help="finite difference step p/q > 0"),
    "--speed": dict(help="one speed per vertex, " + _JSON),
    "--eps": dict(type=_POSITIVE_RATIONAL, help="perturbation size p/q > 0 (default: eps bound)"),
    "--generators": dict(help="list of rational matrices, " + _JSON),
    "--dir": dict(dest="direction", help="direction vector, " + _JSON),
    "--beta": dict(help="one shadow speed per vertex, " + _JSON),
    "--grid": dict(type=_int_at_least(3), help="number of samples of t (>= 3)"),
    "--t-range": dict(type=_POSITIVE_RATIONAL, help="sample t in [-r, r] for this p/q > 0"),
    "--seed": dict(type=int),
    "--budget": dict(type=_int_at_least(0), help="number of trials (>= 0)"),
    "--vertices": dict(dest="vertex_range", metavar="MIN:MAX", type=_VERTEX_RANGE,
                       help="range of the vertex count"),
    "--denominator-bound": dict(type=_int_at_least(1), help="bound of the drawn denominators"),
}

# subcommand: (the flags it requires, the optional flags it reads); every
# subcommand also takes --out, and all but the search an input file
_SUBCOMMANDS = {
    "moments": ((), ("--precision",)),
    "lk": ((), ("--precision",)),
    "decomp": ((), ()), "components": ((), ()), "polar": ((), ()),
    "summands": (("--speed",), ("--eps",)),
    "symmetric": (("--generators",), ()),
    "variation": (("--speed",), ("--fd-step",)),
    "certify": ((), ("--precision", "--fd-step", "--generators")),
    "shadow": (("--dir", "--beta"), ("--grid", "--t-range")),
    "rs-dim": (("--dir",), ()),
    "quasiconvex-search": ((), ("--seed", "--budget", "--vertices", "--denominator-bound")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isodecomp",
        description="exact decomposability analysis of rational polytopes "
                    "against local-maximizer conditions for the isotropic constant")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (required, optional) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        if name != "quasiconvex-search":
            sp.add_argument("inputs", nargs=1, metavar="input", help="polytope JSON file")
        for flag in ("--out",) + required + optional:
            sp.add_argument(flag, required=flag in required, **_FLAGS[flag])
    return parser


# argparse parses and checks every flag; it leaves out the ones not given,
# so RunConfig's defaults apply
_PARSER = _build_parser()


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig of the given flags; where --precision is read and not
    given, $ISODECOMP_PRECISION stands in for it."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    env = os.environ.get("ISODECOMP_PRECISION")
    if hasattr(args, "precision") and args.precision is None and env is not None:
        try:
            given["precision"] = int(env)
        except ValueError:
            _PARSER.error("ISODECOMP_PRECISION must be an integer number of bits, got %r" % env)
    return RunConfig(**given)


def main(argv: Sequence[str] | None = None) -> int:
    config = config_from_args(_PARSER.parse_args(argv))
    try:
        return run(config)
    except ValidationError as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print("precondition error: %s" % exc, file=sys.stderr)
        return 3
    except InternalCheckFailed as exc:
        print("internal check failed: %s" % exc, file=sys.stderr)
        return 4
    except (OSError, json.JSONDecodeError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
