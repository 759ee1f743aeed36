"""Command-line interface, JSON/CSV report generation, and the planar
quasi-convexity counterexample search.

Exit codes: 0 success, 2 polytope validation failure, 3 violated
operation precondition, 4 failed internal cross-check.  All reports carry
exact values as "p/q" strings next to 12-significant-digit float
renderings; identical configuration (including seed) produces
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from . import decomp, moments, polytope, variations
from .errors import InternalCheckFailed, PreconditionError, ValidationError
from .exactnum import Matrix, rat, to_decimal_str, vec
from .polytope import Polytope

DEFAULT_PRECISION_BITS = 53
DEFAULT_SEED = 0
DEFAULT_BUDGET = 10_000


@dataclass
class RunConfig:
    subcommand: str
    inputs: list[str]
    precision: int = DEFAULT_PRECISION_BITS
    fd_step: Fraction = variations.DEFAULT_FD_STEP
    seed: int = DEFAULT_SEED
    budget: int = DEFAULT_BUDGET
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


def _jfloat(x) -> float:
    return float("%.12g" % float(x))


def _exact(x: Fraction) -> str:
    return str(x)


def _exact_pair(x: Fraction, precision: int | None = None) -> dict:
    out = {"exact": _exact(x), "float": _jfloat(x)}
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


def _speed_from_arg(p: Polytope, value: str):
    data = _load_json_arg(value)
    g = vec(data)
    if len(g) != len(p.vertices):
        raise PreconditionError(
            "speed has %d entries, polytope has %d vertices (canonical order)"
            % (len(g), len(p.vertices)))
    return g


def _emit(config: RunConfig, payload, text: str | None = None) -> None:
    if isinstance(payload, str):
        rendered = payload
    else:
        rendered = json.dumps(payload, indent=2) + "\n"
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(rendered)
        if text:
            sys.stdout.write(text)
    else:
        if text:
            sys.stdout.write(text)
        sys.stdout.write(rendered)


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
        "eps_bound": _exact(eps),
        "exact": _derivative_report_dict(exact),
        "finite_difference": {
            "step": _exact(h),
            "d_vol": _jfloat(fd.d_vol),
            "d_x2": _jfloat(fd.d_x2),
            "dd_vol": _jfloat(fd.dd_vol),
            "dd_x2": _jfloat(fd.dd_x2),
        },
        "gap_integral": _exact_pair(variations.gap_integral(p, g)),
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
# fast exact 2-D path for the quasi-convexity search

def _polygon_sums(ccw):
    """Integer shoelace sums of a polygon given in cyclic order.

    The vertices are scaled by the LCM `d` of their coordinate
    denominators to integer points; over the edges (p, q) of the scaled
    polygon, with det = p0 q1 - p1 q0, the sums are a = sum det,
    b_i = sum det (p_i + q_i) and c_ij = sum det (2 p_i p_j + 2 q_i q_j
    + p_i q_j + p_j q_i).  The signed origin-fan moments of the scaled
    polygon are vol = a/2, int x_i = b_i/6 and int x_i x_j = c_ij/24.
    Returns (d, a, b0, b1, c00, c01, c11).
    """
    d = lcm(*(x.denominator for p in ccw for x in p))
    pts = [(p[0].numerator * (d // p[0].denominator), p[1].numerator * (d // p[1].denominator))
           for p in ccw]
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
    return d, a, b0, b1, 2 * c00, c01, 2 * c11


def _polygon_l2n(ccw):
    """L^(2n) = det(cov)/vol^2, which does not change under scaling: with
    the sums of `_polygon_sums`, cov_ij = (3 a c_ij - 4 b_i b_j)/(36 a^2)
    and vol = a/2 in the scaled frame."""
    _, a, b0, b1, c00, c01, c11 = _polygon_sums(ccw)
    s00 = 3 * a * c00 - 4 * b0 * b0
    s11 = 3 * a * c11 - 4 * b1 * b1
    s01 = 3 * a * c01 - 4 * b0 * b1
    return Fraction(s00 * s11 - s01 * s01, 324 * a ** 6)


def _polygon_center(ccw):
    """Translate the polygon by minus its centroid c_i = b_i/(3 a d)."""
    d, a, b0, b1, *_ = _polygon_sums(ccw)
    c = (Fraction(b0, 3 * a * d), Fraction(b1, 3 * a * d))
    return [(p[0] - c[0], p[1] - c[1]) for p in ccw]


def _polygon_polar(ccw):
    """Polar polygon, cyclic order; needs the origin strictly inside."""
    out = []
    m = len(ccw)
    for k in range(m):
        p, q = ccw[k], ccw[(k + 1) % m]
        nx, ny = q[1] - p[1], p[0] - q[0]
        b = nx * p[0] + ny * p[1]
        if b <= 0:
            return None
        out.append((nx / b, ny / b))
    return out


def _random_points(rng: random.Random, cfg: RunConfig, k: int):
    d = cfg.denominator_bound
    pts = []
    for _ in range(k):
        s = Fraction(rng.randrange(-d, d + 1), d)
        sign = 1 if rng.getrandbits(1) else -1
        den = 1 + s * s
        direction = (sign * (1 - s * s) / den, sign * 2 * s / den)
        radius = Fraction(rng.randrange(1, 9), rng.randrange(1, 4))
        pts.append((radius * direction[0], radius * direction[1]))
    return pts


def _random_polygon(rng: random.Random, cfg: RunConfig):
    kmin, kmax = cfg.vertex_range
    while True:
        k = rng.randrange(kmin, kmax + 1)
        hull = polytope.convex_hull_2d(_random_points(rng, cfg, k))
        if len(hull) >= 3:
            return _polygon_center(hull)


def _cut_corner(ccw, idx: int, depth: Fraction):
    """Replace vertex idx by two points at fractional depth along its edges."""
    m = len(ccw)
    a, b, c = ccw[idx], ccw[(idx + 1) % m], ccw[(idx - 1) % m]
    p1 = tuple(a[i] + depth * (b[i] - a[i]) for i in range(2))
    p2 = tuple(a[i] + depth * (c[i] - a[i]) for i in range(2))
    return polytope.convex_hull_2d([p1, p2] + [ccw[j] for j in range(m) if j != idx])


def _random_cut_triangle_pair(rng: random.Random, cfg: RunConfig):
    """Two independent corner truncations of one random triangle.

    The isotropic constant peaks at triangles, so Minkowski segments
    between two differently truncated copies cross the peak sideways;
    these pairs carry most of the counterexample mass.
    """
    while True:
        hull = polytope.convex_hull_2d(_random_points(rng, cfg, 3))
        if len(hull) == 3:
            break
    # one common depth: the polar functional only dips symmetrically
    depth = Fraction(rng.randrange(1, 9), 32)
    out = []
    for _ in range(2):
        corner = rng.randrange(3)
        out.append(_polygon_center(_cut_corner(hull, corner, depth)))
    return out


def _random_pair(rng: random.Random, cfg: RunConfig):
    if rng.randrange(100) == 0:
        return _random_cut_triangle_pair(rng, cfg)
    return [_random_polygon(rng, cfg), _random_polygon(rng, cfg)]


def _minkowski_midpoint(ccw1, ccw2):
    """Minkowski midpoint (K + L)/2 of two polygons by merging their edge
    sequences in O(m + k).

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
    def edges(ccw):
        return [(q[0] - p[0], q[1] - p[1]) for p, q in zip(ccw, ccw[1:] + ccw[:1])]

    e1, e2 = edges(ccw1), edges(ccw2)
    m, k = len(e1), len(e2)
    x, y = ccw1[0][0] + ccw2[0][0], ccw1[0][1] + ccw2[0][1]
    out = []
    i = j = 0
    while i < m or j < k:
        out.append((x / 2, y / 2))
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
    return out


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
        l2n_k = _polygon_l2n(k)
        l2n_l = _polygon_l2n(l)
        l2n_m = _polygon_l2n(mid)
        if l2n_m > max(l2n_k, l2n_l):
            candidates.append(("direct", l2n_k, l2n_l, l2n_m))
        pk = _polygon_polar(k)
        pl = _polygon_polar(l)
        pm = _polygon_polar(_polygon_center(mid))
        if pk and pl and pm:
            p_k, p_l, p_m = _polygon_l2n(pk), _polygon_l2n(pl), _polygon_l2n(pm)
            if p_m > max(p_k, p_l):
                candidates.append(("polar", p_k, p_l, p_m))
        for functional, vk, vl, vm in candidates:
            record = {
                "trial": trial,
                "functional": functional,
                "k_vertices": [[str(x) for x in v] for v in k],
                "l_vertices": [[str(x) for x in v] for v in l],
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
            "eps": _exact(eps),
            "summand_plus": polytope.to_json_dict(q),
            "summand_minus": polytope.to_json_dict(r),
            "reconstructs_double_polar": polytope.minkowski_sum(q, r) == doubled,
        })
    elif cmd == "symmetric":
        gens = _load_json_arg(config.generators)
        mats = [[[rat(x) for x in row] for row in g] for g in gens]
        _emit(config, _symmetry_report(body, mats))
    elif cmd == "variation":
        g = _speed_from_arg(body, config.speed)
        _emit(config, _variation_report(body, g, config.fd_step))
    elif cmd == "certify":
        gens = None
        if config.generators:
            gens = [[[rat(x) for x in row] for row in g]
                    for g in _load_json_arg(config.generators)]
        report = maximizer_report(body, gens, config.fd_step, config.precision)
        _emit(config, report, text=render_maximizer_text(report))
    elif cmd == "shadow":
        direction = vec(_load_json_arg(config.direction))
        beta = _speed_from_arg(body, config.beta)
        t = config.t_range
        system = variations.ShadowSystem(body, direction, beta, (-t, t))
        k = max(3, config.grid)
        lines = ["t,vol,vol_float,l_pow_2n,l_pow_2n_float"]
        for i in range(k):
            ti = -t + 2 * t * Fraction(i, k - 1)
            body_t = variations.shadow_polytope(system, ti)
            md = moments.body_moments(body_t)
            l2n = moments.l_pow_2n(body_t)
            lines.append("%s,%s,%.12g,%s,%.12g" % (
                ti, md.volume, float(md.volume), l2n, float(l2n)))
        _emit(config, "\n".join(lines) + "\n")
    elif cmd == "rs-dim":
        direction = vec(_load_json_arg(config.direction))
        _emit(config, {
            "direction": _vec_exact(direction),
            "rs_speed_dim": variations.rs_speed_space(body, direction),
            "threshold_bound": decomp.decomposability_threshold(body.dim),
        })
    else:  # pragma: no cover
        raise ValueError("unknown subcommand %r" % cmd)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isodecomp",
        description="exact decomposability analysis of rational polytopes "
                    "against local-maximizer conditions for the isotropic constant")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, with_input=True):
        if with_input:
            sp.add_argument("input", help="polytope JSON file")
        sp.add_argument("--precision", type=int,
                        default=int(os.environ.get("ISODECOMP_PRECISION", DEFAULT_PRECISION_BITS)),
                        help="decimal rendering precision in bits (>= 53)")
        sp.add_argument("--fd-step", default=None, help="finite difference step p/q")
        sp.add_argument("--out", default=None, help="write the report to a file")

    for name in ("moments", "lk", "decomp", "components", "polar"):
        common(sub.add_parser(name))
    sp = sub.add_parser("summands")
    common(sp)
    sp.add_argument("--speed", required=True, help="vertex speed JSON (inline or file)")
    sp.add_argument("--eps", default=None, help="perturbation size p/q")
    sp = sub.add_parser("symmetric")
    common(sp)
    sp.add_argument("--generators", required=True, help="JSON list of rational matrices")
    sp = sub.add_parser("variation")
    common(sp)
    sp.add_argument("--speed", required=True, help="vertex speed JSON (inline or file)")
    sp = sub.add_parser("certify")
    common(sp)
    sp.add_argument("--generators", default=None, help="JSON list of rational matrices")
    sp = sub.add_parser("shadow")
    common(sp)
    sp.add_argument("--dir", dest="direction", required=True, help="direction JSON")
    sp.add_argument("--beta", required=True, help="vertex speed JSON")
    sp.add_argument("--grid", type=int, default=9)
    sp.add_argument("--t-range", dest="t_range", default="1/4")
    sp = sub.add_parser("rs-dim")
    common(sp)
    sp.add_argument("--dir", dest="direction", required=True, help="direction JSON")
    sp = sub.add_parser("quasiconvex-search")
    common(sp, with_input=False)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--vertices", default="3:8", help="vertex count range min:max")
    sp.add_argument("--denominator-bound", type=int, default=12)
    return parser


def config_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand,
                    inputs=[getattr(args, "input")] if hasattr(args, "input") else [])
    cfg.precision = max(DEFAULT_PRECISION_BITS, getattr(args, "precision", DEFAULT_PRECISION_BITS))
    if getattr(args, "fd_step", None):
        cfg.fd_step = rat(args.fd_step)
    cfg.out = getattr(args, "out", None)
    cfg.generators = getattr(args, "generators", None)
    cfg.speed = getattr(args, "speed", None)
    if getattr(args, "eps", None):
        cfg.eps = rat(args.eps)
    cfg.direction = getattr(args, "direction", None)
    cfg.beta = getattr(args, "beta", None)
    cfg.grid = getattr(args, "grid", 9)
    if getattr(args, "t_range", None):
        cfg.t_range = rat(args.t_range)
    if hasattr(args, "seed"):
        cfg.seed = args.seed
    if hasattr(args, "budget"):
        cfg.budget = max(0, args.budget)
    if getattr(args, "vertices", None):
        try:
            lo, hi = (int(k) for k in args.vertices.split(":"))
        except ValueError:
            parser.error("--vertices must read min:max, got %r" % args.vertices)
        if not 3 <= lo <= hi:
            parser.error("--vertices needs 3 <= min <= max, got %r" % args.vertices)
        cfg.vertex_range = (lo, hi)
    if hasattr(args, "denominator_bound"):
        if args.denominator_bound < 1:
            parser.error("--denominator-bound must be at least 1")
        cfg.denominator_bound = args.denominator_bound
    return cfg


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    config = config_from_args(parser.parse_args(argv), parser)
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
