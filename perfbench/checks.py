"""Checks of every op's output against answers that do not come from
isodecomp: the hand-derived values in reference.json, exact Fraction
recomputation over a scipy convex hull, and, for search records, a
re-verification through the library's public functions."""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import factorial, gcd

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def frac_det(rows) -> Fraction:
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


def frac_rank(rows) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def exact_hull(points):
    """Boundary simplices and facet planes of the hull of integer points.

    scipy proposes the triangulated boundary; each simplex's plane is then
    recomputed with integers and must support every point, so a wrong
    float decision shows as an error rather than as a wrong reference.
    Returns (boundary simplices as point tuples, facet planes, vertex count).
    """
    import numpy as np
    from scipy.spatial import ConvexHull

    points = sorted(set(map(tuple, points)))
    n = len(points[0])
    hull = ConvexHull(np.array([[float(x) for x in p] for p in points]))
    simplices, planes = [], set()
    for simplex in hull.simplices:
        pts = [points[i] for i in simplex]
        rows = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
        normal = [(-1) ** j * frac_det([r[:j] + r[j + 1:] for r in rows]) for j in range(n)]
        if not any(normal):
            continue  # a flat piece of a triangulated non-simplex facet
        offset = _dot(normal, pts[0])
        values = [_dot(normal, p) for p in points]
        if max(values) > offset:
            normal, offset, values = [-x for x in normal], -offset, [-x for x in values]
        if max(values) > offset:
            raise ValueError("scipy facet %s does not support the point set" % list(simplex))
        scale = 0
        for x in list(normal) + [offset]:
            scale = gcd(scale, int(x))
        planes.add(tuple(int(x) // scale for x in list(normal) + [offset]))
        simplices.append(tuple(pts))
    vertices = 0
    for p in points:
        active = [pl[:n] for pl in planes if _dot(pl[:n], p) == pl[n]]
        if active and frac_rank(active) == n:
            vertices += 1
    return simplices, sorted(planes), vertices


def exact_l2n(points) -> Fraction:
    """det(covariance) / volume^2 by Fraction simplex-moment formulas over
    the boundary simplices coned to the vertex mean."""
    simplices, _, _ = exact_hull(points)
    n = len(points[0])
    c = tuple(Fraction(sum(p[i] for p in points), len(points)) for i in range(n))
    vol = Fraction(0)
    m1 = [Fraction(0)] * n
    m2 = [[Fraction(0)] * n for _ in range(n)]
    for s in simplices:
        verts = [c] + [tuple(Fraction(x) for x in p) for p in s]
        v = abs(frac_det([[a - b for a, b in zip(p, c)] for p in verts[1:]])) / factorial(n)
        col = [sum(p[i] for p in verts) for i in range(n)]
        vol += v
        w = v / ((n + 1) * (n + 2))
        for i in range(n):
            m1[i] += v * col[i] / (n + 1)
            for j in range(n):
                m2[i][j] += w * (sum(p[i] * p[j] for p in verts) + col[i] * col[j])
    cen = [x / vol for x in m1]
    cov = [[m2[i][j] / vol - cen[i] * cen[j] for j in range(n)] for i in range(n)]
    return frac_det(cov) / (vol * vol)


def expected_certify(op, ref: dict) -> dict:
    if op.reference is not None:
        return ref["bodies"][op.reference]
    n = len(op.points[0])
    _, _, dim = exact_hull(op.points)
    bound = (n * n + 3 * n) // 2
    if dim > bound:
        verdict = "excluded: decomposability dimension %d > bound %d" % (dim, bound)
    else:
        verdict = "not excluded by the decomposability threshold (dim %d <= bound %d)" % (dim, bound)
    # the generator keeps the points in general position, so the body is
    # simplicial and dim F(P) is its vertex count
    return {"L_pow_2n": str(exact_l2n(op.points)), "decomposability_dim": dim,
            "threshold_bound": bound, "verdict": verdict}


def check_certify(op, out: str, ref: dict) -> list:
    report = json.loads(out[out.index("\n{") + 1:])
    want = expected_certify(op, ref)
    got = {"L_pow_2n": report["L_pow_2n"]["exact"],
           "decomposability_dim": report["decomposability_dim"],
           "threshold_bound": report["threshold_bound"],
           "verdict": report["verdict"]}
    return [(k, want[k], got[k]) for k in got if got[k] != want[k]]


def check_polar(op, out: str, ref: dict) -> list:
    body = json.loads(out)
    _, planes, vertices = exact_hull(op.points)
    fails = []
    if op.reference is not None:
        want = ref["bodies"][op.reference]
        if (vertices, len(planes)) != (want["n_vertices"], want["n_facets"]):
            fails.append(("scipy hull", (want["n_vertices"], want["n_facets"]),
                          (vertices, len(planes))))
    if len(body["vertices"]) != len(planes):
        fails.append(("polar vertices", len(planes), len(body["vertices"])))
    if len(body["facets"]) != vertices:
        fails.append(("polar facets", vertices, len(body["facets"])))
    return fails


def check_summands(op, out: str, ref: dict) -> list:
    report = json.loads(out)
    fails = []
    if report["reconstructs_double_polar"] is not True:
        fails.append(("reconstructs_double_polar", True, report["reconstructs_double_polar"]))
    if not Fraction(report["eps"]) > 0:
        fails.append(("eps", "> 0", report["eps"]))
    return fails


def verify_record(record: dict) -> bool:
    """Recompute one counterexample from its vertices with public functions."""
    from isodecomp.moments import isotropy
    from isodecomp.polytope import hull_facets, minkowski_sum, polar, scale, translate

    k = hull_facets([[Fraction(x) for x in v] for v in record["k_vertices"]])
    l = hull_facets([[Fraction(x) for x in v] for v in record["l_vertices"]])
    mid = scale(minkowski_sum(k, l), Fraction(1, 2))

    def value(body):
        if record["functional"] == "polar":
            body = polar(translate(body, [-x for x in isotropy(body).centroid]))
        return isotropy(body).l_pow_2n

    vk, vl, vm = value(k), value(l), value(mid)
    return ([str(vk), str(vl), str(vm), str(vm - max(vk, vl))]
            == [record["l2n_k"], record["l2n_l"], record["l2n_mid"], record["margin"]]
            and vm > max(vk, vl))


def check_search(op, out: str, ref: dict) -> list:
    report = json.loads(out)
    seed, budget = int(op.flags[1]), int(op.flags[3])
    records = report["counterexamples"]
    fails = []
    if (report["seed"], report["budget"]) != (seed, budget):
        fails.append(("seed/budget", (seed, budget), (report["seed"], report["budget"])))
    if report["n_counterexamples"] != len(records):
        fails.append(("n_counterexamples", len(records), report["n_counterexamples"]))
    keys = [(r["trial"], r["functional"]) for r in records]
    if keys != sorted(keys) or any(not 0 <= t < budget for t, _ in keys):
        fails.append(("record order", "sorted trials < budget", keys))
    bad = [r["trial"] for r in records if not verify_record(r)]
    if bad:
        fails.append(("re-verified records", [], bad))
    return fails


CHECKS = {"certify": check_certify, "polar": check_polar,
          "summands": check_summands, "quasiconvex-search": check_search}


def check(op, out: str, ref: dict) -> list:
    """Failures as (field, expected, got); empty when the answer is right."""
    try:
        return CHECKS[op.command](op, out, ref)
    except Exception as exc:  # a malformed output is a wrong answer
        return [("output", "a checkable report", "%s: %s" % (type(exc).__name__, exc))]


def is_known_defect(op_name: str, failures: list, ref: dict) -> bool:
    """Whether the only failure is one that reference.json records."""
    known = {(d["op"], d["field"], d["got"]) for d in ref["known_defects"]}
    return bool(failures) and all((op_name, f, got) in known for f, _, got in failures)
