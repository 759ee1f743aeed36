"""Seeded inputs for the benchmark workloads.

A workload is a fixed list of ops; an op is one isodecomp CLI invocation.
The program sees only the JSON files and flags written here.  Random
bodies are built so that their exact answers follow from theory the
checks can apply without isodecomp: points on a lattice sphere are all
vertices, and with no n+1 of them on a common hyperplane the body is
simplicial, so every vertex-value vector is facewise affine and
dim F(P) equals the number of vertices.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
HEXAGON_FRAMES = [
    [[1, 0], [0, 1]],
    [[2, 1], [0, 1]],
    [[1, Fraction(1, 2)], [Fraction(-1, 3), 2]],
]
# Frames 1 and 2 are the ones on which certify's verdict is known to be wrong.
PRISM_FRAMES = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[2, 1, 0], [0, 1, 1], [1, 0, 3]],
    [[1, 2, 0], [0, 1, -1], [1, 0, 1]],
]
SEARCH_OPS = 10
SEARCH_BUDGET = 100


@dataclass
class Op:
    """One CLI invocation: argv after the input path is filled in, plus
    what its check needs (the exact input points, a reference body name)."""

    name: str
    command: str
    points: list | None = None
    flags: list[str] = field(default_factory=list)
    reference: str | None = None
    argv: list[str] = field(default_factory=list)


def _image(frame, points):
    return [tuple(sum(Fraction(frame[i][j]) * p[j] for j in range(len(p)))
                  for i in range(len(frame))) for p in points]


def _int_det(rows) -> int:
    """Determinant of an integer matrix (Bareiss, exact)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def general_position(points) -> bool:
    """No n+1 of the integer points lie on a common affine hyperplane."""
    n = len(points[0])
    for subset in itertools.combinations(points, n + 1):
        base = subset[0]
        if _int_det([[a - b for a, b in zip(p, base)] for p in subset[1:]]) == 0:
            return False
    return True


def lattice_sphere(n: int, r2: int) -> list[tuple[int, ...]]:
    r = int(r2 ** 0.5) + 1
    return [v for v in itertools.product(range(-r, r + 1), repeat=n)
            if sum(x * x for x in v) == r2]


def _sphere_body(rng: random.Random, n: int, r2: int, m: int):
    sphere = lattice_sphere(n, r2)
    while True:
        pts = rng.sample(sphere, m)
        if general_position(pts):
            return pts


def _inside(p, tet) -> bool:
    """Whether p lies in the tetrahedron: on the inner side of every face."""
    for face in itertools.combinations(range(4), 3):
        other = ({0, 1, 2, 3} - set(face)).pop()
        base = tet[face[0]]
        rows = [[a - b for a, b in zip(tet[i], base)] for i in face[1:]]

        def side(q):
            return _int_det(rows + [[a - b for a, b in zip(q, base)]])

        if side(p) * side(tet[other]) < 0:
            return False
    return True


def _bipyramid(rng: random.Random):
    """Five integer points, all vertices, no four coplanar, origin inside:
    a tetrahedron around the origin plus one more point."""
    dirs = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    while True:
        pts = [tuple(rng.randrange(1, 4) * x for x in d) for d in dirs]
        pts.append(tuple(rng.randrange(-5, 6) for _ in range(3)))
        if general_position(pts) and not any(
                _inside(p, [q for q in pts if q != p]) for p in pts):
            return pts


def _cube(n: int):
    return list(itertools.product((-1, 1), repeat=n))


def _cross_polytope(n: int):
    return [tuple(s if j == i else 0 for j in range(n)) for i in range(n) for s in (-1, 1)]


def _cell24():
    pts = set()
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((-1, 1), repeat=2):
            v = [0] * 4
            v[i], v[j] = si, sj
            pts.add(tuple(v))
    return sorted(pts)


def certify_ops(rng: random.Random, tiny: bool) -> list[Op]:
    """Exercises moments and variations at high bit length and their caches
    (ROADMAP item 1).  The sheared prism frames keep the known wrong verdict
    in view; the 3-D kernel op takes about half the pass."""
    prism = [v + (s,) for v in HEXAGON for s in (-1, 1)]
    ops = [Op("certify:hexagon:frame%d" % k, "certify", _image(f, HEXAGON), reference="hexagon")
           for k, f in enumerate(HEXAGON_FRAMES)]
    ops += [Op("certify:prism:frame%d" % k, "certify", _image(f, prism), reference="hexagonal_prism")
            for k, f in enumerate(PRISM_FRAMES[:2] if tiny else PRISM_FRAMES)]
    ops.append(Op("certify:cube3", "certify", _cube(3), reference="cube3"))
    ops.append(Op("certify:octahedron", "certify", _cross_polytope(3), reference="octahedron"))
    # The random bodies below have a kernel, so certify's finite-difference
    # check runs with step min(--fd-step, eps/2).  eps/2 has ~1900 bits, so
    # with the default step of 1/1000 an op's cost jumps by half between
    # seeds with eps above and below 1/500; a step below every seed's eps/2
    # keeps one cost class.
    step = ["--fd-step", "1/1000000000"]
    circle = lattice_sphere(2, 325)
    for k in range(1 if tiny else 3):
        ops.append(Op("certify:polygon%d" % k, "certify", rng.sample(circle, 7), flags=step))
    if not tiny:
        # dim F = 10 > bound 9: the kernel, second-derivative and
        # finite-difference path runs
        ops.append(Op("certify:kernel3d", "certify", _sphere_body(rng, 3, 50, 10), flags=step))
        ops.append(Op("certify:body4d", "certify", _sphere_body(rng, 4, 14, 10)))
    return ops


def search_ops(rng: random.Random, tiny: bool) -> list[Op]:
    """Almost all time is the Fraction planar fast path inside cli; about 1%
    of trials reach the canonical verifier.  Bypasses the hull and
    certificate layers (ROADMAP item 3)."""
    budget = 10 if tiny else SEARCH_BUDGET
    seeds = [rng.randrange(10 ** 6) for _ in range(2 if tiny else SEARCH_OPS)]
    return [Op("search:%d" % s, "quasiconvex-search",
               flags=["--seed", str(s), "--budget", str(budget)]) for s in seeds]


def hull_ops(rng: random.Random, tiny: bool) -> list[Op]:
    """Brute-force hull_facets and exactnum.determinant dominate while moments
    is idle (ROADMAP item 4); the no-change control for items 1 and 3."""
    ops = [Op("polar:cube4", "polar", _cube(4), reference="cube4")]
    if not tiny:
        ops.append(Op("polar:24-cell", "polar", _cell24(), reference="24-cell"))
    for k in range(1 if tiny else 3):
        cloud = []
        while len(set(cloud)) != 14:
            half = [tuple(rng.randrange(-5, 6) for _ in range(4)) for _ in range(7)]
            cloud = half + [tuple(-x for x in p) for p in half]
        ops.append(Op("polar:cloud%d" % k, "polar", cloud))
    for k in range(1 if tiny else 2):
        pts = _bipyramid(rng)
        speed = [0] * 5
        while not any(speed):
            speed = [rng.randrange(-2, 3) for _ in range(5)]
        ops.append(Op("summands:bipyramid%d" % k, "summands", pts,
                      flags=["--speed", json.dumps([str(x) for x in speed])]))
    return ops


OP_LISTS = {"certify": certify_ops, "search": search_ops, "hull": hull_ops}
WORKLOADS = tuple(OP_LISTS)


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The workload's op list; the same seed gives the same ops."""
    return OP_LISTS[workload](random.Random("%s:%d" % (workload, seed)), tiny)


def write_inputs(ops: list[Op], directory: str) -> None:
    """Write each op's body as vertex-only JSON and fill in its argv."""
    for k, op in enumerate(ops):
        op.argv = [op.command]
        if op.points is not None:
            path = os.path.join(directory, "op%02d.json" % k)
            with open(path, "w") as fh:
                json.dump({"dim": len(op.points[0]),
                           "vertices": [[str(x) for x in p] for p in op.points]}, fh)
            op.argv.append(path)
        op.argv += op.flags
