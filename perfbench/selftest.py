"""Tests of the benchmark itself: a tiny run of each workload, the
references against independent recomputation, the span arithmetic and
the refusal to run without the program.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CLI = run.load_cli()
REF = checks.load_reference()


@pytest.fixture
def workdir():
    path = tempfile.mkdtemp(prefix=".perfbench-test-", dir=run.ROOT)
    yield path
    shutil.rmtree(path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run(workload, workdir):
    ops = workloads.build(workload, 7, tiny=True)
    workloads.write_inputs(ops, workdir)
    runner = run.Runner(CLI, layers.find_caches())
    runner.run_passes(ops, 0, max_passes=1)
    tracer = layers.Tracer()
    tracer.install()
    try:
        runner.run_passes(ops, 0, max_passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    failures = run.check_rows(runner, REF)
    known = {d["op"] for d in REF["known_defects"]}
    assert all(f["known_defect"] and f["op"] in known for f in failures), failures
    assert len(runner.rows) == 2 * len(ops)
    # self times partition the root spans exactly (integer nanoseconds)
    assert tracer.stats[layers.ROOT][0] == len(ops)
    assert tracer.self_ns_total() == tracer.root_ns > 0
    for name in run.PER_LAYER:
        assert tracer.metric(name) >= 0
    assert CLI.main.__module__ == "isodecomp.cli" and not hasattr(CLI.main, "__wrapped__")


def test_tracer_rebinds_imported_copies():
    from isodecomp import moments, polytope, variations

    original = polytope.hull_facets
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert moments.hull_facets is polytope.hull_facets is not original
        assert variations.hull_facets.__wrapped__ is original
        assert hasattr(moments.body_moments, "__wrapped__")
    finally:
        tracer.uninstall()
    assert moments.hull_facets is polytope.hull_facets is original


def test_value_bits():
    assert layers.value_bits(Fraction(-7, 1024)) == 11
    assert layers.value_bits(((Fraction(1, 3), 5), [Fraction(255)])) == 8
    assert layers.value_bits(None) == 0


@pytest.mark.parametrize("body,points", [
    ("hexagon", workloads.HEXAGON),
    ("hexagonal_prism", [v + (s,) for v in workloads.HEXAGON for s in (-1, 1)]),
    ("cube3", workloads._cube(3)),
    ("octahedron", workloads._cross_polytope(3)),
])
def test_reference_values_match_recomputation(body, points):
    assert str(checks.exact_l2n(points)) == REF["bodies"][body]["L_pow_2n"]


@pytest.mark.parametrize("body,points", [("cube4", workloads._cube(4)),
                                         ("24-cell", workloads._cell24())])
def test_reference_counts_match_scipy(body, points):
    _, planes, vertices = checks.exact_hull(points)
    want = REF["bodies"][body]
    assert (vertices, len(planes)) == (want["n_vertices"], want["n_facets"])


def test_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, 3)
        assert [(o.name, o.points, o.flags) for o in a] == [
            (o.name, o.points, o.flags) for o in workloads.build(workload, 3)]
        assert [o.points or o.flags for o in a] != [
            o.points or o.flags for o in workloads.build(workload, 4)]


def test_random_bodies_have_the_promised_shape():
    for seed in range(3):
        ops = {o.name: o for o in workloads.build("certify", seed)}
        _, _, vertices = checks.exact_hull(ops["certify:kernel3d"].points)
        assert vertices == 10 and workloads.general_position(ops["certify:kernel3d"].points)
        assert workloads.general_position(ops["certify:body4d"].points)


def test_refuses_to_run_without_the_program():
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-test-") as bare:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
