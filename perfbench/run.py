"""Benchmark of the isodecomp CLI: seeded workloads, exact-answer checks,
and a traced run that splits the time by layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Each op is one call of the real entry point, ``isodecomp.cli.main(argv)``,
in process with stdout captured.  Load model: closed loop, one client, one
process, no threads.  Before every op the package's functools caches are
emptied, as in the fresh process a CLI user starts for each command, and
within one pass of a workload no two ops share an input body.  A run
repeats the workload's fixed op list in passes while another pass still
fits in ``--seconds`` (always at least one) and reports medians over the
passes; every run of an op must give byte-identical output.  ``attempted``
counts the ops of the list and ``failed`` those with a wrong answer in any
run.  ``correct`` is false when some op fails in a way that reference.json
does not list under ``known_defects``; listed failures still count in
``failed``.

Workloads (the reasons are in workloads.py):
  certify  certify on named bodies in several frames and on seeded random
           polygons, a 3-D body with a kernel and a 4-D body
  search   quasiconvex-search calls with seeds drawn from the workload seed
  hull     polar on 4-D bodies and summands on 3-D bipyramids

``--trace 0`` reports the end-to-end metrics:
  wall_s       wall time of the op list (one pass), median over passes
  ops_per_s    ops in the list divided by wall_s
  cpu_s        user+sys CPU time of the process and its children in a pass
  setup_s      median time of a fresh interpreter importing the CLI, plus
               median time of generating and writing the inputs
  peak_rss_mb  larger of the process's and its children's peak RSS
It also prints, without a bound, op_p50_s (median time of an op; on
certify a 0.3 s op whose time swings by a third between identical runs
on a shared 2-core machine) and fail_ratio (failed / attempted, 0 on
search and hull).  ``--trace 1`` runs one
untraced pass, then one pass with every public function of the layer
modules wrapped in a span (see layers.py), and reports the per-layer
metrics and the tracing overhead.  Answers are checked after the timed
passes (see checks.py).  The last line of stdout is the result object;
the line before it holds provenance and one row per op.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7

sys.path.insert(0, HERE)
import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = [
    "polytope.hull_facets.calls", "polytope.hull_facets.self_s", "polytope.hull_facets.points_in",
    "polytope.validate.calls", "polytope.validate.self_s",
    "exactnum.determinant.calls", "exactnum.determinant.self_s", "exactnum.determinant.max_bits",
    "exactnum.rref_rank.calls", "exactnum.rref_rank.self_s",
    "moments.triangulate.calls", "moments.triangulate.self_s", "moments.triangulate.simplices",
    "moments.body_moments.calls", "moments.body_moments.self_s",
    "moments.body_moments.hit_ratio", "moments.body_moments.max_bits",
    "moments.facet_moment.calls", "moments.facet_moment.self_s",
    "moments.facet_table.hit_ratio",
    "moments.isotropy.self_s",
    "moments.isotropize_polytope.self_s", "moments.isotropize_polytope.max_bits",
    "decomp.facewise_affine_space.calls", "decomp.facewise_affine_space.self_s",
    "decomp.facewise_affine_space.dim",
    "decomp.hypergraph_components.self_s",
    "decomp.summand_pair.self_s",
    "variations.kernel_direction.self_s", "variations.kernel_direction.max_bits",
    "variations.eps_bound.self_s", "variations.eps_bound.hit_ratio",
    "variations.radial_polytope.calls", "variations.radial_polytope.self_s",
    "variations.radial_polytope.max_bits",
    "variations.boundary_first_derivatives.calls", "variations.boundary_first_derivatives.self_s",
    "variations.boundary_second_derivatives.self_s",
    "variations.lk_second_derivative.self_s",
    "cli.maximizer_report.self_s",
    "cli.quasiconvex_search.self_s", "cli.quasiconvex_search.records",
]
STAT_UNITS = {"calls": "count", "self_s": "s", "points_in": "count", "max_bits": "bits",
              "simplices": "count", "hit_ratio": "ratio", "dim": "count", "records": "count"}


def load_cli():
    """Import isodecomp from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        from isodecomp import cli
    except ImportError as exc:
        sys.exit("perfbench: cannot import isodecomp from %s: %s" % (SRC, exc))
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: isodecomp was imported from %s, not %s" % (cli.__file__, SRC))
    return cli


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def set_up(workload: str, seed: int, workdir: str, repeats: int = SETUP_REPEATS):
    """Build and write the inputs; time it together with a cold import.

    Set-up is the median time of a fresh interpreter importing the CLI
    plus the median time of generating and writing the inputs.
    """
    imports, builds = [], []
    code = "import sys; sys.path.insert(0, %r); import isodecomp.cli" % SRC
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        imports.append(time.perf_counter() - t0)
    for _ in range(repeats):
        t0 = time.perf_counter()
        ops = workloads.build(workload, seed)
        workloads.write_inputs(ops, workdir)
        builds.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(builds), ops


class Runner:
    """Runs ops through the CLI entry point and keeps one row per op run."""

    def __init__(self, cli, caches):
        self.cli = cli
        self.caches = caches
        self.rows: list[dict] = []
        self.outputs: list[tuple] = []  # (op, stdout, error) per row

    def run_op(self, op, pass_no: int, tracer=None) -> tuple[float, float]:
        """Run one op once; return its wall and CPU seconds."""
        for cache in self.caches:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return self.cli.main(op.argv)

        error = None
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            rc = tracer.run_root(call) if tracer else call()
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the op failed; record it and go on
            rc, error = None, "%s: %s" % (type(exc).__name__, exc)
        seconds, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        if rc != 0 and error is None:
            error = "exit code %r: %s" % (rc, err.getvalue().strip()[-300:])
        text = out.getvalue()
        self.rows.append({"op": op.name, "pass": pass_no, "seconds": seconds,
                          "digest": hashlib.sha256(text.encode()).hexdigest()})
        self.outputs.append((op, text, error))
        return seconds, cpu

    def run_passes(self, ops, seconds: float, max_passes: int | None = None, tracer=None):
        """Whole passes over ops while another still fits in ``seconds``.

        Returns, per pass, each op's (wall, CPU) seconds, and the time all
        passes took.
        """
        passes, walls = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append([self.run_op(op, len(passes), tracer) for op in ops])
            walls.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if len(passes) == max_passes or elapsed + max(walls) > seconds:
                return passes, elapsed


def check_rows(runner: Runner, ref: dict) -> list[dict]:
    """Check every op run; the first run of an op against the references,
    each repeat against the first run's bytes."""
    first: dict[str, tuple] = {}
    failures = []
    for row, (op, text, error) in zip(runner.rows, runner.outputs):
        if error is not None:
            fails = [("run", "exit code 0", error)]
        elif op.name in first:
            digest, fails = first[op.name]
            if row["digest"] != digest:
                fails = [("digest", digest, row["digest"])]
        else:
            fails = checks.check(op, text, ref)
        first.setdefault(op.name, (row["digest"], fails))
        row["ok"] = not fails
        if fails:
            known = checks.is_known_defect(op.name, fails, ref)
            row["known_defect"] = known
            if not any(f["op"] == op.name for f in failures):
                failures.append({"op": op.name, "known_defect": known,
                                 "fails": [[f, str(w), str(g)] for f, w, g in fails]})
    return failures


def provenance(args) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "isodecomp", "*.py"))):
        with open(path, "rb") as fh:
            source.update(fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit,
            "source_sha256": source.hexdigest(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def measure(args, cli, workdir: str) -> tuple[dict, Runner, dict]:
    """Run the workload; return (metrics, runner, extra provenance)."""
    caches = layers.find_caches()
    setup_s, ops = set_up(args.workload, args.seed, workdir)
    runner = Runner(cli, caches)
    if not args.trace:
        passes, elapsed = runner.run_passes(ops, args.seconds)
        walls = [sum(t[0] for t in times) for times in passes]
        wall_s = statistics.median(walls)
        values = {
            "wall_s": wall_s,
            "ops_per_s": len(ops) / wall_s,
            "cpu_s": statistics.median(sum(t[1] for t in times) for times in passes),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        if args.workload == "search" and len(passes) == 1:
            runner.run_op(ops[0], 1)  # the determinism check needs a repeat
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        op_p50_s = statistics.median(t[0] for times in passes for t in times)
        return metrics, runner, {"passes": len(passes), "pass_wall_s": walls,
                                 "op_p50_s": op_p50_s}
    untraced, _ = runner.run_passes(ops, args.seconds, max_passes=1)
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced, _ = runner.run_passes(ops, args.seconds, max_passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    untraced_s, traced_s = (sum(t[0] for t in p[0]) for p in (untraced, traced))
    metrics = {name: {"value": tracer.metric(name), "unit": STAT_UNITS[name.rsplit(".", 1)[1]]}
               for name in PER_LAYER}
    metrics["trace_overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    extra = {"untraced_wall_s": untraced_s, "traced_wall_s": traced_s,
             "root_s": tracer.root_ns / 1e9, "self_s_sum": tracer.self_ns_total() / 1e9,
             "spans": tracer.spans()}
    return metrics, runner, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    ref = checks.load_reference()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        metrics, runner, extra = measure(args, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = check_rows(runner, ref)

    attempted = len({r["op"] for r in runner.rows})
    failed = len(failures)
    for r in runner.rows:
        status = "ok" if r["ok"] else ("FAIL (known defect)" if r["known_defect"] else "FAIL")
        print("%-26s pass %d %9.4f s  %-20s %s" % (r["op"], r["pass"], r["seconds"], status,
                                                  r["digest"][:16]))
    for name, m in metrics.items():
        print("%-50s %.6g %s" % (name, m["value"], m["unit"]))
    if "op_p50_s" in extra:
        print("%-50s %.6g s (printed only, no bound)" % ("op_p50_s", extra["op_p50_s"]))
    print("%-50s %.6g (%d of %d ops)" % ("fail_ratio", failed / attempted, failed, attempted))
    print(json.dumps({"provenance": dict(provenance(args), **extra), "rows": runner.rows,
                      "failures": failures}))
    print(json.dumps({"correct": all(f["known_defect"] for f in failures),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
