import gc
import hashlib
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction as F

import pytest

import isodecomp
import support
from isodecomp import cli, decomp, polytope
from isodecomp.cli import (
    RunConfig,
    main,
    maximizer_report,
    quasiconvex_search,
    render_maximizer_text,
    _verify_counterexample,
)


@pytest.fixture
def body_file(tmp_path):
    def write(name, body):
        path = tmp_path / ("%s.json" % name)
        polytope.dump(body, str(path))
        return str(path)
    return write


def run_json(argv, tmp_path):
    out = tmp_path / "out.json"
    code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_lk_triangle(body_file, tmp_path, standard_triangle):
    path = body_file("triangle", standard_triangle)
    code, report = run_json(["lk", path], tmp_path)
    assert code == 0
    assert report["L_pow_2n"]["exact"] == "1/108"


def test_moments_subcommand(body_file, tmp_path, square):
    path = body_file("square", square)
    code, report = run_json(["moments", path], tmp_path)
    assert code == 0
    assert report["volume"]["exact"] == "4"
    assert report["second_moments"][0][0] == "4/3"


def test_decomp_subcommand(body_file, tmp_path, octahedron):
    path = body_file("octahedron", octahedron)
    code, report = run_json(["decomp", path], tmp_path)
    assert code == 0
    assert report["decomposability_dim"] == 6
    assert report["threshold_bound"] == 9
    assert report["simplicial"] is True


def test_components_subcommand(body_file, tmp_path, cube3):
    path = body_file("cube", cube3)
    code, report = run_json(["components", path], tmp_path)
    assert code == 0
    assert report["lower_bound"] == 4


def test_polar_subcommand(body_file, tmp_path, cube3):
    path = body_file("cube", cube3)
    code, data = run_json(["polar", path], tmp_path)
    assert code == 0
    assert polytope.from_json_dict(data) == polytope.polar(cube3)


def test_summands_subcommand(body_file, tmp_path, hexagon):
    path = body_file("hexagon", hexagon)
    speed = json.dumps(["1", "0", "0", "0", "0", "0"])
    code, report = run_json(["summands", path, "--speed", speed], tmp_path)
    assert code == 0
    assert report["reconstructs_double_polar"] is True


def test_symmetric_subcommand(body_file, tmp_path, cube3):
    path = body_file("cube", cube3)
    gens = json.dumps([[["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]]])
    code, report = run_json(["symmetric", path, "--generators", gens], tmp_path)
    assert code == 0
    assert report["V_G_dim"] == 6
    assert report["W_G_dim"] == 0


def test_variation_subcommand(body_file, tmp_path, square):
    path = body_file("square", square)
    speed = json.dumps(["1", "1", "1", "1"])
    code, report = run_json(["variation", path, "--speed", speed], tmp_path)
    assert code == 0
    assert report["exact"]["d_vol"]["exact"] == "-8"
    assert abs(report["finite_difference"]["d_vol"] + 8) < 1e-6
    assert report["gap_integral"]["exact"] == "-64/3"


def test_certify_hexagon(body_file, tmp_path, hexagon):
    path = body_file("hexagon", hexagon)
    code, report = run_json(["certify", path], tmp_path)
    assert code == 0
    assert report["exceeds_threshold"] is True
    assert report["certificate"]["positive"] is True
    assert report["verdict"].startswith("excluded")


def test_certify_triangle_not_excluded(body_file, tmp_path, triangle_o):
    path = body_file("triangle", triangle_o)
    code, report = run_json(["certify", path], tmp_path)
    assert code == 0
    assert report["exceeds_threshold"] is False
    assert report["verdict"].startswith("not excluded")
    text = render_maximizer_text(report)
    assert "not excluded" in text


def test_shadow_subcommand(body_file, tmp_path, hexagon):
    path = body_file("hexagon", hexagon)
    out = tmp_path / "curve.csv"
    beta = json.dumps(["1"] * 6)
    code = main(["shadow", path, "--dir", "[\"1\", \"0\"]", "--beta", beta,
                 "--grid", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("t,vol")
    assert len(lines) == 6
    # translation: constant volume column
    vols = {line.split(",")[1] for line in lines[1:]}
    assert vols == {"3"}


def test_rs_dim_subcommand(body_file, tmp_path):
    diamond = support.cross_polytope(2)
    path = body_file("diamond", diamond)
    code, report = run_json(["rs-dim", path, "--dir", "[\"1\", \"0\"]"], tmp_path)
    assert code == 0
    assert report["rs_speed_dim"] == 4


def test_exit_code_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dim": 2,
        "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["2", "2"]],
        "facets": [{"normal": ["1", "1"], "offset": "1", "vertices": [1, 2]}],
    }))
    assert main(["lk", str(bad)]) == 2


def test_exit_code_precondition_error(body_file, tmp_path, cube3):
    path = body_file("cube", cube3)
    assert main(["rs-dim", path, "--dir", "[\"1\", \"0\", \"0\"]"]) == 3


def test_exit_code_missing_file():
    assert main(["lk", "/nonexistent/file.json"]) == 2


def run_cli(argv, tmp_path):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(isodecomp.__file__)))
    proc = subprocess.run([sys.executable, "-m", "isodecomp.cli"] + argv, cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stderr


TRIANGLE_JSON = [["0", "0"], ["1", "0"], ["0", "1"]]


@pytest.mark.parametrize("data", [
    {"vertices": [[1.5, "0"], ["1", "0"], ["0", "1"]]},
    {"vertices": [["x", "0"], ["1", "0"], ["0", "1"]]},
    {"dim": 2},
    {"vertices": TRIANGLE_JSON,
     "facets": [{"normal": ["1", "1"], "offset": "1", "vertices": [5, 6]}]},
    {"dim": "2", "vertices": TRIANGLE_JSON},
    {"dim": True, "vertices": TRIANGLE_JSON},
    {"vertices": TRIANGLE_JSON, "facets": [{"normal": [0, 0], "offset": 0, "vertices": [0]}]},
    {"vertices": [[True, 0], [0, True], [0, 0]]},
], ids=["float", "letter", "no-vertices", "facet-index-out-of-range", "dim-string", "dim-bool",
        "facet-normal-zero", "vertex-bool"])
def test_malformed_body_exits_2(data, tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps(data))
    code, err = run_cli(["lk", "bad.json"], tmp_path)
    assert code == 2
    assert "validation error" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["certify", "moments", "polar", "lk", "components"])
def test_short_facet_normal_is_a_dimension_mismatch(command, tmp_path):
    data = {"vertices": TRIANGLE_JSON,
            "facets": [{"normal": [1], "offset": 1, "vertices": [0]}]}
    (tmp_path / "bad.json").write_text(json.dumps(data))
    code, err = run_cli([command, "bad.json"], tmp_path)
    assert code == 2
    assert "normal of length 1 in dimension 2" in err and "Traceback" not in err


def test_bad_env_precision_exits_2(monkeypatch, tmp_path):
    monkeypatch.setenv("ISODECOMP_PRECISION", "abc")
    code, err = run_cli(["lk", HEXAGON_FILE], tmp_path)
    assert code == 2
    assert "ISODECOMP_PRECISION" in err and "Traceback" not in err
    code, _ = run_cli(["lk", HEXAGON_FILE, "--precision", "60"], tmp_path)
    assert code == 0  # the flag takes precedence over the variable


@pytest.mark.parametrize("data, argv, code, message", [
    ({"vertices": [[]]}, ["polar"], 2, "validation error"),
    ({"vertices": [["-1"], ["1"]]}, ["rs-dim", "--dir", '["1"]'], 3, "precondition error"),
], ids=["polar-0d", "rs-dim-1d"])
def test_low_dimensional_body_exits_cleanly(data, argv, code, message, tmp_path):
    (tmp_path / "low.json").write_text(json.dumps(data))
    got, err = run_cli(argv[:1] + ["low.json"] + argv[1:], tmp_path)
    assert got == code
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ["--vertices", "2:2"],
    ["--vertices", "8:3"],
    ["--vertices", "3"],
    ["--denominator-bound", "0"],
    ["--budget=-5"],
], ids=["two-vertices", "reversed", "no-colon", "zero-bound", "negative-budget"])
def test_bad_search_flags_exit_2(flags, tmp_path):
    code, err = run_cli(["quasiconvex-search", "--budget", "1"] + flags, tmp_path)
    assert code == 2
    assert "error:" in err and "Traceback" not in err


BODIES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bodies")
HEXAGON_FILE = os.path.join(BODIES, "hexagon.json")
SQUARE_FILE = os.path.join(BODIES, "square.json")
ONES_4 = json.dumps(["1"] * 4)


@pytest.mark.parametrize("argv", [
    ["certify", HEXAGON_FILE, "--fd-step", "abc"],
    ["certify", HEXAGON_FILE, "--fd-step", "1/0"],
    ["certify", HEXAGON_FILE, "--fd-step", "0"],
    ["variation", SQUARE_FILE, "--speed", ONES_4, "--fd-step", "0"],
    ["variation", SQUARE_FILE, "--speed", ONES_4, "--fd-step=-1/1000"],
    ["summands", SQUARE_FILE, "--speed", ONES_4, "--eps", "abc"],
    ["shadow", SQUARE_FILE, "--dir", '["1", "0"]', "--beta", ONES_4, "--t-range", "1/0"],
    ["shadow", SQUARE_FILE, "--dir", '["1", "0"]', "--beta", ONES_4, "--t-range", "0"],
    ["shadow", SQUARE_FILE, "--dir", '["1", "0"]', "--beta", ONES_4, "--t-range=-1/4"],
    ["summands", SQUARE_FILE, "--speed", '["1", "2", "1", "2"]', "--eps", "0"],
    ["summands", SQUARE_FILE, "--speed", '["1", "2", "1", "2"]', "--eps=-1/4"],
    ["shadow", SQUARE_FILE, "--dir", '["1", "0"]', "--beta", ONES_4, "--grid", "2"],
    ["shadow", SQUARE_FILE, "--dir", '["1", "0"]', "--beta", ONES_4, "--grid=-4"],
], ids=["fd-step-letters", "fd-step-zero-denominator", "certify-fd-step-zero",
        "variation-fd-step-zero", "fd-step-negative", "eps-letters", "t-range-zero-denominator",
        "t-range-zero", "t-range-negative", "eps-zero", "eps-negative", "grid-2",
        "grid-negative"])
def test_bad_numeric_flags_exit_2(argv, tmp_path):
    code, err = run_cli(argv, tmp_path)
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    if argv[-1].startswith(("--fd-step=-", "--t-range=-", "--eps=-")):
        assert "must be positive" in err
    if any(a.startswith("--grid") for a in argv):
        assert "argument --grid: must be at least 3" in err


@pytest.mark.parametrize("argv", [
    ["variation", HEXAGON_FILE, "--speed", '["a", 1, 1, 1, 1, 1]'],
    ["summands", SQUARE_FILE, "--speed", '[1, 1, "1/0", 1]'],
    ["rs-dim", SQUARE_FILE, "--dir", '["x", 0]'],
    ["shadow", SQUARE_FILE, "--dir", '["1", "0"]', "--beta", '["b", 0, 0, 0]'],
    ["symmetric", SQUARE_FILE, "--generators", '[[["a", "0"], ["0", "1"]]]'],
    ["certify", SQUARE_FILE, "--generators", "[1]"],
    ["symmetric", SQUARE_FILE, "--generators", "[[]]"],
    ["symmetric", SQUARE_FILE, "--generators", '[[["1", "0"], ["0"]]]'],
    ["certify", SQUARE_FILE, "--generators", "[[]]"],
    ["certify", SQUARE_FILE, "--generators", '[[["1", "0"], ["0"]]]'],
    ["variation", SQUARE_FILE, "--speed", "[true, true, true, true]"],
], ids=["speed", "speed-zero-denominator", "dir", "beta", "generators", "generators-shape",
        "generators-empty", "generators-ragged", "certify-generators-empty",
        "certify-generators-ragged", "speed-bool"])
def test_non_rational_json_entries_exit_2(argv, tmp_path):
    code, err = run_cli(argv, tmp_path)
    assert code == 2
    assert "validation error" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["shadow", SQUARE_FILE, "--dir", '["0", "0"]', "--beta", '["1", "0", "0", "0"]'],
    ["shadow", SQUARE_FILE, "--dir", '["1"]', "--beta", '["1", "0", "0", "0"]'],
    ["shadow", SQUARE_FILE, "--dir", '["1", "0", "0"]', "--beta", '["1", "0", "0", "0"]'],
    ["rs-dim", SQUARE_FILE, "--dir", '["0", "0"]'],
    ["rs-dim", SQUARE_FILE, "--dir", '["1"]'],
], ids=["shadow-zero", "shadow-short", "shadow-long", "rs-dim-zero", "rs-dim-short"])
def test_bad_direction_exit_3(argv, tmp_path):
    code, err = run_cli(argv, tmp_path)
    assert code == 3
    assert "precondition error" in err and "Traceback" not in err


def test_search_budget_zero_is_legal(tmp_path):
    code, report = run_json(["quasiconvex-search", "--budget", "0"], tmp_path)
    assert code == 0
    assert report["budget"] == 0 and report["counterexamples"] == []


def test_cli_import_loads_no_numpy():
    """numpy serves only the float isotropizing map of the lk report and is
    imported there; importing the CLI must not load it."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(isodecomp.__file__)))
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, isodecomp.cli; print('numpy' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_python_m_isodecomp(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(isodecomp.__file__)))
    proc = subprocess.run([sys.executable, "-m", "isodecomp", "lk",
                           os.path.join(BODIES, "triangle.json")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dim"] == 2


def test_quasiconvex_search_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["quasiconvex-search", "--seed", "0", "--budget", "150"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_quasiconvex_search_records_verified():
    cfg = RunConfig(subcommand="quasiconvex-search", inputs=[], seed=0, budget=300)
    report = quasiconvex_search(cfg)
    assert report["budget"] == 300
    for record in report["counterexamples"]:
        assert _verify_counterexample(record)
        assert F(record["margin"]) > 0


def test_quasiconvex_budget_zero_empty():
    cfg = RunConfig(subcommand="quasiconvex-search", inputs=[], seed=5, budget=0)
    report = quasiconvex_search(cfg)
    assert report["counterexamples"] == []
    assert report["n_counterexamples"] == 0


def test_quasiconvex_identical_bodies_never_counterexample():
    # midpoint of (K, K) is K exactly: the margin is zero, never strict
    from isodecomp.cli import _minkowski_midpoint, _polygon_center, _polygon_l2n

    k = _polygon_center((polytope.convex_hull_2d([(2, -1), (-1, 2), (-1, -1), (1, 1)]), 1))
    mid = _minkowski_midpoint(k, k)
    assert mid == k
    assert F(*_polygon_l2n(mid)) == F(*_polygon_l2n(k))


def test_cli_env_precision_override(monkeypatch, body_file, tmp_path, standard_triangle):
    monkeypatch.setenv("ISODECOMP_PRECISION", "100")
    path = body_file("triangle", standard_triangle)
    code, report = run_json(["lk", path], tmp_path)
    assert code == 0
    decimal = report["L_pow_2n"]["decimal"]
    assert decimal.startswith("0.00925925925925925925")
    assert len(decimal) > 25  # about bits * log10(2) significant digits


def test_cli_precision_flag_adds_decimal(body_file, tmp_path, standard_triangle):
    path = body_file("triangle", standard_triangle)
    code, report = run_json(["lk", path, "--precision", "80"], tmp_path)
    assert code == 0
    assert "decimal" in report["L_pow_2n"]
    code, report = run_json(["lk", path], tmp_path)
    assert "decimal" not in report["L_pow_2n"]


def test_certify_octagon_structure(body_file, tmp_path, square):
    octagon = polytope.minkowski_sum(square, support.cross_polytope(2))
    path = body_file("octagon", octagon)
    code, report = run_json(["certify", path], tmp_path)
    assert code == 0
    assert report["decomposability_dim"] == 8
    assert report["exceeds_threshold"] is True
    assert report["verdict"].startswith("excluded")
    # a kernel direction exists (dim 8 > 5); the certificate carries both routes
    cert = report["certificate"]
    assert cert is not None and len(cert["direction"]) == 8


HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
PRISM = [v + (s,) for v in HEXAGON for s in (-1, 1)]
HEXAGON_FRAMES = [[[1, 0], [0, 1]], [[2, 1], [0, 1]], [[1, F(1, 2)], [F(-1, 3), 2]]]
PRISM_FRAMES = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[2, 1, 0], [0, 1, 1], [1, 0, 3]],
                [[1, 2, 0], [0, 1, -1], [1, 0, 1]]]


def _frame_image(frame, points):
    return [[str(sum(F(frame[i][j]) * p[j] for j in range(len(p)))) for i in range(len(frame))]
            for p in points]


def _certify_summary(vertices, tmp_path, name):
    path = tmp_path / ("%s.json" % name)
    path.write_text(json.dumps({"dim": len(vertices[0]), "vertices": vertices}))
    code, report = run_json(["certify", str(path)], tmp_path)
    assert code == 0
    cert = report["certificate"]
    return (report["verdict"], report["L_pow_2n"]["exact"],
            None if cert is None else cert["positive"])


@pytest.mark.parametrize("points, frames", [(HEXAGON, HEXAGON_FRAMES), (PRISM, PRISM_FRAMES)],
                         ids=["hexagon", "prism"])
def test_certify_frame_independent(points, frames, tmp_path):
    """Verdict, L^(2n) and certificate sign do not change under rational
    linear maps or a relabelling of the input vertices."""
    inputs = [_frame_image(f, points) for f in frames]
    inputs.append(list(reversed(inputs[1][1::2] + inputs[1][::2])))
    summaries = {_certify_summary(v, tmp_path, "frame%d" % k) for k, v in enumerate(inputs)}
    assert len(summaries) == 1
    verdict, _, positive = summaries.pop()
    if len(points[0]) == 3:
        assert verdict.startswith("not excluded") and positive is None
    else:
        assert verdict.startswith("excluded") and positive is True


def test_certify_cube_no_kernel_needed(body_file, tmp_path, cube3):
    path = body_file("cube", cube3)
    code, report = run_json(["certify", path], tmp_path)
    assert code == 0
    assert report["decomposability_dim"] == 4
    assert report["exceeds_threshold"] is False


def test_maximizer_report_symmetry_section(cube3):
    gens = [[[F(-1), F(0), F(0)], [F(0), F(-1), F(0)], [F(0), F(0), F(-1)]]]
    report = maximizer_report(cube3, gens)
    assert report["symmetry"]["bound"] == 6
    assert report["decomposability_dim"] == 4


# stdout sha256 of `certify`, measured before the moment sums moved to
# cleared denominators; a change of any exact value changes the bytes
CERTIFY_DIGESTS = {
    "cube3.json": "abdb91807d0bdeb1f1e57864427d74df94d7a1efd67cd083249b82cc260b2782",
    "diamond.json": "95983ce294a076226bc27d59736350f0086a7a7ffffd77bf97cd68b996c922c0",
    "hexagon.json": "363d4692847b2415c0ab229df7d31e0ac67c1b7401e0817a0faf2965f80c03c0",
    "octahedron.json": "46b675d47d1d7f1e0d9ed483b8d851bafcde8f6eb8342ba71636edde9f61394e",
    "square.json": "95983ce294a076226bc27d59736350f0086a7a7ffffd77bf97cd68b996c922c0",
    "triangle.json": "24992f961f9fe52d636a70180daea6433522df58d20ed0b39c1e599d95ad074d",
    "kernel3d": "bb9442034be9ac297d006858d1e3fdc9401cf2af29aa97ca7d36326b464bd1ee",
}


@pytest.mark.parametrize("name", sorted(CERTIFY_DIGESTS))
def test_certify_golden_digests(name, body_file, capsys):
    if name == "kernel3d":  # 11 vertices, dim F 10 > 9, a kernel direction of ~250 bits
        path = body_file("kernel3d", support.random_polytope(random.Random(3), 3, 12))
        argv = ["certify", path, "--fd-step", "1/1000000000"]
    else:
        argv = ["certify", os.path.join(BODIES, name)]
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CERTIFY_DIGESTS[name]


def test_certify_computes_f_once_per_body(monkeypatch, capsys, body_file):
    """F(P) is computed once per certify: the centred copy is a translate
    of P and shares its basis.  cube3 is centred, its shifted copy is not."""
    shifted = body_file("shifted", polytope.translate(support.cube(3), [F(1, 3), 0, F(-1, 5)]))
    rows = decomp._dependence_rows
    for path in (os.path.join(BODIES, "cube3.json"), shifted):
        calls = []
        monkeypatch.setattr(decomp, "_dependence_rows", lambda p: calls.append(p) or rows(p))
        decomp.facewise_affine_space.cache_clear()
        decomp._facewise_basis.cache_clear()
        assert main(["certify", path]) == 0
        assert len(calls) == 1, path


def test_main_frees_its_parser(capsys):
    """The argparse parser is a web of reference cycles; it is built once,
    at import, and main() only parses, so an in-process call leaves no
    argparse garbage behind."""
    gc.collect()
    gc.disable()
    try:
        assert main(["lk", HEXAGON_FILE]) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == []


def test_in_process_runs_match_fresh_runs(capsys):
    """Repeated in-process calls of main() share one parser; each, a failed
    parse included, prints and exits as a fresh interpreter does."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(isodecomp.__file__)))
    for argv in (["lk", HEXAGON_FILE], ["certify", HEXAGON_FILE],
                 ["certify", HEXAGON_FILE, "--fd-step", "0"], ["lk", HEXAGON_FILE]):
        fresh = subprocess.run([sys.executable, "-m", "isodecomp"] + argv, env=env,
                               capture_output=True, text=True, timeout=60)
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout), argv


# the flags each subcommand takes besides --out; all but the search read a body
FLAG_TABLE = {
    "moments": {"--precision"},
    "lk": {"--precision"},
    "decomp": set(),
    "components": set(),
    "polar": set(),
    "summands": {"--speed", "--eps"},
    "symmetric": {"--generators"},
    "variation": {"--speed", "--fd-step"},
    "certify": {"--precision", "--fd-step", "--generators"},
    "shadow": {"--dir", "--beta", "--grid", "--t-range"},
    "rs-dim": {"--dir"},
    "quasiconvex-search": {"--seed", "--budget", "--vertices", "--denominator-bound"},
}
FLAG_VALUES = {
    "--out": "report.json", "--precision": "80", "--fd-step": "1/2", "--speed": ONES_4,
    "--eps": "1/8", "--generators": "[]", "--dir": '["1", "0"]', "--beta": ONES_4,
    "--grid": "5", "--t-range": "1/8", "--seed": "1", "--budget": "3", "--vertices": "3:5",
    "--denominator-bound": "4",
}


@pytest.mark.parametrize("command", sorted(FLAG_TABLE))
def test_each_subcommand_takes_only_the_flags_it_reads(command, capsys):
    """Each subcommand parses all of its flags, and refuses every other
    one as unrecognized (exit 2) instead of ignoring it."""
    assert sum(len(flags) + 1 for flags in FLAG_TABLE.values()) == 31
    base = [command] + ([] if command == "quasiconvex-search" else [SQUARE_FILE])
    takes = sorted(FLAG_TABLE[command] | {"--out"})
    argv = base + [a for flag in takes for a in (flag, FLAG_VALUES[flag])]
    args = vars(cli._PARSER.parse_args(argv))
    assert sum(v is not None for v in args.values()) == len(takes) + len(base)
    for flag in sorted(set(FLAG_VALUES) - set(takes)):
        with pytest.raises(SystemExit) as exc:
            cli._PARSER.parse_args(argv + [flag, FLAG_VALUES[flag]])
        assert exc.value.code == 2
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["polar", SQUARE_FILE, "--fd-step", "1/2"],
    ["decomp", SQUARE_FILE, "--precision", "80"],
    ["quasiconvex-search", "--fd-step", "1/2"],
], ids=["polar-fd-step", "decomp-precision", "search-fd-step"])
def test_ignored_flags_exit_2(argv, tmp_path):
    code, err = run_cli(argv, tmp_path)
    assert code == 2
    assert "unrecognized arguments: %s %s" % tuple(argv[-2:]) in err and "Traceback" not in err


def test_open_facet_list_exits_2(tmp_path):
    """A cuboctahedron without one square facet passes every per-facet and
    per-vertex check; certify refuses it instead of printing a wrong L."""
    cubo = polytope.hull_facets([p for p in itertools.product((-1, 0, 1), repeat=3)
                                 if sorted(map(abs, p)) == [0, 1, 1]])
    data = polytope.to_json_dict(cubo)
    squares = [f for f in data["facets"] if len(f["vertices"]) == 4]
    data["facets"] = [f for f in data["facets"] if f is not squares[0]]
    (tmp_path / "open.json").write_text(json.dumps(data))
    code, err = run_cli(["certify", "open.json"], tmp_path)
    assert code == 2
    assert "do not close up" in err and "Traceback" not in err


def _strict_json(text):
    def refuse(token):
        raise ValueError("non-JSON token %s" % token)
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("exponent", [200, -200], ids=["huge", "tiny"])
@pytest.mark.parametrize("flags", [
    ["moments"], ["lk"], ["variation", "--speed", "[1, 0, 0]"],
    ["shadow", "--dir", "[1, 0]", "--beta", "[1, 0, 0]"], ["certify"],
], ids=["moments", "lk", "variation", "shadow", "certify"])
def test_floats_out_of_range_render_as_null(flags, exponent, tmp_path, capsys):
    """Where no finite float holds a value, its float rendering is JSON
    null (an empty CSV cell): no OverflowError, no NaN or Infinity."""
    scale = F(10) ** exponent
    vertices = [[str(scale * x) for x in v] for v in ((-1, -1), (2, -1), (-1, 2))]
    (tmp_path / "t.json").write_text(json.dumps({"vertices": vertices}))
    capsys.readouterr()
    assert main(flags[:1] + [str(tmp_path / "t.json")] + flags[1:]) == 0
    out = capsys.readouterr().out
    if flags[0] == "shadow":
        for line in out.splitlines()[1:]:
            cells = line.split(",")
            assert len(cells) == 5 and F(cells[3]) == F(1, 108)
            assert all(c == "" or abs(float(c)) < float("inf") for c in cells[2::2])
        return
    report = _strict_json(out[out.index("{"):])
    if flags[0] == "lk":
        assert report["L_pow_2n"] == {"exact": "1/108", "float": 0.00925925925926}
        assert None in report["isotropizing_map"][0]


README = os.path.join(os.path.dirname(BODIES), "README.md")


def _readme_commands():
    with open(README) as fh:
        return [shlex.split(line, comments=True)[1:] for line in fh
                if line.startswith("isodecomp ")]


@pytest.mark.parametrize("argv", [argv for argv in _readme_commands()
                                  if argv[-2:] != ["--out", "records.json"]],
                         ids=lambda argv: argv[0])
def test_readme_examples_run(argv, monkeypatch, capsys):
    """Every `isodecomp` line of the README exits 0, but the 10,000-trial
    search, which an acceptance criterion runs."""
    monkeypatch.chdir(os.path.dirname(README))
    assert main(argv) == 0
