import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import isodecomp
import support
from isodecomp import polytope
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
], ids=["float", "letter", "no-vertices", "facet-index-out-of-range", "dim-string", "dim-bool"])
def test_malformed_body_exits_2(data, tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps(data))
    code, err = run_cli(["lk", "bad.json"], tmp_path)
    assert code == 2
    assert "validation error" in err and "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ["--vertices", "2:2"],
    ["--vertices", "8:3"],
    ["--vertices", "3"],
    ["--denominator-bound", "0"],
], ids=["two-vertices", "reversed", "no-colon", "zero-bound"])
def test_bad_search_flags_exit_2(flags, tmp_path):
    code, err = run_cli(["quasiconvex-search", "--budget", "1"] + flags, tmp_path)
    assert code == 2
    assert "error:" in err and "Traceback" not in err


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

    k = _polygon_center(polytope.convex_hull_2d(
        [(F(2), F(-1)), (F(-1), F(2)), (F(-1), F(-1)), (F(1), F(1))]))
    mid = _minkowski_midpoint(k, k)
    assert _polygon_l2n(mid) == _polygon_l2n(k)


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
