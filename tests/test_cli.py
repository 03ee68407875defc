from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curvebound import BoundVariant, hexagonal_trefoil, latitude_circle_curve
from curvebound import cli, h2xr
from curvebound.cli import main, pi_multiple, sig12

from conftest import random_simple_polygons


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    return write_json(
        tmp_path,
        "square.json",
        {
            "space": "euclidean",
            "dim": 3,
            "closed": True,
            "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
        },
    )


@pytest.fixture
def pentagon_file(tmp_path, rng):
    verts = random_simple_polygons(rng, 1)[0]
    return write_json(
        tmp_path,
        "pentagon.json",
        {"space": "euclidean", "dim": 3, "closed": True, "vertices": verts.tolist()},
    )


@pytest.fixture
def triangle_file(tmp_path):
    return write_json(
        tmp_path,
        "triangle.json",
        {
            "space": "sphere",
            "dim": 2,
            "closed": True,
            "vertices": [[1, 0, 0], [0, 1, 0], [-1, 0, 0]],
        },
    )


@pytest.fixture
def circle_file(tmp_path):
    pts = latitude_circle_curve(np.pi / 3, n=256).points
    return write_json(
        tmp_path,
        "circle.json",
        {"space": "sphere", "dim": 2, "closed": True, "samples": pts.tolist()},
    )


@pytest.fixture
def spiral_file(tmp_path):
    t = np.linspace(0.0, 6.0 * np.pi, 2000, endpoint=False)
    z = 0.1 * np.sin(t / 3.0)
    r = np.sqrt(1.0 - z * z)
    pts = np.stack([r * np.cos(t), r * np.sin(t), z], axis=-1)
    return write_json(
        tmp_path,
        "spiral.json",
        {"space": "sphere", "dim": 2, "closed": True, "samples": pts.tolist()},
    )


@pytest.fixture
def trefoil_file(tmp_path):
    return write_json(
        tmp_path,
        "trefoil.json",
        {
            "space": "euclidean",
            "dim": 3,
            "closed": True,
            "vertices": hexagonal_trefoil().vertices.tolist(),
        },
    )


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, (json.loads(out) if out else None), err


# ---------------------------------------------------------------------------
# formatting helpers
# ---------------------------------------------------------------------------


def test_sig12_rounds_to_12_significant_digits():
    assert sig12(np.pi) == float("3.14159265359")
    assert sig12(0.1 + 0.2) == 0.3
    assert sig12(-1.0) == -1.0


def test_pi_multiple_rendering():
    assert pi_multiple(2.0 * np.pi) == "2pi"
    assert pi_multiple(np.pi) == "pi"
    assert pi_multiple(-np.pi) == "-pi"
    assert pi_multiple(0.0) == "0"
    assert "pi" in pi_multiple(np.pi + 0.001)
    assert pi_multiple(0.37) == "0.37"


# ---------------------------------------------------------------------------
# report envelope and determinism
# ---------------------------------------------------------------------------


def test_totcurv_square(capsys, square_file):
    code, rep, _ = run_json(capsys, ["totcurv", square_file])
    assert code == 0
    assert rep["tool"] == "curvebound"
    assert rep["command"] == "totcurv"
    assert rep["schema_version"] == 1
    assert rep["results"]["total_curvature_symbolic"] == "2pi"
    assert rep["results"]["indicatrix_length"] == rep["results"]["total_curvature"]


def test_reruns_are_byte_identical(capsys, pentagon_file):
    argv = ["knot-det", pentagon_file, "--seed", "7"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    _, out3, _ = run(capsys, ["totcurv", pentagon_file])
    _, out4, _ = run(capsys, ["totcurv", pentagon_file])
    assert out3 == out4
    for fmt in ("json", "csv"):
        argv = ["h2xr-check", "--budget", "5", "--seed", "3", "--format", fmt]
        _, out5, _ = run(capsys, argv)
        _, out6, _ = run(capsys, argv)
        assert out5 == out6


def test_out_flag_writes_identical_report(capsys, square_file, tmp_path):
    out_path = tmp_path / "report.json"
    code, stdout, _ = run(capsys, ["totcurv", square_file])
    code2 = main(["totcurv", square_file, "--out", str(out_path)])
    capsys.readouterr()
    assert code == code2 == 0
    assert out_path.read_text() == stdout


# ---------------------------------------------------------------------------
# cold start
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"

COLD_START_PROBE = """
import contextlib, io, json, sys

SCHEMA_FAMILY = ("jsonschema", "jsonschema_specifications", "referencing", "attr", "attrs",
                 "rpds")

def loaded(*roots):
    return sorted(m for m in sys.modules if m.split(".")[0] in roots)

def record(name, code):
    seen.append([name, code, loaded("scipy"), loaded(*SCHEMA_FAMILY), loaded("curvebound")])

seen = []
import curvebound
record("import curvebound", 0)
import curvebound.cli
record("import", 0)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = curvebound.cli.main(argv)
    record(argv[0], code)
print(json.dumps(seen))
"""


def cold_start_probe(argvs):
    """[command, exit code, scipy modules, jsonschema-family modules, curvebound
    modules] after importing curvebound, after importing curvebound.cli and
    after each run, all in one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", COLD_START_PROBE, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.fixture
def every_subcommand(square_file, triangle_file, circle_file, trefoil_file):
    return [
        ["totcurv", square_file],
        ["bounds-check", triangle_file],
        ["certify", square_file, "--budget", "50"],
        ["cone-density", square_file, "--point", "0.5,0.5,0"],
        ["hyp-density", circle_file],
        ["sharpness", "--m", "2"],
        ["knot-det", trefoil_file, "--direction", "0,0,1"],
        ["extremal-search", "--k", "5", "--budget", "2,30"],
        ["h2xr-check", "--budget", "5"],
        ["mobius-vol", circle_file, "--budget", "2,20"],
    ]


def test_scipy_free_subcommands_load_no_scipy(every_subcommand):
    seen = cold_start_probe(every_subcommand)
    assert [row[:4] for row in seen] == [
        [name, 0, [], []]
        for name in ["import curvebound", "import"] + [a[0] for a in every_subcommand]]


def test_no_subcommand_loads_jsonschema(circle_file, tmp_path):
    """The rest of the ten subcommands, a CSV report and a rejected curve file
    load none of jsonschema, referencing, attrs or rpds either."""
    rejected = write_json(tmp_path, "rejected.json",
                          {"space": "euclidean", "dim": True, "closed": True,
                           "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]})
    argvs = [
        ["mobius-vol", circle_file, "--budget", "2,20"],
        ["h2xr-check", "--budget", "5", "--format", "csv"],
        ["totcurv", rejected],
    ]
    seen = cold_start_probe(argvs)
    assert [(name, code, family) for name, code, _, family, _ in seen] == [
        ("import curvebound", 0, []), ("import", 0, []), ("mobius-vol", 0, []),
        ("h2xr-check", 0, []), ("totcurv", 1, [])]


# the library modules each subcommand loads, beyond the package, cli, errors and schema
LOADS = {
    "totcurv": {"polycurve", "spaceform"},
    "bounds-check": {"spherical_bounds", "polycurve", "spaceform"},
    "certify": {"cone", "polycurve", "spaceform"},
    "cone-density": {"cone", "polycurve", "spaceform"},
    "hyp-density": {"hyp_density", "mobius", "spaceform"},
    "sharpness": {"spherical_bounds", "polycurve", "spaceform"},
    "knot-det": {"knot", "polycurve", "spaceform"},
    "extremal-search": {"spherical_bounds", "polycurve", "spaceform"},
    "h2xr-check": {"h2xr", "spaceform"},
    "mobius-vol": {"mobius", "spaceform"},
}


def test_each_subcommand_compiles_only_what_it_runs(every_subcommand):
    """``import curvebound`` loads no submodule and ``import curvebound.cli``
    only the two it always uses; each subcommand, in a fresh interpreter,
    then loads exactly the library modules it runs."""
    base = ["curvebound", "curvebound.cli", "curvebound.errors", "curvebound.schema"]
    assert set(LOADS) == {a[0] for a in every_subcommand}
    for argv in every_subcommand:
        package, imported, run_ = (row[4] for row in cold_start_probe([argv]))
        assert package == ["curvebound"]
        assert imported == base
        assert run_ == sorted(base + [f"curvebound.{m}" for m in LOADS[argv[0]]]), argv[0]


def test_commands_are_the_parser_subcommands_in_order():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == cli.COMMANDS


def test_parser_variants_are_the_bound_variants():
    assert cli.BOUND_VARIANTS == tuple(v.value for v in BoundVariant)


# ---------------------------------------------------------------------------
# command behavior and exit codes
# ---------------------------------------------------------------------------


def test_bounds_check_equality_configuration(capsys, triangle_file):
    code, rep, _ = run_json(capsys, ["bounds-check", triangle_file])
    assert code == 0
    r = rep["results"]
    assert r["variant"] == "triangle"
    assert r["bound_symbolic"] == "2pi"
    assert abs(r["slack"]) < 1e-9
    assert not r["violation"]
    assert r["equality_flags"]["antipodal_pair"]
    assert r["equality_flags"]["great_circle"]


def test_extremal_search_triangle(capsys):
    code, rep, _ = run_json(
        capsys,
        ["extremal-search", "--k", "3", "--variant", "triangle", "--budget", "2,40"],
    )
    assert code == 0
    r = rep["results"]
    assert r["bound_symbolic"] == "2pi"
    assert r["sup_estimate"] >= 2.0 * np.pi - 1e-6
    assert rep["budget"] == {"restarts": 2, "sweeps": 40}


@pytest.mark.parametrize("k, variant", [
    ("4", "open_odd"), ("6", "open_odd"), ("4", "closed_odd"), ("5", "chain1"),
])
def test_extremal_search_rejects_mismatched_variant(capsys, k, variant):
    code = main(["extremal-search", "--k", k, "--variant", variant, "--budget", "1,5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"{variant} variant needs" in captured.err


def test_sharpness_command(capsys):
    code, rep, _ = run_json(capsys, ["sharpness", "--m", "2"])
    assert code == 0
    r = rep["results"]
    assert r["constructed"] and r["k"] == 5
    assert 4.0 * np.pi - 1e-2 <= r["total_curvature"] < 4.0 * np.pi
    assert r["target_symbolic"] == "4pi"


def test_sharpness_requires_m(capsys):
    code, _, err = run(capsys, ["sharpness"])
    assert code == 1
    assert "needs --m" in err


def test_certify_pentagon_and_trefoil(capsys, pentagon_file, trefoil_file):
    code, rep, _ = run_json(capsys, ["certify", pentagon_file, "--budget", "200"])
    assert code == 0
    assert rep["results"]["verdict"] == "Certified"
    code, rep, _ = run_json(capsys, ["certify", trefoil_file, "--budget", "300"])
    assert code == 2
    assert rep["results"]["verdict"] == "Inconclusive"
    assert rep["results"]["worst"]["density"] >= 2.0


def test_certify_names_a_failing_vertex(capsys, tmp_path):
    path = write_json(tmp_path, "heptagon.json", {
        "space": "euclidean", "dim": 3, "closed": True, "vertices": [
            [0.425, 0.282, -1.159], [0.833, -0.59, -1.056], [-0.9, -0.391, 1.627],
            [-1.176, 0.16, -2.138], [-0.002, 0.9, -0.237], [-0.629, 0.232, 0.7],
            [0.664, 1.972, 0.209]]})
    code, rep, _ = run_json(capsys, ["certify", path])
    assert code == 2
    assert rep["results"]["verdict"] == "Inconclusive"
    assert rep["results"]["reason"].startswith("vertex 5 has density 1.102195")
    assert rep["results"]["worst"]["density"] < 2.0


def test_certify_vertices_in_no_open_hemisphere(capsys, tmp_path):
    t = 2.0 * np.pi * np.arange(5) / 5.0
    verts = np.stack([np.cos(t), np.sin(t), np.zeros(5)], axis=1)
    path = write_json(tmp_path, "equator.json", {
        "space": "sphere", "dim": 2, "closed": True, "vertices": verts.tolist()})
    code, rep, _ = run_json(capsys, ["certify", path, "--budget", "50"])
    assert code == 2
    assert rep["results"]["verdict"] == "Inconclusive"
    assert "no open hemisphere" in rep["results"]["reason"]


def test_mobius_vol_circle(capsys, circle_file):
    code, rep, _ = run_json(capsys, ["mobius-vol", circle_file, "--budget", "2,50"])
    assert code == 0
    assert rep["results"]["sup_estimate_symbolic"] == "2pi"
    assert rep["results"]["lower_bound_great_sphere"] == pytest.approx(2.0 * np.pi)


def test_cone_density_cases(capsys, square_file):
    code, rep, _ = run_json(
        capsys, ["cone-density", square_file, "--point", "0.5,0.5,0"]
    )
    assert code == 0
    assert rep["results"]["case"] == "off_curve"
    assert rep["results"]["density"] == pytest.approx(1.0, abs=1e-9)
    code, rep, _ = run_json(capsys, ["cone-density", square_file, "--point", "0.5,0,0"])
    assert code == 0
    assert rep["results"]["case"] == "on_edge"
    assert rep["results"]["density"] == pytest.approx(0.5, abs=1e-9)
    code, _, err = run(capsys, ["cone-density", square_file])
    assert code == 1
    assert "--point" in err


def test_cone_density_tol_decides_the_case(capsys, square_file):
    # 5e-9 off edge 0: on the curve at --tol 1e-6, off it at --tol 1e-10
    for tol, case in (("1e-6", "on_edge"), ("1e-10", "off_curve")):
        code, rep, err = run_json(
            capsys, ["cone-density", square_file, "--point", "0.5,5e-9,0", "--tol", tol])
        assert code == 0, err
        assert rep["results"]["case"] == case


def test_hyp_density_pass_and_fail(capsys, circle_file, spiral_file):
    code, rep, _ = run_json(capsys, ["hyp-density", circle_file])
    assert code == 0
    r = rep["results"]
    assert r["embedded_certificate"]
    assert abs(r["slack"]) < 1e-6
    assert r["radius_spread"] < 1e-8
    assert len(r["boundary_integrals"]) == 4
    code, rep, _ = run_json(capsys, ["hyp-density", spiral_file])
    assert code == 2
    assert not rep["results"]["embedded_certificate"]


def test_hyp_density_rejects_wrong_m(capsys, circle_file):
    # a cone over a curve is 2-dimensional, so hyp-density has no --m to set
    code, out, err = run(capsys, ["hyp-density", circle_file, "--m", "3"])
    assert code == 1 and out == ""
    assert "unrecognized arguments: --m 3" in err


def test_h2xr_check_json_and_csv(capsys):
    code, rep, _ = run_json(capsys, ["h2xr-check", "--budget", "10"])
    assert code == 0
    r = rep["results"]
    assert r["within_tolerance"]
    assert r["geodesic_residual_max"] <= 1e-8
    assert r["jacobi_residual_max"] <= 1e-6
    zero_rows = [row for row in r["end_curve_sweep"] if row["graph"] == "zero"]
    assert all(abs(row["excess"]) < 1e-12 for row in zero_rows)

    code, out, _ = run(capsys, ["h2xr-check", "--budget", "10", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph,r,ratio,excess"
    assert len(lines) == 9  # header + 2 graphs x 4 radii


def test_h2xr_check_excess_ignores_rounding_digits(capsys, monkeypatch):
    # the decay graph's excess at r = 8 is about nine ulps of 2 pi: the report
    # gives it in multiples of EXCESS_QUANTUM, so a one-ulp change of the ratio
    # leaves it as it is
    argv = ["h2xr-check", "--budget", "2", "--radii", "4,8"]
    _, rep, _ = run_json(capsys, argv)
    sweep = rep["results"]["end_curve_sweep"]
    assert [row["excess"] for row in sweep if row["graph"] == "decay"] == [4.1518764e-06, 8e-12]
    real = h2xr.end_curve_ratio
    monkeypatch.setattr(h2xr, "end_curve_ratio",
                        lambda f, df, r: math.nextafter(real(f, df, r), math.inf))
    _, nudged, _ = run_json(capsys, argv)
    assert [row["excess"] for row in nudged["results"]["end_curve_sweep"]] == \
        [row["excess"] for row in sweep]


def test_h2xr_check_large_radii(capsys):
    # tanh(r cos t / 2) rounds to 1 there; neither graph leaves the disk
    code, rep, err = run_json(capsys, ["h2xr-check", "--budget", "5", "--radii", "40,60"])
    assert code == 0, err
    assert all(abs(row["excess"]) < 1e-12 for row in rep["results"]["end_curve_sweep"])


def test_csv_rejected_elsewhere(capsys, square_file):
    code, _, err = run(capsys, ["totcurv", square_file, "--format", "csv"])
    assert code == 1
    assert "csv" in err


# the shared flags each subcommand reads; the report writes null for a missing one
SHARED_FLAGS = {"--seed": "1", "--budget": "5", "--tol": "1e-6", "--format": "json"}
TAKES = {
    "totcurv": (),
    "bounds-check": ("--tol",),
    "extremal-search": ("--seed", "--budget"),
    "sharpness": ("--seed",),
    "certify": ("--seed", "--budget", "--tol"),
    "mobius-vol": ("--seed", "--budget"),
    "cone-density": ("--tol",),
    "hyp-density": (),
    "h2xr-check": ("--seed", "--budget", "--format"),
    "knot-det": ("--seed", "--budget"),
}
NO_CURVE = ("extremal-search", "sharpness", "h2xr-check")


@pytest.mark.parametrize("command,flag", [(c, f) for c in TAKES for f in SHARED_FLAGS])
def test_subcommands_take_only_the_flags_they_read(capsys, square_file, command, flag):
    argv = [command] + ([] if command in NO_CURVE else [square_file]) + [flag, SHARED_FLAGS[flag]]
    if flag in TAKES[command]:
        assert vars(cli.build_parser().parse_args(argv))[flag[2:]] is not None
        return
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert f"unrecognized arguments: {flag} {SHARED_FLAGS[flag]}" in err


def test_report_writes_null_for_flags_a_command_lacks(capsys, square_file):
    _, rep, _ = run_json(capsys, ["totcurv", square_file])
    assert rep["seed"] is None and rep["tolerance"] is None
    _, rep, _ = run_json(capsys, ["sharpness", "--m", "1"])
    assert rep["seed"] == 0 and rep["tolerance"] is None
    _, rep, _ = run_json(capsys, ["certify", square_file, "--budget", "20", "--tol", "1e-6"])
    assert rep["seed"] == 0 and rep["tolerance"] == 1e-6


def test_knot_det_directions(capsys, trefoil_file, pentagon_file):
    code, rep, _ = run_json(
        capsys, ["knot-det", trefoil_file, "--direction", "0,0,1"]
    )
    assert code == 0
    assert rep["results"]["determinant"] == 3
    assert rep["results"]["n_crossings"] == 3
    code, rep, _ = run_json(capsys, ["knot-det", pentagon_file, "--seed", "3"])
    assert code == 0
    assert rep["results"]["determinant"] == 1
    code, _, err = run(capsys, ["knot-det", trefoil_file, "--direction", "1,2"])
    assert code == 1
    assert "3 components" in err


# ---------------------------------------------------------------------------
# input errors
# ---------------------------------------------------------------------------


def test_malformed_json_reports_location(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"space": "euclidean",\n  "dim": oops\n}')
    code, _, err = run(capsys, ["totcurv", str(bad)])
    assert code == 1
    assert "malformed JSON" in err
    assert "line 2" in err


def test_schema_violation_rejected(capsys, tmp_path):
    path = write_json(tmp_path, "noschema.json", {"dim": 3, "closed": True, "vertices": [[0, 0, 0]]})
    code, _, err = run(capsys, ["totcurv", path])
    assert code == 1
    path2 = write_json(
        tmp_path,
        "extra.json",
        {
            "space": "euclidean",
            "dim": 3,
            "closed": True,
            "vertices": [[0, 0, 0]],
            "bogus": 1,
        },
    )
    code, _, _ = run(capsys, ["totcurv", path2])
    assert code == 1


OFF_MODEL = {
    "off_sphere": {"space": "sphere", "dim": 2,
                   "vertices": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    "off_sheet": {"space": "hyperbolic", "dim": 2,
                  "vertices": [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]},
    "poincare_outside": {"space": "hyperbolic", "dim": 2, "model": "poincare_ball",
                         "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.5]]},
    "nan": {"space": "euclidean", "dim": 3,
            "vertices": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [float("nan"), 1.0, 0.0]]},
}
POLYGON_COMMANDS = [["totcurv"], ["bounds-check"], ["certify", "--budget", "20"],
                    ["cone-density", "--point=0.1,0.1,0.1"], ["knot-det"]]


@pytest.mark.parametrize("name", OFF_MODEL)
@pytest.mark.parametrize("command", POLYGON_COMMANDS, ids=lambda c: c[0])
def test_vertices_must_satisfy_their_model(capsys, tmp_path, name, command):
    # json.dumps writes NaN as the literal that json.loads reads back
    path = write_json(tmp_path, f"{name}.json", {**OFF_MODEL[name], "closed": True})
    code, out, err = run(capsys, [command[0], path, *command[1:]])
    assert code == 1 and out == ""
    assert err.startswith("curvebound: error: invalid curve: ")


@pytest.mark.parametrize("command", [["hyp-density"], ["mobius-vol", "--budget", "2,5"]],
                         ids=lambda c: c[0])
def test_nan_samples_are_rejected(capsys, tmp_path, command):
    samples = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [float("nan"), 0.0, 1.0], [0.0, 0.0, 1.0]]
    path = write_json(tmp_path, "nan.json",
                      {"space": "sphere", "dim": 2, "closed": True, "samples": samples})
    code, out, err = run(capsys, [command[0], path, *command[1:]])
    assert code == 1 and out == ""
    assert err == "curvebound: error: invalid sampled curve: samples must be unit vectors\n"


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["totcurv", str(tmp_path / "nope.json")])
    assert code == 1
    assert "nope.json" in err


def test_bad_budget(capsys, square_file):
    code, _, err = run(capsys, ["certify", square_file, "--budget", "abc"])
    assert code == 1
    code, _, err = run(capsys, ["certify", square_file, "--budget", "0"])
    assert code == 1


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "curvebound" in capsys.readouterr().out
