import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nclevi import algebra, cli
from nclevi.algebra import AlgebraElement, random_elements
from nclevi.cli import main
from nclevi.errors import NonSkew
from nclevi.metric import MetricSpec
from nclevi.models import fuzzy_sphere, torus_bundle
from nclevi.serialize import (
    _element_text,
    decode_element,
    decode_metric,
    encode_element,
    encode_metric,
    solve_report_fragments,
)
from nclevi.solver import ConnectionCoeffs, levi_civita


# -- serialization roundtrips --------------------------------------------------


def test_element_roundtrip(fuzzy1, torus_twisted):
    rng = np.random.default_rng(0)
    for model in (fuzzy1, torus_twisted):
        a = random_elements(model.backend, rng, 1)[0]
        doc = encode_element(a)
        json.dumps(doc)
        back = decode_element(model.backend, doc)
        assert (back - a).norm() <= 1e-15


def test_metric_roundtrip(torus_comm):
    rng = np.random.default_rng(1)
    from nclevi.models import random_central_metric
    g = random_central_metric(torus_comm, rng)
    doc = encode_metric(g)
    json.dumps(doc)
    back = decode_metric(torus_comm.calculus, doc)
    worst = max((back.components[i][j] - g.components[i][j]).norm()
                for i in range(3) for j in range(3))
    assert worst <= 1e-15


# -- CLI ------------------------------------------------------------------------


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_fuzzy_reports_lc(capsys):
    code, out, err = run_cli(capsys, ["solve", "--model", "fuzzy-sphere", "--k", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["model"] == "fuzzy-sphere"
    assert report["torsion_residual"] <= 1e-10
    # gamma encodes (i/2) eps^{ijk}: entry [0][1][2] is (i/2) times the unit
    entry = report["gamma"][0][1][2]["entries"]
    assert abs(entry[0][0][1] - 0.5) <= 1e-12
    assert abs(entry[0][0][0]) <= 1e-12
    assert abs(entry[0][1][1]) <= 1e-12
    assert "solved" in err


def test_solve_torus_flat_zero_gamma(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, err = run_cli(capsys, [
        "solve", "--model", "torus", "--dims", "3", "--deformed", "2",
        "--theta", "0", "--radius", "2", "--out", str(out_file)])
    assert code == 0
    report = json.loads(out_file.read_text())
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert report["gamma"][i][j][k]["terms"] == []


def test_solve_with_metric_file(capsys, tmp_path):
    model = torus_bundle(3, 2, np.zeros((2, 2)), radius=3)
    be = model.backend
    unit = AlgebraElement.unit(be)
    zero = AlgebraElement.zero(be)
    phi = unit + AlgebraElement.from_modes(be, {(0, 0, 1): 0.002, (0, 0, -1): 0.002})
    g = MetricSpec(model.calculus, [[unit, zero, zero], [zero, unit, zero],
                                    [zero, zero, phi]])
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(encode_metric(g)))
    code, out, err = run_cli(capsys, [
        "solve", "--model", "torus", "--dims", "3", "--deformed", "2",
        "--theta", "0", "--radius", "3", "--metric", str(path), "--tol", "1e-8"])
    assert code == 0
    report = json.loads(out)
    assert report["metric"] == str(path)
    assert report["compat_residual"] <= 1e-8


def test_deform_rejects_nonskew_theta(capsys):
    code, out, err = run_cli(capsys, ["deform", "--theta", "not-skew"])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "NonSkew"
    code, out, err = run_cli(capsys, [
        "deform", "--theta", "[[0, 0.1], [0.1, 0]]"])
    assert code == 2
    assert json.loads(out)["error"] == "NonSkew"
    # JSON admits NaN: a NaN deformation is refused as input, for solve as for deform
    for command in ("deform", "solve"):
        code, out, err = run_cli(capsys, [command, "--theta", "[[0, NaN], [NaN, 0]]"]
                                 + (["--model", "torus"] if command == "solve" else []))
        assert code == 2
        assert json.loads(out)["error"] == "NonSkew"


def test_deform_commutes(capsys):
    code, out, err = run_cli(capsys, ["deform"])
    assert code == 0
    report = json.loads(out)
    assert report["commutation_difference"] <= 1e-8


def test_oracle_compare(capsys):
    code, out, err = run_cli(capsys, [
        "oracle-compare", "--dims", "3", "--metrics", "2"])
    assert code == 0
    report = json.loads(out)
    assert 0.0 < report["max_difference"] <= 1e-8
    assert len(report["trials"]) == 2


def test_oracle_compare_explicit_tol_wins(capsys, monkeypatch):
    # 1e-10 is only the default: an explicit --tol or NCLEVI_TOL replaces it.  No
    # solve meets a 1e-20 gate, so either one makes the command refuse
    argv = ["oracle-compare", "--metrics", "1"]
    monkeypatch.delenv("NCLEVI_TOL", raising=False)
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    code, out, err = run_cli(capsys, argv + ["--tol", "1e-20"])
    assert code == 1
    assert json.loads(out)["error"] == "Inconsistent"
    monkeypatch.setenv("NCLEVI_TOL", "1e-20")
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert json.loads(out)["error"] == "Inconsistent"


def test_verify_runs_green(capsys):
    code, out, err = run_cli(capsys, [
        "verify", "--models", "heisenberg,torus", "--theta", "0.3"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert "torus" in report["results"] and "heisenberg" in report["results"]


def test_verify_takes_a_scalar_theta_on_three_deformed_coordinates(capsys):
    # the default --theta 0.3 twists coordinates 0 and 1 of the three deformed ones
    code, out, err = run_cli(capsys, ["verify", "--models", "torus", "--dims", "4",
                                      "--deformed", "3"])
    assert code == 0, err
    checks = json.loads(out)["results"]["torus"]
    assert checks and all(c["passed"] for c in checks)


def test_deform_takes_a_scalar_theta_on_three_deformed_coordinates(capsys):
    code, out, err = run_cli(capsys, ["deform", "--dims", "4", "--deformed", "3"])
    assert code == 0, err
    report = json.loads(out)
    assert report["theta"] == [[0.0, 0.3, 0.0], [-0.3, 0.0, 0.0], [0.0, 0.0, 0.0]]
    assert report["extra_theta"] == [[0.0, 0.2, 0.0], [-0.2, 0.0, 0.0], [0.0, 0.0, 0.0]]


def test_scalar_theta_shorthand():
    # a scalar s is theta_01 = s, theta_10 = -s on any block of size >= 2; a
    # smaller block has no entry to hold it, so only s = 0 is accepted there
    assert cli._parse_theta("0.3", 4).tolist() == [[0.0, 0.3, 0.0, 0.0], [-0.3, 0.0, 0.0, 0.0],
                                                   [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
    assert cli._parse_theta("0", 1).tolist() == [[0.0]]
    assert cli._parse_theta("0", 0).shape == (0, 0)
    for size in (0, 1):
        with pytest.raises(NonSkew, match=f"a {size}x{size} skew matrix must be zero"):
            cli._parse_theta("0.3", size)


def test_verify_runs_every_check_on_a_calculus_with_no_two_forms(capsys):
    # rank 1: d1's Leibniz law compares two-forms that have no coefficients
    code, out, err = run_cli(capsys, ["verify", "--models", "torus", "--dims", "1",
                                      "--deformed", "1", "--theta", "0"])
    assert code == 0, err
    checks = json.loads(out)["results"]["torus"]
    assert len(checks) == 31 and all(c["passed"] for c in checks)


def _refused_input(capsys, argv, detail):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "ValueError" and detail in doc["detail"]


def test_verify_refuses_an_empty_model_list(capsys):
    _refused_input(capsys, ["verify", "--models", ","], "names no model")


def test_verify_refuses_a_model_named_twice(capsys):
    # the report holds one entry per model name, so a repeat would be run and not shown
    _refused_input(capsys, ["verify", "--models", "torus,torus"], "a model twice")


def test_one_model_table_names_every_model(capsys):
    # solve's choices, verify's default list and its refusal all read one table
    parser = cli.build_parser()
    (model,) = [a for a in parser.commands["solve"]._actions if a.dest == "model"]
    assert model.choices == ("fuzzy-sphere", "heisenberg", "torus")
    assert parser.commands["verify"].get_default("models") == "fuzzy-sphere,heisenberg,torus"
    _refused_input(capsys, ["verify", "--models", "heisenberg,sphere"], "unknown model 'sphere'")


@pytest.mark.parametrize("metrics", ["0", "-3"])
def test_oracle_compare_refuses_no_trials(capsys, metrics):
    _refused_input(capsys, ["oracle-compare", "--metrics", metrics], "at least 1")


@pytest.mark.parametrize("command", ["verify", "deform", "oracle-compare"])
def test_negative_seed_is_refused_as_input(capsys, tmp_path, command):
    # numpy's generator refuses a negative seed only once the run has begun
    _refused_input(capsys, [command, "--seed", "-1"], "--seed must be non-negative")
    assert capsys.readouterr().err == ""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    code, out, err = run_cli(capsys, [command, "--config", str(cfg)])
    assert code == 2
    assert json.loads(out)["detail"] == "--seed must be non-negative, not -1"
    assert err == "input error: --seed must be non-negative, not -1\n"


def test_singular_metric_exits_one(capsys, tmp_path):
    model = torus_bundle(3, 2, np.zeros((2, 2)), radius=2)
    g = MetricSpec.from_scalar_matrix(model.calculus, np.eye(3))
    doc = encode_metric(g)
    doc["components"][2][2]["terms"] = []      # zero out g_33: singular
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, [
        "solve", "--model", "torus", "--dims", "3", "--deformed", "2",
        "--theta", "0", "--radius", "2", "--metric", str(path)])
    assert code == 1
    assert json.loads(out)["error"] == "SingularMetric"


def test_metric_mode_beyond_radius_exits_two(capsys, tmp_path):
    # the radius bounds outside input, so a metric file with a mode beyond it
    # is refused as input
    model = torus_bundle(3, 2, np.zeros((2, 2)), radius=2)
    doc = encode_metric(MetricSpec.from_scalar_matrix(model.calculus, np.eye(3)))
    doc["components"][2][2]["terms"].append([[0, 0, 3], [0.001, 0.0]])
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["solve", "--model", "torus", "--theta", "0",
                                      "--radius", "2", "--metric", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == "TruncationOverflow"
    assert err.startswith("input error: ")


@pytest.mark.parametrize("entry", [-2 ** 63, 2 ** 63, 10 ** 30])
def test_metric_mode_outside_int64_exits_two(capsys, tmp_path, entry):
    model = torus_bundle(3, 2, np.zeros((2, 2)), radius=3)
    doc = encode_metric(MetricSpec.from_scalar_matrix(model.calculus, np.eye(3)))
    doc["components"][2][2]["terms"].append([[0, 0, entry], [0.001, 0.0]])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["solve", "--model", "torus", "--theta", "0",
                                      "--radius", "3", "--metric", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == "TruncationOverflow"
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_sign_phase_metric_exits_two(capsys, tmp_path, twisted_mode_metric):
    _, comps = twisted_mode_metric(1.0 / 3.0, 9, 3)
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"components": [[encode_element(c) for c in row]
                                               for row in comps]}))
    code, out, err = run_cli(capsys, [
        "solve", "--model", "torus", "--dims", "3", "--deformed", "2",
        "--theta", repr(1.0 / 3.0), "--radius", "9", "--metric", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == "NonCommutativeBackend"


def test_non_central_metric_component_exits_two(capsys, tmp_path):
    # a non-central --metric component is refused as input, as a non-symmetric one is
    calc = fuzzy_sphere(2).calculus
    doc = encode_metric(MetricSpec.from_scalar_matrix(calc, np.eye(3)))
    diag = np.diag(np.arange(1.0, calc.backend.size + 1))
    doc["components"][0][1] = doc["components"][1][0] = encode_element(
        AlgebraElement.from_matrix(calc.backend, diag))
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["solve", "--model", "fuzzy-sphere", "--k", "2",
                                      "--metric", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == "NonCentralResult"
    assert err.startswith("input error: ")


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "fuzzy-sphere", "k": 1}))
    code, out, err = run_cli(capsys, ["solve", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["model"] == "fuzzy-sphere"


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "fuzzy-sphere", "bogus": 1}))
    code, out, err = run_cli(capsys, ["solve", "--config", str(cfg)])
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


# the options of each subcommand, by dest, with a value each parses to itself;
# only solve reads modes from outside, so only solve has --radius
COMMAND_OPTIONS = {
    "solve": {"model": "torus", "k": 2, "dims": 4, "deformed": 3, "theta": "0.1",
              "radius": 5, "metric": "g.json", "route": "phi", "tol": 1e-9, "out": "o.json"},
    "verify": {"models": "torus", "k": 2, "dims": 4, "deformed": 3, "theta": "0.1",
               "seed": 3, "tol": 1e-9, "out": "o.json"},
    "deform": {"dims": 4, "deformed": 3, "theta": "0.1", "extra_theta": "0.4",
               "seed": 3, "tol": 1e-9, "out": "o.json"},
    "oracle-compare": {"dims": 4, "metrics": 2, "seed": 3, "tol": 1e-9, "out": "o.json"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_config_keys_are_the_subcommand_options(capsys, tmp_path, command):
    # a config file may set each option of its own subcommand, and nothing else;
    # the table is every option, so adding or dropping one means editing it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(COMMAND_OPTIONS[command]))
    parser = cli.build_parser()
    assert parser.commands[command].option_dests == set(COMMAND_OPTIONS[command])
    args = parser.parse_args(cli._apply_config([command, "--config", str(cfg)], parser))
    assert {dest: getattr(args, dest) for dest in COMMAND_OPTIONS[command]} == \
        COMMAND_OPTIONS[command]
    others = {k for c, opts in COMMAND_OPTIONS.items() if c != command for k in opts}
    for key in sorted(others - set(COMMAND_OPTIONS[command])):
        cfg.write_text(json.dumps({key: 1}))
        code, out, err = run_cli(capsys, [command, "--config", str(cfg)])
        assert code == 2
        assert f"unknown config key {key!r}" in json.loads(out)["detail"]


def test_config_may_come_before_or_after_the_subcommand(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2}))
    after = run_cli(capsys, ["solve", "--config", str(cfg), "--model", "fuzzy-sphere"])
    before = run_cli(capsys, ["--config", str(cfg), "solve", "--model", "fuzzy-sphere"])
    flags = run_cli(capsys, ["solve", "--model", "fuzzy-sphere", "--k", "2"])
    assert after[0] == before[0] == 0 and after[1] == before[1] == flags[1]


def test_config_repeats_a_later_file_wins_and_flags_win_over_every_file(capsys, tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps({"model": "fuzzy-sphere", "k": 1, "route": "phi"}))
    second.write_text(json.dumps({"k": 2}))
    files = run_cli(capsys, ["solve", "--config", str(first), "--config", str(second)])
    flags = run_cli(capsys, ["solve", "--model", "fuzzy-sphere", "--route", "phi", "--k", "2"])
    assert files[0] == flags[0] == 0 and files[1] == flags[1]
    explicit = run_cli(capsys, ["--config", str(first), "solve", "--k", "1",
                                f"--config={second}"])
    flags = run_cli(capsys, ["solve", "--model", "fuzzy-sphere", "--route", "phi", "--k", "1"])
    assert explicit[0] == flags[0] == 0 and explicit[1] == flags[1] != files[1]


@pytest.mark.parametrize("argv", [["--help"]] + [[c, "--help"] for c in sorted(COMMAND_OPTIONS)])
def test_help_names_config(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "--config PATH" in capsys.readouterr().out


def test_abbreviated_config_is_refused(capsys, tmp_path):
    # argparse would take --conf for the --config that --help lists, and read no file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2}))
    _refused_input(capsys, ["solve", "--model", "fuzzy-sphere", "--conf", str(cfg)],
                   "--config must be written in full")


@pytest.mark.parametrize("value", [None, True, False])
@pytest.mark.parametrize("key", ["out", "metric", "tol"])
def test_config_null_or_boolean_is_refused(capsys, tmp_path, monkeypatch, key, value):
    # no option takes either, and spelt as text a null or a boolean would be read as
    # the file name "null" or "true"
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    _refused_input(capsys, ["solve", "--model", "heisenberg", "--config", str(cfg)],
                   f"config key {key!r} is {json.dumps(value)}")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_solve_takes_no_seed(capsys, tmp_path):
    # solve draws nothing at random, so it has no seed to set
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--model", "heisenberg", "--seed", "1"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "heisenberg", "seed": 1}))
    code, out, err = run_cli(capsys, ["solve", "--config", str(cfg)])
    assert code == 2
    assert "unknown config key 'seed'" in json.loads(out)["detail"]


def test_internal_value_error_is_not_an_input_error(capsys, monkeypatch):
    # a ValueError raised after the input has been read is a bug, not exit 2
    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "levi_civita", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["solve", "--model", "heisenberg"])
    assert capsys.readouterr().out == ""


def test_env_var_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("NCLEVI_TOL", "1e-6")
    code, out, err = run_cli(capsys, ["solve", "--model", "heisenberg"])
    assert code == 0


def test_report_fields_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, ["solve", "--model", "heisenberg"])
    code2, out2, _ = run_cli(capsys, ["solve", "--model", "heisenberg"])
    assert out1 == out2
    keys = list(json.loads(out1).keys())
    assert keys == sorted(keys)


def test_solve_route_flags(capsys):
    for route in ("direct", "phi"):
        code, out, err = run_cli(capsys, ["solve", "--model", "heisenberg",
                                          "--route", route])
        assert code == 0
        assert json.loads(out)["route"] == route


# -- report content against a naive reference encoding ----------------------------


def reference_element(a):
    """The encoding written out entry by entry, as the schema defines it."""
    if a.backend.kind == "matrix":
        return {"kind": "matrix",
                "entries": [[[z.real, z.imag] for z in row] for row in a.matrix.tolist()]}
    return {"kind": "graded",
            "terms": [[list(k), [v.real, v.imag]] for k, v in sorted(a.modes.items())]}


def reference_report(result, model_name, metric_source):
    gamma = result.connection.gamma
    n = len(gamma)
    report = {
        "schema_version": 1,
        "model": model_name,
        "metric": metric_source,
        "route": result.route,
        "gamma": [[[reference_element(gamma[i][j][k]) for k in range(n)]
                   for j in range(n)] for i in range(n)],
        "torsion_residual": result.torsion_residual,
        "compat_residual": result.compat_residual,
        "min_singular_value": result.sv_ratio,
        "stats": {k: result.stats[k] for k in ("grid_points", "equations", "unknowns")},
    }
    if result.route_difference is not None:
        report["route_difference"] = result.route_difference
    return report


def assert_same_content(got, want, path="report"):
    """Equal values of equal JSON types, with the sign of every zero compared too."""
    assert type(got) is type(want), f"{path}: {type(got).__name__} vs {type(want).__name__}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_same_content(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (u, v) in enumerate(zip(got, want)):
            assert_same_content(u, v, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), \
            f"{path}: {got!r} vs {want!r}"
    else:
        assert got == want, f"{path}: {got!r} vs {want!r}"


def test_encode_element_matches_reference(fuzzy1, torus_twisted):
    rng = np.random.default_rng(2)
    nzero = complex(-0.0, -0.0)
    mat = random_elements(fuzzy1.backend, rng, 1)[0].matrix.copy()
    mat[0, :] = nzero
    mat[1, 1] = complex(-0.0, 2.0)
    graded = random_elements(torus_twisted.backend, rng, 1)[0] + AlgebraElement.from_modes(
        torus_twisted.backend, {(0, 0, 3): complex(-0.0, 1.0), (0, 0, -3): complex(2.0, -0.0)})
    for a in (AlgebraElement.from_matrix(fuzzy1.backend, mat), graded,
              AlgebraElement.zero(torus_twisted.backend)):
        assert_same_content(json.loads(json.dumps(encode_element(a))), reference_element(a))


def test_central_entry_text_matches_the_full_matrix_encoder(fuzzy1):
    be = fuzzy1.backend
    unit = AlgebraElement.unit(be)
    for z in (0.5j, complex(-0.0, 0.0), complex(0.0, -0.0), -1.0, 1e300 - 1e-300j, 5e-324,
              complex(np.nan, 1.0), complex(np.inf, -0.0)):
        with np.errstate(invalid="ignore"):     # inf times the off-diagonal zero is NaN
            a = unit * z
        full = AlgebraElement.from_matrix(be, a.matrix)
        assert a.central_form is not None and full.central_form is None
        assert _element_text(a, {}) == _element_text(full, {}) \
            == json.dumps(encode_element(full), sort_keys=True)
    # a whole report: Gamma held as c I against the same Gamma in full
    result = levi_civita(fuzzy1.calculus, fuzzy1.metric, route="both")
    gamma = result.connection.gamma
    assert all(a.central_form is not None for plane in gamma for row in plane for a in row)
    full = [[[AlgebraElement.from_matrix(be, a.matrix) for a in row] for row in plane]
            for plane in gamma]
    twin = dataclasses.replace(result, connection=ConnectionCoeffs(fuzzy1.calculus, full))
    assert "".join(solve_report_fragments(result, "fuzzy-sphere", "default")) \
        == "".join(solve_report_fragments(twin, "fuzzy-sphere", "default"))


@pytest.fixture
def solved(monkeypatch):
    """Every (metric, result) pair the CLI's solver calls produce."""
    seen = []
    solve = cli.levi_civita

    def recording(calculus, g, **kwargs):
        seen.append((g, solve(calculus, g, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(cli, "levi_civita", recording)
    return seen


TWISTED = np.array([[0.0, 0.3], [-0.3, 0.0]])


def _twisted_metric_file(tmp_path):
    model = torus_bundle(3, 2, TWISTED, radius=3)
    be = model.backend
    unit, zero = AlgebraElement.unit(be), AlgebraElement.zero(be)
    phi = unit + AlgebraElement.from_modes(be, {(0, 0, 1): 0.002 - 0.001j,
                                                (0, 0, -1): 0.002 + 0.001j})
    g = MetricSpec(model.calculus, [[unit, zero, zero], [zero, unit, zero],
                                    [zero, zero, phi]])
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(encode_metric(g)))
    return path


@pytest.mark.parametrize("case", ["fuzzy-sphere", "fuzzy-sphere-phi", "heisenberg",
                                  "twisted-torus"])
def test_solve_report_matches_reference_encoding(capsys, tmp_path, solved, case):
    if case == "fuzzy-sphere":
        argv, name, source = ["solve", "--model", "fuzzy-sphere", "--k", "2"], case, "default"
    elif case == "fuzzy-sphere-phi":
        argv = ["solve", "--model", "fuzzy-sphere", "--k", "2", "--route", "phi"]
        name, source = "fuzzy-sphere", "default"
    elif case == "heisenberg":
        argv, name, source = ["solve", "--model", "heisenberg"], case, "default"
    else:
        source = str(_twisted_metric_file(tmp_path))
        argv = ["solve", "--model", "torus", "--dims", "3", "--deformed", "2",
                "--theta", "0.3", "--radius", "3", "--metric", source, "--tol", "1e-8"]
        name = torus_bundle(3, 2, TWISTED, radius=3).name
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1, "stdout is not one JSON line"
    [(_, result)] = solved
    report = json.loads(out)
    want = reference_report(result, name, source)
    assert_same_content(report, want)
    assert out == json.dumps(want, sort_keys=True) + "\n"
    if case == "twisted-torus":
        assert any(el["terms"] for plane in report["gamma"] for row in plane for el in row)


def test_every_subcommand_writes_one_json_line(capsys, tmp_path):
    for argv in (["verify", "--models", "heisenberg", "--k", "1"],
                 ["oracle-compare", "--metrics", "1"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 0
        assert out.endswith("\n") and out.count("\n") == 1
        json.loads(out)
        path = tmp_path / "report.json"
        code, out, err = run_cli(capsys, argv + ["--out", str(path)])
        assert code == 0 and out == ""
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        json.loads(text)


def test_matrix_metric_signed_zeros_roundtrip_bit_for_bit(capsys, tmp_path, fuzzy1, solved):
    be = fuzzy1.backend
    nzero = complex(-0.0, -0.0)
    eye = np.where(np.eye(be.size) == 1.0, 1.0 + 0.0j, nzero)
    mats = [[eye if i == j else np.full((be.size, be.size), nzero) for j in range(3)]
            for i in range(3)]
    g = MetricSpec(fuzzy1.calculus,
                   [[AlgebraElement.from_matrix(be, m) for m in row] for row in mats])
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(encode_metric(g), indent=1))   # any JSON layout is read
    assert "-0.0" in path.read_text()
    code, out, err = run_cli(capsys, ["solve", "--model", "fuzzy-sphere", "--k", "1",
                                      "--metric", str(path)])
    assert code == 0
    [(read, _)] = solved
    for i in range(3):
        for j in range(3):
            got = read.components[i][j].matrix
            assert got.tobytes() == mats[i][j].tobytes(), (i, j)


@pytest.mark.parametrize("entries", [
    [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],      # ragged rows
    [[[1.0, 0.0, 0.0, 0.0]]],                       # last axis is not [re, im]
    [[1.0]],                                        # no pairs at all
    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],   # 2 x 2 on a 1 x 1 backend
    [[[True, 0.0]]], [[["1", 0.0]]],                # no JSON numbers, though numpy reads 1
])
def test_malformed_matrix_entries_exit_two(capsys, tmp_path, heis, entries):
    doc = encode_metric(heis.metric)
    doc["components"][0][0]["entries"] = entries
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["solve", "--model", "heisenberg", "--metric", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


@pytest.mark.parametrize("case", ["empty", "no-entries", "no-kind", "components-not-array",
                                  "row-not-array"])
def test_metric_file_missing_or_ill_typed_keys_exit_two(capsys, tmp_path, heis, case):
    doc = encode_metric(heis.metric)
    if case == "empty":
        doc = {}
    elif case == "no-entries":
        del doc["components"][1][1]["entries"]
    elif case == "no-kind":
        del doc["components"][0][1]["kind"]
    elif case == "components-not-array":
        doc["components"] = {"0": doc["components"][0]}
    else:
        doc["components"][2] = 3.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["solve", "--model", "heisenberg", "--metric", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"
    assert err.startswith("input error: ")


@pytest.mark.parametrize("terms", [None, 5, [[[0, 0, 0]]], [7], [[[0, 0, 0], {"re": 1}]]] + [
    # a mode entry is an integer: 1.5 is not read as 1, nor true or "1" as 1
    [[[0, 0, entry], [1.0, 0.0]]] for entry in (1.5, math.inf, math.nan, True, "1")] + [
    # nor a coefficient [true, false] as 1
    [[[0, 0, 0], [True, False]]]])
def test_metric_file_malformed_graded_terms_exit_two(capsys, tmp_path, torus_comm, terms):
    doc = encode_metric(torus_comm.metric)
    if terms is None:
        del doc["components"][0][0]["terms"]
    else:
        doc["components"][0][0]["terms"] = terms
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["solve", "--model", "torus", "--theta", "0",
                                      "--metric", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"
    assert err.startswith("input error: ") and err.count("\n") == 1


NOT_NUMBERS = "a deformation matrix must hold JSON numbers only"


# a bool, a string or an object is no JSON number, though numpy or float() reads
# some of them as one: true as 1.0, "0.3" as 0.3
@pytest.mark.parametrize("argv,key,value,detail", [
    pytest.param(["solve", "--model", "torus"], "theta", {}, NOT_NUMBERS, id="solve-object"),
    pytest.param(["verify"], "theta", {"a": 1}, NOT_NUMBERS, id="verify-object"),
    pytest.param(["deform"], "extra-theta", [[0, {}], [0, 0]], NOT_NUMBERS,
                 id="deform-nested-object"),
    pytest.param(["solve", "--model", "torus"], "theta", True, NOT_NUMBERS, id="solve-bool"),
    pytest.param(["solve", "--model", "torus"], "theta", [["0", "0.3"], ["-0.3", "0"]],
                 NOT_NUMBERS, id="solve-strings"),
    pytest.param(["deform"], "theta", 10 ** 400,
                 "a deformation matrix holds a number past float range",
                 id="deform-past-float-range"),
])
def test_deformation_matrices_hold_json_numbers_only(capsys, tmp_path, argv, key, value,
                                                     detail):
    _refused_input(capsys, argv + [f"--{key}", json.dumps(value)], detail)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    if isinstance(value, bool):     # a config file's boolean is refused for every key
        detail = f"config key {key!r} is {json.dumps(value)}"
    _refused_input(capsys, argv + ["--config", str(cfg)], detail)


def test_metric_file_mode_given_twice_exits_two(capsys, tmp_path, torus_comm):
    # a dict of the terms would keep the last coefficient, 5, without a word
    doc = encode_metric(torus_comm.metric)
    doc["components"][0][0]["terms"] = [[[0, 0, 0], [1, 0]], [[0, 0, 0], [5, 0]]]
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    _refused_input(capsys, ["solve", "--model", "torus", "--theta", "0", "--metric", str(path)],
                    "mode (0, 0, 0) is given twice")


TOL_ARGV = {"solve": ["solve", "--model", "heisenberg"], "verify": ["verify"],
            "deform": ["deform"], "oracle-compare": ["oracle-compare", "--metrics", "1"]}


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("command", sorted(TOL_ARGV))
def test_tolerance_must_be_finite_and_non_negative(capsys, tmp_path, monkeypatch,
                                                   command, tol):
    # a NaN or negative gate fails every answer and an infinite one passes every
    # answer, so each is refused while input is read, from all three sources
    argv = TOL_ARGV[command]
    detail = f"the tolerance must be a finite number >= 0, not {float(tol)}"
    monkeypatch.delenv("NCLEVI_TOL", raising=False)
    _refused_input(capsys, argv + ["--tol", tol], detail)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": float(tol)}))
    _refused_input(capsys, argv + ["--config", str(cfg)], detail)
    monkeypatch.setenv("NCLEVI_TOL", tol)
    _refused_input(capsys, argv, detail)


def test_zero_tolerance_is_valid(capsys, monkeypatch):
    # the flat torus solves with residuals of exactly 0, which a zero gate passes
    monkeypatch.delenv("NCLEVI_TOL", raising=False)
    code, out, err = run_cli(capsys, ["solve", "--model", "torus", "--tol", "0"])
    assert code == 0, err


@pytest.mark.parametrize("model", ["fuzzy-sphere", "torus"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_metric_component_exits_two(capsys, tmp_path, fuzzy1, torus_comm,
                                               model, bad):
    # a NaN passes the symmetry and centrality checks, which compare norms with a
    # bound, and an infinity would surface only as a failure of the mathematics
    doc = encode_metric((fuzzy1 if model == "fuzzy-sphere" else torus_comm).metric)
    el = doc["components"][0][1]
    if model == "fuzzy-sphere":
        el["entries"][0][1] = [bad, 0.0]
    else:
        el["terms"] = [[[0, 0, 0], [bad, 0.0]]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["solve", "--model", model, "--k", "1", "--theta", "0",
                                      "--metric", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"
    assert err == "input error: component (0,1) is not finite\n"


# sha256 of `nclevi solve` stdout: the matrix kernel's zero and identity shortcuts
# must leave every bit of these reports as the term-by-term BLAS sums give them
SOLVE_STDOUT_SHA256 = {
    ("fuzzy-sphere", 1, "direct"): "662e60b8736ce35d3743cb4142acb172bd8cf74ae998fd106c2489a09dddad30",
    ("fuzzy-sphere", 1, "phi"): "b523b5b1ee17e393ed7247583148a84c4247cc099db79b0922946c231e18d4da",
    ("fuzzy-sphere", 1, "both"): "6caaeb48acc4680fe4371dd4c9fce3df1bbd135de086252f29bcbb09229a2a6a",
    ("fuzzy-sphere", 2, "direct"): "23ccd6e8ebedb6cd44d58955b55f8c4d34081d4b4e4278e5a150ccbd3d8750e7",
    ("fuzzy-sphere", 2, "phi"): "f9171ae84b544ba6d56dfb686c04ac697240398befe71d5789ae0ca6fb07383e",
    ("fuzzy-sphere", 2, "both"): "805e50b025dec0c5c9ba3e179ae944edd49127e890e6429967d887686b0b4689",
    ("fuzzy-sphere", 3, "direct"): "a71ba57c848630ba36a39e9e3d25a2429540e128fcb83d8971c2743b20f6852a",
    ("fuzzy-sphere", 3, "phi"): "3ccd04856ba9115c8c6a2ae592da8f34c2660b0c76b0ebc762daa67eacc0c831",
    ("fuzzy-sphere", 3, "both"): "b242a76c266b1004f072fe6b2ebc42e753dc0d393b9602447ecb9903956260f9",
    ("heisenberg", 1, "direct"): "7e6f62d2ef3c96e7830df61f647f3366b22ab2fc9357206169d03873d09f4c9d",
    ("heisenberg", 1, "phi"): "fa81c43eaa095cc4ec1ecfd61dafa0e8fbe1f7e623c4f59fc4a9c8ffae18d404",
    ("heisenberg", 1, "both"): "740ec26e403c17d9c491c9c14863fa0833aa768e78ea6b84977eaab9ec97a775",
}


@pytest.mark.parametrize("model,k,route", sorted(SOLVE_STDOUT_SHA256))
def test_solve_stdout_pinned(capsys, model, k, route):
    code, out, err = run_cli(capsys, ["solve", "--model", model, "--k", str(k),
                                      "--route", route])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SOLVE_STDOUT_SHA256[model, k, route]


# -- the streamed report ----------------------------------------------------------


STREAM_MODELS = [["--model", "fuzzy-sphere", "--k", str(k)] for k in range(1, 6)] + [
    ["--model", "heisenberg"],
    ["--model", "torus", "--dims", "3", "--deformed", "2", "--theta", "0.5", "--radius", "2"]]


@pytest.mark.parametrize("route", ["direct", "phi", "both"])
@pytest.mark.parametrize("model", STREAM_MODELS, ids=lambda argv: "-".join(argv[1::2]))
def test_streamed_report_is_the_report_text(capsys, tmp_path, model, route):
    # `nclevi solve` writes the report's fragments unjoined: the bytes on stdout and
    # in --out are the one joined text and its newline
    argv = ["solve", *model, "--route", route]
    args = cli.build_parser().parse_args(argv)
    calc_model, g, source, tol = args.read(args)
    result = levi_civita(calc_model.calculus, g, route=route, residual_tol=tol)
    want = "".join(solve_report_fragments(result, calc_model.name, source)) + "\n"
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and out == want
    path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, argv + ["--out", str(path)])
    assert code == 0 and out == "" and path.read_bytes() == want.encode()


def test_fuzzy_sphere_cli_solve_sums_six_full_arrays(monkeypatch, tmp_path, capsys):
    # a timing-free guard on the k = 5 solve: the build's three brackets [Y_k, Y_i]
    # take 6 BLAS products and give 3 full arrays, which give the 3 full W_alpha;
    # every other kernel result is a central form (Gamma, dg of 0 and I, the
    # metric's centrality commutators), so no other N x N array is summed
    products, full = [], []
    product, sums = algebra._product, algebra._matrix_sums

    def counted_sums(backend, slots):
        out = sums(backend, slots)
        full.extend(x for x in out if x.central_form is None)
        return out

    monkeypatch.setattr(algebra, "_product", lambda *a: products.append(1) or product(*a))
    monkeypatch.setattr(algebra, "_matrix_sums", counted_sums)
    code = main(["solve", "--model", "fuzzy-sphere", "--k", "5",
                 "--out", str(tmp_path / "report.json")])
    capsys.readouterr()
    assert code == 0
    assert (len(products), len(full)) == (6, 6)


def test_solve_into_a_pipe_closed_early_exits_2_with_one_error_line():
    # the k = 3 report (about 290 kB) is larger than a pipe holds, so a write fails
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen([sys.executable, "-m", "nclevi.cli", "solve", "--model",
                             "fuzzy-sphere", "--k", "3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.read(10).startswith(b'{"')
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.stderr.close()
    assert err.splitlines() == ["i/o error: [Errno 32] Broken pipe"]
