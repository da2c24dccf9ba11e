import json
import math

import numpy as np
import pytest

from nclevi import cli
from nclevi.algebra import AlgebraElement, random_element
from nclevi.cli import main
from nclevi.metric import MetricSpec
from nclevi.models import torus_bundle
from nclevi.serialize import (
    decode_element,
    decode_metric,
    encode_element,
    encode_metric,
)


# -- serialization roundtrips --------------------------------------------------


def test_element_roundtrip(fuzzy1, torus_twisted):
    rng = np.random.default_rng(0)
    for model in (fuzzy1, torus_twisted):
        a = random_element(model.backend, rng)
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


def test_deform_commutes(capsys):
    code, out, err = run_cli(capsys, ["deform", "--radius", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["commutation_difference"] <= 1e-8


def test_oracle_compare(capsys):
    code, out, err = run_cli(capsys, [
        "oracle-compare", "--dims", "3", "--radius", "3", "--metrics", "2"])
    assert code == 0
    report = json.loads(out)
    assert 0.0 < report["max_difference"] <= 1e-8
    assert len(report["trials"]) == 2


def test_oracle_compare_starved_radius_refuses(capsys):
    # at radius 2 the truncation cannot reach the 1e-8 budget for the sampled
    # metrics; the solver must refuse rather than report a sloppy answer
    code, out, err = run_cli(capsys, [
        "oracle-compare", "--dims", "3", "--radius", "2", "--metrics", "1"])
    assert code == 1
    assert json.loads(out)["error"] == "Inconsistent"


def test_oracle_compare_explicit_tol_wins(capsys, monkeypatch):
    # 1e-8 is only the default: an explicit --tol or NCLEVI_TOL replaces it.  The
    # first sampled metric at radius 3 leaves a compatibility residual of 1.55e-10
    argv = ["oracle-compare", "--radius", "3", "--metrics", "1"]
    monkeypatch.delenv("NCLEVI_TOL", raising=False)
    code, out, err = run_cli(capsys, argv + ["--tol", "1e-10"])
    assert code == 1
    assert json.loads(out)["error"] == "Inconsistent"
    monkeypatch.setenv("NCLEVI_TOL", "1e-10")
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert json.loads(out)["error"] == "Inconsistent"


def test_verify_runs_green(capsys):
    code, out, err = run_cli(capsys, [
        "verify", "--models", "heisenberg,torus", "--radius", "2", "--theta", "0.3"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert "torus" in report["results"] and "heisenberg" in report["results"]


def test_singular_metric_exits_one(capsys, tmp_path):
    model = torus_bundle(3, 2, np.zeros((2, 2)), radius=2)
    g = MetricSpec.delta(model.calculus)
    doc = encode_metric(g)
    doc["components"][2][2]["terms"] = []      # zero out g_33: singular
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, [
        "solve", "--model", "torus", "--dims", "3", "--deformed", "2",
        "--theta", "0", "--radius", "2", "--metric", str(path)])
    assert code == 1
    assert json.loads(out)["error"] == "SingularMetric"


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
    mat = random_element(fuzzy1.backend, rng).matrix.copy()
    mat[0, :] = nzero
    mat[1, 1] = complex(-0.0, 2.0)
    graded = random_element(torus_twisted.backend, rng) + AlgebraElement.from_modes(
        torus_twisted.backend, {(0, 0, 3): complex(-0.0, 1.0), (0, 0, -3): complex(2.0, -0.0)})
    for a in (AlgebraElement.from_matrix(fuzzy1.backend, mat), graded,
              AlgebraElement.zero(torus_twisted.backend)):
        assert_same_content(json.loads(json.dumps(encode_element(a))), reference_element(a))


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


@pytest.mark.parametrize("case", ["fuzzy-sphere", "heisenberg", "twisted-torus"])
def test_solve_report_matches_reference_encoding(capsys, tmp_path, solved, case):
    if case == "fuzzy-sphere":
        argv, name, source = ["solve", "--model", "fuzzy-sphere", "--k", "2"], case, "default"
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
    assert_same_content(report, reference_report(result, name, source))
    if case == "twisted-torus":
        assert any(el["terms"] for plane in report["gamma"] for row in plane for el in row)


def test_every_subcommand_writes_one_json_line(capsys, tmp_path):
    for argv in (["verify", "--models", "heisenberg", "--k", "1"],
                 ["oracle-compare", "--radius", "3", "--metrics", "1"]):
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
])
def test_malformed_matrix_entries_exit_two(capsys, tmp_path, heis, entries):
    doc = encode_metric(heis.metric)
    doc["components"][0][0]["entries"] = entries
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["solve", "--model", "heisenberg", "--metric", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"
