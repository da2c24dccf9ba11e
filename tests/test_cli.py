import json

import numpy as np

from nclevi.algebra import AlgebraElement, random_element
from nclevi.cli import main
from nclevi.metric import MetricSpec
from nclevi.models import torus_bundle
from nclevi.serialize import (
    decode_calculus,
    decode_element,
    decode_metric,
    encode_calculus,
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


def test_calculus_roundtrip(fuzzy1, torus_twisted, heis):
    for model in (fuzzy1, torus_twisted, heis):
        doc = encode_calculus(model.calculus)
        json.dumps(doc)
        back = decode_calculus(doc)
        assert back.rank == model.calculus.rank
        assert np.max(np.abs(back.wedge_constants - model.calculus.wedge_constants)) == 0
        assert np.max(np.abs(back.exterior_constants
                             - model.calculus.exterior_constants)) == 0
        assert back.backend == model.backend


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
    _, g = twisted_mode_metric(1.0 / 3.0, 9, 3)
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(encode_metric(g)))
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
