"""The benchmark reads `nclevi solve` reports with its own parser and checks
them with its own numpy checker.  A report format that parser cannot read
would break the benchmark only when it runs, so read reports through it here.
Nothing under perfbench/ is changed."""

import contextlib
import importlib
import io
from pathlib import Path

import numpy as np
import pytest

from nclevi.cli import main
from nclevi.models import heisenberg

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """workloads and checker, imported as perfbench/workloads.py imports them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("workloads"), importlib.import_module("checker")


def _solve(tmp_path, *argv):
    path = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["solve", *argv, "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("route", ["direct", "phi", "both"])
def test_fuzzy_sphere_report_reads_and_checks(perfbench, tmp_path, route):
    workloads, checker = perfbench
    gamma = workloads.read_report_gamma(_solve(tmp_path, "--model", "fuzzy-sphere", "--k", "1",
                                               "--route", route))
    assert gamma.shape == (3, 3, 3, 5, 5)
    checker.check_fuzzy_sphere(gamma)
    with pytest.raises(checker.CheckFailed):
        checker.check_fuzzy_sphere(checker.perturb(gamma))


def test_heisenberg_report_reads_and_checks(perfbench, tmp_path):
    workloads, checker = perfbench
    gamma = workloads.read_report_gamma(_solve(tmp_path, "--model", "heisenberg"))[..., 0, 0]
    model = heisenberg()
    calc = model.calculus
    g = np.array([[c.matrix[0, 0] for c in row] for row in model.metric.components])
    checker.check_scalar_frame(gamma, g, calc.wedge_constants, calc.exterior_constants)
    with pytest.raises(checker.CheckFailed):
        checker.check_scalar_frame(checker.perturb(gamma), g, calc.wedge_constants,
                                   calc.exterior_constants)
