"""The benchmark's workloads: seeded inputs, the fixed operations of one pass,
how each output is checked and, for traced runs, the calls replayed to time
single layers.

Every operation is one public call into nclevi.  Its output is read into
plain arrays and checked by ``checker`` outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from nclevi import (
    compat_residual,
    deform_connection,
    derive,
    fuzzy_sphere,
    heisenberg,
    koszul_oracle,
    levi_civita,
    nabla0,
    phi_g_invert,
    pi_g_basis,
    random_central_metric,
    torsion_residual,
    torus_bundle,
    verification,
)
from nclevi.algebra import GRADED, wide_mul, wide_sum
from nclevi.cli import main as cli_main
from nclevi.serialize import solve_report

import checker
from spans import Tracer

# The headline solves draw their metric from this seed, whatever --seed is, as
# the CLI's deform does by default.  The seed sets how many modes the inverse
# metric keeps (63 to 81 on the twisted m = 3 torus), and the phi route's cost
# grows with their square, so a seeded headline would time a different-sized
# problem in every run.
HEADLINE_SEED = 0

SUITES = ("algebra_checks", "calculus_checks", "metric_checks", "solver_checks",
          "deformation_checks")

Outputs = Dict[str, Any]


@dataclass
class Op:
    """One operation of a pass.

    ``run`` is the timed call; it may read earlier outputs of the same pass.
    ``extract`` turns the output into the arguments of ``verify``, which raises
    ``checker.CheckFailed``.  When ``self_test`` is set the first argument is a
    Christoffel array, and a perturbed copy of it must be rejected.
    """

    name: str
    layer: str
    run: Callable[[Outputs], Any]
    extract: Callable[[Any, Outputs], tuple]
    verify: Callable[..., None]
    replay: Optional[Callable[[Tracer, Any, Outputs], None]] = None
    headline: bool = False
    self_test: bool = True


@dataclass
class Workload:
    """``headline_calls`` is how many times a pass calls the headline solve: once
    in its place among the operations, the rest after them, outside ``pass_s``.
    A short headline is called more often, so that ``solve_s`` rests on about a
    second of calls per pass.
    """

    setup: Callable[[int, Tracer], dict]
    ops: Callable[[dict, int, str], List[Op]]
    headline_calls: int = 1


def _skew(s: float) -> np.ndarray:
    return np.array([[0.0, s], [-s, 0.0]])


def _build(tr: Tracer, constructor, *args):
    with tr.span("models.build"):
        return constructor(*args)


def _metric(tr: Tracer, model, seed: int):
    with tr.span("metric.spec"):
        return random_central_metric(model, np.random.default_rng(seed))


# -- reading outputs ----------------------------------------------------------


def gamma_field(nabla) -> checker.ModeField:
    n, dim = nabla.calculus.rank, nabla.calculus.backend.dim
    maps = [nabla.gamma[i][j][k].modes for i in range(n) for j in range(n) for k in range(n)]
    return checker.ModeField.from_maps(maps, (n, n, n), dim)


def metric_field(g) -> checker.ModeField:
    n = g.rank
    maps = [g.components[i][j].modes for i in range(n) for j in range(n)]
    return checker.ModeField.from_maps(maps, (n, n), g.backend.dim)


def _matrix(doc: dict) -> np.ndarray:
    pairs = np.asarray(doc["entries"], dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


def read_report_gamma(path: str) -> np.ndarray:
    """Christoffel array (n, n, n, N, N) from an ``nclevi solve`` report."""
    with open(path, "r", encoding="utf-8") as fh:
        gamma = json.load(fh)["gamma"]
    return np.array([[[_matrix(el) for el in row] for row in plane] for plane in gamma])


def read_verify_rows(path: str, models) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if sorted(doc["results"]) != sorted(models) or doc["passed"] is not True:
        raise checker.CheckFailed(f"verify report covers {sorted(doc['results'])}, "
                                  f"passed={doc['passed']!r}")
    return [(f"{m}: {c['name']}", c["residual"], c["tol"])
            for m, checks in doc["results"].items() for c in checks]


# -- replays (traced runs only) -----------------------------------------------


def replay_products(tr: Tracer, layer: str, g, nabla) -> None:
    """The 2 n^4 products that compat_residual forms, timed without the sums."""
    n = g.rank
    comps, gam = g.components, nabla.gamma
    pairs = []
    for i in range(n):
        for j in range(n):
            for l in range(n):
                for k in range(n):
                    pairs.append((comps[k][j], gam[i][k][l]))
                    pairs.append((comps[k][i], gam[j][k][l]))
    with tr.span(layer) as span:
        for a, b in pairs:
            wide_mul(a, b)
    if g.backend.kind == GRADED:
        span.count = sum(len(a.modes) * len(b.modes) for a, b in pairs)


def replay_phi(tr: Tracer, calculus, g) -> None:
    """The phi route of ``levi_civita`` rebuilt from its public steps."""
    n = calculus.rank
    with tr.span("solver.phi"):
        nab0 = nabla0(calculus)
        pi0 = pi_g_basis(g, nab0)
        kmap = [[[wide_sum([derive(calculus.derivations[l], g.components[p][q]),
                            -pi0[p][q].coeffs[l]])
                  for l in range(n)] for q in range(n)] for p in range(n)]
        with tr.span("solver.phi_invert"):
            lmap = phi_g_invert(g, kmap)
        [[[wide_sum([nab0.gamma[i][j][k], lmap[i][j][k]]) for k in range(n)]
          for j in range(n)] for i in range(n)]


def replay_solution(tr: Tracer, g, result, mul_layer: str) -> None:
    """Residual checks, the products inside them and, for two routes, the phi route."""
    with tr.span("solver.torsion_residual"):
        torsion_residual(result.connection)
    with tr.span("solver.compat_residual"):
        compat_residual(g, result.connection)
    replay_products(tr, mul_layer, g, result.connection)
    if result.route in ("phi", "both"):
        replay_phi(tr, result.connection.calculus, g)


def replay_suites(tr: Tracer, model, seed: int) -> None:
    """verify_model's suites in its order, one span each."""
    rng = np.random.default_rng(seed)
    for suite in SUITES:
        with tr.span("verification." + suite):
            getattr(verification, suite)(model, rng)


# -- torus operations ---------------------------------------------------------


def torus_solve(name: str, model, g, route: str, headline: bool = False) -> Op:
    gfield = metric_field(g)
    return Op(name, "solver." + route,
              run=lambda outs: levi_civita(model.calculus, g, route=route),
              extract=lambda res, outs: (gamma_field(res.connection), gfield),
              verify=checker.check_torus,
              replay=lambda tr, res, outs: replay_solution(tr, g, res, "algebra.graded_mul"),
              headline=headline)


def _torus_direct_setup(seed: int, tr: Tracer) -> dict:
    ladder = []
    for m, radius in ((3, 4), (4, 4), (5, 4)):
        model = _build(tr, torus_bundle, m, m - 1, np.zeros((m - 1, m - 1)), radius)
        ladder.append((m, radius, model,
                       _metric(tr, model, HEADLINE_SEED if m == 5 else seed)))
    # inputs fixed whatever the seed: this solve raises Inconsistent every time
    short = _build(tr, torus_bundle, 3, 2, np.zeros((2, 2)), 2)
    return {"ladder": ladder, "short": (short, _metric(tr, short, 0))}


def _torus_direct_ops(state: dict, seed: int, scratch: str) -> List[Op]:
    ops = [torus_solve(f"direct m={m} R={r}", model, g, "direct", headline=(m == 5))
           for m, r, model, g in state["ladder"]]
    model, g = state["short"]
    ops.append(torus_solve("direct m=3 R=2 (Inconsistent)", model, g, "direct"))
    return ops


def _torus_graded_setup(seed: int, tr: Tracer) -> dict:
    flat = _build(tr, torus_bundle, 3, 2, np.zeros((2, 2)), 4)
    with tr.span("metric.spec"):
        rng = np.random.default_rng(seed)
        oracle_metrics = [random_central_metric(flat, rng) for _ in range(3)]
    twisted = _build(tr, torus_bundle, 3, 2, _skew(0.3), 4)
    checked = _build(tr, torus_bundle, 3, 2, _skew(0.3), 2)
    return {"flat": flat, "oracle_metrics": oracle_metrics, "twisted": twisted,
            "twisted_metric": _metric(tr, twisted, HEADLINE_SEED), "checked": checked}


def _torus_graded_ops(state: dict, seed: int, scratch: str) -> List[Op]:
    flat, twisted, checked = state["flat"], state["twisted"], state["checked"]
    ops = []
    for t, g in enumerate(state["oracle_metrics"]):
        gfield = metric_field(g)
        ops.append(torus_solve(f"oracle-compare {t} both", flat, g, "both"))
        ops.append(Op(f"oracle-compare {t} koszul", "solver.koszul",
                      run=lambda outs, g=g: koszul_oracle(flat.calculus, g),
                      extract=lambda nab, outs, f=gfield: (gamma_field(nab), f),
                      verify=checker.check_torus))
    g = state["twisted_metric"]
    ops.append(torus_solve("deform both", twisted, g, "both", headline=True))
    ops.append(Op("deform deform_connection", "deformation.deform_connection",
                  run=lambda outs: deform_connection(
                      twisted.calculus, outs["deform both"].connection, g, _skew(0.2),
                      twisted.action),
                  extract=lambda d, outs: (gamma_field(d.connection), metric_field(d.metric)),
                  verify=checker.check_torus))
    ops.append(Op("deform direct re-solve", "solver.direct",
                  run=lambda outs: levi_civita(outs["deform deform_connection"].calculus,
                                               outs["deform deform_connection"].metric,
                                               route="direct"),
                  extract=lambda res, outs: (
                      gamma_field(res.connection),
                      metric_field(outs["deform deform_connection"].metric)),
                  verify=checker.check_torus,
                  replay=lambda tr, res, outs: replay_solution(
                      tr, outs["deform deform_connection"].metric, res,
                      "algebra.graded_mul")))
    ops.append(Op("verify_model twisted R=2", "verification.verify_model",
                  run=lambda outs: verification.verify_model(checked, seed=seed),
                  extract=lambda checks, outs: ([(c.name, c.residual, c.tol)
                                                 for c in checks],),
                  verify=checker.check_suites,
                  replay=lambda tr, checks, outs: replay_suites(tr, checked, seed),
                  self_test=False))
    return ops


# -- CLI operations -----------------------------------------------------------


def _cli(argv: List[str]) -> Callable[[Outputs], str]:
    path = argv[-1]

    def run(outs: Outputs) -> str:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"nclevi {argv[0]} exited with {code}")
        return path

    return run


def replay_cli_solve(tr: Tracer, model) -> None:
    with tr.span("solver.both"):
        result = levi_civita(model.calculus, model.metric, route="both")
    replay_solution(tr, model.metric, result, "algebra.matrix_mul")
    with tr.span("serialize.report") as span:
        text = json.dumps(solve_report(result, model.name, "default"), sort_keys=True,
                          indent=2)
    span.count = len(text)


def _matrix_cli_setup(seed: int, tr: Tracer) -> dict:
    spheres = {k: _build(tr, fuzzy_sphere, k) for k in range(1, 6)}
    return {"spheres": spheres, "heisenberg": _build(tr, heisenberg)}


def _matrix_cli_ops(state: dict, seed: int, scratch: str) -> List[Op]:
    ops = []
    for k, model in state["spheres"].items():
        ops.append(Op(f"solve fuzzy-sphere k={k}", "cli.solve",
                      run=_cli(["solve", "--model", "fuzzy-sphere", "--k", str(k),
                                "--out", scratch]),
                      extract=lambda path, outs: (read_report_gamma(path),),
                      verify=checker.check_fuzzy_sphere,
                      replay=lambda tr, path, outs, m=model: replay_cli_solve(tr, m),
                      headline=(k == 5)))
    heis = state["heisenberg"]
    calc = heis.calculus
    gmat = np.array([[c.matrix[0, 0] for c in row] for row in heis.metric.components])
    ops.append(Op("solve heisenberg", "cli.solve",
                  run=_cli(["solve", "--model", "heisenberg", "--out", scratch]),
                  extract=lambda path, outs: (read_report_gamma(path)[..., 0, 0], gmat,
                                              calc.wedge_constants, calc.exterior_constants),
                  verify=checker.check_scalar_frame,
                  replay=lambda tr, path, outs: replay_cli_solve(tr, heis)))
    models = ("fuzzy-sphere", "heisenberg")

    def replay_verify(tr, path, outs):
        replay_suites(tr, state["spheres"][3], seed)
        replay_suites(tr, heis, seed)

    ops.append(Op("verify fuzzy-sphere,heisenberg k=3", "cli.verify",
                  run=_cli(["verify", "--models", ",".join(models), "--k", "3",
                            "--seed", str(seed), "--out", scratch]),
                  extract=lambda path, outs: (read_verify_rows(path, models),),
                  verify=checker.check_suites,
                  replay=replay_verify,
                  self_test=False))
    return ops


WORKLOADS = {
    "torus_direct": Workload(_torus_direct_setup, _torus_direct_ops),
    "torus_graded": Workload(_torus_graded_setup, _torus_graded_ops, headline_calls=4),
    "matrix_cli": Workload(_matrix_cli_setup, _matrix_cli_ops),
}
