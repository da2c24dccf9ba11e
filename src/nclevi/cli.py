"""Command-line front end: solve, verify, deform, oracle-compare.

Machine output is JSON on stdout (or --out); human summaries go to stderr.
Exit codes: 0 success, 1 mathematical failure, 2 input validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .errors import (
    Inconsistent,
    NonCentralResult,
    NonCommutativeBackend,
    NonSkew,
    NonUnique,
    NoSolution,
    SingularMetric,
    SizeTooLarge,
    TruncationOverflow,
)
from .deformation import deform_connection
from .models import (
    Model,
    fuzzy_sphere,
    heisenberg,
    random_central_metric,
    torus_bundle,
)
from .serialize import decode_metric, encode_metric, solve_report
from .solver import koszul_oracle, levi_civita
from .verification import verify_model

_VALIDATION_ERRORS = (NonSkew, NonCommutativeBackend, SizeTooLarge, ValueError)
_MATH_ERRORS = (NonUnique, Inconsistent, SingularMetric, NoSolution, NonCentralResult,
                TruncationOverflow)

_COMMAND_KEYS = {
    "solve": {"model", "k", "dims", "deformed", "theta", "radius", "metric",
              "route", "tol", "out", "seed"},
    "verify": {"models", "k", "dims", "deformed", "theta", "radius", "seed", "tol", "out"},
    "deform": {"dims", "deformed", "theta", "extra_theta", "radius", "seed", "tol", "out"},
    "oracle-compare": {"dims", "radius", "metrics", "seed", "tol", "out"},
}


def _parse_theta(text, size: int) -> np.ndarray:
    """Accept a JSON matrix, or a scalar shorthand for the 2x2 block [[0, s], [-s, 0]]."""
    if isinstance(text, (int, float)):
        value: object = float(text)
    else:
        try:
            value = json.loads(text)
        except (TypeError, json.JSONDecodeError):
            raise NonSkew(f"cannot parse deformation matrix from {text!r}")
    if isinstance(value, (int, float)):
        s = float(value)
        if size == 1:
            if s != 0.0:
                raise NonSkew("a 1x1 skew matrix must be zero")
            return np.zeros((1, 1))
        if size != 2 and s != 0.0:
            raise NonSkew("scalar shorthand only defines a 2x2 deformation block")
        th = np.zeros((size, size))
        if size == 2:
            th[0, 1], th[1, 0] = s, -s
        return th
    return np.asarray(value, dtype=float)


def _default_tol(args, default: float = 1e-10) -> float:
    """--tol if given, else NCLEVI_TOL if set, else the command's default."""
    if getattr(args, "tol", None) is not None:
        return args.tol
    env = os.environ.get("NCLEVI_TOL")
    return float(env) if env else default


def _build_model(name: str, args) -> Model:
    if name == "fuzzy-sphere":
        return fuzzy_sphere(args.k)
    if name == "heisenberg":
        return heisenberg()
    if name == "torus":
        theta = _parse_theta(args.theta, args.deformed)
        return torus_bundle(args.dims, args.deformed, theta, args.radius)
    raise ValueError(f"unknown model {name!r}")


def _emit(report: dict, args, summary: str) -> None:
    # no indent: with indent set, json falls back from its C encoder to pure Python
    text = json.dumps(report, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(summary, file=sys.stderr)


def _cmd_solve(args) -> int:
    model = _build_model(args.model, args)
    if args.metric:
        with open(args.metric, "r", encoding="utf-8") as fh:
            g = decode_metric(model.calculus, json.load(fh))
        source = args.metric
    else:
        g, source = model.metric, "default"
    result = levi_civita(model.calculus, g, route=args.route,
                         residual_tol=_default_tol(args))
    report = solve_report(result, model.name, source)
    _emit(report, args, f"solved {model.name}: torsion {result.torsion_residual:.2e}, "
                        f"compatibility {result.compat_residual:.2e}")
    return 0


def _cmd_verify(args) -> int:
    models = [_build_model(s.strip(), args) for s in args.models.split(",") if s.strip()]
    report = {"schema_version": 1, "results": {}}
    ok = True
    for model in models:
        checks = verify_model(model, seed=args.seed, residual_tol=_default_tol(args))
        report["results"][model.name] = [
            {"name": c.name, "residual": c.residual, "tol": c.tol, "passed": c.passed}
            for c in checks]
        for c in checks:
            print(f"{model.name}: {c.line()}", file=sys.stderr)
        ok = ok and all(c.passed for c in checks)
    report["passed"] = ok
    _emit(report, args, "verification " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def _cmd_deform(args) -> int:
    theta = _parse_theta(args.theta, args.deformed)
    extra = _parse_theta(args.extra_theta, args.deformed)
    model = torus_bundle(args.dims, args.deformed, theta, args.radius)
    rng = np.random.default_rng(args.seed)
    g = random_central_metric(model, rng)
    tol = _default_tol(args, 1e-8)
    base = levi_civita(model.calculus, g, route="both", residual_tol=tol)
    deformed = deform_connection(model.calculus, base.connection, g, extra, model.action)
    resolved = levi_civita(deformed.calculus, deformed.metric, route="direct",
                           residual_tol=tol)
    diff = resolved.connection.difference_norm(deformed.connection)
    report = {
        "schema_version": 1,
        "model": model.name,
        "theta": [[float(x) for x in row] for row in theta],
        "extra_theta": [[float(x) for x in row] for row in extra],
        "deformed_torsion_residual": deformed.torsion_residual,
        "deformed_compat_residual": deformed.compat_residual,
        "commutation_difference": diff,
        "metric": encode_metric(g),
    }
    _emit(report, args, f"deformation commutes with the solver to {diff:.2e}")
    return 0 if diff <= 1e-8 else 1


def _cmd_oracle_compare(args) -> int:
    # theta = 0 throughout; marking the last coordinate as undeformed lets the
    # metric sampler vary along it, so the comparison is not vacuous
    free = max(1, args.dims - 1)
    model = torus_bundle(args.dims, free, np.zeros((free, free)), args.radius)
    rng = np.random.default_rng(args.seed)
    tol = _default_tol(args, 1e-8)
    rows = []
    worst = 0.0
    for trial in range(args.metrics):
        g = random_central_metric(model, rng)
        result = levi_civita(model.calculus, g, route="both", residual_tol=tol)
        oracle = koszul_oracle(model.calculus, g)
        diff = result.connection.difference_norm(oracle)
        worst = max(worst, diff)
        rows.append({"trial": trial, "difference": diff,
                     "route_difference": result.route_difference})
    report = {"schema_version": 1, "model": model.name, "trials": rows,
              "max_difference": worst}
    _emit(report, args, f"solver vs classical oracle: max difference {worst:.2e}")
    return 0 if worst <= 1e-8 else 1


def _apply_config(argv: List[str]) -> List[str]:
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ValueError("--config needs a file path")
    path = argv[idx + 1]
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    command = argv[0] if argv and not argv[0].startswith("-") else None
    allowed = _COMMAND_KEYS.get(command or "", set())
    flags: List[str] = []
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest not in allowed:
            raise ValueError(f"unknown config key {key!r} for command {command!r}")
        if not isinstance(value, str):
            value = json.dumps(value)
        flags += [f"--{dest.replace('_', '-')}", value]
    rest = argv[:idx] + argv[idx + 2:]
    # config supplies defaults; explicit flags later on the line win
    return [rest[0]] + flags + rest[1:] if rest else flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nclevi",
        description="Levi-Civita connections for desk-scale noncommutative geometries")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve for the Levi-Civita connection")
    sp.add_argument("--model", required=True, choices=("fuzzy-sphere", "heisenberg", "torus"))
    sp.add_argument("--k", type=int, default=1, help="fuzzy sphere cutoff")
    sp.add_argument("--dims", type=int, default=3)
    sp.add_argument("--deformed", type=int, default=2)
    sp.add_argument("--theta", default="0")
    sp.add_argument("--radius", type=int, default=3)
    sp.add_argument("--metric", default=None, help="metric components JSON file")
    sp.add_argument("--route", choices=("direct", "phi", "both"), default="both")
    sp.add_argument("--tol", type=float, default=None,
                    help="residual tolerance (default: NCLEVI_TOL, else 1e-10)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_solve)

    vp = sub.add_parser("verify", help="run every module invariant suite")
    vp.add_argument("--models", default="fuzzy-sphere,heisenberg,torus")
    vp.add_argument("--k", type=int, default=1)
    vp.add_argument("--dims", type=int, default=3)
    vp.add_argument("--deformed", type=int, default=2)
    vp.add_argument("--theta", default="0.3")
    vp.add_argument("--radius", type=int, default=2)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--tol", type=float, default=None,
                    help="residual tolerance (default: NCLEVI_TOL, else 1e-10)")
    vp.add_argument("--out", default=None)
    vp.set_defaults(func=_cmd_verify)

    dp = sub.add_parser("deform", help="check that deformation commutes with the solver")
    dp.add_argument("--dims", type=int, default=3)
    dp.add_argument("--deformed", type=int, default=2)
    dp.add_argument("--theta", default="0.3")
    dp.add_argument("--extra-theta", dest="extra_theta", default="0.2")
    dp.add_argument("--radius", type=int, default=3)
    dp.add_argument("--seed", type=int, default=0)
    dp.add_argument("--tol", type=float, default=None,
                    help="residual tolerance of both solves (default: NCLEVI_TOL, else 1e-8)")
    dp.add_argument("--out", default=None)
    dp.set_defaults(func=_cmd_deform)

    op = sub.add_parser("oracle-compare", help="compare the solver with the classical formula")
    op.add_argument("--dims", type=int, default=3)
    op.add_argument("--radius", type=int, default=3)
    op.add_argument("--metrics", type=int, default=5)
    op.add_argument("--seed", type=int, default=0)
    op.add_argument("--tol", type=float, default=None,
                    help="residual tolerance of each solve (default: NCLEVI_TOL, else 1e-8)")
    op.add_argument("--out", default=None)
    op.set_defaults(func=_cmd_oracle_compare)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}, sort_keys=True))
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except _MATH_ERRORS as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}, sort_keys=True))
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "IOError", "detail": str(exc)}, sort_keys=True))
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
