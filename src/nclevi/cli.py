"""Command-line front end: solve, verify, deform, oracle-compare.

Machine output is JSON on stdout (or --out); human summaries go to stderr.
Exit codes: 0 success, 1 mathematical failure, 2 input validation failure.
Each command reads its input (models, metric file, tolerance) before it
computes; a ValueError counts as an input error only while input is read.
A tolerance must be a finite number >= 0.  Only solve, which reads modes
from --metric, takes --radius; the other commands build their torus at R = 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .errors import GeometryError, NonSkew
from .deformation import deform_connection
from .models import (
    Model,
    fuzzy_sphere,
    heisenberg,
    random_central_metric,
    torus_bundle,
)
from .serialize import (
    SCHEMA_VERSION,
    decode_metric,
    encode_metric,
    json_numbers,
    solve_report_fragments,
)
from .solver import DEFAULT_RESIDUAL_TOL, koszul_oracle, levi_civita
from .verification import verify_model


def _parse_theta(text: str, size: int) -> np.ndarray:
    """Accept a JSON matrix, or a scalar s for theta_01 = s, theta_10 = -s and
    zeros elsewhere on a block of size >= 2; a smaller block takes only s = 0.
    Every entry must be a JSON number."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        raise NonSkew(f"cannot parse deformation matrix from {text!r}")
    value = json_numbers(value, "a deformation matrix")
    if value.ndim:
        return value
    s = float(value)
    th = np.zeros((size, size))
    if size >= 2:
        th[0, 1], th[1, 0] = s, -s
    elif s != 0.0:
        raise NonSkew(f"a {size}x{size} skew matrix must be zero")
    return th


def _default_tol(args) -> float:
    """--tol, else NCLEVI_TOL, else 1e-10; a NaN, infinite or negative gate is refused."""
    tol = args.tol
    if tol is None:
        env = os.environ.get("NCLEVI_TOL")
        tol = float(env) if env else DEFAULT_RESIDUAL_TOL
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"the tolerance must be a finite number >= 0, not {tol}")
    return tol


def _require_seed(args) -> None:
    """Refuse a negative --seed while input is read; numpy's generator would
    refuse it only after the work began."""
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, not {args.seed}")


_OWN_RADIUS = 1  # the reach of U^(+-e_j) and of random_central_metric's modes


# model name -> its builder from the parsed arguments and the torus radius, in
# the order of solve's --model choices and of verify's default --models
_MODELS = {
    "fuzzy-sphere": lambda args, radius: fuzzy_sphere(args.k),
    "heisenberg": lambda args, radius: heisenberg(),
    "torus": lambda args, radius: torus_bundle(
        args.dims, args.deformed, _parse_theta(args.theta, args.deformed), radius),
}


def _build_model(name: str, args, radius: int) -> Model:
    if name not in _MODELS:
        raise ValueError(f"unknown model {name!r}")
    return _MODELS[name](args, radius)


def _dumps(report: dict) -> str:
    # no indent: with indent set, json falls back from its C encoder to pure Python
    return json.dumps(report, sort_keys=True)


def _emit(fragments: List[str], args, summary: str) -> None:
    """Write one line of JSON text, given as the strings that make it up, to
    --out or stdout, and the summary to stderr.  The fragments are written as
    they are, so a large report is never joined into one string."""
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(fragments)
            fh.write("\n")
    else:
        sys.stdout.writelines(fragments)
        sys.stdout.write("\n")
        # a reader that has gone shows here, not at the flush on exit
        sys.stdout.flush()
    print(summary, file=sys.stderr)


def _read_solve(args) -> tuple:
    model = _build_model(args.model, args, args.radius)
    g, source = model.metric, "default"
    if args.metric:
        with open(args.metric, "r", encoding="utf-8") as fh:
            g = decode_metric(model.calculus, json.load(fh))
        source = args.metric
    return model, g, source, _default_tol(args)


def _cmd_solve(args, model: Model, g, source: str, tol: float) -> int:
    result = levi_civita(model.calculus, g, route=args.route, residual_tol=tol)
    # every fragment is spelt before --out is opened, so a failure leaves no partial report
    report = solve_report_fragments(result, model.name, source)
    _emit(report, args, f"solved {model.name}: torsion {result.torsion_residual:.2e}, "
                        f"compatibility {result.compat_residual:.2e}")
    return 0


def _read_verify(args) -> tuple:
    _require_seed(args)
    names = [s.strip() for s in args.models.split(",") if s.strip()]
    if not names:
        raise ValueError("--models names no model")
    if len(set(names)) < len(names):
        raise ValueError(f"--models names a model twice: {args.models!r}")
    return [_build_model(name, args, _OWN_RADIUS) for name in names], _default_tol(args)


def _cmd_verify(args, models: List[Model], tol: float) -> int:
    report = {"schema_version": SCHEMA_VERSION, "results": {}}
    ok = True
    for model in models:
        checks = verify_model(model, seed=args.seed, residual_tol=tol)
        report["results"][model.name] = [
            {"name": c.name, "residual": c.residual, "tol": c.tol, "passed": c.passed}
            for c in checks]
        for c in checks:
            print(f"{model.name}: {c.line()}", file=sys.stderr)
        ok = ok and all(c.passed for c in checks)
    report["passed"] = ok
    _emit([_dumps(report)], args, "verification " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def _read_deform(args) -> tuple:
    _require_seed(args)
    theta = _parse_theta(args.theta, args.deformed)
    extra = _parse_theta(args.extra_theta, args.deformed)
    model = torus_bundle(args.dims, args.deformed, theta, _OWN_RADIUS)
    return model, theta, extra, _default_tol(args)


def _cmd_deform(args, model: Model, theta: np.ndarray, extra: np.ndarray, tol: float) -> int:
    g = random_central_metric(model, np.random.default_rng(args.seed))
    base = levi_civita(model.calculus, g, route="both", residual_tol=tol)
    deformed = deform_connection(model.calculus, base.connection, g, extra, model.action)
    resolved = levi_civita(deformed.calculus, deformed.metric, route="direct",
                           residual_tol=tol)
    diff = resolved.connection.difference_norm(deformed.connection)
    report = {
        "schema_version": SCHEMA_VERSION,
        "model": model.name,
        "theta": [[float(x) for x in row] for row in theta],
        "extra_theta": [[float(x) for x in row] for row in extra],
        "deformed_torsion_residual": deformed.torsion_residual,
        "deformed_compat_residual": deformed.compat_residual,
        "commutation_difference": diff,
        "metric": encode_metric(g),
    }
    _emit([_dumps(report)], args, f"deformation commutes with the solver to {diff:.2e}")
    return 0 if diff <= 1e-8 else 1


def _read_oracle_compare(args) -> tuple:
    _require_seed(args)
    if args.metrics < 1:
        raise ValueError(f"--metrics must be at least 1, not {args.metrics}")
    # theta = 0 throughout; marking the last coordinate as undeformed lets the
    # metric sampler vary along it, so the comparison is not vacuous
    free = max(1, args.dims - 1)
    model = torus_bundle(args.dims, free, np.zeros((free, free)), _OWN_RADIUS)
    return model, _default_tol(args)


def _cmd_oracle_compare(args, model: Model, tol: float) -> int:
    rng = np.random.default_rng(args.seed)
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
    report = {"schema_version": SCHEMA_VERSION, "model": model.name, "trials": rows,
              "max_difference": worst}
    _emit([_dumps(report)], args, f"solver vs classical oracle: max difference {worst:.2e}")
    return 0 if worst <= 1e-8 else 1


def _apply_config(argv: List[str], parser: argparse.ArgumentParser) -> List[str]:
    """argv with every --config PATH (or --config=PATH) taken off and the flags
    its file sets put right after the subcommand, file by file in order: a
    later file overrides an earlier one, and explicit flags on the line win."""
    paths: List[str] = []
    rest: List[str] = []
    line = iter(argv)
    for arg in line:
        if arg == "--config":
            path = next(line, None)
            if path is None:
                raise ValueError("--config needs a file path")
            paths.append(path)
        elif arg.startswith("--config="):
            paths.append(arg[len("--config="):])
        else:
            rest.append(arg)
    if not paths:
        return argv
    command = rest[0] if rest and not rest[0].startswith("-") else None
    sub = parser.commands.get(command)
    allowed = sub.option_dests if sub else frozenset()
    flags: List[str] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in cfg.items():
            dest = key.replace("-", "_")
            if dest not in allowed:
                raise ValueError(f"unknown config key {key!r} for command {command!r}")
            if value is None or isinstance(value, bool):
                raise ValueError(f"config key {key!r} is {json.dumps(value)}: "
                                 "no option takes null or a boolean")
            if not isinstance(value, str):
                value = json.dumps(value)
            flags += [f"--{dest.replace('_', '-')}", value]
    # argparse keeps an option's last value, so later files and then the line win
    return [rest[0]] + flags + rest[1:] if rest else flags


class _ConfigOption(argparse.Action):
    """--config as --help lists it.  `_apply_config` takes every --config off the
    line before parsing, so argparse meets this option only abbreviated."""

    def __call__(self, parser, namespace, values, option_string=None):
        raise ValueError("--config must be written in full")


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser; its option_dests, every dest but --help's, are its config keys."""

    option_dests: frozenset = frozenset()

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.default is not argparse.SUPPRESS:
            self.option_dests = self.option_dests | {action.dest}
        return action


_THETA_HELP = ("skew deformation block as a row-major JSON matrix, or a scalar s for "
               "theta_01 = -theta_10 = s and zeros elsewhere")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="nclevi",
        description="Levi-Civita connections for desk-scale noncommutative geometries")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    parser.commands = sub.choices  # command name -> its _CommandParser

    sp = sub.add_parser("solve", help="solve for the Levi-Civita connection")
    sp.add_argument("--model", required=True, choices=tuple(_MODELS))
    sp.add_argument("--k", type=int, default=1, help="fuzzy sphere cutoff")
    sp.add_argument("--dims", type=int, default=3)
    sp.add_argument("--deformed", type=int, default=2)
    sp.add_argument("--theta", default="0", help=_THETA_HELP + " (default: 0)")
    sp.add_argument("--radius", type=int, default=3)
    sp.add_argument("--metric", default=None, help="metric components JSON file")
    sp.add_argument("--route", choices=("direct", "phi", "both"), default="both")
    sp.add_argument("--tol", type=float, default=None,
                    help="residual tolerance (default: NCLEVI_TOL, else 1e-10)")
    sp.add_argument("--out", default=None)
    sp.set_defaults(read=_read_solve, func=_cmd_solve)

    vp = sub.add_parser("verify", help="run every module invariant suite")
    vp.add_argument("--models", default=",".join(_MODELS))
    vp.add_argument("--k", type=int, default=1)
    vp.add_argument("--dims", type=int, default=3)
    vp.add_argument("--deformed", type=int, default=2)
    vp.add_argument("--theta", default="0.3", help=_THETA_HELP + " (default: 0.3)")
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--tol", type=float, default=None,
                    help="residual tolerance (default: NCLEVI_TOL, else 1e-10)")
    vp.add_argument("--out", default=None)
    vp.set_defaults(read=_read_verify, func=_cmd_verify)

    dp = sub.add_parser("deform", help="check that deformation commutes with the solver")
    dp.add_argument("--dims", type=int, default=3)
    dp.add_argument("--deformed", type=int, default=2)
    dp.add_argument("--theta", default="0.3", help=_THETA_HELP + " (default: 0.3)")
    dp.add_argument("--extra-theta", dest="extra_theta", default="0.2")
    dp.add_argument("--seed", type=int, default=0)
    dp.add_argument("--tol", type=float, default=None,
                    help="residual tolerance of both solves (default: NCLEVI_TOL, else 1e-10)")
    dp.add_argument("--out", default=None)
    dp.set_defaults(read=_read_deform, func=_cmd_deform)

    op = sub.add_parser("oracle-compare", help="compare the solver with the classical formula")
    op.add_argument("--dims", type=int, default=3)
    op.add_argument("--metrics", type=int, default=5)
    op.add_argument("--seed", type=int, default=0)
    op.add_argument("--tol", type=float, default=None,
                    help="residual tolerance of each solve (default: NCLEVI_TOL, else 1e-10)")
    op.add_argument("--out", default=None)
    op.set_defaults(read=_read_oracle_compare, func=_cmd_oracle_compare)
    for p in (parser, *sub.choices.values()):
        p.add_argument("--config", action=_ConfigOption, metavar="PATH",
                       default=argparse.SUPPRESS,
                       help="JSON file of option values, repeatable: a later file wins, "
                            "and explicit flags win over every file")
    return parser


def _fail(exc: Exception, code: int, what: str, name: Optional[str] = None) -> int:
    print(json.dumps({"error": name or type(exc).__name__, "detail": str(exc)}, sort_keys=True))
    print(f"{what}: {exc}", file=sys.stderr)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(_apply_config(argv, parser))
            inputs = args.read(args)
        except ValueError as exc:
            return _fail(exc, 2, "input error")
        return args.func(args, *inputs)
    except GeometryError as exc:
        return _fail(exc, exc.exit_code,
                     "input error" if exc.exit_code == 2 else "mathematical failure")
    except BrokenPipeError as exc:
        # stdout's reader has gone: the error line goes to stderr alone, and
        # the bytes stdout still holds go to devnull, or the flush on exit
        # would fail again
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        return _fail(exc, 2, "i/o error", "IOError")


if __name__ == "__main__":
    sys.exit(main())
