#!/usr/bin/env python3
"""Benchmark of nclevi: one workload per process, a closed loop of whole passes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds ``src/nclevi``.  One client
makes one call at a time; the run repeats whole passes over the workload's
fixed operations until S seconds have gone by, checks every output outside
the timed region and prints one JSON line last: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones taken from spans.
BLAS is pinned to one thread.  Each run also writes a result file with the
environment under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, names):
    p = argparse.ArgumentParser(description="nclevi benchmark")
    p.add_argument("--workload", required=True, choices=sorted(names))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: build the workload's inputs, print 'ready' and exit")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def setup_probe(args) -> float:
    """Set-up time of a fresh process, from spawn until the workload's inputs are built.

    The probe pays what a user pays before the first solve: interpreter
    start, imports, model constructors and metric construction.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        child.wait(timeout=120)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return elapsed


def attempt(op, outs, record, tracer, first: bool) -> float:
    """One timed call of ``op``, then its check outside the timed region.

    Returns the call's wall time.  A call that raises is counted in
    ``failed``; an output that fails its check makes the run incorrect.  On
    the ``first`` pass the checker must also reject a perturbed output.
    """
    from checker import CheckFailed, perturb

    with tracer.span(op.layer) as span:
        start = time.perf_counter()
        try:
            out = op.run(outs)
            error = None
        except Exception as exc:   # a failed operation is counted, not fatal
            out, error = None, exc
        elapsed = time.perf_counter() - start
    record["attempted"] += 1
    if error is not None:
        record["failed"] += 1
        record["errors"].setdefault(op.name, f"{type(error).__name__}: {error}")
        return elapsed
    outs[op.name] = out
    try:
        args = op.extract(out, outs)
        op.verify(*args)
        if first and op.self_test:
            try:
                op.verify(perturb(args[0]), *args[1:])
            except CheckFailed:
                pass
            else:
                raise CheckFailed("checker accepted a perturbed Christoffel array")
    except CheckFailed as exc:
        record["correct"] = False
        record["check_errors"].setdefault(op.name, str(exc))
    if tracer.enabled and op.replay is not None:
        with tracer.under(span):
            op.replay(tracer, out, outs)
    return elapsed


def one_pass(ops, repeats: int, record, tracer, first: bool):
    """The workload's operations in order, then ``repeats - 1`` more headline calls.

    Returns the pass time (the operations' calls only) and the headline
    times.  The extra headline calls are checked but never traced.
    """
    outs = {}
    busy, solve = 0.0, []
    for op in ops:
        elapsed = attempt(op, outs, record, tracer, first)
        busy += elapsed
        if op.headline:
            solve.append(elapsed)
    for op in [op for op in ops if op.headline] * (repeats - 1):
        solve.append(attempt(op, outs, record, spans.Tracer(enabled=False), first))
    return busy, solve


def run_passes(ops, repeats: int, seconds: int, tracer, probe=None):
    """A warm-up pass, then whole timed passes until ``seconds`` have gone by.

    The warm-up pass is attempted and checked like any other, with the
    checker's self-test, but not timed or traced.  ``probe``, if given, runs
    once after the warm-up pass, untimed, and then after every timed pass,
    so that set-up samples come from the same stretch of time as the passes.
    """
    record = {"pass_s": [], "solve_s": [], "setup_s": [], "attempted": 0, "failed": 0,
              "correct": True, "errors": {}, "check_errors": {}}
    gc.collect()
    one_pass(ops, repeats, record, spans.Tracer(enabled=False), first=True)
    if probe is not None:
        probe()
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        gc.collect()    # the last pass's garbage is freed here, not inside a timed call
        tracer.pass_index = index
        busy, solve = one_pass(ops, repeats, record, tracer, first=False)
        record["pass_s"].append(busy)
        record["solve_s"].extend(solve)
        if probe is not None:
            record["setup_s"].append(probe())
        index += 1
    return record


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:        # before numpy is imported, here and in probes
        os.environ[var] = "1"
    if not (SRC / "nclevi" / "__init__.py").is_file():
        print(f"perfbench: no nclevi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    workload = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer(enabled=args.trace == 1)
    if args.setup_probe:
        workload.setup(args.seed, tracer)
        print("ready", flush=True)
        return 0

    state = workload.setup(args.seed, tracer)
    RESULTS.mkdir(exist_ok=True)
    scratch = RESULTS / f"cli-out-{os.getpid()}.json"
    try:
        ops = workload.ops(state, args.seed, str(scratch))
        probe = None if args.trace else (lambda: setup_probe(args))
        record = run_passes(ops, workload.headline_calls, args.seconds, tracer, probe)
    finally:
        scratch.unlink(missing_ok=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics = spans.layer_metrics(tracer.spans)
    else:
        metrics = {
            "pass_s": {"value": statistics.median(record["pass_s"]), "unit": "s"},
            "solve_s": {"value": statistics.median(record["solve_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(record["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    line = {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": line, "environment": environment(),
        "operations": [op.name for op in ops], "passes": len(record["pass_s"]),
        "pass_s": record["pass_s"], "solve_s": record["solve_s"],
        "setup_s": record["setup_s"], "peak_rss_mb": peak_rss_mb,
        "errors": record["errors"], "check_errors": record["check_errors"],
        "spans": [s.to_json() for s in tracer.spans],
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
