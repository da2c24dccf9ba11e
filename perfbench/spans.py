"""In-memory spans for the traced run, and the per-layer metrics derived from them.

A span is (id, name, parent, pass, start, end) plus an optional count.  Spans
are kept in a list and written out with the result file when the run ends.
Span names are layer names; a layer metric ``<layer>_s`` is the median over
passes of the time a pass spent in spans of that name.  A layer that a
workload never calls has no spans and reads 0.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional

# layer name -> unit of its metric; the order is the order of the result line
LAYERS = {
    "models.build_s": "s",
    "metric.spec_s": "s",
    "solver.direct_s": "s",
    "solver.direct_core_s": "s",
    "solver.both_s": "s",
    "solver.compat_residual_s": "s",
    "solver.torsion_residual_s": "s",
    "solver.phi_s": "s",
    "solver.phi_invert_s": "s",
    "solver.koszul_s": "s",
    "algebra.graded_mul_s": "s",
    "algebra.graded_mul_pairs": "count",
    "algebra.matrix_mul_s": "s",
    "deformation.deform_connection_s": "s",
    "verification.algebra_checks_s": "s",
    "verification.calculus_checks_s": "s",
    "verification.metric_checks_s": "s",
    "verification.solver_checks_s": "s",
    "verification.deformation_checks_s": "s",
    "serialize.report_s": "s",
    "serialize.report_bytes": "bytes",
    "cli.solve_s": "s",
    "cli.verify_s": "s",
    "cli.overhead_s": "s",
}

SETUP_LAYERS = ("models.build", "metric.spec")
COUNTS = {"algebra.graded_mul": "algebra.graded_mul_pairs",
          "serialize.report": "serialize.report_bytes"}
RESIDUAL_REPLAYS = ("solver.compat_residual", "solver.torsion_residual")
CLI_CHILDREN = ("solver.both", "serialize.report", "verification.algebra_checks",
                "verification.calculus_checks", "verification.metric_checks",
                "verification.solver_checks", "verification.deformation_checks")


class Span:
    __slots__ = ("id", "name", "parent", "pass_index", "start", "end", "count")

    def __init__(self, sid, name, parent, pass_index):
        self.id, self.name, self.parent, self.pass_index = sid, name, parent, pass_index
        self.start = self.end = 0.0
        self.count: Optional[int] = None

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "pass": self.pass_index, "start": self.start, "end": self.end,
                "count": self.count}


class Tracer:
    """Records spans when enabled; otherwise every span is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self.pass_index: Optional[int] = None
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        rec = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                   self.pass_index)
        self.spans.append(rec)
        self._stack.append(rec.id)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def under(self, parent: Optional[Span]):
        """Make later spans children of ``parent`` (replays of a finished call)."""
        if parent is None:
            yield
            return
        self._stack.append(parent.id)
        try:
            yield
        finally:
            self._stack.pop()


def layer_metrics(spans: List[Span]) -> Dict[str, dict]:
    """Per-layer metrics: medians over passes of per-pass totals; set-up spans summed once.

    Two layers are self times.  ``solver.direct_core_s`` is the direct solve
    minus the residual checks replayed on its output, and ``cli.overhead_s``
    is the CLI calls minus the solver, report and invariant calls replayed on
    their inputs.
    """
    by_id = {s.id: s for s in spans}
    rows: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    setup: Dict[str, float] = defaultdict(float)
    for s in spans:
        dur = s.end - s.start
        if s.pass_index is None:
            setup[s.name + "_s"] += dur
            continue
        row = rows[s.pass_index]
        row[s.name + "_s"] += dur
        if s.name in COUNTS:
            row[COUNTS[s.name]] += s.count
        parent = by_id.get(s.parent)
        if parent is not None and parent.name == "solver.direct" and s.name in RESIDUAL_REPLAYS:
            row["solver.direct_core_s"] -= dur
        if parent is not None and parent.name.startswith("cli.") and s.name in CLI_CHILDREN:
            row["cli.overhead_s"] -= dur
    for row in rows.values():
        row["solver.direct_core_s"] += row["solver.direct_s"]
        row["cli.overhead_s"] += row["cli.solve_s"] + row["cli.verify_s"]

    out = {}
    for name, unit in LAYERS.items():
        if name[:-2] in SETUP_LAYERS:
            value = setup.get(name, 0.0)
        else:
            vals = [row.get(name, 0.0) for row in rows.values()]
            value = float(statistics.median(vals)) if vals else 0.0
        out[name] = {"value": value, "unit": unit}
    return out
