"""JSON encodings for metrics and solver reports.

Complex numbers are [re, im] pairs throughout; graded elements list their
modes in sorted order so documents are deterministic.

A solve report has one writer, ``solve_report_fragments``, which writes the
JSON text directly as a list of strings: each distinct matrix-backend
Christoffel entry is encoded once, and an entry held as c I is written from
its two spelt values without building the matrix.  ``solve_report`` is
the joined fragments parsed back into a dict.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import GRADED, MATRIX, AlgebraElement, BackendDescriptor
from .calculus import CalculusSpec
from .metric import MetricSpec
from .solver import LeviCivitaResult

SCHEMA_VERSION = 1


def json_numbers(value, what: str) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array.  Anything else
    -- a bool, a string, an object, an integer past float range -- is a
    ValueError naming `what`, so no outside input reads as a number it is not."""
    todo = [value]
    while todo:
        v = todo.pop()
        if isinstance(v, list):
            todo.extend(v[::-1])
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{what} must hold JSON numbers only, not {json.dumps(v)}")
    try:
        return np.asarray(value, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"{what} holds a number past float range") from exc


def _pairs(z: np.ndarray) -> list:
    """Nested [re, im] lists of Python floats, signed zeros included."""
    return np.stack([z.real, z.imag], axis=-1).tolist()


def _matrix_doc(entries) -> dict:
    return {"kind": MATRIX, "entries": entries}


def encode_element(a: AlgebraElement) -> dict:
    if a.backend.kind == MATRIX:
        return _matrix_doc(_pairs(a.matrix))
    # mode_array is already in lexicographic order, the order of sorted(a.modes)
    terms = [list(t) for t in zip(a.mode_array.tolist(), _pairs(a.coeff_array))]
    return {"kind": GRADED, "terms": terms}


def decode_element(backend: BackendDescriptor, doc: dict) -> AlgebraElement:
    if doc["kind"] != backend.kind:
        raise ValueError("element encoding does not match the backend kind")
    if backend.kind == MATRIX:
        # a ragged array raises ValueError here; viewing the pairs as complex is
        # bit-exact, where re + 1j*im would lose signed zeros and infinities
        pairs = json_numbers(doc["entries"], "a matrix entry")
        if pairs.ndim != 3 or pairs.shape[-1] != 2:
            raise ValueError(f"matrix entries must be an N x N x 2 array, got {pairs.shape}")
        return AlgebraElement.from_matrix(backend, pairs.view(complex)[..., 0])
    modes: dict = {}
    for k, v in doc["terms"]:
        if tuple(k) in modes:
            raise ValueError(f"mode {tuple(k)} is given twice")
        re, im = json_numbers(v, "a graded coefficient")   # exactly [re, im]
        modes[tuple(k)] = complex(re, im)
    return AlgebraElement.from_modes(backend, modes)


def encode_metric(g: MetricSpec) -> dict:
    return {"components": [[encode_element(c) for c in row] for row in g.components]}


def decode_metric(calculus: CalculusSpec, doc: dict) -> MetricSpec:
    """The metric a JSON document encodes; a malformed document is a ValueError."""
    try:
        comps = [[decode_element(calculus.backend, c) for c in row]
                 for row in doc["components"]]
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed metric file: {exc!r}") from exc
    return MetricSpec(calculus, comps)


def _central_text(form: np.ndarray, size: int) -> str:
    """json.dumps(_pairs(m)) of the N x N matrix m with central form (diagonal,
    off-diagonal), from the two spelt values."""
    diag, off = (json.dumps([z.real, z.imag]) for z in form.tolist())
    return "[" + ", ".join("[" + (off + ", ") * r + diag + (", " + off) * (size - 1 - r) + "]"
                           for r in range(size)) + "]"


def _element_text(a: AlgebraElement, memo: dict) -> str:
    """json.dumps(encode_element(a), sort_keys=True); `memo` keeps each distinct
    matrix's text by its bytes, or a central form's by (N, its bytes), so equal
    matrices are written once."""
    if a.backend.kind != MATRIX:
        return json.dumps(encode_element(a), sort_keys=True)
    form, size = a.central_form, a.backend.size
    key = a.matrix.tobytes() if form is None else (size, form.tobytes())
    if key not in memo:
        text = json.dumps(_pairs(a.matrix)) if form is None else _central_text(form, size)
        # json.dumps(_matrix_doc(text), sort_keys=True), the text spliced in
        memo[key] = f'{{"entries": {text}, "kind": "{MATRIX}"}}'
    return memo[key]


def solve_report(result: LeviCivitaResult, model_name: str, metric_source: str) -> dict:
    """The solve report as a dict: the joined fragments of
    `solve_report_fragments`, parsed."""
    return json.loads("".join(solve_report_fragments(result, model_name, metric_source)))


def solve_report_fragments(result: LeviCivitaResult, model_name: str,
                           metric_source: str) -> list:
    """The solve report's JSON text as a flat list of strings, in order.

    The Christoffel array is written entry by entry, each entry's text one
    fragment shared by equal entries, and every other field through
    json.dumps.  The text is never joined here, so `nclevi solve` writes the
    fragments as they are, and a 91 x 91 entry repeated 27 times is not
    copied into one string.
    """
    report = {
        "schema_version": SCHEMA_VERSION,
        "model": model_name,
        "metric": metric_source,
        "route": result.route,
        "gamma": None,          # written below, entry by entry
        "torsion_residual": result.torsion_residual,
        "compat_residual": result.compat_residual,
        "min_singular_value": result.sv_ratio,
        # the phase timings stay on the result, so a report repeats byte for byte
        "stats": {k: result.stats[k] for k in ("grid_points", "equations", "unknowns")},
    }
    if result.route_difference is not None:
        report["route_difference"] = result.route_difference
    memo: dict = {}
    out = ["{"]
    for n, (key, value) in enumerate(sorted(report.items())):
        out.append(f"{', ' if n else ''}{json.dumps(key)}: ")
        if key != "gamma":
            out.append(json.dumps(value, sort_keys=True))
            continue
        out.append("[")
        for i, plane in enumerate(result.connection.gamma):
            out.append(", [" if i else "[")
            for j, row in enumerate(plane):
                out.append(", [" if j else "[")
                for k, a in enumerate(row):
                    if k:
                        out.append(", ")
                    out.append(_element_text(a, memo))
                out.append("]")
            out.append("]")
        out.append("]")
    out.append("}")
    return out
