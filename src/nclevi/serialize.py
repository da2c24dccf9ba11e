"""JSON encodings for metrics and solver reports.

Complex numbers are [re, im] pairs throughout; graded elements list their
modes in sorted order so documents are deterministic.
"""

from __future__ import annotations

import numpy as np

from .algebra import GRADED, MATRIX, AlgebraElement, BackendDescriptor
from .calculus import CalculusSpec
from .metric import MetricSpec
from .solver import ConnectionCoeffs, LeviCivitaResult

SCHEMA_VERSION = 1


def decode_complex(v) -> complex:
    return complex(v[0], v[1])


def _pairs(z: np.ndarray) -> list:
    """Nested [re, im] lists of Python floats, signed zeros included."""
    return np.stack([z.real, z.imag], axis=-1).tolist()


def encode_element(a: AlgebraElement) -> dict:
    if a.backend.kind == MATRIX:
        return {"kind": MATRIX, "entries": _pairs(a.matrix)}
    # mode_array is already in lexicographic order, the order of sorted(a.modes)
    terms = [list(t) for t in zip(a.mode_array.tolist(), _pairs(a.coeff_array))]
    return {"kind": GRADED, "terms": terms}


def decode_element(backend: BackendDescriptor, doc: dict) -> AlgebraElement:
    if doc["kind"] != backend.kind:
        raise ValueError("element encoding does not match the backend kind")
    if backend.kind == MATRIX:
        # a ragged array raises ValueError here; viewing the pairs as complex is
        # bit-exact, where re + 1j*im would lose signed zeros and infinities
        pairs = np.asarray(doc["entries"], dtype=float)
        if pairs.ndim != 3 or pairs.shape[-1] != 2:
            raise ValueError(f"matrix entries must be an N x N x 2 array, got {pairs.shape}")
        return AlgebraElement.from_matrix(backend, pairs.view(complex)[..., 0])
    return AlgebraElement.from_modes(
        backend, {tuple(k): decode_complex(v) for k, v in doc["terms"]})


def encode_metric(g: MetricSpec) -> dict:
    return {"components": [[encode_element(c) for c in row] for row in g.components]}


def decode_metric(calculus: CalculusSpec, doc: dict) -> MetricSpec:
    comps = [[decode_element(calculus.backend, c) for c in row]
             for row in doc["components"]]
    return MetricSpec(calculus, comps)


def encode_connection(nabla: ConnectionCoeffs) -> list:
    n = nabla.calculus.rank
    return [[[encode_element(nabla.gamma[i][j][k]) for k in range(n)]
             for j in range(n)] for i in range(n)]


def solve_report(result: LeviCivitaResult, model_name: str, metric_source: str) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "model": model_name,
        "metric": metric_source,
        "route": result.route,
        "gamma": encode_connection(result.connection),
        "torsion_residual": result.torsion_residual,
        "compat_residual": result.compat_residual,
        "min_singular_value": result.sv_ratio,
    }
    if result.route_difference is not None:
        report["route_difference"] = result.route_difference
    return report
