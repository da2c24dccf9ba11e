"""JSON encodings for backends, calculi, metrics and solver reports.

Complex numbers are [re, im] pairs throughout; graded elements list their
modes in sorted order so documents are deterministic.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .algebra import GRADED, MATRIX, AlgebraElement, BackendDescriptor, DerivationSpec
from .calculus import CalculusSpec
from .metric import MetricSpec
from .solver import ConnectionCoeffs, LeviCivitaResult

SCHEMA_VERSION = 1


def encode_complex(z: complex) -> List[float]:
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(v) -> complex:
    return complex(v[0], v[1])


def encode_backend(be: BackendDescriptor) -> dict:
    if be.kind == MATRIX:
        return {"kind": MATRIX, "size": be.size, "tol": be.tol}
    return {"kind": GRADED, "dim": be.dim, "radius": be.radius, "tol": be.tol,
            "twist": [[float(x) for x in row] for row in be.theta]}


def decode_backend(doc: dict) -> BackendDescriptor:
    if doc["kind"] == MATRIX:
        return BackendDescriptor.matrix(int(doc["size"]), float(doc.get("tol", 1e-12)))
    return BackendDescriptor.graded(int(doc["dim"]), doc["twist"], int(doc["radius"]),
                                    float(doc.get("tol", 1e-12)))


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


def _encode_derivation(d: DerivationSpec) -> dict:
    if d.kind == "inner":
        return {"kind": "inner", "element": encode_element(d.element)}
    if d.kind == "grading":
        return {"kind": "grading", "index": d.index}
    return {"kind": "zero"}


def _decode_derivation(backend: BackendDescriptor, doc: dict) -> DerivationSpec:
    if doc["kind"] == "inner":
        return DerivationSpec.inner(decode_element(backend, doc["element"]))
    if doc["kind"] == "grading":
        return DerivationSpec.grading(int(doc["index"]))
    return DerivationSpec.zero()


def encode_calculus(spec: CalculusSpec) -> dict:
    return {
        "rank": spec.rank,
        "two_form_rank": spec.two_form_rank,
        "wedge_constants": [[[encode_complex(spec.wedge_constants[a, i, j])
                              for j in range(spec.rank)] for i in range(spec.rank)]
                            for a in range(spec.two_form_rank)],
        "exterior_constants": [[encode_complex(spec.exterior_constants[a, i])
                                for i in range(spec.rank)]
                               for a in range(spec.two_form_rank)],
        "derivations": [_encode_derivation(d) for d in spec.derivations],
        "backend": encode_backend(spec.backend),
        "generators": [encode_element(g) for g in spec.generators],
    }


def decode_calculus(doc: dict) -> CalculusSpec:
    backend = decode_backend(doc["backend"])
    n, m = int(doc["rank"]), int(doc["two_form_rank"])
    wedge = np.array([[[decode_complex(doc["wedge_constants"][a][i][j])
                        for j in range(n)] for i in range(n)] for a in range(m)],
                     dtype=complex).reshape(m, n, n)
    ext = np.array([[decode_complex(doc["exterior_constants"][a][i]) for i in range(n)]
                    for a in range(m)], dtype=complex).reshape(m, n)
    derivations = [_decode_derivation(backend, d) for d in doc["derivations"]]
    generators = [decode_element(backend, g) for g in doc.get("generators", [])]
    return CalculusSpec(n, m, wedge, ext, derivations, backend, generators)


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
