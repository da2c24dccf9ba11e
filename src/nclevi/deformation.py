"""Rieffel / Connes-Landi deformation on torus-graded data.

The deformation acts on graded coefficient data directly: the product picks up
the bicharacter phase chi_theta(k, l) = e^{pi i <k, theta l>} between grades,
which is the same thing as adding theta into the backend twist.  The calculus,
metric and connection deform by reinterpreting their coefficient data over the
twisted backend; the torsion and compatibility checks rerun in the
deformed calculus certify the reinterpretation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .algebra import (
    GRADED,
    AlgebraElement,
    BackendDescriptor,
    DerivationSpec,
    _canonical,
    _frozen,
    contract,
    require_skew,
)
from .calculus import CalculusSpec
from .errors import BackendMismatch
from .metric import MetricSpec
from .solver import DEFAULT_RESIDUAL_TOL, ConnectionCoeffs, _derivatives, certify


def embed_theta(theta, dim: int, coords: Sequence[int]) -> np.ndarray:
    """Place an action-block deformation matrix into the full t x t twist slot."""
    th = require_skew(theta, len(coords))
    out = np.zeros((dim, dim))
    out[np.ix_(coords, coords)] = th
    return out


@dataclass(frozen=True)
class TorusAction:
    """Grading data for a T^na action on a graded backend.

    The action rotates the listed coordinates, so the grade of a mode is its
    restriction to them.
    """

    coords: tuple = ()

    @property
    def ndim(self) -> int:
        return len(self.coords)


def spectral_decompose(x: AlgebraElement, action: TorusAction) -> Dict[tuple, AlgebraElement]:
    """Exact isotypical decomposition under the torus action: grade -> component, summing to x."""
    be = x.backend
    if be.kind != GRADED:
        raise BackendMismatch("torus action applied to a matrix element")
    modes, coeffs = x.mode_array, x.coeff_array
    rows: Dict[tuple, list] = {}
    for r, grade in enumerate(map(tuple, modes[:, list(action.coords)].tolist())):
        rows.setdefault(grade, []).append(r)
    # rows of a canonical element, kept in order, are canonical
    return {grade: AlgebraElement._graded(be, _frozen(modes[r]), _frozen(coeffs[r]))
            for grade, r in rows.items()}


# -- deformed operations -------------------------------------------------------


def deform_product_many(pairs: Sequence[Tuple[AlgebraElement, AlgebraElement]], theta,
                        action: TorusAction) -> List[AlgebraElement]:
    """a x_theta b = sum_{k,l} chi_theta(k, l) a_k b_l over the isotypical
    parts, for every pair (a, b), in one kernel call."""
    th = require_skew(theta, action.ndim)
    slots = []
    for a, b in pairs:
        da = spectral_decompose(a, action)
        db = spectral_decompose(b, action)
        ka = np.array(list(da), dtype=float).reshape(len(da), action.ndim)
        lb = np.array(list(db), dtype=float).reshape(len(db), action.ndim)
        chi = np.exp(1j * np.pi * (ka @ th @ lb.T))
        slots.append([(chi[p, q], ca, cb) for p, ca in enumerate(da.values())
                      for q, cb in enumerate(db.values())])
    if not slots:
        return []
    return contract(pairs[0][0].backend, slots)


# -- deformation of the full calculus / metric / connection ----------------------


def deform_backend(backend: BackendDescriptor, theta, action: TorusAction) -> BackendDescriptor:
    """Twist composition: the deformed algebra is the graded backend with theta added."""
    if backend.kind != GRADED:
        raise BackendMismatch("only graded backends deform at desk scale")
    extra = embed_theta(theta, backend.dim, action.coords)
    return BackendDescriptor.graded(backend.dim, backend.theta + extra, backend.radius)


def deform_element(a: AlgebraElement, backend_theta: BackendDescriptor) -> AlgebraElement:
    """Coefficient-preserving reinterpretation a -> a_theta."""
    return AlgebraElement._graded(backend_theta, *_canonical(a.mode_array, a.coeff_array))


def deform_calculus(calculus: CalculusSpec, theta, action: TorusAction) -> CalculusSpec:
    """Same wedge/exterior constants and derivations over the twisted backend."""
    be = deform_backend(calculus.backend, theta, action)
    ders = []
    for d in calculus.derivations:
        if d.kind == "inner":
            ders.append(DerivationSpec.inner(deform_element(d.element, be)))
        else:
            ders.append(d)
    gens = [deform_element(g, be) for g in calculus.generators]
    return CalculusSpec(calculus.rank, calculus.two_form_rank, calculus.wedge_constants,
                        calculus.exterior_constants, ders, be, gens)


def deform_metric(g: MetricSpec, calculus_theta: CalculusSpec) -> MetricSpec:
    comps = [[deform_element(c, calculus_theta.backend) for c in row] for row in g.components]
    return MetricSpec(calculus_theta, comps)


@dataclass
class DeformedConnection:
    calculus: CalculusSpec
    connection: ConnectionCoeffs
    metric: MetricSpec
    torsion_residual: float
    compat_residual: float


def deform_connection(calculus: CalculusSpec, nabla: ConnectionCoeffs, g: MetricSpec,
                      theta, action: TorusAction) -> DeformedConnection:
    """Deform (nabla, g) and certify torsion-lessness and compatibility in the new calculus.

    The certificates pass the solver's gate, `solver.certify`, at its
    DEFAULT_RESIDUAL_TOL relative to the largest right-hand-side coefficient.
    """
    calc_t = deform_calculus(calculus, theta, action)
    g_t = deform_metric(g, calc_t)
    n = calculus.rank
    gamma = [[[deform_element(nabla.gamma[i][j][k], calc_t.backend) for k in range(n)]
              for j in range(n)] for i in range(n)]
    nab_t = ConnectionCoeffs(calc_t, gamma)
    tres, cres = certify(nab_t, g_t, _derivatives(calc_t, g_t.components),
                         DEFAULT_RESIDUAL_TOL, "deformed connection fails its certificates")
    return DeformedConnection(calc_t, nab_t, g_t, tres, cres)
