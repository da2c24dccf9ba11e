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
from typing import Dict, Optional, Sequence

import numpy as np

from .algebra import (
    GRADED,
    AlgebraElement,
    BackendDescriptor,
    DerivationSpec,
    contract,
    lift,
)
from .calculus import CalculusSpec
from .errors import BackendMismatch, Inconsistent, NonSkew
from .metric import MetricSpec
from .solver import ConnectionCoeffs, compat_residual, torsion_residual


def require_skew(theta, dim: Optional[int] = None) -> np.ndarray:
    """Validate a deformation matrix; the error names the symmetry violation size."""
    th = np.asarray(theta, dtype=float)
    if th.ndim != 2 or th.shape[0] != th.shape[1]:
        raise NonSkew(f"deformation matrix must be square, got shape {th.shape}")
    if dim is not None and th.shape[0] != dim:
        raise NonSkew(f"deformation matrix must be {dim}x{dim}, got {th.shape[0]}x{th.shape[0]}")
    dev = float(np.max(np.abs(th + th.T))) if th.size else 0.0
    if dev > 1e-14:
        raise NonSkew(f"deformation matrix is not skew-symmetric: |theta + theta^T| = {dev:.3e}")
    return th


def bicharacter(theta, k: Sequence[int], l: Sequence[int]) -> complex:
    """chi_theta(k, l) = e^{pi i <k, theta l>}; unit modulus, chi(k,l) chi(l,k) = 1."""
    th = require_skew(theta)
    ka = np.asarray(k, dtype=float)
    la = np.asarray(l, dtype=float)
    return complex(np.exp(1j * np.pi * float(ka @ th @ la)))


def embed_theta(theta, dim: int, coords: Sequence[int]) -> np.ndarray:
    """Place an action-block deformation matrix into the full t x t twist slot."""
    th = require_skew(theta, len(coords))
    out = np.zeros((dim, dim))
    for a, ca in enumerate(coords):
        for b, cb in enumerate(coords):
            out[ca, cb] = th[a, b]
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
    return {grade: AlgebraElement.from_arrays(be, modes[r], coeffs[r])
            for grade, r in rows.items()}


# -- deformed operations -------------------------------------------------------


def deform_product(a: AlgebraElement, b: AlgebraElement, theta,
                   action: TorusAction) -> AlgebraElement:
    """a x_theta b = sum_{k,l} chi_theta(k, l) a_k b_l over the isotypical parts."""
    th = require_skew(theta, action.ndim)
    da = spectral_decompose(a, action)
    db = spectral_decompose(b, action)
    ka = np.array(list(da), dtype=float).reshape(len(da), action.ndim)
    lb = np.array(list(db), dtype=float).reshape(len(db), action.ndim)
    chi = np.exp(1j * np.pi * (ka @ th @ lb.T))
    out = contract(a.backend, [[(chi[p, q], ca, cb) for p, ca in enumerate(da.values())
                                for q, cb in enumerate(db.values())]])[0]
    return lift(out, a.backend) if out.support_radius() <= a.backend.radius else out


# -- deformation of the full calculus / metric / connection ----------------------


def deform_backend(backend: BackendDescriptor, theta, action: TorusAction) -> BackendDescriptor:
    """Twist composition: the deformed algebra is the graded backend with theta added."""
    if backend.kind != GRADED:
        raise BackendMismatch("only graded backends deform at desk scale")
    extra = embed_theta(theta, backend.dim, action.coords)
    return BackendDescriptor.graded(backend.dim, backend.theta + extra,
                                    backend.radius, backend.tol)


def deform_element(a: AlgebraElement, backend_theta: BackendDescriptor) -> AlgebraElement:
    """Coefficient-preserving reinterpretation a -> a_theta."""
    return AlgebraElement.from_modes(backend_theta, a.modes)


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
                      theta, action: TorusAction,
                      residual_tol: float = 1e-9) -> DeformedConnection:
    """Deform (nabla, g) and certify torsion-lessness and compatibility in the new calculus."""
    calc_t = deform_calculus(calculus, theta, action)
    g_t = deform_metric(g, calc_t)
    n = calculus.rank
    gamma = [[[deform_element(nabla.gamma[i][j][k], calc_t.backend) for k in range(n)]
              for j in range(n)] for i in range(n)]
    nab_t = ConnectionCoeffs(calc_t, gamma)
    tres = torsion_residual(nab_t)
    cres = compat_residual(g_t, nab_t).max_norm
    scale = max(1.0, max(nab_t.gamma[i][j][k].norm()
                         for i in range(n) for j in range(n) for k in range(n)))
    if max(tres, cres) > residual_tol * scale:
        raise Inconsistent(
            f"deformed connection fails its certificates "
            f"(torsion {tres:.3e}, compatibility {cres:.3e})")
    return DeformedConnection(calc_t, nab_t, g_t, tres, cres)
