"""Output checks made apart from nclevi: the Levi-Civita equations evaluated with numpy.

Nothing here calls into the solver.  Each check takes plain arrays that were
read off a result (graded elements as mode -> coefficient maps, matrix
elements as complex arrays, CLI reports as decoded JSON), assembles the
torsion and compatibility equations itself and raises ``CheckFailed`` when
they do not hold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Tuple

import numpy as np

TOL = 1e-9


class CheckFailed(Exception):
    """An output does not satisfy the equations it should solve."""


@dataclass
class ModeField:
    """A stack of trigonometric polynomials on the torus T^t.

    ``modes`` is an (N, t) integer array; ``coeffs`` has shape (*shape, N), so
    entry [..., a] is the coefficient of exp(2 pi i <modes[a], x>).
    """

    modes: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def from_maps(cls, maps: Sequence[Mapping[tuple, complex]], shape: Tuple[int, ...],
                  dim: int) -> "ModeField":
        keys = sorted({k for m in maps for k in m})
        index = {k: a for a, k in enumerate(keys)}
        coeffs = np.zeros((len(maps), len(keys)), dtype=complex)
        for e, m in enumerate(maps):
            for k, v in m.items():
                coeffs[e, index[k]] = v
        modes = np.array(keys, dtype=int).reshape(len(keys), dim)
        return cls(modes, coeffs.reshape(shape + (len(keys),)))

    def sample(self, points: np.ndarray, along: int = -1) -> np.ndarray:
        """Values on (P, t) points; with ``along`` = l, values of the l-th partial."""
        coeffs = self.coeffs
        if along >= 0:
            coeffs = coeffs * (2j * np.pi * self.modes[:, along])
        waves = np.exp(2j * np.pi * (points @ self.modes.T))      # (P, N)
        return coeffs @ waves.T                                   # (*shape, P)


def torus_grid(*fields: ModeField) -> np.ndarray:
    """Grid points that separate every product of the given fields.

    Only coordinates some mode moves along are sampled.  A product of degree D
    along a coordinate vanishes on 2D + 1 equally spaced points only if it is
    zero, so a residual that is zero on this grid is zero as a polynomial.
    """
    dim = fields[0].modes.shape[1]
    degree = np.zeros(dim, dtype=int)
    for f in fields:
        if f.modes.size:
            degree += np.max(np.abs(f.modes), axis=0)
    axes = [np.arange(2 * d + 1) / (2 * d + 1) for d in degree]
    return np.array(list(itertools.product(*axes)), dtype=float).reshape(-1, dim)


def check_torus(gamma: ModeField, g: ModeField, tol: float = TOL) -> None:
    """Flat-frame Levi-Civita equations on a torus bundle, point by point.

    Torsion-free: Gamma^i_jk = Gamma^i_kj.  Compatible:
    sum_k g_kj Gamma^i_kl + g_ki Gamma^j_kl = partial_l g_ij.  Products are
    pointwise because the metric only carries modes on untwisted coordinates,
    where the twisted product's phase is 1.
    """
    pts = torus_grid(gamma, g)
    n = g.coeffs.shape[0]
    gam = gamma.sample(pts)                                       # (n, n, n, P)
    gv = g.sample(pts)                                            # (n, n, P)
    dg = np.stack([g.sample(pts, along=l) for l in range(n)], axis=2)  # (n, n, l, P)
    torsion = np.max(np.abs(gam - gam.transpose(0, 2, 1, 3)), initial=0.0)
    compat = (np.einsum("kjp,iklp->ijlp", gv, gam)
              + np.einsum("kip,jklp->ijlp", gv, gam) - dg)
    worst_compat = np.max(np.abs(compat), initial=0.0)
    scale = max(1.0, np.max(np.abs(dg), initial=0.0), np.max(np.abs(gam), initial=0.0))
    if not torsion <= tol * scale:
        raise CheckFailed(f"torus: torsion residual {torsion:.3e}")
    if not worst_compat <= tol * scale:
        raise CheckFailed(f"torus: compatibility residual {worst_compat:.3e}")


def levi_civita_symbol() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for i, j, k in itertools.permutations(range(3)):
        eps[i, j, k] = np.linalg.det(np.eye(3)[[i, j, k]])
    return eps


def check_fuzzy_sphere(gamma: np.ndarray, tol: float = TOL) -> None:
    """Gamma^i_jk = (i/2) eps^{ijk} times the identity; ``gamma`` is (3, 3, 3, N, N)."""
    size = gamma.shape[-1]
    want = 0.5j * levi_civita_symbol()[..., None, None] * np.eye(size)
    worst = float(np.max(np.abs(gamma - want)))
    if not worst <= tol:
        raise CheckFailed(f"fuzzy sphere: Christoffel error {worst:.3e}")


def check_scalar_frame(gamma: np.ndarray, g: np.ndarray, wedge: np.ndarray,
                       exterior: np.ndarray, tol: float = TOL) -> None:
    """Torsion and compatibility for scalar coefficients and derivations acting by zero.

    Torsion: sum_jk c^a_jk Gamma^i_jk + D^a_i = 0.  Compatibility with a
    constant metric: sum_k g_kj Gamma^i_kl + g_ki Gamma^j_kl = 0.
    """
    torsion = np.einsum("ajk,ijk->ia", wedge, gamma) + exterior.T
    compat = np.einsum("kj,ikl->ijl", g, gamma) + np.einsum("ki,jkl->ijl", g, gamma)
    worst = float(max(np.max(np.abs(torsion)), np.max(np.abs(compat))))
    if not worst <= tol:
        raise CheckFailed(f"structure constants: Levi-Civita residual {worst:.3e}")


def check_suites(rows: Iterable[Tuple[str, float, float]]) -> None:
    """Every invariant check reports a finite residual within its own tolerance."""
    rows = list(rows)
    if not rows:
        raise CheckFailed("invariant report lists no checks")
    for name, residual, tol in rows:
        if not np.isfinite(residual) or residual > tol:
            raise CheckFailed(f"invariant {name!r}: residual {residual!r} above {tol!r}")


def perturb(gamma):
    """A copy of a Christoffel array with Gamma^0_12 moved by 1e-6 (self-test input)."""
    if isinstance(gamma, ModeField):
        coeffs = gamma.coeffs.copy()
        coeffs[0, 1, 2, 0] += 1e-6
        return ModeField(gamma.modes, coeffs)
    out = np.array(gamma, dtype=complex)
    out[0, 1, 2] += 1e-6
    return out
