"""Pseudo-Riemannian bilinear metrics with central components.

A metric is its n x n component array g_ij = g(e_i (x) e_j): central, symmetric,
and invertible as a component matrix.  On the matrix backend central elements
are scalar multiples of the unit, so the component matrix is numeric.  On the
graded backend components are Fourier polynomials over the untwisted
coordinates.  `TorusGrid` moves central data between modes and values on a
torus grid (one point, read through the trace, for constant data); inverses
are computed on it pointwise and read back by FFT with an explicit decay
budget, and the Levi-Civita solver runs on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    GRADED,
    MATRIX,
    AlgebraElement,
    BackendDescriptor,
    combine,
    contract,
    first_noncentral,
    lift,
    trace,
)
from .calculus import CalculusSpec, OneForm, TensorSquare
from .errors import BackendMismatch, NonCentralResult, NonCommutativeBackend, SingularMetric

# Relative singular-value floor for component-matrix invertibility.
SV_RATIO_FLOOR = 1e-8

# How far beyond the backend radius an inverse component may reach before the
# metric is declared non-invertible within the truncation budget.
_INVERSE_EXTRA_RADIUS = 40
_INVERSE_TAIL = 1e-12


class Functional:
    """Element of E^*: phi(sum e_i a_i) = sum phi_i a_i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[AlgebraElement]):
        self.coeffs = tuple(coeffs)

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def __call__(self, omega: OneForm) -> AlgebraElement:
        return contract(self.coeffs[0].backend,
                        [[(1.0, f, a) for f, a in zip(self.coeffs, omega.coeffs)]])[0]

    def __sub__(self, other: "Functional") -> "Functional":
        return Functional(combine(self.coeffs[0].backend,
                                  [[(1.0, a), (-1.0, b)]
                                   for a, b in zip(self.coeffs, other.coeffs)]))

    def norm(self) -> float:
        return max(c.norm() for c in self.coeffs)


def _grid_sizes(ndim: int, radius: int) -> int:
    if ndim <= 2:
        return 2 * (radius + _INVERSE_EXTRA_RADIUS) + 1
    return 2 * (radius + 8) + 1


def central_coords(elements: Sequence[AlgebraElement]) -> Tuple[int, ...]:
    """The coordinates along which some of the graded elements vary; () on the matrix backend."""
    return tuple(sorted({int(c) for el in elements if el.backend.kind == GRADED
                         for c in np.flatnonzero(np.any(el.mode_array != 0, axis=0))}))


@dataclass(frozen=True)
class TorusGrid:
    """The size^d grid of points j/size over the coordinates `coords` of central data.

    Central elements multiply pointwise on it, so the metric inverse and the
    Levi-Civita solve both run point by point here and read modes back by FFT.
    With no coordinates the grid is one point at which central data is read
    through the trace: the matrix backend and every constant metric.
    """

    coords: Tuple[int, ...]
    size: int

    @property
    def points(self) -> int:
        return self.size ** len(self.coords)

    def sample(self, elements: Sequence[AlgebraElement]) -> np.ndarray:
        """Values of central elements at the grid points, shape (len(elements), points)."""
        if not self.coords:
            return np.array([[trace(el)] for el in elements], dtype=complex)
        axes = np.meshgrid(*[np.arange(self.size) / self.size] * len(self.coords),
                           indexing="ij")
        pos = np.stack([a.ravel() for a in axes])
        out = np.zeros((len(elements), self.points), dtype=complex)
        for row, el in zip(out, elements):
            if len(el.coeff_array):
                ks = el.mode_array[:, list(self.coords)].astype(float)
                row += el.coeff_array @ np.exp(2j * np.pi * (ks @ pos))
        return out

    def read_back(self, values: np.ndarray, dim: int,
                  floor: float) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Fourier modes of grid values, the inverse of `sample`.

        One (modes, coefficients) pair per row of `values`, holding the
        coefficients above `floor`; modes have `dim` entries, zero off `coords`.
        """
        d = len(self.coords)
        grid_shape = (self.size,) * d
        coeffs = np.fft.fftn(values.reshape((len(values),) + grid_shape),
                             axes=range(1, d + 1)).reshape(len(values), -1) / self.points
        idx = np.indices(grid_shape).reshape(d, self.points)
        modes = np.zeros((self.points, dim), dtype=np.int64)
        modes[:, list(self.coords)] = np.where(idx > self.size // 2, idx - self.size, idx).T
        out = []
        for row in coeffs:
            keep = np.abs(row) > floor
            out.append((modes[keep], row[keep]))
        return out


def central_element(backend: BackendDescriptor, modes: np.ndarray,
                    coeffs: np.ndarray) -> AlgebraElement:
    """The central element with these modes; on the matrix backend the one mode () is the scalar."""
    if backend.kind == MATRIX:
        return AlgebraElement.unit(backend) * (coeffs[0] if len(coeffs) else 0.0)
    return AlgebraElement.from_arrays(backend, modes, coeffs)


def _central_inverse(components, backend: BackendDescriptor):
    """Invert an n x n array of central elements pointwise on the torus grid.

    Returns (inverse components on a possibly lifted backend, sv_ratio).
    """
    n = len(components)
    flat = [el for row in components for el in row]
    coords = central_coords(flat)
    grid = TorusGrid(coords, _grid_sizes(len(coords), backend.radius))
    pts = grid.sample(flat).T.reshape(-1, n, n)
    svals = np.linalg.svd(pts, compute_uv=False)
    smin, smax = float(np.min(svals)), float(np.max(svals))
    ratio = smin / smax if smax > 0 else 0.0
    if ratio <= SV_RATIO_FLOOR:
        raise SingularMetric(
            f"component matrix singular (relative singular value {ratio:.3e})")
    inv_pts = np.linalg.inv(pts)
    scale = float(np.max(np.abs(inv_pts)))
    modes = grid.read_back(inv_pts.reshape(-1, n * n).T, backend.dim,
                           _INVERSE_TAIL * max(scale, 1.0))
    reach = max((int(np.abs(k).max(initial=0)) for k, _ in modes), default=0)
    if reach > min(backend.radius + _INVERSE_EXTRA_RADIUS, grid.size // 2 - 4):
        raise SingularMetric("inverse components decay too slowly for the truncation budget")
    inv_backend = backend if reach <= backend.radius else backend.with_radius(reach)
    inv = [central_element(inv_backend, k, c) for k, c in modes]
    return [inv[i * n:(i + 1) * n] for i in range(n)], ratio


def _require_unit_phases(components, backend: BackendDescriptor) -> None:
    """Refuse metric modes whose products carry a sign.

    Central modes s, s' multiply as U^s U^s' = e^{i pi <s, theta s'>} U^{s+s'}
    with <s, theta s'> an integer; the pointwise product on the grid is the
    algebra product only when every such integer is even.
    """
    if backend.kind == MATRIX:
        return
    modes = sorted({k for row in components for c in row for k in c.modes})
    ks = np.array(modes, dtype=float).reshape(-1, backend.dim)
    pairing = ks @ backend.theta @ ks.T
    odd = np.argwhere(np.abs(pairing - 2.0 * np.round(pairing / 2.0)) > 1e-9)
    if len(odd):
        a, b = odd[0]
        raise NonCommutativeBackend(
            f"metric modes {modes[a]} and {modes[b]} multiply with the phase "
            f"exp(i pi {pairing[a, b]:.6g}); the pointwise solve needs every phase to be 1")


class MetricSpec:
    """Central, symmetric, invertible component array of a bilinear metric.

    Modes that multiply with a sign are refused with NonCommutativeBackend
    before the inverse is formed, since the pointwise inverse would be wrong.
    """

    def __init__(self, calculus: CalculusSpec, components):
        self.calculus = calculus
        n = calculus.rank
        rows = [list(r) for r in components]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("component array must be n x n")
        be = calculus.backend
        for i in range(n):
            for j in range(n):
                comp = rows[i][j]
                if not comp.backend.same_algebra(be):
                    raise BackendMismatch("metric component on the wrong backend")
                rows[i][j] = lift(comp, be) if comp.backend != be else comp
        tol = be.tol
        flips = combine(be, [[(1.0, rows[i][j]), (-1.0, rows[j][i])]
                             for i in range(n) for j in range(n)])
        # row-major: the first failing component names the error, centrality
        # first where one component fails both checks
        skew = next((s for s, f in enumerate(flips) if f.norm() > 10 * tol), None)
        loose = first_noncentral([c for r in rows for c in r], calculus.generators)
        if loose is not None and (skew is None or loose <= skew):
            raise NonCentralResult(f"component ({loose // n},{loose % n}) is not central")
        if skew is not None:
            raise ValueError(f"components not symmetric at ({skew // n},{skew % n})")
        self.components = tuple(tuple(r) for r in rows)
        _require_unit_phases(rows, be)
        inv, ratio = _central_inverse(rows, be)
        self.inverse_components = tuple(tuple(r) for r in inv)
        self.sv_ratio = float(ratio)

    @property
    def rank(self) -> int:
        return self.calculus.rank

    @property
    def backend(self) -> BackendDescriptor:
        return self.calculus.backend

    def component_scalars(self) -> np.ndarray:
        """Scalar parts of the components (exact for constant metrics)."""
        n = self.rank
        return np.array([[trace(self.components[i][j]) for j in range(n)] for i in range(n)])

    @classmethod
    def delta(cls, calculus: CalculusSpec) -> "MetricSpec":
        n = calculus.rank
        unit = AlgebraElement.unit(calculus.backend)
        zero = AlgebraElement.zero(calculus.backend)
        return cls(calculus, [[unit if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_scalar_matrix(cls, calculus: CalculusSpec, gmat) -> "MetricSpec":
        g = np.asarray(gmat, dtype=complex)
        unit = AlgebraElement.unit(calculus.backend)
        n = calculus.rank
        return cls(calculus, [[unit * g[i, j] for j in range(n)] for i in range(n)])


# -- operations ---------------------------------------------------------------


def metric_eval(g: MetricSpec, t: TensorSquare) -> AlgebraElement:
    """g applied to a tensor square: sum_ij g_ij a_ij."""
    if not t.backend.same_algebra(g.backend):
        raise BackendMismatch("tensor square on the wrong backend")
    n = g.rank
    return contract(g.backend, [[(1.0, g.components[i][j], t.coeffs[i][j])
                                 for i in range(n) for j in range(n)]])[0]


def v_g(g: MetricSpec, omega: OneForm) -> Functional:
    """The musical map V_g(omega)(eta) = g(omega (x) eta); component j is sum_i g_ij omega_i."""
    n = g.rank
    return Functional(contract(g.backend, [[(1.0, g.components[i][j], omega.coeffs[i])
                                            for i in range(n)] for j in range(n)]))


def v_g_inverse(g: MetricSpec, phi: Functional) -> OneForm:
    """Inverse musical map via the cached inverse components."""
    n = g.rank
    return OneForm(contract(g.backend, [[(1.0, g.inverse_components[i][j], phi.coeffs[j])
                                         for j in range(n)] for i in range(n)]))


def g2_eval(g: MetricSpec, s: TensorSquare, t: TensorSquare) -> AlgebraElement:
    """Pairing on the tensor square: on basis tensors ((e_k,e_l),(e_i,e_j)) -> g_li g_kj.

    Three kernel calls: g_li g_kj, then times s_kl, then the sum of those times t_ij.
    """
    n = g.rank
    gc = g.components
    quads = [(k, l, i, j) for k in range(n) for l in range(n) if s.coeffs[k][l].norm() != 0.0
             for i in range(n) for j in range(n) if t.coeffs[i][j].norm() != 0.0]
    if not quads:
        return AlgebraElement.zero(g.backend)
    gg = contract(g.backend, [[(1.0, gc[l][i], gc[k][j])] for k, l, i, j in quads])
    ggs = contract(g.backend, [[(1.0, x, s.coeffs[k][l])] for x, (k, l, _, _) in zip(gg, quads)])
    return contract(g.backend, [[(1.0, x, t.coeffs[i][j])
                                 for x, (_, _, i, j) in zip(ggs, quads)]])[0]


@dataclass
class Vg2Matrix:
    """The component matrix of V_{g^(2)} on E (x) E, entries in the algebra."""

    metric: MetricSpec
    entries: tuple  # entries[k*n+l][i*n+j] = g_li g_kj

    @property
    def rank(self) -> int:
        return self.metric.rank

    def entry(self, kl: Tuple[int, int], ij: Tuple[int, int]) -> AlgebraElement:
        n = self.rank
        return self.entries[kl[0] * n + kl[1]][ij[0] * n + ij[1]]


def v_g2_matrix(g: MetricSpec) -> Vg2Matrix:
    """Assemble the component matrix M[(k,l),(i,j)] = g_li g_kj of V_{g^(2)}."""
    n = g.rank
    gc = g.components
    flat = contract(g.backend, [[(1.0, gc[l][i], gc[k][j])] for k in range(n) for l in range(n)
                                for i in range(n) for j in range(n)])
    return Vg2Matrix(metric=g, entries=tuple(tuple(flat[r * n * n:(r + 1) * n * n])
                                             for r in range(n * n)))


# -- canonical trace metric ---------------------------------------------------


@dataclass(frozen=True)
class CanonicalMetricData:
    """Operator realization of the frame: e_i acts as 1 (x) s_i on H_A (x) W."""

    spinor_ops: tuple

    @property
    def spinor_dim(self) -> int:
        return self.spinor_ops[0].shape[0]

    def frame_pair_trace(self, i: int, j: int) -> complex:
        w = self.spinor_dim
        return complex(np.trace(self.spinor_ops[i] @ self.spinor_ops[j])) / w


def canonical_metric(calculus: CalculusSpec, data: CanonicalMetricData,
                     rng: Optional[np.random.Generator] = None) -> MetricSpec:
    """Solve tau(g_ij c) = tau(e_i e_j c) over an algebra basis for the components.

    Matrix backend: the basis ranges over all matrix units and the solve runs on
    the honest Kronecker realization.  Graded backend: the basis ranges over
    single modes; the right-hand side factorizes through the spinor trace.
    """
    be = calculus.backend
    n = calculus.rank
    if len(data.spinor_ops) != n:
        raise ValueError("need one spinor operator per basis one-form")
    if be.kind == MATRIX:
        comps = _canonical_matrix(calculus, data, rng)
    else:
        comps = _canonical_graded(calculus, data)
    return MetricSpec(calculus, comps)


def _canonical_matrix(calculus: CalculusSpec, data: CanonicalMetricData, rng):
    be = calculus.backend
    n, N, w = calculus.rank, be.size, data.spinor_dim
    frame = [np.kron(np.eye(N), s) for s in data.spinor_ops]
    comps = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            prod = frame[i] @ frame[j]
            # partial trace over the spinor factor solves tau(g c) = tau(e_i e_j c)
            # against the matrix-unit basis: g[q,p] = (1/w) sum_s prod[(q,s),(p,s)]
            block = prod.reshape(N, w, N, w)
            gmat = np.einsum("asbs->ab", block) / w
            comps[i][j] = AlgebraElement.from_matrix(be, gmat)
    rng = rng or np.random.default_rng(7)
    for _ in range(3):
        c = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        cc = np.kron(c, np.eye(w))
        i, j = rng.integers(0, n, size=2)
        lhs = np.trace(comps[i][j].matrix @ c) / N
        rhs = np.trace(frame[i] @ frame[j] @ cc) / (N * w)
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
            raise SingularMetric("canonical trace solve failed verification")
    return comps


def _canonical_graded(calculus: CalculusSpec, data: CanonicalMetricData):
    # tau(g U^l) = tau(U^l) w_ij forces the zero mode w_ij and kills the rest
    unit = AlgebraElement.unit(calculus.backend)
    n = calculus.rank
    return [[unit * data.frame_pair_trace(i, j) for j in range(n)] for i in range(n)]
