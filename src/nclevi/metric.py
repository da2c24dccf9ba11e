"""Pseudo-Riemannian bilinear metrics with central components.

A metric is its n x n component array g_ij = g(e_i (x) e_j): central, symmetric,
and invertible as a component matrix.  On the matrix backend central elements
are scalar multiples of the unit, so the component matrix is numeric.  On the
graded backend components are Fourier polynomials over the untwisted
coordinates.  `TorusGrid` moves central data between modes and values on a
torus grid (one point, read through the trace, for constant data); inverses
are computed on it pointwise and read back by FFT on a grid the metric sizes,
within a fixed budget of points, and the Levi-Civita solver runs on a grid
sized by the metric.  The truncation radius enters none of this: a component
may reach beyond it, and only the mode constructors bound outside input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    GRADED,
    MATRIX,
    AlgebraElement,
    BackendDescriptor,
    _canonical,
    _frozen,
    combine,
    contract,
    finite,
    first_noncentral,
    trace,
)
from .calculus import CalculusSpec, Module, OneForm, TensorSquare
from .errors import (
    BackendMismatch,
    NonCentralResult,
    NonCommutativeBackend,
    SingularMetric,
)

# Relative singular-value floor for component-matrix invertibility.
SV_RATIO_FLOOR = 1e-8

# The inverse's relative read-back floor, and the most grid points its grid may
# take: an inverse that does not decay within them is refused.
_INVERSE_TAIL = 1e-12
_INVERSE_GRID_BUDGET = 1 << 17


class Functional(Module):
    """Element of E^*: phi(sum e_i a_i) = sum phi_i a_i."""

    __slots__ = ()

    def __init__(self, coeffs: Sequence[AlgebraElement]):
        self.coeffs = tuple(coeffs)

    @property
    def rank(self) -> int:
        return len(self.coeffs)


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

    def read_back(self, values: np.ndarray, backend: BackendDescriptor,
                  floor: float) -> Tuple[List[AlgebraElement], float]:
        """Central elements on `backend` with these grid values, the inverse of `sample`.

        One element per row of `values`, holding the Fourier modes (zero off
        `coords`) whose coefficients are above `floor` >= 0.  Also returns the
        largest modulus dropped under the floor (0.0 if none).  On the graded
        backend the grid's modes are sorted once, and each row's element is
        its kept entries in that order: the arrays `central_element` would
        build row by row.
        """
        d = len(self.coords)
        grid_shape = (self.size,) * d
        coeffs = np.fft.fftn(values.reshape((len(values),) + grid_shape),
                             axes=range(1, d + 1)).reshape(len(values), -1) / self.points
        idx = np.indices(grid_shape).reshape(d, self.points)
        modes = np.zeros((self.points, backend.dim), dtype=np.int64)
        modes[:, list(self.coords)] = np.where(idx > self.size // 2, idx - self.size, idx).T
        mags = np.abs(coeffs)
        keep = mags > floor
        dropped = float(np.max(mags, where=~keep, initial=0.0))
        if backend.kind == MATRIX:
            return [central_element(backend, modes[k], row[k])
                    for k, row in zip(keep, coeffs)], dropped
        order = np.lexsort(modes.T[::-1])
        modes, coeffs, keep = modes[order], coeffs[:, order], keep[:, order]
        rad = np.where(keep, np.abs(modes).max(axis=1), 0).max(axis=1, initial=0).tolist()
        return [AlgebraElement._graded(backend, _frozen(modes[k]), _frozen(row[k]), r)
                for k, row, r in zip(keep, coeffs, rad)], dropped


def central_element(backend: BackendDescriptor, modes: np.ndarray,
                    coeffs: np.ndarray) -> AlgebraElement:
    """The central element with these modes; on the matrix backend the one mode () is the scalar."""
    if backend.kind == MATRIX:
        return AlgebraElement.unit(backend) * (coeffs[0] if len(coeffs) else 0.0)
    return AlgebraElement._graded(backend, *_canonical(modes, coeffs))


def _central_inverse(components, backend: BackendDescriptor):
    """Invert an n x n array of central elements pointwise on the torus grid.

    The metric sizes the grid, not the truncation radius: it starts at
    16 reach(g) + 1 points per coordinate the metric varies along, a reach
    being the largest support radius of the components, and grows as
    size -> 2 size + 1 until the inverse read back above the tail floor
    (_INVERSE_TAIL times its largest value on the grid; none on the one-point
    grid of constant data, which has no tail) has 4 reach(g^-1) < size.
    SingularMetric if the component matrix is singular at a grid point, or if
    the next grid would exceed _INVERSE_GRID_BUDGET points.  The inverse
    components are on `backend` and may reach beyond its radius.
    """
    n = len(components)
    flat = [el for row in components for el in row]
    coords = central_coords(flat)
    size = 16 * max(el.support_radius() for el in flat) + 1
    while True:
        if size ** len(coords) > _INVERSE_GRID_BUDGET:
            raise SingularMetric(f"inverse components do not decay within the grid budget "
                                 f"of {_INVERSE_GRID_BUDGET} points")
        grid = TorusGrid(coords, size)
        pts = grid.sample(flat).T.reshape(-1, n, n)
        svals = np.linalg.svd(pts, compute_uv=False)
        smin, smax = float(np.min(svals)), float(np.max(svals))
        ratio = smin / smax if smax > 0 else 0.0
        if ratio <= SV_RATIO_FLOOR:
            raise SingularMetric(
                f"component matrix singular (relative singular value {ratio:.3e})")
        inv_pts = np.linalg.inv(pts)
        scale = float(np.max(np.abs(inv_pts)))
        floor = _INVERSE_TAIL * scale if coords else 0.0
        inv, _ = grid.read_back(inv_pts.reshape(-1, n * n).T, backend, floor)
        if 4 * max(el.support_radius() for el in inv) < size:
            return [inv[i * n:(i + 1) * n] for i in range(n)]
        size = 2 * size + 1


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

    A component may reach past the truncation radius, as any computed element
    may.  A component with a NaN or infinite entry is refused with ValueError,
    since the symmetry and centrality checks compare norms, and a NaN passes
    them.  Modes that multiply with a sign are refused with
    NonCommutativeBackend before the inverse is formed, since the pointwise
    inverse would be wrong.
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
                if comp.backend != be:
                    raise BackendMismatch("metric component on the wrong backend")
                if not finite(comp):
                    raise ValueError(f"component ({i},{j}) is not finite")
        flips = combine(be, [[(1.0, rows[i][j]), (-1.0, rows[j][i])]
                             for i in range(n) for j in range(n)])
        # row-major: the first failing component names the error, centrality
        # first where one component fails both checks
        skew = next((s for s, f in enumerate(flips) if not f.norm() <= 10 * DEFAULT_TOL), None)
        loose = first_noncentral([c for r in rows for c in r], calculus.generators)
        if loose is not None and (skew is None or loose <= skew):
            raise NonCentralResult(f"component ({loose // n},{loose % n}) is not central")
        if skew is not None:
            raise ValueError(f"components not symmetric at ({skew // n},{skew % n})")
        self.components = tuple(tuple(r) for r in rows)
        _require_unit_phases(rows, be)
        self.inverse_components = tuple(tuple(r) for r in _central_inverse(rows, be))

    @property
    def rank(self) -> int:
        return self.calculus.rank

    @property
    def backend(self) -> BackendDescriptor:
        return self.calculus.backend

    @classmethod
    def from_scalar_matrix(cls, calculus: CalculusSpec, gmat) -> "MetricSpec":
        g = np.asarray(gmat, dtype=complex)
        unit = AlgebraElement.unit(calculus.backend)
        n = calculus.rank
        return cls(calculus, [[unit * g[i, j] for j in range(n)] for i in range(n)])


# -- operations ---------------------------------------------------------------


def metric_eval_many(g: MetricSpec, ts: Sequence[TensorSquare]) -> List[AlgebraElement]:
    """g applied to every tensor square, sum_ij g_ij a_ij, in one kernel call."""
    n = g.rank
    return contract(g.backend, [[(1.0, g.components[i][j], t.coeffs[i][j])
                                 for i in range(n) for j in range(n)] for t in ts])


def v_g_many(g: MetricSpec, omegas: Sequence[OneForm]) -> List[Functional]:
    """The musical map V_g(omega)(eta) = g(omega (x) eta) of every one-form, in
    one kernel call; component j is sum_i g_ij omega_i."""
    n = g.rank
    flat = contract(g.backend, [[(1.0, g.components[i][j], omega.coeffs[i]) for i in range(n)]
                                for omega in omegas for j in range(n)])
    return [Functional(flat[s * n:(s + 1) * n]) for s in range(len(omegas))]


def v_g_inverse_many(g: MetricSpec, phis: Sequence[Functional]) -> List[OneForm]:
    """The inverse musical map of every functional, through the cached inverse
    components, in one kernel call."""
    n = g.rank
    flat = contract(g.backend, [[(1.0, g.inverse_components[i][j], phi.coeffs[j])
                                 for j in range(n)] for phi in phis for i in range(n)])
    return [OneForm(flat[s * n:(s + 1) * n]) for s in range(len(phis))]


def g2_eval_many(table: "Vg2Matrix",
                 pairs: Sequence[Tuple[TensorSquare, TensorSquare]]) -> List[AlgebraElement]:
    """The pairing g2(s, t) on the tensor square, ((e_k,e_l),(e_i,e_j)) -> g_li g_kj
    on basis tensors, for every pair (s, t), read from the caller's V_g2 table of
    g: the sum of V_g2[(k, l), (i, j)] s_kl t_ij, in two kernel calls.

    Exactly zero entries of V_g2 are skipped, so a diagonal metric gives n^2
    terms per pair.
    """
    g = table.metric
    n = g.rank
    m2 = table.entries
    live = [(k, l, i, j) for k, l, i, j in itertools.product(range(n), repeat=4)
            if m2[k * n + l][i * n + j].norm() != 0.0]
    ms = iter(contract(g.backend, [[(1.0, m2[k * n + l][i * n + j], s.coeffs[k][l])]
                                   for s, _ in pairs for k, l, i, j in live]))
    return contract(g.backend, [[(1.0, next(ms), t.coeffs[i][j]) for _, _, i, j in live]
                                for _, t in pairs])


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


def canonical_metric(calculus: CalculusSpec, spinor_ops) -> MetricSpec:
    """The metric of the spectral triple's trace: tau(g_ij c) = tau(e_i e_j c) for every c.

    e_i acts as 1 (x) s_i on H_A (x) W, for spinor_ops the w x w operators
    s_i; so e_i e_j = 1 (x) s_i s_j, and the trace over H_A (x) W factorizes
    as tau(c) tr(s_i s_j) / w, which makes g_ij = (tr(s_i s_j) / w) 1 on
    either backend.  tests/test_metric.py checks this against the partial
    trace of the Kronecker realization on the matrix models.
    """
    n = calculus.rank
    if len(spinor_ops) != n:
        raise ValueError("need one spinor operator per basis one-form")
    w = spinor_ops[0].shape[0]
    unit = AlgebraElement.unit(calculus.backend)
    return MetricSpec(calculus, [[unit * (complex(np.trace(spinor_ops[i] @ spinor_ops[j])) / w)
                                  for j in range(n)] for i in range(n)])
