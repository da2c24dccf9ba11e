"""Connections on the one-form module and the Levi-Civita solver.

A connection is its Christoffel array Gamma^i_{jk} with nabla(e_i) =
sum_jk e_j (x) e_k Gamma^i_{jk}; the Leibniz term rides along in
apply_connection.  Torsion and metric compatibility are both algebraic in
Gamma, so the Levi-Civita connection is the solution of one structured linear
system.  Two independent routes are provided: the direct least-squares solve
of {torsion = 0} u {compatibility = dg}, and the reference-connection route
nabla_0 + Phi_g^{-1}(dg - Pi_g(nabla_0)) with Phi_g inverted through its
zeta / V_g / P_sym factorization.

Metric components are central, so the direct system splits into one
(n m + n^3) x n^3 system per point of the torus grid over the coordinates the
metric varies along (one point on the matrix backend and for constant
metrics).  One batched SVD gives the kernel certificate, the smallest
per-point singular-value ratio, and the solution, which is read back to the
Fourier modes of sup-norm <= R.  Metrics whose modes multiply with a sign
(<s, theta s'> odd) never reach the solver: MetricSpec refuses them with
NonCommutativeBackend.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    MATRIX,
    AlgebraElement,
    combine,
    contract,
    derive,
    lift,
    trace,
)
from .calculus import CalculusSpec, OneForm, TensorSquare, TwoForm, cube_projectors
from .errors import (
    Inconsistent,
    NonCommutativeBackend,
    NonUnique,
    NoSolution,
    RangeNotSymmetric,
)
from .metric import MetricSpec, TorusGrid, central_coords, central_element

DEFAULT_RESIDUAL_TOL = 1e-10
DEFAULT_KERNEL_FLOOR = 1e-8


class ConnectionCoeffs:
    """Christoffel array of a right connection on the one-form module."""

    __slots__ = ("calculus", "gamma")

    def __init__(self, calculus: CalculusSpec, gamma):
        n = calculus.rank
        rows = tuple(tuple(tuple(p) for p in r) for r in gamma)
        if len(rows) != n or any(len(r) != n or any(len(p) != n for p in r) for r in rows):
            raise ValueError("Christoffel array must be n x n x n")
        self.calculus = calculus
        self.gamma = rows

    @classmethod
    def zero(cls, calculus: CalculusSpec) -> "ConnectionCoeffs":
        z = AlgebraElement.zero(calculus.backend)
        n = calculus.rank
        return cls(calculus, [[[z] * n for _ in range(n)] for _ in range(n)])

    @classmethod
    def from_scalars(cls, calculus: CalculusSpec, arr) -> "ConnectionCoeffs":
        a = np.asarray(arr, dtype=complex)
        unit = AlgebraElement.unit(calculus.backend)
        n = calculus.rank
        return cls(calculus, [[[unit * a[i, j, k] for k in range(n)]
                               for j in range(n)] for i in range(n)])

    def scalars(self) -> np.ndarray:
        """Scalar parts of the coefficients (exact for constant connections)."""
        n = self.calculus.rank
        return np.array([[[trace(self.gamma[i][j][k]) for k in range(n)]
                          for j in range(n)] for i in range(n)])

    def difference_norm(self, other: "ConnectionCoeffs") -> float:
        n = self.calculus.rank
        diffs = combine(self.calculus.backend,
                        [[(1.0, self.gamma[i][j][k]), (-1.0, other.gamma[i][j][k])]
                         for i, j, k in itertools.product(range(n), repeat=3)])
        return max(d.norm() for d in diffs)


def apply_connection(nabla: ConnectionCoeffs, omega: OneForm) -> TensorSquare:
    """nabla(sum e_i a_i): coefficient T_jk = sum_i Gamma^i_jk a_i + partial_k(a_j)."""
    spec = nabla.calculus
    n = spec.rank
    unit = AlgebraElement.unit(spec.backend)
    flat = contract(spec.backend,
                    [[(1.0, nabla.gamma[i][j][k], omega.coeffs[i]) for i in range(n)]
                     + [(1.0, derive(spec.derivations[k], omega.coeffs[j]), unit)]
                     for j in range(n) for k in range(n)])
    return TensorSquare([flat[j * n:(j + 1) * n] for j in range(n)])


def torsion(nabla: ConnectionCoeffs) -> List[TwoForm]:
    """T(e_i) = wedge(nabla(e_i)) + d(e_i), one two-form per basis element."""
    spec = nabla.calculus
    n, m = spec.rank, spec.two_form_rank
    unit = AlgebraElement.unit(spec.backend)
    flat = combine(spec.backend,
                   [[(spec.exterior_constants[alpha, i], unit)]
                    + [(spec.wedge_constants[alpha, j, k], nabla.gamma[i][j][k])
                       for j in range(n) for k in range(n)
                       if spec.wedge_constants[alpha, j, k] != 0.0]
                    for i in range(n) for alpha in range(m)])
    return [TwoForm(flat[i * m:(i + 1) * m]) for i in range(n)]


def torsion_residual(nabla: ConnectionCoeffs) -> float:
    return max((t.norm() for t in torsion(nabla)), default=0.0)


def nabla0(calculus: CalculusSpec) -> ConnectionCoeffs:
    """The reference torsion-less connection: minimal-norm scalar solution of the wedge system.

    The scalar system c . gamma^i = -D_i is solvable because the wedge constants
    realize the two-form basis; the pseudo-inverse picks the antisymmetric
    representative.
    """
    n, m = calculus.rank, calculus.two_form_rank
    gamma = np.zeros((n, n, n), dtype=complex)
    if m:
        flat = calculus.wedge_constants.reshape(m, n * n)
        for i in range(n):
            rhs = -calculus.exterior_constants[:, i]
            sol = calculus._wedge_pinv @ rhs
            res = float(np.max(np.abs(flat @ sol - rhs)))
            if res > 1e-10 * max(1.0, float(np.max(np.abs(rhs)))):
                raise NoSolution(f"scalar torsion system inconsistent (residual {res:.3e})")
            gamma[i] = sol.reshape(n, n)
    nab = ConnectionCoeffs.from_scalars(calculus, gamma)
    res = torsion_residual(nab)
    if res > 1e-10:
        raise NoSolution(f"reference connection fails the torsion check ({res:.3e})")
    return nab


def _pi_g(g: MetricSpec, x, minus=None) -> list:
    """Pi_g on a component cube: entry [i][j][l] = sum_k g_kj x^i_kl + g_ki x^j_kl,
    less minus[i][j][l] when given; one kernel call for every entry.

    pi_g_basis, compat_residual and phi_g_apply all evaluate Pi_g here.
    """
    n = g.rank
    gc = g.components
    unit = AlgebraElement.unit(g.backend)
    slots = []
    for i in range(n):
        for j in range(n):
            for l in range(n):
                terms = []
                for k in range(n):
                    terms.append((1.0, gc[k][j], x[i][k][l]))
                    terms.append((1.0, gc[k][i], x[j][k][l]))
                if minus is not None:
                    terms.append((-1.0, minus[i][j][l], unit))
                slots.append(terms)
    return _cube(contract(g.backend, slots), n)


def _cube(flat: list, n: int) -> list:
    """Nested [a][b][c] lists of a flat row-major list of n^3 entries."""
    return [[flat[(a * n + b) * n:(a * n + b + 1) * n] for b in range(n)] for a in range(n)]


def pi_g_basis(g: MetricSpec, nabla: ConnectionCoeffs) -> List[List[OneForm]]:
    """Pi_g(nabla) on basis tensors: Pi(e_i (x) e_j) = sum_l e_l (sum_k g_kj G^i_kl + g_ki G^j_kl)."""
    return [[OneForm(row) for row in plane] for plane in _pi_g(g, nabla.gamma)]


@dataclass
class CompatibilityResidual:
    """Entries sum_k (g_kj G^i_kl + g_ki G^j_kl) - partial_l(g_ij), indexed (i, j, l)."""

    entries: tuple
    max_norm: float

    def entry(self, i: int, j: int, l: int) -> AlgebraElement:
        return self.entries[i][j][l]


def _metric_derivatives(calculus: CalculusSpec, g: MetricSpec) -> list:
    """The cube dg[i][j][l] = partial_l(g_ij)."""
    ders = calculus.derivations
    n = g.rank
    return [[[derive(ders[l], g.components[i][j]) for l in range(n)] for j in range(n)]
            for i in range(n)]


def compat_residual(g: MetricSpec, nabla: ConnectionCoeffs) -> CompatibilityResidual:
    """Residual of Pi_g(nabla) = dg on the basis; zero iff the connection is compatible."""
    return _compat_residual(g, nabla, _metric_derivatives(nabla.calculus, g))


def _compat_residual(g: MetricSpec, nabla: ConnectionCoeffs, dg: list) -> CompatibilityResidual:
    entries = tuple(tuple(tuple(row) for row in plane)
                    for plane in _pi_g(g, nabla.gamma, minus=dg))
    worst = max(e.norm() for plane in entries for row in plane for e in row)
    return CompatibilityResidual(entries, worst)


# -- Phi_g and its factorized inverse ----------------------------------------


def _normalize_components(comp):
    """Lift an n x n x n component array onto one common truncation window."""
    entries = [c for p_ in comp for r in p_ for c in r]
    be = max((c.backend for c in entries), key=lambda b: b.radius)
    return [[[lift(c, be) for c in r] for r in p_] for p_ in comp]


def _range_check_symmetric(calculus: CalculusSpec, comp, what: str) -> None:
    n = calculus.rank
    scale = max((comp[i][j][k].norm() for i in range(n) for j in range(n) for k in range(n)),
                default=0.0)
    tol = 1e3 * DEFAULT_TOL * max(1.0, scale)
    if what == "range":
        # range inside Ker(wedge): wedge of each value must vanish
        m = calculus.two_form_rank
        c = calculus.wedge_constants
        wedges = combine(calculus.backend,
                         [[(c[a, j, k], comp[i][j][k]) for j in range(n) for k in range(n)
                           if c[a, j, k] != 0.0] for i in range(n) for a in range(m)])
        for idx, w in enumerate(wedges):
            if w.norm() > tol:
                raise RangeNotSymmetric(f"value at basis index {idx // m} is not in Ker(wedge)")
    else:
        # domain E (x)sym E: components must be symmetric in the tensor pair
        flips = combine(calculus.backend,
                        [[(1.0, comp[i][j][k]), (-1.0, comp[j][i][k])]
                         for i in range(n) for j in range(n) for k in range(n)])
        if any(f.norm() > tol for f in flips):
            raise RangeNotSymmetric("map is not determined on the symmetric part")


def phi_g_apply(g: MetricSpec, lmap) -> tuple:
    """Phi_g(L) = (g (x) id) sigma_23 (L (x) id)(1 + sigma) on components.

    lmap[i][j][k] are the components of L(e_i) = sum e_j (x) e_k L^i_jk, each
    value in Ker(wedge); the output indexes M(e_p (x) e_q) = sum_l e_l M[p][q][l].
    """
    lmap = _normalize_components(lmap)
    _range_check_symmetric(g.calculus, lmap, "range")
    return tuple(tuple(tuple(r) for r in p_) for p_ in _pi_g(g, lmap))


@lru_cache(maxsize=None)
def _p23_restricted_inverse(n: int) -> np.ndarray:
    """Scalar matrix sending Ran(P_23) back to Ran(P_12) along P_23 (braid bijection)."""
    cube = cube_projectors(n)
    return cube.b12 @ np.linalg.pinv(cube.p23 @ cube.b12)


def phi_g_invert(g: MetricSpec, mmap) -> tuple:
    """Invert Phi_g through zeta o (id (x) V_{g^(2)}) o (P_sym)_23 o (id (x) V_g^{-1}) o zeta^{-1}.

    Every factor of the identity (1/2) Phi_g(L) = zeta (id (x) V_{g^(2)})
    (P_sym)_23 (id (x) V_g^-1) zeta^-1 (L) is inverted in turn; the restricted
    (P_sym)_23 step uses the braid bijection between the projector ranges.
    """
    calculus = g.calculus
    n = calculus.rank
    mmap = _normalize_components(mmap)
    _range_check_symmetric(calculus, mmap, "domain")
    h = g.inverse_components
    gc = g.components
    be = calculus.backend
    cube = list(itertools.product(range(n), repeat=3))

    # undo (id (x) V_{g^(2)}): tau3[j,k,r] = sum_p (sum_q h_kq (M/2)[p][q][j]) h_pr
    hm = _cube(contract(be, [[(0.5, h[k][q], mmap[p][q][j]) for q in range(n)]
                             for k, p, j in cube]), n)
    flat3 = contract(be, [[(1.0, hm[k][p][j], h[p][r]) for p in range(n)]
                          for j, k, r in cube])

    # undo (P_sym)_23 on the index cube: tau2 = R tau3 with R the restricted inverse
    rmat = _p23_restricted_inverse(n)
    tau2 = _cube(combine(be, [[(rmat[a, b], flat3[b]) for b in range(n ** 3)
                               if abs(rmat[a, b]) > 1e-14] for a in range(n ** 3)]), n)

    # undo (id (x) V_g^{-1}): tau1[j,k,i] = sum_r tau2[j,k,r] g_ri
    out = _cube(contract(be, [[(1.0, tau2[j][k][r], gc[r][i]) for r in range(n)]
                              for i, j, k in cube]), n)
    return tuple(tuple(tuple(r) for r in p_) for p_ in out)


# -- pointwise solve ---------------------------------------------------------


def _solve_pointwise(calculus: CalculusSpec, g: MetricSpec,
                     dg: list) -> Tuple[TorusGrid, np.ndarray, float, float]:
    """Torsion = 0 and Pi_g(nabla) = dg at each point of the (4R+1)^d grid.

    Central coefficients make the joint system one (n m + n^3) x n^3 system per
    grid point; one batched SVD gives the kernel certificate and the
    least-squares solution.  Returns the grid, the Christoffel values at its
    points (points x n^3), the smallest per-point singular-value ratio and the
    largest per-point residual.
    """
    n, m = calculus.rank, calculus.two_form_rank
    comps = [c for row in g.components for c in row]
    grid = TorusGrid(central_coords(comps), 4 * calculus.backend.radius + 1)
    gpts = grid.sample(comps).T.reshape(-1, n, n)
    eye = np.eye(n)
    # rows (i, alpha): sum_jk c^alpha_jk Gamma^i_jk = -D^alpha_i at every point
    tors = np.einsum("ai,xjk->ixajk", eye, calculus.wedge_constants).reshape(n * m, n ** 3)
    # rows (i, j, l): sum_k g_kj Gamma^i_kl + g_ki Gamma^j_kl = partial_l g_ij
    compat = (np.einsum("ai,bl,pkj->pijlakb", eye, eye, gpts)
              + np.einsum("aj,bl,pki->pijlakb", eye, eye, gpts)).reshape(-1, n ** 3, n ** 3)
    ops = np.concatenate([np.broadcast_to(tors, (grid.points,) + tors.shape), compat], axis=1)
    rhs = np.concatenate([np.broadcast_to(-calculus.exterior_constants.T.ravel(),
                                          (grid.points, n * m)),
                          grid.sample([d for plane in dg for row in plane for d in row]).T],
                         axis=1)
    u, svals, vh = np.linalg.svd(ops, full_matrices=False)
    ratio = float(np.min(svals[:, -1] / np.maximum(svals[:, 0], np.finfo(float).tiny)))
    if ratio <= DEFAULT_KERNEL_FLOOR:
        raise NonUnique(
            f"joint torsion/compatibility operator has a kernel "
            f"(relative singular value {ratio:.3e})")
    x = np.einsum("pkj,pk->pj", vh.conj(), np.einsum("prk,pr->pk", u.conj(), rhs) / svals)
    res = float(np.max(np.abs(np.einsum("prj,pj->pr", ops, x) - rhs)))
    return grid, x, ratio, res


@dataclass
class LeviCivitaResult:
    """A Levi-Civita connection with its certificates.

    sv_ratio is the smallest singular-value ratio of the per-point torsion +
    compatibility operator over the solve grid; lstsq_residual is the largest
    per-point residual of the direct solve (0 on the phi route).
    """

    connection: ConnectionCoeffs
    torsion_residual: float
    compat_residual: float
    sv_ratio: float
    route: str
    lstsq_residual: float
    route_difference: Optional[float] = None


def _gamma_from_solution(calculus: CalculusSpec, grid: TorusGrid,
                         x: np.ndarray) -> ConnectionCoeffs:
    """Christoffel coefficients from grid values, keeping the modes of sup-norm <= R."""
    n = calculus.rank
    be = calculus.backend
    flat = []
    for k, c in grid.read_back(x.T, be.dim, 1e-16):
        inside = np.abs(k).max(axis=1, initial=0) <= be.radius
        flat.append(central_element(be, k[inside], c[inside]))
    return ConnectionCoeffs(calculus, [[flat[(i * n + j) * n:(i * n + j + 1) * n]
                                        for j in range(n)] for i in range(n)])


def levi_civita(calculus: CalculusSpec, g: MetricSpec, route: str = "direct",
                residual_tol: float = DEFAULT_RESIDUAL_TOL) -> LeviCivitaResult:
    """The unique torsion-less, metric-compatible connection, with certificates.

    route "direct": per-point least-squares solve on the torus grid, read back
    to modes of sup-norm <= R, the backend radius; route "phi": nabla_0 +
    Phi_g^{-1}(dg - Pi_g(nabla_0)); route "both": run both, report the direct
    result with their componentwise disagreement attached.  Every route runs
    the pointwise kernel certificate first.
    """
    if route not in ("direct", "phi", "both"):
        raise ValueError(f"unknown route {route!r}")
    n = calculus.rank
    dg = _metric_derivatives(calculus, g)
    grid, x, sv_ratio, lstsq_res = _solve_pointwise(calculus, g, dg)

    def solve_phi() -> ConnectionCoeffs:
        nab0 = nabla0(calculus)
        # Phi_g^{-1} is linear: Phi_g^{-1}(dg - Pi_g(nabla_0)) = -Phi_g^{-1}(Pi_g(nabla_0) - dg)
        lmap = phi_g_invert(g, _pi_g(g, nab0.gamma, minus=dg))
        gamma = combine(calculus.backend, [[(1.0, nab0.gamma[i][j][k]), (-1.0, lmap[i][j][k])]
                                           for i, j, k in itertools.product(range(n), repeat=3)])
        return ConnectionCoeffs(calculus, _cube(gamma, n))

    diff: Optional[float] = None
    if route == "phi":
        nabla, lstsq_res = solve_phi(), 0.0
    else:
        nabla = _gamma_from_solution(calculus, grid, x)
        if route == "both":
            diff = nabla.difference_norm(solve_phi())

    tres = torsion_residual(nabla)
    cres = _compat_residual(g, nabla, dg).max_norm
    # the gate's scale is the largest right-hand side coefficient in mode space
    scale = max(1.0, float(np.max(np.abs(calculus.exterior_constants), initial=0.0)),
                max(d.norm() for plane in dg for row in plane for d in row))
    if max(tres, cres) > residual_tol * scale:
        raise Inconsistent(
            f"solver output breaches residual tolerance "
            f"(torsion {tres:.3e}, compatibility {cres:.3e})")
    return LeviCivitaResult(connection=nabla, torsion_residual=tres, compat_residual=cres,
                            sv_ratio=sv_ratio, route=route,
                            lstsq_residual=lstsq_res, route_difference=diff)


# -- classical cross-check ------------------------------------------------------


def structure_constants(calculus: CalculusSpec) -> np.ndarray:
    """Frame bracket constants recovered from the exterior constants.

    d(e_i) = -(1/2) sum_jk C^i_jk e_j ^ e_k, so the minimal-norm solution of
    c . C^i = -2 D_i is the antisymmetric bracket table.
    """
    n = calculus.rank
    pinv, d = calculus._wedge_pinv, calculus.exterior_constants
    return np.array([(pinv @ (-2.0 * d[:, i])).reshape(n, n) for i in range(n)])


def koszul_oracle(calculus: CalculusSpec, g: MetricSpec) -> ConnectionCoeffs:
    """Classical Christoffel symbols translated to this artifact's convention.

    The component matrix of the metric on one-forms is, classically, the
    inverse of the metric on vector fields; the Koszul formula (with frame
    bracket terms) therefore runs on the inverse components, and the frozen
    index translation is Gamma^i_jk = -KoszulGamma^i_kj.  The translation is
    pinned by the diag(1,1,phi) example and by the structure-constant model.
    """
    be = calculus.backend
    if be.kind == MATRIX:
        if be.size != 1:
            raise NonCommutativeBackend("matrix backend of size > 1 is noncommutative")
    elif float(np.max(np.abs(be.theta))) > 1e-14:
        raise NonCommutativeBackend("graded backend carries a nonzero twist")
    n = calculus.rank
    cvec = structure_constants(calculus)
    gdown = g.inverse_components     # classical metric on vector fields
    gup = g.components               # its inverse
    ders = calculus.derivations

    def pd(idx: int, el: AlgebraElement) -> AlgebraElement:
        return derive(ders[idx], el)

    cube = list(itertools.product(range(n), repeat=3))
    # inner[i][j][k] = d_i g_jk + d_j g_ik - d_k g_ij + bracket terms, on g down
    slots = []
    for i, j, k in cube:
        terms = [(1.0, pd(i, gdown[j][k])), (1.0, pd(j, gdown[i][k])),
                 (-1.0, pd(k, gdown[i][j]))]
        for l in range(n):
            for cf, pair in ((cvec[l, i, j], (l, k)),
                             (-cvec[l, i, k], (l, j)),
                             (-cvec[l, j, k], (l, i))):
                if cf != 0.0:
                    terms.append((cf, gdown[pair[0]][pair[1]]))
        slots.append(terms)
    inner = _cube(combine(be, slots), n)
    # Koszul^m_ij = (1/2) sum_k g^mk inner[i][j][k]; the frozen translation makes
    # our Gamma^i_{jk} (j = form index, k = direction) equal to -Koszul^i_{kj}
    out = contract(be, [[(-0.5, gup[i][l], inner[k][j][l]) for l in range(n)]
                        for i, j, k in cube])
    return ConnectionCoeffs(calculus, _cube(out, n))
