"""Connections on the one-form module and the Levi-Civita solver.

A connection is its Christoffel array Gamma^i_{jk} with nabla(e_i) =
sum_jk e_j (x) e_k Gamma^i_{jk}.  Torsion and metric compatibility are both
algebraic in Gamma, so the Levi-Civita connection is the solution of one
structured linear system.  Two independent routes are provided: the direct
solve of {torsion = 0} u {compatibility = dg}, and the reference-connection
route nabla_0 + Phi_g^{-1}(dg - Pi_g(nabla_0)) with Phi_g inverted through its
zeta / V_g / P_sym factorization, the restricted (P_sym)_23 by its three-term
closed form.  Phi_g checks its range with the calculus' wedge and its inverse
checks its domain against the flip; dg and the Koszul oracle's derivatives of
g^{-1} each come from one CalculusSpec.d0_many call, and the oracle, which
needs only central metric components, runs on every model.

Metric components are central, so the direct system splits into one system
per point of the torus grid over the coordinates the metric varies along (one
point on the matrix backend and for constant metrics).  In lowered unknowns
compatibility is solved in closed form, and torsion is the one system left:
n m equations in n^2 (n-1)/2 unknowns per point, square when the wedge rank m
is n(n-1)/2 and short of equations (NonUnique) otherwise.  The direct route
reads the wedge and exterior constants themselves; CalculusSpec's c^+(-D)
serves nabla_0 and the Koszul brackets only.  The kernel certificate is the
smallest per-point singular-value ratio of the torsion operator; one batched
solve gives the solution, and the torsion and compatibility gates decide
every route's answer.
Gamma is built from g^{-1} and dg, so the grid is sized by the metric, not by
the truncation radius: 2 (reach(g^{-1}) + reach(g)) + 1 points per coordinate read
every mode of Gamma back by FFT, with no clip.  Metrics whose modes multiply
with a sign (<s, theta s'> odd) never reach the solver: MetricSpec refuses
them with NonCommutativeBackend.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    MATRIX,
    AlgebraElement,
    combine,
    contract,
    trace,
    worst,
)
from .calculus import (
    CalculusSpec,
    OneForm,
    TensorSquare,
    TwoForm,
    sigma,
    subtract_many,
    worst_difference,
)
from .errors import (
    Inconsistent,
    NonUnique,
    NoSolution,
    RangeNotSymmetric,
    SingularMetric,
)
from .metric import MetricSpec, TorusGrid, central_coords

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
        return worst_difference((self.gamma[i][j][k], other.gamma[i][j][k])
                                for i, j, k in itertools.product(range(n), repeat=3))


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
    return worst(t.norm() for t in torsion(nabla))


def nabla0(calculus: CalculusSpec) -> ConnectionCoeffs:
    """The reference torsion-less connection: the calculus' minimal-norm scalar
    solution c^+(-D_i) of the wedge system c . gamma^i = -D_i.

    The system is solvable because the wedge constants realize the two-form
    basis; the pseudo-inverse picks the antisymmetric representative.  The
    torsion gate checks the result.
    """
    nab = ConnectionCoeffs.from_scalars(calculus, calculus.torsion_particular)
    res = torsion_residual(nab)
    if not res <= 1e-10:
        raise NoSolution(f"reference connection fails the torsion check ({res:.3e})")
    return nab


def _pi_g_many(g: MetricSpec, xs, minus=None) -> list:
    """Pi_g of every component cube x in xs: entry [i][j][l] = sum_k g_kj x^i_kl +
    g_ki x^j_kl, less the one cube minus[i][j][l] when given, in one kernel call.

    pi_g_basis, compat_residual and phi_g_apply_many all evaluate Pi_g here.
    """
    n = g.rank
    gc = g.components
    unit = AlgebraElement.unit(g.backend)
    slots = []
    for x in xs:
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
    return _cubes(contract(g.backend, slots), n)


def _cube(flat: list, n: int) -> list:
    """Nested [a][b][c] lists of a flat row-major list of n^3 entries."""
    return [[flat[(a * n + b) * n:(a * n + b + 1) * n] for b in range(n)] for a in range(n)]


def _cubes(flat: list, n: int) -> list:
    """_cube of each consecutive run of n^3 entries."""
    size = n ** 3
    return [_cube(flat[s:s + size], n) for s in range(0, len(flat), size)]


def _frozen_cube(cube) -> tuple:
    return tuple(tuple(tuple(r) for r in plane) for plane in cube)


def pi_g_basis(g: MetricSpec, nabla: ConnectionCoeffs) -> List[List[OneForm]]:
    """Pi_g(nabla) on basis tensors: Pi(e_i (x) e_j) = sum_l e_l (sum_k g_kj G^i_kl + g_ki G^j_kl)."""
    return [[OneForm(row) for row in plane] for plane in _pi_g_many(g, [nabla.gamma])[0]]


@dataclass
class CompatibilityResidual:
    """Entries sum_k (g_kj G^i_kl + g_ki G^j_kl) - partial_l(g_ij), indexed (i, j, l)."""

    entries: tuple
    max_norm: float

    def entry(self, i: int, j: int, l: int) -> AlgebraElement:
        return self.entries[i][j][l]


def _derivatives(calculus: CalculusSpec, rows) -> list:
    """The cube [i][j][l] = partial_l(rows[i][j]) of an n x n array, from one d0_many call."""
    n = len(rows)
    forms = calculus.d0_many([el for row in rows for el in row])
    return [[forms[i * n + j].coeffs for j in range(n)] for i in range(n)]


def compat_residual(g: MetricSpec, nabla: ConnectionCoeffs) -> CompatibilityResidual:
    """Residual of Pi_g(nabla) = dg on the basis; zero iff the connection is compatible."""
    return _compat_residual(g, nabla, _derivatives(nabla.calculus, g.components))


def _compat_residual(g: MetricSpec, nabla: ConnectionCoeffs, dg: list) -> CompatibilityResidual:
    entries = _frozen_cube(_pi_g_many(g, [nabla.gamma], minus=dg)[0])
    return CompatibilityResidual(
        entries, worst(e.norm() for plane in entries for row in plane for e in row))


# -- Phi_g and its factorized inverse ----------------------------------------


def _tolerance(cube) -> float:
    """The range and domain checks' tolerance for one component cube of Phi_g's
    maps; NaN, which no residual is at most, if an entry is not finite: an
    infinite entry would make the tolerance infinite, and every finite
    residual is at most that."""
    top = worst([1.0] + [x.norm() for plane in cube for row in plane for x in row])
    return 1e3 * DEFAULT_TOL * top if top < math.inf else math.nan


def phi_g_apply_many(g: MetricSpec, lmaps) -> list:
    """Phi_g(L) = (g (x) id) sigma_23 (L (x) id)(1 + sigma) on components, for
    every map L, in two kernel calls.

    lmap[i][j][k] are the components of L(e_i) = sum e_j (x) e_k L^i_jk, each
    value in Ker(wedge); the output indexes M(e_p (x) e_q) = sum_l e_l M[p][q][l].
    """
    n = g.rank
    wedges = g.calculus.wedge_many([TensorSquare(lmap[i]) for lmap in lmaps for i in range(n)])
    tols = [_tolerance(lmap) for lmap in lmaps]
    for s, w in enumerate(wedges):
        if not w.norm() <= tols[s // n]:
            raise RangeNotSymmetric(f"value at basis index {s % n} is not in Ker(wedge)")
    return [_frozen_cube(out) for out in _pi_g_many(g, lmaps)]


def phi_g_invert(g: MetricSpec, mmap) -> tuple:
    """Invert Phi_g through zeta o (id (x) V_{g^(2)}) o (P_sym)_23 o (id (x) V_g^{-1}) o zeta^{-1}.

    Every factor of the identity (1/2) Phi_g(L) = zeta (id (x) V_{g^(2)})
    (P_sym)_23 (id (x) V_g^-1) zeta^-1 (L) is inverted in turn.  (P_sym)_23
    restricted to Ran((P_sym)_12) is a bijection onto Ran((P_sym)_23), because
    the flip satisfies the braid relation; its inverse sends T, symmetric in
    its last two indices, to T_jkr + T_kjr - T_rjk.
    """
    return phi_g_invert_many(g, [mmap])[0]


def phi_g_invert_many(g: MetricSpec, mmaps) -> list:
    """phi_g_invert of every map, in five kernel calls; each square M[.][.][k] must be
    sigma-invariant, since Phi_g's domain is E (x)sym E."""
    calculus = g.calculus
    n = calculus.rank
    squares = [TensorSquare([[mmap[i][j][k] for j in range(n)] for i in range(n)])
               for mmap in mmaps for k in range(n)]
    flips = subtract_many([(t, sigma(t)) for t in squares])
    tols = [_tolerance(mmap) for mmap in mmaps]
    if any(not f.norm() <= tols[s // n] for s, f in enumerate(flips)):
        raise RangeNotSymmetric("map is not determined on the symmetric part")
    h = g.inverse_components
    gc = g.components
    be = calculus.backend
    cube = list(itertools.product(range(n), repeat=3))

    # undo (id (x) V_{g^(2)}): tau3[j,k,r] = sum_p (sum_q h_kq (M/2)[p][q][j]) h_pr
    hms = _cubes(contract(be, [[(0.5, h[k][q], mmap[p][q][j]) for q in range(n)]
                               for mmap in mmaps for k, p, j in cube]), n)
    tau3s = _cubes(contract(be, [[(1.0, hm[k][p][j], h[p][r]) for p in range(n)]
                                 for hm in hms for j, k, r in cube]), n)

    # undo (P_sym)_23 on Ran((P_sym)_12): tau3 is symmetric in (k, r), and
    # tau2[j,k,r] = tau3[j,k,r] + tau3[k,j,r] - tau3[r,j,k] is symmetric in
    # (j, k) with (P_sym)_23 tau2 = tau3
    tau2s = _cubes(combine(be, [[(1.0, t[j][k][r]), (1.0, t[k][j][r]), (-1.0, t[r][j][k])]
                                for t in tau3s for j, k, r in cube]), n)

    # undo (id (x) V_g^{-1}): tau1[j,k,i] = sum_r tau2[j,k,r] g_ri
    outs = _cubes(contract(be, [[(1.0, tau2[j][k][r], gc[r][i]) for r in range(n)]
                                for tau2 in tau2s for i, j, k in cube]), n)
    return [_frozen_cube(out) for out in outs]


# -- pointwise solve ---------------------------------------------------------


def _real_valued(el: AlgebraElement) -> bool:
    """Whether a central element takes real values: c_{-k} = conj(c_k) exactly.

    Modes are in lexicographic order, which negation reverses.
    """
    if el.backend.kind == MATRIX:
        return trace(el).imag == 0.0
    k, c = el.mode_array, el.coeff_array
    return np.array_equal(k, -k[::-1]) and np.array_equal(c, c[::-1].conj())


def _solve_pointwise(calculus: CalculusSpec, g: MetricSpec,
                     dg: list) -> Tuple[TorusGrid, np.ndarray, float, Tuple[int, int]]:
    """Torsion = 0 and Pi_g(nabla) = dg at each point of the grid sized by the metric.

    The grid has 2 (reach(g^{-1}) + reach(g)) + 1 points per coordinate the
    metric varies along, a reach being the largest support radius of the
    components, so no mode of Gamma within that reach aliases.  In the lowered
    unknowns G^i_jl = sum_k g_kj Gamma^i_kl compatibility is solved in closed
    form, G = dg / 2 + A with A antisymmetric in (i, j), and torsion is the one
    system left: sum_jl M^a_jl A_ijl = -D^a_i - (1/2) sum_jl M^a_jl partial_l g_ij
    with M^a_jl = sum_k c^a_kl h_kj, h = g^{-1} at the point; Gamma = h G.  Its n m
    equations in n^2 (n-1)/2 unknowns per point are square unless the
    connection is not unique, and real when c and the metric are.  Returns the
    grid, Gamma at its points (points x n^3), the kernel certificate (the
    smallest per-point singular-value ratio, 1.0 for n = 1's empty system) and
    the (equations, unknowns) per point; levi_civita's gates check the answer.
    SingularMetric if g or dg is not finite, or g is singular, at a point.
    """
    n, m = calculus.rank, calculus.two_form_rank
    upper, lower = np.triu_indices(n, 1)
    equations, unknowns = n * m, n * len(upper)
    if unknowns > equations:
        raise NonUnique(f"compatibility leaves {unknowns} unknowns per point against "
                        f"{equations} torsion equations")
    comps = [c for row in g.components for c in row]
    reach = (max(c.support_radius() for row in g.inverse_components for c in row)
             + max(c.support_radius() for c in comps))
    grid = TorusGrid(central_coords(comps), 2 * reach + 1)
    gpts = grid.sample(comps).T.reshape(-1, n, n)
    dgpts = grid.sample([d for plane in dg for row in plane for d in row]).T.reshape(-1, n, n, n)
    if not (np.isfinite(gpts).all() and np.isfinite(dgpts).all()):
        raise SingularMetric("metric or its derivative is not finite on the solve grid")
    wedge = calculus.wedge_constants
    real = not np.any(wedge.imag) and all(_real_valued(c) for c in comps)
    if real:
        gpts, wedge = gpts.real, wedge.real
    try:
        h = np.linalg.inv(gpts)
    except np.linalg.LinAlgError:
        raise SingularMetric("component matrix singular on the solve grid") from None
    # A_ijl = sum_s pair[s, i, j] y_sl over the pairs s = (a < b); rows (i, a), columns (s, l)
    outer = np.eye(n)[upper][:, :, None] * np.eye(n)[lower][:, None, :]
    pair = outer - outer.transpose(0, 2, 1)
    mat = np.einsum("akl,pkj->pajl", wedge, h)
    ops = np.einsum("sij,pajl->piasl", pair, mat).reshape(len(h), equations, unknowns)
    rhs = (-calculus.exterior_constants.T
           - 0.5 * np.einsum("pajl,pijl->pia", mat, dgpts)).reshape(len(h), equations)
    svals = np.linalg.svd(ops, compute_uv=False) if unknowns else np.ones((1, 1))
    ratio = float(np.min(svals[:, -1] / np.maximum(svals[:, 0], np.finfo(float).tiny)))
    if ratio <= DEFAULT_KERNEL_FLOOR:
        raise NonUnique(f"torsion operator in the lowered unknowns has a kernel "
                        f"(relative singular value {ratio:.3e})")
    # a real operator solves the real and imaginary parts of rhs as two columns
    parts = np.array([1.0, 1j]) if real else np.ones(1)
    cols = np.stack([rhs.real, rhs.imag], axis=-1) if real else rhs[..., None]
    y = np.linalg.solve(ops, cols) @ parts
    lowered = 0.5 * dgpts + np.einsum("sij,psl->pijl", pair, y.reshape(len(h), len(upper), n))
    gamma = np.einsum("pkj,pijl->pikl", h, lowered)
    return grid, gamma.reshape(-1, n ** 3), ratio, (equations, unknowns)


@dataclass
class LeviCivitaResult:
    """A Levi-Civita connection with its certificates.

    torsion_residual and compat_residual are the gates' residuals of the
    returned connection, on every route.  sv_ratio is the smallest
    singular-value ratio, over the solve grid, of the square torsion operator
    in the antisymmetric lowered unknowns that compatibility leaves (1.0 at
    rank 1, where that system is empty).  stats holds the
    grid points, the equations and unknowns per point, gamma_reach (the
    largest support radius over Gamma's entries, 0 on the matrix backend),
    dropped_tail (the largest modulus the read-back dropped under its 1e-16
    floor, 0.0 on the phi route), and the seconds spent in the pointwise
    core, the read-back to modes (0 on the phi route) and the residual gates.
    """

    connection: ConnectionCoeffs
    torsion_residual: float
    compat_residual: float
    sv_ratio: float
    route: str
    stats: dict
    route_difference: Optional[float] = None


def certify(nabla: ConnectionCoeffs, g: MetricSpec, dg: list, tol: float,
            what: str) -> Tuple[float, float]:
    """The Levi-Civita gate: nabla's torsion and compatibility residuals if each is at
    most tol max(1, max|D|, max|dg|), for dg g's derivative cube; else Inconsistent(what)."""
    tres = torsion_residual(nabla)
    cres = _compat_residual(g, nabla, dg).max_norm
    scale = max(1.0, float(np.max(np.abs(nabla.calculus.exterior_constants), initial=0.0)),
                max(d.norm() for plane in dg for row in plane for d in row))
    # written so that a NaN residual fails: NaN compares false, and max() may drop it
    if not (tres <= tol * scale and cres <= tol * scale):
        raise Inconsistent(f"{what} (torsion {tres:.3e}, compatibility {cres:.3e})")
    return tres, cres


def levi_civita(calculus: CalculusSpec, g: MetricSpec, route: str = "direct",
                residual_tol: float = DEFAULT_RESIDUAL_TOL) -> LeviCivitaResult:
    """The unique torsion-less, metric-compatible connection, with certificates.

    route "direct": per-point square solve on a torus grid sized by the
    metric, read back to every mode of Gamma whatever the backend radius;
    route "phi": nabla_0 + Phi_g^{-1}(dg - Pi_g(nabla_0)); route "both": run
    both, report the direct result with their componentwise disagreement
    attached.  Every route runs the pointwise kernel certificate first, and
    the torsion and compatibility gates decide every route's answer.
    """
    if route not in ("direct", "phi", "both"):
        raise ValueError(f"unknown route {route!r}")
    n = calculus.rank
    start = time.perf_counter()
    dg = _derivatives(calculus, g.components)
    grid, x, sv_ratio, (equations, unknowns) = _solve_pointwise(calculus, g, dg)
    seconds = {"core_s": time.perf_counter() - start, "readback_s": 0.0}

    def solve_phi() -> ConnectionCoeffs:
        nab0 = nabla0(calculus)
        # Phi_g^{-1} is linear: Phi_g^{-1}(dg - Pi_g(nabla_0)) = -Phi_g^{-1}(Pi_g(nabla_0) - dg)
        lmap = phi_g_invert(g, _pi_g_many(g, [nab0.gamma], minus=dg)[0])
        gamma = combine(calculus.backend, [[(1.0, nab0.gamma[i][j][k]), (-1.0, lmap[i][j][k])]
                                           for i, j, k in itertools.product(range(n), repeat=3)])
        return ConnectionCoeffs(calculus, _cube(gamma, n))

    diff: Optional[float] = None
    dropped = 0.0
    if route == "phi":
        nabla = solve_phi()
    else:
        start = time.perf_counter()
        flat, dropped = grid.read_back(x.T, calculus.backend, 1e-16)
        nabla = ConnectionCoeffs(calculus, _cube(flat, n))
        seconds["readback_s"] = time.perf_counter() - start
        if route == "both":
            diff = nabla.difference_norm(solve_phi())

    start = time.perf_counter()
    tres, cres = certify(nabla, g, dg, residual_tol, "solver output breaches residual tolerance")
    seconds["gates_s"] = time.perf_counter() - start
    stats = {"grid_points": grid.points, "equations": equations, "unknowns": unknowns,
             "gamma_reach": max(el.support_radius()
                                for plane in nabla.gamma for row in plane for el in row),
             "dropped_tail": dropped, **seconds}
    return LeviCivitaResult(connection=nabla, torsion_residual=tres, compat_residual=cres,
                            sv_ratio=sv_ratio, route=route, stats=stats, route_difference=diff)


# -- classical cross-check ------------------------------------------------------


def structure_constants(calculus: CalculusSpec) -> np.ndarray:
    """Frame bracket constants recovered from the exterior constants.

    d(e_i) = -(1/2) sum_jk C^i_jk e_j ^ e_k, so the minimal-norm solution of
    c . C^i = -2 D_i, twice the calculus' torsion_particular, is the
    antisymmetric bracket table.
    """
    return 2.0 * calculus.torsion_particular


def koszul_oracle(calculus: CalculusSpec, g: MetricSpec) -> ConnectionCoeffs:
    """Classical Christoffel symbols translated to this artifact's convention.

    The component matrix of the metric on one-forms is, classically, the
    inverse of the metric on vector fields; the Koszul formula (with frame
    bracket terms) therefore runs on the inverse components, and the frozen
    index translation is Gamma^i_jk = -KoszulGamma^i_kj.  The translation is
    pinned by the diag(1,1,phi) example and by the structure-constant model.
    It needs only central components, which MetricSpec guarantees, and
    derivations that keep them central, as every DerivationSpec kind does.  Its
    brackets are the torsion_particular that nabla0 also reads, so it checks
    the phi route's metric terms, not its brackets; the direct route does not
    read it.
    """
    be = calculus.backend
    n = calculus.rank
    cvec = structure_constants(calculus)
    gdown = g.inverse_components     # classical metric on vector fields
    gup = g.components               # its inverse
    dgdown = _derivatives(calculus, gdown)   # dgdown[j][k][i] = d_i g_jk

    cube = list(itertools.product(range(n), repeat=3))
    # inner[i][j][k] = d_i g_jk + d_j g_ik - d_k g_ij + bracket terms, on g down
    slots = []
    for i, j, k in cube:
        terms = [(1.0, dgdown[j][k][i]), (1.0, dgdown[i][k][j]), (-1.0, dgdown[i][j][k])]
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
