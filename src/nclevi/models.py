"""The three shipped geometries: fuzzy 3-sphere, quantum Heisenberg structure-constant
model, and theta-deformed torus bundles.

The two matrix models are calls of one constructor, `lie_matrix_geometry`:
a Lie algebra's structure constants and a representation of it by N x N
matrices acting on M_N(C) by inner derivations.  The fuzzy sphere is su(2)
on its spin blocks, Heisenberg [d_1, d_2] = d_3 on the trivial 1 x 1
representation.  Each constructor packages a backend, the rank-n calculus
with its wedge and exterior constants, the canonical trace metric, generator
lists for centrality tests, and (for the torus) the grading data consumed by
the deformation engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import AlgebraElement, BackendDescriptor, DerivationSpec
from .calculus import CalculusSpec
from .deformation import TorusAction, embed_theta
from .errors import SizeTooLarge
from .metric import MetricSpec, canonical_metric

DEFAULT_MATRIX_CAP = 128


def pauli_matrices():
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return s1, s2, s3


def spin_matrices(j: float):
    """Standard spin-j generators with [J1, J2] = i J3."""
    d = int(round(2 * j)) + 1
    mvals = [j - r for r in range(d)]
    jz = np.diag(mvals).astype(complex)
    jplus = np.zeros((d, d), dtype=complex)
    for r in range(d - 1):
        m = mvals[r + 1]
        jplus[r, r + 1] = np.sqrt(j * (j + 1) - m * (m + 1))
    jminus = jplus.conj().T
    return (jplus + jminus) / 2, (jplus - jminus) / 2j, jz


def gamma_matrices(m: int):
    """Hermitian anticommuting frame operators with normalized trace delta_ij."""
    s1, s2, s3 = pauli_matrices()
    if m == 1:
        return (s1,)
    if m == 2:
        return (s1, s2)
    if m == 3:
        return (s1, s2, s3)
    shorter = gamma_matrices(m - 2)
    dim = shorter[0].shape[0]
    eye = np.eye(dim)
    out = [np.kron(s1, g) for g in shorter]
    out.append(np.kron(s2, eye))
    out.append(np.kron(s3, eye))
    return tuple(out)


def _antisymmetric_wedge(n: int):
    """Wedge table on the basis {e_i ^ e_j : i < j}, lexicographic, c^(ij)_ij = +1."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(pairs)
    c = np.zeros((m, n, n), dtype=complex)
    for a, (i, j) in enumerate(pairs):
        c[a, i, j] = 1.0
        c[a, j, i] = -1.0
    return pairs, c


@dataclass
class Model:
    """A ready-to-solve geometry bundle."""

    name: str
    calculus: CalculusSpec
    metric: MetricSpec
    action: Optional[TorusAction] = None

    @property
    def backend(self) -> BackendDescriptor:
        return self.calculus.backend


def lie_matrix_geometry(name: str, brackets, reps) -> Model:
    """Matrix geometry of a Lie algebra acting on M_N(C) by inner derivations.

    brackets[k, j, l] = C^k_jl with [X_j, X_l] = sum_k C^k_jl X_k, and reps
    are the N x N matrices X_j.  The derivations are partial_j = [X_j, .],
    the calculus carries the antisymmetric wedge and the exterior constants
    D^(jl)_k = -C^k_jl that d compose d = 0 fixes, and the generators for
    centrality tests are the two shifts followed by the reps.  The metric is
    the canonical trace metric of the rank-n gamma matrices.
    """
    reps = [np.asarray(x) for x in reps]
    n, size = len(reps), reps[0].shape[0]
    backend = BackendDescriptor.matrix(size)
    # the inner rule is a -> i[Y, a], so Y = -i X_j gives [X_j, .]
    derivations = [DerivationSpec.inner(AlgebraElement.from_matrix(backend, -1j * x))
                   for x in reps]
    pairs, c = _antisymmetric_wedge(n)
    exterior = np.array([[-brackets[k, j, l] for k in range(n)] for j, l in pairs],
                        dtype=complex)
    shift = np.eye(size, k=-1)
    generators = [AlgebraElement.from_matrix(backend, x) for x in (shift, shift.T, *reps)]
    calculus = CalculusSpec(n, len(pairs), c, exterior, derivations, backend, generators)
    return Model(name=name, calculus=calculus, metric=canonical_metric(calculus, gamma_matrices(n)))


def fuzzy_sphere(k: int) -> Model:
    """su(2), C = i eps, on B(H_0), H_0 the multiplicity-free sum of spins 0..k/2.

    X_j acts on the spin-j/2 block V*_j (x) V_j as 1 (x) J_j, so that the
    torsion relation reads Gamma^i_jk - Gamma^i_kj = i eps^ijk.
    """
    if k < 1:
        raise ValueError("fuzzy sphere needs k >= 1")
    dims = range(1, k + 2)                         # 2j+1 for j = 0, 1/2, ..., k/2
    size = sum(d * d for d in dims)
    if size > DEFAULT_MATRIX_CAP:
        raise SizeTooLarge(f"fuzzy_sphere({k}) needs N = {size} > cap {DEFAULT_MATRIX_CAP}")
    reps = np.zeros((3, size, size), dtype=complex)
    off = 0
    for d in dims:
        reps[:, off:off + d * d, off:off + d * d] = [
            np.kron(np.eye(d), x) for x in spin_matrices((d - 1) / 2)]
        off += d * d
    i, j, l = np.indices((3, 3, 3))                # eps_ijl = (i - j)(j - l)(l - i) / 2
    return lie_matrix_geometry("fuzzy-sphere", 1j * ((i - j) * (j - l) * (l - i) / 2), reps)


def heisenberg() -> Model:
    """Quantum Heisenberg manifold at structure-constant level: [d_1, d_2] = d_3,
    C^3_12 = -C^3_21 = 1, on the trivial 1 x 1 representation X_j = 0.

    Coefficients are scalars, so only constant metrics are representable and
    the derivations act by zero; the bracket enters only through the exterior
    constant D^(12)_3 = -1.
    """
    brackets = np.zeros((3, 3, 3))
    brackets[2, 0, 1], brackets[2, 1, 0] = 1.0, -1.0
    return lie_matrix_geometry("heisenberg", brackets, np.zeros((3, 1, 1)))


def torus_bundle(m: int, n: int, theta, radius: int) -> Model:
    """Theta-deformed torus bundle: rank-m flat frame, twist on the first n coordinates.

    theta is the n x n skew block, placed on the first n coordinates of the
    rank-m twist by embed_theta, as a deformation would place it; radius is the
    truncation radius R of the graded backend.  Metrics may depend on
    coordinates n+1..m, which stay central; the grading data for the first n
    coordinates feeds the deformation engine.
    """
    if not 1 <= n <= m:
        raise ValueError("need 1 <= deformed directions <= total dimension")
    if radius < 1:
        raise ValueError("truncation radius must be >= 1")
    action = TorusAction(coords=tuple(range(n)))
    backend = BackendDescriptor.graded(m, embed_theta(theta, m, action.coords), radius)

    pairs, c = _antisymmetric_wedge(m)
    exterior = np.zeros((len(pairs), m), dtype=complex)
    derivations = [DerivationSpec.grading(j) for j in range(m)]
    generators = []
    for j in range(m):
        e = [0] * m
        e[j] = 1
        generators.append(AlgebraElement.single_mode(backend, tuple(e)))
        generators.append(AlgebraElement.single_mode(backend, tuple(-x for x in e)))
    calculus = CalculusSpec(m, len(pairs), c, exterior, derivations, backend, generators)
    metric = canonical_metric(calculus, gamma_matrices(m))
    return Model(name="torus", calculus=calculus, metric=metric, action=action)


def random_central_metric(model: Model, rng: np.random.Generator) -> MetricSpec:
    """Diagonal-plus-small-trig central metric on a torus bundle.

    Components vary only along the untwisted coordinates (central by
    construction); amplitudes of at most 0.004 keep the inverse components
    decaying well inside the truncation budget.  With no untwisted coordinate
    (and on the matrix models) the metric is a constant diagonal one.
    """
    calculus = model.calculus
    be = calculus.backend
    n = calculus.rank
    # the coordinates the torus action leaves alone; a model with no action has none
    moved = model.action.coords if model.action is not None else range(be.dim)
    free = [c for c in range(be.dim) if c not in moved]
    if not free:
        return MetricSpec.from_scalar_matrix(
            calculus, np.diag(1.0 + rng.uniform(0.0, 1.0, size=n)))
    unit = AlgebraElement.unit(be)
    comps = [[AlgebraElement.zero(be) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        comps[i][i] = unit * (1.0 + rng.uniform(0.0, 1.0))
    for i in range(n):
        for j in range(i, n):
            coord = free[int(rng.integers(0, len(free)))]
            amp = 0.004 * rng.uniform(0.2, 1.0)
            phase = rng.uniform(0, 2 * np.pi)
            plus = [0] * be.dim
            plus[coord] = 1
            z = 0.5 * amp * np.exp(1j * phase)
            pert = AlgebraElement.from_modes(be, {tuple(plus): z,
                                                  tuple(-x for x in plus): np.conj(z)})
            comps[i][j] = comps[i][j] + pert
            if j != i:
                comps[j][i] = comps[j][i] + pert
    return MetricSpec(calculus, comps)
