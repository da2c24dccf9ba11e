"""The three shipped geometries: fuzzy 3-sphere, quantum Heisenberg structure-constant
model, and theta-deformed torus bundles.

Each constructor packages a backend, the rank-3 (or rank-m) calculus with its
wedge and exterior constants, the canonical trace metric, generator lists for
centrality tests, and (for the torus) the grading data consumed by the
deformation engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .algebra import AlgebraElement, BackendDescriptor, DerivationSpec
from .calculus import CalculusSpec
from .deformation import TorusAction, require_skew
from .errors import SizeTooLarge
from .metric import CanonicalMetricData, MetricSpec, canonical_metric

DEFAULT_MATRIX_CAP = 128


def pauli_matrices():
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return s1, s2, s3


def _permutations(base):
    for p in itertools.permutations(base):
        # parity via inversion count
        inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
        yield p, (-1.0 if inv % 2 else 1.0)


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
    params: Dict = field(default_factory=dict)

    @property
    def backend(self) -> BackendDescriptor:
        return self.calculus.backend


def fuzzy_sphere(k: int) -> Model:
    """Matrix geometry on B(H_0), H_0 the multiplicity-free sum of spins 0..k/2.

    The rank-3 calculus carries the antisymmetric wedge and exterior constants
    fixed by the torsion relation Gamma^i_jk - Gamma^i_kj = i eps^ijk; the
    derivations are the commutators with the block spin generators, normalized
    so that d compose d = 0 holds against those constants.
    """
    if k < 1:
        raise ValueError("fuzzy sphere needs k >= 1")
    dims = [d for d in range(1, k + 2)]            # 2j+1 for j = 0, 1/2, ..., k/2
    size = sum(d * d for d in dims)
    if size > DEFAULT_MATRIX_CAP:
        raise SizeTooLarge(f"fuzzy_sphere({k}) needs N = {size} > cap {DEFAULT_MATRIX_CAP}")
    backend = BackendDescriptor.matrix(size)

    spins = []
    for d in dims:
        j = (d - 1) / 2
        spins.append(spin_matrices(j))
    gen = []
    for comp in range(3):
        big = np.zeros((size, size), dtype=complex)
        off = 0
        for d, sp in zip(dims, spins):
            block = np.kron(np.eye(d), sp[comp])   # spin action on V*_j (x) V_j
            big[off:off + d * d, off:off + d * d] = block
            off += d * d
        gen.append(big)
    # partial_i = [X_i, .]; the inner rule is a -> i[Y, a], so pass Y = -i X_i
    derivations = [DerivationSpec.inner(AlgebraElement.from_matrix(backend, -1j * x))
                   for x in gen]

    pairs, c = _antisymmetric_wedge(3)
    eps = np.zeros((3, 3, 3))
    for p, s in _permutations((0, 1, 2)):
        eps[p] = s
    exterior = np.zeros((3, 3), dtype=complex)
    for a, (j, l) in enumerate(pairs):
        for i in range(3):
            exterior[a, i] = -1j * eps[i, j, l]

    shift = np.zeros((size, size))
    for r in range(size - 1):
        shift[r + 1, r] = 1.0
    generators = [AlgebraElement.from_matrix(backend, shift),
                  AlgebraElement.from_matrix(backend, shift.T)]
    generators += [AlgebraElement.from_matrix(backend, x) for x in gen]

    calculus = CalculusSpec(3, 3, c, exterior, derivations, backend, generators)
    metric = canonical_metric(calculus, CanonicalMetricData(spinor_ops=pauli_matrices()))
    return Model(name="fuzzy-sphere", calculus=calculus, metric=metric,
                 params={"k": k, "size": size})


def heisenberg() -> Model:
    """Quantum Heisenberg manifold at structure-constant level.

    The frame bracket [d_1, d_2] = d_3 enters only through the exterior
    constant on the e_1 ^ e_2 slot of d(e_3), fixed by the d compose d = 0
    constraint; coefficients are scalars, so only constant metrics are
    representable and the derivations act by zero.
    """
    backend = BackendDescriptor.matrix(1)
    pairs, c = _antisymmetric_wedge(3)
    exterior = np.zeros((3, 3), dtype=complex)
    # Maurer-Cartan: sum_i D^(jl)_i d_i = -[d_j, d_l] forces D^(12)_3 = -1, rest 0
    exterior[pairs.index((0, 1)), 2] = -1.0
    derivations = [DerivationSpec.zero() for _ in range(3)]
    generators = [AlgebraElement.unit(backend)]
    calculus = CalculusSpec(3, 3, c, exterior, derivations, backend, generators)
    metric = canonical_metric(calculus, CanonicalMetricData(spinor_ops=pauli_matrices()))
    return Model(name="heisenberg", calculus=calculus, metric=metric, params={})


def torus_bundle(m: int, n: int, theta, radius: int,
                 tol: float = 1e-12) -> Model:
    """Theta-deformed torus bundle: rank-m flat frame, twist on the first n coordinates.

    Metrics may depend on coordinates n+1..m, which stay central; the grading
    data for the first n coordinates feeds the deformation engine.
    """
    if not 1 <= n <= m:
        raise ValueError("need 1 <= deformed directions <= total dimension")
    if radius < 1:
        raise ValueError("truncation radius must be >= 1")
    th = require_skew(theta, n)
    action = TorusAction(coords=tuple(range(n)))
    full = np.zeros((m, m))
    full[:n, :n] = th
    backend = BackendDescriptor.graded(m, full, radius, tol)

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
    metric = canonical_metric(calculus, CanonicalMetricData(spinor_ops=gamma_matrices(m)))
    return Model(name="torus", calculus=calculus, metric=metric, action=action,
                 params={"dims": m, "deformed": n, "radius": radius})


def random_central_metric(model: Model, rng: np.random.Generator,
                          scale: float = 0.004) -> MetricSpec:
    """Diagonal-plus-small-trig central metric on a torus bundle.

    Components vary only along the untwisted coordinates (central by
    construction); amplitudes are kept small enough that the inverse
    components decay well inside the truncation budget.
    """
    calculus = model.calculus
    be = calculus.backend
    n = calculus.rank
    if be.kind != "graded":
        return MetricSpec.from_scalar_matrix(
            calculus, np.diag(1.0 + rng.uniform(0.0, 1.0, size=n)))
    free = [c for c in range(be.dim) if c >= model.params.get("deformed", be.dim)]
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
            amp = scale * rng.uniform(0.2, 1.0)
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
