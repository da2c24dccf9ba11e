import numpy as np
import pytest

from nclevi.algebra import (
    AlgebraElement,
    BackendDescriptor,
    DerivationSpec,
    derive,
    is_central,
    random_element,
)
from nclevi.errors import NonSkew, SizeTooLarge
from nclevi.models import (
    fuzzy_sphere,
    gamma_matrices,
    pauli_matrices,
    random_central_metric,
    spin_matrices,
    torus_bundle,
)

TOL = 1e-12


# -- building blocks ------------------------------------------------------------


def test_spin_matrices_commutation():
    for j in (0.5, 1.0, 1.5):
        j1, j2, j3 = spin_matrices(j)
        assert np.max(np.abs(j1 @ j2 - j2 @ j1 - 1j * j3)) <= 1e-12
        for m in (j1, j2, j3):
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12


def test_gamma_matrices_trace_orthonormal():
    for m in range(1, 6):
        gammas = gamma_matrices(m)
        dim = gammas[0].shape[0]
        for i, gi in enumerate(gammas):
            assert np.max(np.abs(gi - gi.conj().T)) <= TOL
            for j, gj in enumerate(gammas):
                got = np.trace(gi @ gj) / dim
                assert abs(got - (1.0 if i == j else 0.0)) <= TOL
                anti = gi @ gj + gj @ gi
                if i != j:
                    assert np.max(np.abs(anti)) <= TOL


# -- fuzzy sphere ------------------------------------------------------------------


def test_fuzzy_dimension_count(fuzzy1, fuzzy2):
    assert fuzzy1.params["size"] == 1 + 4 == 5
    assert fuzzy2.params["size"] == 1 + 4 + 9 == 14
    assert fuzzy1.backend.size == 5


def test_fuzzy_ranks(fuzzy1):
    assert fuzzy1.calculus.rank == 3
    assert fuzzy1.calculus.two_form_rank == 3


def test_fuzzy_canonical_metric_delta(fuzzy1):
    assert np.max(np.abs(fuzzy1.metric.component_scalars() - np.eye(3))) <= 1e-12


def test_fuzzy_size_cap():
    with pytest.raises(SizeTooLarge):
        fuzzy_sphere(12)


def test_fuzzy_generators_detect_center(fuzzy1):
    # only scalar multiples of the unit commute with the generator list
    be = fuzzy1.backend
    gens = fuzzy1.calculus.generators
    one = AlgebraElement.unit(be)
    assert is_central(one * (2.0 - 1j), gens)
    # block scalars (central for the spin generators alone) must be rejected
    blocks = np.diag([1.0] * 1 + [2.0] * 4).astype(complex)
    assert not is_central(AlgebraElement.from_matrix(be, blocks), gens)
    rng = np.random.default_rng(0)
    assert not is_central(random_element(be, rng), gens)


def test_fuzzy_derivation_brackets(fuzzy1):
    # [d_1, d_2] = i d_3 required by d compose d = 0 with the chosen constants
    spec = fuzzy1.calculus
    rng = np.random.default_rng(1)
    d1, d2, d3 = spec.derivations
    for _ in range(5):
        a = random_element(spec.backend, rng)
        lhs = derive(d1, derive(d2, a)) - derive(d2, derive(d1, a))
        assert (lhs - 1j * derive(d3, a)).norm() <= 1e-10


# -- Heisenberg -------------------------------------------------------------------------


def test_heisenberg_wedge_table(heis):
    spec = heis.calculus
    for i in range(3):
        assert spec.wedge(spec.basis_tensor(i, i)).norm() <= TOL
        for j in range(3):
            anti = spec.basis_tensor(i, j) + spec.basis_tensor(j, i)
            assert spec.wedge(anti).norm() <= TOL


def test_heisenberg_exterior_constant_is_unique_solution(heis):
    """Re-derive the Maurer-Cartan constant from a faithful realization of the bracket.

    The nilpotent 3x3 matrices Y1 = E12, Y2 = E23, Y3 = E13 satisfy
    [Y1, Y2] = Y3 and [Y1, Y3] = [Y2, Y3] = 0, so the inner derivations
    d_i = [Y_i, .] realize the derivation relations; solving the d o d = 0
    constraint sum_i D^a_i d_i = -[d_j, d_l] for the exterior constants must
    reproduce the shipped table (single entry D^(12)_3 = -1) uniquely.
    """
    be = BackendDescriptor.matrix(3)
    y = [np.zeros((3, 3), dtype=complex) for _ in range(3)]
    y[0][0, 1] = 1.0
    y[1][1, 2] = 1.0
    y[2][0, 2] = 1.0
    ders = [DerivationSpec.inner(AlgebraElement.from_matrix(be, -1j * m)) for m in y]
    rng = np.random.default_rng(2)
    basis = [random_element(be, rng) for _ in range(12)]
    pairs = [(0, 1), (0, 2), (1, 2)]
    solved = np.zeros((3, 3), dtype=complex)
    for a, (j, l) in enumerate(pairs):
        rows, rhs = [], []
        for x in basis:
            bracket = (derive(ders[j], derive(ders[l], x))
                       - derive(ders[l], derive(ders[j], x)))
            cols = [derive(ders[i], x) for i in range(3)]
            for p in range(3):
                for q in range(3):
                    rows.append([c.matrix[p, q] for c in cols])
                    rhs.append(-bracket.matrix[p, q])
        rows = np.array(rows)
        rhs = np.array(rhs)
        assert np.linalg.matrix_rank(rows, tol=1e-10) == 3  # unique solution
        sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        assert np.max(np.abs(rows @ sol - rhs)) <= 1e-10
        solved[a] = sol
    expected = np.zeros((3, 3))
    expected[pairs.index((0, 1)), 2] = -1.0
    assert np.max(np.abs(solved - expected)) <= 1e-10
    assert np.max(np.abs(heis.calculus.exterior_constants - expected)) <= TOL


def test_heisenberg_metric_delta(heis):
    assert np.max(np.abs(heis.metric.component_scalars() - np.eye(3))) <= 1e-12


# -- torus bundle -----------------------------------------------------------------------------


def test_torus_centrality_examples():
    theta = np.array([[0.0, 0.3], [-0.3, 0.0]])
    flat2 = torus_bundle(2, 2, theta, radius=3)
    u = AlgebraElement.single_mode(flat2.backend, (1, 0))
    assert not is_central(u, flat2.calculus.generators)

    bundle = torus_bundle(3, 2, theta, radius=3)
    u3 = AlgebraElement.single_mode(bundle.backend, (0, 0, 1))
    assert is_central(u3, bundle.calculus.generators)
    # metrics built from the central coordinate are accepted
    from nclevi.metric import MetricSpec
    unit = AlgebraElement.unit(bundle.backend)
    zero = AlgebraElement.zero(bundle.backend)
    phi = unit + AlgebraElement.from_modes(bundle.backend,
                                           {(0, 0, 1): 0.01, (0, 0, -1): 0.01})
    MetricSpec(bundle.calculus, [[unit, zero, zero], [zero, unit, zero], [zero, zero, phi]])


def test_torus_validation():
    with pytest.raises(NonSkew):
        torus_bundle(3, 2, np.array([[0.0, 0.1], [0.1, 0.0]]), radius=2)
    with pytest.raises(ValueError):
        torus_bundle(3, 2, np.zeros((2, 2)), radius=0)
    with pytest.raises(ValueError):
        torus_bundle(2, 3, np.zeros((3, 3)), radius=2)


def test_torus_flat_frame(torus_comm):
    spec = torus_comm.calculus
    assert np.max(np.abs(spec.exterior_constants)) == 0.0
    assert spec.rank == 3 and spec.two_form_rank == 3
    assert np.max(np.abs(torus_comm.metric.component_scalars() - np.eye(3))) <= 1e-12


def test_models_pass_calculus_invariants(fuzzy1, heis, torus_comm, torus_twisted):
    for model in (fuzzy1, heis, torus_comm, torus_twisted):
        assert model.calculus.d_squared_residual() <= 1e-10
        report = model.calculus.braid_check()
        assert report.bijective and report.braid_residual <= TOL


def test_rank_four_bundle_full_stack():
    theta = np.array([[0.0, 0.2], [-0.2, 0.0]])
    model = torus_bundle(4, 2, theta, radius=2)
    assert model.calculus.rank == 4 and model.calculus.two_form_rank == 6
    report = model.calculus.braid_check()
    assert report.bijective and report.dim_ran_p23 == 4 * 10
    from nclevi.solver import levi_civita
    res = levi_civita(model.calculus, model.metric, route="both")
    assert res.torsion_residual <= 1e-12 and res.compat_residual <= 1e-12
    assert res.route_difference <= 1e-9
    from nclevi.models import random_central_metric
    rng = np.random.default_rng(11)
    # amplitudes sized for the tight radius-2 truncation budget
    g = random_central_metric(model, rng, scale=5e-4)
    res2 = levi_civita(model.calculus, g, route="both", residual_tol=1e-8)
    # twist is nonzero, so the classical oracle does not apply; the two solver
    # routes cross-check each other instead
    assert res2.route_difference <= 1e-8


def test_rank_one_bundle_degenerate_two_forms():
    model = torus_bundle(1, 1, np.zeros((1, 1)), radius=2)
    assert model.calculus.two_form_rank == 0
    from nclevi.solver import levi_civita
    res = levi_civita(model.calculus, model.metric, route="both")
    assert res.connection.gamma[0][0][0].norm() <= 1e-12


# -- random central metrics ---------------------------------------------------------


def reference_metric_components(model, rng, scale=0.004):
    """random_central_metric's draws spelled out on a bundle with free coordinates:
    n diagonal offsets, then per pair i <= j a free coordinate, an amplitude and a
    phase, giving 0.5 amp e^{i phase} on the +1 mode and its conjugate on the -1 mode."""
    be, n = model.backend, model.calculus.rank
    free = list(range(model.params["deformed"], be.dim))
    unit = AlgebraElement.unit(be)
    comps = [[AlgebraElement.zero(be)] * n for _ in range(n)]
    for i in range(n):
        comps[i][i] = unit * (1.0 + rng.uniform(0.0, 1.0))
    for i in range(n):
        for j in range(i, n):
            coord = free[int(rng.integers(0, len(free)))]
            amp = scale * rng.uniform(0.2, 1.0)
            phase = rng.uniform(0, 2 * np.pi)
            plus, minus = [0] * be.dim, [0] * be.dim
            plus[coord], minus[coord] = 1, -1
            z = 0.5 * amp * np.exp(1j * phase)
            pert = AlgebraElement.from_modes(be, {tuple(plus): z,
                                                  tuple(minus): np.conj(z)})
            comps[i][j] = comps[i][j] + pert
            if j != i:
                comps[j][i] = comps[j][i] + pert
    return comps


def test_random_central_metric_draws_are_pinned():
    for m in (3, 4):
        model = torus_bundle(m, 2, np.zeros((2, 2)), radius=3)
        for seed in range(10):
            g = random_central_metric(model, np.random.default_rng(seed))
            want = reference_metric_components(model, np.random.default_rng(seed))
            for row, want_row in zip(g.components, want):
                for el, ref in zip(row, want_row):
                    assert np.array_equal(el.mode_array, ref.mode_array)
                    assert el.coeff_array.tobytes() == ref.coeff_array.tobytes()
    # a few coefficients written out, so that the draw order itself is pinned
    model = torus_bundle(3, 2, np.zeros((2, 2)), radius=3)
    pinned = {
        0: {(0, 0, (0, 0, 0)): 1.6369616873214543,
            (0, 1, (0, 0, 1)): -0.0014582145659416516 - 0.0011553058654967298j,
            (2, 2, (0, 0, -1)): -5.784272804320695e-05 + 0.0004500349006767447j},
        9: {(1, 1, (0, 0, 0)): 1.2868172090875554,
            (0, 2, (0, 0, 1)): 0.0018431586460867127 + 0.00031080677219940073j,
            (1, 2, (0, 0, -1)): 0.0005039316981513814 - 1.7821166781569432e-05j},
    }
    for seed, coeffs in pinned.items():
        g = random_central_metric(model, np.random.default_rng(seed))
        for (i, j, mode), value in coeffs.items():
            assert abs(g.components[i][j].coefficient(mode) - value) <= 1e-17
