import numpy as np
import pytest

from nclevi.algebra import (
    AlgebraElement,
    mul,
    random_element,
    wide_mul,
    wide_sum,
)
from nclevi.deformation import (
    bicharacter,
    deform_backend,
    deform_calculus,
    deform_connection,
    deform_element,
    deform_metric,
    deform_product,
    require_skew,
    spectral_decompose,
)
from nclevi.errors import NonSkew
from nclevi.models import random_central_metric, torus_bundle
from nclevi.solver import levi_civita

TOL = 1e-12


def skew2(s):
    return np.array([[0.0, s], [-s, 0.0]])


# -- bicharacter -----------------------------------------------------------------


def test_bicharacter_zero_theta():
    th = np.zeros((2, 2))
    for k in [(0, 0), (1, 2), (-3, 1)]:
        for l in [(1, 0), (2, -2)]:
            assert abs(bicharacter(th, k, l) - 1.0) <= TOL


def test_bicharacter_diagonal_and_phase():
    th = skew2(0.37)
    assert abs(bicharacter(th, (2, -1), (2, -1)) - 1.0) <= TOL
    assert abs(bicharacter(th, (1, 0), (0, 1)) - np.exp(1j * np.pi * 0.37)) <= TOL
    k, l = (2, 1), (-1, 3)
    assert abs(bicharacter(th, k, l) * bicharacter(th, l, k) - 1.0) <= TOL
    assert abs(abs(bicharacter(th, k, l)) - 1.0) <= TOL


def test_bicharacter_rejects_nonskew():
    with pytest.raises(NonSkew):
        bicharacter(np.array([[0.0, 0.1], [0.1, 0.0]]), (1, 0), (0, 1))
    with pytest.raises(NonSkew):
        require_skew([[0.0, 0.2], [-0.1, 0.0]])


# -- deformed product ----------------------------------------------------------------


def test_theta_zero_recovers_product(torus2_twisted):
    be = torus2_twisted.backend
    action = torus2_twisted.action
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b = random_element(be, rng), random_element(be, rng)
        d = wide_sum([deform_product(a, b, np.zeros((2, 2)), action), -wide_mul(a, b)])
        assert d.norm() <= TOL


def test_single_mode_phase():
    # on the untwisted torus, U^(1,0) x_theta U^(0,1) = e^{pi i theta12} U^(1,1)
    model = torus_bundle(2, 2, np.zeros((2, 2)), radius=3)
    u = AlgebraElement.single_mode(model.backend, (1, 0))
    v = AlgebraElement.single_mode(model.backend, (0, 1))
    th = skew2(0.25)
    uv = deform_product(u, v, th, model.action)
    assert abs(uv.coefficient((1, 1)) - np.exp(1j * np.pi * 0.25)) <= 1e-14
    vu = deform_product(v, u, th, model.action)
    ratio = uv.coefficient((1, 1)) / vu.coefficient((1, 1))
    assert abs(ratio - np.exp(2j * np.pi * 0.25)) <= 1e-14


def test_deform_product_equals_twisted_backend_product():
    model = torus_bundle(2, 2, np.zeros((2, 2)), radius=6)
    th = skew2(0.41)
    be_t = deform_backend(model.backend, th, model.action)
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b = random_element(model.backend, rng), random_element(model.backend, rng)
        via_formula = deform_product(a, b, th, model.action)
        via_backend = mul(deform_element(a, be_t), deform_element(b, be_t))
        worst = wide_sum([deform_element(via_formula, be_t), -via_backend]).norm()
        assert worst <= 10 * TOL


def test_deformed_associativity():
    model = torus_bundle(2, 2, np.zeros((2, 2)), radius=12)
    th = skew2(0.3)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        a, b, c = (random_element(model.backend, rng) for _ in range(3))
        lhs = deform_product(deform_product(a, b, th, model.action), c, th, model.action)
        rhs = deform_product(a, deform_product(b, c, th, model.action), th, model.action)
        worst = max(worst, wide_sum([lhs, -rhs]).norm())
    assert worst <= 1e-12


def test_iterated_deformation_composes():
    # twisting by theta1 then theta2 equals twisting once by theta1 + theta2
    model = torus_bundle(2, 2, np.zeros((2, 2)), radius=6)
    th1, th2 = skew2(0.21), skew2(0.13)
    be1 = deform_backend(model.backend, th1, model.action)
    be12 = deform_backend(be1, th2, model.action)
    assert be12 == deform_backend(model.backend, th1 + th2, model.action)
    u = AlgebraElement.single_mode(model.backend, (1, 0))
    v = AlgebraElement.single_mode(model.backend, (0, 1))
    staged = deform_product(deform_element(u, be1), deform_element(v, be1),
                            th2, model.action)
    combo = deform_product(u, v, th1 + th2, model.action)
    assert abs(staged.coefficient((1, 1)) - combo.coefficient((1, 1))) <= TOL
    assert abs(combo.coefficient((1, 1))
               - bicharacter(th1 + th2, (1, 0), (0, 1))) <= TOL


# -- spectral decomposition --------------------------------------------------------------


def test_spectral_decompose_single_mode(torus_twisted):
    be = torus_twisted.backend
    u = AlgebraElement.single_mode(be, (2, -1, 3))
    dec = spectral_decompose(u, torus_twisted.action)
    assert sorted(dec) == [(2, -1)]
    assert (dec[(2, -1)] - u).norm() <= TOL


def test_spectral_decompose_two_modes_reconstructs(torus_twisted):
    be = torus_twisted.backend
    x = AlgebraElement.from_modes(be, {(1, 0, 0): 2.0, (0, 2, 1): -1.5j})
    dec = spectral_decompose(x, torus_twisted.action)
    assert sorted(dec) == [(0, 2), (1, 0)]
    assert (wide_sum(list(dec.values())) - x).norm() <= TOL


# -- connection deformation ------------------------------------------------------------------


def test_deform_flat_connection(torus_comm):
    res = levi_civita(torus_comm.calculus, torus_comm.metric, route="direct")
    th = skew2(0.31)
    out = deform_connection(torus_comm.calculus, res.connection, torus_comm.metric,
                            th, torus_comm.action)
    assert out.torsion_residual <= TOL
    assert out.compat_residual <= TOL
    worst = max(out.connection.gamma[i][j][k].norm()
                for i in range(3) for j in range(3) for k in range(3))
    assert worst <= TOL


def test_grade_zero_data_is_fixed(torus_comm):
    rng = np.random.default_rng(7)
    g = random_central_metric(torus_comm, rng)
    res = levi_civita(torus_comm.calculus, g, route="direct", residual_tol=1e-8)
    th = skew2(0.27)
    out = deform_connection(torus_comm.calculus, res.connection, g, th, torus_comm.action)
    # grade-0 components are unchanged by the deformation formula
    for i in range(3):
        for j in range(3):
            assert out.metric.components[i][j].modes == g.components[i][j].modes
            for k in range(3):
                assert out.connection.gamma[i][j][k].modes == \
                    res.connection.gamma[i][j][k].modes


def test_deformation_commutes_with_levi_civita(torus_twisted):
    rng = np.random.default_rng(8)
    g = random_central_metric(torus_twisted, rng)
    base = levi_civita(torus_twisted.calculus, g, route="direct", residual_tol=1e-8)
    th = skew2(0.17)
    deformed = deform_connection(torus_twisted.calculus, base.connection, g, th,
                                 torus_twisted.action, residual_tol=1e-8)
    resolved = levi_civita(deformed.calculus, deformed.metric, route="both",
                           residual_tol=1e-8)
    assert resolved.connection.difference_norm(deformed.connection) <= 1e-8


def test_totality_witness_per_grade(torus_twisted):
    # U^{-m} x_theta U^{m} = 1: the single-mode units witness right-totality
    be = torus_twisted.backend
    th = skew2(0.43)
    one = AlgebraElement.unit(be)
    for m in [(1, 0, 0), (0, 1, 0), (2, -1, 0), (1, 2, 3)]:
        u = AlgebraElement.single_mode(be, m)
        ubar = AlgebraElement.single_mode(be, tuple(-x for x in m))
        prod = deform_product(ubar, u, th, torus_twisted.action)
        assert wide_sum([prod, -one]).norm() <= TOL


def test_grade_zero_subalgebra_undeformed(torus_twisted):
    # (A_theta)_0 and A_0 share their product tables
    be = torus_twisted.backend
    th = skew2(0.39)
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = AlgebraElement.from_modes(be, {(0, 0, j): rng.standard_normal()
                                           for j in range(-1, 2)})
        b = AlgebraElement.from_modes(be, {(0, 0, j): rng.standard_normal()
                                           for j in range(-1, 2)})
        d = wide_sum([deform_product(a, b, th, torus_twisted.action), -wide_mul(a, b)])
        assert d.norm() <= TOL


def test_spectral_decompose_backend_mismatch(fuzzy1, torus_twisted):
    from nclevi.errors import BackendMismatch
    u = AlgebraElement.unit(fuzzy1.backend)
    with pytest.raises(BackendMismatch):
        spectral_decompose(u, torus_twisted.action)


def test_v_g_deformation_matrix_identity(torus_twisted):
    # V_{g_theta} computed in the deformed calculus equals the deformation of V_g:
    # on grade-0 metric components the musical coefficients agree verbatim
    from nclevi.calculus import OneForm
    from nclevi.metric import v_g
    rng = np.random.default_rng(10)
    g = random_central_metric(torus_twisted, rng)
    th = skew2(0.33)
    calc_t = deform_calculus(torus_twisted.calculus, th, torus_twisted.action)
    g_t = deform_metric(g, calc_t)
    w = OneForm([random_element(torus_twisted.backend, rng) for _ in range(3)])
    undeformed = v_g(g, w)
    w_t = OneForm([deform_element(c, calc_t.backend) for c in w.coeffs])
    deformed = v_g(g_t, w_t)
    for a, b in zip(undeformed.coeffs, deformed.coeffs):
        lifted = deform_element(a, calc_t.backend.with_radius(b.backend.radius))
        assert wide_sum([lifted, -b]).norm() <= 1e-12


def test_deforming_noninvariant_metric_rejected():
    # a metric component depending on a to-be-deformed coordinate stops being
    # central after the twist, so the deformed metric must be refused
    from nclevi.errors import NonCentralResult
    from nclevi.metric import MetricSpec
    model = torus_bundle(3, 2, np.zeros((2, 2)), radius=3)
    be = model.backend
    unit = AlgebraElement.unit(be)
    zero = AlgebraElement.zero(be)
    phi = unit + AlgebraElement.from_modes(be, {(1, 0, 0): 0.01, (-1, 0, 0): 0.01})
    g = MetricSpec(model.calculus, [[unit, zero, zero], [zero, unit, zero],
                                    [zero, zero, phi]])   # fine while theta = 0
    calc_t = deform_calculus(model.calculus, skew2(0.3), model.action)
    with pytest.raises(NonCentralResult):
        deform_metric(g, calc_t)


def test_deforming_into_a_sign_phase_metric_rejected(twisted_mode_metric):
    # U_1^3 and U_2^3 stay central at theta = 1/3 but multiply with the sign
    # exp(3 i pi) = -1, so the deformed metric is refused before its inverse is formed
    from nclevi.errors import NonCommutativeBackend
    from nclevi.metric import MetricSpec
    model, comps = twisted_mode_metric(0.0, 9, 3)
    g = MetricSpec(model.calculus, comps)                # fine while theta = 0
    calc_t = deform_calculus(model.calculus, skew2(1.0 / 3.0), model.action)
    with pytest.raises(NonCommutativeBackend):
        deform_metric(g, calc_t)
