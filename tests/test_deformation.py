import math

import numpy as np
import pytest

from nclevi.algebra import (
    AlgebraElement,
    BackendDescriptor,
    random_elements,
    wide_mul,
    wide_sum,
)
from nclevi.deformation import (
    deform_backend,
    deform_calculus,
    deform_connection,
    deform_element,
    deform_metric,
    deform_product_many,
    require_skew,
    spectral_decompose,
)
from nclevi import solver
from nclevi.errors import Inconsistent, NonSkew
from nclevi.metric import MetricSpec
from nclevi.models import random_central_metric, torus_bundle
from nclevi.solver import ConnectionCoeffs, compat_residual, levi_civita, torsion_residual

TOL = 1e-12


def skew2(s):
    return np.array([[0.0, s], [-s, 0.0]])


# -- bicharacter -----------------------------------------------------------------


PLANE = torus_bundle(2, 2, np.zeros((2, 2)), radius=6)


def bicharacter(theta, k, l):
    """chi_theta(k, l): the coefficient of U^{k+l} in U^k x_theta U^l on the untwisted plane."""
    u = AlgebraElement.single_mode(PLANE.backend, k)
    v = AlgebraElement.single_mode(PLANE.backend, l)
    (prod,) = deform_product_many([(u, v)], theta, PLANE.action)
    return prod.coefficient(tuple(a + b for a, b in zip(k, l)))


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
    with pytest.raises(NonSkew, match="nan"):
        require_skew([[0.0, np.nan], [np.nan, 0.0]])


def test_one_skew_bound_for_every_theta():
    # the descriptor, embed_theta and the deformed product share one check at
    # 1e-12, so an asymmetry in (1e-14, 1e-12] passes all three
    near = np.array([[0.0, 0.3], [-0.3 + 5e-13, 0.0]])
    assert require_skew(near) is not None
    model = torus_bundle(3, 2, near, radius=2)
    u = AlgebraElement.single_mode(model.backend, (1, 0, 0))
    v = AlgebraElement.single_mode(model.backend, (0, 1, 0))
    assert deform_product_many([(u, v)], near, model.action)[0].norm() == pytest.approx(1.0)
    far = np.array([[0.0, 0.3], [-0.3 + 2e-12, 0.0]])
    for check in (lambda: require_skew(far), lambda: torus_bundle(3, 2, far, radius=2),
                  lambda: BackendDescriptor.graded(2, far, 2),
                  lambda: deform_product_many([(u, v)], far, model.action)):
        with pytest.raises(NonSkew, match="not skew-symmetric"):
            check()


# -- deformed product ----------------------------------------------------------------


def test_theta_zero_recovers_product(torus2_twisted):
    be = torus2_twisted.backend
    action = torus2_twisted.action
    rng = np.random.default_rng(0)
    pairs = [tuple(random_elements(be, rng, 2)) for _ in range(10)]
    for prod, (a, b) in zip(deform_product_many(pairs, np.zeros((2, 2)), action), pairs):
        assert wide_sum([prod, -wide_mul(a, b)]).norm() <= TOL


def test_single_mode_phase():
    # on the untwisted torus, U^(1,0) x_theta U^(0,1) = e^{pi i theta12} U^(1,1)
    model = torus_bundle(2, 2, np.zeros((2, 2)), radius=3)
    u = AlgebraElement.single_mode(model.backend, (1, 0))
    v = AlgebraElement.single_mode(model.backend, (0, 1))
    th = skew2(0.25)
    uv, vu = deform_product_many([(u, v), (v, u)], th, model.action)
    assert abs(uv.coefficient((1, 1)) - np.exp(1j * np.pi * 0.25)) <= 1e-14
    ratio = uv.coefficient((1, 1)) / vu.coefficient((1, 1))
    assert abs(ratio - np.exp(2j * np.pi * 0.25)) <= 1e-14


def test_deform_product_equals_twisted_backend_product():
    model = torus_bundle(2, 2, np.zeros((2, 2)), radius=6)
    th = skew2(0.41)
    be_t = deform_backend(model.backend, th, model.action)
    rng = np.random.default_rng(1)
    pairs = [tuple(random_elements(model.backend, rng, 2)) for _ in range(10)]
    for via_formula, (a, b) in zip(deform_product_many(pairs, th, model.action), pairs):
        via_backend = wide_mul(deform_element(a, be_t), deform_element(b, be_t))
        worst = wide_sum([deform_element(via_formula, be_t), -via_backend]).norm()
        assert worst <= 10 * TOL


def test_deformed_associativity():
    model = torus_bundle(2, 2, np.zeros((2, 2)), radius=12)
    th = skew2(0.3)
    rng = np.random.default_rng(2)
    triples = [tuple(random_elements(model.backend, rng, 3)) for _ in range(100)]
    ab = deform_product_many([(a, b) for a, b, _ in triples], th, model.action)
    bc = deform_product_many([(b, c) for _, b, c in triples], th, model.action)
    lhs = deform_product_many([(x, c) for x, (_, _, c) in zip(ab, triples)], th, model.action)
    rhs = deform_product_many([(a, x) for x, (a, _, _) in zip(bc, triples)], th, model.action)
    assert max(wide_sum([l, -r]).norm() for l, r in zip(lhs, rhs)) <= 1e-12


def test_iterated_deformation_composes():
    # twisting by theta1 then theta2 equals twisting once by theta1 + theta2
    model = torus_bundle(2, 2, np.zeros((2, 2)), radius=6)
    th1, th2 = skew2(0.21), skew2(0.13)
    be1 = deform_backend(model.backend, th1, model.action)
    be12 = deform_backend(be1, th2, model.action)
    assert be12 == deform_backend(model.backend, th1 + th2, model.action)
    u = AlgebraElement.single_mode(model.backend, (1, 0))
    v = AlgebraElement.single_mode(model.backend, (0, 1))
    (staged,) = deform_product_many([(deform_element(u, be1), deform_element(v, be1))],
                                    th2, model.action)
    (combo,) = deform_product_many([(u, v)], th1 + th2, model.action)
    assert abs(staged.coefficient((1, 1)) - combo.coefficient((1, 1))) <= TOL
    assert abs(combo.coefficient((1, 1)) - np.exp(1j * np.pi * (0.21 + 0.13))) <= TOL


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
                                 torus_twisted.action)
    resolved = levi_civita(deformed.calculus, deformed.metric, route="both",
                           residual_tol=1e-8)
    assert resolved.connection.difference_norm(deformed.connection) <= 1e-8


def test_totality_witness_per_grade(torus_twisted):
    # U^{-m} x_theta U^{m} = 1: the single-mode units witness right-totality
    be = torus_twisted.backend
    th = skew2(0.43)
    one = AlgebraElement.unit(be)
    pairs = [(AlgebraElement.single_mode(be, tuple(-x for x in m)),
              AlgebraElement.single_mode(be, m))
             for m in [(1, 0, 0), (0, 1, 0), (2, -1, 0), (1, 2, 3)]]
    for prod in deform_product_many(pairs, th, torus_twisted.action):
        assert wide_sum([prod, -one]).norm() <= TOL


def test_grade_zero_subalgebra_undeformed(torus_twisted):
    # (A_theta)_0 and A_0 share their product tables
    be = torus_twisted.backend
    th = skew2(0.39)
    rng = np.random.default_rng(9)
    pairs = [tuple(AlgebraElement.from_modes(be, {(0, 0, j): rng.standard_normal()
                                                  for j in range(-1, 2)}) for _ in range(2))
             for _ in range(10)]
    for prod, (a, b) in zip(deform_product_many(pairs, th, torus_twisted.action), pairs):
        assert wide_sum([prod, -wide_mul(a, b)]).norm() <= TOL


def test_spectral_decompose_backend_mismatch(fuzzy1, torus_twisted):
    from nclevi.errors import BackendMismatch
    u = AlgebraElement.unit(fuzzy1.backend)
    with pytest.raises(BackendMismatch):
        spectral_decompose(u, torus_twisted.action)


def test_v_g_deformation_matrix_identity(torus_twisted):
    # V_{g_theta} computed in the deformed calculus equals the deformation of V_g:
    # on grade-0 metric components the musical coefficients agree verbatim
    from nclevi.calculus import OneForm
    from nclevi.metric import v_g_many
    rng = np.random.default_rng(10)
    g = random_central_metric(torus_twisted, rng)
    th = skew2(0.33)
    calc_t = deform_calculus(torus_twisted.calculus, th, torus_twisted.action)
    g_t = deform_metric(g, calc_t)
    w = OneForm(random_elements(torus_twisted.backend, rng, 3))
    undeformed = v_g_many(g, [w])[0]
    w_t = OneForm([deform_element(c, calc_t.backend) for c in w.coeffs])
    deformed = v_g_many(g_t, [w_t])[0]
    for a, b in zip(undeformed.coeffs, deformed.coeffs):
        assert wide_sum([deform_element(a, calc_t.backend), -b]).norm() <= 1e-12


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


def test_nan_coefficient_fails_the_certificates():
    # one NaN Christoffel entry among finite ones: the residuals report NaN
    # wherever it falls, and the deformed connection is refused
    model = torus_bundle(3, 2, np.zeros((2, 2)), radius=3)
    g = random_central_metric(model, np.random.default_rng(0))
    gamma = [[list(row) for row in plane]
             for plane in levi_civita(model.calculus, g).connection.gamma]
    gamma[0][1][2] = gamma[0][1][2] * math.nan
    nabla = ConnectionCoeffs(model.calculus, gamma)
    assert math.isnan(torsion_residual(nabla))
    assert math.isnan(compat_residual(g, nabla).max_norm)
    with pytest.raises(Inconsistent):
        deform_connection(model.calculus, nabla, g, skew2(0.3), model.action)


@pytest.mark.parametrize("nudge, accepted", [(2.5e-13, True), (2.5e-11, False)])
def test_deform_gate_is_the_solver_gate(nudge, accepted):
    # on 1000 g the solver's gate allows compatibility up to 1e-10 max|dg| = 1.19e-9;
    # nudging Gamma^0_11 by 2.5e-13 gives 3.2e-10, which an absolute 1e-10 would
    # refuse, and deform_connection decides as the solver's gate does
    model = torus_bundle(3, 2, np.zeros((2, 2)), radius=3)
    g0 = random_central_metric(model, np.random.default_rng(0))
    g = MetricSpec(model.calculus, [[1000.0 * c for c in row] for row in g0.components])
    gamma = [[list(row) for row in plane]
             for plane in levi_civita(model.calculus, g).connection.gamma]
    gamma[0][1][1] = gamma[0][1][1] + AlgebraElement.unit(model.backend) * nudge
    nabla = ConnectionCoeffs(model.calculus, gamma)
    cres = compat_residual(g, nabla).max_norm
    assert cres > 1e-10
    dg = solver._derivatives(model.calculus, g.components)
    if accepted:
        assert solver.certify(nabla, g, dg, 1e-10, "gate") == (torsion_residual(nabla), cres)
        out = deform_connection(model.calculus, nabla, g, skew2(0.3), model.action)
        assert out.compat_residual == pytest.approx(cres, rel=1e-6)
    else:
        with pytest.raises(Inconsistent, match="gate"):
            solver.certify(nabla, g, dg, 1e-10, "gate")
        with pytest.raises(Inconsistent, match="deformed connection fails its certificates"):
            deform_connection(model.calculus, nabla, g, skew2(0.3), model.action)
