import numpy as np
import pytest

from nclevi.algebra import AlgebraElement, random_element, star, trace, wide_mul, wide_sum
from nclevi.calculus import TensorSquare, random_one_form, random_tensor_square, sigma
from nclevi.errors import NonCentralResult, SingularMetric
from nclevi.metric import (
    Functional,
    MetricSpec,
    g2_eval,
    metric_eval,
    v_g,
    v_g2_matrix,
    v_g_inverse,
)
from nclevi.models import gamma_matrices, torus_bundle

TOL = 1e-12


def assert_constant(elements):
    """Each element is its trace times the unit."""
    for el in elements:
        assert (el - AlgebraElement.unit(el.backend) * trace(el)).norm() <= 10 * TOL


# -- metric_eval ------------------------------------------------------------------


def test_delta_eval_examples(fuzzy1):
    spec, g = fuzzy1.calculus, fuzzy1.metric
    one = AlgebraElement.unit(spec.backend)
    assert (metric_eval(g, spec.basis_tensor(0, 0)) - one).norm() <= TOL
    assert metric_eval(g, spec.basis_tensor(0, 1)).norm() <= TOL


def test_eval_flip_invariant(fuzzy1, torus_twisted):
    rng = np.random.default_rng(0)
    for model in (fuzzy1, torus_twisted):
        spec, g = model.calculus, model.metric
        for _ in range(10):
            t = random_tensor_square(spec, rng)
            d = wide_sum([metric_eval(g, sigma(t)), -metric_eval(g, t)])
            assert d.norm() <= 10 * TOL


def test_eval_bilinear(fuzzy1):
    spec, g = fuzzy1.calculus, fuzzy1.metric
    rng = np.random.default_rng(1)
    t = random_tensor_square(spec, rng)
    a = random_element(spec.backend, rng)
    left = wide_sum([metric_eval(g, t.left_mul(a)), -wide_mul(a, metric_eval(g, t))])
    right = wide_sum([metric_eval(g, t.right_mul(a)), -wide_mul(metric_eval(g, t), a)])
    assert left.norm() <= 1e-10 and right.norm() <= 1e-10


# -- V_g ---------------------------------------------------------------------------


def test_v_g_delta_coordinates(fuzzy1):
    spec, g = fuzzy1.calculus, fuzzy1.metric
    phi = v_g(g, spec.basis_one_form(1))
    assert phi.coeffs[0].norm() <= TOL
    assert (phi.coeffs[1] - AlgebraElement.unit(spec.backend)).norm() <= TOL


def test_v_g_inverse_diagonal(fuzzy1):
    spec = fuzzy1.calculus
    g = MetricSpec.from_scalar_matrix(spec, np.diag([2.0, 1.0, 1.0]))
    unit = AlgebraElement.unit(spec.backend)
    zero = AlgebraElement.zero(spec.backend)
    phi = Functional([unit, zero, zero])
    w = v_g_inverse(g, phi)
    assert (w.coeffs[0] - unit * 0.5).norm() <= TOL
    assert w.coeffs[1].norm() <= TOL


def test_v_g_roundtrips(fuzzy1, torus_comm):
    rng = np.random.default_rng(2)
    for model in (fuzzy1, torus_comm):
        spec, g = model.calculus, model.metric
        for _ in range(10):
            w = random_one_form(spec, rng)
            back = v_g_inverse(g, v_g(g, w))
            assert max(wide_sum([a, -b]).norm()
                       for a, b in zip(back.coeffs, w.coeffs)) <= 1e-9


def test_singular_metric_zero_row(fuzzy1):
    spec = fuzzy1.calculus
    with pytest.raises(SingularMetric):
        MetricSpec.from_scalar_matrix(spec, np.diag([1.0, 1.0, 0.0]))


def test_singular_metric_vanishing_component(torus_comm):
    # phi = 1 - cos(2 pi x_3) vanishes on the torus: not invertible
    spec = torus_comm.calculus
    be = spec.backend
    unit = AlgebraElement.unit(be)
    zero = AlgebraElement.zero(be)
    phi = unit + AlgebraElement.from_modes(be, {(0, 0, 1): -0.5, (0, 0, -1): -0.5})
    with pytest.raises(SingularMetric):
        MetricSpec(spec, [[unit, zero, zero], [zero, unit, zero], [zero, zero, phi]])


def test_noncentral_component_rejected(fuzzy1):
    spec = fuzzy1.calculus
    unit = AlgebraElement.unit(spec.backend)
    zero = AlgebraElement.zero(spec.backend)
    rng = np.random.default_rng(3)
    bad = random_element(spec.backend, rng)
    with pytest.raises(NonCentralResult):
        MetricSpec(spec, [[unit, zero, zero], [zero, unit, zero], [zero, zero, bad]])


def test_first_failing_component_is_named_in_row_major_order(fuzzy1, torus_twisted):
    for model in (fuzzy1, torus_twisted):
        spec = model.calculus
        unit = AlgebraElement.unit(spec.backend)
        zero = AlgebraElement.zero(spec.backend)
        if spec.backend.kind == "matrix":
            bad = random_element(spec.backend, np.random.default_rng(4))
            bad = bad + bad.star()
        else:
            bad = AlgebraElement.from_modes(spec.backend, {(1, 0, 0): 0.1, (-1, 0, 0): 0.1})
        rows = [[unit, zero, zero], [zero, unit, bad], [zero, bad, bad]]
        with pytest.raises(NonCentralResult, match=r"component \(1,2\)"):
            MetricSpec(spec, rows)
        # where one component fails both checks, centrality is named
        rows = [[unit, bad, zero], [zero, unit, zero], [zero, zero, unit]]
        with pytest.raises(NonCentralResult, match=r"component \(0,1\)"):
            MetricSpec(spec, rows)
        # an earlier asymmetric central pair is named before a later non-central one
        rows = [[unit, unit, zero], [zero, unit, zero], [zero, zero, bad]]
        with pytest.raises(ValueError, match=r"not symmetric at \(0,1\)"):
            MetricSpec(spec, rows)


# -- canonical metric -----------------------------------------------------------------


def test_canonical_metric_fuzzy_is_delta(fuzzy1, fuzzy2):
    for model in (fuzzy1, fuzzy2):
        s = model.metric.component_scalars()
        assert np.max(np.abs(s - np.eye(3))) <= 1e-12
        assert_constant(c for row in model.metric.components for c in row)


def test_canonical_metric_heisenberg_is_delta(heis):
    s = heis.metric.component_scalars()
    assert np.max(np.abs(s - np.eye(3))) <= 1e-12


def test_canonical_metric_torus_is_delta(torus_comm, torus_twisted):
    for model in (torus_comm, torus_twisted):
        s = model.metric.component_scalars()
        assert np.max(np.abs(s - np.eye(3))) <= 1e-12
        assert_constant(c for row in model.metric.components for c in row)


def test_canonical_torus_metric_is_the_frame_trace_zero_mode():
    # g_ij is the zero mode tr(s_i s_j) / w and nothing else, stored exactly
    for m in (3, 4, 5):
        model = torus_bundle(m, m - 1, np.zeros((m - 1, m - 1)), radius=2)
        ops = gamma_matrices(m)
        for i in range(m):
            for j in range(m):
                w = complex(np.trace(ops[i] @ ops[j])) / ops[0].shape[0]
                el = model.metric.components[i][j]
                keep = 1 if w != 0.0 else 0
                assert np.array_equal(el.mode_array, np.zeros((keep, m), dtype=np.int64))
                assert el.coeff_array.tolist() == [w] * keep


def test_canonical_metric_positivity_diagnostic(fuzzy1):
    s = fuzzy1.metric.component_scalars()
    assert np.all(np.linalg.eigvalsh(0.5 * (s + s.conj().T)) > 0.0)


# -- g2 ---------------------------------------------------------------------------------


def test_g2_delta_examples(fuzzy1):
    spec, g = fuzzy1.calculus, fuzzy1.metric
    one = AlgebraElement.unit(spec.backend)
    val = g2_eval(g, spec.basis_tensor(0, 1), spec.basis_tensor(1, 0))
    assert (val - one).norm() <= TOL
    assert g2_eval(g, spec.basis_tensor(0, 1), spec.basis_tensor(0, 1)).norm() <= TOL


def test_g2_flip_adjoint(fuzzy1, torus_twisted):
    rng = np.random.default_rng(4)
    for model in (fuzzy1, torus_twisted):
        spec, g = model.calculus, model.metric
        for _ in range(5):
            s = random_tensor_square(spec, rng)
            t = random_tensor_square(spec, rng)
            d = wide_sum([g2_eval(g, sigma(s), t), -g2_eval(g, s, sigma(t))])
            assert d.norm() <= 1e-9


def test_v_g2_matrix_n2_permutation():
    model = torus_bundle(2, 2, np.zeros((2, 2)), radius=2)
    m = v_g2_matrix(model.metric)
    assert_constant(e for row in m.entries for e in row)
    mat = np.array([[trace(e) for e in row] for row in m.entries])
    # delta metric: M[(k,l),(i,j)] = delta_li delta_kj, the swap matrix
    expected = np.zeros((4, 4))
    for k in range(2):
        for l in range(2):
            expected[k * 2 + l, l * 2 + k] = 1.0
    assert np.max(np.abs(mat - expected)) <= TOL
    assert np.max(np.abs(mat @ mat - np.eye(4))) <= TOL


def test_v_g2_sigma_conjugation(fuzzy1, torus_twisted):
    for model in (fuzzy1, torus_twisted):
        m = v_g2_matrix(model.metric)
        n = model.calculus.rank
        worst = 0.0
        for k in range(n):
            for l in range(n):
                for i in range(n):
                    for j in range(n):
                        d = wide_sum([m.entry((l, k), (i, j)), -m.entry((k, l), (j, i))])
                        worst = max(worst, d.norm())
        assert worst <= 10 * TOL


def test_hilbert_module_identity(fuzzy1):
    # <<x, y>>_{g2} computed through the conjugate-swap S(e (x) f) = fbar (x) ebar
    # matches g2(S(x) (x) y) on the self-adjoint central basis
    spec, g = fuzzy1.calculus, fuzzy1.metric
    rng = np.random.default_rng(5)
    n = spec.rank
    for _ in range(5):
        x = random_tensor_square(spec, rng)
        y = random_tensor_square(spec, rng)
        # S(sum e_k (x) e_l x_kl) has coefficients x_lk^* on the self-adjoint frame
        sx = TensorSquare([[star(x.coeffs[j][i]) for j in range(n)] for i in range(n)])
        lhs = g2_eval(g, sx, y)
        # <<f, <<e, e'>>_g f'>>_g unwound on coefficients for the delta metric:
        # <<x, y>>_{g2} = sum_kl x_kl^* y_kl
        rhs = wide_sum([wide_mul(star(x.coeffs[k][l]), y.coeffs[k][l])
                        for k in range(n) for l in range(n)])
        assert wide_sum([lhs, -rhs]).norm() <= 1e-9


def test_functional_evaluation_contract(fuzzy1):
    # phi(sum e_i a_i) = sum phi_i a_i
    spec = fuzzy1.calculus
    rng = np.random.default_rng(6)
    phis = [random_element(spec.backend, rng) for _ in range(3)]
    phi = Functional(phis)
    w = random_one_form(spec, rng)
    got = phi(w)
    want = wide_sum([wide_mul(p, a) for p, a in zip(phis, w.coeffs)])
    assert wide_sum([got, -want]).norm() <= TOL


def test_v_g_inverse_then_v_g(fuzzy1, torus_comm):
    rng = np.random.default_rng(7)
    for model in (fuzzy1, torus_comm):
        spec, g = model.calculus, model.metric
        phis = Functional([random_element(spec.backend, rng) for _ in range(3)])
        back = v_g(g, v_g_inverse(g, phis))
        assert max(wide_sum([a, -b]).norm()
                   for a, b in zip(back.coeffs, phis.coeffs)) <= 1e-9
