import numpy as np
import pytest

from conftest import basis_one_form, basis_tensor, cosine_metric
from nclevi.algebra import (
    AlgebraElement,
    BackendDescriptor,
    random_element,
    star,
    trace,
    wide_mul,
    wide_sum,
)
from nclevi.calculus import (
    OneForm,
    TensorSquare,
    left_mul_many,
    random_one_form,
    random_tensor_square,
    right_mul_many,
    sigma,
)
from nclevi.errors import NonCentralResult, SingularMetric
from nclevi.metric import (
    Functional,
    MetricSpec,
    TorusGrid,
    central_element,
    g2_eval_many,
    metric_eval_many,
    v_g2_matrix,
    v_g_inverse_many,
    v_g_many,
)
from nclevi.models import gamma_matrices, pauli_matrices, torus_bundle
from nclevi.solver import koszul_oracle, levi_civita

TOL = 1e-12


def scalars(g):
    """The traces of the metric components (exact for constant metrics)."""
    return np.array([[trace(c) for c in row] for row in g.components])


def assert_constant(elements):
    """Each element is its trace times the unit."""
    for el in elements:
        assert (el - AlgebraElement.unit(el.backend) * trace(el)).norm() <= 10 * TOL


# -- metric_eval_many ------------------------------------------------------------------


def test_delta_eval_examples(fuzzy1):
    spec, g = fuzzy1.calculus, fuzzy1.metric
    one = AlgebraElement.unit(spec.backend)
    diagonal, off = metric_eval_many(g, [basis_tensor(spec, 0, 0), basis_tensor(spec, 0, 1)])
    assert (diagonal - one).norm() <= TOL
    assert off.norm() <= TOL


def test_eval_flip_invariant(fuzzy1, torus_twisted):
    rng = np.random.default_rng(0)
    for model in (fuzzy1, torus_twisted):
        spec, g = model.calculus, model.metric
        for _ in range(10):
            t = random_tensor_square(spec, rng)
            g_sig, g_t = metric_eval_many(g, [sigma(t), t])
            d = wide_sum([g_sig, -g_t])
            assert d.norm() <= 10 * TOL


def test_eval_bilinear(fuzzy1):
    spec, g = fuzzy1.calculus, fuzzy1.metric
    rng = np.random.default_rng(1)
    t = random_tensor_square(spec, rng)
    a = random_element(spec.backend, rng)
    g_left, g_t, g_right = metric_eval_many(
        g, left_mul_many([(a, t)]) + [t] + right_mul_many([(t, a)]))
    left = wide_sum([g_left, -wide_mul(a, g_t)])
    right = wide_sum([g_right, -wide_mul(g_t, a)])
    assert left.norm() <= 1e-10 and right.norm() <= 1e-10


# -- V_g ---------------------------------------------------------------------------


def test_v_g_delta_coordinates(fuzzy1):
    spec, g = fuzzy1.calculus, fuzzy1.metric
    phi = v_g_many(g, [basis_one_form(spec, 1)])[0]
    assert phi.coeffs[0].norm() <= TOL
    assert (phi.coeffs[1] - AlgebraElement.unit(spec.backend)).norm() <= TOL


def test_v_g_inverse_diagonal(fuzzy1):
    spec = fuzzy1.calculus
    g = MetricSpec.from_scalar_matrix(spec, np.diag([2.0, 1.0, 1.0]))
    unit = AlgebraElement.unit(spec.backend)
    zero = AlgebraElement.zero(spec.backend)
    phi = Functional([unit, zero, zero])
    w = v_g_inverse_many(g, [phi])[0]
    assert (w.coeffs[0] - unit * 0.5).norm() <= TOL
    assert w.coeffs[1].norm() <= TOL


def test_v_g_roundtrips(fuzzy1, torus_comm, edge_metric):
    rng = np.random.default_rng(2)
    cases = [(model.metric, random_one_form(model.calculus, rng))
             for model in (fuzzy1, torus_comm) for _ in range(10)]
    # the inverse reaches beyond R, and so do its products with edge modes
    _, edge_g, edge_omega = edge_metric
    cases.append((edge_g, OneForm(edge_omega)))
    for g, w in cases:
        back = v_g_inverse_many(g, v_g_many(g, [w]))[0]
        assert max(wide_sum([a, -b]).norm()
                   for a, b in zip(back.coeffs, w.coeffs)) <= 1e-9


@pytest.mark.parametrize("radius", [2, 3, 5])
def test_computed_component_beyond_radius_builds_and_solves(radius):
    # R bounds outside input only: a computed component reaching R + 1 is a
    # metric like any other, and both routes and the Koszul oracle agree on it
    model = torus_bundle(3, 2, np.zeros((2, 2)), radius)
    be = model.backend
    edge = AlgebraElement.from_modes(be, {(0, 0, radius): 1.0, (0, 0, -radius): 1.0})
    near = AlgebraElement.from_modes(be, {(0, 0, 1): 1.0, (0, 0, -1): 1.0})
    wide = wide_mul(edge, near)
    assert wide.support_radius() == radius + 1
    unit, zero = AlgebraElement.unit(be), AlgebraElement.zero(be)
    g = MetricSpec(model.calculus, [[unit, zero, zero], [zero, unit, zero],
                                    [zero, zero, unit + wide * 1e-3]])
    res = levi_civita(model.calculus, g, route="both")
    assert res.torsion_residual <= 1e-12 and res.compat_residual <= 1e-12
    assert res.route_difference <= 1e-12
    assert res.connection.difference_norm(koszul_oracle(model.calculus, g)) <= 1e-10


def test_singular_metric_zero_row(fuzzy1):
    spec = fuzzy1.calculus
    with pytest.raises(SingularMetric):
        MetricSpec.from_scalar_matrix(spec, np.diag([1.0, 1.0, 0.0]))


def test_singular_value_floor_from_both_sides(heis):
    # the 1e-8 floor on the relative singular value: 3e-8 builds, 3e-9 is refused
    MetricSpec.from_scalar_matrix(heis.calculus, np.diag([1.0, 1.0, 3e-8]))
    with pytest.raises(SingularMetric, match=r"relative singular value 3\.000e-09"):
        MetricSpec.from_scalar_matrix(heis.calculus, np.diag([1.0, 1.0, 3e-9]))


def test_singular_metric_vanishing_component(torus_comm):
    # phi = 1 - cos(2 pi x_3) vanishes on the torus: not invertible
    spec = torus_comm.calculus
    be = spec.backend
    unit = AlgebraElement.unit(be)
    zero = AlgebraElement.zero(be)
    phi = unit + AlgebraElement.from_modes(be, {(0, 0, 1): -0.5, (0, 0, -1): -0.5})
    with pytest.raises(SingularMetric):
        MetricSpec(spec, [[unit, zero, zero], [zero, unit, zero], [zero, zero, phi]])


def test_slow_inverse_on_two_coordinates_is_built():
    # the inverse reaches 55 along each coordinate, far beyond R = 3: the
    # metric sizes its grid and keeps growing it until the read-back settles
    model = torus_bundle(4, 2, np.zeros((2, 2)), radius=3)
    g = cosine_metric(model, 0.9, [2, 3])
    assert max(c.support_radius() for row in g.inverse_components for c in row) == 55
    for c in (2, 3):
        one = wide_mul(g.components[c][c], g.inverse_components[c][c])
        assert (one - AlgebraElement.unit(model.backend)).norm() <= 1e-10


@pytest.mark.parametrize("radius", [1, 4])
def test_inverse_that_does_not_decay_is_refused_whatever_the_radius(radius):
    # 1 + a cos(2 pi x_2) with a = 1 - 1e-7 nearly vanishes: its inverse needs
    # more grid points than the budget, at any radius
    model = torus_bundle(3, 2, np.zeros((2, 2)), radius)
    with pytest.raises(SingularMetric, match="grid budget") as err:
        cosine_metric(model, 1 - 1e-7, [2])
    assert "radius" not in str(err.value)


def reference_read_back(grid, values, backend, floor):
    """`TorusGrid.read_back` row by row: each row's kept modes, in grid order,
    through `central_element`, which sorts every row on its own."""
    d = len(grid.coords)
    coeffs = np.fft.fftn(values.reshape((len(values),) + (grid.size,) * d),
                         axes=range(1, d + 1)).reshape(len(values), -1) / grid.points
    idx = np.indices((grid.size,) * d).reshape(d, grid.points)
    modes = np.zeros((grid.points, backend.dim), dtype=np.int64)
    modes[:, list(grid.coords)] = np.where(idx > grid.size // 2, idx - grid.size, idx).T
    keep = np.abs(coeffs) > floor
    dropped = float(np.max(np.abs(coeffs), where=~keep, initial=0.0))
    return [central_element(backend, modes[k], row[k]) for k, row in zip(keep, coeffs)], dropped


@pytest.mark.parametrize("coords, size", [((1,), 4), ((1,), 7), ((0, 2), 4), ((0, 2), 5),
                                          ((0, 1, 2), 4), ((0, 1, 2), 3)])
def test_read_back_is_the_per_row_central_element_bit_for_bit(coords, size):
    # one sort of the grid's modes gives every row the bytes of its own sort; on a
    # grid of 4, integer samples have exact coefficients, exact zeros among them,
    # and a floor equal to a coefficient's modulus drops that coefficient
    backend = BackendDescriptor.graded(3, np.zeros((3, 3)), 1)
    grid = TorusGrid(coords, size)
    rng = np.random.default_rng(size)
    # 1 on the first half of the first axis: on a grid of 4, (1, 1, 0, 0) along it
    half = (np.indices((size,) * len(coords))[0] < size // 2).ravel()
    values = np.stack([np.zeros(grid.points), np.ones(grid.points), half,
                       rng.integers(-1, 3, grid.points),
                       rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)])
    full, _ = reference_read_back(grid, values, backend, 0.0)
    if size == 4:
        assert 0 < len(full[2].coeff_array) < grid.points
    for floor in (0.0, 1e-16, float(np.abs(full[2].coeff_array[-1])),
                  float(np.abs(full[4].coeff_array[0]))):
        got, dropped = grid.read_back(values, backend, floor)
        want, want_dropped = reference_read_back(grid, values, backend, floor)
        assert dropped == want_dropped
        for x, y in zip(got, want, strict=True):
            assert np.array_equal(x.mode_array, y.mode_array)
            assert np.array_equal(x.coeff_array.view(np.uint64), y.coeff_array.view(np.uint64))
            assert x.support_radius() == y.support_radius()
            assert not (x.mode_array.flags.writeable or x.coeff_array.flags.writeable)


def test_noncentral_component_rejected(fuzzy1):
    spec = fuzzy1.calculus
    unit = AlgebraElement.unit(spec.backend)
    zero = AlgebraElement.zero(spec.backend)
    rng = np.random.default_rng(3)
    bad = random_element(spec.backend, rng)
    with pytest.raises(NonCentralResult):
        MetricSpec(spec, [[unit, zero, zero], [zero, unit, zero], [zero, zero, bad]])


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, -np.inf)])
def test_non_finite_central_component_is_refused(fuzzy2, bad):
    # the finiteness check reads a central form's two entries, not its full matrix
    spec = fuzzy2.calculus
    unit = AlgebraElement.unit(spec.backend)
    zero = AlgebraElement.zero(spec.backend)
    with np.errstate(invalid="ignore"):     # inf times the off-diagonal zero is NaN
        odd = unit * bad
    assert odd.central_form is not None
    with pytest.raises(ValueError, match=r"component \(1,1\) is not finite"):
        MetricSpec(spec, [[unit, zero, zero], [zero, odd, zero], [zero, zero, unit]])


def test_first_failing_component_is_named_in_row_major_order(fuzzy1, torus_twisted):
    for model in (fuzzy1, torus_twisted):
        spec = model.calculus
        unit = AlgebraElement.unit(spec.backend)
        zero = AlgebraElement.zero(spec.backend)
        if spec.backend.kind == "matrix":
            bad = random_element(spec.backend, np.random.default_rng(4))
            bad = bad + star(bad)
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
        s = scalars(model.metric)
        assert np.max(np.abs(s - np.eye(3))) <= 1e-12
        assert_constant(c for row in model.metric.components for c in row)


def test_canonical_metric_heisenberg_is_delta(heis):
    s = scalars(heis.metric)
    assert np.max(np.abs(s - np.eye(3))) <= 1e-12


def test_canonical_metric_torus_is_delta(torus_comm, torus_twisted):
    for model in (torus_comm, torus_twisted):
        s = scalars(model.metric)
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


def test_canonical_metric_is_the_kronecker_partial_trace(fuzzy1, fuzzy2, heis):
    """Reference: realize e_i as the 2N x 2N operator 1_N (x) s_i and solve
    tau(g_ij c) = tau(e_i e_j c) over the matrix units by the partial trace over
    the spinor factor; the shipped components are those matrices, byte for byte,
    and satisfy the trace equation for random c."""
    ops = pauli_matrices()
    w = ops[0].shape[0]
    rng = np.random.default_rng(7)
    for model in (fuzzy1, fuzzy2, heis):
        size = model.backend.size
        frame = [np.kron(np.eye(size), s) for s in ops]
        for i in range(3):
            for j in range(3):
                prod = frame[i] @ frame[j]
                want = np.einsum("asbs->ab", prod.reshape(size, w, size, w)) / w
                got = model.metric.components[i][j].matrix
                assert got.tobytes() == want.tobytes()
                for _ in range(3):
                    c = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
                    lhs = np.trace(got @ c) / size
                    rhs = np.trace(prod @ np.kron(c, np.eye(w))) / (size * w)
                    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_canonical_metric_positivity_diagnostic(fuzzy1):
    s = scalars(fuzzy1.metric)
    assert np.all(np.linalg.eigvalsh(0.5 * (s + s.conj().T)) > 0.0)


# -- g2 ---------------------------------------------------------------------------------


def test_g2_delta_examples(fuzzy1):
    spec, g = fuzzy1.calculus, fuzzy1.metric
    one = AlgebraElement.unit(spec.backend)
    e01, e10 = basis_tensor(spec, 0, 1), basis_tensor(spec, 1, 0)
    val, crossed = g2_eval_many(v_g2_matrix(g), [(e01, e10), (e01, e01)])
    assert (val - one).norm() <= TOL
    assert crossed.norm() <= TOL


def test_g2_flip_adjoint(fuzzy1, torus_twisted):
    rng = np.random.default_rng(4)
    for model in (fuzzy1, torus_twisted):
        spec, g = model.calculus, model.metric
        for _ in range(5):
            s = random_tensor_square(spec, rng)
            t = random_tensor_square(spec, rng)
            lhs, rhs = g2_eval_many(v_g2_matrix(g), [(sigma(s), t), (s, sigma(t))])
            d = wide_sum([lhs, -rhs])
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
        lhs = g2_eval_many(v_g2_matrix(g), [(sx, y)])[0]
        # <<f, <<e, e'>>_g f'>>_g unwound on coefficients for the delta metric:
        # <<x, y>>_{g2} = sum_kl x_kl^* y_kl
        rhs = wide_sum([wide_mul(star(x.coeffs[k][l]), y.coeffs[k][l])
                        for k in range(n) for l in range(n)])
        assert wide_sum([lhs, -rhs]).norm() <= 1e-9


def test_v_g_inverse_then_v_g(fuzzy1, torus_comm):
    rng = np.random.default_rng(7)
    for model in (fuzzy1, torus_comm):
        spec, g = model.calculus, model.metric
        phis = Functional([random_element(spec.backend, rng) for _ in range(3)])
        back = v_g_many(g, v_g_inverse_many(g, [phis]))[0]
        assert max(wide_sum([a, -b]).norm()
                   for a, b in zip(back.coeffs, phis.coeffs)) <= 1e-9
