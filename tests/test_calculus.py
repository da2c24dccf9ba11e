import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nclevi.algebra import AlgebraElement, random_element, trace, wide_mul, wide_sum
from nclevi.calculus import (
    TensorSquare,
    p_sym,
    random_one_form,
    random_tensor_square,
    sigma,
)
from nclevi.errors import NoSolution
from nclevi.models import torus_bundle

TOL = 1e-12


# -- d0 ------------------------------------------------------------------------


def test_d0_kills_unit(fuzzy1, heis, torus_comm):
    for model in (fuzzy1, heis, torus_comm):
        one = AlgebraElement.unit(model.backend)
        assert model.calculus.d0(one).norm() <= TOL


def test_d0_torus_mode(torus_comm):
    spec = torus_comm.calculus
    u = AlgebraElement.single_mode(spec.backend, (1, 0, 0))
    df = spec.d0(u)
    assert (df.coeffs[0] - 2j * np.pi * u).norm() <= TOL
    assert df.coeffs[1].norm() <= TOL and df.coeffs[2].norm() <= TOL


def test_d0_leibniz_fuzzy(fuzzy1):
    spec = fuzzy1.calculus
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b = random_element(spec.backend, rng), random_element(spec.backend, rng)
        lhs = spec.d0(wide_mul(a, b))
        rhs_coeffs = [wide_sum([wide_mul(da, b), wide_mul(a, db)])
                      for da, db in zip(spec.d0(a).coeffs, spec.d0(b).coeffs)]
        worst = max(wide_sum([x, -y]).norm() for x, y in zip(lhs.coeffs, rhs_coeffs))
        assert worst <= 1e-10


# -- wedge -----------------------------------------------------------------------


def test_wedge_symmetric_pairs_vanish(fuzzy1):
    spec = fuzzy1.calculus
    t = spec.basis_tensor(0, 1) + spec.basis_tensor(1, 0)
    assert spec.wedge(t).norm() <= TOL
    assert spec.wedge(spec.basis_tensor(0, 0)).norm() <= TOL


def test_wedge_basis_pair(fuzzy1):
    spec = fuzzy1.calculus
    b = spec.wedge(spec.basis_tensor(0, 1))
    # f_(1,2) has coefficient +1, the two other slots vanish
    assert abs(trace(b.coeffs[0]) - 1.0) <= TOL
    assert b.coeffs[1].norm() <= TOL and b.coeffs[2].norm() <= TOL


def test_wedge_right_linear(fuzzy1):
    spec = fuzzy1.calculus
    rng = np.random.default_rng(1)
    t = random_tensor_square(spec, rng)
    a = random_element(spec.backend, rng)
    lhs = spec.wedge(t.right_mul(a))
    rhs = spec.wedge(t).right_mul(a)
    assert max(wide_sum([x, -y]).norm() for x, y in zip(lhs.coeffs, rhs.coeffs)) <= 1e-10


# -- d1 -----------------------------------------------------------------------------


def test_d1_of_d0_vanishes(fuzzy1, heis, torus_twisted):
    rng = np.random.default_rng(2)
    for model in (fuzzy1, heis, torus_twisted):
        spec = model.calculus
        for _ in range(5):
            a = random_element(spec.backend, rng)
            assert spec.d1(spec.d0(a)).norm() <= 1e-10


def test_d1_basis_fuzzy_matches_exterior_constants(fuzzy1):
    spec = fuzzy1.calculus
    for i in range(3):
        tf = spec.d1(spec.basis_one_form(i))
        for alpha in range(3):
            assert abs(trace(tf.coeffs[alpha])
                       - spec.exterior_constants[alpha, i]) <= TOL
    # the exterior constants implement Gamma^i_jk - Gamma^i_kj = i eps^ijk:
    # on the (j,k) slot d(e_i) carries -i eps^ijk
    pairs = [(0, 1), (0, 2), (1, 2)]
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[i, k, j] = -1.0
    for a, (j, k) in enumerate(pairs):
        for i in range(3):
            assert abs(spec.exterior_constants[a, i] - (-1j) * eps[i, j, k]) <= TOL


def test_d1_basis_torus_vanishes(torus_comm):
    spec = torus_comm.calculus
    for i in range(3):
        assert spec.d1(spec.basis_one_form(i)).norm() <= TOL


def test_d1_leibniz(torus_twisted):
    spec = torus_twisted.calculus
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = random_one_form(spec, rng)
        a = random_element(spec.backend, rng)
        lhs = spec.d1(w.right_mul(a))
        da = spec.d0(a)
        n = spec.rank
        hook = TensorSquare([[wide_mul(w.coeffs[i], da.coeffs[k]) for k in range(n)]
                             for i in range(n)])
        rhs = spec.d1(w).right_mul(a) - spec.wedge(hook)
        assert max(wide_sum([x, -y]).norm()
                   for x, y in zip(lhs.coeffs, rhs.coeffs)) <= 1e-9


# -- flip and symmetrizer ---------------------------------------------------------------


def test_sigma_swaps_basis(fuzzy1):
    spec = fuzzy1.calculus
    rng = np.random.default_rng(4)
    a = random_element(spec.backend, rng)
    t = spec.basis_tensor(0, 1).right_mul(a)
    flipped = sigma(t)
    assert (flipped.coeffs[1][0] - a).norm() <= TOL
    assert flipped.coeffs[0][1].norm() <= TOL


def test_p_sym_examples(fuzzy1):
    spec = fuzzy1.calculus
    t = spec.basis_tensor(0, 1)
    half = p_sym(t)
    assert abs(trace(half.coeffs[0][1]) - 0.5) <= TOL
    assert abs(trace(half.coeffs[1][0]) - 0.5) <= TOL
    anti = spec.basis_tensor(0, 1) - spec.basis_tensor(1, 0)
    assert p_sym(anti).norm() <= TOL


_IDX = st.integers(0, 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=2, allow_nan=False,
                                   allow_infinity=False), min_size=9, max_size=9))
def test_sigma_laws_property(vals):
    spec = torus_bundle(3, 2, np.array([[0.0, 0.2], [-0.2, 0.0]]), radius=2).calculus
    unit = AlgebraElement.unit(spec.backend)
    t = TensorSquare([[unit * vals[3 * i + j] for j in range(3)] for i in range(3)])
    assert (sigma(sigma(t)) - t).norm() <= TOL
    assert (p_sym(p_sym(t)) - p_sym(t)).norm() <= TOL
    assert spec.wedge(p_sym(t)).norm() <= 10 * TOL


def test_sigma_bimodule_map(torus_twisted):
    spec = torus_twisted.calculus
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = random_tensor_square(spec, rng)
        a = random_element(spec.backend, rng)
        assert (sigma(t.right_mul(a)) - sigma(t).right_mul(a)).norm() <= TOL
        assert (sigma(t.left_mul(a)) - sigma(t).left_mul(a)).norm() <= TOL


def test_wedge_psym_on_random(fuzzy1):
    spec = fuzzy1.calculus
    rng = np.random.default_rng(6)
    for _ in range(100):
        t = random_tensor_square(spec, rng)
        assert spec.wedge(p_sym(t)).norm() <= 10 * TOL


def test_decomposition_reconstructs(fuzzy1, torus_comm):
    rng = np.random.default_rng(7)
    for model in (fuzzy1, torus_comm):
        spec = model.calculus
        for _ in range(10):
            t = random_tensor_square(spec, rng)
            anti = t - p_sym(t)
            rebuilt = spec.wedge_section(spec.wedge(t))
            assert (rebuilt - anti).norm() <= 1e-9
            assert spec.wedge(p_sym(t)).norm() <= 1e-10


def test_wedge_section_rejects_unreachable():
    # rank-2 calculus has a 1-dim two-form space; feeding a two-form built on a
    # 3-slot basis is impossible, so exercise the residual guard via a zero map
    spec = torus_bundle(2, 2, np.zeros((2, 2)), radius=2).calculus
    from nclevi.calculus import TwoForm
    good = TwoForm([AlgebraElement.unit(spec.backend)])
    t = spec.wedge_section(good)
    assert (spec.wedge(t) - good).norm() <= 1e-10


# -- braid -----------------------------------------------------------------------------


def test_braid_check_rank3(fuzzy1):
    report = fuzzy1.calculus.braid_check()
    assert report.braid_residual <= TOL
    assert report.dim_ran_p23 == 3 * 6 == 18
    assert report.dim_ran_p12 == 18
    assert report.rank_p12_on_ran_p23 == 18
    assert report.rank_p23_on_ran_p12 == 18
    assert report.bijective


def test_braid_check_rank1():
    spec = torus_bundle(1, 1, np.zeros((1, 1)), radius=2).calculus
    report = spec.braid_check()
    assert report.braid_residual <= TOL
    assert report.dim_ran_p12 == report.dim_ran_p23 == 1
    assert report.bijective


def test_sigma_fixes_symmetric_matrix(fuzzy1):
    spec = fuzzy1.calculus
    rng = np.random.default_rng(10)
    t = random_tensor_square(spec, rng)
    sym = p_sym(t)
    assert (sigma(sym) - sym).norm() <= TOL
