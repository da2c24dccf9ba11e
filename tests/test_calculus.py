import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis_one_form, basis_tensor
from nclevi import algebra
from nclevi.algebra import (
    AlgebraElement,
    DerivationSpec,
    random_elements,
    trace,
    wide_mul,
    wide_sum,
    worst,
)
from nclevi.calculus import (
    CalculusSpec,
    TensorSquare,
    TwoForm,
    left_mul_many,
    p_sym_many,
    random_samples,
    right_mul_many,
    sigma,
    subtract_many,
    worst_difference,
)
from nclevi.errors import NoSolution
from nclevi.models import fuzzy_sphere, heisenberg, torus_bundle
from nclevi.solver import nabla0

TOL = 1e-12


# -- d0 ------------------------------------------------------------------------


def test_d0_kills_unit(fuzzy1, heis, torus_comm):
    for model in (fuzzy1, heis, torus_comm):
        one = AlgebraElement.unit(model.backend)
        assert model.calculus.d0_many([one])[0].norm() <= TOL


def test_d0_torus_mode(torus_comm):
    spec = torus_comm.calculus
    u = AlgebraElement.single_mode(spec.backend, (1, 0, 0))
    df = spec.d0_many([u])[0]
    assert (df.coeffs[0] - 2j * np.pi * u).norm() <= TOL
    assert df.coeffs[1].norm() <= TOL and df.coeffs[2].norm() <= TOL


def test_d0_leibniz_fuzzy(fuzzy1):
    spec = fuzzy1.calculus
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b = random_elements(spec.backend, rng, 2)
        lhs, d_a, d_b = spec.d0_many([wide_mul(a, b), a, b])
        rhs_coeffs = [wide_sum([wide_mul(da, b), wide_mul(a, db)])
                      for da, db in zip(d_a.coeffs, d_b.coeffs)]
        worst = max(wide_sum([x, -y]).norm() for x, y in zip(lhs.coeffs, rhs_coeffs))
        assert worst <= 1e-10


# -- wedge -----------------------------------------------------------------------


def test_wedge_symmetric_pairs_vanish(fuzzy1):
    spec = fuzzy1.calculus
    t = p_sym_many([basis_tensor(spec, 0, 1)])[0].scale(2.0)   # e_1 (x) e_2 + e_2 (x) e_1
    assert max(w.norm() for w in spec.wedge_many([t, basis_tensor(spec, 0, 0)])) <= TOL


def test_wedge_basis_pair(fuzzy1):
    spec = fuzzy1.calculus
    (b,) = spec.wedge_many([basis_tensor(spec, 0, 1)])
    # f_(1,2) has coefficient +1, the two other slots vanish
    assert abs(trace(b.coeffs[0]) - 1.0) <= TOL
    assert b.coeffs[1].norm() <= TOL and b.coeffs[2].norm() <= TOL


def test_wedge_right_linear(fuzzy1):
    spec = fuzzy1.calculus
    rng = np.random.default_rng(1)
    t, a = random_samples(spec, rng, 1, "ta")[0]
    (lhs,) = spec.wedge_many(right_mul_many([(t, a)]))
    (rhs,) = right_mul_many([(spec.wedge_many([t])[0], a)])
    assert max(wide_sum([x, -y]).norm() for x, y in zip(lhs.coeffs, rhs.coeffs)) <= 1e-10


# -- d1 -----------------------------------------------------------------------------


def test_d1_of_d0_vanishes(fuzzy1, heis, torus_twisted):
    rng = np.random.default_rng(2)
    for model in (fuzzy1, heis, torus_twisted):
        spec = model.calculus
        for _ in range(5):
            a = random_elements(spec.backend, rng, 1)[0]
            assert spec.d1_many(spec.d0_many([a]))[0].norm() <= 1e-10


def _d_squared_through_d0_d1(spec) -> float:
    return worst(w.norm() for w in spec.d1_many(spec.d0_many(spec.generators)))


@pytest.mark.parametrize("k", range(1, 6))
def test_d_squared_commutator_form_matches_d0_d1(k):
    # the inner derivations' Jacobi identity: d1(d0(a))^alpha = [W_alpha, a]
    spec = fuzzy_sphere(k).calculus
    assert abs(spec.d_squared_residual() - _d_squared_through_d0_d1(spec)) <= 1e-13
    # one exterior sign flipped: both forms see d compose d fail, and the build refuses it
    flipped = spec.exterior_constants.copy()
    flipped[0, 2] *= -1
    bad = copy.copy(spec)
    bad.exterior_constants = flipped
    assert bad.d_squared_residual() > 0.1 and _d_squared_through_d0_d1(bad) > 0.1
    with pytest.raises(ValueError, match="d compose d"):
        CalculusSpec(spec.rank, spec.two_form_rank, spec.wedge_constants, flipped,
                     spec.derivations, spec.backend, spec.generators)


def test_fuzzy_sphere_build_takes_6_dense_products(monkeypatch):
    # the d compose d check: [Y_k, Y_i] for 3 pairs, two products each; the bound
    # 2 N max|W_alpha| max|a| settles [W_alpha, a] without forming it, and the
    # metric's entries are 0 or I
    calls = []
    product = algebra._product
    monkeypatch.setattr(algebra, "_product", lambda *args: calls.append(1) or product(*args))
    fuzzy_sphere(5)
    assert len(calls) == 6


def _rebuild(spec, exterior=None, derivations=None, generators=None):
    return CalculusSpec(spec.rank, spec.two_form_rank, spec.wedge_constants,
                        spec.exterior_constants if exterior is None else exterior,
                        spec.derivations if derivations is None else derivations,
                        spec.backend, spec.generators if generators is None else generators)


def test_bound_does_not_settle_a_flipped_sign(monkeypatch):
    # one exterior sign flipped: W_alpha is large, so the bound settles nothing and
    # the build forms [W_alpha, a] for 3 two-forms and 5 generators after the brackets
    spec = fuzzy_sphere(5).calculus
    flipped = spec.exterior_constants.copy()
    flipped[0, 2] *= -1
    calls = []
    product = algebra._product
    monkeypatch.setattr(algebra, "_product", lambda *args: calls.append(1) or product(*args))
    with pytest.raises(ValueError, match="d compose d"):
        _rebuild(spec, exterior=flipped)
    assert len(calls) == 6 + 2 * 3 * 5


def test_d_squared_gate_from_both_sides():
    # exterior_constants[0, 0] moved by delta: the bound no longer settles the check,
    # and the exact commutators read delta / 2, which the 1e-11 gate takes at
    # delta = 1e-11 (5e-12) and refuses at delta = 5e-11 (2.5e-11)
    spec = fuzzy_sphere(1).calculus
    for delta, accepted in ((1e-11, True), (5e-11, False)):
        moved = spec.exterior_constants.copy()
        moved[0, 0] += delta
        if accepted:
            assert _rebuild(spec, exterior=moved).d_squared_residual() == pytest.approx(5e-12)
        else:
            with pytest.raises(ValueError, match=r"d compose d .*residual 2\.500e-11"):
                _rebuild(spec, exterior=moved)


def _nan_swapped(spec, where: str) -> dict:
    """The generators or the derivations of spec, the first holding one NaN entry."""
    elements = [g.matrix for g in spec.generators] if where == "generator" else \
        [d.element.matrix for d in spec.derivations]
    bad = elements[0].copy()
    bad[1, 2] = complex(np.nan, 0.0)
    swapped = [AlgebraElement.from_matrix(spec.backend, m) for m in [bad] + elements[1:]]
    if where == "generator":
        return {"generators": tuple(swapped)}
    return {"derivations": tuple(DerivationSpec.inner(x) for x in swapped)}


@pytest.mark.parametrize("where", ["generator", "derivation"])
def test_nan_entry_fails_the_d_squared_check(where):
    # a NaN bound settles nothing, and the exact residual is NaN, which no gate
    # passes; construction refuses a NaN element before this gate, so the gate
    # runs on a copy given one; k = 2, since at k = 1 every W_alpha is exactly zero
    bad = copy.copy(fuzzy_sphere(2).calculus)
    for name, value in _nan_swapped(bad, where).items():
        setattr(bad, name, value)
    with pytest.raises(ValueError, match="d compose d"):
        bad._validate()


@pytest.mark.parametrize("where", ["generator", "derivation"])
def test_non_finite_generator_or_derivation_is_refused(where):
    # at k = 1 every W_alpha is exactly zero, and the kernel skips an exactly
    # zero operand, so d compose d reads 0 with a NaN generator
    spec = fuzzy_sphere(1).calculus
    with pytest.raises(ValueError, match="generators and derivation elements must be finite"):
        _rebuild(spec, **_nan_swapped(spec, where))


@pytest.mark.parametrize("model", ["heisenberg", "fuzzy-sphere"])
@pytest.mark.parametrize("table", ["exterior", "wedge"])
def test_non_finite_constants_are_refused(model, table):
    spec = (heisenberg() if model == "heisenberg" else fuzzy_sphere(1)).calculus
    ext, wedge = spec.exterior_constants.copy(), spec.wedge_constants.copy()
    (ext if table == "exterior" else wedge)[0, 0] = np.nan if table == "exterior" else np.inf
    with pytest.raises(ValueError, match="must be finite"):
        CalculusSpec(spec.rank, spec.two_form_rank, wedge, ext, spec.derivations,
                     spec.backend, spec.generators)


def test_nabla0_refuses_a_nan_torsion_residual(heis):
    # exterior constants changed after construction: the torsion gate sees NaN
    bad = copy.copy(heis.calculus)
    bad.exterior_constants = np.full_like(bad.exterior_constants, np.nan)
    with pytest.raises(NoSolution, match="nan"):
        nabla0(bad)


def test_d1_basis_fuzzy_matches_exterior_constants(fuzzy1):
    spec = fuzzy1.calculus
    for i in range(3):
        tf = spec.d1_many([basis_one_form(spec, i)])[0]
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
        assert spec.d1_many([basis_one_form(spec, i)])[0].norm() <= TOL


def test_d1_leibniz(torus_twisted):
    spec = torus_twisted.calculus
    rng = np.random.default_rng(3)
    for _ in range(5):
        w, a = random_samples(spec, rng, 1, "wa")[0]
        lhs = spec.d1_many(right_mul_many([(w, a)]))[0]
        da = spec.d0_many([a])[0]
        n = spec.rank
        hook = TensorSquare([[wide_mul(w.coeffs[i], da.coeffs[k]) for k in range(n)]
                             for i in range(n)])
        (rhs,) = subtract_many([(right_mul_many([(spec.d1_many([w])[0], a)])[0],
                                 spec.wedge_many([hook])[0])])
        assert max(wide_sum([x, -y]).norm()
                   for x, y in zip(lhs.coeffs, rhs.coeffs)) <= 1e-9


# -- flip and symmetrizer ---------------------------------------------------------------


def test_sigma_swaps_basis(fuzzy1):
    spec = fuzzy1.calculus
    rng = np.random.default_rng(4)
    a = random_elements(spec.backend, rng, 1)[0]
    t = right_mul_many([(basis_tensor(spec, 0, 1), a)])[0]
    flipped = sigma(t)
    assert (flipped.coeffs[1][0] - a).norm() <= TOL
    assert flipped.coeffs[0][1].norm() <= TOL


def test_p_sym_examples(fuzzy1):
    spec = fuzzy1.calculus
    t = basis_tensor(spec, 0, 1)
    (anti,) = subtract_many([(t, basis_tensor(spec, 1, 0))])
    half, anti_half = p_sym_many([t, anti])
    assert abs(trace(half.coeffs[0][1]) - 0.5) <= TOL
    assert abs(trace(half.coeffs[1][0]) - 0.5) <= TOL
    assert anti_half.norm() <= TOL


_IDX = st.integers(0, 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=2, allow_nan=False,
                                   allow_infinity=False), min_size=9, max_size=9))
def test_sigma_laws_property(vals):
    spec = torus_bundle(3, 2, np.array([[0.0, 0.2], [-0.2, 0.0]]), radius=2).calculus
    unit = AlgebraElement.unit(spec.backend)
    t = TensorSquare([[unit * vals[3 * i + j] for j in range(3)] for i in range(3)])
    (sym,) = p_sym_many([t])
    assert worst_difference([(sigma(sigma(t)), t)]) <= TOL
    assert worst_difference([(p_sym_many([sym])[0], sym)]) <= TOL
    assert spec.wedge_many([sym])[0].norm() <= 10 * TOL


def test_sigma_bimodule_map(torus_twisted):
    spec = torus_twisted.calculus
    rng = np.random.default_rng(5)
    for _ in range(10):
        t, a = random_samples(spec, rng, 1, "ta")[0]
        right, sig_right = right_mul_many([(t, a), (sigma(t), a)])
        left, sig_left = left_mul_many([(a, t), (a, sigma(t))])
        assert worst_difference([(sigma(right), sig_right), (sigma(left), sig_left)]) <= TOL


def test_wedge_psym_on_random(fuzzy1):
    spec = fuzzy1.calculus
    rng = np.random.default_rng(6)
    ts = [t for t, in random_samples(spec, rng, 100, "t")]
    assert max(w.norm() for w in spec.wedge_many(p_sym_many(ts))) <= 10 * TOL


def test_decomposition_reconstructs(fuzzy1, torus_comm):
    rng = np.random.default_rng(7)
    for model in (fuzzy1, torus_comm):
        spec = model.calculus
        ts = [t for t, in random_samples(spec, rng, 10, "t")]
        sym = p_sym_many(ts)
        anti = subtract_many(list(zip(ts, sym)))
        rebuilt = spec.wedge_section_many(spec.wedge_many(ts))
        assert worst_difference(zip(rebuilt, anti)) <= 1e-9
        assert max(w.norm() for w in spec.wedge_many(sym)) <= 1e-10


def test_wedge_section_refuses_a_nan_two_form(heis):
    # the residual of a two-form holding NaN is NaN, which is not at most the tolerance
    unit = AlgebraElement.unit(heis.backend)
    with pytest.raises(NoSolution, match="nan"):
        heis.calculus.wedge_section_many([TwoForm([unit * np.nan, unit, unit])])


def test_wedge_section_rejects_unreachable():
    # rank-2 calculus has a 1-dim two-form space; feeding a two-form built on a
    # 3-slot basis is impossible, so exercise the residual guard via a zero map
    spec = torus_bundle(2, 2, np.zeros((2, 2)), radius=2).calculus
    good = TwoForm([AlgebraElement.unit(spec.backend)])
    t = spec.wedge_section_many([good])[0]
    assert worst_difference([(spec.wedge_many([t])[0], good)]) <= 1e-10


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
    t = random_samples(spec, rng, 1, "t")[0][0]
    (sym,) = p_sym_many([t])
    assert worst_difference([(sigma(sym), sym)]) <= TOL
