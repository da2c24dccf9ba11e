import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclevi.algebra import (
    AlgebraElement,
    BackendDescriptor,
    DerivationSpec,
    contract,
    derive,
    is_central,
    lift,
    mul,
    random_element,
    star,
    trace,
    wide_mul,
    wide_sum,
)
from nclevi.deformation import TorusAction, deform_product
from nclevi.errors import BackendMismatch, NonSkew, TruncationOverflow

TOL = 1e-12


def commutator(a, b):
    """ab - ba in one kernel call, on a window wide enough for both products."""
    return contract(a.backend, [[(1.0, a, b), (-1.0, b, a)]])[0]


def graded2(theta12=0.0, radius=6):
    theta = np.array([[0.0, theta12], [-theta12, 0.0]])
    return BackendDescriptor.graded(2, theta, radius)


# -- multiplication -----------------------------------------------------------


def test_pauli_product(paulis):
    s1, s2, s3 = paulis
    assert (mul(s1, s2) - 1j * s3).norm() <= TOL


def test_untwisted_modes_add():
    be = graded2(0.0)
    a = AlgebraElement.single_mode(be, (1, 0))
    b = AlgebraElement.single_mode(be, (0, 1))
    prod = mul(a, b)
    assert abs(prod.coefficient((1, 1)) - 1.0) <= TOL
    assert len(prod.modes) == 1


def test_twisted_commutation_phase():
    # one-mode phases: U^(1,0) U^(0,1) = e^{2 pi i theta12} U^(0,1) U^(1,0)
    t = 0.3
    be = graded2(t)
    u = AlgebraElement.single_mode(be, (1, 0))
    v = AlgebraElement.single_mode(be, (0, 1))
    lhs = mul(u, v).coefficient((1, 1))
    rhs = mul(v, u).coefficient((1, 1))
    assert abs(lhs / rhs - np.exp(2j * np.pi * t)) <= 1e-14


def test_unit_acts_as_identity():
    be = graded2(0.17)
    rng = np.random.default_rng(0)
    a = random_element(be, rng)
    one = AlgebraElement.unit(be)
    assert (mul(one, a) - a).norm() <= TOL
    assert (mul(a, one) - a).norm() <= TOL


def test_backend_mismatch():
    a = AlgebraElement.unit(graded2(0.1))
    b = AlgebraElement.unit(graded2(0.2))
    with pytest.raises(BackendMismatch):
        mul(a, b)


def test_truncation_overflow():
    be = graded2(0.0, radius=2)
    a = AlgebraElement.single_mode(be, (2, 0))
    with pytest.raises(TruncationOverflow):
        mul(a, a)
    with pytest.raises(TruncationOverflow):
        AlgebraElement.single_mode(be, (3, 0))


# -- star ---------------------------------------------------------------------


def test_star_examples(paulis):
    s1, _, _ = paulis
    a = 1j * s1
    assert (star(a) + 1j * s1).norm() <= TOL
    one = AlgebraElement.unit(s1.backend)
    assert (star(one) - one).norm() <= TOL


def test_graded_star_unitarity():
    be = graded2(0.37)
    u = AlgebraElement.single_mode(be, (1, 0))
    assert (mul(star(u), u) - AlgebraElement.unit(be)).norm() <= TOL
    assert (mul(u, star(u)) - AlgebraElement.unit(be)).norm() <= TOL
    assert abs(star(u).coefficient((-1, 0)) - 1.0) <= TOL


# -- trace ----------------------------------------------------------------------


def test_trace_examples(paulis):
    s1, s2, s3 = paulis
    be = s3.backend
    assert abs(trace(AlgebraElement.unit(be)) - 1.0) <= TOL
    assert abs(trace(s3)) <= TOL
    gb = graded2(0.2)
    assert abs(trace(AlgebraElement.single_mode(gb, (2, 1)))) <= TOL
    x = AlgebraElement.from_modes(gb, {(0, 0): 3.0, (1, 0): 2.0})
    assert abs(trace(x) - 3.0) <= TOL


# -- derivations -----------------------------------------------------------------


def test_derivation_kills_unit(paulis):
    s3 = paulis[2]
    d = DerivationSpec.inner(s3)
    one = AlgebraElement.unit(s3.backend)
    assert derive(d, one).norm() <= TOL


def test_grading_derivation():
    be = BackendDescriptor.graded(3, np.zeros((3, 3)), 3)
    u = AlgebraElement.single_mode(be, (1, 0, 0))
    d = DerivationSpec.grading(0)
    assert (derive(d, u) - 2j * np.pi * u).norm() <= TOL
    assert derive(DerivationSpec.grading(1), u).norm() <= TOL


def test_inner_derivation_value(paulis):
    # delta_X with X = sigma_3 / 2 sends sigma_1 to i [sigma_3/2, sigma_1] = -sigma_2
    s1, s2, s3 = paulis
    d = DerivationSpec.inner(s3 * 0.5)
    assert (derive(d, s1) + s2).norm() <= TOL


def test_leibniz_random_inner_and_grading():
    rng = np.random.default_rng(1)
    mat = BackendDescriptor.matrix(4)
    x = random_element(mat, rng)
    d = DerivationSpec.inner(x)
    for _ in range(10):
        a, b = random_element(mat, rng), random_element(mat, rng)
        lhs = derive(d, mul(a, b))
        rhs = mul(derive(d, a), b) + mul(a, derive(d, b))
        assert (lhs - rhs).norm() <= 10 * TOL
    gb = graded2(0.29, radius=8)
    d = DerivationSpec.grading(1)
    for _ in range(10):
        a, b = random_element(gb, rng), random_element(gb, rng)
        lhs = derive(d, wide_mul(a, b))
        rhs = wide_sum([wide_mul(derive(d, a), b), wide_mul(a, derive(d, b))])
        assert wide_sum([lhs, -rhs]).norm() <= 10 * TOL


# -- centrality --------------------------------------------------------------------


def test_is_central_examples(paulis):
    s1, s2, s3 = paulis
    be = s1.backend
    one = AlgebraElement.unit(be)
    assert is_central(one, paulis)
    assert not is_central(s1, paulis)


def test_partial_twist_center():
    # 3-torus, twist only between coordinates 1 and 2: U^(0,0,1) is central
    theta = np.zeros((3, 3))
    theta[0, 1], theta[1, 0] = 0.41, -0.41
    be = BackendDescriptor.graded(3, theta, 3)
    gens = [AlgebraElement.single_mode(be, m)
            for m in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]]
    u3 = AlgebraElement.single_mode(be, (0, 0, 1))
    u1 = AlgebraElement.single_mode(be, (1, 0, 0))
    assert is_central(u3, gens)
    assert not is_central(u1, gens)


# -- laws (property style) ------------------------------------------------------------


coeff = st.complex_numbers(min_magnitude=0.0, max_magnitude=2.0,
                           allow_nan=False, allow_infinity=False)


@st.composite
def graded_elements(draw, backend):
    nterms = draw(st.integers(1, 4))
    modes = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          min_size=nterms, max_size=nterms))
    vals = draw(st.lists(coeff, min_size=nterms, max_size=nterms))
    return AlgebraElement.from_modes(backend, dict(zip(modes, vals)))


_GB = graded2(0.23, radius=16)


@settings(max_examples=60, deadline=None)
@given(graded_elements(_GB), graded_elements(_GB), graded_elements(_GB))
def test_graded_associativity(a, b, c):
    lhs = mul(mul(a, b), c)
    rhs = mul(a, mul(b, c))
    assert (lhs - rhs).norm() <= 10 * TOL


@settings(max_examples=60, deadline=None)
@given(graded_elements(_GB), graded_elements(_GB))
def test_graded_star_antimultiplicative(a, b):
    assert (star(mul(a, b)) - mul(star(b), star(a))).norm() <= 10 * TOL
    assert (star(star(a)) - a).norm() <= TOL


@settings(max_examples=60, deadline=None)
@given(graded_elements(_GB), graded_elements(_GB))
def test_graded_trace_tracial(a, b):
    assert abs(trace(mul(a, b)) - trace(mul(b, a))) <= TOL


def test_matrix_laws_random():
    rng = np.random.default_rng(3)
    be = BackendDescriptor.matrix(5)
    for _ in range(100):
        a, b, c = (random_element(be, rng) for _ in range(3))
        assert (mul(mul(a, b), c) - mul(a, mul(b, c))).norm() <= 10 * TOL
    for _ in range(20):
        a, b = random_element(be, rng), random_element(be, rng)
        assert (star(mul(a, b)) - mul(star(b), star(a))).norm() <= 10 * TOL
        assert abs(trace(mul(a, b)) - trace(mul(b, a))) <= 10 * TOL
        p = trace(mul(star(a), a))
        assert p.real >= -TOL and abs(p.imag) <= TOL
        if a.norm() > 1e-8:
            assert mul(star(a), a).norm() > 0.0


def test_zero_twist_commutative():
    rng = np.random.default_rng(4)
    be = graded2(0.0, radius=12)
    for _ in range(20):
        a, b = random_element(be, rng), random_element(be, rng)
        assert commutator(a, b).norm() <= TOL


def test_positive_norm_of_star_square():
    be = graded2(0.11, radius=8)
    a = AlgebraElement.from_modes(be, {(1, 0): 0.5, (0, 1): -0.25j})
    assert wide_mul(star(a), a).norm() > 0.0
    p = trace(wide_mul(star(a), a))
    assert p.real >= -TOL and abs(p.imag) <= TOL


def test_lift_roundtrip():
    be = graded2(0.3, radius=2)
    a = AlgebraElement.from_modes(be, {(1, 1): 2.0})
    big = be.with_radius(5)
    up = lift(a, big)
    assert up.backend.radius == 5 and abs(up.coefficient((1, 1)) - 2.0) <= TOL
    with pytest.raises(TruncationOverflow):
        lift(AlgebraElement.single_mode(big, (4, 0)), be)


def test_nonskew_twist_rejected():
    with pytest.raises(NonSkew):
        BackendDescriptor.graded(2, np.array([[0.0, 0.1], [0.1, 0.0]]), 2)


# -- the contraction kernel against a naive dict convolution ---------------------


def ref_mul(theta, a: dict, b: dict) -> dict:
    """U^k U^l = e^{i pi <k, theta l>} U^{k+l}, one pair of modes at a time."""
    out: dict = {}
    for k, av in a.items():
        for l, bv in b.items():
            phase = np.exp(1j * np.pi * float(np.asarray(k, float) @ theta @ np.asarray(l, float)))
            m = tuple(x + y for x, y in zip(k, l))
            out[m] = out.get(m, 0.0) + phase * av * bv
    return out


def ref_combine(terms) -> dict:
    out: dict = {}
    for c, d in terms:
        for k, v in d.items():
            out[k] = out.get(k, 0.0) + c * v
    return out


def assert_matches(el, ref: dict, tol: float = 1e-12) -> None:
    got = el.modes
    assert all(abs(v) > 0 for v in got.values())
    for k in set(got) | set(ref):
        assert abs(got.get(k, 0.0) - ref.get(k, 0.0)) <= tol, k
    assert set(got) <= set(ref)


_SMALL = graded2(0.37, radius=3)


@settings(max_examples=60, deadline=None)
@given(graded_elements(_GB), graded_elements(_GB))
def test_mul_and_wide_mul_match_reference(a, b):
    ref = ref_mul(_GB.theta, a.modes, b.modes)
    assert_matches(mul(a, b), ref)
    small_a = lift(AlgebraElement.from_modes(_SMALL, a.modes), _SMALL)
    small_b = AlgebraElement.from_modes(_SMALL, b.modes)
    wide = wide_mul(small_a, small_b)
    assert_matches(wide, ref_mul(_SMALL.theta, a.modes, b.modes))
    assert wide.backend.radius == max(3, a.support_radius() + b.support_radius())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coeff, st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=5),
       st.lists(st.tuples(coeff, st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=5),
       graded_elements(_SMALL), graded_elements(_SMALL), graded_elements(_SMALL))
def test_multi_slot_contract_matches_reference(slot1, slot2, x, y, z):
    # operands on three windows of one algebra; the call takes the smallest
    big = _SMALL.with_radius(5)
    ops = [x, lift(y, big), lift(z, _SMALL.with_radius(4)), AlgebraElement.zero(_SMALL)]
    slots = [[(c, ops[i], ops[j]) for c, i, j in slot] for slot in (slot1, slot2, [])]
    out = contract(_SMALL, slots)
    assert len(out) == 3
    for slot, el in zip(slots, out):
        want = ref_combine([(c, ref_mul(_SMALL.theta, a.modes, b.modes)) for c, a, b in slot])
        assert_matches(el, want)
        need = max([3] + [max(a.backend.radius, b.backend.radius,
                              a.support_radius() + b.support_radius()) for _, a, b in slot])
        assert el.backend.radius == need
    assert out[2].modes == {} and out[2].backend == _SMALL


@settings(max_examples=60, deadline=None)
@given(graded_elements(_GB), graded_elements(_GB))
def test_commutator_star_derive_sum_match_reference(a, b):
    ab, ba = ref_mul(_GB.theta, a.modes, b.modes), ref_mul(_GB.theta, b.modes, a.modes)
    want = max((abs(v) for v in ref_combine([(1.0, ab), (-1.0, ba)]).values()), default=0.0)
    assert abs(commutator(a, b).norm() - want) <= 1e-12
    assert_matches(star(a), {tuple(-x for x in k): np.conj(v) for k, v in a.modes.items()}, 0.0)
    assert_matches(derive(DerivationSpec.grading(1), a),
                   {k: 2j * np.pi * k[1] * v for k, v in a.modes.items() if k[1]})
    assert_matches(a + b, ref_combine([(1.0, a.modes), (1.0, b.modes)]))
    assert_matches(a - b, ref_combine([(1.0, a.modes), (-1.0, b.modes)]))
    # exact cancellation leaves no modes at all
    assert (a + (-a)).modes == {} and wide_sum([a, -a, b, -b]).modes == {}


def test_empty_element():
    be = graded2(0.2, radius=2)
    empty = AlgebraElement.zero(be)
    a = AlgebraElement.from_modes(be, {(1, 0): 2.0, (0, -1): 1j})
    for el in (mul(empty, a), mul(a, empty), wide_mul(empty, empty), star(empty),
               empty + empty, derive(DerivationSpec.grading(0), empty), a * 0.0):
        assert el.modes == {} and el.mode_array.shape == (0, 2) and el.norm() == 0.0
    assert trace(empty) == 0.0 and empty.support_radius() == 0
    assert commutator(empty, a).norm() == 0.0 and is_central(empty, [a])


def test_overflow_raises_above_dust_and_drops_dust():
    be = graded2(0.0, radius=2)
    edge = AlgebraElement.from_modes(be, {(2, 0): 1.0, (0, 0): 1.0})
    step = AlgebraElement.single_mode(be, (1, 0))
    with pytest.raises(TruncationOverflow):
        mul(edge, step)
    # beyond the window but below 1e-14 of the largest coefficient: dropped
    dusty = AlgebraElement.from_modes(be, {(2, 0): 1e-16, (0, 0): 1.0})
    prod = mul(dusty, step)
    assert prod.modes == {(1, 0): 1.0} and prod.backend == be
    # the threshold is 1e-14 times the largest coefficient of the product, or 1
    scaled = AlgebraElement.from_modes(be, {(2, 0): 1e-3, (0, 0): 1e12})
    assert mul(scaled, step).modes == {(1, 0): 1e12}
    with pytest.raises(TruncationOverflow):
        mul(AlgebraElement.from_modes(be, {(2, 0): 1e-3, (0, 0): 1.0}), step)


def test_element_arrays_are_read_only():
    be = graded2(0.2, radius=2)
    a = AlgebraElement.from_modes(be, {(1, 0): 2.0, (0, -1): 1j})
    for el in (a, mul(a, a), a + a, star(a), a * 2.0, lift(a, be.with_radius(3))):
        with pytest.raises(ValueError):
            el.mode_array[0, 0] = 7
        with pytest.raises(ValueError):
            el.coeff_array[0] = 7.0
    assert a.modes == {(0, -1): 1j, (1, 0): 2.0}


_BE3 = BackendDescriptor.graded(3, np.array([[0.0, 0.3, 0.0], [-0.3, 0.0, 0.0],
                                             [0.0, 0.0, 0.0]]), 6)


@st.composite
def graded3(draw):
    # many modes in a small box, so that several products land on one mode
    modes = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * 3), min_size=0, max_size=14))
    vals = draw(st.lists(coeff, min_size=len(modes), max_size=len(modes)))
    return AlgebraElement.from_modes(_BE3, dict(zip(modes, vals)))


@settings(max_examples=60, deadline=None)
@given(graded3(), graded3(), st.sampled_from([(0, 1), (1, 2), (2, 0)]))
def test_deform_product_at_zero_theta_is_wide_mul_exactly(a, b, coords):
    # the kernel adds the contributions to a mode in a fixed order, so splitting
    # the operands into isotypical components cannot change a single bit
    action = TorusAction(coords=coords)
    got = deform_product(a, b, np.zeros((2, 2)), action)
    want = wide_mul(a, b)
    assert got.modes == want.modes
    assert np.array_equal(got.coeff_array, want.coeff_array)
