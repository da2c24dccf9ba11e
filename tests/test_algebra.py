from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nclevi import algebra
from nclevi.algebra import (
    AlgebraElement,
    BackendDescriptor,
    DerivationSpec,
    combine,
    contract,
    derive,
    derive_many,
    first_noncentral,
    random_elements,
    star,
    trace,
    wide_mul,
    wide_products,
    wide_sum,
    worst,
)
from nclevi.calculus import OneForm
from nclevi.deformation import TorusAction, deform_product_many
from nclevi.errors import BackendMismatch, NonSkew, TruncationOverflow
from nclevi.models import torus_bundle

TOL = 1e-12


def commutator(a, b):
    """ab - ba in one kernel call, keeping every mode of both products."""
    return contract(a.backend, [[(1.0, a, b), (-1.0, b, a)]])[0]


def graded2(theta12=0.0, radius=6):
    theta = np.array([[0.0, theta12], [-theta12, 0.0]])
    return BackendDescriptor.graded(2, theta, radius)


# -- multiplication -----------------------------------------------------------


def test_pauli_product(paulis):
    s1, s2, s3 = paulis
    assert (wide_mul(s1, s2) - 1j * s3).norm() <= TOL


def test_untwisted_modes_add():
    be = graded2(0.0)
    a = AlgebraElement.single_mode(be, (1, 0))
    b = AlgebraElement.single_mode(be, (0, 1))
    prod = wide_mul(a, b)
    assert abs(prod.coefficient((1, 1)) - 1.0) <= TOL
    assert len(prod.modes) == 1


def test_twisted_commutation_phase():
    # one-mode phases: U^(1,0) U^(0,1) = e^{2 pi i theta12} U^(0,1) U^(1,0)
    t = 0.3
    be = graded2(t)
    u = AlgebraElement.single_mode(be, (1, 0))
    v = AlgebraElement.single_mode(be, (0, 1))
    lhs = wide_mul(u, v).coefficient((1, 1))
    rhs = wide_mul(v, u).coefficient((1, 1))
    assert abs(lhs / rhs - np.exp(2j * np.pi * t)) <= 1e-14


def test_unit_acts_as_identity():
    be = graded2(0.17)
    rng = np.random.default_rng(0)
    a = random_elements(be, rng, 1)[0]
    one = AlgebraElement.unit(be)
    assert (wide_mul(one, a) - a).norm() <= TOL
    assert (wide_mul(a, one) - a).norm() <= TOL


def test_backend_mismatch():
    a = AlgebraElement.unit(graded2(0.1))
    b = AlgebraElement.unit(graded2(0.2))
    with pytest.raises(BackendMismatch):
        wide_mul(a, b)


def test_constructors_refuse_the_other_backend_kind():
    graded, matrix = graded2(0.0, radius=3), BackendDescriptor.matrix(2)
    with pytest.raises(BackendMismatch):
        AlgebraElement.from_matrix(graded, np.eye(2))
    with pytest.raises(BackendMismatch):
        AlgebraElement.from_modes(matrix, {(0, 0): 1.0})
    with pytest.raises(TypeError):
        AlgebraElement(matrix, mat=np.eye(2))
    # the matrix is copied in C order, whatever the order of the input
    src = np.arange(4.0).reshape(2, 2)
    a = AlgebraElement.from_matrix(matrix, src.T)
    src[0, 0] = 9.0
    assert a.matrix.flags.c_contiguous and a.matrix[0, 0] == 0.0


def test_worst_keeps_nan_wherever_it_comes():
    assert worst([]) == 0.0
    assert worst([1.0, 3.0, 2.0]) == 3.0
    for values in ([np.nan, 1.0, 2.0], [1.0, np.nan, 2.0], [1.0, 2.0, np.nan]):
        assert np.isnan(worst(values))
        assert np.isnan(worst(iter(values)))


def test_truncation_overflow():
    be = graded2(0.0, radius=2)
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
    assert (wide_mul(star(u), u) - AlgebraElement.unit(be)).norm() <= TOL
    assert (wide_mul(u, star(u)) - AlgebraElement.unit(be)).norm() <= TOL
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
    x = random_elements(mat, rng, 1)[0]
    d = DerivationSpec.inner(x)
    for _ in range(10):
        a, b = random_elements(mat, rng, 2)
        lhs = derive(d, wide_mul(a, b))
        rhs = wide_mul(derive(d, a), b) + wide_mul(a, derive(d, b))
        assert (lhs - rhs).norm() <= 10 * TOL
    gb = graded2(0.29, radius=8)
    d = DerivationSpec.grading(1)
    for _ in range(10):
        a, b = random_elements(gb, rng, 2)
        lhs = derive(d, wide_mul(a, b))
        rhs = wide_sum([wide_mul(derive(d, a), b), wide_mul(a, derive(d, b))])
        assert wide_sum([lhs, -rhs]).norm() <= 10 * TOL


def test_graded_inner_derivation_is_the_commutator():
    # one contract slot [(1, x, a), (-1, a, x)] per commutator, as on the matrix
    # backend: x (a b) reaches radius 6 > R = 4 and keeps every mode
    be = torus_bundle(3, 2, np.array([[0.0, 0.3], [-0.3, 0.0]]), 4).backend
    rng = np.random.default_rng(21)
    x, a, b = random_elements(be, rng, 3, radius=2)
    delta = DerivationSpec.inner(x)
    da, db, dab = derive_many([(delta, a), (delta, b), (delta, wide_mul(a, b))])
    want = wide_sum([wide_mul(x, a), -wide_mul(a, x)]) * 1j
    assert wide_sum([da, -want]).norm() <= 1e-12
    da_b, a_db = wide_products([(da, b), (a, db)])
    assert wide_sum([dab, -da_b, -a_db]).norm() <= 1e-12


@pytest.mark.parametrize("backend", [BackendDescriptor.matrix(1), BackendDescriptor.matrix(5),
                                     BackendDescriptor.graded(3, [[0.0, 0.3, 0.0],
                                                                  [-0.3, 0.0, 0.0],
                                                                  [0.0, 0.0, 0.0]], 2)],
                         ids=["M1", "M5", "graded"])
def test_inner_derivation_by_zero_is_the_shared_zero(backend):
    # the zero action is the inner derivation by zero: no kind of its own is needed
    zero = AlgebraElement.zero(backend)
    elements = random_elements(backend, np.random.default_rng(3), 3) + [
        AlgebraElement.unit(backend), zero]
    derived = derive_many([(DerivationSpec.inner(zero), a) for a in elements])
    assert_same_bits(derived, [zero] * len(elements))
    if backend.kind == "matrix":
        # M_1's zero is a 1 x 1 array, M_N's a central form
        assert [d.central_form is None for d in derived] == [backend.size == 1] * len(derived)


# -- centrality --------------------------------------------------------------------


def test_is_central_examples(paulis):
    s1, s2, s3 = paulis
    be = s1.backend
    one = AlgebraElement.unit(be)
    assert first_noncentral([one], paulis) is None
    assert first_noncentral([s1], paulis) is not None


def test_nan_element_is_not_central(paulis):
    # a NaN commutator compares false with the tolerance, so it must not pass as central
    be = paulis[0].backend
    nan = AlgebraElement.from_matrix(be, [[1.0, 0.0], [np.nan, 1.0]])
    assert first_noncentral([AlgebraElement.unit(be), nan], paulis) == 1


def test_partial_twist_center():
    # 3-torus, twist only between coordinates 1 and 2: U^(0,0,1) is central
    theta = np.zeros((3, 3))
    theta[0, 1], theta[1, 0] = 0.41, -0.41
    be = BackendDescriptor.graded(3, theta, 3)
    gens = [AlgebraElement.single_mode(be, m)
            for m in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]]
    u3 = AlgebraElement.single_mode(be, (0, 0, 1))
    u1 = AlgebraElement.single_mode(be, (1, 0, 0))
    assert first_noncentral([u3], gens) is None
    assert first_noncentral([u1], gens) is not None


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
    lhs = wide_mul(wide_mul(a, b), c)
    rhs = wide_mul(a, wide_mul(b, c))
    assert (lhs - rhs).norm() <= 10 * TOL


@settings(max_examples=60, deadline=None)
@given(graded_elements(_GB), graded_elements(_GB))
def test_graded_star_antimultiplicative(a, b):
    assert (star(wide_mul(a, b)) - wide_mul(star(b), star(a))).norm() <= 10 * TOL
    assert (star(star(a)) - a).norm() <= TOL


@settings(max_examples=60, deadline=None)
@given(graded_elements(_GB), graded_elements(_GB))
def test_graded_trace_tracial(a, b):
    assert abs(trace(wide_mul(a, b)) - trace(wide_mul(b, a))) <= TOL


def test_matrix_laws_random():
    rng = np.random.default_rng(3)
    be = BackendDescriptor.matrix(5)
    for _ in range(100):
        a, b, c = random_elements(be, rng, 3)
        assert (wide_mul(wide_mul(a, b), c) - wide_mul(a, wide_mul(b, c))).norm() <= 10 * TOL
    for _ in range(20):
        a, b = random_elements(be, rng, 2)
        assert (star(wide_mul(a, b)) - wide_mul(star(b), star(a))).norm() <= 10 * TOL
        assert abs(trace(wide_mul(a, b)) - trace(wide_mul(b, a))) <= 10 * TOL
        p = trace(wide_mul(star(a), a))
        assert p.real >= -TOL and abs(p.imag) <= TOL
        if a.norm() > 1e-8:
            assert wide_mul(star(a), a).norm() > 0.0


def test_zero_twist_commutative():
    rng = np.random.default_rng(4)
    be = graded2(0.0, radius=12)
    for _ in range(20):
        a, b = random_elements(be, rng, 2)
        assert commutator(a, b).norm() <= TOL


def test_positive_norm_of_star_square():
    be = graded2(0.11, radius=8)
    a = AlgebraElement.from_modes(be, {(1, 0): 0.5, (0, 1): -0.25j})
    assert wide_mul(star(a), a).norm() > 0.0
    p = trace(wide_mul(star(a), a))
    assert p.real >= -TOL and abs(p.imag) <= TOL


def test_wide_results_stay_in_their_algebra():
    # an untruncated product is an element of the operands' algebra like any other
    be = graded2(0.3, radius=2)
    a = AlgebraElement.single_mode(be, (2, 0))
    aa = wide_mul(a, a)
    assert (aa + a).modes == {(2, 0): 1.0, (4, 0): 1.0}
    assert OneForm([aa, a]).backend == be
    assert aa.backend == be and aa.support_radius() == 4
    # another radius is another algebra
    other = AlgebraElement.single_mode(graded2(0.3, radius=5), (2, 0))
    for op in (lambda: a + other, lambda: wide_mul(a, other), lambda: OneForm([a, other])):
        with pytest.raises(BackendMismatch):
            op()


def test_from_modes_takes_only_integer_mode_entries():
    # int(x) would read 1.5 as 1 and True as 1; only ints and NumPy integers are modes
    be = graded2(0.3, radius=3)
    a = AlgebraElement.from_modes(be, {(1, np.int32(-2)): 1.0, (np.int64(0), 0): 2.0})
    assert a.modes == {(0, 0): 2.0, (1, -2): 1.0}
    for entry in (1.5, 1.0, np.float64(1.0), float("inf"), float("nan"), True, np.bool_(True),
                  "1", None):
        with pytest.raises(ValueError, match="is not an integer"):
            AlgebraElement.from_modes(be, {(0, entry): 1.0})


@pytest.mark.parametrize("entry", [-2 ** 63, np.int64(-2 ** 63), 2 ** 63, 10 ** 30])
def test_from_modes_refuses_entries_outside_int64(entry):
    # compared with the radius as Python ints: np.abs wraps int64's minimum to a
    # negative number, and a larger int overflows the int64 conversion
    be = torus_bundle(3, 2, np.zeros((2, 2)), 3).calculus.backend
    with pytest.raises(TruncationOverflow, match="exceeds truncation radius 3"):
        AlgebraElement.from_modes(be, {(0, 0, entry): 1.0})
    assert AlgebraElement.from_modes(be, {(0, 0, -3): 1.0}).support_radius() == 3


def test_nonskew_twist_rejected():
    with pytest.raises(NonSkew):
        BackendDescriptor.graded(2, np.array([[0.0, 0.1], [0.1, 0.0]]), 2)
    # a NaN compares false with the bound, so it must fail the check, not pass it
    with pytest.raises(NonSkew, match="nan"):
        BackendDescriptor.graded(2, np.array([[0.0, np.nan], [-np.nan, 0.0]]), 2)


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


def _moduli(a) -> dict:
    return {k: abs(v) for k, v in a.modes.items()}


def ref_combine(terms) -> dict:
    out: dict = {}
    for c, d in terms:
        for k, v in d.items():
            out[k] = out.get(k, 0.0) + c * v
    return out


def assert_matches(el, ref: dict, tol: float = 1e-12, scale=None) -> None:
    """el's modes equal ref's, each to max(tol, 16 eps scale[mode]): a sum whose
    terms reach sum |c a_k b_l| = scale[mode] rounds at about eps times that."""
    got = el.modes
    assert all(abs(v) > 0 for v in got.values())
    eps, scale = np.finfo(float).eps, scale or {}
    for k in set(got) | set(ref):
        bound = max(tol, 16 * eps * scale.get(k, 0.0))
        assert abs(got.get(k, 0.0) - ref.get(k, 0.0)) <= bound, k
    assert set(got) <= set(ref)


_SMALL = graded2(0.37, radius=3)


@settings(max_examples=60, deadline=None)
@given(graded_elements(_GB), graded_elements(_GB))
def test_mul_and_wide_mul_match_reference(a, b):
    ref = ref_mul(_GB.theta, a.modes, b.modes)
    assert_matches(wide_mul(a, b), ref)
    small_a = AlgebraElement.from_modes(_SMALL, a.modes)
    small_b = AlgebraElement.from_modes(_SMALL, b.modes)
    wide = wide_mul(small_a, small_b)
    assert_matches(wide, ref_mul(_SMALL.theta, a.modes, b.modes))
    assert wide.backend == _SMALL


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coeff, st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=5),
       st.lists(st.tuples(coeff, st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=5),
       graded_elements(_SMALL), graded_elements(_SMALL), graded_elements(_SMALL))
# sum |c a_k b_l| reaches about 3,165 at mode (-1, 7), where kernel and reference
# differ by 1.35e-12 and each lies within 7.1e-13 of the exact value
@example([], [(1, 2, 2), (2, 2, 2)], AlgebraElement.zero(_SMALL),
         AlgebraElement.from_modes(_SMALL, {(0, 2): 2}),
         AlgebraElement.from_modes(_SMALL, {(-2, 0): 2, (1, 1): 1, (2, 2): 2}))
def test_multi_slot_contract_matches_reference(slot1, slot2, x, y, z):
    # operands of support up to 2, 4 and 6, beyond the radius 3
    ops = [x, wide_mul(x, y), wide_mul(wide_mul(y, z), z), AlgebraElement.zero(_SMALL)]
    slots = [[(c, ops[i], ops[j]) for c, i, j in slot] for slot in (slot1, slot2, [])]
    out = contract(_SMALL, slots)
    assert len(out) == 3
    flat = np.zeros_like(_SMALL.theta)
    for slot, el in zip(slots, out):
        want = ref_combine([(c, ref_mul(_SMALL.theta, a.modes, b.modes)) for c, a, b in slot])
        scale = ref_combine([(abs(c), ref_mul(flat, _moduli(a), _moduli(b))) for c, a, b in slot])
        assert_matches(el, want, scale=scale)
        assert el.backend == _SMALL
    assert out[2].modes == {}


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
    for el in (wide_mul(empty, a), wide_mul(a, empty), wide_mul(empty, empty), star(empty),
               empty + empty, derive(DerivationSpec.grading(0), empty), a * 0.0):
        assert el.modes == {} and el.mode_array.shape == (0, 2) and el.norm() == 0.0
    assert trace(empty) == 0.0 and empty.support_radius() == 0
    assert commutator(empty, a).norm() == 0.0 and first_noncentral([empty], [a]) is None


def test_element_arrays_are_read_only():
    be = graded2(0.2, radius=2)
    a = AlgebraElement.from_modes(be, {(1, 0): 2.0, (0, -1): 1j})
    for el in (a, wide_mul(a, a), a + a, star(a), a * 2.0, wide_mul(wide_mul(a, a), a)):
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
    (got,) = deform_product_many([(a, b)], np.zeros((2, 2)), action)
    want = wide_mul(a, b)
    assert got.modes == want.modes
    assert np.array_equal(got.coeff_array, want.coeff_array)


# -- batching: a slot's result does not depend on the other slots of its call ------


def assert_same_bits(xs, ys) -> None:
    """Equal mode arrays and bit-identical coefficients (or matrices), element by element."""
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        if x.backend.kind == "matrix":
            assert np.array_equal(x.matrix.view(np.uint64), y.matrix.view(np.uint64))
        else:
            assert np.array_equal(x.mode_array, y.mode_array)
            assert np.array_equal(x.coeff_array.view(np.uint64), y.coeff_array.view(np.uint64))


_TWISTED3 = BackendDescriptor.graded(3, [[0.0, 0.3, 0.1], [-0.3, 0.0, 0.7], [-0.1, -0.7, 0.0]], 2)
_MATRIX3 = BackendDescriptor.matrix(3)

term_lists = st.lists(st.lists(st.tuples(coeff, st.integers(0, 5), st.integers(0, 5)),
                               max_size=4), max_size=4)


def operand_pool(backend, seed: int) -> list:
    """Six operands: random elements of growing support, their products, the unit and zero."""
    rng = np.random.default_rng(seed)
    a, b = random_elements(backend, rng, 2, radius=2)
    return [a, b, wide_mul(a, b), wide_mul(wide_mul(a, b), a),
            AlgebraElement.unit(backend), AlgebraElement.zero(backend)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([_TWISTED3, _MATRIX3]), st.integers(0, 2 ** 32 - 1), term_lists,
       term_lists, st.sampled_from([1, 16, 1 << 12]))
def test_contract_and_combine_split_into_any_calls_bit_for_bit(backend, seed, s1, s2, budget):
    # repeated operands, empty slots and, with a small budget, calls that the kernel
    # splits into several passes all give each slot the result it has alone
    pool = operand_pool(backend, seed)
    slots1 = [[(c, pool[i], pool[j]) for c, i, j in slot] for slot in s1]
    slots2 = [[(c, pool[i], pool[j]) for c, i, j in slot] for slot in s2]
    sums1 = [[(c, pool[i]) for c, i, _ in slot] for slot in s1]
    sums2 = [[(c, pool[j]) for c, _, j in slot] for slot in s2]
    with mock.patch.object(algebra, "_PAIRS_PER_PASS", budget):
        assert_same_bits(contract(backend, slots1 + slots2),
                         contract(backend, slots1) + contract(backend, slots2))
        assert_same_bits(combine(backend, sums1 + sums2),
                         combine(backend, sums1) + combine(backend, sums2))



_UNTWISTED3 = BackendDescriptor.graded(3, np.zeros((3, 3)), 2)

sum_lists = st.lists(st.lists(st.tuples(st.one_of(st.sampled_from([1.0, -1.0, 0.5]), coeff),
                                        st.integers(0, 6)),
                              max_size=5), max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([_TWISTED3, _UNTWISTED3]), st.integers(0, 2 ** 32 - 1), sum_lists,
       st.sampled_from([1, 16, 1 << 12]))
@example(_TWISTED3, 0, [[(1.0, 0), (1.0, 6)], [], [(0.5, 2), (-0.5, 2)], [(1.0, 5), (1.0, 4)]],
         1 << 12)
@example(_UNTWISTED3, 1, [[(0.5, 6), (1.0, 1), (0.5, 6), (-1.0, 1), (1.0, 0)]], 16)
def test_graded_combine_is_contract_against_the_unit_bit_for_bit(backend, seed, terms, budget):
    # pool[6] is -pool[0], so terms may cancel to an exact zero; repeated operands,
    # empty slots and multi-pass calls are covered as in the split test above
    pool = operand_pool(backend, seed)
    pool.append(-1.0 * pool[0])
    unit = AlgebraElement.unit(backend)
    sums = [[(c, pool[i]) for c, i in slot] for slot in terms]
    with mock.patch.object(algebra, "_PAIRS_PER_PASS", budget):
        assert_same_bits(combine(backend, sums),
                         contract(backend, [[(c, a, unit) for c, a in slot] for slot in sums]))


# -- the graded kernel against a reference with no integer codes -------------------


def reference_graded_kernel(backend, slots) -> list:
    """`contract` (terms (c, a, b)) or `combine` (terms (c, a)) written out slot by
    slot, with no integer codes: each contribution, c e^{i pi <k, theta l>} a_k b_l
    or c a_k, comes from the kernel's ufuncs on arrays in the documented
    (output mode, a-mode, term) order, which Python's sort of mode tuples gives,
    and each output mode sums its contributions from +0 in that order, real and
    imaginary parts apart, as `np.bincount` adds its weights."""
    theta, dim = backend.theta, backend.dim
    out = []
    for terms in slots:
        rows = []
        for t, (c, *ops) in enumerate(terms):
            b = ops[-1] if len(ops) == 2 else None
            for ka, ca in zip(ops[0].mode_array.tolist(), ops[0].coeff_array):
                for kb, cb in (zip(b.mode_array.tolist(), b.coeff_array) if b else [([0] * dim, None)]):
                    mode = tuple(x + y for x, y in zip(ka, kb))
                    rows.append((mode, tuple(ka), t, c, ka, kb, ca, cb))
        rows.sort(key=lambda r: r[:3])
        if not rows:
            out.append(AlgebraElement.zero(backend))
            continue
        _, _, _, c, ka, kb, ca, cb = map(list, zip(*rows))
        value = np.array(c, dtype=complex)
        ka, kb, ca = np.array(ka, dtype=np.int64), np.array(kb, dtype=np.int64), np.array(ca)
        if cb[0] is not None:
            if theta.any():
                value = value * np.exp(1j * np.pi * ((ka @ theta) * kb).sum(axis=1))
            value = value * ca * np.array(cb)
        else:
            value = value * ca
        modes, re, im = [], [], []
        for r, v in zip(rows, value.tolist()):
            if not modes or modes[-1] != r[0]:
                modes.append(r[0])
                re.append(0.0)
                im.append(0.0)
            re[-1] += v.real
            im[-1] += v.imag
        coef = np.array(re) + 1j * np.array(im)
        keep = coef != 0.0
        out.append(AlgebraElement._graded(
            backend, np.array(modes, dtype=np.int64).reshape(-1, dim)[keep], coef[keep]))
    return out


def _shared_a_mode_example(backend):
    """Slots over the pool that form 6,160 pairs, two passes of the kernel; the
    second slot's two terms share every a-mode, and the third slot is empty."""
    return (backend, 7, [[(1.0, 3, 3), (0.5j, 2, 3)], [(1.0, 0, 1), (2.0 - 1j, 0, 2)], [],
                         [(-1.0, 3, 3), (1.0, 3, 2), (0.25, 3, 3)]], 1 << 12)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([_TWISTED3, _UNTWISTED3]), st.integers(0, 2 ** 32 - 1), term_lists,
       st.sampled_from([1, 16, 1 << 12]))
@example(*_shared_a_mode_example(_TWISTED3))
@example(*_shared_a_mode_example(_UNTWISTED3))
def test_graded_contract_and_combine_match_the_reference_bit_for_bit(backend, seed, slots,
                                                                      budget):
    # complex coefficients, repeated operands, empty slots and terms sharing
    # a-modes; with a small budget, or past 4,096 pairs, a call takes several passes
    pool = operand_pool(backend, seed)
    products = [[(c, pool[i], pool[j]) for c, i, j in slot] for slot in slots]
    sums = [[(c, pool[i]) for c, i, _ in slot] + [(-c, pool[j]) for c, _, j in slot]
            for slot in slots]
    with mock.patch.object(algebra, "_PAIRS_PER_PASS", budget):
        assert_same_bits(contract(backend, products), reference_graded_kernel(backend, products))
        assert_same_bits(combine(backend, sums), reference_graded_kernel(backend, sums))


def checked_random_elements(backend, rng, count, radius=1):
    """random_elements' graded draws, all modes and then all coefficients, built
    element by element through the checked dict constructor, a repeated mode's
    coefficients added in draw order."""
    r = min(radius, backend.radius)
    modes = rng.integers(-r, r + 1, size=(count, 4, backend.dim)).tolist()
    parts = rng.standard_normal((count, 4, 2)).tolist()
    out = []
    for ks, zs in zip(modes, parts):
        data: dict = {}
        for k, (re, im) in zip(map(tuple, ks), zs):
            data[k] = data.get(k, 0.0) + complex(re, im)
        out.append(AlgebraElement.from_modes(backend, data))
    return out


@pytest.mark.parametrize("dim", range(1, 6))
def test_random_element_matches_checked_construction(dim):
    be = BackendDescriptor.graded(dim, np.zeros((dim, dim)), 2)
    for seed in range(20):
        for radius in (1, 2, 5):     # 5 is capped at the backend's radius 2
            for count in (1, 7):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got = random_elements(be, rng, count, radius)
                want = checked_random_elements(be, ref, count, radius)
                assert_same_bits(got, want)
                assert [x.support_radius() for x in got] == [x.support_radius() for x in want]
                # the same draws, in the same order
                assert rng.random() == ref.random()


@pytest.mark.parametrize("radius", [1, 2, 5])
def test_random_graded_elements_are_canonical(radius):
    # dim 1 at radius 1 has three modes for four draws, so every element repeats one
    for dim in (1, 3):
        be = BackendDescriptor.graded(dim, np.zeros((dim, dim)), 2)
        for x in random_elements(be, np.random.default_rng(radius), 200, radius):
            k = x.mode_array
            assert 1 <= len(k) <= 4 and len(x.coeff_array) == len(k)
            assert [tuple(m) for m in k.tolist()] == sorted(set(map(tuple, k.tolist())))
            assert (x.coeff_array != 0).all()
            assert np.abs(k).max() <= min(radius, 2)
            assert not k.flags.writeable and not x.coeff_array.flags.writeable


class FixedDraws:
    """A generator stand-in that returns the given modes and coefficient parts."""

    def __init__(self, modes, parts):
        self.modes, self.parts = modes, parts

    def integers(self, low, high, size):
        return np.array(self.modes, dtype=np.int64).reshape(size)

    def standard_normal(self, size):
        return np.array(self.parts, dtype=float).reshape(size)


def test_random_graded_elements_add_repeats_and_drop_zero_sums():
    be = BackendDescriptor.graded(1, np.zeros((1, 1)), 2)
    rng = FixedDraws([[1], [1], [0], [-1], [2], [2], [2], [2]],
                     [[1.0, 2.0], [-1.0, -2.0], [3.0, 0.0], [0.5, 0.0],
                      [1.0, 0.0], [2.0, 0.0], [-3.0, 0.0], [0.25, -1.0]])
    x, y = random_elements(be, rng, 2, radius=2)
    assert x.modes == {(-1,): 0.5, (0,): 3.0}
    assert y.modes == {(2,): 0.25 - 1j}


@pytest.mark.parametrize("size", [1, 3, 30])
@pytest.mark.parametrize("count", [1, 2, 7])
def test_random_matrix_elements_are_the_formula_bit_for_bit(size, count):
    be = BackendDescriptor.matrix(size)
    rng, ref = np.random.default_rng(size + count), np.random.default_rng(size + count)
    want = [AlgebraElement.from_matrix(be, (ref.standard_normal((size, size))
                                            + 1j * ref.standard_normal((size, size)))
                                       / max(1.0, np.sqrt(size)))
            for _ in range(count)]
    assert_same_bits(random_elements(be, rng, count), want)
    assert rng.random() == ref.random()


# -- the matrix kernel: exact zeros skipped, the exact identity passed through ------


def reference_matrix_contract(backend, slots) -> list:
    """Every matrix term by BLAS, summed in the given order from a zero matrix."""
    out = []
    for terms in slots:
        acc = np.zeros((backend.size, backend.size), dtype=complex)
        for c, a, b in terms:
            prod = a.matrix @ b.matrix
            acc = acc + (prod if c == 1.0 else prod * c)
        out.append(acc)
    return out


def reference_matrix_combine(backend, slots) -> list:
    out = []
    for terms in slots:
        acc = np.zeros((backend.size, backend.size), dtype=complex)
        for c, a in terms:
            acc = acc + (a.matrix if c == 1.0 else a.matrix * c)
        out.append(acc)
    return out


def matrix_pool(size: int, seed: int) -> list:
    """Zeros of both signs, the identity (also with -0 off the diagonal), real,
    imaginary and complex multiples of it, and a complex and a real dense matrix,
    both with zeros of both signs among their entries; then copies of the complex
    one with [0, 0] exactly 1, +0 and -0, and the identity with one nonzero entry
    off the diagonal (the identity itself at size 1).  The last four have the
    [0, 0] entry of a zero or an identity, so the kernel must look further."""
    rng = np.random.default_rng(seed)
    eye = np.eye(size, dtype=complex)
    dense = [rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)),
             rng.standard_normal((size, size)) + 0j]
    for m in dense:
        m[rng.random((size, size)) < 0.3] = complex(-0.0, 0.0)
        m[rng.random((size, size)) < 0.2] = 0.0
    corners = [dense[0].copy() for _ in range(3)]
    for m, corner in zip(corners, (1.0, 0j, complex(-0.0, -0.0))):
        m[0, 0] = corner
    near_eye = eye.copy()
    if size > 1:
        near_eye[-1, 0] = 1e-3
    mats = [np.zeros((size, size), dtype=complex), np.full((size, size), complex(-0.0, -0.0)),
            eye, np.where(eye == 1.0, eye, complex(-0.0, -0.0)),
            2.5 * eye, -0.5j * eye, (0.3 - 1.7j) * eye, *dense, *corners, near_eye]
    be = BackendDescriptor.matrix(size)
    return [AlgebraElement.from_matrix(be, m) for m in mats]


matrix_terms = st.lists(st.lists(st.tuples(st.sampled_from([1.0, -1.0, 0.5 - 2j, 1j]),
                                           st.integers(0, 12), st.integers(0, 12)),
                                 max_size=6), max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 3, 8]), st.integers(0, 2 ** 32 - 1), matrix_terms)
@example(3, 1, [[(1.0, 2, 7)], [(-1.0, 7, 3), (1.0, 0, 8)], []])
@example(8, 1, [[(1.0, 7, 6), (0.5 - 2j, 4, 8)]])
@example(3, 2, [[(1.0, 9, 12), (1j, 12, 10), (-1.0, 11, 9)], [(0.5 - 2j, 12, 12)]])
@example(8, 3, [[(1.0, 0, 7), (0.5 - 2j, 12, 1), (-1.0, 1, 0)], [(1j, 10, 11)]])
def test_matrix_contract_and_combine_match_term_by_term_blas_bit_for_bit(size, seed, terms):
    # the shortcuts skip BLAS only where BLAS's bits are known: a product with an
    # exact zero adds only zeros to a sum that starts at +0, and one with the exact
    # identity is the other operand, up to the sign of its zeros.  A scalar multiple
    # of the identity is not a shortcut: at size 8, x @ (c I) and x * c differ.
    pool = matrix_pool(size, seed)
    be = pool[0].backend
    slots = [[(c, pool[i], pool[j]) for c, i, j in slot] for slot in terms]
    sums = [[(c, pool[i]) for c, i, _ in slot] for slot in terms]
    for got, want in ((contract(be, slots), reference_matrix_contract(be, slots)),
                      (combine(be, sums), reference_matrix_combine(be, sums))):
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert np.array_equal(x.matrix.view(np.uint64), y.view(np.uint64))


# -- central forms: c I held as (diagonal entry, off-diagonal entry) ---------------


_SIGNED_ZEROS = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
_KERNEL_COEFFS = [1.0, -1.0, 0.5 - 2j, 1j]
_GENERAL = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
central_entries = st.one_of(
    st.sampled_from(_SIGNED_ZEROS + [1 + 0j, complex(1.0, -0.0), -1 + 0j, 2.5 + 0j, -0.5j]),
    _GENERAL)
# a general coefficient rounds where the fixed ones are exact, so scalar complex
# arithmetic, which rounds otherwise than NumPy's, would show
kernel_coeffs = st.one_of(st.sampled_from(_KERNEL_COEFFS), _GENERAL)


def assert_same_matrices(got, want) -> None:
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert np.array_equal(x.matrix.view(np.uint64), y.matrix.view(np.uint64))


def assert_same_scalar(x, y) -> None:
    assert np.array_equal(np.array([x]).view(np.uint64), np.array([y]).view(np.uint64))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 8]), st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(central_entries, st.sampled_from(_SIGNED_ZEROS)),
                min_size=1, max_size=3),
       st.lists(st.lists(st.tuples(kernel_coeffs, st.integers(0, 40), st.integers(0, 40)),
                         max_size=6), max_size=4))
def test_central_forms_match_full_arrays_bit_for_bit(size, seed, pairs, terms):
    be = BackendDescriptor.matrix(size)
    unit, full_unit = AlgebraElement.unit(be), AlgebraElement.from_matrix(be, np.eye(size))
    # central forms as the algebra makes them, each beside the same calls on full arrays
    twins = [(unit, full_unit), (AlgebraElement.zero(be), full_unit * 0.0)]
    twins += [(unit * d, full_unit * d) for d, _ in pairs]
    twins += [(star(x), star(y)) for x, y in twins[2:]]
    # and as given: any diagonal entry beside a zero of either sign
    for p in pairs:
        x = AlgebraElement._matrix(be, np.array(p, dtype=complex))
        twins.append((x, AlgebraElement.from_matrix(be, x.matrix)))
    assert all(x.central_form is not None and y.central_form is None for x, y in twins)
    scalars = _KERNEL_COEFFS + [d for d, _ in pairs]
    for x, y in twins:
        assert_same_matrices([x, star(x)] + [x * z for z in scalars],
                             [y, star(y)] + [y * z for z in scalars])
        assert_same_scalar(x.norm(), y.norm())
        assert_same_scalar(trace(x), trace(y))
    # slots that mix central forms with full, zero and identity operands
    dense = matrix_pool(size, seed)
    central = [x for x, _ in twins] + dense
    full = [y for _, y in twins] + dense
    pick = [[(c, i % len(central), j % len(central)) for c, i, j in slot] for slot in terms]

    def kernel_calls(pool):
        return (contract(be, [[(c, pool[i], pool[j]) for c, i, j in s] for s in pick])
                + combine(be, [[(c, pool[i]) for c, i, _ in s] for s in pick]))

    assert_same_matrices(kernel_calls(central), kernel_calls(full))


def test_central_forms_stay_central():
    be = BackendDescriptor.matrix(3)
    unit = AlgebraElement.unit(be)
    half = unit * 0.5j
    dense = random_elements(be, np.random.default_rng(0), 1)[0]
    assert unit.central_form.tolist() == [1.0, 0.0]
    assert half.central_form is not None and star(half).central_form is not None
    # a slot of central forms, identities passing their operand through, stays central
    sums = contract(be, [[(1.0, half, unit), (-1.0, unit, half)], [(1.0, half, half)],
                         [(1.0, half, dense)]])
    assert sums[0].central_form is not None and sums[0].norm() == 0.0
    # c I times c' I and c I times a full matrix are BLAS products, in full
    assert sums[1].central_form is None and sums[2].central_form is None
    assert combine(be, [[(2.0, half), (1j, unit)]])[0].central_form is not None
    assert combine(be, [[(2.0, half), (1.0, dense)]])[0].central_form is None
    # M_1(C) keeps its one entry as a full 1 x 1 array
    assert AlgebraElement.unit(BackendDescriptor.matrix(1)).central_form is None


# -- x - x: a commutator with the identity is the shared zero without a sum --------


_NON_FINITE = [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0),
               complex(-0.0, -np.inf), complex(np.inf, np.nan)]
cancel_entries = st.one_of(st.sampled_from(_SIGNED_ZEROS), _GENERAL,
                           st.floats(-1e308, 1e308).map(complex))


@st.composite
def cancel_operands(draw):
    """(N, m): m an N x N array or a central form, its entries finite or, now and
    then, one of them NaN or infinite."""
    size = draw(st.sampled_from([2, 3, 8]))
    shape = (2,) if draw(st.booleans()) else (size, size)
    count = int(np.prod(shape))
    entries = draw(st.lists(cancel_entries, min_size=count, max_size=count))
    if draw(st.booleans()):
        entries[draw(st.integers(0, count - 1))] = draw(st.sampled_from(_NON_FINITE))
    return size, np.array(entries, dtype=complex).reshape(shape)


@settings(max_examples=80, deadline=None)
@given(cancel_operands(), st.sampled_from([1.0, -1.0, complex(1.0, -0.0)]))
@example((3, np.array(_SIGNED_ZEROS * 2 + _NON_FINITE[:1]).reshape(3, 3)), -1.0)
def test_x_minus_x_is_the_full_sum_bit_for_bit(operand, c):
    size, m = operand
    be = BackendDescriptor.matrix(size)
    x = AlgebraElement._matrix(be, m)
    unit, full_unit = AlgebraElement.unit(be), AlgebraElement.from_matrix(be, np.eye(size))
    with np.errstate(invalid="ignore"):         # inf - inf is NaN, as in the full sum
        want = reference_matrix_combine(be, [[(c, x), (-c, x)]])[0]
        got = (combine(be, [[(c, x), (-c, x)]])
               + contract(be, [[(c, x, unit), (-c, unit, x)], [(c, x, full_unit),
                                                                (-c, full_unit, x)]]))
    for y in got:
        assert np.array_equal(y.matrix.view(np.uint64), want.view(np.uint64))
    finite = np.isfinite(x.matrix)
    if finite.all():
        # the shared zero: no array is summed
        assert all(y.central_form is not None and y.norm() == 0.0 for y in got)
    else:
        assert all(np.isnan(y.matrix[~finite]).all() for y in got)


def test_x_minus_x_rule_needs_one_array_and_a_unit_coefficient():
    be = BackendDescriptor.matrix(3)
    x = random_elements(be, np.random.default_rng(5), 1)[0]
    twin = AlgebraElement.from_matrix(be, x.matrix)
    # 2x - 2x, x - x + x and x - (a copy of x) are summed in full
    sums = combine(be, [[(2.0, x), (-2.0, x)], [(1.0, x), (-1.0, x), (1.0, x)],
                        [(1.0, x), (-1.0, twin)], [(1.0, x), (-1.0, x)]])
    assert [s.central_form is None for s in sums] == [True, True, True, False]
    assert [s.norm() for s in sums] == [0.0, x.norm(), 0.0, 0.0]
