
import numpy as np
import pytest

from nclevi.algebra import AlgebraElement, derive, random_element, trace, wide_mul, wide_sum
from nclevi.calculus import TwoForm, random_one_form
from nclevi.errors import Inconsistent, NonCommutativeBackend, RangeNotSymmetric
from nclevi.metric import MetricSpec
from nclevi.models import random_central_metric, torus_bundle
from nclevi.solver import (
    ConnectionCoeffs,
    apply_connection,
    compat_residual,
    koszul_oracle,
    levi_civita,
    nabla0,
    phi_g_apply,
    phi_g_invert,
    pi_g_basis,
    structure_constants,
    torsion,
    torsion_residual,
)

TOL = 1e-12

EPS = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    EPS[_i, _j, _k] = 1.0
    EPS[_i, _k, _j] = -1.0


def brute_force_heisenberg_gamma():
    """Independent 27-unknown solve of {antisymmetry} u {torsion with C^3_12 = 1}.

    Built directly from the defining equations, bypassing every solver code
    path: compatibility with the constant delta metric reads G^i_jl + G^j_il = 0
    and torsion-lessness reads G^i_jk - G^i_kj = C^i_jk with the single
    Maurer-Cartan constant C^3_12 = 1 = -C^3_21.
    """
    c = np.zeros((3, 3, 3))
    c[2, 0, 1], c[2, 1, 0] = 1.0, -1.0

    def col(i, j, k):
        return (i * 3 + j) * 3 + k

    rows, rhs = [], []
    for i in range(3):
        for j in range(3):
            for l in range(3):
                row = np.zeros(27)
                row[col(i, j, l)] += 1.0
                row[col(j, i, l)] += 1.0
                rows.append(row)
                rhs.append(0.0)
    for i in range(3):
        for j in range(3):
            for k in range(j + 1, 3):
                row = np.zeros(27)
                row[col(i, j, k)] += 1.0
                row[col(i, k, j)] -= 1.0
                rows.append(row)
                rhs.append(c[i, j, k])
    a = np.array(rows)
    b = np.array(rhs)
    assert np.linalg.matrix_rank(a, tol=1e-10) == 27  # unique solution
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    assert np.max(np.abs(a @ x - b)) <= 1e-12
    return x.reshape(3, 3, 3)


HEISENBERG_EXPECTED = brute_force_heisenberg_gamma()


def test_brute_force_matches_hand_computation():
    expected = np.zeros((3, 3, 3))
    expected[2, 0, 1] = 0.5
    expected[2, 1, 0] = -0.5
    expected[0, 1, 2] = expected[0, 2, 1] = -0.5
    expected[1, 0, 2] = expected[1, 2, 0] = 0.5
    assert np.max(np.abs(HEISENBERG_EXPECTED - expected)) <= 1e-12


# -- apply_connection ---------------------------------------------------------


def test_apply_connection_pure_leibniz(torus_comm):
    spec = torus_comm.calculus
    nab = ConnectionCoeffs.zero(spec)
    rng = np.random.default_rng(0)
    a = random_element(spec.backend, rng)
    w = spec.basis_one_form(0).right_mul(a)
    t = apply_connection(nab, w)
    da = spec.d0(a)
    for k in range(3):
        assert wide_sum([t.coeffs[0][k], -da.coeffs[k]]).norm() <= TOL
        assert t.coeffs[1][k].norm() <= TOL


def test_apply_connection_fuzzy_basis(fuzzy1):
    spec = fuzzy1.calculus
    nab = ConnectionCoeffs.from_scalars(spec, 0.5j * EPS)
    t = apply_connection(nab, spec.basis_one_form(0))
    # nabla(e_1) = (i/2)(e_2 (x) e_3 - e_3 (x) e_2)
    assert abs(trace(t.coeffs[1][2]) - 0.5j) <= TOL
    assert abs(trace(t.coeffs[2][1]) + 0.5j) <= TOL
    assert t.coeffs[0][0].norm() <= TOL


def test_apply_connection_leibniz_random(fuzzy1):
    spec = fuzzy1.calculus
    rng = np.random.default_rng(1)
    nab = ConnectionCoeffs.from_scalars(spec, 0.5j * EPS)
    for _ in range(5):
        w = random_one_form(spec, rng)
        a = random_element(spec.backend, rng)
        lhs = apply_connection(nab, w.right_mul(a))
        rhs = apply_connection(nab, w).right_mul(a)
        da = spec.d0(a)
        for j in range(3):
            for k in range(3):
                extra = wide_mul(w.coeffs[j], da.coeffs[k])
                d = wide_sum([lhs.coeffs[j][k], -rhs.coeffs[j][k], -extra])
                assert d.norm() <= 1e-10


# -- torsion -----------------------------------------------------------------------


def test_torsion_examples(fuzzy1, torus_comm):
    spec = fuzzy1.calculus
    lc = ConnectionCoeffs.from_scalars(spec, 0.5j * EPS)
    assert torsion_residual(lc) <= TOL
    zero = ConnectionCoeffs.zero(spec)
    tz = torsion(zero)
    unit = AlgebraElement.unit(spec.backend)
    for i in range(3):
        # with Gamma = 0 the torsion is d(e_i), the exterior-constant column
        d = tz[i] - TwoForm([unit * c for c in spec.exterior_constants[:, i]])
        assert d.norm() <= TOL
    assert torsion_residual(ConnectionCoeffs.zero(torus_comm.calculus)) <= TOL


# -- nabla0 -------------------------------------------------------------------------


def test_nabla0_torus_zero(torus_comm):
    nab = nabla0(torus_comm.calculus)
    assert np.max(np.abs(nab.scalars())) <= TOL


def test_nabla0_fuzzy_antisymmetric(fuzzy1):
    nab = nabla0(fuzzy1.calculus)
    assert np.max(np.abs(nab.scalars() - 0.5j * EPS)) <= TOL
    assert torsion_residual(nab) <= 1e-10


def test_nabla0_heisenberg(heis):
    nab = nabla0(heis.calculus)
    s = nab.scalars()
    # minimal-norm: purely antisymmetric part of the Maurer-Cartan slot
    assert abs(s[2, 0, 1] - 0.5) <= TOL
    assert abs(s[2, 1, 0] + 0.5) <= TOL
    assert torsion_residual(nab) <= 1e-10
    c = structure_constants(heis.calculus)
    assert abs(c[2, 0, 1] - 1.0) <= TOL and abs(c[2, 1, 0] + 1.0) <= TOL


# -- Pi_g and the compatibility residual ------------------------------------------------


def test_pi_g_fuzzy_lc_vanishes(fuzzy1):
    spec, g = fuzzy1.calculus, fuzzy1.metric
    lc = ConnectionCoeffs.from_scalars(spec, 0.5j * EPS)
    pi = pi_g_basis(g, lc)
    worst = max(pi[i][j].norm() for i in range(3) for j in range(3))
    assert worst <= TOL
    assert compat_residual(g, lc).max_norm <= TOL


def test_pi_g_zero_connection(fuzzy1):
    spec, g = fuzzy1.calculus, fuzzy1.metric
    pi = pi_g_basis(g, ConnectionCoeffs.zero(spec))
    assert max(pi[i][j].norm() for i in range(3) for j in range(3)) <= TOL


def test_compat_residual_zero_connection_nonconstant_metric(torus_comm):
    spec = torus_comm.calculus
    be = spec.backend
    unit = AlgebraElement.unit(be)
    zero = AlgebraElement.zero(be)
    phi = unit + AlgebraElement.from_modes(be, {(0, 0, 1): 0.002, (0, 0, -1): 0.002})
    g = MetricSpec(spec, [[unit, zero, zero], [zero, unit, zero], [zero, zero, phi]])
    res = compat_residual(g, ConnectionCoeffs.zero(spec))
    expected = derive(spec.derivations[2], phi)
    d = wide_sum([res.entry(2, 2, 2), expected])
    assert d.norm() <= TOL
    assert res.max_norm > 0.0


def test_pi_g_entry_points_agree(torus_twisted):
    # pi_g_basis, compat_residual and phi_g_apply share one Pi_g contraction; a
    # connection symmetric in its lower pair is a valid input to all three
    spec = torus_twisted.calculus
    n = spec.rank
    rng = np.random.default_rng(11)
    g = random_central_metric(torus_twisted, rng)
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                gamma[i][j][k] = gamma[i][k][j] = random_element(spec.backend, rng)
    nab = ConnectionCoeffs(spec, gamma)
    res = compat_residual(g, nab)
    pi = pi_g_basis(g, nab)
    phi = phi_g_apply(g, gamma)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                dg = derive(spec.derivations[l], g.components[i][j])
                want = res.entry(i, j, l)
                assert wide_sum([pi[i][j].coeffs[l], -dg, -want]).norm() <= TOL
                assert wide_sum([phi[i][j][l], -dg, -want]).norm() <= TOL
    assert res.max_norm > 1.0


# -- Phi_g -------------------------------------------------------------------------------


def test_phi_zero_map(fuzzy1):
    g = fuzzy1.metric
    zero = AlgebraElement.zero(fuzzy1.backend)
    lmap = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    out = phi_g_apply(g, lmap)
    assert max(out[p][q][l].norm() for p in range(3) for q in range(3)
               for l in range(3)) <= TOL


def test_phi_simple_tensor_example(fuzzy1):
    # L(e_3) = e_1 (x) e_2 + e_2 (x) e_1 lies in Ker(wedge); with the delta metric
    # Phi_g(L)(e_3 (x) e_1) = e_2 and Phi_g(L)(e_3 (x) e_2) = e_1
    spec, g = fuzzy1.calculus, fuzzy1.metric
    zero = AlgebraElement.zero(spec.backend)
    unit = AlgebraElement.unit(spec.backend)
    lmap = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    lmap[2][0][1] = lmap[2][1][0] = unit
    out = phi_g_apply(g, lmap)
    for q, hit in ((0, 1), (1, 0)):
        got = [out[2][q][l] for l in range(3)]
        assert abs(trace(got[hit]) - 1.0) <= TOL
        assert max(got[l].norm() for l in range(3) if l != hit) <= TOL
    # cross-check against the simple-tensor expansion: each term xi (x) eta of
    # L(e_3) contributes Phi_g = zeta(eta (x) V_{g2}(xi (x) e_3 + e_3 (x) xi)),
    # whose value at (p,q) is e_eta (g2(xi (x) e_3, e_p (x) e_q) + g2(e_3 (x) xi, ...))
    from nclevi.metric import g2_eval
    terms = ((0, 1), (1, 0))    # (xi, eta) of e_1 (x) e_2 and e_2 (x) e_1
    for p in range(3):
        for q in range(3):
            pair = spec.basis_tensor(p, q)
            for l in range(3):
                want = [wide_sum([g2_eval(g, spec.basis_tensor(xi, 2), pair),
                                  g2_eval(g, spec.basis_tensor(2, xi), pair)])
                        for xi, eta in terms if eta == l]
                want = want[0] if want else zero
                assert wide_sum([out[p][q][l], -want]).norm() <= TOL


def test_phi_roundtrip_random(fuzzy1, torus_twisted):
    rng = np.random.default_rng(2)
    for model in (fuzzy1, torus_twisted):
        g = model.metric
        n = model.calculus.rank
        unit = AlgebraElement.unit(model.backend)
        for _ in range(25):
            raw = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
            raw = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
            lmap = [[[unit * raw[i, j, k] for k in range(n)] for j in range(n)]
                    for i in range(n)]
            back = phi_g_invert(g, phi_g_apply(g, lmap))
            worst = max(wide_sum([back[i][j][k], -lmap[i][j][k]]).norm()
                        for i in range(n) for j in range(n) for k in range(n))
            assert worst <= 1e-10


def test_phi_roundtrip_nonconstant_metric(torus_comm):
    rng = np.random.default_rng(3)
    g = random_central_metric(torus_comm, rng)
    n = 3
    unit = AlgebraElement.unit(torus_comm.backend)
    raw = rng.standard_normal((n, n, n))
    raw = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
    lmap = [[[unit * raw[i, j, k] for k in range(n)] for j in range(n)] for i in range(n)]
    back = phi_g_invert(g, phi_g_apply(g, lmap))
    worst = max(wide_sum([back[i][j][k], -lmap[i][j][k]]).norm()
                for i in range(n) for j in range(n) for k in range(n))
    assert worst <= 1e-8


def test_phi_rejects_asymmetric_range(fuzzy1):
    g = fuzzy1.metric
    zero = AlgebraElement.zero(fuzzy1.backend)
    unit = AlgebraElement.unit(fuzzy1.backend)
    lmap = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    lmap[0][0][1] = unit   # e_1 (x) e_2 alone is not in Ker(wedge)
    with pytest.raises(RangeNotSymmetric):
        phi_g_apply(g, lmap)


def test_phi_right_linear(fuzzy1):
    spec, g = fuzzy1.calculus, fuzzy1.metric
    rng = np.random.default_rng(4)
    n = 3
    unit = AlgebraElement.unit(spec.backend)
    raw = rng.standard_normal((n, n, n))
    raw = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
    lmap = [[[unit * raw[i, j, k] for k in range(n)] for j in range(n)] for i in range(n)]
    a = random_element(spec.backend, rng)
    la = [[[wide_mul(lmap[i][j][k], a) for k in range(n)] for j in range(n)]
          for i in range(n)]
    lhs = phi_g_apply(g, la)
    base = phi_g_apply(g, lmap)
    rhs = [[[wide_mul(base[p][q][l], a) for l in range(n)] for q in range(n)]
           for p in range(n)]
    worst = max(wide_sum([lhs[p][q][l], -rhs[p][q][l]]).norm()
                for p in range(n) for q in range(n) for l in range(n))
    assert worst <= 1e-10


# -- levi_civita ---------------------------------------------------------------------------


def test_levi_civita_fuzzy_both_routes(fuzzy1, fuzzy2):
    for model in (fuzzy1, fuzzy2):
        for route in ("direct", "phi", "both"):
            res = levi_civita(model.calculus, model.metric, route=route)
            assert np.max(np.abs(res.connection.scalars() - 0.5j * EPS)) <= 1e-12
        res = levi_civita(model.calculus, model.metric, route="both")
        assert res.route_difference <= 1e-9
        assert res.sv_ratio > 1e-8


def test_levi_civita_torus_delta(torus_comm, torus_twisted):
    for model in (torus_comm, torus_twisted):
        res = levi_civita(model.calculus, model.metric, route="both")
        worst = max(res.connection.gamma[i][j][k].norm()
                    for i in range(3) for j in range(3) for k in range(3))
        assert worst <= TOL


def test_levi_civita_heisenberg_matches_brute_force(heis):
    res = levi_civita(heis.calculus, heis.metric, route="both")
    assert np.max(np.abs(res.connection.scalars() - HEISENBERG_EXPECTED)) <= 1e-12
    assert res.route_difference <= 1e-12
    assert res.sv_ratio > 1e-8


def test_levi_civita_matches_koszul_nonconstant(torus_comm):
    spec = torus_comm.calculus
    be = spec.backend
    unit = AlgebraElement.unit(be)
    zero = AlgebraElement.zero(be)
    phi = unit + AlgebraElement.from_modes(be, {(0, 0, 1): 0.002, (0, 0, -1): 0.002})
    g = MetricSpec(spec, [[unit, zero, zero], [zero, unit, zero], [zero, zero, phi]])
    res = levi_civita(spec, g, route="both", residual_tol=1e-8)
    oracle = koszul_oracle(spec, g)
    assert res.connection.difference_norm(oracle) <= 1e-8
    # independent first-order check: Gamma^3_33 = (1/2) phi^{-1} phi'
    grid = np.arange(256) / 256
    phi_vals = 1.0 + 0.004 * np.cos(2 * np.pi * grid)
    dphi_vals = -0.004 * 2 * np.pi * np.sin(2 * np.pi * grid)
    target = 0.5 * dphi_vals / phi_vals
    coeffs = np.fft.fft(target) / 256
    got = res.connection.gamma[2][2][2]
    assert abs(got.coefficient((0, 0, 1)) - coeffs[1]) <= 1e-9
    assert abs(got.coefficient((0, 0, -1)) - coeffs[-1]) <= 1e-9


def test_koszul_examples(torus_comm, heis):
    spec = torus_comm.calculus
    assert max(koszul_oracle(spec, torus_comm.metric).gamma[i][j][k].norm()
               for i in range(3) for j in range(3) for k in range(3)) <= TOL
    gconst = MetricSpec.from_scalar_matrix(spec, np.diag([2.0, 3.0, 4.0]))
    assert max(koszul_oracle(spec, gconst).gamma[i][j][k].norm()
               for i in range(3) for j in range(3) for k in range(3)) <= TOL
    # Heisenberg structure constants reproduce the brute-force values
    ko = koszul_oracle(heis.calculus, heis.metric)
    assert np.max(np.abs(ko.scalars() - HEISENBERG_EXPECTED)) <= 1e-12


def test_koszul_rejects_noncommutative(fuzzy1, torus_twisted):
    with pytest.raises(NonCommutativeBackend):
        koszul_oracle(fuzzy1.calculus, fuzzy1.metric)
    with pytest.raises(NonCommutativeBackend):
        koszul_oracle(torus_twisted.calculus, torus_twisted.metric)


def test_torsionless_difference_symmetric(fuzzy1, heis):
    for model in (fuzzy1, heis):
        res = levi_civita(model.calculus, model.metric, route="direct")
        nab0 = nabla0(model.calculus)
        d = res.connection.scalars() - nab0.scalars()
        assert np.max(np.abs(d - np.transpose(d, (0, 2, 1)))) <= 1e-10


def test_compat_defect_flip_invariant(torus_comm):
    rng = np.random.default_rng(5)
    g = random_central_metric(torus_comm, rng)
    nab = nabla0(torus_comm.calculus)
    res = compat_residual(g, nab)
    for i in range(3):
        for j in range(3):
            for l in range(3):
                d = wide_sum([res.entry(i, j, l), -res.entry(j, i, l)])
                assert d.norm() <= 1e-10


def test_random_metrics_match_oracle(torus_comm):
    rng = np.random.default_rng(6)
    for _ in range(3):
        g = random_central_metric(torus_comm, rng)
        res = levi_civita(torus_comm.calculus, g, route="both", residual_tol=1e-8)
        oracle = koszul_oracle(torus_comm.calculus, g)
        assert res.connection.difference_norm(oracle) <= 1e-8
        assert res.route_difference <= 1e-8


def test_twisted_bundle_nonconstant_metric(torus_twisted):
    rng = np.random.default_rng(7)
    g = random_central_metric(torus_twisted, rng)
    res = levi_civita(torus_twisted.calculus, g, route="both", residual_tol=1e-8)
    assert res.sv_ratio > 1e-8
    assert res.route_difference <= 1e-8
    # the certificate is exactly the public residual of the returned connection
    assert res.compat_residual == compat_residual(g, res.connection).max_norm
    assert res.torsion_residual == torsion_residual(res.connection)


def test_pi_g_matches_dg_on_classical_connection(torus_comm):
    # with the classical Levi-Civita connection, Pi_g on basis tensors is dg
    rng = np.random.default_rng(8)
    g = random_central_metric(torus_comm, rng)
    oracle = koszul_oracle(torus_comm.calculus, g)
    assert compat_residual(g, oracle).max_norm <= 1e-8
    assert torsion_residual(oracle) <= 1e-8


def test_starved_truncation_raises_inconsistent():
    # at radius 1 the read-back drops a Christoffel tail that a non-constant
    # compatibility right-hand side needs; the residual guard must refuse to answer
    model = torus_bundle(3, 2, np.zeros((2, 2)), radius=1)
    g = random_central_metric(model, np.random.default_rng(9))
    with pytest.raises(Inconsistent, match=r"compatibility 2\.\d+e-05"):
        levi_civita(model.calculus, g, route="direct")


# -- pointwise direct solve: metamorphic, oracle and phase-rule checks --------


def _twisted_rng0():
    model = torus_bundle(3, 2, np.array([[0.0, 0.3], [-0.3, 0.0]]), radius=4)
    return model, random_central_metric(model, np.random.default_rng(0))


def test_direct_invariant_under_metric_scaling():
    # Gamma depends on g only through g^-1 dg, so c g has the same connection
    model, g = _twisted_rng0()
    scaled = MetricSpec(model.calculus, [[c * 2.5 for c in row] for row in g.components])
    base = levi_civita(model.calculus, g, route="direct").connection
    assert levi_civita(model.calculus, scaled, route="direct").connection.difference_norm(
        base) <= 1e-12


def test_direct_commutes_with_translation_of_free_coordinate():
    # translating the central coordinate by t multiplies every mode k by
    # exp(2 pi i k_3 t), on the metric and on the connection alike
    model, g = _twisted_rng0()
    be, n, t = model.backend, 3, 0.137

    def shift(el):
        return AlgebraElement.from_modes(
            be, {k: v * np.exp(2j * np.pi * k[2] * t) for k, v in el.modes.items()})

    moved = MetricSpec(model.calculus, [[shift(c) for c in row] for row in g.components])
    base = levi_civita(model.calculus, g, route="direct").connection
    want = ConnectionCoeffs(model.calculus, [[[shift(base.gamma[i][j][k]) for k in range(n)]
                                              for j in range(n)] for i in range(n)])
    got = levi_civita(model.calculus, moved, route="direct").connection
    assert got.difference_norm(want) <= 1e-12


def test_direct_matches_koszul_on_two_free_coordinates():
    model = torus_bundle(4, 2, np.zeros((2, 2)), radius=4)
    g = random_central_metric(model, np.random.default_rng(3))
    varying = {c for row in g.components for el in row for k in el.modes
               for c, kc in enumerate(k) if kc}
    assert varying == {2, 3}
    res = levi_civita(model.calculus, g, route="direct")
    assert res.connection.difference_norm(koszul_oracle(model.calculus, g)) <= 1e-8


def test_sign_phase_metric_refused_by_metric_spec(twisted_mode_metric):
    # at theta = 1/3 the modes U_1^3 and U_2^3 are central but multiply with
    # the phase exp(3 i pi) = -1, which no pointwise product reproduces, so
    # the metric is refused before any inverse or solve is formed
    model, comps = twisted_mode_metric(1.0 / 3.0, 9, 3)
    with pytest.raises(NonCommutativeBackend, match=r"exp\(i pi 3\)"):
        MetricSpec(model.calculus, comps)


def test_even_phase_metric_solves(twisted_mode_metric):
    # at theta = 1/2 the modes U_1^2 and U_2^2 multiply with exp(2 i pi) = 1
    model, comps = twisted_mode_metric(0.5, 8, 2)
    res = levi_civita(model.calculus, MetricSpec(model.calculus, comps), route="both")
    assert res.route_difference <= 1e-10


def test_both_routes_commute_with_swapping_free_coordinates():
    # exchanging coordinates 2 and 3 of the flat 4-torus, in the Fourier modes
    # and in the frame e_2 <-> e_3 together, maps the Levi-Civita connection of
    # g to that of the exchanged metric: Gamma'^{p(i)}_{p(j) p(k)} = swap(Gamma^i_jk)
    model = torus_bundle(4, 2, np.zeros((2, 2)), radius=3)
    be, n = model.backend, 4
    perm = [0, 1, 3, 2]
    rng = np.random.default_rng(11)
    unit = AlgebraElement.unit(be)
    comps = [[AlgebraElement.zero(be)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            modes = {}
            for coord in (2, 3):
                k = [0] * n
                k[coord] = 1
                z = 0.0004 * complex(rng.uniform(0.2, 1.0), rng.uniform(-1.0, 1.0))
                modes[tuple(k)] = z
                modes[tuple(-x for x in k)] = np.conj(z)
            pert = AlgebraElement.from_modes(be, modes)
            comps[i][j] = comps[j][i] = pert + unit * (1.0 + rng.uniform(0.0, 1.0)) * (i == j)

    def swap(el):
        return AlgebraElement.from_arrays(be, el.mode_array[:, perm], el.coeff_array)

    g = MetricSpec(model.calculus, comps)
    g_swapped = MetricSpec(model.calculus, [[swap(comps[perm[i]][perm[j]]) for j in range(n)]
                                            for i in range(n)])
    base = levi_civita(model.calculus, g, route="both")
    got = levi_civita(model.calculus, g_swapped, route="both")
    assert max(base.route_difference, got.route_difference) <= 1e-10
    want = ConnectionCoeffs(model.calculus, [[[swap(base.connection.gamma[perm[i]][perm[j]][perm[k]])
                                               for k in range(n)] for j in range(n)]
                                             for i in range(n)])
    assert got.connection.difference_norm(want) <= 1e-12
