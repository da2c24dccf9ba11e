
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis_tensor, cosine_metric, with_components
from nclevi import solver
from nclevi.algebra import (
    AlgebraElement,
    BackendDescriptor,
    DerivationSpec,
    derive,
    random_element,
    trace,
    wide_mul,
    wide_sum,
)
from nclevi.calculus import CalculusSpec, TwoForm, worst_difference
from nclevi.errors import (
    Inconsistent,
    NonCommutativeBackend,
    NonUnique,
    RangeNotSymmetric,
    SingularMetric,
)
from nclevi.metric import MetricSpec, central_coords, central_element
from nclevi.models import fuzzy_sphere, heisenberg, random_central_metric, torus_bundle
from nclevi.solver import (
    ConnectionCoeffs,
    _derivatives,
    _solve_pointwise,
    compat_residual,
    koszul_oracle,
    levi_civita,
    nabla0,
    phi_g_apply_many,
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


def zero_connection(spec):
    return ConnectionCoeffs.from_scalars(spec, np.zeros((spec.rank,) * 3))


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


# -- torsion -----------------------------------------------------------------------


def test_torsion_examples(fuzzy1, torus_comm):
    spec = fuzzy1.calculus
    lc = ConnectionCoeffs.from_scalars(spec, 0.5j * EPS)
    assert torsion_residual(lc) <= TOL
    zero = zero_connection(spec)
    tz = torsion(zero)
    unit = AlgebraElement.unit(spec.backend)
    # with Gamma = 0 the torsion is d(e_i), the exterior-constant column
    assert worst_difference([(tz[i], TwoForm([unit * c for c in spec.exterior_constants[:, i]]))
                             for i in range(3)]) <= TOL
    assert torsion_residual(zero_connection(torus_comm.calculus)) <= TOL


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


def test_structure_constants_are_twice_nabla0(heis, fuzzy1):
    # both solve the scalar wedge system with the calculus's one pseudo-inverse:
    # c . C^i = -2 D_i against c . Gamma^i = -D_i
    for calculus in (heis.calculus, fuzzy1.calculus,
                     torus_bundle(4, 3, np.zeros((3, 3)), radius=2).calculus):
        want = 2 * nabla0(calculus).scalars()
        assert structure_constants(calculus).tobytes() == want.tobytes()


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
    pi = pi_g_basis(g, zero_connection(spec))
    assert max(pi[i][j].norm() for i in range(3) for j in range(3)) <= TOL


def test_pi_g_of_levi_civita_is_dg_at_the_edge(edge_metric):
    # the products g_kj Gamma^i_kl reach beyond R; every entry is still one one-form
    model, g, _ = edge_metric
    spec = model.calculus
    pi = pi_g_basis(g, levi_civita(spec, g).connection)
    dg = _derivatives(spec, g.components)
    worst = max(wide_sum([pi[i][j].coeffs[l], -dg[i][j][l]]).norm()
                for i in range(3) for j in range(3) for l in range(3))
    assert worst <= 1e-10


def test_compat_residual_zero_connection_nonconstant_metric(torus_comm):
    spec = torus_comm.calculus
    be = spec.backend
    unit = AlgebraElement.unit(be)
    zero = AlgebraElement.zero(be)
    phi = unit + AlgebraElement.from_modes(be, {(0, 0, 1): 0.002, (0, 0, -1): 0.002})
    g = MetricSpec(spec, [[unit, zero, zero], [zero, unit, zero], [zero, zero, phi]])
    res = compat_residual(g, zero_connection(spec))
    expected = derive(spec.derivations[2], phi)
    d = wide_sum([res.entry(2, 2, 2), expected])
    assert d.norm() <= TOL
    assert res.max_norm > 0.0


def test_pi_g_entry_points_agree(torus_twisted):
    # pi_g_basis, compat_residual and phi_g_apply_many share one Pi_g contraction; a
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
    (phi,) = phi_g_apply_many(g, [gamma])
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
    (out,) = phi_g_apply_many(g, [lmap])
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
    (out,) = phi_g_apply_many(g, [lmap])
    for q, hit in ((0, 1), (1, 0)):
        got = [out[2][q][l] for l in range(3)]
        assert abs(trace(got[hit]) - 1.0) <= TOL
        assert max(got[l].norm() for l in range(3) if l != hit) <= TOL
    # cross-check against the simple-tensor expansion: each term xi (x) eta of
    # L(e_3) contributes Phi_g = zeta(eta (x) V_{g2}(xi (x) e_3 + e_3 (x) xi)),
    # whose value at (p,q) is e_eta (g2(xi (x) e_3, e_p (x) e_q) + g2(e_3 (x) xi, ...))
    from nclevi.metric import g2_eval_many, v_g2_matrix
    table = v_g2_matrix(g)
    terms = ((0, 1), (1, 0))    # (xi, eta) of e_1 (x) e_2 and e_2 (x) e_1
    for p in range(3):
        for q in range(3):
            pair = basis_tensor(spec, p, q)
            for l in range(3):
                want = [wide_sum(g2_eval_many(table, [(basis_tensor(spec, xi, 2), pair),
                                                      (basis_tensor(spec, 2, xi), pair)]))
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
            back = phi_g_invert(g, phi_g_apply_many(g, [lmap])[0])
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
    back = phi_g_invert(g, phi_g_apply_many(g, [lmap])[0])
    worst = max(wide_sum([back[i][j][k], -lmap[i][j][k]]).norm()
                for i in range(n) for j in range(n) for k in range(n))
    assert worst <= 1e-8


def test_phi_roundtrip_is_exact_to_rounding():
    # the closed-form inverse of (P_sym)_23 leaves Phi_g^{-1}(Phi_g(L)) within
    # 2 eps max|L| of L on the canonical metrics
    eps = np.finfo(float).eps
    models = [fuzzy_sphere(1), heisenberg()] + [
        torus_bundle(m, m - 1, np.zeros((m - 1, m - 1)), 2) for m in range(2, 6)]
    rng = np.random.default_rng(0)
    for model in models:
        n = model.calculus.rank
        unit = AlgebraElement.unit(model.backend)
        raws = rng.standard_normal((10, n, n, n)) + 1j * rng.standard_normal((10, n, n, n))
        raws = raws + np.transpose(raws, (0, 1, 3, 2))
        lmaps = [[[[unit * raw[i, j, k] for k in range(n)] for j in range(n)]
                  for i in range(n)] for raw in raws]
        backs = solver.phi_g_invert_many(model.metric,
                                         solver.phi_g_apply_many(model.metric, lmaps))
        for raw, lmap, back in zip(raws, lmaps, backs):
            err = worst_difference((back[i][j][k], lmap[i][j][k])
                                   for i, j, k in np.ndindex(n, n, n))
            assert err <= 2 * eps * np.abs(raw).max(), (model.name, n, err)


def test_phi_domain_check_from_both_sides(heis):
    # M = Phi_g(L) has max|M| = 2.95, so the domain check's tolerance is 2.95e-9:
    # a flip defect of 1e-9 in M[0][1][2] passes, one of 6e-9 is refused
    unit = AlgebraElement.unit(heis.backend)
    raw = np.random.default_rng(0).standard_normal((3, 3, 3))
    raw = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
    lmap = [[[unit * raw[i, j, k] for k in range(3)] for j in range(3)] for i in range(3)]
    (mmap,) = phi_g_apply_many(heis.metric, [lmap])
    assert max(x.norm() for plane in mmap for row in plane for x in row) \
        == pytest.approx(2.948, abs=1e-3)
    for defect, accepted in ((1e-9, True), (6e-9, False)):
        moved = [[list(row) for row in plane] for plane in mmap]
        moved[0][1][2] = moved[0][1][2] + unit * defect
        if accepted:
            phi_g_invert(heis.metric, moved)
        else:
            with pytest.raises(RangeNotSymmetric):
                phi_g_invert(heis.metric, moved)


def test_levi_civita_gate_from_both_sides(heis):
    # on heisenberg() the gate's scale is 1: Gamma^0_12 nudged by 3e-11 passes
    # the 1e-10 gate, and by 3e-10 it is refused
    res = levi_civita(heis.calculus, heis.metric)
    dg = solver._derivatives(heis.calculus, heis.metric.components)
    for nudge, accepted in ((3e-11, True), (3e-10, False)):
        gamma = [[list(row) for row in plane] for plane in res.connection.gamma]
        gamma[0][1][2] = gamma[0][1][2] + AlgebraElement.unit(heis.backend) * nudge
        nabla = ConnectionCoeffs(heis.calculus, gamma)
        if accepted:
            assert max(solver.certify(nabla, heis.metric, dg, 1e-10, "gate")) \
                == pytest.approx(3e-11, rel=1e-6)
        else:
            with pytest.raises(Inconsistent, match="gate"):
                solver.certify(nabla, heis.metric, dg, 1e-10, "gate")


def test_phi_rejects_asymmetric_range(fuzzy1):
    g = fuzzy1.metric
    zero = AlgebraElement.zero(fuzzy1.backend)
    unit = AlgebraElement.unit(fuzzy1.backend)
    lmap = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    lmap[0][0][1] = unit   # e_1 (x) e_2 alone is not in Ker(wedge)
    with pytest.raises(RangeNotSymmetric):
        phi_g_apply_many(g, [lmap])


@pytest.mark.parametrize("op", ["apply", "invert"])
def test_phi_refuses_a_cube_with_one_nan_entry(fuzzy1, op):
    # the cube is symmetric in every index pair, so only the NaN can fail the
    # range (apply) or domain (invert) check: it makes the tolerance NaN
    unit = AlgebraElement.unit(fuzzy1.backend)
    cube = [[[unit] * 3 for _ in range(3)] for _ in range(3)]
    cube[0][0][0] = unit * np.nan
    phi = solver.phi_g_apply_many if op == "apply" else solver.phi_g_invert_many
    with pytest.raises(RangeNotSymmetric):
        phi(fuzzy1.metric, [cube])


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
    lhs, base = phi_g_apply_many(g, [la, lmap])
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


def test_koszul_agrees_on_noncommutative_models(fuzzy1, torus_twisted):
    # the formula needs central metric components only, so it runs on the
    # matrix backend and on twisted tori: (i/2) eps^{ijk} on the fuzzy sphere,
    # and the solver's connection on a varying twisted metric
    ko = koszul_oracle(fuzzy1.calculus, fuzzy1.metric)
    assert np.max(np.abs(ko.scalars() - 0.5j * EPS)) <= TOL
    g = random_central_metric(torus_twisted, np.random.default_rng(7))
    res = levi_civita(torus_twisted.calculus, g, route="direct")
    assert res.connection.difference_norm(koszul_oracle(torus_twisted.calculus, g)) <= 1e-10


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


# -- pseudo-Riemannian metrics ---------------------------------------------------------

INDEFINITE = {"diag(-1, 1, 1)": np.diag([-1.0, 1.0, 1.0]),
              "null frame": np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])}


@pytest.mark.parametrize("metric", sorted(INDEFINITE))
@pytest.mark.parametrize("build", [lambda: fuzzy_sphere(2), heisenberg,
                                   lambda: torus_bundle(3, 2, np.zeros((2, 2)), radius=3),
                                   lambda: torus_bundle(3, 2, [[0.0, 0.3], [-0.3, 0.0]], 3)],
                         ids=["fuzzy-sphere-2", "heisenberg", "torus", "twisted-torus"])
def test_indefinite_constant_metric_solves_on_every_route(build, metric):
    # the paper's metrics are pseudo-Riemannian: nothing asks for a positive one,
    # and the Koszul oracle runs on every model (measured: routes <= 8.9e-16,
    # Koszul <= 1.6e-16)
    model = build()
    g = MetricSpec.from_scalar_matrix(model.calculus, INDEFINITE[metric])
    res = levi_civita(model.calculus, g, route="both")
    assert res.route_difference <= 1e-12
    assert res.connection.difference_norm(koszul_oracle(model.calculus, g)) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_indefinite_varying_metric_solves_and_matches_koszul(torus_comm, torus_twisted, seed):
    # with g_00 negated the component matrix is invertible and indefinite at
    # every point.  Measured on the flat torus: routes <= 2.6e-15, Koszul vs
    # direct 4.2e-13 to 1.3e-12, the floor of g^-1's 1e-12 read-back tail; on
    # the twisted torus the routes agree to 1e-14 and Koszul to 1.2e-11
    for model in (torus_comm, torus_twisted):
        base = random_central_metric(model, np.random.default_rng(seed))
        for sign in (1.0, -1.0):
            comps = [list(row) for row in base.components]
            comps[0][0] = sign * comps[0][0]
            g = MetricSpec(model.calculus, comps)
            res = levi_civita(model.calculus, g, route="both")
            assert res.route_difference <= 1e-12
            assert res.connection.difference_norm(koszul_oracle(model.calculus, g)) <= 1e-10


# the models of the signature property, built once
SIGNATURE_MODELS = {
    "fuzzy-sphere-1": lambda: fuzzy_sphere(1),
    "fuzzy-sphere-2": lambda: fuzzy_sphere(2),
    "fuzzy-sphere-3": lambda: fuzzy_sphere(3),
    "heisenberg": heisenberg,
    "torus": lambda: torus_bundle(3, 2, np.zeros((2, 2)), 3),
    "twisted-torus": lambda: torus_bundle(3, 2, [[0.0, 0.3], [-0.3, 0.0]], 3),
}


@functools.lru_cache(maxsize=None)
def _signature_model(name):
    return SIGNATURE_MODELS[name]()


@pytest.mark.parametrize("build", [lambda: fuzzy_sphere(1), heisenberg],
                         ids=["fuzzy-sphere-1", "heisenberg"])
def test_constant_inverse_keeps_every_entry(build):
    # a constant metric's inverse has no Fourier tail to cut: its 9e-12 entries
    # lie under the 1e-12 relative tail floor of a varying inverse, and dropping
    # them put the phi route 4e-11 and the oracle 9e-12 off at cond(g) = 10
    model = build()
    gmat = np.diag([-1.0, -1.0, -0.1])
    gmat[0, 2] = gmat[2, 0] = gmat[1, 2] = gmat[2, 1] = -9e-13
    g = MetricSpec.from_scalar_matrix(model.calculus, gmat)
    h = np.array([[trace(x) for x in row] for row in g.inverse_components])
    assert np.array_equal(h, np.linalg.inv(gmat))
    res = levi_civita(model.calculus, g, route="both")
    assert res.route_difference <= 1e-14
    assert res.connection.difference_norm(koszul_oracle(model.calculus, g)) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SIGNATURE_MODELS)),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3),
       logs=st.lists(st.floats(-3.0, 0.0), min_size=3, max_size=3),
       frame=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))
def test_routes_and_oracle_agree_on_constant_metrics_of_every_signature(name, signs, logs,
                                                                       frame):
    # g = Q diag(s_i 10^l_i) Q^T: every signature, condition number <= 1e3.  Gamma
    # is unchanged by g -> c g, so the largest |eigenvalue| is 1: for a constant
    # metric the compatibility gate's scale max(1, |D|, |dg|) does not grow
    # with |g|, and a large metric fails the 1e-10 gate (recorded in CHANGES.md).
    # The direct route's torsion operator in the lowered unknowns is
    # ill-conditioned (its sv_ratio is 2 eps^2 on diag(1, 1, eps)), so past 1e-12
    # the bound is eps max|Gamma| / sv_ratio, the forward error of a
    # backward-stable solve with the route's own certificate (measured: at most
    # 0.27 of it in random frames, up to 5.6e-9 at cond(g) = 1e3).  It omits the
    # pointwise inversion of g, and a few draws exceed it (recorded in CHANGES.md)
    model = _signature_model(name)
    q, _ = np.linalg.qr(np.reshape(frame, (3, 3)))
    eig = np.array(signs) * 10.0 ** (np.array(logs) - max(logs))
    gmat = q @ np.diag(eig) @ q.T
    g = MetricSpec.from_scalar_matrix(model.calculus, (gmat + gmat.T) / 2)
    res = levi_civita(model.calculus, g, route="both")
    oracle = koszul_oracle(model.calculus, g)
    gamma = max(1.0, float(np.max(np.abs(oracle.scalars()))))
    bound = max(1e-12, 8 * np.finfo(float).eps * gamma / res.sv_ratio)
    assert res.route_difference <= bound
    assert res.connection.difference_norm(oracle) <= bound


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


def test_residual_gate_raises_inconsistent():
    # at radius 1 the solve meets the default gates; a gate no floating-point
    # answer can meet must still refuse it rather than return it
    model = torus_bundle(3, 2, np.zeros((2, 2)), radius=1)
    g = random_central_metric(model, np.random.default_rng(9))
    assert levi_civita(model.calculus, g, route="direct").compat_residual <= 1e-11
    with pytest.raises(Inconsistent, match=r"solver output breaches residual tolerance"):
        levi_civita(model.calculus, g, route="direct", residual_tol=1e-20)


@pytest.mark.parametrize("which", ["torsion", "compatibility"])
def test_nan_residual_fails_the_gate(monkeypatch, which):
    # a NaN compares false with any bound, and max(1e-12, nan) is 1e-12, so the
    # gate must be written to fail closed on either residual
    model = heisenberg()
    nan = float("nan")
    if which == "torsion":
        monkeypatch.setattr(solver, "torsion_residual", lambda nabla: nan)
    else:
        real = solver._compat_residual
        monkeypatch.setattr(solver, "_compat_residual", lambda g, nabla, dg: dataclasses.replace(
            real(g, nabla, dg), max_norm=nan))
    with pytest.raises(Inconsistent, match=r"nan"):
        levi_civita(model.calculus, model.metric, route="direct")


@pytest.mark.parametrize("m", [3, 4, 5])
def test_radius_is_not_an_input_to_the_answer(m):
    # the solve grid and the read-back depend on the metric alone, so every
    # radius that holds the metric gives the same connection, byte for byte
    direct = set()
    for radius in range(1, 7):
        model = torus_bundle(m, m - 1, np.zeros((m - 1, m - 1)), radius)
        g = random_central_metric(model, np.random.default_rng(0))
        res = levi_civita(model.calculus, g, route="direct")
        direct.add((res.stats["grid_points"],) + tuple(
            (el.mode_array.tobytes(), el.coeff_array.tobytes())
            for plane in res.connection.gamma for row in plane for el in row))
        assert levi_civita(model.calculus, g, route="both").route_difference <= 1e-13
    assert len(direct) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_radius_is_not_an_input_to_any_route(seed):
    # g^-1's grid is sized by the metric as well, so the inverse, both routes
    # and the Koszul oracle give the same bits at every radius that holds g
    seen = set()
    for radius in (1, 2, 4, 6):
        model = torus_bundle(3, 2, np.zeros((2, 2)), radius)
        g = random_central_metric(model, np.random.default_rng(seed))
        conns = [levi_civita(model.calculus, g, route=route).connection
                 for route in ("direct", "phi")] + [koszul_oracle(model.calculus, g)]
        elements = [c for row in g.inverse_components for c in row] + [
            el for nab in conns for plane in nab.gamma for row in plane for el in row]
        seen.add(tuple((el.mode_array.tobytes(), el.coeff_array.tobytes())
                       for el in elements))
    assert len(seen) == 1


@pytest.mark.parametrize("radius", [1, 4, 8])
def test_slowly_decaying_inverse_solves_at_every_radius(radius):
    # g_22 = 1 + 0.9 cos(2 pi x_2): its inverse reaches 55, beyond every radius
    # here, and the metric, not R, sizes the grid it is read back on
    model = torus_bundle(3, 2, np.zeros((2, 2)), radius)
    g = cosine_metric(model, 0.9, [2])
    res = levi_civita(model.calculus, g, route="both")
    assert res.torsion_residual <= 1e-10 and res.compat_residual <= 1e-10
    assert res.route_difference <= 1e-9
    assert koszul_oracle(model.calculus, g).difference_norm(res.connection) <= 1e-8


# -- pointwise direct solve: metamorphic, oracle and phase-rule checks --------


def _twisted_rng0():
    model = torus_bundle(3, 2, np.array([[0.0, 0.3], [-0.3, 0.0]]), radius=4)
    return model, random_central_metric(model, np.random.default_rng(0))


def test_direct_invariant_under_metric_scaling():
    # Gamma depends on g only through g^-1 dg, so c g has the same connection;
    # g^-1's read-back floor is relative, so a large c cuts no more of it
    model, g = _twisted_rng0()
    base = levi_civita(model.calculus, g, route="direct").connection
    for factor in (1e-6, 2.5, 1e4, 1e6):
        scaled = MetricSpec(model.calculus, [[c * factor for c in row] for row in g.components])
        assert levi_civita(model.calculus, scaled, route="both").connection.difference_norm(
            base) <= 1e-12, factor


def test_direct_commutes_with_translation_of_free_coordinate():
    # translating the central coordinate by t multiplies every mode k by
    # exp(2 pi i k_3 t), on the metric and on the connection alike
    model, g = _twisted_rng0()
    be, n, t = model.backend, 3, 0.137

    def shift(el):
        # Gamma may reach beyond R, so it is rewrapped without the radius check
        k = el.mode_array
        return central_element(be, k, el.coeff_array * np.exp(2j * np.pi * k[:, 2] * t))

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
        # Gamma may reach beyond R, so it is rewrapped without the radius check
        return central_element(be, el.mode_array[:, perm], el.coeff_array)

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


# -- the reduced pointwise core against the stacked joint operator -------------


def reference_joint_solve(calculus, g, grid):
    """Per point of the core's grid, the stacked (n m + n^3) x n^3 operator of
    every torsion row (i, alpha) and every compatibility row (i, j, l), written
    out entry by entry, and its least-squares solution: the system the reduced
    core replaces.  Returns the solutions and the (operator, right-hand side)
    pair of each point."""
    n, m = calculus.rank, calculus.two_form_rank
    c, d = calculus.wedge_constants, calculus.exterior_constants
    comps = [el for row in g.components for el in row]
    assert grid.coords == central_coords(comps)
    gpts = grid.sample(comps).T.reshape(-1, n, n)
    dg = _derivatives(calculus, g.components)
    dgpts = grid.sample([e for plane in dg for row in plane for e in row]).T

    def col(i, j, k):
        return (i * n + j) * n + k

    out, systems = [], []
    for gp, rhs_compat in zip(gpts, dgpts):
        rows, rhs = [], []
        for i in range(n):
            for alpha in range(m):
                row = np.zeros(n ** 3, dtype=complex)
                for j in range(n):
                    for k in range(n):
                        row[col(i, j, k)] = c[alpha, j, k]
                rows.append(row)
                rhs.append(-d[alpha, i])
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    row = np.zeros(n ** 3, dtype=complex)
                    for k in range(n):
                        row[col(i, k, l)] += gp[k, j]
                        row[col(j, k, l)] += gp[k, i]
                    rows.append(row)
        a = np.array(rows)
        b = np.concatenate([np.array(rhs, dtype=complex), rhs_compat])
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        out.append(x)
        systems.append((a, b))
    return np.array(out), systems


def _ladder_case(m):
    model = torus_bundle(m, m - 1, np.zeros((m - 1, m - 1)), radius=4)
    return model.calculus, random_central_metric(model, np.random.default_rng(0))


def _twisted_case():
    model, g = _twisted_rng0()
    return model.calculus, g


def _two_coordinate_case():
    model = torus_bundle(4, 2, np.zeros((2, 2)), radius=4)
    return model.calculus, random_central_metric(model, np.random.default_rng(3))


def _shipped_case(model):
    return model.calculus, model.metric


def _complex_valued_case():
    # g_33 = 1 + 0.002 U_3 + 0.001 U_3^-1 is not real-valued, so the core runs complex
    model = torus_bundle(3, 2, np.zeros((2, 2)), radius=4)
    be = model.backend
    unit, zero = AlgebraElement.unit(be), AlgebraElement.zero(be)
    g33 = unit + AlgebraElement.from_modes(be, {(0, 0, 1): 0.002, (0, 0, -1): 0.001})
    return model.calculus, MetricSpec(model.calculus, [[unit, zero, zero], [zero, unit, zero],
                                                       [zero, zero, g33]])


@pytest.mark.parametrize("case", [
    lambda: _ladder_case(3), lambda: _ladder_case(4), lambda: _ladder_case(5),
    _twisted_case, _two_coordinate_case,
    lambda: _shipped_case(fuzzy_sphere(1)), lambda: _shipped_case(fuzzy_sphere(2)),
    lambda: _shipped_case(heisenberg()), _complex_valued_case,
], ids=["ladder-m3", "ladder-m4", "ladder-m5", "twisted-m3", "two-coordinate-m4",
        "fuzzy-sphere-1", "fuzzy-sphere-2", "heisenberg", "complex-valued-metric"])
def test_reduced_core_matches_stacked_joint_operator(case):
    calculus, g = case()
    grid, x, ratio, size = _solve_pointwise(calculus, g, _derivatives(calculus, g.components))
    want, systems = reference_joint_solve(calculus, g, grid)
    assert x.shape == want.shape == (grid.points, calculus.rank ** 3)
    assert np.max(np.abs(x - want)) <= 1e-13
    # every torsion and compatibility row holds at the core's solution
    res = max(float(np.max(np.abs(a @ xp - b))) for (a, b), xp in zip(systems, x))
    assert res <= 1e-13 and ratio > 1e-8


def _torus_rng0_case():
    model = torus_bundle(3, 2, np.zeros((2, 2)), 3)
    return model.calculus, random_central_metric(model, np.random.default_rng(0))


@pytest.mark.parametrize("case,dtype", [
    (_torus_rng0_case, np.float64),
    (lambda: _shipped_case(fuzzy_sphere(1)), np.float64),
    (lambda: _shipped_case(heisenberg()), np.float64),
    (_complex_valued_case, np.complex128),
], ids=["torus-rng0", "fuzzy-sphere-1", "heisenberg", "complex-valued-metric"])
def test_real_calculus_and_metric_solve_in_real_arithmetic(monkeypatch, case, dtype):
    # real wedge constants and a real-valued metric give a real torsion operator;
    # a complex solve of it gives the same Gamma, so only its dtype shows the path
    calculus, g = case()
    dg = _derivatives(calculus, g.components)
    seen = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: seen.append(a.dtype) or solve(a, b))
    _solve_pointwise(calculus, g, dg)
    assert seen == [dtype]


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("radius", [1, 2, 3, 4, 5, 6])
def test_direct_pass_fail_unchanged_on_untwisted_ladder(m, radius):
    # every radius passes: no truncation radius clips the read-back
    model = torus_bundle(m, m - 1, np.zeros((m - 1, m - 1)), radius)
    g = random_central_metric(model, np.random.default_rng(0))
    assert levi_civita(model.calculus, g, route="direct").compat_residual <= 1e-11


def _underdetermined_calculus():
    # rank 3 with the single two-form e_1 ^ e_2
    backend = BackendDescriptor.matrix(1)
    wedge = np.zeros((1, 3, 3))
    wedge[0, 0, 1], wedge[0, 1, 0] = 1.0, -1.0
    return CalculusSpec(3, 1, wedge, np.zeros((1, 3)),
                        [DerivationSpec.zero() for _ in range(3)], backend,
                        [AlgebraElement.unit(backend)])


def test_underdetermined_torsion_raises_non_unique_on_every_route():
    # compatibility fixes all but the 9 antisymmetric lowered unknowns per
    # point, and one two-form gives torsion 3 equations for them
    calculus = _underdetermined_calculus()
    g = MetricSpec.from_scalar_matrix(calculus, np.eye(3))
    for route in ("direct", "phi", "both"):
        with pytest.raises(NonUnique, match="9 unknowns per point against 3"):
            levi_civita(calculus, g, route=route)


@pytest.mark.parametrize("build", [heisenberg, lambda: fuzzy_sphere(1)],
                         ids=["heisenberg", "fuzzy-sphere-1"])
def test_kernel_certificate_from_both_sides(build):
    # on g = diag(1, 1, eps) the torsion operator in the lowered unknowns has the
    # relative singular value 2 eps^2: 2e-8 at eps = 1e-4 lies above the 1e-8
    # floor by less than 10x and solves; 7.2e-9 at eps = 6e-5 lies under it
    model = build()
    near = MetricSpec.from_scalar_matrix(model.calculus, np.diag([1.0, 1.0, 1e-4]))
    res = levi_civita(model.calculus, near, route="both")
    assert res.sv_ratio == pytest.approx(2e-8, rel=1e-9)
    assert max(res.torsion_residual, res.compat_residual) <= 1e-10
    assert res.route_difference <= 1e-9
    under = MetricSpec.from_scalar_matrix(model.calculus, np.diag([1.0, 1.0, 6e-5]))
    for route in ("direct", "phi", "both"):
        with pytest.raises(NonUnique, match=r"relative singular value 7\.200e-09"):
            levi_civita(model.calculus, under, route=route)


def _corrupted(g, entry):
    """g with component (0, 0) set to entry after construction."""
    rows = [list(row) for row in g.components]
    rows[0][0] = entry
    return with_components(g, rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_metric_is_singular_on_every_route(heis, torus_comm, bad):
    torus_g = random_central_metric(torus_comm, np.random.default_rng(0))
    for model, g in ((heis, heis.metric), (torus_comm, torus_g)):
        for route in ("direct", "phi", "both"):
            with np.errstate(all="ignore"), pytest.raises(SingularMetric, match="not finite"):
                entry = g.components[0][0] + AlgebraElement.unit(model.calculus.backend) * bad
                levi_civita(model.calculus, _corrupted(g, entry), route=route)


def test_singular_sampled_metric_is_singular_on_every_route(heis):
    # a zero component (0, 0) of the identity makes g singular at every point
    g = _corrupted(heis.metric, AlgebraElement.zero(heis.calculus.backend))
    for route in ("direct", "phi", "both"):
        with pytest.raises(SingularMetric, match="singular on the solve grid"):
            levi_civita(heis.calculus, g, route=route)


@pytest.mark.parametrize("build", [
    lambda: fuzzy_sphere(1).calculus, lambda: fuzzy_sphere(3).calculus,
    lambda: heisenberg().calculus,
    lambda: torus_bundle(3, 2, np.array([[0.0, 0.3], [-0.3, 0.0]]), radius=2).calculus,
    lambda: torus_bundle(5, 4, np.zeros((4, 4)), radius=1).calculus,
    lambda: torus_bundle(1, 1, np.zeros((1, 1)), radius=2).calculus,
    _underdetermined_calculus,
], ids=["fuzzy-sphere-1", "fuzzy-sphere-3", "heisenberg", "torus-3-twisted", "torus-5",
        "torus-1-no-two-forms", "underdetermined"])
def test_calculus_keeps_the_torsion_solution(build):
    # Gamma^i = torsion_particular[i] solves c . Gamma^i = -D_i
    calculus = build()
    n, m = calculus.rank, calculus.two_form_rank
    flat = calculus.wedge_constants.reshape(m, n * n)
    particular = calculus.torsion_particular.reshape(n, n * n)
    assert calculus.torsion_particular.shape == (n, n, n)
    assert np.max(np.abs(flat @ particular.T + calculus.exterior_constants),
                  initial=0.0) <= 1e-12


STAT_KEYS = {"grid_points", "equations", "unknowns", "gamma_reach", "dropped_tail",
             "core_s", "readback_s", "gates_s"}
COUNT_KEYS = {"grid_points", "equations", "unknowns", "gamma_reach"}


def test_stats_schema_and_square_system_on_every_shipped_model(fuzzy1, heis):
    # the ladder metric and its inverse reach 1 and 4, so it samples 2 (4 + 1) + 1 points
    cases = [(fuzzy1.calculus, fuzzy1.metric, 1), (heis.calculus, heis.metric, 1),
             _ladder_case(3) + (11,)]
    cases += [(model.calculus, model.metric, 1)
              for model in (torus_bundle(m, 1, np.zeros((1, 1)), radius=2) for m in range(1, 6))]
    for calculus, g, points in cases:
        n = calculus.rank
        for route in ("direct", "phi", "both"):
            stats = levi_civita(calculus, g, route=route).stats
            assert set(stats) == STAT_KEYS
            assert stats["grid_points"] == points
            # torsion's n m equations in the n^2 (n-1)/2 antisymmetric lowered
            # unknowns: a stacked system would have n m + n^3 rows
            assert stats["equations"] == stats["unknowns"] == n * n * (n - 1) // 2
            for key in STAT_KEYS - COUNT_KEYS:
                assert type(stats[key]) is float and stats[key] >= 0.0
            assert all(type(stats[k]) is int and stats[k] >= 0 for k in COUNT_KEYS)
            # the read-back drops only what its 1e-16 floor drops; the phi route reads nothing back
            assert stats["dropped_tail"] <= 1e-16
            if route == "phi":
                assert stats["dropped_tail"] == 0.0
            else:
                # the modes read back are frequencies of the odd-sized grid
                assert 2 * stats["gamma_reach"] < points
            if calculus.backend.kind == "matrix":
                assert stats["gamma_reach"] == 0
