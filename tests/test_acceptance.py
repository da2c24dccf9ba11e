"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Tolerances are pinned here, not configured elsewhere.
"""

import time

import numpy as np

from nclevi.algebra import AlgebraElement, random_elements, wide_mul, wide_sum
from nclevi.calculus import p_sym_many, random_samples, sigma, worst_difference
from nclevi.deformation import deform_connection, deform_product_many, require_skew
from nclevi.errors import SingularMetric
from nclevi.metric import MetricSpec, v_g2_matrix
from nclevi.models import (
    fuzzy_sphere,
    heisenberg,
    random_central_metric,
    torus_bundle,
)
from nclevi.solver import koszul_oracle, levi_civita, phi_g_apply_many, phi_g_invert

from test_solver import EPS, HEISENBERG_EXPECTED


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def all_models():
    theta = np.array([[0.0, 0.3], [-0.3, 0.0]])
    return [fuzzy_sphere(1), fuzzy_sphere(2), heisenberg(),
            torus_bundle(3, 2, np.zeros((2, 2)), radius=3),
            torus_bundle(3, 2, theta, radius=3)]


def test_criterion_1_fuzzy_sphere_levi_civita():
    """Gamma^i_jk = (i/2) eps^ijk on fuzzy_sphere(k), k in {1, 2}, both routes,
    componentwise error <= 1e-12, each solve under 1 s."""
    worst_err, worst_time = 0.0, 0.0
    for k in (1, 2):
        model = fuzzy_sphere(k)
        for route in ("direct", "phi"):
            start = time.perf_counter()
            res = levi_civita(model.calculus, model.metric, route=route)
            elapsed = time.perf_counter() - start
            err = float(np.max(np.abs(res.connection.scalars() - 0.5j * EPS)))
            worst_err = max(worst_err, err)
            worst_time = max(worst_time, elapsed)
    ok = worst_err <= 1e-12 and worst_time < 1.0
    _report("1 fuzzy-sphere Levi-Civita",
            ok, f"max error {worst_err:.2e}, max runtime {worst_time:.3f} s")


def test_criterion_2_residuals_on_shipped_models():
    """Torsion and compatibility residuals <= 1e-10 for the solver output on
    every shipped model with its shipped metric."""
    worst = 0.0
    for model in all_models():
        res = levi_civita(model.calculus, model.metric, route="both")
        worst = max(worst, res.torsion_residual, res.compat_residual)
    _report("2 shipped-model residuals", worst <= 1e-10, f"max residual {worst:.2e}")


def test_criterion_3_uniqueness_certificates():
    """Smallest relative singular value of the joint operator > 1e-8 on the
    fuzzy sphere, Heisenberg and torus bundles with invertible metrics; a
    degenerate metric raises SingularMetric instead of answering."""
    rng = np.random.default_rng(3)
    worst = np.inf
    for model in all_models():
        res = levi_civita(model.calculus, model.metric, route="direct")
        worst = min(worst, res.sv_ratio)
    twisted = torus_bundle(3, 2, np.array([[0.0, 0.3], [-0.3, 0.0]]), radius=3)
    g = random_central_metric(twisted, rng)
    res = levi_civita(twisted.calculus, g, route="direct", residual_tol=1e-8)
    worst = min(worst, res.sv_ratio)

    raised = 0
    try:
        MetricSpec.from_scalar_matrix(twisted.calculus, np.diag([1.0, 1.0, 0.0]))
    except SingularMetric:
        raised += 1
    be = twisted.backend
    unit = AlgebraElement.unit(be)
    zero = AlgebraElement.zero(be)
    vanishing = unit + AlgebraElement.from_modes(be, {(0, 0, 1): -0.5, (0, 0, -1): -0.5})
    try:
        MetricSpec(twisted.calculus, [[unit, zero, zero], [zero, unit, zero],
                                      [zero, zero, vanishing]])
    except SingularMetric:
        raised += 1
    ok = worst > 1e-8 and raised == 2
    _report("3 uniqueness certificates", ok,
            f"min sv ratio {worst:.2e}, degenerate metrics raised {raised}/2")


def test_criterion_4_classical_oracle_equivalence():
    """Commutative T^3 (theta = 0, R = 3): five randomized central metrics of
    the form diag + bounded off-diagonal trig polynomials in the third
    coordinate, enforced invertible; solver matches koszul_oracle to 1e-8
    within 30 s total."""
    model = torus_bundle(3, 2, np.zeros((2, 2)), radius=3)
    rng = np.random.default_rng(4)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(5):
        g = random_central_metric(model, rng)
        res = levi_civita(model.calculus, g, route="both", residual_tol=1e-8)
        oracle = koszul_oracle(model.calculus, g)
        worst = max(worst, res.connection.difference_norm(oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    _report("4 classical oracle equivalence", ok,
            f"max deviation {worst:.2e}, total runtime {elapsed:.2f} s")


def test_criterion_5_deformation_commutes_with_levi_civita():
    """torus_bundle(3,2,theta) for three random skew theta and three random
    grade-0 metrics: levi_civita(g_theta) equals deform(levi_civita(g)) to 1e-8."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(3):
        s = rng.uniform(0.05, 0.45)
        base_theta = np.array([[0.0, rng.uniform(0.0, 0.4)], [0.0, 0.0]])
        base_theta[1, 0] = -base_theta[0, 1]
        model = torus_bundle(3, 2, base_theta, radius=3)
        g = random_central_metric(model, rng)
        extra = np.array([[0.0, s], [-s, 0.0]])
        require_skew(extra)
        base = levi_civita(model.calculus, g, route="direct", residual_tol=1e-8)
        deformed = deform_connection(model.calculus, base.connection, g, extra,
                                     model.action)
        resolved = levi_civita(deformed.calculus, deformed.metric, route="both",
                               residual_tol=1e-8)
        worst = max(worst, resolved.connection.difference_norm(deformed.connection))
    _report("5 deformation commutes with Levi-Civita", worst <= 1e-8,
            f"max difference {worst:.2e}")


def test_criterion_6_deformed_product_laws():
    """x_theta associativity residual <= 1e-12 over 100 random triples;
    theta = 0 recovers the undeformed product exactly; single-mode commutation
    phase equals e^{2 pi i theta12} to 1e-14."""
    model = torus_bundle(2, 2, np.zeros((2, 2)), radius=12)
    action = model.action
    theta = np.array([[0.0, 0.29], [-0.29, 0.0]])
    rng = np.random.default_rng(6)

    def times(pairs, th=theta):
        return deform_product_many(pairs, th, action)

    triples = [tuple(random_elements(model.backend, rng, 3, radius=3))
               for _ in range(100)]
    ab = times([(a, b) for a, b, _ in triples])
    bc = times([(b, c) for _, b, c in triples])
    lhs = times([(x, c) for x, (_, _, c) in zip(ab, triples)])
    rhs = times([(a, x) for x, (a, _, _) in zip(bc, triples)])
    worst_assoc = max(wide_sum([l, -r]).norm() for l, r in zip(lhs, rhs))

    pairs = [tuple(random_elements(model.backend, rng, 2, radius=3))
             for _ in range(100)]
    worst_zero = max(wide_sum([p, -wide_mul(a, b)]).norm()
                     for p, (a, b) in zip(times(pairs, np.zeros((2, 2))), pairs))

    u = AlgebraElement.single_mode(model.backend, (1, 0))
    v = AlgebraElement.single_mode(model.backend, (0, 1))
    uv, vu = (x.coefficient((1, 1)) for x in times([(u, v), (v, u)]))
    phase_err = abs(uv / vu - np.exp(2j * np.pi * 0.29))

    ok = worst_assoc <= 1e-12 and worst_zero == 0.0 and phase_err <= 1e-14
    _report("6 deformed-product laws", ok,
            f"assoc {worst_assoc:.2e}, theta=0 {worst_zero:.1e}, phase {phase_err:.2e}")


def test_criterion_7_structural_invariants():
    """sigma^2 = id, P_sym idempotent, wedge o P_sym = 0, braid identity,
    restricted projector bijective, V_g2 flip conjugation, Phi_g roundtrip
    <= 1e-10: green on all shipped models."""
    rng = np.random.default_rng(7)
    worst = {"sigma": 0.0, "psym": 0.0, "wedge": 0.0, "braid": 0.0,
             "vg2": 0.0, "phi": 0.0}
    bijective = True
    for model in all_models():
        spec, g = model.calculus, model.metric
        n = spec.rank
        ts = [t for t, in random_samples(spec, rng, 10, "t")]
        sym = p_sym_many(ts)
        worst["sigma"] = max(worst["sigma"], worst_difference([(sigma(sigma(t)), t) for t in ts]))
        worst["psym"] = max(worst["psym"], worst_difference(zip(p_sym_many(sym), sym)))
        worst["wedge"] = max(worst["wedge"], max(w.norm() for w in spec.wedge_many(sym)))
        report = spec.braid_check()
        worst["braid"] = max(worst["braid"], report.braid_residual)
        bijective = bijective and report.bijective
        m2 = v_g2_matrix(g)
        for k in range(n):
            for l in range(n):
                for i in range(n):
                    for j in range(n):
                        d = wide_sum([m2.entry((l, k), (i, j)),
                                      -m2.entry((k, l), (j, i))])
                        worst["vg2"] = max(worst["vg2"], d.norm())
        unit = AlgebraElement.unit(spec.backend)
        lmaps = []
        for _ in range(5):
            raw = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
            raw = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
            lmaps.append([[[unit * raw[i, j, k] for k in range(n)] for j in range(n)]
                          for i in range(n)])
        for lmap, mmap in zip(lmaps, phi_g_apply_many(g, lmaps)):
            back = phi_g_invert(g, mmap)
            worst["phi"] = max(worst["phi"], max(
                wide_sum([back[i][j][k], -lmap[i][j][k]]).norm()
                for i in range(n) for j in range(n) for k in range(n)))
    ok = (worst["sigma"] <= 1e-12 and worst["psym"] <= 1e-12
          and worst["wedge"] <= 1e-11 and worst["braid"] <= 1e-12
          and bijective and worst["vg2"] <= 1e-11 and worst["phi"] <= 1e-10)
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _report("7 structural invariant suite", ok, detail + f", bijective {bijective}")


def test_criterion_8_heisenberg_unique_scalar_connection():
    """The Heisenberg Levi-Civita connection for g = delta matches the
    independent brute-force solve of the 27-unknown antisymmetry + torsion
    system to 1e-12.  Curvature (and any statement about its sign) is out of
    scope for this artifact and deliberately not asserted; the surrounding
    property suite substitutes for it."""
    model = heisenberg()
    res = levi_civita(model.calculus, model.metric, route="both")
    err = float(np.max(np.abs(res.connection.scalars() - HEISENBERG_EXPECTED)))
    ok = err <= 1e-12 and res.sv_ratio > 1e-8
    _report("8 Heisenberg vs brute force", ok,
            f"max deviation {err:.2e}, sv ratio {res.sv_ratio:.2e}")
