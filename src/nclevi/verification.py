"""Invariant suites: one residual-checked law per line, aggregated by the CLI.

Each check returns its worst residual and the tolerance it was held to, so a
report stays meaningful when everything passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    combine,
    derive,
    first_noncentral,
    random_element,
    star,
    trace,
    wide_mul,
    wide_sum,
)
from .calculus import TensorSquare, p_sym, random_one_form, random_tensor_square, sigma
from .deformation import deform_product
from .metric import g2_eval, metric_eval, v_g, v_g_inverse, v_g2_matrix
from .models import Model
from .solver import (
    DEFAULT_KERNEL_FLOOR,
    compat_residual,
    levi_civita,
    nabla0,
    phi_g_apply,
    phi_g_invert,
)


@dataclass
class Check:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"[{status}] {self.name}: residual {self.residual:.3e} (tol {self.tol:.1e})"


def _rand(model: Model, rng) -> AlgebraElement:
    return random_element(model.backend, rng)


def _worst_norm(elements) -> float:
    return max((e.norm() for e in elements), default=0.0)


def _worst_difference(pairs) -> float:
    """max |a - b| over the pairs, in one kernel call, whatever the elements' supports."""
    pairs = list(pairs)
    if not pairs:
        return 0.0
    return _worst_norm(combine(pairs[0][0].backend, [[(1.0, a), (-1.0, b)] for a, b in pairs]))


def algebra_checks(model: Model, rng: np.random.Generator) -> List[Check]:
    be = model.backend
    tol = DEFAULT_TOL
    out = []
    worst = 0.0
    for _ in range(100):
        a, b, c = (_rand(model, rng) for _ in range(3))
        lhs = wide_mul(wide_mul(a, b), c)
        rhs = wide_mul(a, wide_mul(b, c))
        worst = max(worst, wide_sum([lhs, -rhs]).norm())
    out.append(Check("algebra associativity", worst, 10 * tol))

    worst_star = 0.0
    worst_inv = 0.0
    for _ in range(20):
        a, b = (_rand(model, rng) for _ in range(2))
        worst_star = max(worst_star, wide_sum(
            [star(wide_mul(a, b)), -wide_mul(star(b), star(a))]).norm())
        worst_inv = max(worst_inv, (star(star(a)) - a).norm())
    out.append(Check("star anti-multiplicativity", worst_star, 10 * tol))
    out.append(Check("star involution", worst_inv, tol))

    worst_tr = 0.0
    worst_pos = 0.0
    for _ in range(20):
        a, b = (_rand(model, rng) for _ in range(2))
        worst_tr = max(worst_tr, abs(trace(wide_mul(a, b)) - trace(wide_mul(b, a))))
        p = trace(wide_mul(star(a), a))
        worst_pos = max(worst_pos, max(0.0, -p.real), abs(p.imag))
    out.append(Check("trace tracial", worst_tr, 10 * tol))
    out.append(Check("trace positivity", worst_pos, tol))
    unit = AlgebraElement.unit(be)
    out.append(Check("trace unital", abs(trace(unit) - 1.0), tol))

    worst_leib = 0.0
    for d in model.calculus.derivations:
        for _ in range(10):
            a, b = (_rand(model, rng) for _ in range(2))
            lhs = derive(d, wide_mul(a, b))
            rhs = wide_sum([wide_mul(derive(d, a), b), wide_mul(a, derive(d, b))])
            worst_leib = max(worst_leib, wide_sum([lhs, -rhs]).norm())
        worst_leib = max(worst_leib, derive(d, unit).norm())
    out.append(Check("derivation Leibniz", worst_leib, 10 * tol))
    return out


def calculus_checks(model: Model, rng: np.random.Generator) -> List[Check]:
    spec = model.calculus
    tol = DEFAULT_TOL
    out = []
    worst_sig = worst_psym = worst_wp = worst_bimod = 0.0
    for _ in range(20):
        t = random_tensor_square(spec, rng)
        worst_sig = max(worst_sig, (sigma(sigma(t)) - t).norm())
        worst_psym = max(worst_psym, (p_sym(p_sym(t)) - p_sym(t)).norm())
        worst_wp = max(worst_wp, spec.wedge(p_sym(t)).norm())
        a = _rand(model, rng)
        worst_bimod = max(worst_bimod,
                          (sigma(t.right_mul(a)) - sigma(t).right_mul(a)).norm(),
                          (sigma(t.left_mul(a)) - sigma(t).left_mul(a)).norm())
    out.append(Check("sigma involution", worst_sig, tol))
    out.append(Check("P_sym idempotent", worst_psym, tol))
    out.append(Check("wedge kills P_sym range", worst_wp, tol))
    out.append(Check("sigma bimodule linearity", worst_bimod, tol))

    report = spec.braid_check()
    out.append(Check("braid identity", report.braid_residual, tol))
    out.append(Check("restricted projectors bijective",
                     0.0 if report.bijective else 1.0, 0.5))

    worst_dd = 0.0
    for _ in range(10):
        a = _rand(model, rng)
        worst_dd = max(worst_dd, spec.d1(spec.d0(a)).norm())
    out.append(Check("d compose d vanishes", worst_dd, 100 * tol))

    worst_leib = 0.0
    for _ in range(10):
        w = random_one_form(spec, rng)
        a = _rand(model, rng)
        lhs = spec.d1(w.right_mul(a))
        n = spec.rank
        da = spec.d0(a)
        wo_da = [[wide_mul(w.coeffs[i], da.coeffs[k]) for k in range(n)] for i in range(n)]
        rhs = spec.d1(w).right_mul(a) - spec.wedge(TensorSquare(wo_da))
        worst_leib = max(worst_leib, (lhs - rhs).norm())
    out.append(Check("d1 Leibniz", worst_leib, 1e-8))

    worst_dec = 0.0
    for _ in range(10):
        t = random_tensor_square(spec, rng)
        anti = t - p_sym(t)
        rebuilt = spec.wedge_section(spec.wedge(t))
        worst_dec = max(worst_dec, (rebuilt - anti).norm())
    out.append(Check("wedge section reconstructs the complement", worst_dec, 1e-9))
    return out


def metric_checks(model: Model, rng: np.random.Generator) -> List[Check]:
    spec = model.calculus
    g = model.metric
    tol = DEFAULT_TOL
    out = []
    worst_sym = worst_bil = 0.0
    for _ in range(20):
        t = random_tensor_square(spec, rng)
        worst_sym = max(worst_sym, wide_sum(
            [metric_eval(g, sigma(t)), -metric_eval(g, t)]).norm())
        a = _rand(model, rng)
        worst_bil = max(worst_bil,
                        wide_sum([metric_eval(g, t.left_mul(a)),
                                  -wide_mul(a, metric_eval(g, t))]).norm(),
                        wide_sum([metric_eval(g, t.right_mul(a)),
                                  -wide_mul(metric_eval(g, t), a)]).norm())
    out.append(Check("metric symmetry g o sigma = g", worst_sym, 100 * tol))
    out.append(Check("metric bimodule bilinearity", worst_bil, 100 * tol))

    worst_rt = 0.0
    for _ in range(10):
        w = random_one_form(spec, rng)
        back = v_g_inverse(g, v_g(g, w))
        worst_rt = max(worst_rt, _worst_difference(zip(back.coeffs, w.coeffs)))
    out.append(Check("V_g roundtrip", worst_rt, 1e-9))

    worst_adj = 0.0
    for _ in range(10):
        s = random_tensor_square(spec, rng)
        t = random_tensor_square(spec, rng)
        worst_adj = max(worst_adj, wide_sum(
            [g2_eval(g, sigma(s), t), -g2_eval(g, s, sigma(t))]).norm())
    out.append(Check("g2 flip adjoint", worst_adj, 1e-8))

    m2 = v_g2_matrix(g)
    n = spec.rank
    worst_entry = _worst_difference(
        (m2.entry((l, k), (i, j)), m2.entry((k, l), (j, i)))
        for k in range(n) for l in range(n) for i in range(n) for j in range(n))
    out.append(Check("V_g2 conjugation by sigma", worst_entry, 100 * tol))
    worst_cent = 0.0 if first_noncentral(
        [c for row in g.components for c in row], spec.generators) is None else 1.0
    out.append(Check("metric components central", worst_cent, 0.5))
    return out


def solver_checks(model: Model, rng: np.random.Generator,
                  residual_tol: float = 1e-10) -> List[Check]:
    spec = model.calculus
    g = model.metric
    out = []
    result = levi_civita(spec, g, route="both", residual_tol=residual_tol)
    out.append(Check("LC torsion residual", result.torsion_residual, residual_tol))
    out.append(Check("LC compatibility residual", result.compat_residual, residual_tol))
    out.append(Check("LC kernel certificate",
                     0.0 if result.sv_ratio > DEFAULT_KERNEL_FLOOR else 1.0, 0.5))
    out.append(Check("LC route agreement", result.route_difference or 0.0, 1e-9))

    n = spec.rank
    nab0 = nabla0(spec)
    gam = result.connection.gamma
    # (Gamma - nabla_0)^i_jk - (Gamma - nabla_0)^i_kj, each as one sum of four terms
    worst_sym = _worst_norm(combine(spec.backend, [
        [(1.0, gam[i][j][k]), (-1.0, nab0.gamma[i][j][k]),
         (-1.0, gam[i][k][j]), (1.0, nab0.gamma[i][k][j])]
        for i in range(n) for j in range(n) for k in range(n)]))
    out.append(Check("torsionless difference is symmetric", worst_sym, 1e-9))

    # Phi_g roundtrip on random symmetric-range maps
    worst_phi = 0.0
    for _ in range(10):
        raw = np.asarray(rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n)))
        raw = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
        unit = AlgebraElement.unit(spec.backend)
        lmap = [[[unit * raw[i, j, k] for k in range(n)] for j in range(n)] for i in range(n)]
        back = phi_g_invert(g, phi_g_apply(g, lmap))
        worst_phi = max(worst_phi, _worst_difference(
            (back[i][j][k], lmap[i][j][k])
            for i in range(n) for j in range(n) for k in range(n)))
    out.append(Check("Phi_g roundtrip", worst_phi, 1e-10))

    # (Pi_g(nabla) - dg) is sigma-invariant: the residual entries are (i,j)-symmetric
    res = compat_residual(g, result.connection)
    worst_flip = _worst_difference(
        (res.entry(i, j, l), res.entry(j, i, l))
        for i in range(n) for j in range(n) for l in range(n))
    out.append(Check("compatibility defect sigma-invariant", worst_flip, 1e-9))
    return out


def deformation_checks(model: Model, rng: np.random.Generator) -> List[Check]:
    if model.action is None:
        return []
    be = model.backend
    action = model.action
    na = action.ndim
    theta = np.zeros((na, na))
    if na >= 2:
        theta[0, 1], theta[1, 0] = 0.37, -0.37
    out = []
    worst_assoc = 0.0
    for _ in range(30):
        a, b, c = (random_element(be, rng) for _ in range(3))
        lhs = deform_product(deform_product(a, b, theta, action), c, theta, action)
        rhs = deform_product(a, deform_product(b, c, theta, action), theta, action)
        worst_assoc = max(worst_assoc, wide_sum([lhs, -rhs]).norm())
    out.append(Check("deformed product associativity", worst_assoc, 1e-12))

    worst_zero = 0.0
    for _ in range(10):
        a, b = (random_element(be, rng) for _ in range(2))
        lhs = deform_product(a, b, np.zeros((na, na)), action)
        worst_zero = max(worst_zero, wide_sum([lhs, -wide_mul(a, b)]).norm())
    out.append(Check("theta = 0 recovers the product", worst_zero, 0.0 + 1e-15))
    return out


def verify_model(model: Model, seed: int = 0,
                 residual_tol: float = 1e-10) -> List[Check]:
    rng = np.random.default_rng(seed)
    checks = []
    checks += algebra_checks(model, rng)
    checks += calculus_checks(model, rng)
    checks += metric_checks(model, rng)
    checks += solver_checks(model, rng, residual_tol)
    checks += deformation_checks(model, rng)
    return checks
