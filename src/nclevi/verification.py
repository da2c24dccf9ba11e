"""Invariant suites: one residual-checked law per line, aggregated by the CLI.

Each check returns its worst residual and the tolerance it was held to, so a
report stays meaningful when everything passes.

A suite draws its random samples in a fixed order, one group of samples at a
time, and evaluates each law stage by stage over chunks of its group: one
kernel call per stage covers a chunk (for example all products a b and b c of
twenty associativity triples, then all (a b) c and a (b c), then all
differences).  A group is drawn when its laws take it, a large one a chunk at
a time, so a suite holds one group's samples and one chunk's stage results at
most.  One `random_samples` call draws a chunk, or a group drawn whole, so
the graded stream is defined chunk by chunk; a matrix element takes one
generator call of its own, so there the samples are those of drawing one at
a time.  The laws draw nothing, and a kernel slot's result does not depend on
the other slots of its call, so each residual is the one that checking the
chunk's samples one at a time would give.  The laws run the batched
forms of the module operations (`p_sym_many`, `metric_eval_many`,
`phi_g_invert_many`, ...), the forms the solver runs; the bimodule action
(`right_mul_many`, `left_mul_many`) is untruncated, as the algebra laws'
products are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    combine,
    derive_many,
    first_noncentral,
    random_elements,
    star,
    trace,
    wide_products,
    worst,
)
from .calculus import (
    TensorSquare,
    left_mul_many,
    p_sym_many,
    random_samples,
    right_mul_many,
    sigma,
    subtract_many,
    worst_difference,
)
from .deformation import deform_product_many
from .metric import g2_eval_many, metric_eval_many, v_g2_matrix, v_g_inverse_many, v_g_many
from .models import Model
from .solver import (
    DEFAULT_KERNEL_FLOOR,
    compat_residual,
    levi_civita,
    nabla0,
    phi_g_apply_many,
    phi_g_invert_many,
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


def _drawn(spec, rng, kinds: str):
    """Samples for `_chunked` that draw each chunk with one `random_samples` call."""
    return lambda lo, hi: random_samples(spec, rng, hi - lo, kinds)


def _split(flat: list, parts: int = 2) -> list:
    size = len(flat) // parts
    return [flat[p * size:(p + 1) * size] for p in range(parts)]


# Each law below evaluates its stages over the samples it is given, one kernel
# call per stage, and returns its worst residual (or a tuple of them).  A suite
# hands each law its samples a chunk at a time through `_chunked`.  On the
# twisted R = 2 torus these sizes keep each law under 0.5 MB of stage results
# and kernel work, and verify_model under 150 kernel calls; the laws with more
# work per sample take smaller chunks.
_SAMPLES_PER_CHUNK = 10


def _chunked(law, count: int, samples, *args, size: int = _SAMPLES_PER_CHUNK):
    """law(samples(lo, hi), *args) over consecutive chunks [lo, hi) of `size`
    of `count` samples: the worst residual over the chunks, entry by entry when
    the law returns a tuple.

    `samples` may draw its chunk: each chunk is then drawn after the previous
    one has been checked.
    """
    parts = [law(samples(lo, min(lo + size, count)), *args) for lo in range(0, count, size)]
    if isinstance(parts[0], tuple):
        return tuple(worst(p) for p in zip(*parts))
    return worst(parts)


def _associativity(triples, product) -> float:
    """(a b) c against a (b c), for `product` mapping a list of pairs to their products."""
    ab, bc = _split(product([(a, b) for a, b, _ in triples] + [(b, c) for _, b, c in triples]))
    lhs, rhs = _split(product([(x, c) for x, (_, _, c) in zip(ab, triples)]
                               + [(a, y) for y, (a, _, _) in zip(bc, triples)]))
    del ab, bc
    return worst_difference(zip(lhs, rhs))


def _star_laws(pairs) -> tuple:
    """(worst |(a b)* - b* a*|, worst |a** - a|)."""
    ab, st = _split(wide_products([(a, b) for a, b in pairs]
                                   + [(star(b), star(a)) for a, b in pairs]))
    return (worst_difference(zip(map(star, ab), st)),
            worst_difference((star(star(a)), a) for a, _ in pairs))


def _trace_checks(pairs) -> tuple:
    """(worst |tr(a b) - tr(b a)|, worst violation of tr(a* a) >= 0)."""
    ab, ba, aa = _split(wide_products([(a, b) for a, b in pairs] + [(b, a) for a, b in pairs]
                                       + [(star(a), a) for a, _ in pairs]), 3)
    worst_tr = worst([abs(trace(x) - trace(y)) for x, y in zip(ab, ba)])
    pos = [trace(x) for x in aa]
    return worst_tr, worst([v for p in pos for v in (max(0.0, -p.real), abs(p.imag))])


def _derivation_leibniz(triples) -> float:
    """delta(a b) against delta(a) b + a delta(b) for the (delta, a, b) triples."""
    ab = wide_products([(a, b) for _, a, b in triples])
    lhs, da, db = _split(derive_many([(d, x) for x, (d, _, _) in zip(ab, triples)]
                                     + [(d, a) for d, a, _ in triples]
                                     + [(d, b) for d, _, b in triples]), 3)
    da_b, a_db = _split(wide_products([(x, b) for x, (_, _, b) in zip(da, triples)]
                                       + [(a, y) for y, (_, a, _) in zip(db, triples)]))
    rhs = combine(triples[0][1].backend, [[(1.0, p), (1.0, q)] for p, q in zip(da_b, a_db)])
    return worst_difference(zip(lhs, rhs))


def algebra_checks(model: Model, rng: np.random.Generator) -> List[Check]:
    spec = model.calculus
    tol = DEFAULT_TOL
    derivations = spec.derivations
    unit = AlgebraElement.unit(model.backend)
    # the groups of samples are drawn in this order, each when its laws take it
    worst_assoc = _chunked(_associativity, 100, _drawn(spec, rng, "aaa"), wide_products, size=20)
    worst_anti, worst_inv = _star_laws(random_samples(spec, rng, 20, "aa"))
    worst_tr, worst_pos = _trace_checks(random_samples(spec, rng, 20, "aa"))
    ds = [d for d in derivations for _ in range(10)]
    draw = _drawn(spec, rng, "aa")
    worst_leibniz = worst(
        [_chunked(_derivation_leibniz, len(ds),
                  lambda lo, hi: [(d,) + ab for d, ab in zip(ds[lo:hi], draw(lo, hi))], size=15)]
        + [x.norm() for x in derive_many([(d, unit) for d in derivations])])
    return [Check("algebra associativity", worst_assoc, 10 * tol),
            Check("star anti-multiplicativity", worst_anti, 10 * tol),
            Check("star involution", worst_inv, tol),
            Check("trace tracial", worst_tr, 10 * tol),
            Check("trace positivity", worst_pos, tol),
            Check("trace unital", abs(trace(unit) - 1.0), tol),
            Check("derivation Leibniz", worst_leibniz, 10 * tol)]


def _sigma_bimodule_linearity(pairs) -> float:
    """sigma(t a) against sigma(t) a, then sigma(a t) against a sigma(t)."""
    right, sig_right = _split(right_mul_many(pairs + [(sigma(t), a) for t, a in pairs]))
    worst_right = worst_difference((sigma(x), y) for x, y in zip(right, sig_right))
    del right, sig_right
    left, sig_left = _split(left_mul_many([(a, t) for t, a in pairs]
                                        + [(a, sigma(t)) for t, a in pairs]))
    return worst([worst_right, worst_difference((sigma(x), y) for x, y in zip(left, sig_left))])


def _d1_leibniz(pairs, spec) -> float:
    """d1(w a) against d1(w) a - wedge(w (x) d0(a)) for the (w, a) pairs."""
    n = spec.rank
    das = spec.d0_many([a for _, a in pairs])
    w_da = wide_products([(w.coeffs[i], da.coeffs[j])
                          for (w, _), da in zip(pairs, das) for i in range(n) for j in range(n)])
    w_da = [TensorSquare([w_da[s + i * n:s + (i + 1) * n] for i in range(n)])
            for s in range(0, len(w_da), n * n)]
    lhs, d1w = _split(spec.d1_many(right_mul_many(pairs) + [w for w, _ in pairs]))
    rhs = subtract_many(list(zip(right_mul_many(list(zip(d1w, (a for _, a in pairs)))),
                                 spec.wedge_many(w_da))))
    return worst_difference(zip(lhs, rhs))


def _projector_laws(ts, spec) -> tuple:
    """(worst |sigma(sigma(t)) - t|, worst |P_sym(P_sym(t)) - P_sym(t)|,
    worst |wedge(P_sym(t))|)."""
    sym = p_sym_many(ts)
    return (worst_difference((sigma(sigma(t)), t) for t in ts),
            worst_difference(zip(p_sym_many(sym), sym)),
            worst([w.norm() for w in spec.wedge_many(sym)]))


def _wedge_section_reconstruction(ts, spec) -> float:
    """The wedge section of wedge(t) against t - P_sym(t)."""
    anti = subtract_many(list(zip(ts, p_sym_many(ts))))
    return worst_difference(zip(spec.wedge_section_many(spec.wedge_many(ts)), anti))


def calculus_checks(model: Model, rng: np.random.Generator) -> List[Check]:
    spec = model.calculus
    tol = DEFAULT_TOL
    # the groups of samples are drawn in this order, each when its laws take it
    pairs = random_samples(spec, rng, 20, "ta")
    worst_inv, worst_idem, worst_wedge = _chunked(
        _projector_laws, 20, lambda lo, hi: [t for t, _ in pairs[lo:hi]], spec)
    worst_bimodule = _chunked(_sigma_bimodule_linearity, 20, lambda lo, hi: pairs[lo:hi], size=5)
    del pairs
    dd = random_elements(model.backend, rng, 10)
    worst_dd = worst(w.norm() for w in spec.d1_many(spec.d0_many(dd)))
    worst_d1 = _d1_leibniz(random_samples(spec, rng, 10, "wa"), spec)
    worst_section = _wedge_section_reconstruction(
        [t for t, in random_samples(spec, rng, 10, "t")], spec)
    report = spec.braid_check()
    return [Check("sigma involution", worst_inv, tol),
            Check("P_sym idempotent", worst_idem, tol),
            Check("wedge kills P_sym range", worst_wedge, tol),
            Check("sigma bimodule linearity", worst_bimodule, tol),
            Check("braid identity", report.braid_residual, tol),
            Check("restricted projectors bijective", 0.0 if report.bijective else 1.0, 0.5),
            Check("d compose d vanishes", worst_dd, 100 * tol),
            Check("d1 Leibniz", worst_d1, 1e-8),
            Check("wedge section reconstructs the complement", worst_section, 1e-9)]


def _metric_bilinearity(pairs, g) -> tuple:
    """(worst |g(sigma(t)) - g(t)|, worst |g(a t) - a g(t)| and |g(t a) - g(t) a|)."""
    ts = [t for t, _ in pairs]
    left = left_mul_many([(a, t) for t, a in pairs])
    right = right_mul_many(pairs)
    g_sig, g_t, g_left, g_right = _split(
        metric_eval_many(g, [sigma(t) for t in ts] + ts + left + right), 4)
    a_gt, gt_a = _split(wide_products([(a, x) for x, (_, a) in zip(g_t, pairs)]
                                       + [(x, a) for x, (_, a) in zip(g_t, pairs)]))
    return worst_difference(zip(g_sig, g_t)), worst_difference(
        [(x, y) for pair in zip(zip(g_left, a_gt), zip(g_right, gt_a)) for x, y in pair])


def _g2_flip_adjoint(pairs, m2) -> float:
    """g2(sigma(s), t) against g2(s, sigma(t)), for m2 the metric's V_g2 table."""
    lhs, rhs = _split(g2_eval_many(m2, [(sigma(s), t) for s, t in pairs]
                                     + [(s, sigma(t)) for s, t in pairs]))
    return worst_difference(zip(lhs, rhs))


def metric_checks(model: Model, rng: np.random.Generator) -> List[Check]:
    spec = model.calculus
    g = model.metric
    tol = DEFAULT_TOL
    n = spec.rank
    # the groups of samples are drawn in this order, each when its laws take it
    worst_sym, worst_bil = _chunked(_metric_bilinearity, 20, _drawn(spec, rng, "ta"), g)
    ws = [w for w, in random_samples(spec, rng, 10, "w")]
    worst_roundtrip = worst_difference(zip(v_g_inverse_many(g, v_g_many(g, ws)), ws))
    del ws
    m2 = v_g2_matrix(g)
    worst_adjoint = _chunked(_g2_flip_adjoint, 10, _drawn(spec, rng, "tt"), m2, size=5)
    worst_entry = worst_difference(
        (m2.entry((l, k), (i, j)), m2.entry((k, l), (j, i)))
        for k in range(n) for l in range(n) for i in range(n) for j in range(n))
    worst_cent = 0.0 if first_noncentral(
        [c for row in g.components for c in row], spec.generators) is None else 1.0
    return [Check("metric symmetry g o sigma = g", worst_sym, 100 * tol),
            Check("metric bimodule bilinearity", worst_bil, 100 * tol),
            Check("V_g roundtrip", worst_roundtrip, 1e-9),
            Check("g2 flip adjoint", worst_adjoint, 1e-8),
            Check("V_g2 conjugation by sigma", worst_entry, 100 * tol),
            Check("metric components central", worst_cent, 0.5)]


def _phi_roundtrip(raws, g) -> float:
    """Phi_g^{-1}(Phi_g(L)) against L for the scalar maps L^i_jk = raw[i, j, k]."""
    n = g.rank
    unit = AlgebraElement.unit(g.backend)
    lmaps = [[[[unit * raw[i, j, k] for k in range(n)] for j in range(n)] for i in range(n)]
             for raw in raws]
    backs = phi_g_invert_many(g, phi_g_apply_many(g, lmaps))
    return worst_difference((back[i][j][k], lmap[i][j][k]) for back, lmap in zip(backs, lmaps)
                             for i in range(n) for j in range(n) for k in range(n))


def solver_checks(model: Model, rng: np.random.Generator,
                  residual_tol: float = 1e-10) -> List[Check]:
    spec = model.calculus
    g = model.metric
    n = spec.rank
    # random maps with symmetric range for the Phi_g roundtrip, each from a
    # real and an imaginary (n, n, n) block of one draw
    xy = rng.standard_normal((10, 2, n, n, n))
    raws = xy[:, 0] + 1j * xy[:, 1]
    raws = 0.5 * (raws + np.transpose(raws, (0, 1, 3, 2)))

    out = []
    result = levi_civita(spec, g, route="both", residual_tol=residual_tol)
    out.append(Check("LC torsion residual", result.torsion_residual, residual_tol))
    out.append(Check("LC compatibility residual", result.compat_residual, residual_tol))
    out.append(Check("LC kernel certificate",
                     0.0 if result.sv_ratio > DEFAULT_KERNEL_FLOOR else 1.0, 0.5))
    out.append(Check("LC route agreement", result.route_difference or 0.0, 1e-9))

    nab0 = nabla0(spec)
    gam = result.connection.gamma
    # (Gamma - nabla_0)^i_jk - (Gamma - nabla_0)^i_kj, each as one sum of four terms
    worst_sym = worst(x.norm() for x in combine(spec.backend, [
        [(1.0, gam[i][j][k]), (-1.0, nab0.gamma[i][j][k]),
         (-1.0, gam[i][k][j]), (1.0, nab0.gamma[i][k][j])]
        for i in range(n) for j in range(n) for k in range(n)]))
    out.append(Check("torsionless difference is symmetric", worst_sym, 1e-9))
    out.append(Check("Phi_g roundtrip",
                     _chunked(_phi_roundtrip, 10, lambda lo, hi: raws[lo:hi], g, size=5), 1e-10))

    # (Pi_g(nabla) - dg) is sigma-invariant: the residual entries are (i,j)-symmetric
    res = compat_residual(g, result.connection)
    worst_flip = worst_difference(
        (res.entry(i, j, l), res.entry(j, i, l))
        for i in range(n) for j in range(n) for l in range(n))
    out.append(Check("compatibility defect sigma-invariant", worst_flip, 1e-9))
    return out


def deformation_checks(model: Model, rng: np.random.Generator) -> List[Check]:
    if model.action is None:
        return []
    action = model.action
    na = action.ndim
    theta = np.zeros((na, na))
    if na >= 2:
        theta[0, 1], theta[1, 0] = 0.37, -0.37
    spec = model.calculus
    # the groups of samples are drawn in this order, each when its laws take it
    worst_assoc = _chunked(_associativity, 30, _drawn(spec, rng, "aaa"),
                           lambda ps: deform_product_many(ps, theta, action))
    pairs = random_samples(spec, rng, 10, "aa")
    undeformed = deform_product_many(pairs, np.zeros((na, na)), action)
    return [Check("deformed product associativity", worst_assoc, 1e-12),
            Check("theta = 0 recovers the product",
                  worst_difference(zip(undeformed, wide_products(pairs))), 0.0 + 1e-15)]


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
