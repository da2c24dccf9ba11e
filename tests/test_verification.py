"""verify_model's output, pinned.

Every check's name, tolerance and residual (as float.hex, so bit for bit) on
three models at two seeds.  The suites draw a chunk of samples in one call
and evaluate each law stage across the chunk in one kernel call; these pins
hold that evaluation to the residuals of checking the chunk's samples one at
a time.  A matrix element takes one generator call of its own, so on the
matrix models the samples, and the pins, are those of drawing one sample at
a time.
"""

from collections import Counter

import numpy as np
import pytest

from nclevi import algebra, verification
from nclevi.models import fuzzy_sphere, heisenberg, torus_bundle
from nclevi.verification import verify_model

MODELS = {
    "torus": lambda: torus_bundle(3, 2, np.array([[0.0, 0.3], [-0.3, 0.0]]), 2),
    "fuzzy": lambda: fuzzy_sphere(3),
    "heis": heisenberg,
}

# (model, seed) -> [(check name, tol, float.hex(residual))] in verify_model's order
PINNED = {
    ('torus', 0): [
        ('algebra associativity', 1e-11, '0x1.2c9cda6892035p-47'),
        ('star anti-multiplicativity', 1e-11, '0x1.07e0f66afed07p-50'),
        ('star involution', 1e-12, '0x0.0p+0'),
        ('trace tracial', 1e-11, '0x1.0000000000000p-52'),
        ('trace positivity', 1e-12, '0x1.0ed10fbea8fd0p-52'),
        ('trace unital', 1e-12, '0x0.0p+0'),
        ('derivation Leibniz', 1e-11, '0x1.060dad910e74dp-46'),
        ('sigma involution', 1e-12, '0x0.0p+0'),
        ('P_sym idempotent', 1e-12, '0x0.0p+0'),
        ('wedge kills P_sym range', 1e-12, '0x0.0p+0'),
        ('sigma bimodule linearity', 1e-12, '0x0.0p+0'),
        ('braid identity', 1e-12, '0x0.0p+0'),
        ('restricted projectors bijective', 0.5, '0x0.0p+0'),
        ('d compose d vanishes', 1e-10, '0x0.0p+0'),
        ('d1 Leibniz', 1e-08, '0x1.58a68a4a8d9f3p-46'),
        ('wedge section reconstructs the complement', 1e-09, '0x1.09eeacab398f3p-51'),
        ('metric symmetry g o sigma = g', 1e-10, '0x0.0p+0'),
        ('metric bimodule bilinearity', 1e-10, '0x1.1e3779b97f4a8p-50'),
        ('V_g roundtrip', 1e-09, '0x0.0p+0'),
        ('g2 flip adjoint', 1e-08, '0x1.0000000000000p-51'),
        ('V_g2 conjugation by sigma', 1e-10, '0x0.0p+0'),
        ('metric components central', 0.5, '0x0.0p+0'),
        ('LC torsion residual', 1e-10, '0x0.0p+0'),
        ('LC compatibility residual', 1e-10, '0x0.0p+0'),
        ('LC kernel certificate', 0.5, '0x0.0p+0'),
        ('LC route agreement', 1e-09, '0x0.0p+0'),
        ('torsionless difference is symmetric', 1e-09, '0x0.0p+0'),
        ('Phi_g roundtrip', 1e-10, '0x1.07e0f66afed07p-52'),
        ('compatibility defect sigma-invariant', 1e-09, '0x0.0p+0'),
        ('deformed product associativity', 1e-12, '0x1.36a9ef26f762fp-47'),
        ('theta = 0 recovers the product', 1e-15, '0x0.0p+0'),
    ],
    ('torus', 1): [
        ('algebra associativity', 1e-11, '0x1.1e3779b97f4a8p-47'),
        ('star anti-multiplicativity', 1e-11, '0x1.94c583ada5b53p-50'),
        ('star involution', 1e-12, '0x0.0p+0'),
        ('trace tracial', 1e-11, '0x1.8000000000000p-53'),
        ('trace positivity', 1e-12, '0x1.6bc1fd1a4c54cp-53'),
        ('trace unital', 1e-12, '0x0.0p+0'),
        ('derivation Leibniz', 1e-11, '0x1.1e3779b97f4a8p-47'),
        ('sigma involution', 1e-12, '0x0.0p+0'),
        ('P_sym idempotent', 1e-12, '0x0.0p+0'),
        ('wedge kills P_sym range', 1e-12, '0x0.0p+0'),
        ('sigma bimodule linearity', 1e-12, '0x0.0p+0'),
        ('braid identity', 1e-12, '0x0.0p+0'),
        ('restricted projectors bijective', 0.5, '0x0.0p+0'),
        ('d compose d vanishes', 1e-10, '0x0.0p+0'),
        ('d1 Leibniz', 1e-08, '0x1.0000000000000p-46'),
        ('wedge section reconstructs the complement', 1e-09, '0x1.94c583ada5b53p-51'),
        ('metric symmetry g o sigma = g', 1e-10, '0x0.0p+0'),
        ('metric bimodule bilinearity', 1e-10, '0x1.6a09e667f3bcdp-49'),
        ('V_g roundtrip', 1e-09, '0x0.0p+0'),
        ('g2 flip adjoint', 1e-08, '0x1.0000000000000p-50'),
        ('V_g2 conjugation by sigma', 1e-10, '0x0.0p+0'),
        ('metric components central', 0.5, '0x0.0p+0'),
        ('LC torsion residual', 1e-10, '0x0.0p+0'),
        ('LC compatibility residual', 1e-10, '0x0.0p+0'),
        ('LC kernel certificate', 0.5, '0x0.0p+0'),
        ('LC route agreement', 1e-09, '0x0.0p+0'),
        ('torsionless difference is symmetric', 1e-09, '0x0.0p+0'),
        ('Phi_g roundtrip', 1e-10, '0x1.1e3779b97f4a8p-52'),
        ('compatibility defect sigma-invariant', 1e-09, '0x0.0p+0'),
        ('deformed product associativity', 1e-12, '0x1.65c55827df1d2p-47'),
        ('theta = 0 recovers the product', 1e-15, '0x0.0p+0'),
    ],
    ('fuzzy', 0): [
        ('algebra associativity', 1e-11, '0x1.6341f58bada14p-50'),
        ('star anti-multiplicativity', 1e-11, '0x1.58a68a4a8d9f3p-51'),
        ('star involution', 1e-12, '0x0.0p+0'),
        ('trace tracial', 1e-11, '0x1.94c583ada5b53p-55'),
        ('trace positivity', 1e-12, '0x1.447257f66631bp-60'),
        ('trace unital', 1e-12, '0x0.0p+0'),
        ('derivation Leibniz', 1e-11, '0x1.883eac9f53140p-50'),
        ('sigma involution', 1e-12, '0x0.0p+0'),
        ('P_sym idempotent', 1e-12, '0x0.0p+0'),
        ('wedge kills P_sym range', 1e-12, '0x0.0p+0'),
        ('sigma bimodule linearity', 1e-12, '0x0.0p+0'),
        ('braid identity', 1e-12, '0x0.0p+0'),
        ('restricted projectors bijective', 0.5, '0x0.0p+0'),
        ('d compose d vanishes', 1e-10, '0x1.617398f2aaa48p-51'),
        ('d1 Leibniz', 1e-08, '0x1.0000000000000p-49'),
        ('wedge section reconstructs the complement', 1e-09, '0x1.94c583ada5b53p-53'),
        ('metric symmetry g o sigma = g', 1e-10, '0x0.0p+0'),
        ('metric bimodule bilinearity', 1e-10, '0x1.0c3578c15393ep-50'),
        ('V_g roundtrip', 1e-09, '0x0.0p+0'),
        ('g2 flip adjoint', 1e-08, '0x1.1e3779b97f4a8p-50'),
        ('V_g2 conjugation by sigma', 1e-10, '0x0.0p+0'),
        ('metric components central', 0.5, '0x0.0p+0'),
        ('LC torsion residual', 1e-10, '0x0.0p+0'),
        ('LC compatibility residual', 1e-10, '0x0.0p+0'),
        ('LC kernel certificate', 0.5, '0x0.0p+0'),
        ('LC route agreement', 1e-09, '0x1.0000000000000p-53'),
        ('torsionless difference is symmetric', 1e-09, '0x1.0000000000000p-52'),
        ('Phi_g roundtrip', 1e-10, '0x1.0000000000000p-51'),
        ('compatibility defect sigma-invariant', 1e-09, '0x0.0p+0'),
    ],
    ('fuzzy', 1): [
        ('algebra associativity', 1e-11, '0x1.80bfd017f10a8p-50'),
        ('star anti-multiplicativity', 1e-11, '0x1.427d84f3a2984p-51'),
        ('star involution', 1e-12, '0x0.0p+0'),
        ('trace tracial', 1e-11, '0x1.0000000000000p-54'),
        ('trace positivity', 1e-12, '0x1.0bb3a43406ae8p-60'),
        ('trace unital', 1e-12, '0x0.0p+0'),
        ('derivation Leibniz', 1e-11, '0x1.8000000000000p-50'),
        ('sigma involution', 1e-12, '0x0.0p+0'),
        ('P_sym idempotent', 1e-12, '0x0.0p+0'),
        ('wedge kills P_sym range', 1e-12, '0x0.0p+0'),
        ('sigma bimodule linearity', 1e-12, '0x0.0p+0'),
        ('braid identity', 1e-12, '0x0.0p+0'),
        ('restricted projectors bijective', 0.5, '0x0.0p+0'),
        ('d compose d vanishes', 1e-10, '0x1.07e0f66afed07p-51'),
        ('d1 Leibniz', 1e-08, '0x1.9051e3235a459p-50'),
        ('wedge section reconstructs the complement', 1e-09, '0x1.8bd171a07e38ap-53'),
        ('metric symmetry g o sigma = g', 1e-10, '0x0.0p+0'),
        ('metric bimodule bilinearity', 1e-10, '0x1.4204c521e3097p-50'),
        ('V_g roundtrip', 1e-09, '0x0.0p+0'),
        ('g2 flip adjoint', 1e-08, '0x1.07e0f66afed07p-50'),
        ('V_g2 conjugation by sigma', 1e-10, '0x0.0p+0'),
        ('metric components central', 0.5, '0x0.0p+0'),
        ('LC torsion residual', 1e-10, '0x0.0p+0'),
        ('LC compatibility residual', 1e-10, '0x0.0p+0'),
        ('LC kernel certificate', 0.5, '0x0.0p+0'),
        ('LC route agreement', 1e-09, '0x1.0000000000000p-53'),
        ('torsionless difference is symmetric', 1e-09, '0x1.0000000000000p-52'),
        ('Phi_g roundtrip', 1e-10, '0x1.1e3779b97f4a8p-52'),
        ('compatibility defect sigma-invariant', 1e-09, '0x0.0p+0'),
    ],
    ('heis', 0): [
        ('algebra associativity', 1e-11, '0x1.1e3779b97f4a8p-49'),
        ('star anti-multiplicativity', 1e-11, '0x0.0p+0'),
        ('star involution', 1e-12, '0x0.0p+0'),
        ('trace tracial', 1e-11, '0x0.0p+0'),
        ('trace positivity', 1e-12, '0x0.0p+0'),
        ('trace unital', 1e-12, '0x0.0p+0'),
        ('derivation Leibniz', 1e-11, '0x0.0p+0'),
        ('sigma involution', 1e-12, '0x0.0p+0'),
        ('P_sym idempotent', 1e-12, '0x0.0p+0'),
        ('wedge kills P_sym range', 1e-12, '0x0.0p+0'),
        ('sigma bimodule linearity', 1e-12, '0x0.0p+0'),
        ('braid identity', 1e-12, '0x0.0p+0'),
        ('restricted projectors bijective', 0.5, '0x0.0p+0'),
        ('d compose d vanishes', 1e-10, '0x0.0p+0'),
        ('d1 Leibniz', 1e-08, '0x0.0p+0'),
        ('wedge section reconstructs the complement', 1e-09, '0x1.07e0f66afed07p-51'),
        ('metric symmetry g o sigma = g', 1e-10, '0x0.0p+0'),
        ('metric bimodule bilinearity', 1e-10, '0x1.1e3779b97f4a8p-50'),
        ('V_g roundtrip', 1e-09, '0x0.0p+0'),
        ('g2 flip adjoint', 1e-08, '0x1.07e0f66afed07p-49'),
        ('V_g2 conjugation by sigma', 1e-10, '0x0.0p+0'),
        ('metric components central', 0.5, '0x0.0p+0'),
        ('LC torsion residual', 1e-10, '0x0.0p+0'),
        ('LC compatibility residual', 1e-10, '0x0.0p+0'),
        ('LC kernel certificate', 0.5, '0x0.0p+0'),
        ('LC route agreement', 1e-09, '0x1.0000000000000p-53'),
        ('torsionless difference is symmetric', 1e-09, '0x1.0000000000000p-52'),
        ('Phi_g roundtrip', 1e-10, '0x1.0000000000000p-51'),
        ('compatibility defect sigma-invariant', 1e-09, '0x0.0p+0'),
    ],
    ('heis', 1): [
        ('algebra associativity', 1e-11, '0x1.07e0f66afed07p-48'),
        ('star anti-multiplicativity', 1e-11, '0x0.0p+0'),
        ('star involution', 1e-12, '0x0.0p+0'),
        ('trace tracial', 1e-11, '0x0.0p+0'),
        ('trace positivity', 1e-12, '0x0.0p+0'),
        ('trace unital', 1e-12, '0x0.0p+0'),
        ('derivation Leibniz', 1e-11, '0x0.0p+0'),
        ('sigma involution', 1e-12, '0x0.0p+0'),
        ('P_sym idempotent', 1e-12, '0x0.0p+0'),
        ('wedge kills P_sym range', 1e-12, '0x0.0p+0'),
        ('sigma bimodule linearity', 1e-12, '0x0.0p+0'),
        ('braid identity', 1e-12, '0x0.0p+0'),
        ('restricted projectors bijective', 0.5, '0x0.0p+0'),
        ('d compose d vanishes', 1e-10, '0x0.0p+0'),
        ('d1 Leibniz', 1e-08, '0x0.0p+0'),
        ('wedge section reconstructs the complement', 1e-09, '0x1.8000000000000p-51'),
        ('metric symmetry g o sigma = g', 1e-10, '0x0.0p+0'),
        ('metric bimodule bilinearity', 1e-10, '0x1.07e0f66afed07p-50'),
        ('V_g roundtrip', 1e-09, '0x0.0p+0'),
        ('g2 flip adjoint', 1e-08, '0x1.1e3779b97f4a8p-50'),
        ('V_g2 conjugation by sigma', 1e-10, '0x0.0p+0'),
        ('metric components central', 0.5, '0x0.0p+0'),
        ('LC torsion residual', 1e-10, '0x0.0p+0'),
        ('LC compatibility residual', 1e-10, '0x0.0p+0'),
        ('LC kernel certificate', 0.5, '0x0.0p+0'),
        ('LC route agreement', 1e-09, '0x1.0000000000000p-53'),
        ('torsionless difference is symmetric', 1e-09, '0x1.0000000000000p-52'),
        ('Phi_g roundtrip', 1e-10, '0x1.07e0f66afed07p-52'),
        ('compatibility defect sigma-invariant', 1e-09, '0x0.0p+0'),
    ],
}


@pytest.mark.parametrize("key", list(PINNED), ids=lambda k: f"{k[0]}-seed{k[1]}")
def test_verify_model_output_is_pinned(key):
    name, seed = key
    checks = verify_model(MODELS[name](), seed=seed)
    assert [(c.name, c.tol, float.hex(c.residual)) for c in checks] == PINNED[key]


def test_verify_model_makes_a_fixed_number_of_kernel_calls(monkeypatch):
    # drawing and checking one sample at a time made 1,928 graded kernel calls
    # here; the count takes in products and sums alike
    calls = []
    kernel = algebra._graded_kernel

    def counting(backend, slots, width):
        calls.append(width)
        return kernel(backend, slots, width)

    monkeypatch.setattr(algebra, "_graded_kernel", counting)
    verify_model(MODELS["torus"](), seed=0)
    assert len(calls) <= 150


class CountingGenerator:
    """A numpy Generator that counts the calls of each of its methods."""

    def __init__(self, rng):
        self.rng, self.calls = rng, Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.rng, name)


def test_suites_make_a_bounded_number_of_generator_calls():
    # drawing one element at a time made 15,620 calls here (5,200 integers,
    # 10,420 standard_normal); a chunk of graded samples takes two
    rng = CountingGenerator(np.random.default_rng(0))
    model = MODELS["torus"]()
    for suite in (verification.algebra_checks, verification.calculus_checks,
                  verification.metric_checks, verification.solver_checks,
                  verification.deformation_checks):
        suite(model, rng)
    assert set(rng.calls) == {"integers", "standard_normal"}
    assert sum(rng.calls.values()) <= 90
