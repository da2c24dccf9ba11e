"""Fail closed on non-finite input: a NaN or an infinity in one entry of any input
of a public constructor or batched operation is refused, or fails a certificate,
which raises as well; it never gives a passing result."""

import copy
import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import with_components
from nclevi import solver
from nclevi.algebra import AlgebraElement, DerivationSpec
from nclevi.calculus import CalculusSpec, TwoForm
from nclevi.deformation import deform_connection
from nclevi.errors import GeometryError
from nclevi.metric import MetricSpec
from nclevi.models import fuzzy_sphere, random_central_metric, torus_bundle


@functools.cache
def models():
    """fuzzy_sphere(2) (inner derivations, non-commuting generators) and the twisted
    torus_bundle(3, 2, 0.3, 2) with a varying metric (grading derivations)."""
    torus = torus_bundle(3, 2, np.array([[0.0, 0.3], [-0.3, 0.0]]), 2)
    return {"fuzzy": (fuzzy_sphere(2), None),
            "torus": (torus, random_central_metric(torus, np.random.default_rng(0)))}


def model_and_metric(which):
    model, g = models()[which]
    return model, g or model.metric


def poisoned_array(arr, value, pick):
    """A copy of arr with the entry `pick` (modulo its size) replaced by value."""
    out = np.array(arr, dtype=complex if np.iscomplexobj(value) or np.iscomplexobj(arr)
                   else float)
    out.flat[pick % out.size] = value
    return out


def poisoned(el, value, pick):
    """el with one entry made non-finite, through the public constructor of its
    backend: a matrix entry replaced by value, or value added to the coefficient
    of one of el's modes within the truncation radius (the zero mode if none is)."""
    be = el.backend
    if be.kind == "matrix":
        return AlgebraElement.from_matrix(be, poisoned_array(el.matrix, value, pick))
    inside = [k for k in el.modes if max(map(abs, k)) <= be.radius] or [(0,) * be.dim]
    return el + AlgebraElement.from_modes(be, {inside[pick % len(inside)]: value})


def rebuild(spec, **changes):
    """CalculusSpec's constructor on spec's inputs, some of them replaced."""
    kw = dict(wedge=spec.wedge_constants, exterior=spec.exterior_constants,
              derivations=spec.derivations, generators=spec.generators)
    kw.update(changes)
    return CalculusSpec(spec.rank, spec.two_form_rank, kw["wedge"], kw["exterior"],
                        kw["derivations"], spec.backend, kw["generators"])


def real(value):
    """The poison as a real number, for the real inputs: an index and theta."""
    return value.real + value.imag


def swap(items, pick, new):
    items = list(items)
    items[pick % len(items)] = new
    return items


def poisoned_rows(rows, value, pick):
    flat = [el for row in rows for el in row]
    flat = swap(flat, pick, poisoned(flat[pick % len(flat)], value, pick // len(flat)))
    n = len(rows)
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def unit_cube(model):
    # symmetric in every index pair, so it lies in Phi_g's range and domain
    return [[[AlgebraElement.unit(model.backend)] * 3 for _ in range(3)] for _ in range(3)]


def poisoned_cube(cube, value, pick):
    flat = [el for plane in cube for row in plane for el in row]
    flat = swap(flat, pick, poisoned(flat[pick % len(flat)], value, pick // len(flat)))
    return [[flat[9 * i + 3 * j:9 * i + 3 * j + 3] for j in range(3)] for i in range(3)]


def calculus_spec(which, value, pick):
    spec = model_and_metric(which)[0].calculus
    table = pick % 4
    if table == 0:
        return rebuild(spec, wedge=poisoned_array(spec.wedge_constants, value, pick // 4))
    if table == 1:
        return rebuild(spec, exterior=poisoned_array(spec.exterior_constants, value, pick // 4))
    if table == 2:
        gens = spec.generators
        return rebuild(spec, generators=swap(gens, pick // 4, poisoned(
            gens[pick // 4 % len(gens)], value, pick // 16)))
    # a derivation: an inner one's element, or the index of a grading one
    delta = spec.derivations[pick // 4 % spec.rank]
    return rebuild(spec, derivations=swap(spec.derivations, pick // 4, derivation_spec(
        delta, value, pick // 16)))


def derivation_spec(delta, value, pick):
    if delta.kind == "inner":
        return DerivationSpec.inner(poisoned(delta.element, value, pick))
    return DerivationSpec.grading(real(value))


def metric_spec(which, value, pick):
    model, g = model_and_metric(which)
    return MetricSpec(model.calculus, poisoned_rows(g.components, value, pick))


def from_constructor(which, value, pick):
    # an element built from a matrix (fuzzy sphere) or modes (torus) holding the
    # poison, as a metric component and as a generator
    if pick % 2:
        return metric_spec(which, value, pick // 2)
    return calculus_spec(which, value, 4 * (pick // 2) + 2)


def wedge_section_many(which, value, pick):
    spec = model_and_metric(which)[0].calculus
    unit = AlgebraElement.unit(spec.backend)
    two_form = TwoForm(swap([unit] * spec.two_form_rank, pick,
                            poisoned(unit, value, pick // spec.two_form_rank)))
    return spec.wedge_section_many([two_form])


def phi_g_apply_many(which, value, pick):
    model, g = model_and_metric(which)
    return solver.phi_g_apply_many(g, [poisoned_cube(unit_cube(model), value, pick)])


def phi_g_invert_many(which, value, pick):
    model, g = model_and_metric(which)
    return solver.phi_g_invert_many(g, [poisoned_cube(unit_cube(model), value, pick)])


def levi_civita(which, value, pick):
    model, g = model_and_metric(which)
    if pick % 2:
        return solver.levi_civita(model.calculus, with_components(
            g, poisoned_rows(g.components, value, pick // 2)), route="both")
    spec = copy.copy(model.calculus)
    spec.exterior_constants = poisoned_array(spec.exterior_constants, value, pick // 2)
    return solver.levi_civita(spec, g, route="both")


@functools.cache
def torus_connection():
    model, g = model_and_metric("torus")
    return solver.levi_civita(model.calculus, g).connection


def deform_connection_op(_which, value, pick):
    # the twisted torus alone has a torus action to deform along
    model, g = model_and_metric("torus")
    nabla, theta = torus_connection(), np.array([[0.0, 0.2], [-0.2, 0.0]])
    part = pick % 3
    if part == 0:
        nabla = solver.ConnectionCoeffs(model.calculus, poisoned_cube(nabla.gamma, value,
                                                                      pick // 3))
    elif part == 1:
        theta = poisoned_array(theta, real(value), pick // 3)
    else:
        g = with_components(g, poisoned_rows(g.components, value, pick // 3))
    return deform_connection(model.calculus, nabla, g, theta, model.action)


OPERATIONS = {"CalculusSpec": calculus_spec, "MetricSpec": metric_spec,
              "DerivationSpec": lambda which, value, pick: calculus_spec(
                  which, value, 4 * pick + 3),
              "from_matrix/from_modes": from_constructor,
              "wedge_section_many": wedge_section_many, "phi_g_apply_many": phi_g_apply_many,
              "phi_g_invert_many": phi_g_invert_many, "levi_civita": levi_civita,
              "deform_connection": deform_connection_op}

POISONS = [np.nan, np.inf, -np.inf]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(OPERATIONS)), st.sampled_from(["fuzzy", "torus"]),
       st.sampled_from(POISONS), st.booleans(), st.integers(0, 10 ** 6))
def test_non_finite_entry_is_refused(operation, which, bad, imaginary, pick):
    value = complex(0.0, bad) if imaginary else complex(bad, 0.0)
    try:
        with np.errstate(all="ignore"):
            result = OPERATIONS[operation](which, value, pick)
    except GeometryError:
        return
    except ValueError:
        # levi_civita's inputs were built and checked already: the solve itself
        # refuses them, with an error class that carries an exit code
        if operation != "levi_civita":
            return
        raise
    raise AssertionError(f"{operation} on {which} passed {value} at {pick}: {result!r}")
