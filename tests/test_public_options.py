"""Pins every optional parameter of the public API.

Each independently settable value is one more configuration to test and
benchmark, so adding one means editing the pinned table below.
"""

import dataclasses
import inspect

import nclevi
from nclevi.algebra import random_elements
from nclevi.calculus import random_samples
from nclevi.verification import algebra_checks

# name -> {parameter: repr of its default, or the kind of a * / ** parameter};
# public callables without optional parameters are left out
PINNED = {
    "BackendDescriptor": {"size": "0", "dim": "0", "twist": "()", "radius": "0"},
    "CalculusSpec": {"generators": "()"},
    "DerivationSpec": {"element": "None", "index": "-1"},
    "LeviCivitaResult": {"route_difference": "None"},
    "Model": {"action": "None"},
    "TorusAction": {"coords": "()"},
    "levi_civita": {"route": "'direct'", "residual_tol": "1e-10"},
    # samplers and the algebra suite, outside nclevi.__all__
    "random_elements": {"radius": "1"},
}


def optional_parameters(obj) -> dict:
    out = {}
    for p in inspect.signature(obj).parameters.values():
        if p.default is not p.empty:
            out[p.name] = repr(p.default)
        elif p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            out[p.name] = p.kind.name
    return out


def test_public_optional_parameters_are_pinned():
    found = {}
    for name in nclevi.__all__:
        obj = getattr(nclevi, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException)):
            found[name] = optional_parameters(obj)
    for obj in (random_elements, random_samples, algebra_checks):
        found[obj.__name__] = optional_parameters(obj)
    assert {name: opts for name, opts in found.items() if opts} == PINNED


def test_backend_descriptor_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(nclevi.BackendDescriptor)] == [
        "kind", "size", "dim", "twist", "radius"]
