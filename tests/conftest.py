import ast
import copy

import numpy as np
import pytest

from nclevi.algebra import AlgebraElement, BackendDescriptor
from nclevi.calculus import OneForm, TensorSquare
from nclevi.models import fuzzy_sphere, heisenberg, pauli_matrices, torus_bundle


@pytest.fixture(scope="session")
def pauli_backend():
    return BackendDescriptor.matrix(2)


@pytest.fixture(scope="session")
def paulis(pauli_backend):
    return tuple(AlgebraElement.from_matrix(pauli_backend, s) for s in pauli_matrices())


@pytest.fixture(scope="session")
def fuzzy1():
    return fuzzy_sphere(1)


@pytest.fixture(scope="session")
def fuzzy2():
    return fuzzy_sphere(2)


@pytest.fixture(scope="session")
def heis():
    return heisenberg()


@pytest.fixture(scope="session")
def torus_comm():
    # commutative T^3: theta = 0, truncation R = 3
    return torus_bundle(3, 2, np.zeros((2, 2)), radius=3)


@pytest.fixture(scope="session")
def torus_twisted():
    theta = np.array([[0.0, 0.3], [-0.3, 0.0]])
    return torus_bundle(3, 2, theta, radius=3)


@pytest.fixture(scope="session")
def torus2_twisted():
    theta = np.array([[0.0, 0.25], [-0.25, 0.0]])
    return torus_bundle(2, 2, theta, radius=4)


@pytest.fixture(scope="session")
def edge_metric():
    """torus_bundle(3, 2, 0, 4) with g = diag(1, 1, 1 + 0.001 (U_3 + U_3^-1)) and the
    one-form coefficients (U_1^4, 0, U_3^4) at the truncation edge: the metric's
    inverse and its products with these reach beyond R = 4."""
    from nclevi.metric import MetricSpec
    model = torus_bundle(3, 2, np.zeros((2, 2)), radius=4)
    be = model.backend
    unit, zero = AlgebraElement.unit(be), AlgebraElement.zero(be)
    g33 = unit + AlgebraElement.from_modes(be, {(0, 0, 1): 0.001, (0, 0, -1): 0.001})
    g = MetricSpec(model.calculus, [[unit, zero, zero], [zero, unit, zero], [zero, zero, g33]])
    omega = [AlgebraElement.single_mode(be, (4, 0, 0)), zero,
             AlgebraElement.single_mode(be, (0, 0, 4))]
    return model, g, omega


def cosine_metric(model, amplitude, coords):
    """The metric of `model` with g_cc = 1 + amplitude cos(2 pi x_c) for each
    coordinate c in coords, and the unit elsewhere on the diagonal."""
    from nclevi.metric import MetricSpec
    be = model.backend
    n = model.calculus.rank
    unit, zero = AlgebraElement.unit(be), AlgebraElement.zero(be)
    comps = [[unit if i == j else zero for j in range(n)] for i in range(n)]
    for c in coords:
        k = np.zeros(be.dim, dtype=int)
        k[c] = 1
        comps[c][c] = unit + AlgebraElement.from_modes(
            be, {tuple(k): amplitude / 2, tuple(-k): amplitude / 2})
    return MetricSpec(model.calculus, comps)


def basis_one_form(spec, i):
    """The basis one-form e_i of the calculus: unit coefficient at i, zero elsewhere."""
    coeffs = [AlgebraElement.zero(spec.backend)] * spec.rank
    coeffs[i] = AlgebraElement.unit(spec.backend)
    return OneForm(coeffs)


def basis_tensor(spec, i, j):
    """The basis tensor e_i (x) e_j of the calculus: unit coefficient at (i, j)."""
    rows = [[AlgebraElement.zero(spec.backend)] * spec.rank for _ in range(spec.rank)]
    rows[i][j] = AlgebraElement.unit(spec.backend)
    return TensorSquare(rows)


@pytest.fixture(scope="session")
def twisted_mode_metric():
    """Builder of torus_bundle(3, 2, theta, radius) and the metric components with
    g_33 = 1 + 0.002 (U_1^p + U_1^-p + U_2^p + U_2^-p): central when p theta is an
    integer, with Weyl phases exp(i pi p^2 theta) between the U_1 and U_2 modes."""
    def build(theta, radius, power):
        model = torus_bundle(3, 2, np.array([[0.0, theta], [-theta, 0.0]]), radius)
        be = model.backend
        unit, zero = AlgebraElement.unit(be), AlgebraElement.zero(be)
        modes = {}
        for coord in (0, 1):
            for sign in (1, -1):
                k = [0, 0, 0]
                k[coord] = sign * power
                modes[tuple(k)] = 0.002
        g33 = unit + AlgebraElement.from_modes(be, modes)
        return model, [[unit, zero, zero], [zero, unit, zero], [zero, zero, g33]]
    return build


def attribute_uses(tree: ast.AST, attr: str) -> list:
    """(enclosing class and function names, node) of every `x.attr` in a syntax
    tree, loads and stores alike (a docstring that names attr is not a use)."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                out.append((scope, child))
            visit(child, scope)

    visit(tree, ())
    return out


def with_components(g, comps):
    """A copy of g holding comps without MetricSpec's checks: data corrupted after
    construction, which the operations must not pass either."""
    bad = copy.copy(g)
    bad.components = tuple(tuple(row) for row in comps)
    return bad
