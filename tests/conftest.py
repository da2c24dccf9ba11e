import numpy as np
import pytest

from nclevi.algebra import AlgebraElement, BackendDescriptor
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


def max_gamma_norm(conn):
    n = conn.calculus.rank
    return max(conn.gamma[i][j][k].norm() for i in range(n) for j in range(n)
               for k in range(n))


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
