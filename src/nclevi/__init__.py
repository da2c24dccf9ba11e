"""Levi-Civita connections for desk-scale noncommutative geometries.

Builds the one-form calculus of three families of finite geometries (fuzzy
3-sphere, quantum Heisenberg structure-constant model, theta-deformed torus
bundles), equips them with bilinear metrics, and solves for the unique
torsion-less metric-compatible connection by two independent routes.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraElement,
    BackendDescriptor,
    DerivationSpec,
    derive,
    star,
    trace,
)
from .calculus import (
    CalculusSpec,
    OneForm,
    TensorSquare,
    TwoForm,
    sigma,
)
from .deformation import (
    TorusAction,
    deform_connection,
    spectral_decompose,
)
from .errors import (
    BackendMismatch,
    GeometryError,
    Inconsistent,
    NonCentralResult,
    NonCommutativeBackend,
    NonSkew,
    NonUnique,
    NoSolution,
    RangeNotSymmetric,
    SingularMetric,
    SizeTooLarge,
    TruncationOverflow,
)
from .metric import Functional, MetricSpec, canonical_metric, v_g2_matrix
from .models import Model, fuzzy_sphere, heisenberg, random_central_metric, torus_bundle
from .solver import (
    CompatibilityResidual,
    ConnectionCoeffs,
    LeviCivitaResult,
    compat_residual,
    koszul_oracle,
    levi_civita,
    nabla0,
    phi_g_invert,
    pi_g_basis,
    torsion,
    torsion_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
