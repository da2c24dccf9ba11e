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
    is_central,
    mul,
    star,
    trace,
)
from .calculus import (
    CalculusSpec,
    OneForm,
    TensorSquare,
    TwoForm,
    p_sym,
    sigma,
)
from .deformation import (
    TorusAction,
    bicharacter,
    deform_connection,
    deform_product,
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
from .metric import (
    CanonicalMetricData,
    Functional,
    MetricSpec,
    canonical_metric,
    g2_eval,
    metric_eval,
    v_g,
    v_g2_matrix,
    v_g_inverse,
)
from .models import Model, fuzzy_sphere, heisenberg, random_central_metric, torus_bundle
from .solver import (
    CompatibilityResidual,
    ConnectionCoeffs,
    LeviCivitaResult,
    apply_connection,
    compat_residual,
    koszul_oracle,
    levi_civita,
    nabla0,
    phi_g_apply,
    phi_g_invert,
    pi_g_basis,
    torsion,
    torsion_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
