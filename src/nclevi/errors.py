"""Exception types shared across the package; exit_code is the status `nclevi` exits with."""


class GeometryError(Exception):
    """Base class for all mathematical / validation failures: a mathematical one exits 1."""

    exit_code = 1


class InputError(GeometryError):
    """Base class for input that fails validation: it exits 2."""

    exit_code = 2


class BackendMismatch(GeometryError):
    """Operands live over different algebra backends."""


class TruncationOverflow(InputError):
    """A mode lies beyond the truncation radius of its algebra."""


class NonSkew(InputError):
    """A deformation matrix fails the skew-symmetry requirement."""


class SingularMetric(GeometryError):
    """Metric component matrix is not invertible within tolerance."""


class NonCentralResult(InputError):
    """A metric component fails the centrality test."""


class NoSolution(GeometryError):
    """A linear system that should be consistent has no solution."""


class NonUnique(GeometryError):
    """The connection is not unique: compatibility leaves more unknowns per point
    than torsion has equations, or the per-point torsion operator has a kernel."""


class Inconsistent(GeometryError):
    """A solved connection breaches the torsion or the compatibility gate."""


class RangeNotSymmetric(GeometryError):
    """A map expected to take values in the symmetric part does not."""


class NonCommutativeBackend(InputError):
    """Central metric modes multiply with a sign the pointwise solve cannot reproduce."""


class SizeTooLarge(InputError):
    """Requested model exceeds the configured dimension cap."""
