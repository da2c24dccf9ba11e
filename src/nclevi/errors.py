"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all mathematical / validation failures."""


class BackendMismatch(GeometryError):
    """Operands live over different algebra backends."""


class TruncationOverflow(GeometryError):
    """A mode lies beyond the truncation radius of its algebra."""


class NonSkew(GeometryError):
    """A deformation matrix fails the skew-symmetry requirement."""


class SingularMetric(GeometryError):
    """Metric component matrix is not invertible within tolerance."""


class NonCentralResult(GeometryError):
    """A computed metric component fails the centrality test."""


class NoSolution(GeometryError):
    """A linear system that should be consistent has no solution."""


class NonUnique(GeometryError):
    """The joint torsion/compatibility operator has a nontrivial kernel."""


class Inconsistent(GeometryError):
    """The joint torsion/compatibility system is unsolvable."""


class RangeNotSymmetric(GeometryError):
    """A map expected to take values in the symmetric part does not."""


class NonCommutativeBackend(GeometryError):
    """A classical-only routine was invoked on a noncommutative backend."""


class SizeTooLarge(GeometryError):
    """Requested model exceeds the configured dimension cap."""
