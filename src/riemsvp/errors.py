"""Exception types shared across the package."""


class RiemSVPError(Exception):
    """Base class for all library errors."""


class SingularMetric(RiemSVPError):
    """Metric is (numerically) singular at the requested point."""


class DifferentiationFailure(RiemSVPError):
    """Differentiating the metric failed or produced non-finite values."""


class DimensionTooSmall(RiemSVPError):
    """Operation requires a higher-dimensional manifold."""


class BadTetrad(RiemSVPError):
    """Null tetrad violates its normalization conditions."""


class NoConvergence(RiemSVPError):
    """No start converged, or a reduced solution failed its own check."""


class WrongSignature(RiemSVPError):
    """Metric signature does not admit the requested operation."""


class OutOfDomain(RiemSVPError):
    """Point lies outside the admissible coordinate domain."""


class BadCase(RiemSVPError):
    """Unknown closed-form case or inconsistent parameters."""


class InvalidInput(RiemSVPError):
    """Input value violates a documented precondition."""
