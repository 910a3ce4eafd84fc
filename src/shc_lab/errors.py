"""Exception types shared across the package."""


class ShcLabError(Exception):
    """Base class for all package-specific failures."""


class ValidationError(ShcLabError, ValueError):
    """Bad user input: parameters, configs, file formats."""


class TruncationBudgetError(ShcLabError):
    """Eigen-series truncation budget exhausted before the tail
    certificate met the requested tolerance."""


class InversionError(ShcLabError):
    """Numerical Laplace inversion failed to stabilize: successive
    orders disagree beyond the requested tolerance."""


class RejectionBudgetError(ShcLabError):
    """A rejection sampler exceeded its resampling cap."""


class UnresolvedTailError(ShcLabError):
    """Monte Carlo tail estimation produced empty exceedance counts."""
