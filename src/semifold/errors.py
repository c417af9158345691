"""Exception and warning types shared across the package."""


class SemifoldError(Exception):
    """Base class for all package errors."""


class ProbeOutOfRange(SemifoldError):
    pass


class NotNormalized(SemifoldError):
    pass


class NonPositiveEigenfunction(SemifoldError):
    pass


class SingularOperator(SemifoldError):
    pass


class ZeroDenominator(SemifoldError):
    pass


class NoConvergence(SemifoldError):
    """Iteration budget exhausted.  Deliberately catchable: nonexistence
    probing treats this as a data point, not a crash."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class MonotonicityBroken(SemifoldError):
    pass


class NoFoldInBranch(SemifoldError):
    pass


class QueryPastFold(SemifoldError):
    pass


class ConfigError(SemifoldError):
    """A scenario the solver cannot be set up for (CLI exit code 1)."""


class BadGridConfig(ConfigError):
    pass


class SlopeViolation(ConfigError):
    pass


class NonPositiveWeight(ConfigError):
    """P is not positive at some node: the paper needs P > 0."""


class DivergentMoment(ConfigError):
    """A moment of P does not settle on [0, R]: the paper needs finite
    mass and second moment."""


class BoundarySlackWarning(UserWarning):
    """Emitted when a slack supremum is attained at the sampling boundary."""


class TailInstabilityWarning(UserWarning):
    """Emitted when a weight moment is not stable under tail-window checks."""
