"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
numerical failures with 3.
"""


class GroupregError(Exception):
    """Base class for all package errors."""


class ConfigError(GroupregError):
    """Base class for configuration problems (exit code 2)."""


class ParseError(ConfigError):
    """Malformed config text; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(ConfigError):
    """A config invariant is violated (named in the message)."""


class NumericalError(GroupregError):
    """Base class for numerical failures (exit code 3)."""


class SingularTransform(NumericalError):
    """Affine linear part has |det| below the invertibility threshold."""


class NoRealLogarithm(NumericalError):
    """Homogeneous matrix has an eigenvalue on the closed negative real axis."""


class NoConvergence(NumericalError):
    """Iterative procedure failed to converge within its iteration limit."""


class IllConditioned(NumericalError):
    """Covariance factorization failed even after jitter."""


class OutOfLibraryBounds(NumericalError):
    """A transformed location left the precomputed neighbor library."""


class DegenerateVariance(NumericalError):
    """WAIC needs at least two posterior samples per observation."""


class NonPositiveScale(NumericalError):
    """An inverse-gamma rate came out non-positive."""


class DegenerateInput(NumericalError):
    """Input maps unusable for initialization (e.g. constant intensity)."""


class InsufficientSamples(NumericalError):
    """Posterior summaries need at least two samples."""
