"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`SignoiseError` so callers
can catch library failures without catching programming errors.
"""

from __future__ import annotations

__all__ = [
    "SignoiseError",
    "ConfigError",
    "DomainError",
    "GridError",
    "EvaluationError",
    "NoiseFloorViolation",
    "QuadratureError",
    "OutOfSpaceError",
    "PeriodicityError",
    "SingularInformationError",
    "SingularDesignError",
    "OptimizationError",
    "DegeneratePosteriorError",
]


class SignoiseError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SignoiseError):
    """A config file or config dict is malformed or inconsistent.

    ``key`` names the offending entry when one can be identified.
    """

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        if key is not None:
            message = f"{message} (key: {key!r})"
        super().__init__(message)


class DomainError(SignoiseError):
    """An argument lies outside the mathematical domain of an operation."""


class GridError(SignoiseError):
    """A sampling design violates a grid invariant (ordering, positivity)."""


class EvaluationError(SignoiseError):
    """A model function returned a non-finite or otherwise unusable value."""


class NoiseFloorViolation(EvaluationError):
    """The noise variance dropped to or below its configured floor."""


class QuadratureError(SignoiseError):
    """Numerical integration did not converge or met a non-finite value."""

    def __init__(self, message: str, a: float | None = None, b: float | None = None):
        self.a = a
        self.b = b
        if a is not None and b is not None:
            message = f"{message} on [{a!r}, {b!r}]"
        super().__init__(message)


class OutOfSpaceError(DomainError):
    """A parameter point left the configured parameter box."""


class PeriodicityError(DomainError):
    """A model treated as period-P periodic failed the periodicity probe."""


class SingularInformationError(SignoiseError):
    """An information matrix is numerically singular or indefinite."""


class SingularDesignError(SignoiseError):
    """A weighted design matrix has linearly dependent columns."""


class OptimizationError(SignoiseError):
    """Every start of the numeric MLE failed; details carry per-start diagnostics."""

    def __init__(self, message: str, diagnostics: list[str] | None = None):
        self.diagnostics = list(diagnostics or [])
        super().__init__(message)


class DegeneratePosteriorError(SignoiseError):
    """A posterior normalizer came out zero, negative, or non-finite."""
