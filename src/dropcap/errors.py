"""Exception types shared across the toolkit, and the finiteness, tolerance and seed checks."""

import math


class DropcapError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(DropcapError, ValueError):
    """Invalid parameter value or malformed input specification."""


class DiscretizationError(ValidationError):
    """Requested resolution cannot resolve the shape."""


class UnsupportedConfigurationError(ValidationError):
    """No quadrature rule is implemented for this (dim, alpha, placement)."""


class ConstraintViolationError(ValidationError):
    """A measure violates its mass constraint."""


class NonConvergenceError(DropcapError):
    """A solver hit its iteration cap.

    Carries the best iterate found so callers can still inspect or
    persist partial output.
    """

    def __init__(self, message, result=None, residual=None):
        super().__init__(message)
        self.result = result
        self.residual = residual


def require_finite(value, what: str) -> float:
    """value as a float; a ValidationError naming what if it is nan or infinite."""
    v = float(value)
    if not math.isfinite(v):
        raise ValidationError(f"{what} must be finite, got {v}")
    return v


def require_tol(tol) -> float:
    """tol as a float; a ValidationError unless it is finite and positive."""
    v = float(tol)
    if not (math.isfinite(v) and v > 0.0):
        raise ValidationError(f"tol must be finite and positive, got {v}")
    return v


def require_seed(seed: int) -> int:
    """seed itself; a ValidationError if it is negative, which numpy's generators refuse."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return seed
