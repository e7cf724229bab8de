"""Exception types and the input checks shared across the package.

Each input quantity has one check here, called by every entry point
that takes it.
"""

import math

import numpy as np


class FiniteNError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FiniteNError, ValueError):
    """A numeric argument lies outside the domain of the requested operation."""


class DegenerateSampleError(FiniteNError, ValueError):
    """The sample carries no scale information (constant values)."""


class ConfigError(FiniteNError, ValueError):
    """Inconsistent or unsupported configuration."""


def check_N(N) -> float:
    """Effective particle number as a float; DomainError unless finite and > 3."""
    value = float(N)
    if not math.isfinite(value) or value <= 3.0:
        raise DomainError(f"N must be a finite real > 3, got {N!r}")
    return value


def check_int(value, what: str, minimum: int) -> int:
    """An integral count as an int; ConfigError if fractional or below minimum."""
    if not float(value).is_integer() or value < minimum:
        raise ConfigError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_seed(seed) -> int:
    """A master seed as an int; ConfigError unless integral with 0 <= seed < 2**63."""
    if seed >= 2**63:
        raise ConfigError(f"seed must be an integer < 2**63, got {seed!r}")
    return check_int(seed, "seed", 0)


def check_level(level) -> float:
    """Test level as a float; ConfigError unless it lies in (0, 1)."""
    value = float(level)
    if not 0.0 < value < 1.0:
        raise ConfigError(f"level must lie in (0, 1), got {level!r}")
    return value


def check_cutoff(cutoff) -> float:
    """Critical value as a float; ConfigError unless finite and positive."""
    value = float(cutoff)
    if not math.isfinite(value) or value <= 0.0:
        raise ConfigError(f"cutoff must be a finite positive real, got {cutoff!r}")
    return value


def check_finite(values, what: str) -> np.ndarray:
    """values as a float array; DomainError if any entry is nan or infinite."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} must be finite")
    return arr
