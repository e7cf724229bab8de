"""Exception types and the input checks shared across the package.

Each input quantity has one check here, called by every entry point
that takes it. A check answers a value of any type: a number, or the
check's FiniteNError.
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


def _as_float(value) -> float:
    """float(value), an integer beyond the float range as infinite, and a
    value that float() refuses (None, "x", a list) as nan."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        return math.nan


def check_N(N) -> float:
    """Effective particle number as a float; DomainError unless finite and > 3."""
    value = _as_float(N)
    if not math.isfinite(value) or value <= 3.0:
        raise DomainError(f"N must be a finite real > 3, got {N!r}")
    return value


def check_int(value, what: str, minimum: int) -> int:
    """An integral count as an int, exact for an integer; ConfigError if
    fractional, below minimum, not a number, or an integer beyond the float range."""
    as_float = _as_float(value)
    if isinstance(value, int) and math.isinf(as_float):
        raise ConfigError(f"{what} must be an integer within the float range (about 1.8e308), "
                          f"got one of {value.bit_length()} bits")
    if not as_float.is_integer() or as_float < minimum:
        raise ConfigError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value) if hasattr(value, "__index__") else int(as_float)


def check_seed(seed) -> int:
    """A master seed as an int; ConfigError unless integral with 0 <= seed < 2**63."""
    value = check_int(seed, "seed", 0)
    if value >= 2**63:
        raise ConfigError(f"seed must be an integer < 2**63, got {seed!r}")
    return value


def check_level(level) -> float:
    """Test level as a float; ConfigError unless it lies in (0, 1)."""
    value = _as_float(level)
    if not 0.0 < value < 1.0:
        raise ConfigError(f"level must lie in (0, 1), got {level!r}")
    return value


def check_real(value, what: str) -> float:
    """One number as a float; DomainError unless it is a finite number, not a list."""
    as_float = _as_float(value)
    if not math.isfinite(as_float):
        raise DomainError(f"{what} must be a finite number, got {value!r}")
    return as_float


def check_cutoff(cutoff) -> float:
    """Critical value as a float; ConfigError unless finite and positive."""
    value = _as_float(cutoff)
    if not math.isfinite(value) or value <= 0.0:
        raise ConfigError(f"cutoff must be a finite positive real, got {cutoff!r}")
    return value


def check_values(values, what: str, check, distinct: bool = True) -> tuple:
    """A list-valued input as a tuple of check(v), one call per value;
    ConfigError if it is empty or, when distinct, holds a checked value twice."""
    checked = tuple(map(check, values))
    if not checked:
        raise ConfigError(f"{what} must be nonempty")
    if distinct and len(set(checked)) != len(checked):
        raise ConfigError(f"{what} has duplicate values: {checked}")
    return checked


def check_finite(values, what: str) -> np.ndarray:
    """values as a float array; DomainError if any entry is not a finite number."""
    try:
        arr = np.asarray(values, dtype=float)
    except (OverflowError, TypeError, ValueError):  # a huge integer, or not a number
        arr = np.array(math.nan)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} must be finite")
    return arr
