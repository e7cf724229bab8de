"""Scalar special functions used by every closed form in the package.

Thin, strictly validated veneers over scipy.special. All Gamma-ratio
expressions elsewhere in the package are formed as differences of
``log_gamma`` values, never as ratios of raw Gamma outputs, so large
arguments cannot overflow.
"""

from __future__ import annotations

import math

from scipy import special as _sp

from .errors import DomainError

__all__ = [
    "log_gamma",
    "digamma",
    "chi2_quantile",
    "chi2_sf",
]


def log_gamma(x: float) -> float:
    """Natural logarithm of the Gamma function for x > 0."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires finite x > 0, got {x!r}")
    return float(_sp.gammaln(x))


def digamma(x: float) -> float:
    """Logarithmic derivative of the Gamma function for x > 0."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"digamma requires finite x > 0, got {x!r}")
    return float(_sp.digamma(x))


def chi2_quantile(d: int, p: float) -> float:
    """Quantile of the chi-squared law with d degrees of freedom.

    Returns q such that P(d/2, q/2) == p, where P is the regularised
    lower incomplete gamma function; strictly increasing in both p and d.
    """
    if int(d) != d or d < 1:
        raise DomainError(f"chi2_quantile requires integer d >= 1, got {d!r}")
    p = float(p)
    if not math.isfinite(p) or not 0.0 < p < 1.0:
        raise DomainError(f"chi2_quantile requires 0 < p < 1, got {p!r}")
    return 2.0 * float(_sp.gammaincinv(d / 2.0, p))


def chi2_sf(d: int, x: float) -> float:
    """Survival function of the chi-squared law with d degrees of freedom."""
    if int(d) != d or d < 1:
        raise DomainError(f"chi2_sf requires integer d >= 1, got {d!r}")
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"chi2_sf requires finite x, got {x!r}")
    if x <= 0.0:
        return 1.0
    return float(_sp.chdtrc(d, x))
