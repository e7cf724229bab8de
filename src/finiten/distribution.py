"""The exact velocity-component law of an isolated N-particle system.

A single component of an N-particle velocity vector confined to the
fixed-energy sphere (total kinetic energy normalised to N) follows a
compactly supported law on [-sqrt(N), sqrt(N)] with density proportional
to (1 - x^2/N)^((N-3)/2). It has zero mean and unit variance for every
N > 3 and converges to the standard normal as N grows.

This module provides density/CDF/quantile evaluation, exact samplers for
the law and for its Gaussian alternative, the closed-form
Kullback-Leibler divergence to the standard normal, and the
large-deviation power proxy 1 - exp(-n * KL).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .errors import DomainError, check_finite, check_int, check_N

__all__ = ["FiniteNLaw"]


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class FiniteNLaw:
    """Velocity-component law for effective particle number N > 3.

    Derived attributes are fixed at construction: the shape exponent
    ``alpha = (N - 3) / 2``, the support half-width ``sqrt(N)``, and the
    log normalising constant ``log_norm``.
    """

    N: float
    alpha: float = field(init=False)
    support_bound: float = field(init=False)
    log_norm: float = field(init=False)

    def __post_init__(self):
        N = check_N(self.N)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "alpha", (N - 3.0) / 2.0)
        object.__setattr__(self, "support_bound", math.sqrt(N))
        log_norm = float(
            _sp.gammaln(N / 2.0) - 0.5 * math.log(N * math.pi) - _sp.gammaln((N - 1.0) / 2.0)
        )
        object.__setattr__(self, "log_norm", log_norm)

    # Shape parameter of the symmetric Beta obtained by y = (1 + x/sqrt(N))/2.
    @property
    def _beta_shape(self) -> float:
        return (self.N - 1.0) / 2.0

    def log_density(self, x):
        """Log density at x; -inf outside the open support."""
        arr = check_finite(x, "evaluation points")
        inside = 1.0 - (arr * arr) / self.N
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                inside > 0.0,
                self.log_norm + self.alpha * np.log(np.maximum(inside, 1e-300)),
                -np.inf,
            )
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

    def density(self, x):
        """Density at x; zero outside the support."""
        return np.exp(self.log_density(x))

    def cdf(self, x):
        """Distribution function, clamped to 0 / 1 outside the support."""
        arr = check_finite(x, "evaluation points")
        z = np.clip((1.0 + arr / self.support_bound) / 2.0, 0.0, 1.0)
        a = self._beta_shape
        out = _sp.betainc(a, a, z)
        # Pin the centre exactly; betainc is symmetric only to rounding.
        out = np.where(arr == 0.0, 0.5, out)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

    def quantile(self, p: float) -> float:
        """Inverse CDF on (0, 1); odd-symmetric about p = 0.5."""
        p = float(p)
        if not math.isfinite(p) or not 0.0 < p < 1.0:
            raise DomainError(f"quantile requires 0 < p < 1, got {p!r}")
        if p == 0.5:
            return 0.0
        if p > 0.5:
            return -self.quantile(1.0 - p)
        a = self._beta_shape
        z = float(_sp.betaincinv(a, a, p))
        return self.support_bound * (2.0 * z - 1.0)

    def sample(self, n: int, seed) -> np.ndarray:
        """Draw n i.i.d. values via the exact symmetric-Beta construction.

        B ~ Beta((N-1)/2, (N-1)/2) mapped affinely onto the support;
        rejection-free and valid for every N > 3. Deterministic given the
        seed (an int, SeedSequence, or Generator).
        """
        n = check_int(n, "sample size", 1)
        rng = _as_rng(seed)
        a = self._beta_shape
        b = rng.beta(a, a, size=n)
        return self.support_bound * (2.0 * b - 1.0)

    def sample_gaussian_alternative(self, n: int, seed) -> np.ndarray:
        """Draw n i.i.d. standard normal values (the infinite-N alternative).

        Returned in the same unrescaled units as :meth:`sample`, so the
        shared rescaling y = x / sqrt(N) applies uniformly; values may
        exceed sqrt(N).
        """
        n = check_int(n, "sample size", 1)
        return _as_rng(seed).standard_normal(n)

    def kl_to_gaussian(self) -> float:
        """Exact Kullback-Leibler divergence to the standard normal.

        Closed form: log_norm + (1 + log 2*pi)/2 + alpha * (psi((N-1)/2)
        - psi(N/2)). Strictly positive, decreasing toward 0 as N grows.
        """
        half = self.N / 2.0
        dpsi = _sp.digamma(half - 0.5) - _sp.digamma(half)
        return float(self.log_norm + 0.5 * (1.0 + math.log(2.0 * math.pi)) + self.alpha * dpsi)

    def sanov_power_proxy(self, n: int) -> float:
        """Large-deviation benchmark for achievable test power at sample
        size n: 1 - exp(-n * KL). Increasing in n, decreasing in N."""
        n = check_int(n, "sample size", 0)
        return -math.expm1(-n * self.kl_to_gaussian())
