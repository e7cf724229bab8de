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

The null sampler is Ulrich's exact two-uniform transform of the symmetric
Beta((N - 1)/2, (N - 1)/2) law; draw i takes uniforms 2i and 2i + 1 of
the stream, so shorter draws are prefixes of longer ones.

With nu = N - 1 the law is the Student-t_nu law mapped by
x = sqrt(N) t / sqrt(nu + t^2), so sin(theta) = x / sqrt(N). For integer
N up to 400 the CDF is the finite trigonometric sum of Abramowitz &
Stegun 26.7.3-26.7.4, a polynomial in cos^2(theta) evaluated in place;
points where it lies within 1e-3 of 0 or 1 are recomputed with the
regularised incomplete Beta function, which keeps the lower tail's
relative precision and both tails monotone. Other N use the incomplete
Beta function throughout. The log normalising constant and the KL
divergence switch from log-gamma and digamma differences to asymptotic
series in x = (N - 1)/2 at x >= 6, so both keep full relative precision
up to N = 1e8 and beyond.

``scipy.special`` is imported inside the three methods that need it (the
incomplete Beta CDF, the quantile, and KL below N = 13), so importing
this module, sampling and the closed forms do not load SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_finite, check_int, check_N

__all__ = ["FiniteNLaw"]

# Integer N up to this bound take the closed-form CDF. Its polynomial has
# degree about N/2, so above the bound betainc is about as fast and the
# closed form's rounding error nears 1e-14.
_CLOSED_FORM_MAX_N = 400
# Closed-form CDF values within this of 0 or 1 are recomputed with
# betainc. In the lower tail the closed form is 1/2 minus a nearly equal
# sum; in the upper tail its rounding jitter of a few ulp would make F
# non-monotone.
_TAIL = 1e-3

# Draws per fill of the sampler's (chunk, 2) scratch of uniform pairs.
_SAMPLE_CHUNK = 8192

# From x = (N - 1)/2 >= _SERIES_X the log-gamma and digamma differences
# give way to their asymptotic series, whose 12 terms are then accurate to
# a few ulp. Against 60-digit mpmath this switch point gives the smallest
# worst KL error over N in [3.5, 25] (6e-13, against 1.4e-12 at x = 8).
_SERIES_X = 6.0
# log Gamma(x + 1/2) - log Gamma(x) - log(x)/2 ~ sum_k _HALF_STEP[k-1] x^(1-2k),
# the log of DLMF 5.11.13 with a = 1/2, b = 0; by DLMF 5.11.8 the k-th
# coefficient is (2^(1-2k) - 2) B_2k / (2k (2k - 1)).
_HALF_STEP = (
    -1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224,
    -5461 / 425984, 929569 / 15728640, -3202291 / 8912896, 221930581 / 79691776,
    -4722116521 / 176160768, 968383680827 / 3087007744,
)
# With l(x) the series above, psi(x + 1/2) - psi(x) = 1/(2x) + l'(x) (DLMF
# 5.11.2), and KL = l(x) - log1p(1/(2x))/2 + 1/(2x) - (x - 1) l'(x). Its 1
# and 1/x terms cancel exactly, leaving KL ~ sum_{j>=2} _KL_SERIES[j-2] x^-j
# (3/16, 0, -1/128, ...). Term by term, a_k x^(1-2k) in l contributes
# 2k a_k x^(1-2k) - (2k-1) a_k x^(-2k), and log1p its (-1)^j / (j 2^(j+1)) x^-j.
_KL_SERIES = tuple(
    coefficient + (-1) ** j / (j * 2.0 ** (j + 1))
    for k, a in enumerate(_HALF_STEP, start=1)
    for j, coefficient in ((2 * k - 1, 2 * k * a), (2 * k, -(2 * k - 1) * a))
)[1:]


def _horner(coefficients, t: float) -> float:
    """sum_i coefficients[i] * t**i."""
    acc = 0.0
    for c in reversed(coefficients):
        acc = acc * t + c
    return acc


def _log_gamma_half_step(x: float) -> float:
    """log Gamma(x + 1/2) - log Gamma(x) - log(x)/2, for x > 1.

    The direct difference below _SERIES_X; above it the asymptotic
    series, since the direct difference loses the digits of log Gamma(x).
    """
    if x < _SERIES_X:
        return math.lgamma(x + 0.5) - math.lgamma(x) - 0.5 * math.log(x)
    return _horner(_HALF_STEP, 1.0 / (x * x)) / x


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
        # log Gamma(N/2) - log Gamma((N-1)/2) - log(N pi)/2, with the
        # log(x)/2 of the Gamma ratio folded into the last term
        log_norm = _log_gamma_half_step((N - 1.0) / 2.0) - 0.5 * (
            math.log(2.0 * math.pi) + math.log1p(1.0 / (N - 1.0))
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
        """Distribution function, clamped to 0 / 1 outside the support.

        Integer N up to 400 use the closed form of Abramowitz & Stegun
        26.7.3-26.7.4 (see :meth:`_closed_form_cdf`), within 5e-15 of the
        incomplete Beta function. Where it gives less than 1e-3 or more
        than 1 - 1e-3, the point is recomputed with the incomplete Beta
        function, so the lower tail keeps its relative precision and both
        tails are monotone. Other N use the incomplete Beta function
        throughout. cdf(0) is exactly 0.5 either way.
        """
        arr = check_finite(x, "evaluation points")
        if self.N.is_integer() and self.N <= _CLOSED_FORM_MAX_N:
            out = self._closed_form_cdf(arr.reshape(-1)).reshape(arr.shape)
            tails = out < _TAIL
            tails |= out > 1.0 - _TAIL
            if tails.any():  # so closed-form points never load SciPy
                out[tails] = self._betainc_cdf(arr[tails])
        else:
            # Pin the centre exactly; betainc is symmetric only to rounding.
            out = np.where(arr == 0.0, 0.5, self._betainc_cdf(arr))
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

    def _betainc_cdf(self, arr: np.ndarray) -> np.ndarray:
        from scipy.special import betainc
        z = np.clip((1.0 + arr / self.support_bound) / 2.0, 0.0, 1.0)
        a = self._beta_shape
        return betainc(a, a, z)

    def _closed_form_cdf(self, arr: np.ndarray) -> np.ndarray:
        """CDF of a 1-D array for integer N, in three buffers of its size.

        With s = sin(theta) = x/sqrt(N) clipped to [-1, 1] and
        c = cos^2(theta) = (1 - s)(1 + s), and P(c) = sum_j r_j c^j for
        j <= (N - 3) // 2:

        - odd N:  F = 1/2 + s P(c) / 2, with r_j = (2j - 1)!! / (2j)!!;
        - even N: F = 1/2 + (theta + s sqrt(c) P(c)) / pi, with
          r_j = (2j)!! / (2j + 1)!!.

        Both follow from the reduction of the integral of cos^(N-2),
        normalised by its full integral. At x = 0 they give exactly 1/2.
        """
        N = int(self.N)
        odd = N % 2
        coefficients = [1.0]
        for j in range(1, (N - 3) // 2 + 1):
            coefficients.append(coefficients[-1] * (2 * j - odd) / (2 * j + 1 - odd))
        s = np.divide(arr, self.support_bound)
        np.clip(s, -1.0, 1.0, out=s)
        c = np.subtract(1.0, s)
        f = np.add(1.0, s)
        c *= f
        f.fill(coefficients[-1])
        for r in reversed(coefficients[:-1]):
            f *= c
            f += r
        f *= s
        if odd:
            f *= 0.5
        else:
            f *= np.sqrt(c, out=c)
            f += np.arcsin(s, out=s)
            f /= math.pi
        f += 0.5
        return f

    def quantile(self, p: float) -> float:
        """Inverse CDF on (0, 1); odd-symmetric about p = 0.5."""
        p = float(p)
        if not math.isfinite(p) or not 0.0 < p < 1.0:
            raise DomainError(f"quantile requires 0 < p < 1, got {p!r}")
        if p == 0.5:
            return 0.0
        if p > 0.5:
            return -self.quantile(1.0 - p)
        from scipy.special import betaincinv
        a = self._beta_shape
        z = float(betaincinv(a, a, p))
        return self.support_bound * (2.0 * z - 1.0)

    def sample(self, n: int, seed) -> np.ndarray:
        """Draw n i.i.d. values by Ulrich's transform of the symmetric Beta.

        x = sqrt(N) sqrt(1 - U^(2/(N-2))) cos(2 pi V) with U, V uniform is
        exact and rejection-free for every N > 2 (Ulrich, JRSS C 33 (1984)
        158-163; Devroye 1986, ch. IX); as N grows it becomes Box-Muller.
        Draw i takes uniforms 2i (as U = 1 - u, in (0, 1]) and 2i + 1 (V)
        of the generator's stream, so ``sample(k)`` is a prefix of
        ``sample(k')`` for k < k'. Deterministic given the seed (an int,
        SeedSequence, or Generator).
        """
        n = check_int(n, "sample size", 1)
        rng = np.random.default_rng(seed)
        power = 2.0 / (self.N - 2.0)
        out = np.empty(n)
        # Pairs are drawn into one small scratch, a chunk at a time; the
        # stream is consumed in order, so chunking does not change the draws.
        scratch = np.empty((min(n, _SAMPLE_CHUNK), 2))
        for start in range(0, n, _SAMPLE_CHUNK):
            x = out[start:start + _SAMPLE_CHUNK]
            pairs = rng.random(out=scratch[:x.size])
            # 1 - U^(2/(N-2)) as -expm1(log(U) 2/(N-2)), which keeps its
            # digits at large N; log never sees 0 since U > 0.
            np.subtract(1.0, pairs[:, 0], out=x)
            np.log(x, out=x)
            x *= power
            np.expm1(x, out=x)
            np.negative(x, out=x)
            np.sqrt(x, out=x)
            angle = pairs[:, 1]
            angle *= 2.0 * math.pi
            x *= np.cos(angle, out=angle)
            x *= self.support_bound
        return out

    def sample_gaussian_alternative(self, n: int, seed) -> np.ndarray:
        """Draw n i.i.d. standard normal values (the infinite-N alternative).

        Returned in the same unrescaled units as :meth:`sample`, so the
        shared rescaling y = x / sqrt(N) applies uniformly; values may
        exceed sqrt(N).
        """
        n = check_int(n, "sample size", 1)
        return np.random.default_rng(seed).standard_normal(n)

    def kl_to_gaussian(self) -> float:
        """Exact Kullback-Leibler divergence to the standard normal.

        Closed form: log_norm + (1 + log 2*pi)/2 + alpha * (psi((N-1)/2)
        - psi(N/2)). Strictly positive, decreasing toward 0 as N grows
        (about 3/(4 N^2)). From N = 13 on it is the series of this form in
        x = (N - 1)/2, whose O(1) and O(1/x) terms cancel exactly, so KL
        keeps full relative precision at every N.
        """
        x = (self.N - 1.0) / 2.0
        if x >= _SERIES_X:
            return _horner(_KL_SERIES, 1.0 / x) / (x * x)
        from scipy.special import digamma
        dpsi = digamma(x) - digamma(x + 0.5)
        return float(self.log_norm + 0.5 * (1.0 + math.log(2.0 * math.pi)) + self.alpha * dpsi)

    def sanov_power_proxy(self, n: int) -> float:
        """Large-deviation benchmark for achievable test power at sample
        size n: 1 - exp(-n * KL). Increasing in n, decreasing in N."""
        n = check_int(n, "sample size", 0)
        return -math.expm1(-n * self.kl_to_gaussian())
