"""The exact velocity-component law of an isolated N-particle system.

A single component of an N-particle velocity vector confined to the
fixed-energy sphere (total kinetic energy normalised to N) follows a
compactly supported law on [-sqrt(N), sqrt(N)] with density proportional
to (1 - x^2/N)^((N-3)/2). It has zero mean and unit variance for every
N > 3 and converges to the standard normal as N grows.

This module provides density/CDF/quantile evaluation, exact samplers for
the law and for its Gaussian alternative, the closed-form
Kullback-Leibler divergence to the standard normal, the large-deviation
power proxy 1 - exp(-n * KL), and its two tables: :func:`sanov_table` over
(N, n) and :func:`power_boundary`, the smallest n reaching a target power.

The null sampler is Ulrich's exact two-uniform transform of the symmetric
Beta((N - 1)/2, (N - 1)/2) law; draw i takes uniforms 2i and 2i + 1 of
the stream, so shorter draws are prefixes of longer ones. Its cos(2 pi V)
is 2/(1 + tan^2(pi V)) - 1, within 6e-16 sqrt(N) of the cosine in
sqrt(N) cos(2 pi V), because numpy 2.4 runs float64 ``tan`` in AVX-512
where the CPU has it (about 2.5 ns an element on one Xeon) but ``cos``
in scalar libm (14-22 ns on [0, 2 pi)). Without AVX-512
(``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"``) ``tan`` is
scalar too, about 19 ns, and the tan form gains nothing.

With nu = N - 1 the law is the Student-t_nu law mapped by
x = sqrt(N) t / sqrt(nu + t^2), so sin(theta) = x / sqrt(N). For integer
N up to 400 the CDF is the finite trigonometric sum of Abramowitz &
Stegun 26.7.3-26.7.4, a polynomial in cos^2(theta) evaluated in place;
points where it lies within 1e-3 of 0 or 1 are recomputed with the
positive-term hypergeometric series of the incomplete Beta function
(DLMF 8.17.8), which keeps the lower tail's relative precision and both
tails monotone. Other N use SciPy's incomplete Beta function throughout.
The quantile bisects the CDF, four steps per vectorised CDF call. The
log normalising constant and the KL divergence switch from log-gamma
differences to asymptotic series in x = (N - 1)/2 at x >= 6, so both
keep full relative precision up to N = 1e8 and beyond; below it the psi
difference in KL is carried up to the series by the recurrence
psi(y + 1) = psi(y) + 1/y.

``scipy.special`` is imported only in the incomplete-Beta route of
:meth:`FiniteNLaw._cdf`, so at integer N up to 400 no method loads SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_finite, check_int, check_N, check_real, check_values
from .workspace import Workspace

__all__ = ["FiniteNLaw", "sanov_table", "power_boundary"]

# Integer N up to this bound take the closed-form CDF. Its polynomial has
# degree about N/2, so above the bound betainc is about as fast and the
# closed form's rounding error nears 1e-14.
_CLOSED_FORM_MAX_N = 400
# Closed-form CDF values within this of 0 or 1 are recomputed with the
# tail series. In the lower tail the closed form is 1/2 minus a nearly
# equal sum; in the upper tail its rounding jitter of a few ulp would make
# F non-monotone.
_TAIL = 1e-3
# The tail series stops once every new term is below this share of its
# sum. The terms fall by a ratio of at most about 0.84 (N = 400 at
# F = 1e-3), so the neglected rest is then below 2^-57 of the sum.
_SERIES_STOP = 2.0**-60
# Terms of the tail series added between two convergence checks.
_SERIES_CHECK = 8

# Bisection steps of the quantile per CDF call, which takes the 15
# midpoints they might visit. The closed-form CDF costs per call (a
# quantile at N = 400: 11 ms, against 62 ms at one step per call), but
# betainc per point, so more steps per call are slower at N = 1e8.
_QUANTILE_STEPS = 4

# Draws per fill of the sampler's (chunk, 2) scratch of uniform pairs.
_SAMPLE_CHUNK = 8192

# From x = (N - 1)/2 >= _SERIES_X the log-gamma and psi differences
# give way to their asymptotic series, whose 12 terms are then accurate to
# a few ulp. Against 60-digit mpmath this switch point gives the smallest
# worst KL error over N in [3.5, 25] (7e-13, against 1.3e-12 at x = 8).
_SERIES_X = 6.0
# log Gamma(x + 1/2) - log Gamma(x) - log(x)/2 ~ sum_k _HALF_STEP[k-1] x^(1-2k),
# the log of DLMF 5.11.13 with a = 1/2, b = 0; by DLMF 5.11.8 the k-th
# coefficient is (2^(1-2k) - 2) B_2k / (2k (2k - 1)).
_HALF_STEP = (
    -1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224,
    -5461 / 425984, 929569 / 15728640, -3202291 / 8912896, 221930581 / 79691776,
    -4722116521 / 176160768, 968383680827 / 3087007744,
)
# x^2 l'(x) ~ sum_k _HALF_STEP_SLOPE[k-1] x^(2-2k), with l(x) the series above.
_HALF_STEP_SLOPE = tuple((1 - 2 * k) * a for k, a in enumerate(_HALF_STEP, start=1))
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

    def log_density(self, x):
        """Log density at x; -inf outside the open support."""
        arr = check_finite(x, "evaluation points")
        with np.errstate(over="ignore"):  # a point whose square overflows lies outside
            inside = 1.0 - (arr * arr) / self.N
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
        than 1 - 1e-3, the point is recomputed with the positive-term
        series of :meth:`_lower_tail_cdf`, one call at -|x| for both tails:
        F(x) in the lower and 1 - F(-x) in the upper, so the lower tail keeps
        its relative precision and both tails are monotone. Other N use the
        incomplete Beta function throughout. cdf(0) is exactly 0.5 either way.
        """
        out = self._cdf(check_finite(x, "evaluation points"), Workspace())
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

    def _cdf(self, arr: np.ndarray, work) -> np.ndarray:
        """:meth:`cdf` of a finite float array, with no checks. The closed
        form writes into buffers 0 to 2 of ``work``, a :class:`Workspace`,
        and returns buffer 0. Both tails are one series call at -|x|: F(0)
        is exactly 1/2, so a lower-tail point has x < 0 and an upper-tail
        one x > 0, and a point's sum stops changing once its terms fall
        below _SERIES_STOP, so it does not depend on the other points."""
        if self.N.is_integer() and self.N <= _CLOSED_FORM_MAX_N:
            out = self._closed_form_cdf(arr, work)
            flat = out.reshape(-1)
            tails = np.flatnonzero((flat < _TAIL) | (flat > 1.0 - _TAIL))
            if tails.size:
                x = arr.reshape(-1)[tails]
                t = self._lower_tail_cdf(-np.abs(x))
                flat[tails] = np.where(x < 0.0, t, 1.0 - t)
            return out
        from scipy.special import betainc
        z = np.clip((1.0 + arr / self.support_bound) / 2.0, 0.0, 1.0)
        a = (self.N - 1.0) / 2.0
        # Pin the centre exactly; betainc is symmetric only to rounding.
        return np.where(arr == 0.0, 0.5, betainc(a, a, z))

    def _lower_tail_cdf(self, arr: np.ndarray) -> np.ndarray:
        """CDF of a 1-D array of points x <= 0, by DLMF 8.17.8.

        With a = (N - 1)/2, s = x/sqrt(N) clipped to [-1, 0] and
        z = (1 + s)/2, I_z(a, a) = z^a (1 - z)^a / (a B(a, a)) times
        2F1(2a, 1; a + 1; z), whose k-th term is the one before times
        (2a + k)/(a + 1 + k) z. Every term is positive, so the sum keeps
        its relative precision. Since 1/B(a, a) = 2 sqrt(N) 4^(a - 1)
        exp(log_norm), the prefactor is exp(log_norm + a log((1 - s)(1 + s)))
        sqrt(N)/(2a), with the log taken as two log1p.
        """
        a = (self.N - 1.0) / 2.0
        s = np.divide(arr, self.support_bound)
        np.clip(s, -1.0, 0.0, out=s)
        z = 0.5 * (1.0 + s)
        with np.errstate(divide="ignore"):  # log1p(-1) at the support's end
            prefactor = np.exp(self.log_norm + a * (np.log1p(-s) + np.log1p(s)))
        term = np.ones_like(s)
        total = term.copy()
        ratio = np.empty_like(s)
        k = 0
        # Convergence is checked every _SERIES_CHECK terms. That changes no
        # bit: every term ratio is below 1 (z <= 1/2), so once a point's
        # term is below _SERIES_STOP of its sum, each later one rounds away.
        while np.any(term > _SERIES_STOP * total):
            for _ in range(_SERIES_CHECK):
                term *= np.multiply(z, (2.0 * a + k) / (a + 1.0 + k), out=ratio)
                total += term
                k += 1
        total *= prefactor
        total *= self.support_bound / (2.0 * a)
        return total

    def _closed_form_cdf(self, arr: np.ndarray, work) -> np.ndarray:
        """CDF of an array for integer N, in buffers 0 (the result), 1 and 2
        of ``work``, a :class:`Workspace`.

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
        s = np.divide(arr, self.support_bound, out=work(1, arr.shape))
        np.clip(s, -1.0, 1.0, out=s)
        c = np.subtract(1.0, s, out=work(2, arr.shape))
        f = np.add(1.0, s, out=work(0, arr.shape))
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
        """Inverse CDF on (0, 1); odd-symmetric about p = 0.5.

        For p < 0.5 the smallest float x with cdf(x) >= p: bisection on
        the bracket [-sqrt(N), 0], whose CDF values are 0 and 0.5, down to
        adjacent floats. Each call of the vectorised CDF takes every
        midpoint the next ``_QUANTILE_STEPS`` bisection steps might visit,
        so the steps, and the result, are those of one-point bisection.
        """
        p = check_real(p, "p")
        if not 0.0 < p < 1.0:
            raise DomainError(f"quantile requires 0 < p < 1, got {p!r}")
        if p == 0.5:
            return 0.0
        if p > 0.5:
            return -self.quantile(1.0 - p)
        lo, hi = -self.support_bound, 0.0
        while True:
            # a full binary tree of brackets in heap order: bracket i splits at
            # mids[i] into 2i + 1, kept where cdf(mids[i]) >= p, and 2i + 2
            brackets, mids = [(lo, hi)], []
            while len(mids) < 2**_QUANTILE_STEPS - 1:
                a, b = brackets[len(mids)]
                mids.append(mid := 0.5 * (a + b))
                brackets += ((a, mid), (mid, b))
            below = (self.cdf(np.array(mids)) < p).tolist()
            node = 0
            for _ in range(_QUANTILE_STEPS):
                if mids[node] in brackets[node]:
                    return brackets[node][1]
                node = 2 * node + 1 + below[node]
            lo, hi = brackets[node]

    def sample(self, n: int, seed) -> np.ndarray:
        """Draw n i.i.d. values by Ulrich's transform of the symmetric Beta.

        x = sqrt(N) sqrt(1 - U^(2/(N-2))) cos(2 pi V) with U, V uniform is
        exact and rejection-free for every N > 2 (Ulrich, JRSS C 33 (1984)
        158-163; Devroye 1986, ch. IX); as N grows it becomes Box-Muller.
        Draw i takes uniforms 2i (as U = 1 - u, in (0, 1]) and 2i + 1 (V)
        of the generator's stream, so ``sample(k)`` is a prefix of
        ``sample(k')`` for k < k'. Deterministic given the seed (an int,
        SeedSequence, or Generator). sqrt(N) cos(2 pi V) is computed as
        2 sqrt(N) / (1 + tan^2(pi V)) - sqrt(N), without a cosine; every
        draw lies in [-sqrt(N), sqrt(N)] and is within 6e-16 sqrt(N) of the
        cosine form on the same uniforms.
        """
        out = np.empty(check_int(n, "sample size", 1))
        self._sample_into(out, np.random.default_rng(seed), Workspace())
        return out

    def _sample_into(self, out: np.ndarray, rng: np.random.Generator, work) -> None:
        """Fill the 1-D array ``out`` as :meth:`sample` does, from ``rng``.

        Pairs are drawn into buffer 0 of ``work``, a :class:`Workspace`, a
        chunk at a time; the stream is consumed in order, so chunking does
        not change the draws. Each chunk's V column is copied, times pi,
        into buffer 1, a contiguous row, where cos 2t = 2/(1 + tan^2 t) - 1
        at t = pi V gives sqrt(N) cos(2 pi V) in place: ``tan``, square,
        + 1, 2 sqrt(N) / ., - sqrt(N). On the strided column the same chain
        takes about twice as long.
        """
        power = 2.0 / (self.N - 2.0)
        chunk = min(out.size, _SAMPLE_CHUNK)
        scratch = work(0, (chunk, 2))
        row = work(1, (chunk,))
        for start in range(0, out.size, _SAMPLE_CHUNK):
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
            # sqrt(N) cos(2 pi V) = 2 sqrt(N) / (1 + tan^2(pi V)) - sqrt(N);
            # tan(pi V) stays finite: at V = 1/2 it is tan(fl(pi/2)) = 1.6e16.
            t = np.multiply(pairs[:, 1], math.pi, out=row[:x.size])
            np.tan(t, out=t)
            t *= t
            t += 1.0
            np.divide(2.0 * self.support_bound, t, out=t)
            t -= self.support_bound
            x *= t

    def sample_gaussian_alternative(self, n: int, seed) -> np.ndarray:
        """Draw n i.i.d. standard normal values (the infinite-N alternative).

        Returned in the same unrescaled units as :meth:`sample`, so the
        shared rescaling y = x / sqrt(N) applies uniformly; values may
        exceed sqrt(N).
        """
        return np.random.default_rng(seed).standard_normal(check_int(n, "sample size", 1))

    def kl_to_gaussian(self) -> float:
        """Exact Kullback-Leibler divergence to the standard normal.

        Closed form: log_norm + (1 + log 2*pi)/2 + alpha * (psi((N-1)/2)
        - psi(N/2)). Strictly positive, decreasing toward 0 as N grows
        (about 3/(4 N^2)). From N = 13 on it is the series of this form in
        x = (N - 1)/2, whose O(1) and O(1/x) terms cancel exactly, so KL
        keeps full relative precision at every N. Below N = 13 the form
        itself, with psi(x + 1/2) - psi(x) taken up to y = x + j >= 6 by
        psi(y + 1) = psi(y) + 1/y and there given by the series.
        """
        x = (self.N - 1.0) / 2.0
        if x >= _SERIES_X:
            return _horner(_KL_SERIES, 1.0 / x) / (x * x)
        y, dpsi = x, 0.0
        while y < _SERIES_X:
            dpsi += 0.5 / (y * (y + 0.5))  # 1/y - 1/(y + 1/2)
            y += 1.0
        dpsi += 0.5 / y + _horner(_HALF_STEP_SLOPE, 1.0 / (y * y)) / (y * y)
        return self.log_norm + 0.5 * (1.0 + math.log(2.0 * math.pi)) - self.alpha * dpsi

    def sanov_power_proxy(self, n: int) -> float:
        """Large-deviation benchmark for achievable test power at sample
        size n: 1 - exp(-n * KL). Increasing in n, decreasing in N."""
        n = check_int(n, "sample size", 0)
        return 0.0 - math.expm1(-n * self.kl_to_gaussian())  # -expm1 is -0.0 at n = 0


def sanov_table(N_values, n_values) -> np.ndarray:
    """Large-deviation power proxy 1 - exp(-n * KL) on the cross product.

    Rows follow N_values, columns follow n_values; fully deterministic.
    Either axis empty raises ConfigError.
    """
    laws = check_values(N_values, "N_values", FiniteNLaw, distinct=False)
    # sanov_power_proxy checks each n
    n_values = check_values(n_values, "n_values", lambda n: n, distinct=False)
    return np.array([[law.sanov_power_proxy(n) for n in n_values] for law in laws])


def power_boundary(N_values, target_power: float) -> list[tuple[float, int]]:
    """Smallest n with sanov power proxy >= target, for each N. An empty
    N_values raises ConfigError, and an n past the float range (KL
    underflows from about N = 1e154) raises DomainError."""
    target = check_real(target_power, "target power")
    if not 0.0 < target < 1.0:
        raise DomainError(f"target power must lie in (0, 1), got {target_power!r}")
    out = []
    for law in check_values(N_values, "N_values", FiniteNLaw, distinct=False):
        kl = law.kl_to_gaussian()
        n_star = -math.log1p(-target) / kl if kl > 0.0 else math.inf
        if not math.isfinite(n_star):
            raise DomainError(f"n_star at N={law.N!r} exceeds the float range")
        out.append((law.N, max(1, math.ceil(n_star))))
    return out
