"""Goodness-of-fit test for the finite-N velocity law.

For a sample rescaled to y = x / sqrt(N), the empirical coefficients

    mu_k = n^(-1/2) * sum_i psi_k(y_i)

are asymptotically independent standard normals under the null, so the
statistic T = sum of mu_k^2 over a chosen mode set converges to a
chi-squared law with as many degrees of freedom as there are modes.
Because the null and the Gaussian alternative are both symmetric and
location/scale aligned, modes below four carry no signal; the default
mode set is the even orders {4, 6, ..., m}. Every mu_k comes from one
kernel: the recurrence of :mod:`finiten.jacobi` in w = 2y^2, one pass
per parity in the mode set, each to half its largest mode.

The chi-squared cutoff and p-value need only integer degrees of freedom,
so they are closed forms: the survival function is the finite sum of
Abramowitz & Stegun 26.4.4 (odd dof, with erfc) and 26.4.5 (even dof),
and the cutoff is found by bisection on it, to the float where it first
falls to the level. No SciPy function is loaded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .distribution import FiniteNLaw
from .errors import (
    ConfigError,
    DegenerateSampleError,
    DomainError,
    check_cutoff,
    check_finite,
    check_int,
    check_level,
    check_values,
)
from .jacobi import JacobiBasis, jacobi_rows
from .workspace import Workspace

__all__ = [
    "even_modes",
    "SteinTestConfig",
    "TestReport",
    "standardize",
    "coefficients",
    "batch_statistic",
    "run_test",
    "THEORETICAL",
    "CALIBRATED",
]

# Why a sample is refused when the recurrence overflows on its squares.
_T_NOT_FINITE = "sample values are too large: the statistic T is not finite"


def even_modes(m: int) -> tuple[int, ...]:
    """Default mode set for truncation order m: even integers 4..m."""
    return tuple(range(4, check_int(m, "truncation order", 4) + 1, 2))


# log 2 split so that an integer below 2**21 times _LN2_HI is exact (fdlibm)
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def _log_term(j2: int, h: float) -> float:
    """log(h**j * exp(-h) / Gamma(j + 1)) for j = j2 / 2 >= 0 and h > 0.

    h = M / D exactly, so h**k / k! is a ratio of integers and, for odd j2,
    so is h**k * 2**(k + 1) / (2k + 1)!!, with Gamma(k + 3/2) =
    (2k + 1)!! sqrt(pi) / 2**(k + 1). Its log is taken after scaling by a
    power of two into [1/2, 2), so the result has one rounding of its own
    size where j log h - h - lgamma(j + 1) loses digits of terms near 1e3.
    """
    k, odd = divmod(j2, 2)
    M, D = h.as_integer_ratio()
    num, den = M**k, D**k
    pieces = [-h]
    if odd:
        num <<= k + 1
        den *= math.prod(range(1, 2 * k + 2, 2))
        pieces += [0.5 * math.log(h), -0.5 * math.log(math.pi)]
    else:
        den *= math.factorial(k)
    shift = num.bit_length() - den.bit_length()
    ratio = num / (den << shift) if shift >= 0 else (num << -shift) / den
    return math.fsum([*pieces, math.log(ratio), shift * _LN2_HI, shift * _LN2_LO])


def _chi2_sf(dof: int, t: float) -> float:
    """P(chi-squared with integer dof >= 1 exceeds t).

    With h = t/2, A&S 26.4.4-26.4.5 give erfc(sqrt(h)) for odd dof (0 for
    even) plus sum_j h**j exp(-h) / Gamma(j + 1) over j = dof/2 - 1,
    dof/2 - 2, ... >= 0. The largest term, at the last j <= h, comes from
    :func:`_log_term`; the others follow from it by the ratio h / j of
    neighbours, which is at most 1 going away from it, so no term
    overflows and none that matters underflows.
    """
    if t <= 0.0:
        return 1.0
    h = 0.5 * t
    odd, count = dof % 2, dof // 2
    tail = math.erfc(math.sqrt(h)) if odd else 0.0
    if count == 0:
        return tail
    j0 = 0.5 * odd
    peak = min(max(int(h - j0), 0), count - 1)
    terms = [math.exp(_log_term(2 * peak + odd, h))]
    term = terms[0]
    for i in range(peak, 0, -1):
        term *= (j0 + i) / h
        terms.append(term)
    term = terms[0]
    for i in range(peak + 1, count):
        term *= h / (j0 + i)
        terms.append(term)
    return tail + math.fsum(terms)


@functools.cache
def _chi2_isf(dof: int, level: float) -> float:
    """The smallest float t with _chi2_sf(dof, t) <= level, for integer dof >= 1
    and 0 < level < 1: bisection on a bracket with sf(lo) > level >= sf(hi),
    whose hi doubles from dof until that holds, down to adjacent floats."""
    lo, hi = 0.0, float(dof)
    while _chi2_sf(dof, hi) > level:
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _chi2_sf(dof, mid) > level:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass(frozen=True)
class SteinTestConfig:
    """Test configuration: system size, truncation, modes and level.

    ``modes`` defaults to the even set {4, 6, ..., m}. The null ``law`` and
    the Jacobi ``basis`` up to order m follow from N and m and are built
    once, at construction.
    """

    N: float
    m: int = 4
    modes: tuple[int, ...] = None  # type: ignore[assignment]
    level: float = 0.05
    law: FiniteNLaw = field(init=False, repr=False, compare=False)
    basis: JacobiBasis = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "law", FiniteNLaw(self.N))
        object.__setattr__(self, "N", self.law.N)
        object.__setattr__(self, "m", check_int(self.m, "truncation order", 4))
        if self.modes is None:
            object.__setattr__(self, "modes", even_modes(self.m))
        else:
            modes = check_values(self.modes, "mode set", lambda k: check_int(k, "mode", 1))
            if any(k > self.m for k in modes):
                raise ConfigError(f"modes must lie in 1..{self.m}, got {modes}")
            object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "level", check_level(self.level))
        object.__setattr__(self, "basis", self.build_basis())

    @property
    def dof(self) -> int:
        return len(self.modes)

    def theoretical_cutoff(self) -> float:
        """Asymptotic cutoff: the chi-squared(dof) quantile at 1 - level."""
        return _chi2_isf(self.dof, self.level)

    def build_basis(self) -> JacobiBasis:
        return JacobiBasis.build(self.law.alpha, self.m)


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test run, with its fields in output order:
    ``dataclasses.asdict`` of a report is the JSON payload of ``finiten test``."""

    __test__ = False  # a result record, not a pytest test class

    statistic: float
    dof: int
    cutoff: float
    p_value: float
    reject: bool
    coefficients: dict[int, float]


def standardize(values) -> np.ndarray:
    """Affine-map a sample to zero mean and unit mean square (divisor n).

    Takes one sample of shape (n,) or a (reps, n) matrix with one sample
    per row, and works along the last axis. Idempotent and invariant
    under positive affine rescaling of each sample. Each row is first
    multiplied by 2^-e, where 2^e is the power of two at its largest
    magnitude: that scales every sum, square and root exactly, so a row
    and the row times any power of two that keeps it normal give the same
    bits, and no finite row loses its scale to overflow or underflow.
    Raises DegenerateSampleError if any sample is constant.
    """
    x = check_finite(values, "sample values")
    if x.ndim not in (1, 2) or x.shape[-1] < 2:
        raise DomainError("standardize requires an (n,) or (reps, n) sample with n >= 2")
    exponent = np.frexp(np.abs(x).max(axis=-1, keepdims=True))[1]
    out = np.ldexp(x, -exponent)
    _standardize(out, Workspace())
    return out


def _standardize(x: np.ndarray, work) -> None:
    """Standardise the rows of x in place: the kernel of :func:`standardize`,
    with buffer 0 of ``work``, a :class:`Workspace`, as scratch for the squares.
    Unscaled: Monte Carlo draws are bounded by sqrt(N) or Gaussian."""
    x -= x.mean(axis=-1, keepdims=True)
    scale = np.sqrt(np.multiply(x, x, out=work(0, x.shape)).mean(axis=-1, keepdims=True))
    if np.any(scale == 0.0):
        raise DegenerateSampleError("sample is constant; no scale information")
    x /= scale


def _check_standardizable(config: SteinTestConfig) -> None:
    # standardising zeroes mu_1 (psi_1 ~ y) and mu_2 (psi_2 ~ y^2 - 1/N)
    if 1 in config.modes or 2 in config.modes:
        raise ConfigError("modes 1 and 2 are zero on a standardised sample; drop them or "
                          f"skip standardisation, got {config.modes}")


def _mode_coefficients(x: np.ndarray, config: SteinTestConfig, work) -> np.ndarray:
    """mu_k of every row of a (reps, n) matrix, as a (dof, reps) matrix in
    mode order: the one kernel behind every coefficient and statistic, with
    one float64 pass of the recurrence per parity (beta = -1/2 for even
    modes; +1/2, times x, for odd). Sums are weighted after reduction. Its
    scratch is buffers 0 to 4 of ``work``, a :class:`Workspace`."""
    w = np.multiply(x, x, out=work(0, x.shape))
    w *= 2.0 / config.N
    rows = [work(i, x.shape) for i in (1, 2, 3)]
    mu = np.empty((config.dof, x.shape[0]))
    root = math.sqrt(x.shape[1])
    for odd in {k % 2 for k in config.modes}:
        row_of = {k // 2: i for i, k in enumerate(config.modes) if k % 2 == odd}
        for j, p in enumerate(jacobi_rows(config.basis.alpha, odd - 0.5, max(row_of), w, rows)):
            if j in row_of:
                total = (np.multiply(x, p, out=work(4, x.shape)) if odd else p).sum(axis=-1)
                mu[row_of[j]] = config.basis.weights[2 * j + odd - 1] * total / root
    return mu


def _sample_coefficients(values, config: SteinTestConfig) -> np.ndarray:
    """mu_k of one checked 1-D sample, in mode order; a coefficient whose
    recurrence overflows is left inf or nan, without a warning."""
    x = check_finite(values, "sample values")
    if x.ndim != 1 or x.size < 1:
        raise DomainError("coefficients expects a nonempty 1-D sample")
    with np.errstate(over="ignore", invalid="ignore"):
        return _mode_coefficients(x[None, :], config, Workspace())[:, 0]


def coefficients(values, config: SteinTestConfig) -> dict[int, float]:
    """Empirical mode coefficients mu_k = n^(-1/2) sum_i psi_k(x_i/sqrt(N)).

    The sample is used as given; callers own any location/scale
    alignment (see :func:`run_test`). Raises DomainError if a coefficient
    is not finite, as for a sample whose squares overflow.
    """
    mu = _sample_coefficients(values, config)
    if not np.isfinite(mu).all():
        raise DomainError("sample values are too large: a mode coefficient is not finite")
    return dict(zip(config.modes, mu.tolist()))


def _running_statistics(x: np.ndarray, config: SteinTestConfig, work) -> np.ndarray:
    """Partial sums of T along the mode set, for every row of a finite
    (reps, n) matrix, unchecked, with ``work``, a :class:`Workspace`, as scratch.

    Row i of the (len(config.modes), reps) result sums mu_k^2 over
    ``config.modes[:i + 1]``, added in mode order. The last row is
    :func:`batch_statistic`; for the default even modes, row i equals, bit
    for bit, T of the config whose m is ``config.modes[i]``. So one pass of
    the recurrence up to the largest m gives T for every smaller m.
    """
    mu = _mode_coefficients(x, config, work)
    return np.cumsum(mu * mu, axis=0)


def batch_statistic(samples: np.ndarray, config: SteinTestConfig) -> np.ndarray:
    """T = sum of mu_k^2 over the modes, for every row of a (reps, n) matrix.

    Rows are used as given; pass them through :func:`standardize` first to
    test them as :func:`run_test` does. Raises DomainError if any row's T
    is not finite, as for a row whose squares overflow.
    """
    x = check_finite(samples, "sample values")
    if x.ndim != 2 or x.shape[1] < 1:
        raise DomainError("samples must be a (reps, n) matrix with n >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        t = _running_statistics(x, config, Workspace())[-1]
    if not np.isfinite(t).all():
        raise DomainError(_T_NOT_FINITE)
    return t


# The two cutoff sources, as --cutoff keywords and power-row labels: the
# chi-squared cutoff (run_test's cutoff=None) and one calibrated by Monte Carlo.
THEORETICAL = "theoretical"
CALIBRATED = "calibrated"


def run_test(
    values, config: SteinTestConfig, standardize_first: bool = True, cutoff: float | None = None
) -> TestReport:
    """Run the full test on a raw sample and return the report.

    Location and scale are treated as nuisance parameters: the sample is
    standardised, then rescaled by sqrt(N), then projected onto the mode
    set. Standardising changes the null law of T, so the asymptotic
    chi-squared cutoff and p-value do not hold the level on this path, and
    the miss does not shrink with n: at N = 5, m = 4, level 0.05 the Monte
    Carlo size is 0.126 at n = 500 and 0.121 at n = 2,000, against a
    predicted limit of 0.1246; it is about 0.050 at N = 100. Pass a cutoff from
    ``calibrate(n, config, reps, seed, standardize_first=True)`` (``finiten
    calibrate``, or ``test --cutoff calibrated``), which runs this same
    pipeline under the null; the default ``calibrate``, like ``finiten
    calibrate --no-standardize``, draws raw, for ``test --no-standardize
    --cutoff <value>``. For data aligned by
    construction (e.g. simulation draws) pass ``standardize_first=False``
    (``--no-standardize`` in the CLI). The chi-squared cutoff is close to
    its level there near m = 4, but can miss it for m >= 6 (Monte Carlo
    size 0.0668 at N = 5, n = 20, m = 10, 0.0604 at N = 10, n = 500,
    m = 10 and 0.0386 at N = 20, n = 10, m = 6, level 0.05); calibrate with
    ``standardize_first=False`` (``--cutoff calibrated``) for an exact level.

    Standardising zeroes mu_1 and mu_2, so on that path a mode set with
    mode 1 or 2 raises ConfigError. Standardising answers every finite
    sample with the T of its copy rescaled by a power of two; without it,
    a sample whose T overflows raises DomainError.

    The test rejects when T exceeds ``cutoff``: by default (None) the
    chi-squared(dof) quantile at 1 - level, found by bisection on the
    survival function, or else a given value such as a calibrated one. The
    p-value is always the chi-squared survival function at T.
    """
    cutoff = config.theoretical_cutoff() if cutoff is None else check_cutoff(cutoff)
    x = values
    if standardize_first:
        _check_standardizable(config)
        x = standardize(values)
    mu = _sample_coefficients(x, config)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite T raises DomainError
        t = float(np.cumsum(mu * mu, axis=0)[-1])
    if not math.isfinite(t):
        raise DomainError(_T_NOT_FINITE)
    return TestReport(statistic=t, dof=config.dof, cutoff=cutoff,
                      p_value=_chi2_sf(config.dof, t), reject=bool(t > cutoff),
                      coefficients=dict(zip(config.modes, mu.tolist())))
