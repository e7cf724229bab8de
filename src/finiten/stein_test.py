"""Goodness-of-fit test for the finite-N velocity law.

For a sample rescaled to y = x / sqrt(N), the empirical coefficients

    mu_k = n^(-1/2) * sum_i psi_k(y_i)

are asymptotically independent standard normals under the null, so the
statistic T = sum of mu_k^2 over a chosen mode set converges to a
chi-squared law with as many degrees of freedom as there are modes.
Because the null and the Gaussian alternative are both symmetric and
location/scale aligned, modes below four carry no signal; the default
mode set is the even orders {4, 6, ..., m}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import ConfigError, DegenerateSampleError, DomainError
from .jacobi import JacobiBasis, jacobi_rows

__all__ = [
    "even_modes",
    "SteinTestConfig",
    "TestReport",
    "standardize",
    "coefficients",
    "statistic",
    "batch_statistic",
    "run_test",
]


def even_modes(m: int) -> tuple[int, ...]:
    """Default mode set for truncation order m: even integers 4..m."""
    if int(m) != m or m < 4:
        raise ConfigError(f"truncation order must be an integer >= 4, got {m!r}")
    return tuple(range(4, int(m) + 1, 2))


@dataclass(frozen=True)
class SteinTestConfig:
    """Test configuration: system size, truncation, modes, level, cutoff.

    ``cutoff`` is None for the asymptotic chi-squared critical value, or a
    Monte Carlo calibrated value. ``modes`` defaults to the even set
    {4, 6, ..., m}.
    """

    N: float
    m: int = 4
    modes: tuple[int, ...] = None  # type: ignore[assignment]
    level: float = 0.05
    cutoff: float | None = None

    def __post_init__(self):
        N = float(self.N)
        if not math.isfinite(N) or N <= 3.0:
            raise ConfigError(f"N must be a finite real > 3, got {self.N!r}")
        object.__setattr__(self, "N", N)
        if int(self.m) != self.m or self.m < 4:
            raise ConfigError(f"truncation order must be an integer >= 4, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))
        if self.modes is None:
            object.__setattr__(self, "modes", even_modes(self.m))
        else:
            modes = tuple(int(k) for k in self.modes)
            if not modes:
                raise ConfigError("mode set must be nonempty")
            if len(set(modes)) != len(modes):
                raise ConfigError(f"mode set has duplicates: {modes}")
            if any(k < 1 or k > self.m for k in modes):
                raise ConfigError(f"modes must lie in 1..{self.m}, got {modes}")
            object.__setattr__(self, "modes", modes)
        if not 0.0 < float(self.level) < 1.0:
            raise ConfigError(f"level must lie in (0, 1), got {self.level!r}")
        object.__setattr__(self, "level", float(self.level))
        if self.cutoff is not None:
            cutoff = float(self.cutoff)
            if not math.isfinite(cutoff) or cutoff <= 0.0:
                raise ConfigError(f"calibrated cutoff must be positive, got {self.cutoff!r}")
            object.__setattr__(self, "cutoff", cutoff)

    @property
    def dof(self) -> int:
        return len(self.modes)

    @property
    def alpha(self) -> float:
        return (self.N - 3.0) / 2.0

    def theoretical_cutoff(self) -> float:
        return specfun.chi2_quantile(self.dof, 1.0 - self.level)

    def resolve_cutoff(self) -> float:
        return self.cutoff if self.cutoff is not None else self.theoretical_cutoff()

    def build_basis(self) -> JacobiBasis:
        return JacobiBasis.for_system(self.N, self.m)


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test run; serialises with exactly these field names."""

    __test__ = False  # a result record, not a pytest test class

    statistic: float
    coefficients: dict[int, float]
    dof: int
    cutoff: float
    p_value: float
    reject: bool

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "dof": self.dof,
            "cutoff": self.cutoff,
            "p_value": self.p_value,
            "reject": self.reject,
            "coefficients": {int(k): float(v) for k, v in self.coefficients.items()},
        }


def standardize(values) -> np.ndarray:
    """Affine-map a sample to zero mean and unit mean square (divisor n).

    Takes one sample of shape (n,) or a (reps, n) matrix with one sample
    per row, and works along the last axis. Idempotent and invariant
    under positive affine rescaling of each sample. Raises
    DegenerateSampleError if any sample is constant.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] < 2:
        raise DomainError("standardize requires an (n,) or (reps, n) sample with n >= 2")
    if not np.all(np.isfinite(x)):
        raise DomainError("sample values must be finite")
    centred = x - x.mean(axis=-1, keepdims=True)
    scale = np.sqrt((centred * centred).mean(axis=-1, keepdims=True))
    if np.any(scale == 0.0):
        raise DegenerateSampleError("sample is constant; no scale information")
    return centred / scale


def _check_pair(config: SteinTestConfig, basis: JacobiBasis) -> None:
    if abs(basis.alpha - config.alpha) > 1e-12 * max(1.0, abs(config.alpha)):
        raise ConfigError(
            f"basis alpha {basis.alpha} does not match config N={config.N}"
        )
    if basis.max_order < max(config.modes):
        raise ConfigError(
            f"basis order {basis.max_order} below largest mode {max(config.modes)}"
        )


def _validate_sample(values) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.size < 1:
        raise DomainError("sample must be nonempty")
    if not np.all(np.isfinite(x)):
        raise DomainError("sample values must be finite")
    return x


def _mode_sums(y: np.ndarray, modes, basis: JacobiBasis) -> dict[int, np.ndarray]:
    """Sum of psi_k over the last axis of y, for each requested mode.

    Runs the recurrence once up to the largest mode in float64; y may be
    (n,) or (reps, n).
    """
    wanted = frozenset(modes)
    return {
        k: (-(2.0 * k / basis.sigmas[k - 1]) * p).sum(axis=-1)
        for k, p in enumerate(jacobi_rows(basis.alpha, max(modes), y))
        if k in wanted
    }


def coefficients(values, config: SteinTestConfig, basis: JacobiBasis) -> dict[int, float]:
    """Empirical mode coefficients mu_k = n^(-1/2) sum_i psi_k(x_i/sqrt(N)).

    The sample is used as given; callers own any location/scale
    alignment (see :func:`run_test`).
    """
    _check_pair(config, basis)
    x = _validate_sample(values)
    if x.ndim != 1:
        raise DomainError("coefficients expects a 1-D sample")
    y = x / math.sqrt(config.N)
    root_n = math.sqrt(x.size)
    sums = _mode_sums(y, config.modes, basis)
    return {k: float(sums[k]) / root_n for k in config.modes}


def statistic(values, config: SteinTestConfig, basis: JacobiBasis) -> float:
    """Quadratic statistic T = sum of mu_k^2 over the configured modes."""
    coef = coefficients(values, config, basis)
    return float(sum(v * v for v in coef.values()))


def batch_statistic(
    samples: np.ndarray,
    config: SteinTestConfig,
    basis: JacobiBasis,
    standardize_first: bool = False,
) -> np.ndarray:
    """T for every row of a (reps, n) sample matrix.

    Vectorised simulation path used by the Monte Carlo harness; agrees
    with :func:`statistic` row by row.
    """
    _check_pair(config, basis)
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[1] < 1:
        raise DomainError("batch_statistic expects a (reps, n) matrix")
    if standardize_first:
        x = standardize(x)
    y = x / math.sqrt(config.N)
    n = x.shape[1]
    sums = _mode_sums(y, config.modes, basis)
    t = np.zeros(x.shape[0])
    for k in config.modes:
        mu = sums[k] / math.sqrt(n)
        t += mu * mu
    return t


def run_test(
    values,
    config: SteinTestConfig,
    basis: JacobiBasis | None = None,
    standardize_first: bool = True,
) -> TestReport:
    """Run the full test on a raw sample and return the report.

    Location and scale are treated as nuisance parameters: the sample is
    standardised, then rescaled by sqrt(N), then projected onto the mode
    set. Pass ``standardize_first=False`` for data already aligned by
    construction (e.g. simulation draws); with standardisation on, the
    asymptotic chi-squared cutoff is conservative only in the calibrated
    sense, so Monte Carlo calibrated cutoffs are recommended.

    The p-value is always reported from the chi-squared survival function
    at T; the accept/reject decision uses the resolved cutoff.
    """
    if basis is None:
        basis = config.build_basis()
    x = _validate_sample(values)
    if standardize_first:
        x = standardize(x)
    coef = coefficients(x, config, basis)
    t = float(sum(v * v for v in coef.values()))
    cutoff = config.resolve_cutoff()
    p_value = specfun.chi2_sf(config.dof, t)
    return TestReport(
        statistic=t,
        coefficients=coef,
        dof=config.dof,
        cutoff=cutoff,
        p_value=p_value,
        reject=bool(t > cutoff),
    )
