"""The closed-form chi-squared survival function and quantile of
finiten.stein_test: against 40-digit mpmath, and through the public test API."""

import math

import numpy as np
import pytest
from scipy import special

from finiten import FiniteNLaw, SteinTestConfig, run_test
from finiten.errors import ConfigError
from finiten.stein_test import _chi2_isf, _chi2_sf

try:
    import mpmath
except ImportError:  # the mpmath references skip; the public-API tests still run
    mpmath = None
else:
    mpmath.mp.dps = 40
needs_mpmath = pytest.mark.skipif(mpmath is None, reason="needs mpmath")

LEVELS = [float(p) for p in np.geomspace(1e-8, 0.999, 24)] + [0.01, 0.05, 0.5, 0.95]


def _sf(dof: int, t):
    return mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(t) / 2, mpmath.inf, regularized=True)


def _pdf(dof: int, t):
    h = mpmath.mpf(t) / 2
    return h ** (mpmath.mpf(dof) / 2 - 1) * mpmath.exp(-h) / (2 * mpmath.gamma(mpmath.mpf(dof) / 2))


@needs_mpmath
@pytest.mark.parametrize("dof", [1, 2, 3, 4, 14, 30, 101, 400])
def test_survival_function_matches_mpmath(dof):
    grid = np.concatenate([np.geomspace(1e-6, 10 * dof + 200, 150),
                           np.linspace(0.5, 10 * dof + 200, 150)])
    checked = 0
    for t in map(float, grid):
        reference = _sf(dof, t)
        if reference <= 1e-300:
            continue
        assert abs(_chi2_sf(dof, t) - reference) <= 1e-13 * reference, (dof, t)
        checked += 1
    assert checked >= 150


@needs_mpmath
def test_survival_function_edges():
    assert _chi2_sf(5, 0.0) == 1.0
    assert _chi2_sf(2, 10.0) == pytest.approx(np.exp(-5.0), rel=1e-15)
    # exp(-h) alone underflows to 0 at h = 1,000, but the sum is near 1e-210
    assert _chi2_sf(400, 2000.0) == pytest.approx(float(_sf(400, 2000)), rel=1e-13)


@needs_mpmath
@pytest.mark.parametrize("dof", range(1, 41))
def test_quantile_matches_mpmath_and_round_trips(dof):
    for level in LEVELS:
        q = _chi2_isf(dof, level)
        # first-order error of q from the exact survival function at q
        error = (_sf(dof, q) - level) / (q * _pdf(dof, q))
        assert abs(error) <= 1e-12, (dof, level)
        assert _chi2_sf(dof, q) == pytest.approx(level, rel=1e-13, abs=0), (dof, level)
        # q is the smallest float at which the survival function falls to the level
        assert _chi2_sf(dof, q) <= level < _chi2_sf(dof, math.nextafter(q, 0.0)), (dof, level)


# High-precision reference values computed with mpmath at 40 digits.
CHI2Q_1_95 = 3.841458820694125958361375437362596846213
CHI2Q_2_95 = 5.991464547107981986870447152285081551353
CHI2Q_4_95 = 9.487729036781156751700547571666639110069


def _cutoff(dof: int, level: float) -> float:
    """Theoretical cutoff of a config whose mode set has dof entries."""
    config = SteinTestConfig(N=20, m=max(4, dof), modes=range(1, dof + 1), level=level)
    return config.theoretical_cutoff()


def test_chi2_quantile_values():
    assert _cutoff(2, 0.05) == pytest.approx(CHI2Q_2_95, abs=1e-10)
    assert _cutoff(2, 0.05) == pytest.approx(-2.0 * math.log(0.05), abs=1e-10)
    assert _cutoff(1, 0.05) == pytest.approx(CHI2Q_1_95, abs=1e-10)
    assert _cutoff(4, 0.05) == pytest.approx(CHI2Q_4_95, abs=1e-10)
    # the default even mode set {4, 6} has two degrees of freedom
    assert SteinTestConfig(N=20, m=6).theoretical_cutoff() == _cutoff(2, 0.05)


def test_chi2_quantile_round_trip():
    for d in (1, 2, 5, 10, 100):
        for p in (0.01, 0.05, 0.5, 0.95, 0.999):
            q = _cutoff(d, 1.0 - p)
            assert special.gammainc(d / 2.0, q / 2.0) == pytest.approx(p, abs=1e-12)
            assert special.gammaincc(d / 2.0, q / 2.0) == pytest.approx(1.0 - p, abs=1e-12)


def test_chi2_quantile_monotone():
    ps = np.linspace(0.05, 0.95, 19)
    for d in (1, 3, 7):
        qs = [_cutoff(d, 1.0 - p) for p in ps]
        assert all(b > a for a, b in zip(qs, qs[1:]))
    for p in (0.25, 0.75):
        qs = [_cutoff(d, 1.0 - p) for d in range(1, 30)]
        assert all(b > a for a, b in zip(qs, qs[1:]))


def test_chi2_quantile_domain():
    for bad in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ConfigError):
            SteinTestConfig(N=20, m=4, level=bad)
    with pytest.raises(ConfigError):
        SteinTestConfig(N=20, m=4, modes=())


def test_chi2_sf_complements_quantile():
    """The run_test p-value equals the level when T equals the cutoff."""
    x = FiniteNLaw(20).sample(400, 5)
    for modes in ((4,), (4, 6), (1, 2, 3, 4, 5, 6)):
        report = run_test(x, SteinTestConfig(N=20, m=6, modes=modes), standardize_first=False)
        at_t = SteinTestConfig(N=20, m=6, modes=modes, level=report.p_value)
        assert at_t.theoretical_cutoff() == pytest.approx(report.statistic, rel=1e-10)
        assert report.dof == len(modes)
