"""Chi-squared cutoffs and p-values, through the public test API."""

import math

import numpy as np
import pytest
from scipy import special

from finiten import FiniteNLaw, SteinTestConfig, run_test
from finiten.errors import ConfigError

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
        report = run_test(x, SteinTestConfig(N=20, m=6, modes=modes))
        at_t = SteinTestConfig(N=20, m=6, modes=modes, level=report.p_value)
        assert at_t.theoretical_cutoff() == pytest.approx(report.statistic, rel=1e-10)
        assert report.dof == len(modes)
