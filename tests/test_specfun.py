import math

import numpy as np
import pytest
from scipy import special

from finiten import specfun
from finiten.errors import DomainError

# High-precision reference values computed with mpmath at 40 digits.
LN_GAMMA_HALF = 0.5723649429247000870717136756765293558236
LN_GAMMA_2P5 = 0.2846828704729191596324946696827019243201
EULER_GAMMA = 0.5772156649015328606065120900824024310422
DIGAMMA_2P5 = 0.7031566406452431872256903336679110994735
CHI2Q_1_95 = 3.841458820694125958361375437362596846213
CHI2Q_2_95 = 5.991464547107981986870447152285081551353
CHI2Q_4_95 = 9.487729036781156751700547571666639110069


def test_log_gamma_values():
    assert specfun.log_gamma(1.0) == 0.0
    assert specfun.log_gamma(0.5) == pytest.approx(LN_GAMMA_HALF, abs=1e-13)
    assert specfun.log_gamma(2.5) == pytest.approx(LN_GAMMA_2P5, abs=1e-13)


def test_log_gamma_recurrence():
    for x in np.linspace(0.5, 100.0, 200):
        lhs = specfun.log_gamma(x + 1.0) - specfun.log_gamma(x) - math.log(x)
        assert abs(lhs) <= 1e-12


def test_log_gamma_domain():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            specfun.log_gamma(bad)


def test_digamma_values():
    assert specfun.digamma(2.0) == pytest.approx(specfun.digamma(1.0) + 1.0, abs=1e-12)
    assert specfun.digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert specfun.digamma(2.5) == pytest.approx(DIGAMMA_2P5, abs=1e-12)
    # psi(0.5) = -gamma - 2 ln 2, climbed by the recurrence to 2.5
    by_recurrence = (-EULER_GAMMA - 2.0 * math.log(2.0)) + 2.0 + 2.0 / 3.0
    assert specfun.digamma(2.5) == pytest.approx(by_recurrence, abs=1e-12)


def test_digamma_recurrence():
    for x in np.linspace(0.5, 100.0, 200):
        lhs = specfun.digamma(x + 1.0) - specfun.digamma(x) - 1.0 / x
        assert abs(lhs) <= 1e-12


def test_digamma_domain():
    for bad in (0.0, -2.0, math.nan):
        with pytest.raises(DomainError):
            specfun.digamma(bad)


def test_chi2_quantile_values():
    assert specfun.chi2_quantile(2, 0.95) == pytest.approx(CHI2Q_2_95, abs=1e-10)
    assert specfun.chi2_quantile(2, 0.95) == pytest.approx(-2.0 * math.log(0.05), abs=1e-10)
    assert specfun.chi2_quantile(1, 0.95) == pytest.approx(CHI2Q_1_95, abs=1e-10)
    assert specfun.chi2_quantile(4, 0.95) == pytest.approx(CHI2Q_4_95, abs=1e-10)


def test_chi2_quantile_round_trip():
    for d in (1, 2, 5, 10, 100):
        for p in (0.01, 0.05, 0.5, 0.95, 0.999):
            q = specfun.chi2_quantile(d, p)
            assert special.gammainc(d / 2.0, q / 2.0) == pytest.approx(p, abs=1e-12)
            assert abs(specfun.chi2_quantile(d, special.gammainc(d / 2.0, q / 2.0)) - q) <= 1e-10 * max(1.0, q)


def test_chi2_quantile_monotone():
    ps = np.linspace(0.05, 0.95, 19)
    for d in (1, 3, 7):
        qs = [specfun.chi2_quantile(d, p) for p in ps]
        assert all(b > a for a, b in zip(qs, qs[1:]))
    for p in (0.25, 0.75):
        qs = [specfun.chi2_quantile(d, p) for d in range(1, 30)]
        assert all(b > a for a, b in zip(qs, qs[1:]))


def test_chi2_quantile_domain():
    for bad in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(DomainError):
            specfun.chi2_quantile(2, bad)
    with pytest.raises(DomainError):
        specfun.chi2_quantile(0, 0.5)


def test_chi2_sf_complements_quantile():
    for d in (1, 2, 6):
        q = specfun.chi2_quantile(d, 0.95)
        assert specfun.chi2_sf(d, q) == pytest.approx(0.05, abs=1e-12)
    assert specfun.chi2_sf(3, 0.0) == 1.0
