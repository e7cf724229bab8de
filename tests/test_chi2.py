"""The closed-form chi-squared survival function and quantile of
finiten.stein_test against 40-digit mpmath."""

import math

import numpy as np
import pytest

from finiten.stein_test import _chi2_isf, _chi2_sf

mpmath = pytest.importorskip("mpmath")
mpmath.mp.dps = 40

LEVELS = [float(p) for p in np.geomspace(1e-8, 0.999, 24)] + [0.01, 0.05, 0.5, 0.95]


def _sf(dof: int, t):
    return mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(t) / 2, mpmath.inf, regularized=True)


def _pdf(dof: int, t):
    h = mpmath.mpf(t) / 2
    return h ** (mpmath.mpf(dof) / 2 - 1) * mpmath.exp(-h) / (2 * mpmath.gamma(mpmath.mpf(dof) / 2))


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


def test_survival_function_edges():
    assert _chi2_sf(5, 0.0) == 1.0
    assert _chi2_sf(2, 10.0) == pytest.approx(np.exp(-5.0), rel=1e-15)
    # exp(-h) alone underflows to 0 at h = 1,000, but the sum is near 1e-210
    assert _chi2_sf(400, 2000.0) == pytest.approx(float(_sf(400, 2000)), rel=1e-13)


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
