"""The tail series of the integer-N CDF of finiten.distribution against
40-digit mpmath, at the float s = x/sqrt(N) that the code forms."""

import math
from collections import Counter

import numpy as np
import pytest

from finiten import FiniteNLaw
from finiten.distribution import _CLOSED_FORM_MAX_N, _TAIL

mpmath = pytest.importorskip("mpmath")
mpmath.mp.dps = 40

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny
SUBNORMAL_ULP = 2.0**-1074


def tail_points(law):
    """Points x < 0 with log F spread over [log 1e-3, -46] (4 of them),
    [-46, -700] (6) and the subnormal range [-744, -709] (4, of which small
    N reach none), placed by the leading factor exp(log_norm + a log(1 - s^2))
    of the series. The spread moves with N, so neighbouring N interleave."""
    a = (law.N - 1.0) / 2.0
    shift = (law.N % 7) / 7.0

    def spread(start, stop, count):
        return start + (np.arange(count) + shift) / count * (stop - start)

    log_f = np.concatenate([spread(math.log(0.9 * _TAIL), -46.0, 4), spread(-46.0, -700.0, 6),
                            spread(-709.0, -744.0, 4)])
    s = -np.sqrt(-np.expm1((log_f - law.log_norm) / a))
    return s * law.support_bound


def test_tail_cdf_matches_mpmath():
    checked = Counter()
    for N in range(4, _CLOSED_FORM_MAX_N + 1):
        law = FiniteNLaw(N)
        x = tail_points(law)
        got = law.cdf(x)
        assert np.all(got < _TAIL), N
        # the upper tail is the lower one reflected
        assert np.array_equal(law.cdf(-x), 1.0 - got), N
        a = mpmath.mpf(N - 1) / 2
        for value, s in zip(got, x / law.support_bound):
            want = mpmath.betainc(a, a, 0, (1 + mpmath.mpf(float(s))) / 2, regularized=True)
            if want == 0:  # s = -1: at small N no float s < 0 reaches the subnormal range
                assert value == 0.0, N
                continue
            if want >= 1e-20:
                kind, bound = "middle", 4e-14 * want
            else:
                kind, bound = "deep", 2.0 * EPS * abs(mpmath.log(want)) * want
            if want < TINY:
                # the prefactor's exponent, near -709, is itself rounded, so
                # the bound above goes on, plus two subnormal ulps
                kind, bound = "subnormal", bound + 2.0 * SUBNORMAL_ULP
            assert abs(mpmath.mpf(float(value)) - want) <= bound, (N, float(s), float(want))
            checked[kind] += 1
    assert len(checked) == 3 and min(checked.values()) >= 100, checked


def test_tail_cdf_where_betainc_is_off():
    # SciPy 1.17.1's betainc(32, 32, z) is 5.2e-3 high at this point
    law = FiniteNLaw(65)
    x = -8.062257745359178
    want = mpmath.betainc(32, 32, 0, (1 + mpmath.mpf(x / law.support_bound)) / 2, regularized=True)
    assert abs(law.cdf(x) - want) <= 2.0 * EPS * abs(mpmath.log(want)) * want
