import math

import numpy as np
import pytest

from finiten import FiniteNLaw
from finiten.edf import _edf_statistics
from finiten.workspace import Workspace


def _stats(values, law):
    """KS, CvM and AD of one sample, as one row of the batch kernel."""
    ks, cvm, ad = _edf_statistics(np.asarray(values, dtype=float)[None, :], law, Workspace())
    return float(ks[0]), float(cvm[0]), float(ad[0])


def test_single_median_point():
    law = FiniteNLaw(5)
    ks, cvm, ad = _stats([0.0], law)  # F(0) = 0.5 exactly
    assert ks == pytest.approx(0.5, abs=0)
    assert cvm == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert ad == pytest.approx(-1.0 + 2.0 * math.log(2.0), abs=1e-12)


def test_perfect_quantile_sample():
    law = FiniteNLaw(5)
    n = 64
    x = np.array([law.quantile((2 * i - 1) / (2 * n)) for i in range(1, n + 1)])
    ks, cvm, _ = _stats(x, law)
    assert cvm == pytest.approx(1.0 / (12.0 * n), abs=1e-8)
    assert ks == pytest.approx(1.0 / (2.0 * n), abs=1e-8)


def test_bounds_and_validation():
    law = FiniteNLaw(5)
    x = law.sample(200, 5)
    ks, cvm, ad = _stats(x, law)
    assert 0.0 <= ks <= 1.0
    assert cvm >= 1.0 / (12.0 * 200) - 1e-12
    assert math.isfinite(ad)


def test_support_edge_points_stay_finite():
    # CDF hits exactly 0/1 at the support edge; the log clamp keeps AD finite
    law = FiniteNLaw(5)
    edge = law.support_bound
    _, _, ad = _stats([-edge, 0.0, edge], law)
    assert math.isfinite(ad)


def test_permutation_invariance():
    law = FiniteNLaw(8)
    x = law.sample(333, 17)
    base = _stats(x, law)
    rng = np.random.default_rng(18)
    shuffled = _stats(rng.permutation(x), law)
    assert shuffled == base


def test_batch_matches_single():
    law = FiniteNLaw(6)
    rng = np.random.default_rng(9)
    a = (6.0 - 1.0) / 2.0
    x = math.sqrt(6.0) * (2.0 * rng.beta(a, a, size=(20, 50)) - 1.0)
    ks, cvm, ad = _edf_statistics(x, law, Workspace())
    for j in range(20):
        assert _stats(x[j], law) == (ks[j], cvm[j], ad[j])


def test_uniform_probability_transforms_under_null():
    # with the true, known-parameter CDF the transforms are uniform order
    # statistics: E[u_(i)] = i / (n + 1)
    law = FiniteNLaw(5)
    n, reps = 20, 20_000
    rng = np.random.default_rng(77)
    a = 2.0
    x = math.sqrt(5.0) * (2.0 * rng.beta(a, a, size=(reps, n)) - 1.0)
    u = law.cdf(np.sort(x, axis=1))
    i = np.arange(1, n + 1)
    expected = i / (n + 1.0)
    variance = i * (n - i + 1.0) / ((n + 1.0) ** 2 * (n + 2.0))
    se = np.sqrt(variance / reps)
    assert np.all(np.abs(u.mean(axis=0) - expected) < 4.0 * se)


def test_ks_shrinks_with_sample_size():
    law = FiniteNLaw(5)
    rng = np.random.default_rng(4)
    a = 2.0
    reps = 5_000
    medians = {}
    for n in (100, 1000):
        x = math.sqrt(5.0) * (2.0 * rng.beta(a, a, size=(reps, n)) - 1.0)
        ks, _, _ = _edf_statistics(x, law, Workspace())
        medians[n] = np.median(ks)
    assert medians[1000] < medians[100]


@pytest.mark.slow
def test_upper_quantiles_stable_across_seeds():
    # 95th percentile of each statistic varies below 2% between seeds
    # at n=500 with 50,000 replications
    law = FiniteNLaw(5)
    n, reps = 500, 50_000
    a = 2.0
    quantiles = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        collected = {name: [] for name in ("ks", "cvm", "ad")}
        for start in range(0, reps, 2_000):
            x = math.sqrt(5.0) * (2.0 * rng.beta(a, a, size=(2_000, n)) - 1.0)
            ks, cvm, ad = _edf_statistics(x, law, Workspace())
            collected["ks"].append(ks)
            collected["cvm"].append(cvm)
            collected["ad"].append(ad)
        quantiles.append(
            {
                name: np.quantile(np.concatenate(chunks), 0.95)
                for name, chunks in collected.items()
            }
        )
    for name in ("ks", "cvm", "ad"):
        a_q, b_q = quantiles[0][name], quantiles[1][name]
        assert abs(a_q - b_q) / a_q < 0.02
