import dataclasses
import math

import numpy as np
import pytest
from scipy import special

from finiten import FiniteNLaw
from finiten.errors import ConfigError, DegenerateSampleError, DomainError
from finiten.jacobi import JacobiBasis
from finiten.stein_test import (
    SteinTestConfig,
    batch_statistic,
    coefficients,
    even_modes,
    run_test,
    running_statistics,
    standardize,
    statistic,
)
from operator_reference import orthonormal_psi


def _null_matrix(N, n, reps, seed):
    rng = np.random.default_rng(seed)
    a = (N - 1.0) / 2.0
    return math.sqrt(N) * (2.0 * rng.beta(a, a, size=(reps, n)) - 1.0)


def test_even_modes():
    assert even_modes(4) == (4,)
    assert even_modes(10) == (4, 6, 8, 10)
    assert even_modes(7) == (4, 6)
    with pytest.raises(ConfigError):
        even_modes(3)


def test_config_defaults_and_validation():
    config = SteinTestConfig(N=5)
    assert config.m == 4 and config.modes == (4,) and config.dof == 1
    assert config.level == 0.05 and config.cutoff is None
    config = SteinTestConfig(N=5, m=10)
    assert config.modes == (4, 6, 8, 10) and config.dof == 4
    custom = SteinTestConfig(N=5, m=6, modes=(1, 3, 5))
    assert custom.modes == (1, 3, 5)
    with pytest.raises(DomainError):
        SteinTestConfig(N=3.0)
    with pytest.raises(ConfigError):
        SteinTestConfig(N=5, m=4, modes=(5,))  # mode above m
    with pytest.raises(ConfigError):
        SteinTestConfig(N=5, m=4, modes=())
    with pytest.raises(ConfigError):
        SteinTestConfig(N=5, m=4, modes=(4, 4))
    with pytest.raises(ConfigError):
        SteinTestConfig(N=5, level=1.5)
    with pytest.raises(ConfigError):
        SteinTestConfig(N=5, cutoff=-1.0)
    with pytest.raises(ConfigError, match="mode must be an integer"):
        SteinTestConfig(N=5, m=6, modes=(4.5, 6))  # not truncated to 4
    with pytest.raises(ConfigError, match="mode must be an integer"):
        SteinTestConfig(N=5, modes=(math.nan,))


def test_config_owns_its_law_and_basis():
    config = SteinTestConfig(N=7, m=8)
    assert config.law == FiniteNLaw(7) and config.basis.alpha == config.law.alpha
    assert config.basis.max_order == config.m
    twin = SteinTestConfig(N=7.0, m=8)
    assert twin == config and hash(twin) == hash(config)
    assert "law" not in repr(config) and "basis" not in repr(config)
    assert repr(config) == "SteinTestConfig(N=7.0, m=8, modes=(4, 6, 8), level=0.05, cutoff=None)"
    replaced = dataclasses.replace(config, cutoff=3.0)
    assert replaced.cutoff == 3.0 and replaced != config
    assert (replaced.basis.alpha, replaced.basis.max_order) == (config.basis.alpha, config.m)
    assert np.array_equal(replaced.basis.sigmas, config.basis.sigmas)


def test_config_cutoffs():
    config = SteinTestConfig(N=5, m=4)
    assert config.theoretical_cutoff() == pytest.approx(3.841458820694, abs=1e-9)
    assert config.resolve_cutoff() == config.theoretical_cutoff()
    calibrated = SteinTestConfig(N=5, m=4, cutoff=3.5)
    assert calibrated.resolve_cutoff() == 3.5


def test_standardize_exactness():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.5, size=1000)
    z = standardize(x)
    assert abs(z.mean()) < 1e-14
    assert (z * z).mean() == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(standardize(z) - z)) <= 1e-12


def test_standardize_affine_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=500)
    z = standardize(x)
    for a, b in ((5.0, 2.0), (-3.0, 0.25), (100.0, 17.0)):
        assert np.max(np.abs(standardize(a + b * x) - z)) <= 1e-12


def test_standardize_two_points_and_errors():
    assert np.allclose(standardize(np.array([-1.0, 1.0])), [-1.0, 1.0], atol=0)
    with pytest.raises(DegenerateSampleError):
        standardize(np.full(10, 3.3))
    with pytest.raises(DomainError):
        standardize(np.array([1.0]))
    with pytest.raises(DomainError):
        standardize(np.array([1.0, math.nan]))


def test_standardize_matrix_matches_rows():
    rng = np.random.default_rng(2)
    x = rng.normal(1.0, 3.0, size=(7, 50))
    z = standardize(x)
    for j in range(x.shape[0]):
        assert np.array_equal(z[j], standardize(x[j]))
    x[4] = 2.5
    with pytest.raises(DegenerateSampleError):
        standardize(x)
    with pytest.raises(DomainError):
        standardize(x[:, :1])


@pytest.mark.parametrize("N", [3.5, 4.001, 5.0, 20.0, 1e4, 1e8])
def test_float64_coefficients_match_extended_psi(N):
    # the float64 recurrence behind coefficients against the long-double
    # one behind psi, for single-point samples across the support
    m = 30
    config = SteinTestConfig(N=N, m=m, modes=tuple(range(1, m + 1)))
    x = math.sqrt(N) * np.linspace(-1.0, 1.0, 41)
    psi = np.array([config.basis.psi(k, x / math.sqrt(N)) for k in range(1, m + 1)])
    coef = np.array([list(coefficients([xi], config).values()) for xi in x]).T
    scale = np.abs(psi).max(axis=1, keepdims=True)
    assert np.all(np.abs(coef - psi) <= 1e-12 * scale)


@pytest.mark.parametrize("N", [5.0, 20.0, 1e4, 1e6, 1e8])
def test_coefficients_match_orthonormal_recurrence(N):
    # psi from the orthonormal recurrence uses no sigma_k, so unlike the
    # check against basis.psi this one also tests the norms
    m = 30
    config = SteinTestConfig(N=N, m=m, modes=tuple(range(1, m + 1)))
    x = math.sqrt(N) * np.linspace(-1.0, 1.0, 41)
    psi = orthonormal_psi(config.law.alpha, m, x / math.sqrt(N))
    coef = np.array([list(coefficients([xi], config).values()) for xi in x]).T
    scale = np.abs(psi).max(axis=1, keepdims=True)
    assert np.all(np.abs(coef - psi) <= 1e-12 * scale)


def test_coefficients_parity_and_single_point():
    basis = JacobiBasis.for_system(5.0, 4)
    config = SteinTestConfig(N=5, m=4, modes=(1, 3))
    sample = np.array([-0.8, 0.8, -0.3, 0.3])
    coefs = coefficients(sample, config)
    assert coefs[1] == 0.0
    assert coefs[3] == 0.0

    config4 = SteinTestConfig(N=5, m=4)
    x = 0.9
    single = coefficients(np.array([x]), config4)
    assert single[4] == pytest.approx(basis.psi(4, x / math.sqrt(5.0)), rel=1e-13)


def test_statistic_is_sum_of_squares():
    config = SteinTestConfig(N=5, m=10)
    law = FiniteNLaw(5)
    x = law.sample(400, 11)
    coefs = coefficients(x, config)
    t = statistic(x, config)
    assert t >= 0.0
    assert t == pytest.approx(sum(v * v for v in coefs.values()), abs=1e-12)


def test_statistic_permutation_invariant():
    config = SteinTestConfig(N=5, m=10)
    law = FiniteNLaw(5)
    x = law.sample(999, 13)
    t = statistic(x, config)
    rng = np.random.default_rng(14)
    for _ in range(3):
        assert statistic(rng.permutation(x), config) == pytest.approx(t, rel=1e-10)


def test_null_statistic_mean_is_one():
    # E[T] = 1 for a single mode: the coefficient has unit variance by
    # orthonormality (20,000 replications, N=5, n=500)
    config = SteinTestConfig(N=5, m=4)
    t = batch_statistic(_null_matrix(5.0, 500, 20_000, 101), config)
    assert t.mean() == pytest.approx(1.0, abs=0.05)


def test_null_statistic_upper_quantile_two_modes():
    # with two modes the 95th percentile approaches the chi2_2 value 5.99
    config = SteinTestConfig(N=5, m=6)
    t = np.sort(batch_statistic(_null_matrix(5.0, 500, 20_000, 202), config))
    q95 = t[int(math.ceil(0.95 * (t.size + 1))) - 1]
    assert q95 == pytest.approx(5.991464547, abs=0.15)


def test_null_statistic_matches_chi2_law():
    # Kolmogorov distance of 20,000 null statistics to chi-squared (1 dof)
    config = SteinTestConfig(N=5, m=4)
    t = batch_statistic(_null_matrix(5.0, 500, 20_000, 303), config)
    u = np.sort(special.chdtr(1, t))
    i = np.arange(1, t.size + 1)
    ks = max((i / t.size - u).max(), (u - (i - 1) / t.size).max())
    assert ks <= 0.02


def test_null_coefficients_stay_in_gaussian_range():
    # each mode coefficient behaves like a standard normal at n = 1e5;
    # |mu_k| < 4 in at least 99 of 100 replications
    config = SteinTestConfig(N=5, m=10)
    law = FiniteNLaw(5)
    hits = {k: 0 for k in config.modes}
    reps = 100
    for r in range(reps):
        coefs = coefficients(law.sample(100_000, 1_000 + r), config)
        for k, value in coefs.items():
            if abs(value) <= 4.0:
                hits[k] += 1
    for k in config.modes:
        assert hits[k] >= 99


def test_batch_statistic_matches_rowwise():
    config = SteinTestConfig(N=7, m=8)
    x = _null_matrix(7.0, 60, 25, 404)
    batch = batch_statistic(x, config)
    for j in range(x.shape[0]):
        assert batch[j] == pytest.approx(statistic(x[j], config), rel=1e-12)
    batch_std = batch_statistic(standardize(x), config)
    for j in range(x.shape[0]):
        assert batch_std[j] == pytest.approx(
            statistic(standardize(x[j]), config), rel=1e-10
        )


def test_batch_statistic_rejects_non_finite_rows():
    config = SteinTestConfig(N=7, m=8)
    for bad in (math.nan, math.inf):
        x = _null_matrix(7.0, 20, 5, 406)
        x[2, 3] = bad
        with pytest.raises(DomainError, match="sample values must be finite"):
            batch_statistic(x, config)
    with pytest.raises(DomainError, match=r"samples must be a \(reps, n\) matrix"):
        running_statistics(_null_matrix(7.0, 20, 1, 406)[0], config)


def test_running_statistics_rows_are_each_m_bit_for_bit():
    # one recurrence up to m = 10 gives T of every smaller m exactly
    x = _null_matrix(7.0, 40, 30, 405)
    running = running_statistics(x, SteinTestConfig(N=7, m=10))
    assert running.shape == (4, 30)
    for row, m in enumerate((4, 6, 8, 10)):
        assert np.array_equal(running[row], batch_statistic(x, SteinTestConfig(N=7, m=m)))
    assert np.array_equal(running[1], running_statistics(x, SteinTestConfig(N=7, m=7))[-1])


def test_run_test_report_fields_and_decision():
    law = FiniteNLaw(5)
    config = SteinTestConfig(N=5, m=4)
    report = run_test(law.sample(500, 21), config)
    assert report.dof == 1
    assert report.statistic == pytest.approx(
        sum(v * v for v in report.coefficients.values()), abs=1e-12
    )
    assert report.reject == (report.statistic > report.cutoff)
    if not report.reject:
        assert report.p_value > 0.05 or report.cutoff != config.theoretical_cutoff()
    payload = report.to_dict()
    assert set(payload) == {"statistic", "dof", "cutoff", "p_value", "reject", "coefficients"}
    assert payload["coefficients"] == {4: report.coefficients[4]}


def test_run_test_location_scale_invariance():
    law = FiniteNLaw(5)
    config = SteinTestConfig(N=5, m=10)
    x = law.sample(400, 33)
    base = run_test(x, config)
    for a, b in ((2.0, 3.0), (-7.5, 0.5)):
        moved = run_test(a + b * x, config)
        assert moved.statistic == pytest.approx(base.statistic, abs=1e-10)
        assert moved.reject == base.reject
        for k in config.modes:
            assert moved.coefficients[k] == pytest.approx(base.coefficients[k], abs=1e-10)


def test_run_test_with_explicit_cutoff():
    law = FiniteNLaw(5)
    x = law.sample(200, 55)
    low = run_test(x, SteinTestConfig(N=5, m=4, cutoff=1e-6))
    assert low.reject  # any positive statistic exceeds a tiny cutoff
    high = run_test(x, SteinTestConfig(N=5, m=4, cutoff=1e6))
    assert not high.reject
    assert low.statistic == high.statistic


def test_run_test_standardize_toggle():
    law = FiniteNLaw(5)
    x = law.sample(300, 66)
    config = SteinTestConfig(N=5, m=4)
    raw = run_test(x, config, standardize_first=False)
    aligned = run_test(x, config, standardize_first=True)
    assert raw.statistic != aligned.statistic  # alignment changes the projection
    direct = statistic(x, config)
    assert raw.statistic == pytest.approx(direct, rel=1e-13)


def test_run_test_refuses_modes_1_and_2_on_standardised_path():
    # standardising zeroes mu_1 and mu_2; counting them in dof would
    # inflate the chi-squared cutoff with noise-only terms
    x = FiniteNLaw(5).sample(500, 7)
    for modes in ((1, 3), (2, 4), (1, 2, 3, 4)):
        config = SteinTestConfig(N=5, m=4, modes=modes)
        with pytest.raises(ConfigError, match="modes 1 and 2"):
            run_test(x, config)
        assert run_test(x, config, standardize_first=False).dof == len(modes)
    assert run_test(x, SteinTestConfig(N=5, m=4, modes=(3, 4))).dof == 2


def test_rejection_rates_across_seeds():
    # null data at n=500 is rejected at close to the nominal level, while
    # Gaussian data at n=250 is rejected nearly always (N=5, m=4)
    law = FiniteNLaw(5)
    config = SteinTestConfig(N=5, m=4)
    reps = 1_000
    null_rejections = 0
    alt_rejections = 0
    cutoff = config.theoretical_cutoff()
    null_t = batch_statistic(_null_matrix(5.0, 500, reps, 71), config)
    null_rejections = int((null_t > cutoff).sum())
    rng = np.random.default_rng(72)
    alt_t = batch_statistic(rng.standard_normal((reps, 250)), config)
    alt_rejections = int((alt_t > cutoff).sum())
    assert abs(null_rejections / reps - 0.05) < 0.03
    assert alt_rejections / reps > 0.97
