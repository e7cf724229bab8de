import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import special

from finiten import FiniteNLaw
from finiten.errors import ConfigError, DegenerateSampleError, DomainError
from finiten.jacobi import JacobiBasis
from finiten.stein_test import (
    SteinTestConfig,
    _mode_coefficients,
    _running_statistics,
    batch_statistic,
    coefficients,
    even_modes,
    run_test,
    standardize,
)
from finiten.workspace import Workspace
from operator_reference import jacobi_psi, orthonormal_psi, reference_coefficients


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
    assert config.level == 0.05
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
    assert repr(config) == "SteinTestConfig(N=7.0, m=8, modes=(4, 6, 8), level=0.05)"
    replaced = dataclasses.replace(config, level=0.01)
    assert replaced.level == 0.01 and replaced != config
    assert (replaced.basis.alpha, replaced.basis.max_order) == (config.basis.alpha, config.m)
    assert np.array_equal(replaced.basis.sigmas, config.basis.sigmas)


def test_config_cutoffs():
    config = SteinTestConfig(N=5, m=4)
    assert config.theoretical_cutoff() == pytest.approx(3.841458820694, abs=1e-9)
    x = FiniteNLaw(5).sample(100, 1)
    assert run_test(x, config).cutoff == config.theoretical_cutoff()
    assert run_test(x, config, cutoff=3.5).cutoff == 3.5


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


def test_standardize_answers_a_sample_of_any_finite_scale():
    # unscaled, the squares of these overflow (a scale of inf would give
    # zeros, a mean of inf only -inf) or underflow (a "constant" sample)
    for x in (np.array([0.1, -0.4, 1e200, 0.7, -1.1]), np.array([1e308, 1.5e308, 0.3]),
              np.array([[0.1, -0.4, 0.7], [0.1, -0.4, 1e200]]),
              np.array([1e-200, 2e-200, 3e-200, -1e-200, 5e-200]),
              np.array([5e-324, 0.0, 1e-323])):
        z = standardize(x)
        assert np.all(np.isfinite(z))
        assert np.all(np.abs(np.mean(z * z, axis=-1) - 1.0) <= 1e-15)
        for row, z_row in zip(np.atleast_2d(x), np.atleast_2d(z)):
            assert np.array_equal(standardize(row), z_row)
    z = standardize(np.array([0.1, -0.4, 1e200, 0.7, -1.1]))
    assert z == pytest.approx([-0.5, -0.5, 2.0, -0.5, -0.5], rel=1e-15)


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
    psi = np.array([jacobi_psi(config.basis, k, x / math.sqrt(N)) for k in range(1, m + 1)])
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


def test_folded_mode_weights_are_finite_or_raise():
    # the basis folds the leading coefficient lambda_j of each monic row,
    # about (N/4)^j / j!, into its mode weights: finite at N = 1e8 up to
    # m = 30, and at N = 1e105 for m = 4, where no recurrence coefficient
    # may overflow on the way; T matches the long-double recurrence
    for N, m in ((1e8, 30), (1e105, 4)):
        config = SteinTestConfig(N=N, m=m)
        assert np.all(np.isfinite(config.basis.weights))
        x = _null_matrix(N, 60, 8, 26)
        ref = reference_coefficients(x, config)
        t_ref = (ref * ref).sum(axis=0)
        assert np.all(np.abs(batch_statistic(x, config) - t_ref) <= 1e-12 * t_ref)
    # sigma_30 is finite up to N = 1.4e22, but weight 30 overflows from
    # about 9e21: no config, so no test and no non-finite T
    assert np.isfinite(JacobiBasis.build((1.2e22 - 3.0) / 2.0, 29).weights).all()
    with pytest.raises(DomainError, match=r"^mode weight 30 at alpha=.* exceeds the float range$"):
        SteinTestConfig(N=1.2e22, m=30)


@pytest.mark.parametrize("standardized", [False, True], ids=["raw", "standardised"])
@pytest.mark.parametrize("N", [3.5, 5.0, 20.0, 1e4, 1e8])
def test_mode_coefficients_match_symmetric_recurrence(N, standardized):
    # the half-length recurrence in w = 2y^2, for both parities, against the
    # symmetric one in y, in long double; a recurrence stepped in
    # z = 2y^2 - 1 loses log10(alpha) digits and fails here from N = 1e4 on
    x = _null_matrix(N, 60, 8, 407)
    if standardized:
        x = standardize(x)
    for modes in (tuple(range(1, 31)), even_modes(30), (1, 3, 29), (2, 5), (1, 4)):
        config = SteinTestConfig(N=N, m=max(4, *modes), modes=modes)
        mu = _mode_coefficients(x, config, Workspace())
        ref = reference_coefficients(x, config)
        assert np.all(np.abs(mu - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), modes
        t_ref = (ref * ref).sum(axis=0)
        assert np.all(np.abs(batch_statistic(x, config) - t_ref) <= 1e-12 * t_ref), modes


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
    assert single[4] == pytest.approx(jacobi_psi(basis, 4, x / math.sqrt(5.0)), rel=1e-13)

    # one sample only: a matrix or an empty sample is refused, on both paths of run_test
    for bad in (np.zeros((2, 3)), []):
        with pytest.raises(DomainError, match="coefficients expects a nonempty 1-D sample"):
            coefficients(bad, config4)
    matrix = _null_matrix(5.0, 50, 3, 407)
    for standardize_first in (False, True):
        with pytest.raises(DomainError, match="coefficients expects a nonempty 1-D sample"):
            run_test(matrix, config4, standardize_first=standardize_first)


def test_statistic_is_sum_of_squares():
    config = SteinTestConfig(N=5, m=10)
    law = FiniteNLaw(5)
    x = law.sample(400, 11)
    coefs = coefficients(x, config)
    t = run_test(x, config, standardize_first=False).statistic
    assert t >= 0.0
    assert t == pytest.approx(sum(v * v for v in coefs.values()), abs=1e-12)


def test_statistic_permutation_invariant():
    config = SteinTestConfig(N=5, m=10)
    law = FiniteNLaw(5)
    x = law.sample(999, 13)
    t = batch_statistic(x[None, :], config)[0]
    rng = np.random.default_rng(14)
    for _ in range(3):
        shuffled = rng.permutation(x)[None, :]
        assert batch_statistic(shuffled, config)[0] == pytest.approx(t, rel=1e-10)


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
        assert batch[j] == run_test(x[j], config, standardize_first=False).statistic
    batch_std = batch_statistic(standardize(x), config)
    for j in range(x.shape[0]):
        assert batch_std[j] == run_test(x[j], config).statistic


def test_batch_statistic_rejects_non_finite_rows():
    config = SteinTestConfig(N=7, m=8)
    for bad in (math.nan, math.inf):
        x = _null_matrix(7.0, 20, 5, 406)
        x[2, 3] = bad
        with pytest.raises(DomainError, match="sample values must be finite"):
            batch_statistic(x, config)
    with pytest.raises(DomainError, match=r"samples must be a \(reps, n\) matrix"):
        batch_statistic(_null_matrix(7.0, 20, 1, 406)[0], config)


def test_running_statistics_rows_are_each_m_bit_for_bit():
    # one recurrence up to m = 10 gives T of every smaller m exactly
    x = _null_matrix(7.0, 40, 30, 405)
    running = _running_statistics(x, SteinTestConfig(N=7, m=10), Workspace())
    assert running.shape == (4, 30)
    for row, m in enumerate((4, 6, 8, 10)):
        assert np.array_equal(running[row], batch_statistic(x, SteinTestConfig(N=7, m=m)))
    assert np.array_equal(running[1],
                          _running_statistics(x, SteinTestConfig(N=7, m=7), Workspace())[-1])


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
    payload = dataclasses.asdict(report)
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
    low = run_test(x, SteinTestConfig(N=5, m=4), cutoff=1e-6)
    assert low.reject  # any positive statistic exceeds a tiny cutoff
    high = run_test(x, SteinTestConfig(N=5, m=4), cutoff=1e6)
    assert not high.reject
    assert low.statistic == high.statistic
    with pytest.raises(ConfigError):
        run_test(x, SteinTestConfig(N=5, m=4), cutoff=-1.0)


def test_run_test_standardize_toggle():
    law = FiniteNLaw(5)
    x = law.sample(300, 66)
    config = SteinTestConfig(N=5, m=4)
    raw = run_test(x, config, standardize_first=False)
    aligned = run_test(x, config, standardize_first=True)
    assert raw.statistic != aligned.statistic  # alignment changes the projection
    assert raw.statistic == batch_statistic(x[None, :], config)[0]


@pytest.mark.parametrize("values, m, standardize_first", [
    ([0.1, -0.4, 1e160, 0.7, -1.1], 6, False),
    ([0.1, -1e40, 1e40, 0.7, -1.1], 10, False),
    ([0.1, -1e40, 1e40, 0.7, -1.1], 4, False),
], ids=["nan-T", "infinite-T", "infinite-T-one-dof"])
def test_run_test_refuses_a_sample_that_overflows(values, m, standardize_first):
    # a RuntimeWarning is an error under this suite's settings, so these
    # calls also show that no warning escapes
    with pytest.raises(DomainError, match="too large"):
        run_test(values, SteinTestConfig(N=5, m=m), standardize_first=standardize_first)


@pytest.mark.parametrize("values, m, coefficient_overflows", [
    ([0.1, -0.4, 1e160, 0.7, -1.1], 6, True),
    ([0.1, -1e40, 1e40, 0.7, -1.1], 10, True),
    ([0.1, -1e40, 1e40, 0.7, -1.1], 4, False),
], ids=["nan-T", "infinite-T", "infinite-T-one-dof"])
def test_coefficients_and_batch_statistic_refuse_a_sample_that_overflows(
        values, m, coefficient_overflows):
    # as above, no RuntimeWarning may escape either call
    config = SteinTestConfig(N=5, m=m)
    if coefficient_overflows:
        with pytest.raises(DomainError, match="a mode coefficient is not finite"):
            coefficients(values, config)
    else:  # mu_4 is about 1e160; only its square overflows
        assert all(math.isfinite(mu) for mu in coefficients(values, config).values())
    good = FiniteNLaw(5).sample(len(values), 3)
    with pytest.raises(DomainError, match="T is not finite"):
        batch_statistic(np.array([good, values]), config)


def test_standardised_test_is_invariant_under_powers_of_two():
    # standardize scales each sample by the power of two at its largest
    # magnitude first, so x and x * 2^k give the same bits wherever x * 2^k
    # stays normal
    rng = np.random.default_rng(21)
    config = SteinTestConfig(N=5, m=8)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=rng.integers(2, 60)) * 2.0 ** rng.integers(-40, 40)
        want = run_test(x, config)
        lowest = math.frexp(np.abs(x[x != 0.0]).min())[1]
        highest = math.frexp(np.abs(x).max())[1]
        for k in rng.integers(-1021 - lowest, 1024 - highest, size=5):
            assert run_test(np.ldexp(x, k), config) == want


@pytest.mark.parametrize("values, scale", [
    ([1e-200, 2e-200, 3e-200, -1e-200, 5e-200], 1e-200),
    ([1e-160, 2e-160, 3e-160, -1e-160, 5e-160], 1e-160),
    ([0.1, -0.4, 1e200, 0.7, -1.1], 1e200),
    ([1e308, 1.5e308, 0.3], 1e308),
], ids=["tiny", "subnormal-squares", "huge", "huge-pair"])
def test_standardised_test_answers_every_finite_scale(values, scale):
    # unscaled, the first exits as constant, the second loses digits to
    # subnormal squares, and the last two overflow: each now gets the T
    # of its copy divided by scale
    config = SteinTestConfig(N=5, m=6)
    got = run_test(values, config)
    want = run_test([v / scale for v in values], config)
    assert got.statistic == pytest.approx(want.statistic, rel=1e-13)
    assert got.coefficients == pytest.approx(want.coefficients, rel=1e-13, abs=1e-13)


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


# run_test(1.9 * _PIN_SAMPLE, SteinTestConfig(N=N, m=m), standardize_first)
# for m = 4, 10, 30 as JSON floats: (T, p) per m, then every mu_k of m = 30
# (those of m = 4 and 10 are its first one and four)
_PIN_SAMPLE = (np.arange(1, 200) * 61 % 199) / 199.0 * 1.8 - 0.9
PINNED_RUN_TEST = {
    (5.0, True): (
        ((14.189735243227263, 0.00016526963216558584), (20.406653862725943, 0.0004150480963088802),
         (25.646394609488148, 0.028697147267254558)),
        (3.7669264982512285, 1.0495259317728383, -1.8585954748330618, -1.2888121658973815,
         0.8743360731064151, 1.2590637980149235, -0.23154907369739777, -1.084428159760007,
         -0.20341379449217192, 0.8265812927372739, 0.4757695036329769, -0.5310852298001644,
         -0.6096115029368453, 0.2361948171315104),
    ),
    (5.0, False): (
        ((14.641001030196824, 0.00013005411530523384), (20.35298069953072, 0.0004253161201021923),
         (25.915623917341495, 0.026533501417621005)),
        (3.8263561034222655, 0.7416914136897307, -2.0206740310312834, -1.0386288925832012,
         1.1241895170976075, 1.0985325569474558, -0.5383540061725627, -1.0346407686948518,
         0.12064916873127755, 0.8940512537323578, 0.17694226680170097, -0.7066737644931315,
         -0.3753135413602562, 0.49630667618866764),
    ),
    (20.0, True): (
        ((16.191679058633245, 5.724501543638813e-05), (30.264684211711376, 4.323194236193134e-06),
         (45.18714884082415, 3.8036340855118165e-05)),
        (4.023888549479626, -3.344620548306697, 0.7531194836849119, 1.5229345305090818,
         -2.2718531419777173, 1.4670388264079581, 0.0664422344298776, -1.2888547022573063,
         1.544676484662738, -0.8431649894361741, -0.26341961958060023, 1.0738271785006162,
         -1.1531365529878301, 0.542413810092757),
    ),
    (20.0, False): (
        ((14.936295111504887, 0.00011120288956991031), (29.29433574602961, 6.811637993905439e-06),
         (44.32217583199138, 5.252102683842525e-05)),
        (3.8647503297761534, -3.4157945095135216, 0.9781176388433642, 1.3166906956022304,
         -2.2272099460513792, 1.6094883860939453, -0.16500778115891718, -1.1201221362099683,
         1.5459250898188444, -1.0118305064398085, -0.03472950027267466, 0.9281894690510523,
         -1.1803580802778415, 0.724809992972246),
    ),
    (1e4, True): (
        ((11.950758463699698, 0.0005462513920793333), (32.68214347788582, 1.3875180780580205e-06),
         (43.68039086359497, 6.664132454519744e-05)),
        (3.45698690534108, -3.6057970447003678, 2.527344079656599, -1.1585096415830822,
         -0.06056114144408743, 0.9488088705940324, -1.4662242265373417, 1.6471462969676878,
         -1.5605965281321061, 1.2865309324302425, -0.9020297017738379, 0.4738544734902604,
         -0.05509975022758473, -0.3155662588378795),
    ),
    (1e4, False): (
        ((10.749778735805302, 0.0010429178748052191), (31.982304356036153, 1.929095284297171e-06),
         (42.65791849763178, 9.715461884000266e-05)),
        (3.2786855195040134, -3.565836060996297, 2.607139906362081, -1.3115488229507835,
         0.11649990257320192, 0.7881836164463849, -1.3495419492202274, 1.58872725489961,
         -1.5633667027669125, 1.3446928311510156, -1.0039233875615083, 0.6046136420194205,
         -0.19889654270219267, -0.1737723266763419),
    ),
}


@pytest.mark.parametrize("N, standardize", sorted(PINNED_RUN_TEST))
def test_run_test_output_is_pinned(N, standardize):
    per_m, mus = PINNED_RUN_TEST[N, standardize]
    for m, (t, p) in zip((4, 10, 30), per_m):
        config = SteinTestConfig(N=N, m=m)
        report = run_test(1.9 * _PIN_SAMPLE, config, standardize_first=standardize)
        payload = json.loads(json.dumps(dataclasses.asdict(report)))
        assert (payload["statistic"], payload["p_value"]) == (t, p)
        assert payload["coefficients"] == {str(k): v for k, v in zip(config.modes, mus)}
