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
    batch_statistic,
    coefficients,
    even_modes,
    run_test,
    running_statistics,
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
        ((14.189735243227267, 0.00016526963216558584), (20.406653862725936, 0.0004150480963088817),
         (25.64639460948814, 0.028697147267254617)),
        (3.766926498251229, 1.0495259317728365, -1.8585954748330609, -1.28881216589738,
         0.8743360731064131, 1.2590637980149249, -0.23154907369739924, -1.084428159760006,
         -0.20341379449217145, 0.8265812927372733, 0.47576950363297654, -0.5310852298001629,
         -0.6096115029368475, 0.23619481713151352),
    ),
    (5.0, False): (
        ((14.641001030196826, 0.00013005411530523384), (20.35298069953071, 0.0004253161201021938),
         (25.915623917341485, 0.026533501417621102)),
        (3.826356103422266, 0.7416914136897286, -2.0206740310312825, -1.0386288925832003,
         1.1241895170976057, 1.098532556947457, -0.538354006172564, -1.0346407686948522,
         0.12064916873128019, 0.8940512537323542, 0.1769422668017046, -0.7066737644931346,
         -0.37531354136025286, 0.4963066761886642),
    ),
    (20.0, True): (
        ((16.191679058633245, 5.724501543638813e-05), (30.264684211711373, 4.3231942361931415e-06),
         (45.18714884082415, 3.8036340855118165e-05)),
        (4.023888549479626, -3.344620548306696, 0.7531194836849107, 1.5229345305090827,
         -2.2718531419777177, 1.4670388264079584, 0.06644223442987775, -1.2888547022573067,
         1.5446764846627392, -0.8431649894361753, -0.2634196195805989, 1.0738271785006144,
         -1.1531365529878284, 0.5424138100927557),
    ),
    (20.0, False): (
        ((14.93629511150489, 0.00011120288956991003), (29.294335746029606, 6.81163799390545e-06),
         (44.3221758319914, 5.252102683842487e-05)),
        (3.864750329776154, -3.4157945095135203, 0.9781176388433626, 1.316690695602233,
         -2.227209946051381, 1.6094883860939468, -0.16500778115891745, -1.1201221362099696,
         1.5459250898188466, -1.0118305064398112, -0.03472950027267227, 0.9281894690510502,
         -1.180358080277839, 0.7248099929722439),
    ),
    (1e4, True): (
        ((11.950758463699698, 0.0005462513920793333), (32.68214347788581, 1.3875180780580304e-06),
         (43.680390863594944, 6.664132454519816e-05)),
        (3.45698690534108, -3.6057970447003678, 2.527344079656597, -1.158509641583081,
         -0.06056114144408827, 0.9488088705940328, -1.466224226537342, 1.647146296967688,
         -1.5605965281321055, 1.286530932430241, -0.9020297017738358, 0.47385447349025767,
         -0.05509975022758166, -0.3155662588378829),
    ),
    (1e4, False): (
        ((10.749778735805297, 0.0010429178748052213), (31.982304356036124, 1.9290952842971986e-06),
         (42.65791849763172, 9.715461884000478e-05)),
        (3.2786855195040125, -3.565836060996296, 2.607139906362079, -1.3115488229507812,
         0.11649990257320027, 0.7881836164463858, -1.3495419492202274, 1.5887272548996088,
         -1.5633667027669103, 1.3446928311510127, -1.0039233875615052, 0.6046136420194169,
         -0.1988965427021891, -0.17377232667634537),
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
