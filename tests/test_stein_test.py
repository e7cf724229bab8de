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
    batch_statistic,
    coefficients,
    even_modes,
    run_test,
    running_statistics,
    standardize,
)
from operator_reference import jacobi_psi, orthonormal_psi


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
        ((14.189735243227267, 0.00016526963216558584), (20.406653862725932, 0.0004150480963088821),
         (25.646394609488127, 0.02869714726725475)),
        (3.766926498251229, 1.049525931772835, -1.8585954748330615, -1.2888121658973792,
         0.8743360731064151, 1.259063798014921, -0.23154907369739827, -1.0844281597600065,
         -0.2034137944921696, 0.826581292737272, 0.4757695036329766, -0.5310852298001637,
         -0.6096115029368471, 0.2361948171315134),
    ),
    (5.0, False): (
        ((14.641001030196836, 0.0001300541153052332), (20.352980699530722, 0.00042531612010219194),
         (25.91562391734149, 0.02653350141762103)),
        (3.8263561034222673, 0.7416914136897277, -2.020674031031284, -1.0386288925831988,
         1.1241895170976077, 1.0985325569474538, -0.5383540061725635, -1.0346407686948524,
         0.12064916873128258, 0.8940512537323527, 0.17694226680170264, -0.7066737644931326,
         -0.37531354136025447, 0.4963066761886664),
    ),
    (20.0, True): (
        ((16.191679058633223, 5.724501543638874e-05), (30.264684211711348, 4.323194236193188e-06),
         (45.18714884082412, 3.803634085511858e-05)),
        (4.023888549479623, -3.344620548306697, 0.753119483684914, 1.5229345305090782,
         -2.271853141977715, 1.4670388264079575, 0.06644223442987741, -1.2888547022573065,
         1.5446764846627392, -0.8431649894361765, -0.2634196195805972, 1.0738271785006137,
         -1.153136552987829, 0.5424138100927575),
    ),
    (20.0, False): (
        ((14.936295111504869, 0.00011120288956991118), (29.29433574602958, 6.811637993905535e-06),
         (44.32217583199136, 5.252102683842572e-05)),
        (3.864750329776151, -3.4157945095135203, 0.9781176388433656, 1.3166906956022288,
         -2.227209946051378, 1.6094883860939455, -0.16500778115891723, -1.1201221362099694,
         1.545925089818846, -1.011830506439811, -0.034729500272671916, 0.9281894690510502,
         -1.1803580802778404, 0.7248099929722449),
    ),
    (1e4, True): (
        ((11.950758463699698, 0.0005462513920793333), (32.68214347788583, 1.3875180780580154e-06),
         (43.68039086359498, 6.664132454519732e-05)),
        (3.45698690534108, -3.6057970447003695, 2.527344079656598, -1.1585096415830805,
         -0.060561141444087765, 0.9488088705940322, -1.4662242265373409, 1.6471462969676878,
         -1.560596528132106, 1.2865309324302419, -0.902029701773837, 0.4738544734902599,
         -0.05509975022758412, -0.31556625883788),
    ),
    (1e4, False): (
        ((10.7497787358053, 0.0010429178748052191), (31.98230435603614, 1.929095284297185e-06),
         (42.65791849763174, 9.715461884000409e-05)),
        (3.278685519504013, -3.565836060996297, 2.607139906362079, -1.311548822950782,
         0.11649990257320157, 0.7881836164463845, -1.349541949220226, 1.5887272548996083,
         -1.5633667027669107, 1.344692831151014, -1.0039233875615066, 0.604613642019419,
         -0.19889654270219181, -0.17377232667634238),
    ),
}


@pytest.mark.parametrize("N, standardize", sorted(PINNED_RUN_TEST))
def test_run_test_output_is_pinned(N, standardize):
    per_m, mus = PINNED_RUN_TEST[N, standardize]
    for m, (t, p) in zip((4, 10, 30), per_m):
        config = SteinTestConfig(N=N, m=m)
        report = run_test(1.9 * _PIN_SAMPLE, config, standardize_first=standardize)
        payload = json.loads(json.dumps(report.to_dict()))
        assert (payload["statistic"], payload["p_value"]) == (t, p)
        assert payload["coefficients"] == {str(k): v for k, v in zip(config.modes, mus)}
