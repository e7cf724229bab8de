import math

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from finiten import FiniteNLaw, sanov_table
from finiten.distribution import _CLOSED_FORM_MAX_N, _TAIL
from finiten.errors import ConfigError, DomainError
from finiten.workspace import Workspace
from operator_reference import log_typical_ratio_per_obs

# mpmath references (40 digits)
LOG_C5 = -1.092401028668831114739598672606921251266
KL_BY_N = {
    4: 0.08106146679532725821967026359438236013861,
    5: 0.04616519898906557920852864004838285807943,
    10: 0.009234706035502712588461247707676121917519,
    20: 0.002076455145119903548210516770361769571427,
    50: 0.0003123467902909301276003623903124820669239,
}
CDF_5_AT_1 = 0.8130495168499705574972843136223786729617
QUANTILE_5_975 = 1.814348579882527653441103051410860718865
# mpmath references (60-digit arithmetic at the float value of N, 25 digits
# kept): N -> (log_norm, KL to the standard normal)
LOG_NORM_AND_KL = {
    3.5: (-1.184875711771056479409706, 0.1153313247028346194216293),
    4.001: (-1.144661759271115420039717, 0.08100895913382850737230215),
    5.0: (-1.092401028668831114739599, 0.04616519898906557920852864),
    20.0: (-0.9577370204174944551510502, 0.002076455145119903548210517),
    1e2: (-0.9264889107198423666273612, 0.00007652146109027843230541076),
    1e4: (-0.9190135382050477667818299, 7.50150021252100108339767e-9),
    1e6: (-0.91893928320517274215533, 7.500015000021250021000011e-13),
    1e8: (-0.9189385407046727917803301, 7.500000150000002125000021e-17),
}


def betainc_cdf(N, x):
    """The incomplete-Beta CDF, computed as FiniteNLaw.cdf does off the
    closed form, centre pinned to 0.5."""
    x = np.asarray(x, dtype=float)
    a = (N - 1.0) / 2.0
    z = np.clip((1.0 + x / math.sqrt(N)) / 2.0, 0.0, 1.0)
    return np.where(x == 0.0, 0.5, special.betainc(a, a, z))


def cdf_points(N):
    bound = math.sqrt(N)
    grid = np.linspace(-1.02 * bound, 1.02 * bound, 2001)
    return np.concatenate([grid, [0.0, -bound, bound, -10.0 * bound, 10.0 * bound]])


def test_law_fields():
    law = FiniteNLaw(5)
    assert law.alpha == 1.0
    assert law.support_bound == pytest.approx(math.sqrt(5.0), rel=0, abs=0)
    assert law.log_norm == pytest.approx(LOG_C5, abs=1e-13)
    assert math.exp(law.log_norm) > 0


def test_law_rejects_small_N():
    for bad in (3.0, 2.9, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            FiniteNLaw(bad)


def test_log_density_values():
    law = FiniteNLaw(5)
    assert law.log_density(math.sqrt(5.0)) == -math.inf
    assert law.log_density(-math.sqrt(5.0)) == -math.inf
    assert law.log_density(3.0) == -math.inf
    assert law.log_density(0.0) == pytest.approx(math.log(0.75 / math.sqrt(5.0)), abs=1e-13)
    with pytest.raises(DomainError):
        law.log_density(math.nan)
    with pytest.raises(DomainError, match="must be finite"):
        law.log_density([0.5, 10**400])  # an integer too large for a float


def test_density_normalization_and_moments():
    for N in (4.0, 5.0, 10.0, 20.0, 100.0):
        law = FiniteNLaw(N)
        bound = law.support_bound
        total, _ = integrate.quad(law.density, -bound, bound, limit=200)
        assert total == pytest.approx(1.0, abs=1e-10)
        second, _ = integrate.quad(lambda x: x * x * law.density(x), -bound, bound, limit=200)
        assert second == pytest.approx(1.0, abs=1e-9)


def test_cdf_values():
    law = FiniteNLaw(5)
    assert law.cdf(0.0) == 0.5
    assert law.cdf(-law.support_bound) == 0.0
    assert law.cdf(law.support_bound) == 1.0
    assert law.cdf(-10.0) == 0.0
    assert law.cdf(10.0) == 1.0
    assert law.cdf(1.0) == pytest.approx(CDF_5_AT_1, abs=1e-8)


def test_cdf_monotone():
    law = FiniteNLaw(7.5)
    grid = np.linspace(-law.support_bound - 1, law.support_bound + 1, 401)
    values = law.cdf(grid)
    assert np.all(np.diff(values) >= 0)


def test_closed_form_cdf_matches_betainc_and_is_symmetric():
    worst_abs = worst_rel = worst_sym = 0.0
    for N in range(4, _CLOSED_FORM_MAX_N + 1):
        x = cdf_points(N)
        got = FiniteNLaw(N).cdf(x)
        want = betainc_cdf(N, x)
        worst_abs = max(worst_abs, np.max(np.abs(got - want)))
        # below the smallest normal float neither method keeps relative
        # precision; test_tail_cdf_matches_mpmath covers subnormal F
        normal = want >= np.finfo(float).tiny
        lower = (x <= 0.0) & normal
        worst_rel = max(worst_rel, np.max(np.abs(got[lower] - want[lower]) / want[lower]))
        # both tails are the series, within 1e-12 of the incomplete Beta function
        tail = ((want < 0.99 * _TAIL) | (want > 1.0 - 0.99 * _TAIL)) & normal
        assert np.all(np.abs(got[tail] - want[tail]) <= 1e-12 * want[tail]), N
        assert np.all((got >= 0.0) & (got <= 1.0)), N
        worst_sym = max(worst_sym, np.max(np.abs(got + FiniteNLaw(N).cdf(-x) - 1.0)))
    assert worst_abs <= 1e-14
    assert worst_rel <= 1e-11
    assert worst_sym <= 1e-14


@pytest.mark.parametrize("N", [4, 5, 20, 21, 64, 65, _CLOSED_FORM_MAX_N - 1, _CLOSED_FORM_MAX_N])
def test_closed_form_cdf_exact_values(N):
    law = FiniteNLaw(N)
    bound = law.support_bound
    assert law.cdf(0.0) == 0.5
    assert law.cdf(-0.0) == 0.5
    assert law.cdf(-bound) == 0.0
    assert law.cdf(bound) == 1.0
    assert law.cdf(-10.0 * bound) == 0.0
    assert law.cdf(10.0 * bound) == 1.0
    values = law.cdf(np.linspace(-bound - 1.0, bound + 1.0, 401))
    assert np.all(np.diff(values) >= 0.0)
    assert values[0] == 0.0 and values[-1] == 1.0


def test_cdf_tails_are_monotone_on_a_fine_grid():
    # the incomplete Beta function fell by an ulp between these points
    law = FiniteNLaw(14)
    assert law.cdf(3.7249396615698354) <= law.cdf(3.7249546281993826)
    for N in (14, 20, 36, _CLOSED_FORM_MAX_N):
        law = FiniteNLaw(N)
        upper = np.linspace(-law.quantile(_TAIL), law.support_bound, 100_001)
        for grid in (upper, -upper[::-1]):
            assert np.all(np.diff(law.cdf(grid)) >= 0.0), N


@pytest.mark.parametrize("N", [5, 20, 20.5, _CLOSED_FORM_MAX_N])
def test_cdf_scalar_and_array_inputs_agree(N):
    law = FiniteNLaw(N)
    x = np.sort(law.sample(6 * 50, 17).reshape(6, 50), axis=-1)
    x[0, :3] = (-10.0, 0.0, law.support_bound)
    matrix = law.cdf(x)
    assert matrix.shape == (6, 50)
    assert np.array_equal(law.cdf(x.ravel()), matrix.ravel())
    for value, expected in zip(x.ravel(), matrix.ravel()):
        scalar = law.cdf(float(value))
        assert type(scalar) is float and scalar == expected
        zero_d = law.cdf(np.array(value))
        assert type(zero_d) is float and zero_d == expected


@pytest.mark.parametrize("N", [4, 5, 14, 20, _CLOSED_FORM_MAX_N])
def test_cdf_does_not_depend_on_the_batch(N):
    # the Monte Carlo harness evaluates one block's points in tiles of any size
    law = FiniteNLaw(N)
    edge, q = law.support_bound, law.quantile(_TAIL)
    rng = np.random.default_rng(N)
    xs = np.concatenate([rng.uniform(-edge, q, 60), rng.uniform(q, -q, 60),
                         rng.uniform(-q, edge, 60)])
    rng.shuffle(xs)
    batch = law.cdf(xs)
    assert np.array_equal(batch, [law.cdf(x) for x in xs])
    for split in (1, xs.size // 2, xs.size - 1):
        assert np.array_equal(batch, np.concatenate([law.cdf(xs[:split]), law.cdf(xs[split:])]))
    for part in (xs < q, xs > -q, (q <= xs) & (xs <= -q)):  # one tail, or the body, alone
        assert np.array_equal(batch[part], law.cdf(xs[part]))


@pytest.mark.parametrize("N", [3.5, 4.001, 20.5, _CLOSED_FORM_MAX_N + 1, 1000])
def test_cdf_off_the_closed_form_is_betainc(N):
    x = cdf_points(N)
    assert np.array_equal(FiniteNLaw(N).cdf(x), betainc_cdf(N, x))


def test_quantile_basics():
    law = FiniteNLaw(5)
    assert law.quantile(0.5) == 0.0
    assert law.quantile(0.975) == pytest.approx(QUANTILE_5_975, abs=1e-9)
    for p in np.arange(0.01, 1.0, 0.01):
        assert law.cdf(law.quantile(p)) == pytest.approx(p, abs=1e-9)
        assert law.quantile(p) == pytest.approx(-law.quantile(1.0 - p), abs=1e-12)
    for bad in (0.0, 1.0, -0.2, math.nan):
        with pytest.raises(DomainError):
            law.quantile(bad)


def test_quantile_against_root_finding():
    # independent route: invert the quadrature-validated CDF numerically
    law = FiniteNLaw(5)
    for p in (0.1, 0.3, 0.8, 0.975):
        root = optimize.brentq(
            lambda x: law.cdf(x) - p, -law.support_bound, law.support_bound, xtol=1e-13
        )
        assert law.quantile(p) == pytest.approx(root, abs=1e-9)


def _bisect_quantile(law, p):
    """The one-point bisection that FiniteNLaw.quantile replicates: one
    scalar cdf call per step, from [-sqrt(N), 0] down to adjacent floats."""
    if p > 0.5:
        return -_bisect_quantile(law, 1.0 - p)
    lo, hi = -law.support_bound, 0.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if law.cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("N", [5, 20, 36, _CLOSED_FORM_MAX_N, 20.5])
def test_quantile_equals_one_point_bisection(N):
    # both tails and the centre, with the tail-series and closed-form routes
    law = FiniteNLaw(N)
    for p in (1e-300, 1e-9, 1e-4, 0.001, 0.02, 0.3, 0.4999999, 0.5 + 1e-12, 0.7, 0.975,
              0.999, 1.0 - 1e-9):
        assert law.quantile(p) == _bisect_quantile(law, p), p


def test_sample_support_and_moments():
    law = FiniteNLaw(5)
    n = 1_000_000
    x = law.sample(n, 123)
    assert x.shape == (n,)
    assert np.max(np.abs(x)) < law.support_bound
    assert abs(x.mean()) < 4.0 / math.sqrt(n)
    assert abs((x * x).mean() - 1.0) < 5.0 * math.sqrt(2.0) / math.sqrt(n)


def test_sample_deterministic_and_validates():
    law = FiniteNLaw(8)
    assert np.array_equal(law.sample(100, 7), law.sample(100, 7))
    with pytest.raises(ConfigError):
        law.sample(0, 1)


def test_sample_matches_quantiles():
    law = FiniteNLaw(6)
    n = 1_000_000
    x = np.sort(law.sample(n, 2024))
    for p in (0.1, 0.25, 0.5, 0.75, 0.9):
        q = law.quantile(p)
        band = 3.0 * math.sqrt(p * (1 - p) / n) / law.density(q)
        assert abs(x[int(p * n)] - q) < band


def even_moment(N, k):
    """E x^(2k) = N^k prod_{i<=k} (2i - 1)/(N + 2i - 2) under the law."""
    return N**k * math.prod((2 * i - 1) / (N + 2 * i - 2) for i in range(1, k + 1))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("N", [3.5, 4, 5, 7, 20, 1e8])
def test_sample_matches_cdf_and_even_moments(N):
    law = FiniteNLaw(N)
    x = law.sample(1_000_000, 11)
    assert np.max(np.abs(x)) <= law.support_bound
    assert stats.kstest(x, law.cdf).pvalue > 1e-3
    for k in (1, 2, 3):
        moment = even_moment(N, k)
        se = math.sqrt((even_moment(N, 2 * k) - moment**2) / x.size)
        assert abs(np.mean(x ** (2 * k)) - moment) < 4.0 * se


def ulrich_radius(N, u):
    """sqrt(1 - U^(2/(N-2))) with U = 1 - u, as the sampler computes it."""
    return np.sqrt(-np.expm1(np.log(1.0 - u) * (2.0 / (N - 2.0))))


def ulrich_reference(N, n, rng):
    """Ulrich's transform on one (n, 2) array of uniforms, with the sampler's
    operations in the sampler's order: sqrt(N) cos(2 pi V) as
    2 sqrt(N) / (1 + tan^2(pi V)) - sqrt(N)."""
    pairs = rng.random((n, 2))
    root = math.sqrt(N)
    angle = 2.0 * root / (1.0 + np.tan(pairs[:, 1] * math.pi) ** 2) - root
    return ulrich_radius(N, pairs[:, 0]) * angle


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [1, 8191, 8192, 8193])
def test_sample_is_a_prefix_of_longer_draws(k):
    law = FiniteNLaw(5)

    def stream():
        return np.random.Generator(np.random.Philox(key=2024))

    longer = law.sample(20_000, stream())
    assert np.array_equal(longer, ulrich_reference(5.0, 20_000, stream()))
    rng = stream()
    assert np.array_equal(law.sample(k, rng), longer[:k])
    # draw i took uniforms 2i and 2i + 1 of the stream, and no others
    assert rng.random() == stream().random(2 * k + 1)[-1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("N", [3.5, 5, 20, 20.5, 1e8])
def test_sample_agrees_with_the_cosine_form(N):
    law = FiniteNLaw(N)

    def stream():
        return np.random.Generator(np.random.SFC64(31))

    x = law.sample(200_000, stream())
    pairs = stream().random((x.size, 2))
    cosine = math.sqrt(N) * ulrich_radius(N, pairs[:, 0]) * np.cos(2.0 * math.pi * pairs[:, 1])
    assert np.max(np.abs(x - cosine)) <= 2e-15 * math.sqrt(N)
    assert np.max(np.abs(x)) <= law.support_bound


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("N", [3.5, 5, 1e8])
def test_sample_angle_at_the_ends_of_its_range(N):
    # pi V reaches fl(pi/2), where tan is 1.6e16 and its square still finite
    v = np.array([0.0, 0.25, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1.0 - 2.0**-53])

    class Stub:
        def random(self, out):
            out[:, 0] = 0.3
            out[:, 1] = v
            return out

    law = FiniteNLaw(N)
    x = np.empty(v.size)
    law._sample_into(x, Stub(), Workspace())
    assert np.all(np.isfinite(x))
    radius = float(ulrich_radius(N, np.array([0.3]))[0])
    assert x[0] == radius * law.support_bound
    assert x[2] == -radius * law.support_bound
    assert abs(x[1]) <= 1e-15 * law.support_bound
    assert np.allclose(x[3:5], -radius * law.support_bound, rtol=1e-15, atol=0.0)
    assert np.isclose(x[5], radius * law.support_bound, rtol=1e-15, atol=0.0)


def test_gaussian_alternative():
    law = FiniteNLaw(5)
    n = 1_000_000
    x = law.sample_gaussian_alternative(n, 99)
    assert abs((x * x).mean() - 1.0) < 0.01
    assert abs((x**4).mean() - 3.0) < 0.05
    # unbounded support: the finite-N cutoff does not apply
    assert np.any(np.abs(x) > law.support_bound)
    assert np.array_equal(x, law.sample_gaussian_alternative(n, 99))


def test_kl_closed_form_values():
    assert FiniteNLaw(5).kl_to_gaussian() == pytest.approx(0.0462, abs=1e-4)
    assert FiniteNLaw(20).kl_to_gaussian() == pytest.approx(0.00208, abs=5e-5)
    for N, expected in KL_BY_N.items():
        assert FiniteNLaw(N).kl_to_gaussian() == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("N", sorted(LOG_NORM_AND_KL))
def test_log_norm_and_kl_match_mpmath(N):
    log_norm, kl = LOG_NORM_AND_KL[N]
    law = FiniteNLaw(N)
    assert law.log_norm == pytest.approx(log_norm, rel=1e-12, abs=0)
    assert law.kl_to_gaussian() == pytest.approx(kl, rel=1e-12, abs=0)


def test_kl_matches_quadrature():
    for N in (4.0, 5.0, 10.0, 20.0, 50.0):
        law = FiniteNLaw(N)

        def integrand(x):
            log_phi = -0.5 * math.log(2.0 * math.pi) - 0.5 * x * x
            return law.density(x) * (law.log_density(x) - log_phi)

        value, _ = integrate.quad(integrand, -law.support_bound, law.support_bound, limit=400)
        assert law.kl_to_gaussian() == pytest.approx(value, abs=1e-8)


def test_kl_decreasing_in_N():
    values = [FiniteNLaw(float(N)).kl_to_gaussian() for N in range(4, 201)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert FiniteNLaw(1000.0).kl_to_gaussian() < 1e-5


def test_typical_likelihood_ratio():
    # the likelihood ratio in favour of the Gaussian on a typical sample of
    # size n is exp(-n * KL)
    value = math.exp(-100 * FiniteNLaw(5).kl_to_gaussian())
    assert value == pytest.approx(math.exp(-4.62), rel=5e-3)
    assert value == pytest.approx(9.9e-3, rel=2e-2)
    # the explicit Gamma/digamma bracket is an independent closed form
    for N in (4.0, 5.0, 12.5, 50.0, 300.0):
        law = FiniteNLaw(N)
        assert log_typical_ratio_per_obs(law) == pytest.approx(
            -law.kl_to_gaussian(), rel=1e-10
        )


def test_sanov_power_proxy():
    assert FiniteNLaw(5).sanov_power_proxy(100) == pytest.approx(0.990, abs=1e-3)
    assert FiniteNLaw(20).sanov_power_proxy(200) == pytest.approx(0.340, abs=1e-3)
    assert FiniteNLaw(5).sanov_power_proxy(0) == 0.0
    law = FiniteNLaw(9)
    values = [law.sanov_power_proxy(n) for n in range(0, 500, 25)]
    assert all(b > a for a, b in zip(values, values[1:]))
    at_n = [FiniteNLaw(float(N)).sanov_power_proxy(100) for N in range(4, 30)]
    assert all(b < a for a, b in zip(at_n, at_n[1:]))


def test_sanov_power_proxy_is_positive_zero_at_n_zero():
    # -0.0 == 0.0, so only the sign tells them apart; the CLI would print -0
    assert not np.signbit(FiniteNLaw(5).sanov_power_proxy(0))
    assert not np.signbit(sanov_table([5.0, 20.0], [0])).any()


def test_gaussian_limit_pointwise():
    law = FiniteNLaw(500)
    grid = np.linspace(-3.0, 3.0, 601)
    phi = np.exp(-0.5 * grid * grid) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(law.density(grid) - phi)) < 0.01


def test_sampler_ks_self_consistency():
    # one-sample KS distance below the 1% critical value
    law = FiniteNLaw(5)
    n = 100_000
    x = np.sort(law.sample(n, 31415))
    u = law.cdf(x)
    i = np.arange(1, n + 1)
    d = max((i / n - u).max(), (u - (i - 1) / n).max())
    assert d < 1.6276 / math.sqrt(n)
