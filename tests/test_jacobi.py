import math

import numpy as np
import pytest
from scipy import integrate, special

from finiten import FiniteNLaw, SteinTestConfig
from finiten.errors import ConfigError, DomainError
from finiten.jacobi import JacobiBasis, jacobi_rows
from operator_reference import (
    jacobi_deriv,
    jacobi_eval_all,
    jacobi_psi,
    stein_apply_rescaled,
    stein_apply_unrescaled,
)


def sigma_k(alpha, k):
    """The k-th operator-image norm, as the basis builds it."""
    return JacobiBasis.build(alpha, k).sigmas[k - 1]


# Reference normalisation constants for N=5 (alpha=1), orders 1..10.
SIGMA_TABLE_N5 = [
    1.7889, 3.2071, 4.3818, 5.3936, 6.2897,
    7.0993, 7.8416, 8.5298, 9.1736, 9.7802,
]

# sigma_k at k = 1, 2, 10, 30 from the Gamma closed form in 60-digit mpmath
SIGMA_MPMATH = {
    3.5: (1.3363062095621219, 2.1452908258025827, 5.4707402146544284, 9.722308250903093),
    4.001: (1.5003124726606438, 2.5007083315979456, 6.7302031070184636, 12.116015537385595),
    5.0: (1.7888543819998318, 3.2071349029490926, 9.7801929384365152, 18.224786888818677),
    20.0: (4.2485291572496004, 13.799703554128189, 303.5175049676581, 1791.2594166873038),
    1e2: (9.9, 70.359685147942831, 176129.81867813097, 601090555.03684473),
    1e4: (99.99, 7070.7142849821071, 1031202876520978.7, 3.6508747770345018e+36),
    1e6: (999.999, 707106.4276334221, 1.0253532076060074e+25, 3.4331413556873715e+66),
    1e8: (9999.9999, 70710677.765101364, 1.025294841413975e+35, 3.4310262952438479e+96),
}

GRID = np.linspace(-1.0, 1.0, 1001)


def jacobi_weight(alpha, y):
    # the normalised weight (1 - y^2)^alpha is the law of y = x / sqrt(N)
    # at N = 2 alpha + 3
    law = FiniteNLaw(2.0 * alpha + 3.0)
    return law.support_bound * law.density(law.support_bound * y)


def test_recurrence_first_orders():
    assert jacobi_eval_all(0.7, 0, 0.3).tolist() == [1.0]
    values = jacobi_eval_all(1.0, 1, 0.5)
    assert values[1] == pytest.approx(1.0, abs=0)  # (alpha+1) * y
    # one recurrence step: P_2 at alpha=1 is (15 y^2 - 3)/4, so P_2(1) = 3
    assert jacobi_eval_all(1.0, 2, 1.0)[2] == pytest.approx(3.0, abs=1e-14)
    y = np.linspace(-1, 1, 11)
    p2 = jacobi_eval_all(1.0, 2, y)[2]
    assert np.allclose(p2, (15.0 * y * y - 3.0) / 4.0, atol=1e-14)


def test_recurrence_against_scipy():
    rng = np.random.default_rng(5)
    y = rng.uniform(-1.2, 1.2, size=50)  # includes points outside [-1, 1]
    for alpha in (0.5, 1.0, 3.5, 8.5):
        values = jacobi_eval_all(alpha, 12, y)
        for k in range(13):
            ref = special.eval_jacobi(k, alpha, alpha, y)
            assert np.max(np.abs(values[k] - ref)) < 1e-10 * np.max(np.abs(ref) + 1.0)


def test_endpoint_identity():
    # P_k(1) = binom(k + alpha, k) for the symmetric family
    for alpha in (1.0, 3.5):
        values = jacobi_eval_all(alpha, 8, 1.0)
        for k in range(9):
            ref = special.binom(k + alpha, k)
            assert values[k] == pytest.approx(ref, rel=1e-13)


def test_parity():
    y = np.linspace(0.0, 1.0, 20)
    values_pos = jacobi_eval_all(2.5, 9, y)
    values_neg = jacobi_eval_all(2.5, 9, -y)
    for k in range(10):
        sign = (-1.0) ** k
        assert np.allclose(values_neg[k], sign * values_pos[k], atol=1e-13)


@pytest.mark.parametrize("N", [3.5, 4.001, 5.0, 20.0, 1e4, 1e8])
def test_jacobi_rows_match_the_symmetric_recurrence(N):
    # P_k^(a,a)(y) = c_k y^(k%2) P_{k//2}^(a, k%2 - 1/2)(2y^2 - 1) (Szego
    # 4.1.5): divided by its value at y = 1 (w = 2), each row of the
    # recurrence in w is the long-double symmetric row divided by its own
    a = (N - 3.0) / 2.0
    y = np.linspace(-4.0, 4.0, 81) / math.sqrt(N)  # where draws of the law lie
    ref = jacobi_eval_all(a, 30, np.append(y, 1.0))
    ref = (ref[:, :-1] / ref[:, -1:]).astype(float)
    for odd in (0, 1):
        at_one = [float(np.asarray(row).item())
                  for row in jacobi_rows(a, odd - 0.5, 15 - odd, np.array([2.0]))]
        w = 2.0 * y * y
        buffers = [np.empty_like(w) for _ in range(3)]
        for j, row in enumerate(jacobi_rows(a, odd - 0.5, 15 - odd, w, buffers)):
            if j == 0:
                assert row == 1.0 and isinstance(row, float)  # P_0 is the scalar
            else:
                assert any(row is buffer for buffer in buffers)
            want = ref[2 * j + odd]
            got = y**odd * row / at_one[j]
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max()), (odd, j)


def test_jacobi_rows_reuse_three_buffers_without_changing_a_row():
    # rows written into given buffers are the bits of rows in new arrays,
    # and a tile shorter than the buffers' last use still reads right
    rng = np.random.default_rng(3)
    for beta in (-0.5, 0.5):
        buffers = [np.full(200, np.nan) for _ in range(3)]
        for size in (200, 57):
            w = 2.0 * rng.random(size) / 20.0
            fresh = [np.array(row, copy=True) for row in jacobi_rows(8.5, beta, 12, w)]
            views = [buffer[:size] for buffer in buffers]
            reused = [np.array(row, copy=True) for row in jacobi_rows(8.5, beta, 12, w, views)]
            assert len(reused) == 13
            for a, b in zip(fresh, reused):
                assert np.array_equal(a, b)


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        jacobi_eval_all(-1.0, 3, 0.5)
    with pytest.raises(ConfigError):
        jacobi_eval_all(1.0, -1, 0.5)
    with pytest.raises(DomainError):
        jacobi_eval_all(1.0, 3, math.nan)


def test_deriv_linear_and_zero_order():
    y = np.linspace(-1, 1, 9)
    assert np.allclose(jacobi_deriv(2.0, 1, y), 3.0, atol=0)  # slope alpha+1
    assert np.all(jacobi_deriv(2.0, 0, y) == 0.0)


def test_deriv_matches_finite_differences():
    h = 1e-5
    for alpha in (1.0, 3.5):
        for k in (2, 5, 9):
            for y in (-0.7, 0.0, 0.5, 0.97):
                up = jacobi_eval_all(alpha, k, y + h)[k]
                down = jacobi_eval_all(alpha, k, y - h)[k]
                fd = (up - down) / (2.0 * h)
                assert jacobi_deriv(alpha, k, y) == pytest.approx(fd, abs=1e-7 * max(1.0, abs(fd)))


def test_deriv_parity():
    y = np.linspace(0.1, 1.0, 10)
    for k in (2, 4, 6):  # derivative of an even polynomial is odd
        assert np.allclose(
            jacobi_deriv(1.5, k, -y), -jacobi_deriv(1.5, k, y), atol=1e-12
        )


def test_sigma_reference_values():
    for k, expected in enumerate(SIGMA_TABLE_N5, start=1):
        assert sigma_k(1.0, k) == pytest.approx(expected, abs=5e-5)
    assert sigma_k(1.0, 1) == pytest.approx(math.sqrt(3.2), rel=1e-14)


@pytest.mark.parametrize("N", sorted(SIGMA_MPMATH))
def test_sigma_matches_mpmath(N):
    for k, expected in zip((1, 2, 10, 30), SIGMA_MPMATH[N]):
        assert sigma_k((N - 3.0) / 2.0, k) == pytest.approx(expected, rel=1e-13)


def test_sigma_matches_quadrature():
    # definition route: sigma_k^2 = 4 k^2 * integral of P_k^2 against the weight
    for alpha in (1.0, 3.5, 8.5):
        for k in (1, 2, 5, 10):
            value, _ = integrate.quad(
                lambda y: jacobi_eval_all(alpha, k, y)[k] ** 2 * jacobi_weight(alpha, y),
                -1.0,
                1.0,
                limit=300,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert sigma_k(alpha, k) == pytest.approx(
                2.0 * k * math.sqrt(value), rel=1e-10
            )


def test_sigma_no_overflow():
    value = sigma_k(500.0, 200)
    assert math.isfinite(value) and value > 0.0


def test_sigma_domain():
    with pytest.raises(DomainError):
        sigma_k(0.0, 1)
    with pytest.raises(ConfigError):
        sigma_k(1.0, 0)


def test_sigma_past_float_range_raises_domain_error():
    # the running product overflows to inf, which raises
    with pytest.raises(DomainError, match="exceeds the float range"):
        sigma_k((1e15 - 3.0) / 2.0, 100)
    with pytest.raises(DomainError, match="exceeds the float range"):
        SteinTestConfig(N=1e8, m=300)
    assert math.isfinite(sigma_k((1e8 - 3.0) / 2.0, 30))


def test_basis_construction():
    basis = JacobiBasis.for_system(5.0, 10)
    assert basis.alpha == 1.0
    assert basis.max_order == 10
    assert np.all(np.diff(basis.sigmas) > 0)
    for k in range(1, 11):
        assert basis.sigmas[k - 1] == pytest.approx(sigma_k(1.0, k), rel=0)
    # large systems and orders stay finite and ordered
    big = JacobiBasis.for_system(500.0, 20)
    assert np.all(np.diff(big.sigmas) > 0)
    for alpha in np.geomspace(1e-6, 5e7, 41):
        sweep = JacobiBasis.build(alpha, 30)
        assert sweep.sigmas[0] > 0 and np.all(np.diff(sweep.sigmas) > 0)
    with pytest.raises(DomainError):
        jacobi_psi(basis, 11, 0.0)
    with pytest.raises(ConfigError):
        jacobi_psi(basis, 0, 0.0)


def test_psi_odd_mode_vanishes_at_origin():
    for alpha in (1.0, 4.0):
        basis = JacobiBasis.build(alpha, 5)
        assert jacobi_psi(basis, 1, 0.0) == 0.0
        assert jacobi_psi(basis, 3, 0.0) == 0.0


def test_psi_orthonormal_by_quadrature():
    for alpha in (1.0, 3.5, 8.5):
        basis = JacobiBasis.build(alpha, 10)
        for k in range(1, 11):
            value, _ = integrate.quad(
                lambda y: jacobi_psi(basis, k, y) ** 2 * jacobi_weight(alpha, y),
                -1.0,
                1.0,
                limit=300,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert value == pytest.approx(1.0, abs=1e-10)
    basis = JacobiBasis.build(1.0, 10)
    cross, _ = integrate.quad(
        lambda y: jacobi_psi(basis, 4, y) * jacobi_psi(basis, 6, y) * jacobi_weight(1.0, y),
        -1.0,
        1.0,
        limit=300,
        epsabs=1e-13,
    )
    assert abs(cross) <= 1e-10


def test_operator_eigen_relation():
    # the rescaled operator maps the shifted basis onto -2k P_k
    for N in (5.0, 10.0, 20.0):
        alpha = (N - 3.0) / 2.0
        for k in range(1, 11):
            image = stein_apply_rescaled(alpha, k, GRID)
            target = -2.0 * k * jacobi_eval_all(alpha, k, GRID)[k]
            assert np.max(np.abs(image - target)) <= 1e-10


def test_operator_eigen_relation_points():
    assert stein_apply_rescaled(1.0, 1, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert stein_apply_rescaled(1.0, 2, 1.0) == pytest.approx(-12.0, abs=1e-12)


def test_jacobi_ode_residual():
    # second derivative by applying the shift identity twice
    for N in (5.0, 10.0, 20.0):
        alpha = (N - 3.0) / 2.0
        for k in range(1, 11):
            p = jacobi_eval_all(alpha, k, GRID)[k]
            dp = jacobi_deriv(alpha, k, GRID)
            if k >= 2:
                ddp = (
                    0.25
                    * (k + 2 * alpha + 1)
                    * (k + 2 * alpha + 2)
                    * jacobi_eval_all(alpha + 2.0, k - 2, GRID)[k - 2]
                )
            else:
                ddp = np.zeros_like(GRID)
            residual = (1 - GRID**2) * ddp - 2 * (alpha + 1) * GRID * dp + k * (
                k + 2 * alpha + 1
            ) * p
            scale = np.max(np.abs(k * (k + 2 * alpha + 1) * p))
            assert np.max(np.abs(residual)) <= 1e-9 * scale


def test_unrescaled_operator_values():
    law = FiniteNLaw(5)
    x = np.linspace(-2.2, 2.2, 9)
    # constant test function: only the drift term survives
    assert np.allclose(
        stein_apply_unrescaled(law, np.ones_like(x), np.zeros_like(x), x),
        -(4.0 / 5.0) * x,
        atol=1e-14,
    )
    assert stein_apply_unrescaled(law, 0.0, 1.0, 0.0) == pytest.approx(1.0, abs=0)
    with pytest.raises(DomainError):
        stein_apply_unrescaled(law, 1.0, 0.0, 3.0)


def test_unrescaled_operator_zero_mean():
    # characterising property: E[(A f)(X)] = 0 under the law, f = x^3
    law = FiniteNLaw(5)
    x = law.sample(1_000_000, 77)
    values = stein_apply_unrescaled(law, x**3, 3.0 * x**2, x)
    se = values.std(ddof=1) / math.sqrt(x.size)
    assert abs(values.mean()) < 4.0 * se


def test_psi_zero_mean_under_law():
    law = FiniteNLaw(5)
    basis = JacobiBasis.for_system(5.0, 10)
    y = law.sample(200_000, 4242) / law.support_bound
    for k in range(1, 11):
        values = jacobi_psi(basis, k, y)
        se = values.std(ddof=1) / math.sqrt(y.size)
        assert abs(values.mean()) < 4.0 * se


def test_psi_empirical_gram_is_identity():
    # all ten modes: uncorrelated with unit variance under the null
    law = FiniteNLaw(5)
    basis = JacobiBasis.for_system(5.0, 10)
    y = law.sample(200_000, 31337) / law.support_bound
    psi = np.vstack([jacobi_psi(basis, k, y) for k in range(1, 11)])
    gram = (psi @ psi.T) / y.size
    assert np.max(np.abs(gram - np.eye(10))) <= 0.02
