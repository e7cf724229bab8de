"""Symmetric Jacobi polynomial engine and the characterising operator.

The law in :mod:`finiten.distribution`, rescaled to y = x / sqrt(N), has
the normalised weight w_a(y) on [-1, 1] with a = (N - 3) / 2. The
polynomials P_k^(a,a) orthogonal under that weight are generated here by
their three-term recurrence; derivatives come from the shift identity
d/dy P_k^(a,a) = ((k + 2a + 1) / 2) * P_{k-1}^(a+1,a+1), never from
finite differencing.

The first-order operator

    (A f)(x) = (1 - x^2/N) f'(x) - ((N - 1)/N) x f(x)

has zero expectation under the law for smooth f. Its rescaled form on
[-1, 1] maps the shifted polynomial g_k = P_{k-1}^(a+1,a+1) onto
-2k * P_k^(a,a), which makes the images mutually orthogonal with
closed-form norms sigma_k. Dividing by sigma_k yields the orthonormal
functions psi_k used by the goodness-of-fit statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError, DomainError, check_finite, check_int, check_N

__all__ = [
    "jacobi_rows",
    "jacobi_eval_all",
    "jacobi_deriv",
    "jacobi_weight",
    "sigma_k",
    "stein_apply_rescaled",
    "stein_apply_unrescaled",
    "JacobiBasis",
]


def _validate_alpha(alpha: float, lower: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= lower:
        raise DomainError(f"alpha must be a finite real > {lower}, got {alpha!r}")
    return alpha


def jacobi_rows(alpha: float, k_max: int, y: np.ndarray):
    """Yield P_0 .. P_{k_max} of the symmetric family at y, in the dtype of y.

    Three-term recurrence with P_0 = 1 and P_1 = (alpha + 1) y:

        (k+1)(k+2a+1) P_{k+1} = (2k+2a+1)(k+a+1) y P_k - (k+a)(k+a+1) P_{k-1}

    alpha is cast to the dtype of y and only two rows are held at a time.
    """
    a = y.dtype.type(alpha)
    p_prev = np.ones_like(y)
    yield p_prev
    if k_max < 1:
        return
    p_cur = (a + 1.0) * y
    yield p_cur
    for k in range(1, k_max):
        p_prev, p_cur = p_cur, (
            (2 * k + 2 * a + 1) * (k + a + 1) * y * p_cur
            - (k + a) * (k + a + 1) * p_prev
        ) / ((k + 1) * (k + 2 * a + 1))
        yield p_cur


def _last_row(alpha: float, k: int, y: np.ndarray) -> np.ndarray:
    for row in jacobi_rows(alpha, k, y):
        pass
    return row


def _deriv_extended(a: float, k: int, ya: np.ndarray) -> np.ndarray:
    if k == 0:
        return np.zeros(ya.shape, dtype=np.longdouble)
    return 0.5 * (k + 2.0 * np.longdouble(a) + 1.0) * _last_row(a + 1.0, k - 1, ya)


def jacobi_eval_all(alpha: float, k_max: int, y):
    """Evaluate P_0 .. P_{k_max} of the symmetric family at y.

    Runs the recurrence of :func:`jacobi_rows` in extended precision. y
    may be a scalar or array; evaluation outside [-1, 1] is permitted
    since the polynomials are globally defined. Returns an array of shape
    (k_max + 1,) + shape(y) in extended precision (cast down if you need
    compact storage); endpoint magnitudes grow like binom(k + a, k), so
    float64 alone cannot resolve the operator identities checked against
    these values.
    """
    a = _validate_alpha(alpha, -1.0)
    k_max = check_int(k_max, "k_max", 0)
    ya = check_finite(y, "evaluation points").astype(np.longdouble)
    return np.stack(list(jacobi_rows(a, k_max, ya)))


def jacobi_deriv(alpha: float, k: int, y):
    """Derivative of P_k^(a,a) at y via the parameter-shift identity."""
    a = _validate_alpha(alpha, -1.0)
    k = check_int(k, "k", 0)
    ya = check_finite(y, "evaluation points").astype(np.longdouble)
    out = _deriv_extended(a, k, ya)
    if np.ndim(y) == 0:
        return float(out)
    return out


def jacobi_weight(alpha: float, y):
    """Normalised orthogonality weight (1 - y^2)^alpha on [-1, 1].

    Integrates to one; zero outside the interval.
    """
    a = _validate_alpha(alpha, -1.0)
    yarr = np.asarray(y, dtype=float)
    log_const = gammaln(a + 1.5) - 0.5 * math.log(math.pi) - gammaln(a + 1.0)
    inside = 1.0 - yarr * yarr
    with np.errstate(invalid="ignore"):
        out = np.where(inside > 0.0, math.exp(log_const) * np.abs(inside) ** a, 0.0)
    if np.ndim(y) == 0:
        return float(out)
    return out


def sigma_k(alpha: float, k: int) -> float:
    """Norm of the k-th operator image, from the closed form

        sigma_k^2 = 4 k^2 * G(a+3/2)/(sqrt(pi) G(a+1))
                    * 2^(2a+1)/(2k+2a+1) * G(k+a+1)^2 / (k! G(k+2a+1))

    evaluated in log space so large a and k cannot overflow before the
    final exponential. DomainError when sigma_k itself exceeds the float
    range.
    """
    a = _validate_alpha(alpha, 0.0)
    k = check_int(k, "k", 1)
    log_sq = (
        math.log(4.0)
        + 2.0 * math.log(k)
        + gammaln(a + 1.5)
        - 0.5 * math.log(math.pi)
        - gammaln(a + 1.0)
        + (2.0 * a + 1.0) * math.log(2.0)
        - math.log(2.0 * k + 2.0 * a + 1.0)
        + 2.0 * gammaln(k + a + 1.0)
        - gammaln(k + 1.0)
        - gammaln(k + 2.0 * a + 1.0)
    )
    try:
        return math.exp(0.5 * log_sq)
    except OverflowError:
        raise DomainError(
            f"sigma_{k} at alpha={a!r} exceeds the float range (log sigma = {0.5 * log_sq:.6g})"
        ) from None


def stein_apply_rescaled(alpha: float, k: int, y):
    """Apply the rescaled operator to the k-th shifted test polynomial.

    Computes (1 - y^2) g_k'(y) - 2 (alpha + 1) y g_k(y) with
    g_k = P_{k-1} at parameter alpha + 1; algebraically this equals
    -2k * P_k^(a,a)(y). Extended precision, like :func:`jacobi_eval_all`.
    """
    a = _validate_alpha(alpha, 0.0)
    k = check_int(k, "k", 1)
    ya = check_finite(y, "evaluation points").astype(np.longdouble)
    g = _last_row(a + 1.0, k - 1, ya)
    g_prime = _deriv_extended(a + 1.0, k - 1, ya)
    out = (1.0 - ya * ya) * g_prime - 2.0 * (np.longdouble(a) + 1.0) * ya * g
    if np.ndim(y) == 0:
        return float(out)
    return out


def stein_apply_unrescaled(law, f_value, f_deriv, x):
    """Apply the characterising operator in original units.

    Returns (1 - x^2/N) f'(x) - ((N-1)/N) x f(x) from caller-supplied
    values of f and f' at x; |x| must not exceed the support bound.
    """
    xarr = check_finite(x, "evaluation points")
    if np.any(np.abs(xarr) > law.support_bound):
        raise DomainError("operator is defined only on |x| <= sqrt(N)")
    N = law.N
    out = (1.0 - xarr * xarr / N) * np.asarray(f_deriv, dtype=float) - (
        (N - 1.0) / N
    ) * xarr * np.asarray(f_value, dtype=float)
    if np.ndim(x) == 0 and np.ndim(out) == 0:
        return float(out)
    return out


@dataclass(frozen=True, eq=False)
class JacobiBasis:
    """Orthonormal test-function family psi_1 .. psi_max_order.

    psi_k(y) = -(2k / sigma_k) P_k^(a,a)(y); under the rescaled law these
    have zero mean, unit variance, and vanishing cross-correlations. The
    norms sigma_1 .. sigma_max_order are precomputed once per (alpha, m)
    pair and checked to be positive and strictly increasing.
    """

    alpha: float
    max_order: int
    sigmas: np.ndarray

    @classmethod
    def build(cls, alpha: float, max_order: int) -> "JacobiBasis":
        a = _validate_alpha(alpha, 0.0)
        m = check_int(max_order, "max_order", 1)
        sig = np.array([sigma_k(a, k) for k in range(1, m + 1)])
        if not np.all(np.isfinite(sig)) or np.any(sig <= 0.0):
            raise ConfigError("sigma sequence is not finite and positive")
        if np.any(np.diff(sig) <= 0.0):
            raise ConfigError("sigma sequence is not strictly increasing")
        return cls(alpha=a, max_order=m, sigmas=sig)

    @classmethod
    def for_system(cls, N: float, max_order: int) -> "JacobiBasis":
        """Basis matching the law with effective particle number N."""
        return cls.build((check_N(N) - 3.0) / 2.0, max_order)

    def sigma(self, k: int) -> float:
        return float(self.sigmas[self._check_order(k) - 1])

    def psi(self, k: int, y):
        """Orthonormal function psi_k at y (scalar or array)."""
        k = self._check_order(k)
        poly = jacobi_eval_all(self.alpha, k, y)[k]
        out = -(2.0 * k / self.sigmas[k - 1]) * poly
        if np.ndim(y) == 0:
            return float(out)
        return out.astype(float)

    def _check_order(self, k: int) -> int:
        k = check_int(k, "mode", 1)
        if k > self.max_order:
            raise DomainError(f"mode {k} outside the constructed range 1..{self.max_order}")
        return k
