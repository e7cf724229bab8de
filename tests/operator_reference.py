"""Reference implementations that the tests check finiten against.

Not collected by pytest. The characterising operator and the derivative
identity justify the basis psi_k, but the statistic never evaluates
them, so they live here, on top of :func:`finiten.jacobi.jacobi_rows`
in extended precision like :func:`finiten.jacobi.jacobi_eval_all`:

- derivatives come from the shift identity
  d/dy P_k^(a,a) = ((k + 2a + 1) / 2) * P_{k-1}^(a+1,a+1), never from
  finite differencing;
- the rescaled operator applied to g_k = P_{k-1}^(a+1,a+1) must equal
  -2k * P_k^(a,a).

The orthonormal three-term recurrence gives psi_k with no sigma_k, so it
checks the norms as well as the recurrence behind the coefficients.

The Gamma/digamma bracket of the per-observation log likelihood ratio is
an independent closed form that must equal -KL.
"""

import math

import numpy as np
from scipy import special

from finiten.errors import DomainError
from finiten.jacobi import jacobi_rows


def _last_row(alpha: float, k: int, y: np.ndarray) -> np.ndarray:
    for row in jacobi_rows(alpha, k, y):
        pass
    return row


def _deriv_extended(a: float, k: int, ya: np.ndarray) -> np.ndarray:
    if k == 0:
        return np.zeros(ya.shape, dtype=np.longdouble)
    return 0.5 * (k + 2.0 * np.longdouble(a) + 1.0) * _last_row(a + 1.0, k - 1, ya)


def jacobi_deriv(alpha: float, k: int, y):
    """Derivative of P_k^(a,a) at y via the parameter-shift identity."""
    ya = np.asarray(y, dtype=float).astype(np.longdouble)
    out = _deriv_extended(float(alpha), k, ya)
    if np.ndim(y) == 0:
        return float(out)
    return out


def stein_apply_rescaled(alpha: float, k: int, y):
    """Apply the rescaled operator to the k-th shifted test polynomial.

    Computes (1 - y^2) g_k'(y) - 2 (alpha + 1) y g_k(y) with
    g_k = P_{k-1} at parameter alpha + 1; algebraically this equals
    -2k * P_k^(a,a)(y).
    """
    a = float(alpha)
    ya = np.asarray(y, dtype=float).astype(np.longdouble)
    g = _last_row(a + 1.0, k - 1, ya)
    g_prime = _deriv_extended(a + 1.0, k - 1, ya)
    out = (1.0 - ya * ya) * g_prime - 2.0 * (np.longdouble(a) + 1.0) * ya * g
    if np.ndim(y) == 0:
        return float(out)
    return out


def orthonormal_psi(alpha: float, k_max: int, y) -> np.ndarray:
    """psi_1 .. psi_{k_max} at y, shape (k_max,) + shape(y), in long double.

    With b_k = sqrt(k(k+2a) / ((2k+2a-1)(2k+2a+1))), the polynomials
    orthonormal under the normalised weight satisfy
    p_{k+1} = (y p_k - b_k p_{k-1}) / b_{k+1}, p_0 = 1, p_1 = y / b_1, and
    psi_k = -p_k.
    """
    a = np.longdouble(alpha)
    ya = np.asarray(y, dtype=float).astype(np.longdouble)

    def b(k):
        return np.sqrt(k * (k + 2 * a) / ((2 * k + 2 * a - 1) * (2 * k + 2 * a + 1)))

    rows = [np.ones_like(ya), ya / b(1)]
    for k in range(1, k_max):
        rows.append((ya * rows[k] - b(k) * rows[k - 1]) / b(k + 1))
    return -np.stack(rows[1:k_max + 1])


def stein_apply_unrescaled(law, f_value, f_deriv, x):
    """Apply the characterising operator in original units.

    Returns (1 - x^2/N) f'(x) - ((N-1)/N) x f(x) from caller-supplied
    values of f and f' at x; |x| must not exceed the support bound.
    """
    xarr = np.asarray(x, dtype=float)
    if np.any(np.abs(xarr) > law.support_bound):
        raise DomainError("operator is defined only on |x| <= sqrt(N)")
    N = law.N
    out = (1.0 - xarr * xarr / N) * np.asarray(f_deriv, dtype=float) - (
        (N - 1.0) / N
    ) * xarr * np.asarray(f_value, dtype=float)
    if np.ndim(x) == 0 and np.ndim(out) == 0:
        return float(out)
    return out


def log_typical_ratio_per_obs(law) -> float:
    """Per-observation log of the likelihood ratio in favour of the
    Gaussian on a typical sample, from the explicit Gamma/digamma bracket."""
    half = law.N / 2.0
    dpsi = special.digamma(half - 0.5) - special.digamma(half)
    return float(
        0.5 * math.log(law.N / (2.0 * math.e))
        + special.gammaln(half - 0.5)
        - special.gammaln(half)
        - law.alpha * dpsi
    )
