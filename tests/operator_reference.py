"""Reference implementations that the tests check finiten against.

Not collected by pytest. The characterising operator and the derivative
identity justify the basis psi_k, but the statistic never evaluates
them, so they live here, on top of the symmetric recurrence in y
(:func:`symmetric_rows`) in extended precision (:func:`jacobi_eval_all`):

- derivatives come from the shift identity
  d/dy P_k^(a,a) = ((k + 2a + 1) / 2) * P_{k-1}^(a+1,a+1), never from
  finite differencing;
- the rescaled operator applied to g_k = P_{k-1}^(a+1,a+1) must equal
  -2k * P_k^(a,a).

:func:`jacobi_psi` evaluates psi_k of a built basis pointwise from
those values and the basis's sigma_k. The orthonormal three-term
recurrence gives psi_k with no sigma_k, so it checks the norms as well
as the recurrence behind the coefficients. The statistic steps another
recurrence, in w = 2y^2, so the symmetric one in long double is an
independent oracle for its coefficients (:func:`reference_coefficients`).

The Gamma/digamma bracket of the per-observation log likelihood ratio is
an independent closed form that must equal -KL.
"""

import math

import numpy as np
from scipy import special

from finiten.errors import DomainError, check_finite, check_int


def symmetric_rows(alpha: float, k_max: int, y: np.ndarray):
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


def jacobi_eval_all(alpha: float, k_max: int, y):
    """Evaluate P_0 .. P_{k_max} of the symmetric family at y.

    Runs :func:`symmetric_rows` in extended precision. y may be a scalar
    or array; evaluation outside [-1, 1] is permitted since the
    polynomials are globally defined. Returns an array of shape
    (k_max + 1,) + shape(y) in extended precision; endpoint magnitudes
    grow like binom(k + a, k), so float64 alone cannot resolve the
    operator identities checked against these values.
    """
    a = float(alpha)
    if not math.isfinite(a) or a <= -1.0:
        raise DomainError(f"alpha must be a finite real > -1, got {a!r}")
    k_max = check_int(k_max, "k_max", 0)
    ya = check_finite(y, "evaluation points").astype(np.longdouble)
    return np.stack(list(symmetric_rows(a, k_max, ya)))


def jacobi_psi(basis, k: int, y):
    """Orthonormal function psi_k of a built JacobiBasis at y (scalar or array)."""
    k = check_int(k, "mode", 1)
    if k > basis.max_order:
        raise DomainError(f"mode {k} outside the constructed range 1..{basis.max_order}")
    poly = jacobi_eval_all(basis.alpha, k, y)[k]
    out = -(2.0 * k / basis.sigmas[k - 1]) * poly
    if np.ndim(y) == 0:
        return float(out)
    return out.astype(float)


def reference_coefficients(x, config) -> np.ndarray:
    """mu_k of every row of a (reps, n) matrix, as a (dof, reps) long-double
    matrix in mode order, from :func:`symmetric_rows` and the basis's
    sigma_k: mu_k = n^(-1/2) sum_i -(2k / sigma_k) P_k^(a,a)(x_i / sqrt(N))."""
    xa = check_finite(x, "sample values").astype(np.longdouble)
    ya = xa / np.sqrt(np.longdouble(config.N))
    rows = list(symmetric_rows(config.basis.alpha, max(config.modes), ya))
    sigmas = config.basis.sigmas.astype(np.longdouble)
    root_n = np.sqrt(np.longdouble(xa.shape[1]))
    return np.stack([-(2 * k / sigmas[k - 1]) * rows[k].sum(axis=-1) / root_n
                     for k in config.modes])


def _last_row(alpha: float, k: int, y: np.ndarray) -> np.ndarray:
    for row in symmetric_rows(alpha, k, y):
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
