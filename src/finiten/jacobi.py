"""Symmetric Jacobi polynomials and the orthonormal test functions psi_k.

The law in :mod:`finiten.distribution`, rescaled to y = x / sqrt(N), has
the normalised weight w_a(y) proportional to (1 - y^2)^a on [-1, 1], with
a = (N - 3) / 2. The polynomials P_k^(a,a) orthogonal under that weight
are generated here by their three-term recurrence.

The first-order operator

    (A f)(x) = (1 - x^2/N) f'(x) - ((N - 1)/N) x f(x)

has zero expectation under the law for smooth f. Its rescaled form on
[-1, 1] maps the shifted polynomial g_k = P_{k-1}^(a+1,a+1) onto
-2k * P_k^(a,a), which makes the images mutually orthogonal with norms
sigma_k, finite products of square roots. Dividing by sigma_k yields
the orthonormal functions psi_k used by the goodness-of-fit statistic.
The operator only justifies the basis: the statistic needs the
recurrence and sigma_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_finite, check_int, check_N

__all__ = [
    "jacobi_rows",
    "jacobi_eval_all",
    "sigma_k",
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


def _norms(a: float, m: int):
    """Yield sigma_1 .. sigma_m at alpha = a > 0 (see :func:`sigma_k`)."""
    product = 1.0
    for k in range(1, m + 1):
        product *= (a + k) / math.sqrt(k * (2.0 * a + k))
        sigma = 2.0 * k * math.sqrt((2.0 * a + 1.0) / (2.0 * k + 2.0 * a + 1.0)) * product
        if math.isinf(sigma):
            raise DomainError(f"sigma_{k} at alpha={a!r} exceeds the float range")
        yield sigma


def sigma_k(alpha: float, k: int) -> float:
    """Norm of the k-th operator image, as the finite product

        sigma_k = 2k sqrt((2a+1)/(2k+2a+1)) * prod_{j<=k} (a+j)/sqrt(j(2a+j))

    to which the duplication formula (DLMF 5.5.5) reduces its Gamma
    closed form. It is positive and strictly increasing in k for every
    a > 0. DomainError when sigma_k exceeds the float range.
    """
    for sigma in _norms(_validate_alpha(alpha, 0.0), check_int(k, "k", 1)):
        pass
    return sigma


@dataclass(frozen=True, eq=False)
class JacobiBasis:
    """Orthonormal test-function family psi_1 .. psi_max_order.

    psi_k(y) = -(2k / sigma_k) P_k^(a,a)(y); under the rescaled law these
    have zero mean, unit variance, and vanishing cross-correlations. The
    norms sigma_1 .. sigma_max_order come from one pass of the product.
    """

    alpha: float
    max_order: int
    sigmas: np.ndarray

    @classmethod
    def build(cls, alpha: float, max_order: int) -> "JacobiBasis":
        a = _validate_alpha(alpha, 0.0)
        m = check_int(max_order, "max_order", 1)
        return cls(alpha=a, max_order=m, sigmas=np.array(list(_norms(a, m))))

    @classmethod
    def for_system(cls, N: float, max_order: int) -> "JacobiBasis":
        """Basis matching the law with effective particle number N."""
        return cls.build((check_N(N) - 3.0) / 2.0, max_order)

    def psi(self, k: int, y):
        """Orthonormal function psi_k at y (scalar or array)."""
        k = check_int(k, "mode", 1)
        if k > self.max_order:
            raise DomainError(f"mode {k} outside the constructed range 1..{self.max_order}")
        poly = jacobi_eval_all(self.alpha, k, y)[k]
        out = -(2.0 * k / self.sigmas[k - 1]) * poly
        if np.ndim(y) == 0:
            return float(out)
        return out.astype(float)
