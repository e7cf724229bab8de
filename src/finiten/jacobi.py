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

from .errors import DomainError, check_int, check_N

__all__ = [
    "jacobi_rows",
    "JacobiBasis",
]


def _validate_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"alpha must be a finite real > 0, got {alpha!r}")
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


def _norms(a: float, m: int):
    """Yield sigma_1 .. sigma_m, the norms of the operator images at
    alpha = a > 0, each as the finite product

        sigma_k = 2k sqrt((2a+1)/(2k+2a+1)) * prod_{j<=k} (a+j)/sqrt(j(2a+j))

    to which the duplication formula (DLMF 5.5.5) reduces its Gamma
    closed form. They are positive and strictly increasing in k for every
    a > 0. DomainError when sigma_k exceeds the float range.
    """
    product = 1.0
    for k in range(1, m + 1):
        product *= (a + k) / math.sqrt(k * (2.0 * a + k))
        sigma = 2.0 * k * math.sqrt((2.0 * a + 1.0) / (2.0 * k + 2.0 * a + 1.0)) * product
        if math.isinf(sigma):
            raise DomainError(f"sigma_{k} at alpha={a!r} exceeds the float range")
        yield sigma


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
        a = _validate_alpha(alpha)
        m = check_int(max_order, "max_order", 1)
        return cls(alpha=a, max_order=m, sigmas=np.array(list(_norms(a, m))))

    @classmethod
    def for_system(cls, N: float, max_order: int) -> "JacobiBasis":
        """Basis matching the law with effective particle number N."""
        return cls.build((check_N(N) - 3.0) / 2.0, max_order)
