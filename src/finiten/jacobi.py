"""Jacobi polynomials and the orthonormal test functions psi_k.

The law in :mod:`finiten.distribution`, rescaled to y = x / sqrt(N), has
the normalised weight w_a(y) proportional to (1 - y^2)^a on [-1, 1], with
a = (N - 3) / 2. The polynomials P_k^(a,a) are orthogonal under that
weight.

The first-order operator

    (A f)(x) = (1 - x^2/N) f'(x) - ((N - 1)/N) x f(x)

has zero expectation under the law for smooth f. Its rescaled form on
[-1, 1] maps the shifted polynomial g_k = P_{k-1}^(a+1,a+1) onto
-2k * P_k^(a,a), which makes the images mutually orthogonal with norms
sigma_k, finite products of square roots. Dividing by sigma_k yields
the orthonormal functions psi_k used by the goodness-of-fit statistic.
The operator only justifies the basis: the statistic needs the
recurrence and the norms.

The statistic steps no symmetric recurrence: by Szegő 4.1.5 (DLMF
18.7.13-14), P_k^(a,a)(y) = c_k y^(k%2) P_{k//2}^(a, k%2 - 1/2)(2y^2 - 1),
so half as many steps of the general recurrence in w = 2y^2 give every
mode of one parity, with c_k folded into the basis's mode weights.
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


def jacobi_rows(alpha: float, beta: float, k_max: int, w: np.ndarray, buffers=None):
    """Yield P_0 .. P_{k_max} of P^(alpha,beta) at z = w - 1, in float64.

    The recurrence DLMF 18.9.2 in w, with A = alpha + beta and s = 2k + A:

        P_{k+1} = (c1 w - d) P_k - c2 P_{k-1},   P_1 = (A + 2) w / 2 - beta - 1,

    with c1 = (s+1)(s+2)s, c2 = 2(k+alpha)(k+beta)(s+2) and the closed form
    d = (s+1)(4k^2 + 4k(A+1) + 2A(1+beta)), each over 2(k+1)(k+A+1)s. In z,
    the constant is c1 less a term of the same size alpha, which loses
    log10(alpha) digits where w ~ 1/N. For alpha > 0 and A > -1/2.

    P_0 is yielded as the scalar 1.0, so step 1's c2 P_0 is the scalar c2.
    Rows 1 .. k_max are written into three arrays shaped like w, taken in
    turn: ``buffers``, or new ones. Each step scales the row before last by
    c2 in place, so a yielded row is valid only until the next one is
    yielded; read it before asking for the next.
    """
    A = alpha + beta
    yield 1.0
    if k_max < 1:
        return
    if buffers is None:
        buffers = [np.empty_like(w) for _ in range(3)]
    cur, row, spare = buffers
    np.multiply(w, 0.5 * (A + 2.0), out=cur)
    cur -= beta + 1.0
    yield cur
    prev = 1.0
    for k in range(1, k_max):
        s = 2.0 * k + A
        den = 2.0 * (k + 1) * (k + A + 1.0) * s
        np.multiply(w, (s + 1.0) * (s + 2.0) * s / den, out=row)
        row -= (s + 1.0) * (4.0 * k * k + 4.0 * k * (A + 1.0) + 2.0 * A * (1.0 + beta)) / den
        row *= cur
        prev *= 2.0 * (k + alpha) * (k + beta) * (s + 2.0) / den
        row -= prev
        # the next row goes where P_{k-1} was; after step 1, whose P_0 is
        # the scalar, into the third buffer
        prev, cur, row = cur, row, spare if k == 1 else prev
        yield cur


def _norms(a: float, m: int):
    """Yield (sigma_k, v_k) for k = 1 .. m at alpha = a > 0.

    sigma_k, the norm of the k-th operator image, is the finite product

        sigma_k = 2k sqrt((2a+1)/(2k+2a+1)) * prod_{i<=k} (a+i)/sqrt(i(2a+i))

    to which the duplication formula (DLMF 5.5.5) reduces its Gamma
    closed form: positive and strictly increasing in k for every a > 0.
    DomainError when it exceeds the float range. The mode weight v_k gives
    psi_k(y) = v_k y^(k%2) P_j^(a, k%2 - 1/2)(2y^2 - 1), j = k // 2: it is
    -(2k / sigma_k) ((a+1)_k / k!) / ((a+1)_j / j!), matching both sides at
    y = 1. The factors a + i cancel, which leaves a running product of size
    about (2a)^(k%2) and one square root per mode:

        v_k^2 = (2k+2a+1)/(2a+1) * prod_{i<=k} (2a+i)/i * prod_{i<=j} (i/(a+i))^2
    """
    product, square = 1.0, 1.0
    for k in range(1, m + 1):
        product *= (a + k) / math.sqrt(k * (2.0 * a + k))
        sigma = 2.0 * k * math.sqrt((2.0 * a + 1.0) / (2.0 * k + 2.0 * a + 1.0)) * product
        if math.isinf(sigma):
            raise DomainError(f"sigma_{k} at alpha={a!r} exceeds the float range")
        square *= (2.0 * a + k) / k
        if k % 2 == 0:
            square *= ((k // 2) / (a + k // 2)) ** 2
        yield sigma, -math.sqrt((2.0 * k + 2.0 * a + 1.0) / (2.0 * a + 1.0) * square)


@dataclass(frozen=True, eq=False)
class JacobiBasis:
    """Orthonormal test-function family psi_1 .. psi_max_order.

    psi_k(y) = -(2k / sigma_k) P_k^(a,a)(y); under the rescaled law these
    have zero mean, unit variance, and vanishing cross-correlations. The
    norms sigma_k and the mode weights v_k each come from one product.
    """

    alpha: float
    max_order: int
    sigmas: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, alpha: float, max_order: int) -> "JacobiBasis":
        a = float(alpha)
        if not math.isfinite(a) or a <= 0.0:
            raise DomainError(f"alpha must be a finite real > 0, got {a!r}")
        m = check_int(max_order, "max_order", 1)
        sigmas, weights = map(np.array, zip(*_norms(a, m)))
        return cls(alpha=a, max_order=m, sigmas=sigmas, weights=weights)

    @classmethod
    def for_system(cls, N: float, max_order: int) -> "JacobiBasis":
        """Basis matching the law with effective particle number N."""
        return cls.build((check_N(N) - 3.0) / 2.0, max_order)
