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
The operator only justifies the basis and gives the norms sigma_k that
``finiten sigma-table`` prints: the statistic needs only the recurrence.

The statistic steps no symmetric recurrence: by Szegő 4.1.5 (DLMF
18.7.13-14), P_k^(a,a)(y) is a constant times
y^(k%2) P_{k//2}^(a, k%2 - 1/2)(2y^2 - 1), so half as many steps of the
general recurrence in w = 2y^2 give every mode of one parity. The
recurrence steps the monic rows Q_j in w, in four array passes a step,
and its couplings e_j give the mode weights too: in x = sqrt(N) y, where
the law has unit variance, x^(k%2) Q_j has squared norm e_1 ... e_j
(Gautschi, Orthogonal Polynomials, 2004, §1.3), so psi_k is
-x^(k%2) Q_j / sqrt(e_1 ... e_j), j = k // 2. Rows and weights come
from one recurrence; a weight past the float range raises DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_int, check_real

__all__ = [
    "jacobi_rows",
    "JacobiBasis",
]


def _monic_steps(alpha: float, beta: float, count: int):
    """Yield the shift d_k / c1_k and the coupling e_k = c2_k / (c1_k c1_{k-1})
    of the monic rows for k = 0 .. count - 1, count >= 1.

    These are the coefficients of DLMF 18.9.2 in w, with A = alpha + beta
    and s = 2k + A:

        P_{k+1} = (c1_k w - d_k) P_k - c2_k P_{k-1},

    c1 = (s+1)(s+2)s, c2 = 2(k+alpha)(k+beta)(s+2) and the closed form
    d = (s+1)(4k^2 + 4k(A+1) + 2A(1+beta)), each over 2(k+1)(k+A+1)s. The
    s of c1 cancels, so no product of three terms of size N overflows
    before sigma_4 does (N ~ 1e154). Step 0 is P_1 = (A + 2) w / 2 - beta -
    1, whose s may be 0, so it is written out; its coupling is unused.
    In z = w - 1, the constant would be c1 less a term of the same size
    alpha, which loses log10(alpha) digits where w ~ 1/N. For alpha > 0 and
    A > -1/2.
    """
    A = alpha + beta
    c1 = 0.5 * (A + 2.0)
    yield (beta + 1.0) / c1, 0.0
    for k in range(1, count):
        s = 2.0 * k + A
        c1, last = (s + 1.0) * (s + 2.0) / (2.0 * (k + 1) * (k + A + 1.0)), c1
        shift = (4.0 * k * k + 4.0 * k * (A + 1.0) + 2.0 * A * (1.0 + beta)) / ((s + 2.0) * s)
        c2 = (k + alpha) * (k + beta) * (s + 2.0) / ((k + 1) * (k + A + 1.0) * s)
        yield shift, c2 / (c1 * last)


def jacobi_rows(alpha: float, beta: float, k_max: int, w: np.ndarray, buffers):
    """Yield the monic Q_0 .. Q_{k_max} of P^(alpha,beta) at z = w - 1, in float64.

    Q_k = P_k / lambda_k, where lambda_k = c1_0 ... c1_{k-1} is the leading
    coefficient of P_k in w (see :func:`_monic_steps`). Dividing the three-term
    recurrence by lambda_{k+1} gives

        Q_{k+1} = (w - d_k / c1_k) Q_k - c2_k / (c1_k c1_{k-1}) Q_{k-1},

    four array passes a step: subtract, multiply, scale the row before last
    in place, subtract. The coupling e_k is ||Q_k||^2 / ||Q_{k-1}||^2, so the
    same steps give the basis its mode weights.

    Q_0 is yielded as the scalar 1.0, so step 1's scaled Q_0 is a scalar.
    Rows 1 .. k_max are written into ``buffers``, three arrays shaped like
    w, taken in turn. Each step scales the row before last in place, so a
    yielded row is valid only until the next one is yielded; read it
    before asking for the next.
    """
    yield 1.0
    if k_max < 1:
        return
    cur, row, spare = buffers
    steps = _monic_steps(alpha, beta, k_max)
    np.subtract(w, next(steps)[0], out=cur)
    yield cur
    prev = 1.0
    for k, (shift, coupling) in enumerate(steps, 1):
        np.subtract(w, shift, out=row)
        row *= cur
        prev *= coupling
        row -= prev
        # the next row goes where Q_{k-1} was; after step 1, whose Q_0 is
        # the scalar, into the third buffer
        prev, cur, row = cur, row, spare if k == 1 else prev
        yield cur


def _norms(a: float, m: int):
    """Yield sigma_k for k = 1 .. m at alpha = a > 0.

    sigma_k, the norm of the k-th operator image, is the finite product

        sigma_k = 2k sqrt((2a+1)/(2k+2a+1)) * prod_{i<=k} (a+i)/sqrt(i(2a+i))

    to which the duplication formula (DLMF 5.5.5) reduces its Gamma
    closed form: positive and strictly increasing in k for every a > 0.
    DomainError when it exceeds the float range.
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
    """Orthonormal test-function family psi_1 .. psi_max_order at alpha = FiniteNLaw(N).alpha.

    psi_k(y) = -(2k / sigma_k) P_k^(a,a)(y); under the rescaled law these
    have zero mean, unit variance, and vanishing cross-correlations.
    ``sigmas`` holds the norms sigma_k. ``weights`` holds the inverse
    norms, negated, in x = sqrt(N) y: psi_k = weights[k-1] x^(k%2) Q_j(2y^2),
    j = k // 2, for the monic rows Q_j of :func:`jacobi_rows`, with
    weights[k-1] = -1/sqrt(e_1 ... e_j) from the couplings e_i of the
    same recurrence. It raises DomainError where a weight leaves the float
    range.
    """

    alpha: float
    max_order: int
    sigmas: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, alpha: float, max_order: int) -> "JacobiBasis":
        a = check_real(alpha, "alpha")
        if a <= 0.0:
            raise DomainError(f"alpha must be a finite real > 0, got {a!r}")
        m = check_int(max_order, "max_order", 1)
        sigmas = np.fromiter(_norms(a, m), float, m)
        weights = np.empty(m + 1)  # weights[0], of the constant Q_0, is dropped
        for odd in (0, 1):
            weight = -1.0
            for j, (_, coupling) in enumerate(_monic_steps(a, odd - 0.5, (m - odd) // 2 + 1)):
                if j:  # a coupling that underflows to 0 leaves the range too
                    weight = weight / math.sqrt(coupling) if coupling else -math.inf
                weights[2 * j + odd] = weight
        for k, weight in enumerate(weights[1:].tolist(), 1):
            if not math.isfinite(weight):
                raise DomainError(f"mode weight {k} at alpha={a!r} exceeds the float range")
        return cls(alpha=a, max_order=m, sigmas=sigmas, weights=weights[1:])
