"""Classical empirical-distribution-function statistics against the law.

Baselines for power comparisons: Kolmogorov-Smirnov, Cramer-von Mises,
and Anderson-Darling, all computed from one sorted pass through the
probability transforms u_i = F(x_(i)). Critical values are expected to
come from Monte Carlo calibration under the null with the same pipeline
as the targeted test (see :mod:`finiten.harness`); no asymptotic EDF
tables are provided.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, check_finite

__all__ = ["batch_edf_statistics"]

# Probability transforms are clamped away from {0, 1} before logs; raw
# support-edge points otherwise send the Anderson-Darling sum to -inf.
_LOG_CLAMP = 1e-15


def batch_edf_statistics(samples, law) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """KS, CvM, and AD statistics for every row of a (reps, n) matrix."""
    x = check_finite(samples, "sample values")
    if x.ndim != 2 or x.shape[1] < 1:
        raise DomainError("batch_edf_statistics expects a (reps, n) matrix")
    n = x.shape[1]
    # The sorted copy becomes the one work buffer once u is formed; every
    # step below writes into it or into u, so no other (reps, n) array is made.
    work = np.sort(x, axis=-1)
    u = law.cdf(work)
    i = np.arange(1, n + 1, dtype=float)

    ks = np.subtract(i / n, u, out=work).max(axis=-1)
    np.maximum(ks, np.subtract(u, (i - 1.0) / n, out=work).max(axis=-1), out=ks)

    np.subtract(u, (2.0 * i - 1.0) / (2.0 * n), out=work)
    cvm = 1.0 / (12.0 * n) + np.square(work, out=work).sum(axis=-1)

    np.clip(u, _LOG_CLAMP, 1.0 - _LOG_CLAMP, out=u)
    np.log(u, out=work)
    np.log(np.subtract(1.0, u, out=u), out=u)
    work += u[..., ::-1]
    work *= 2.0 * i - 1.0
    ad = -n - work.sum(axis=-1) / n
    return ks, cvm, ad
