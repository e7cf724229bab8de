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
    u = law.cdf(np.sort(x, axis=-1))
    i = np.arange(1, n + 1, dtype=float)

    ks = np.maximum(i / n - u, u - (i - 1.0) / n).max(axis=-1)
    cvm = 1.0 / (12.0 * n) + ((u - (2.0 * i - 1.0) / (2.0 * n)) ** 2).sum(axis=-1)

    uc = np.clip(u, _LOG_CLAMP, 1.0 - _LOG_CLAMP)
    ad = -n - ((2.0 * i - 1.0) * (np.log(uc) + np.log(1.0 - uc[..., ::-1]))).sum(axis=-1) / n
    return ks, cvm, ad
