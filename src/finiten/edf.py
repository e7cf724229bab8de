"""Classical empirical-distribution-function statistics against the law.

Baselines for power comparisons: Kolmogorov-Smirnov, Cramer-von Mises,
and Anderson-Darling, all computed from one sorted pass through the
probability transforms u_i = F(x_(i)). Their critical values come only
from :func:`finiten.harness.compare_edf`, which calibrates them under the
null with the same pipeline as the targeted test; no asymptotic EDF
tables are provided.
"""

from __future__ import annotations

import numpy as np

__all__: list[str] = []  # the kernel runs inside harness.compare_edf

# Probability transforms are clamped away from {0, 1} before logs; raw
# support-edge points otherwise send the Anderson-Darling sum to -inf.
_LOG_CLAMP = 1e-15


def _edf_statistics(x: np.ndarray, law, work) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """KS, CvM and AD statistics for every row of a finite (reps, n) matrix,
    unchecked; its scratch is buffers 0 to 3 of ``work``, a :class:`Workspace`."""
    n = x.shape[1]
    # The sorted copy becomes the one work buffer once u (the CDF's buffer 0)
    # is formed; every step below writes into it or into u.
    buf = work(3, x.shape)
    np.copyto(buf, x)
    buf.sort(axis=-1)
    u = law._cdf(buf, work)
    i = np.arange(1, n + 1, dtype=float)

    ks = np.subtract(i / n, u, out=buf).max(axis=-1)
    np.maximum(ks, np.subtract(u, (i - 1.0) / n, out=buf).max(axis=-1), out=ks)

    np.subtract(u, (2.0 * i - 1.0) / (2.0 * n), out=buf)
    cvm = 1.0 / (12.0 * n) + np.square(buf, out=buf).sum(axis=-1)

    np.clip(u, _LOG_CLAMP, 1.0 - _LOG_CLAMP, out=u)
    np.log(u, out=buf)
    np.log(np.subtract(1.0, u, out=u), out=u)
    buf += u[..., ::-1]
    buf *= 2.0 * i - 1.0
    ad = -n - buf.sum(axis=-1) / n
    return ks, cvm, ad
