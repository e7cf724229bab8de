"""Finite-N velocity distribution toolkit.

The exact single-component velocity law of an isolated N-particle system
with fixed total energy, a targeted goodness-of-fit test built from the
operator that characterises it, classical EDF baselines, and a
reproducible Monte Carlo harness for calibration, size, and power.
"""

from .distribution import FiniteNLaw
from .errors import (
    ConfigError,
    DegenerateSampleError,
    DomainError,
    FiniteNError,
)
from .jacobi import JacobiBasis
from .stein_test import (
    SteinTestConfig,
    TestReport,
    batch_statistic,
    coefficients,
    even_modes,
    run_test,
    standardize,
)

__version__ = "0.1.0"

# The Monte Carlo harness's names; it is imported on the first use of one
# (PEP 562), so the analytic core alone loads no harness.
_HARNESS_NAMES = ("GridSpec", "CalibrationEntry", "PowerRow", "CompareRow", "GridResult",
                  "calibrate", "estimate_rejection", "run_grid", "sanov_table",
                  "power_boundary", "compare_edf")

__all__ = [
    "FiniteNLaw",
    "FiniteNError",
    "DomainError",
    "DegenerateSampleError",
    "ConfigError",
    "JacobiBasis",
    "SteinTestConfig",
    "TestReport",
    "even_modes",
    "standardize",
    "coefficients",
    "batch_statistic",
    "run_test",
    *_HARNESS_NAMES,
    "__version__",
]


def __getattr__(name):
    if name in _HARNESS_NAMES:
        from . import harness
        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
