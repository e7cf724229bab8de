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
from .harness import (
    CalibrationEntry,
    CompareRow,
    GridResult,
    GridSpec,
    PowerRow,
    calibrate,
    compare_edf,
    estimate_rejection,
    power_boundary,
    run_grid,
    sanov_table,
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
    "GridSpec",
    "CalibrationEntry",
    "PowerRow",
    "CompareRow",
    "GridResult",
    "calibrate",
    "estimate_rejection",
    "run_grid",
    "sanov_table",
    "power_boundary",
    "compare_edf",
    "__version__",
]
