import importlib
import math
import pkgutil

import pytest

import finiten
from finiten import FiniteNLaw, GridSpec, JacobiBasis, SteinTestConfig
from finiten.errors import ConfigError, DomainError

N_ENTRY_POINTS = {
    "FiniteNLaw": FiniteNLaw,
    "JacobiBasis.for_system": lambda N: JacobiBasis.for_system(N, 4),
    "SteinTestConfig": lambda N: SteinTestConfig(N=N),
    "GridSpec": lambda N: GridSpec(N_values=(5.0, N)),
}


@pytest.mark.parametrize("entry", sorted(N_ENTRY_POINTS))
@pytest.mark.parametrize("N", [3.0, 2.9, math.nan, math.inf])
def test_every_N_entry_point_raises_domain_error(entry, N):
    with pytest.raises(DomainError, match="N must be a finite real > 3"):
        N_ENTRY_POINTS[entry](N)


def test_grid_spec_rejects_fractional_counts():
    with pytest.raises(ConfigError, match="truncation order"):
        GridSpec(m_values=(4, 4.5))
    with pytest.raises(ConfigError, match="sample size"):
        GridSpec(n_values=(10.7,))


def test_every_exported_name_exists():
    modules = [finiten] + [
        importlib.import_module(f"finiten.{info.name}")
        for info in pkgutil.iter_modules(finiten.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
