import importlib
import inspect
import math
import pkgutil

import pytest

import finiten
from finiten import FiniteNLaw, GridSpec, JacobiBasis, SteinTestConfig
from finiten.errors import ConfigError, DomainError
from finiten.harness import calibrate, compare_edf, estimate_rejection, run_grid
from finiten.jacobi import jacobi_eval_all, sigma_k

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


def test_library_seeds_must_be_integers_in_int64_range():
    config = SteinTestConfig(N=5)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        GridSpec(master_seed=1.5)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        calibrate(10, config, 1000, seed=-1)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        estimate_rejection(10, config, "h0", 3.84, 10, seed=1.5)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        compare_edf(5, [10], reps=1000, seed=2**63)


_TINY_GRID = GridSpec(N_values=(5.0,), n_values=(10,), m_values=(4,), calib_reps=1000, eval_reps=10)

COUNT_ENTRY_POINTS = {
    "FiniteNLaw.sample": lambda k: FiniteNLaw(5).sample(k, 0),
    "FiniteNLaw.sample_gaussian_alternative":
        lambda k: FiniteNLaw(5).sample_gaussian_alternative(k, 0),
    "FiniteNLaw.sanov_power_proxy": lambda k: FiniteNLaw(5).sanov_power_proxy(k),
    "jacobi_eval_all": lambda k: jacobi_eval_all(1.0, k, 0.5),
    "sigma_k": lambda k: sigma_k(1.0, k),
    "JacobiBasis.build": lambda k: JacobiBasis.build(1.0, k),
    "JacobiBasis.psi": lambda k: JacobiBasis.build(1.0, 4).psi(k, 0.5),
    "SteinTestConfig.modes": lambda k: SteinTestConfig(N=5, m=6, modes=(k,)),
    "run_grid": lambda k: run_grid(_TINY_GRID, workers=k),
}


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
@pytest.mark.parametrize("k", [math.inf, math.nan])
def test_every_count_entry_point_raises_config_error(entry, k):
    with pytest.raises(ConfigError, match="must be an integer"):
        COUNT_ENTRY_POINTS[entry](k)


def _modules():
    return [finiten] + [
        importlib.import_module(f"finiten.{info.name}")
        for info in pkgutil.iter_modules(finiten.__path__)
    ]


def test_every_exported_name_exists():
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def _public_callables(obj):
    yield obj
    if inspect.isclass(obj):
        yield from (getattr(obj, n) for n in dir(obj) if not n.startswith("_"))


def test_no_callable_takes_a_config_beside_what_it_determines():
    # a config carries N, its law and its basis; nothing takes a second copy
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            for member in filter(callable, _public_callables(getattr(module, name))):
                try:
                    params = set(inspect.signature(member).parameters)
                except (TypeError, ValueError):
                    continue
                if "config" in params:
                    assert not params & {"N", "law", "basis"}, f"{module.__name__}.{name}"
