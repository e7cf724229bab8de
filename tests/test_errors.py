import ast
import importlib
import inspect
import math
import pathlib
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

import finiten
from finiten import (
    FiniteNLaw, GridSpec, JacobiBasis, SteinTestConfig, power_boundary, run_test, sanov_table,
)
from finiten.errors import ConfigError, DomainError, check_int, check_seed
from finiten.harness import calibrate, check_compare, compare_edf, estimate_rejection, run_grid
from operator_reference import jacobi_eval_all, jacobi_psi

# an integer too large for a float
_HUGE = pytest.param(10**400, id="10**400")

N_ENTRY_POINTS = {
    "FiniteNLaw": FiniteNLaw,
    "SteinTestConfig": lambda N: SteinTestConfig(N=N),
    "GridSpec": lambda N: GridSpec(N_values=(5.0, N)),
}


@pytest.mark.parametrize("entry", sorted(N_ENTRY_POINTS))
@pytest.mark.parametrize("N", [3.0, 2.9, math.nan, math.inf, _HUGE])
def test_every_N_entry_point_raises_domain_error(entry, N):
    with pytest.raises(DomainError, match="N must be a finite real > 3"):
        N_ENTRY_POINTS[entry](N)


# every caller of check_values: the call on a list, a list with a repeat,
# the name the messages give, and whether a repeat is refused
LIST_ENTRY_POINTS = {
    "GridSpec.N_values": (lambda v: GridSpec(N_values=v), (5.0, 5.0), "N_values", True),
    "GridSpec.n_values": (lambda v: GridSpec(n_values=v), (10, 10), "n_values", True),
    "GridSpec.m_values": (lambda v: GridSpec(m_values=v), (4, 4), "m_values", True),
    "check_compare": (lambda v: check_compare(5.0, v, 4, 1000, 0.05), (50, 50), "n_values", True),
    "SteinTestConfig": (lambda v: SteinTestConfig(N=5.0, m=6, modes=v), (4, 4), "mode set", True),
    "sanov_table.N_values": (lambda v: sanov_table(v, [10]), (5.0, 5.0), "N_values", False),
    "sanov_table.n_values": (lambda v: sanov_table([5.0], v), (10, 10), "n_values", False),
    "power_boundary": (lambda v: power_boundary(v, 0.8), (5.0, 5.0), "N_values", False),
}


@pytest.mark.parametrize("entry", sorted(LIST_ENTRY_POINTS))
def test_every_list_input_is_nonempty_and_distinct_where_refused(entry):
    call, repeated, what, distinct = LIST_ENTRY_POINTS[entry]
    for empty in ((), [], iter(())):
        with pytest.raises(ConfigError, match=f"^{what} must be nonempty$"):
            call(empty)
    if distinct:
        message = f"{what} has duplicate values: {repeated}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            call(repeated)
    else:  # a repeat gives its result twice
        single = np.ravel(call(repeated[:1]))
        assert np.array_equal(np.ravel(call(repeated)), np.tile(single, 2))


@pytest.mark.parametrize("entry", sorted(LIST_ENTRY_POINTS))
@pytest.mark.parametrize("value", [5.0, "12", np.array(5.0)], ids=["float", "str", "0-d array"])
def test_every_list_input_refuses_a_scalar_or_a_string(entry, value):
    # a string is not split into characters, nor a 0-d array iterated
    call, _, what, _ = LIST_ENTRY_POINTS[entry]
    with pytest.raises(ConfigError, match=f"^{what} must be a list of values, got "):
        call(value)


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


# values that float() refuses, each given where a number is checked
WRONG_TYPE_ENTRY_POINTS = {
    "calibrate.seed": (ConfigError, lambda: calibrate(50, SteinTestConfig(N=5), 1000, None)),
    "GridSpec.calib_reps": (ConfigError, lambda: GridSpec(calib_reps=None)),
    "SteinTestConfig.level": (ConfigError, lambda: SteinTestConfig(N=5, level=None)),
    "FiniteNLaw.None": (DomainError, lambda: FiniteNLaw(None)),
    "FiniteNLaw.str": (DomainError, lambda: FiniteNLaw("abc")),
    "run_test.values": (DomainError, lambda: run_test([0.1, 0.2, "a", 0.3], SteinTestConfig(N=5))),
    "FiniteNLaw.quantile": (DomainError, lambda: FiniteNLaw(5).quantile(None)),
    "power_boundary.target": (DomainError, lambda: power_boundary([5.0], None)),
}


@pytest.mark.parametrize("entry", sorted(WRONG_TYPE_ENTRY_POINTS))
def test_every_check_refuses_a_value_that_is_not_a_number(entry):
    error, call = WRONG_TYPE_ENTRY_POINTS[entry]
    with pytest.raises(error):
        call()


# each takes one number, so a list of numbers is refused, not converted
SCALAR_ENTRY_POINTS = {
    "FiniteNLaw.quantile": lambda: FiniteNLaw(5).quantile([0.1, 0.2]),
    "power_boundary.target": lambda: power_boundary([5.0], [0.8, 0.9]),
    "JacobiBasis.build.alpha": lambda: JacobiBasis.build([1.0, 2.0], 4),
}


@pytest.mark.parametrize("entry", sorted(SCALAR_ENTRY_POINTS))
def test_every_scalar_input_refuses_a_list(entry):
    with pytest.raises(DomainError, match="must be a finite number, got \\["):
        SCALAR_ENTRY_POINTS[entry]()


def test_checks_keep_every_number_they_accepted():
    assert FiniteNLaw("5").N == 5.0
    seed = check_seed(np.int64(2**60 + 1))  # beyond 2**53: exact, not through a float
    assert type(seed) is int and seed == 2**60 + 1
    assert GridSpec(eval_reps="5").eval_reps == 5
    assert check_int(np.float64(7.0), "count", 1) == 7


_TINY_GRID = GridSpec(N_values=(5.0,), n_values=(10,), m_values=(4,), calib_reps=1000, eval_reps=10)

COUNT_ENTRY_POINTS = {
    "FiniteNLaw.sample": lambda k: FiniteNLaw(5).sample(k, 0),
    "FiniteNLaw.sample_gaussian_alternative":
        lambda k: FiniteNLaw(5).sample_gaussian_alternative(k, 0),
    "FiniteNLaw.sanov_power_proxy": lambda k: FiniteNLaw(5).sanov_power_proxy(k),
    "jacobi_eval_all": lambda k: jacobi_eval_all(1.0, k, 0.5),
    "JacobiBasis.build": lambda k: JacobiBasis.build(1.0, k),
    "JacobiBasis.psi": lambda k: jacobi_psi(JacobiBasis.build(1.0, 4), k, 0.5),
    "SteinTestConfig.modes": lambda k: SteinTestConfig(N=5, m=6, modes=(k,)),
    "run_grid": lambda k: run_grid(_TINY_GRID, workers=k),
}


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
@pytest.mark.parametrize("k", [math.inf, math.nan, _HUGE])
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


def test_harness_names_are_the_harness_objects_loaded_on_first_use():
    assert finiten.run_grid is finiten.harness.run_grid
    assert finiten.GridSpec is finiten.harness.GridSpec
    namespace = {}
    exec("from finiten import *", namespace)
    assert set(finiten.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        finiten.no_such_name


def test_the_large_deviation_tables_load_no_harness():
    assert finiten.sanov_table is finiten.distribution.sanov_table
    assert finiten.power_boundary is finiten.distribution.power_boundary
    # a fresh interpreter, since this one has loaded the harness
    code = ("import sys, finiten\n"
            "finiten.sanov_table([5.0], [10])\n"
            "finiten.power_boundary([5.0], 0.8)\n"
            "print(sorted({'finiten.harness', 'finiten.edf', 'hashlib'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120)
    assert result.stdout == "[]\n", result.stderr


# Every name that perfbench/ imports or wraps, as (module, attribute path; ""
# for the module itself). Only a change to the benchmark may remove or rename
# one (ROADMAP item 26), and its traced runs read a missing one as zero.
_BENCHMARK_PINS = [
    ("finiten", "SteinTestConfig"),
    ("finiten", "run_test"),
    ("finiten.cli", "main"),
    ("finiten.cli", "build_parser"),
    ("finiten.distribution", "FiniteNLaw"),
    ("finiten.distribution", "FiniteNLaw.sample"),
    ("finiten.distribution", "FiniteNLaw.sample_gaussian_alternative"),
    ("finiten.distribution", "FiniteNLaw.cdf"),
    ("finiten.edf", ""),
    ("finiten.harness", "ReplicationStreams.rng"),
    ("finiten.harness", "GridSpec"),
    ("finiten.harness", "run_grid"),
    ("finiten.harness", "calibrate"),
    ("finiten.harness", "estimate_rejection"),
    ("finiten.harness", "empirical_cutoff"),
    ("finiten.harness", "compare_edf"),
    ("finiten.harness", "compare_rows_to_csv"),
    ("finiten.harness", "grid_result_to_csv"),
    ("finiten.harness", "POWER_CSV_HEADER"),
    ("finiten.harness", "COMPARE_CSV_HEADER"),
    ("finiten.jacobi", "JacobiBasis.build"),
    ("finiten.stein_test", "SteinTestConfig"),
    ("finiten.stein_test", "SteinTestConfig.build_basis"),
    ("finiten.stein_test", "SteinTestConfig.theoretical_cutoff"),
    ("finiten.stein_test", "batch_statistic"),
    ("finiten.stein_test", "run_test"),
]

# the calls perfbench makes with keywords, bound to each pinned signature
_BENCHMARK_CALLS = {
    "finiten.harness.run_grid": ((GridSpec(),), {"workers": 1, "on_cell": None}),
    "finiten.harness.compare_edf": (
        (5.0, [1000]), {"m": 4, "reps": 1000, "seed": 0, "level": 0.05}),
    "finiten.harness.GridSpec": ((), dict.fromkeys(
        ["N_values", "n_values", "m_values", "level", "calib_reps", "eval_reps", "master_seed"])),
    "finiten.stein_test.SteinTestConfig": ((), {"N": 5.0, "m": 4, "level": 0.05}),
}


@pytest.mark.parametrize("module,path", _BENCHMARK_PINS, ids=lambda v: v or "module")
def test_every_name_the_benchmark_reads_exists(module, path):
    where = f"{module}.{path}".rstrip(".")
    failure = f"perfbench reads {where}: keep it until the benchmark changes (ROADMAP item 26)"
    try:
        target = importlib.import_module(module)
        for attr in filter(None, path.split(".")):
            target = getattr(target, attr)
    except (ImportError, AttributeError):
        pytest.fail(failure)
    if where in _BENCHMARK_CALLS:
        args, kwargs = _BENCHMARK_CALLS[where]
        try:
            inspect.signature(target).bind(*args, **kwargs)
        except TypeError as exc:
            pytest.fail(f"{failure}; its call no longer binds: {exc}")


def _loaded_names(path) -> set:
    """The names a module file loads: as a name, an attribute or an import."""
    loaded = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
        elif isinstance(node, ast.alias):
            loaded.add(node.name)
    return loaded


def test_every_exported_name_is_used():
    # a name a submodule exports is package API, or another module of the
    # package, not __init__.py, loads it; its own loads do not count
    loaded = {path.stem: _loaded_names(path)
              for path in pathlib.Path(finiten.__file__).parent.glob("*.py")
              if path.name != "__init__.py"}
    unused = []
    for module in _modules()[1:]:
        stem = module.__name__.rpartition(".")[2]
        elsewhere = set().union(*(names for other, names in loaded.items() if other != stem))
        pinned = {path for where, path in _BENCHMARK_PINS if where == module.__name__}
        allowed = set(finiten.__all__) | elsewhere | pinned
        unused += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", ())
                   if name not in allowed]
    assert not unused


def _imported_names(tree) -> set:
    """The names a module's import statements bind, but not __future__'s."""
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               and getattr(node, "module", None) != "__future__"]
    return {(alias.asname or alias.name).partition(".")[0]
            for node in imports for alias in node.names}


def test_every_imported_name_is_used():
    # an import is read in its module or exported by its __all__
    unused = []
    for module in _modules():
        tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{module.__name__}.{name}" for name in _imported_names(tree)
                   if name not in read | set(getattr(module, "__all__", ()))]
    assert not unused


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
