"""Reproducible Monte Carlo experiments over the (N, n, m) grid.

Calibration of critical values, size and power estimation, the
large-deviation power table, and the comparison against classical EDF
tests.

Determinism contract: the replications of a simulation phase are cut into
blocks of ``BLOCK`` = 512, and replication r is row r % 512 of block
r // 512. Block b is drawn from one SFC64 generator, seeded through a
``SeedSequence`` with a 128-bit key: an injective hash of (master seed,
phase tags, N, n, b) that only ``_blocks`` builds. Each block's stream
follows from its key alone, as with a counter-based generator (Salmon et
al., SC 2011). It is drawn by consecutive calls on that one generator in
whole-row tiles of about ``TILE`` elements. The samplers consume the
stream in order and every kernel works row by row, so tiling changes no
draw and no statistic, and the first R replications are the same for any
reps >= R. The block size is fixed, whatever the worker count. The key
holds no truncation order or mode set: every m of an (N, n) pair shares
the same draws, and T for each m is a partial sum of one pass of the
recurrence. No stream is shared across phases or (N, n) pairs and
reductions are order-independent. ``run_grid`` and ``compare_edf`` share
one pool path, ``_run_units``: a grid's unit is an (N, n) pair and a
comparison's an (n, phase) pair; a pool of at most ``workers`` processes,
never more than there are units, runs the largest n first, and results
are taken in unit order, so they are bit-identical for any worker count.
Only one tile of draws is held at a time, so peak memory does not grow
with 512 n and large grids never materialise full sample matrices. Each
unit of work (an (N, n) or (n, phase) pair, a :func:`calibrate` or
:func:`estimate_rejection` call) gives every phase it runs one
:class:`Workspace` of scratch buffers, so it faults in its pages once: a
tile that ``_blocks`` yields is valid only until the next.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from .distribution import FiniteNLaw
from .edf import _edf_statistics
from .errors import (
    ConfigError, DomainError, check_cutoff, check_int, check_level, check_N, check_real,
    check_seed, check_values,
)
from .stein_test import (
    CALIBRATED, THEORETICAL, SteinTestConfig, _check_standardizable, _running_statistics,
    _standardize,
)
from .workspace import Workspace

__all__ = [
    "GridSpec",
    "CalibrationEntry",
    "PowerRow",
    "CompareRow",
    "GridResult",
    "check_calibration",
    "calibrate",
    "estimate_rejection",
    "run_grid",
    "sanov_table",
    "power_boundary",
    "check_compare",
    "compare_edf",
    "POWER_CSV_HEADER",
    "COMPARE_CSV_HEADER",
    "records_to_csv",
    "records_to_json",
    "compare_rows_to_csv",
    "grid_result_to_csv",
    "grid_result_to_json",
]

H0 = "h0"
H1 = "h1"
COMPARE_TESTS = ("stein", "ks", "cvm", "ad")

# Replications per stream block; part of the determinism contract.
BLOCK = 512
# Float64 elements per tile of draws (512 KB): a block is drawn and reduced
# in whole-row tiles of max(1, TILE // n) rows. The size balances per-tile
# call costs against cache: a compare unit keeps the tile and four or more
# Workspace buffers of its size live (2.5 MB or more, beyond a 2 MB L2), yet
# serial runs at a half or a quarter of it were no faster for a grid and
# slower for a compare. It changes no result, only speed and memory.
TILE = 65_536
MIN_CALIB_REPS = 1000


# ----------------------------------------------------------------------
# Deterministic substreams
# ----------------------------------------------------------------------

def _tag_bytes(tag) -> bytes:
    """Injective byte encoding of a stream tag (type byte + payload)."""
    if isinstance(tag, str):
        raw = tag.encode("utf-8")
        return b"s" + struct.pack("<I", len(raw)) + raw
    if isinstance(tag, int):
        return b"i" + struct.pack("<q", tag)
    if isinstance(tag, float):
        return b"f" + struct.pack("<d", tag)
    raise ConfigError(f"unsupported stream tag type: {type(tag).__name__}")


class ReplicationStreams:
    """Keyed generators for the blocks of one simulation phase.

    The tags name the phase, N and n. The 128-bit key of block b is a
    blake2b hash of (master seed, tags..., b), and block b holds
    replications b * BLOCK .. (b + 1) * BLOCK - 1, so streams never
    collide or depend on scheduling order or worker count. :meth:`rng`,
    the one place that builds a Monte Carlo generator, seeds SFC64 through
    ``SeedSequence(key)``: the key alone fixes the stream, and SFC64 draws
    a uniform in about 40% of Philox's time.
    """

    def __init__(self, master_seed: int, *tags):
        h = hashlib.blake2b(digest_size=16)
        h.update(_tag_bytes(check_seed(master_seed)))
        for tag in tags:
            h.update(_tag_bytes(tag))
        self._base = h

    def rng(self, block: int) -> np.random.Generator:
        h = self._base.copy()
        h.update(_tag_bytes(int(block)))
        key = int.from_bytes(h.digest(), "little")
        return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))


# ----------------------------------------------------------------------
# Result records
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationEntry:
    N: float
    n: int
    m: int
    level: float
    cutoff: float
    reps: int
    seed: int


@dataclass(frozen=True)
class PowerRow:
    """One rejection-rate estimate; rejection_rate is rejections/reps exactly."""

    N: float
    n: int
    m: int
    modes: tuple[int, ...]
    cutoff_source: str
    hypothesis: str
    rejection_rate: float
    reps: int
    seed: int


@dataclass(frozen=True)
class CompareRow:
    test_name: str
    n: int
    calibrated_power: float


@dataclass(frozen=True)
class CellResult:
    calibration: CalibrationEntry
    rows: tuple[PowerRow, ...]


@dataclass(frozen=True)
class GridResult:
    """All rows of a grid run plus an explicit completeness flag."""

    rows: tuple[PowerRow, ...]
    calibration: tuple[CalibrationEntry, ...]
    complete: bool


@dataclass(frozen=True)
class GridSpec:
    """Simulation grid; the field defaults are the reference protocol
    (N 5..20, n 10..200 step 10 plus 250..500 step 50, m in {4,6,8,10},
    50,000 calibration and 20,000 evaluation replications at the 5% level).
    """

    N_values: tuple[float, ...] = tuple(float(N) for N in range(5, 21))
    n_values: tuple[int, ...] = tuple(range(10, 201, 10)) + tuple(range(250, 501, 50))
    m_values: tuple[int, ...] = (4, 6, 8, 10)
    level: float = 0.05
    calib_reps: int = 50_000
    eval_reps: int = 20_000
    master_seed: int = 0

    def __post_init__(self):
        checked = {
            "N_values": check_values(self.N_values, "N_values", check_N),
            "n_values": check_values(self.n_values, "n_values",
                                     lambda n: check_int(n, "sample size", 1)),
            "m_values": check_values(self.m_values, "m_values",
                                     lambda m: check_int(m, "truncation order", 4)),
            "level": check_level(self.level),
            "calib_reps": check_int(self.calib_reps, "calib_reps", MIN_CALIB_REPS),
            "eval_reps": check_int(self.eval_reps, "eval_reps", 1),
            "master_seed": check_seed(self.master_seed),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    def cells(self) -> list[tuple[float, int, int]]:
        return [(N, n, m) for N in self.N_values for n in self.n_values for m in self.m_values]


# ----------------------------------------------------------------------
# Core sampling loops
# ----------------------------------------------------------------------

def _blocks(config, hypothesis, n, reps, seed, tags, standardize_first, work):
    """Yield the draws of replications 0..reps-1 of one phase, one tile at a time.

    The one place that keys a stream, from (seed, tags, config.N, n), and
    decides whether draws are standardised. Block b is drawn from block b
    of that stream by consecutive calls, each of max(1, TILE // n) whole
    rows, so replication r is row r - b * BLOCK of the block's tiles joined
    in order. Every tile is drawn, and standardised in place, into one
    array that this generator owns; the sampler and the standardiser take
    their scratch from ``work``, a :class:`Workspace`. A yielded tile is
    valid only until the next one is asked for.
    """
    streams = ReplicationStreams(seed, *tags, config.N, n)
    rows = max(1, TILE // n)
    tile = np.empty(min(rows, BLOCK, reps) * n)
    for block, start in enumerate(range(0, reps, BLOCK)):
        rng = streams.rng(block)
        end = min(start + BLOCK, reps)
        for first in range(start, end, rows):
            count = min(rows, end - first)
            x = tile[:count * n]
            if hypothesis == H0:
                config.law._sample_into(x, rng, work)
            else:
                rng.standard_normal(out=x)
            x = x.reshape(count, n)
            if standardize_first:
                _standardize(x, work)
            yield x


def _statistics(kernel, config, hypothesis, n, reps, seed, tags, standardize_first, work):
    """The one Monte Carlo draw loop: ``kernel(x, config, work)`` of every
    tile x of draws, joined along the last axis, so column r belongs to
    replication r. ``work`` is the :class:`Workspace` of the unit of work
    that runs the phase: the sampler, the standardiser and the kernel write
    into its buffers on every tile."""
    tiles = _blocks(config, hypothesis, n, reps, seed, tags, standardize_first, work)
    return np.concatenate([kernel(x, config, work) for x in tiles], axis=-1)


def _rate(stats, cutoff) -> float:
    """The one rejection count: the share of ``stats`` above the cutoff."""
    return int((stats > cutoff).sum()) / stats.size


def empirical_cutoff(stats, level: float) -> float:
    """Empirical (1 - level) critical value: the order statistic at rank
    ceil((1 - level) * (R + 1)), clamped to R."""
    values = np.asarray(stats, dtype=float)
    r = values.size
    if r < 1:
        raise DomainError("need at least one statistic")
    rank = min(math.ceil((1.0 - check_level(level)) * (r + 1)), r)
    return float(np.partition(values, rank - 1)[rank - 1])


def check_calibration(n: int, config: SteinTestConfig, reps: int, standardize_first=False):
    """The checks of :func:`calibrate`, for a caller to run before it draws a
    seed: n and reps as ints; n >= 2 and no mode 1 or 2 when standardising."""
    if standardize_first:
        _check_standardizable(config)
    return (check_int(n, "sample size", 2 if standardize_first else 1),
            check_int(reps, "calibration replications", MIN_CALIB_REPS))


def calibrate(
    n: int, config: SteinTestConfig, reps: int, seed: int, standardize_first: bool = False
) -> float:
    """Monte Carlo critical value for the statistic under the null.

    Draws ``reps`` independent samples of size n from ``config.law`` and
    returns the empirical (1 - level) quantile of the statistic.
    Deterministic given the seed. The default draws raw, as
    :func:`run_grid` and :func:`estimate_rejection` do (:func:`compare_edf`
    standardises), so its value, like ``finiten calibrate
    --no-standardize``'s, belongs with ``test --no-standardize --cutoff
    <value>``. With ``standardize_first`` it calibrates the pipeline of the
    default :func:`run_test`, as ``finiten calibrate`` and ``test --cutoff
    calibrated`` do. The two differ: at N = 5, n = 100, m = 4 the raw
    cutoff is 3.850, the standardised 6.715, and the default test given
    3.850 rejects 13.2% of null samples at level 0.05. With
    ``standardize_first``, a mode set with mode 1 or 2 raises ConfigError,
    as in :func:`run_test`.
    """
    n, reps = check_calibration(n, config, reps, standardize_first)
    stats = _statistics(_running_statistics, config, H0, n, reps, seed, ("calibrate",),
                        standardize_first, Workspace())
    return empirical_cutoff(stats[-1], config.level)


def _power_row(config, n, hypothesis, stats, seed, cutoff) -> PowerRow:
    """The one map from a cutoff to its label: None is the chi-squared cutoff."""
    source, cutoff = ((THEORETICAL, config.theoretical_cutoff()) if cutoff is None
                      else (CALIBRATED, cutoff))
    return PowerRow(N=config.N, n=n, m=config.m, modes=config.modes, cutoff_source=source,
                    hypothesis=hypothesis, rejection_rate=_rate(stats, cutoff), reps=stats.size,
                    seed=int(seed))


def estimate_rejection(
    n: int, config: SteinTestConfig, hypothesis: str, cutoff: float | None, reps: int, seed: int
) -> PowerRow:
    """Fraction of replications whose statistic exceeds the cutoff.

    Null replications come from the exact law, alternative replications
    from the standard Gaussian; both are already location/scale aligned
    by construction, so the statistic is evaluated on the raw draws. As
    in :func:`run_test`, a cutoff of None is the chi-squared cutoff and
    labels the row ``theoretical``; a number is used as given and labels
    it ``calibrated``.
    """
    n = check_int(n, "sample size", 1)
    name = str(hypothesis).lower()
    if name not in (H0, H1):
        raise ConfigError(f"hypothesis must be '{H0}' or '{H1}', got {hypothesis!r}")
    if cutoff is not None:
        cutoff = check_cutoff(cutoff)
    reps = check_int(reps, "reps", 1)
    stats = _statistics(_running_statistics, config, name, n, reps, seed,
                        ("evaluate", name), False, Workspace())
    return _power_row(config, n, name, stats[-1], seed, cutoff)


# ----------------------------------------------------------------------
# Process pool
# ----------------------------------------------------------------------

def _run_units(fn, units, workers, n_of):
    """Yield ``fn(unit)`` for every unit, in unit order: the one pool path.

    One worker runs the units in this process, in order. More run them
    on a pool of at most ``workers`` processes, never more than there are
    units, which gets the units largest ``n_of(unit)`` first (ties in unit
    order), so the longest start first. Units share nothing, so the
    results are the same for any worker count. If the caller stops early,
    or an interrupt or a lost worker ends the wait, the queued units are
    cancelled; those in flight, or already in the pool's call queue (one
    more than the workers), still run. Workers ignore SIGINT, so a
    Ctrl-C to the whole process group reaches only this process: a worker
    interrupted inside the pool's result queue can leave another blocked on
    the queue's lock, and the shutdown then waits forever (2 of 126
    group-wide SIGINTs to a 2-worker grid hung so on CPython 3.11).

    On Linux the pool forks, so its workers share what this process
    imported. Any other start method (the platform's default elsewhere;
    CPython 3.14 makes ``forkserver`` Linux's default) has every worker
    import numpy and finiten again, and :func:`compare_edf`'s SciPy preload
    no longer reaches the workers. No Python 3.12 or later ran this code.
    """
    workers = min(check_int(workers, "workers", 1), len(units))
    if workers <= 1:
        yield from map(fn, units)
        return
    import multiprocessing
    import signal
    import sys
    from concurrent.futures import ProcessPoolExecutor  # only a pool pays for its import

    context = multiprocessing.get_context("fork") if sys.platform.startswith("linux") else None
    with ProcessPoolExecutor(max_workers=workers, mp_context=context, initializer=signal.signal,
                             initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
        try:
            by_size = sorted(range(len(units)), key=lambda i: -n_of(units[i]))
            futures = {i: pool.submit(fn, units[i]) for i in by_size}
            for i in range(len(units)):
                yield futures[i].result()
        except BaseException:  # GeneratorExit included: no queued unit runs
            pool.shutdown(wait=True, cancel_futures=True)
            raise


# ----------------------------------------------------------------------
# Grid runner
# ----------------------------------------------------------------------

def _grid_pair(args) -> list[CellResult]:
    """The cells of every m at one (N, n) pair, in ``spec.m_values`` order.

    Each phase is drawn once and the recurrence runs once, up to the
    largest m; the T of each m is a row of the running statistics. So
    every cell equals direct :func:`calibrate` and :func:`estimate_rejection`
    calls with that m's config. Its three phases share one workspace.
    """
    spec, (N, n) = args
    seed, work = spec.master_seed, Workspace()
    configs = [SteinTestConfig(N=N, m=m, level=spec.level) for m in spec.m_values]
    widest = max(configs, key=lambda config: config.m)
    calibration = _statistics(_running_statistics, widest, H0, n, spec.calib_reps, seed,
                              ("calibrate",), False, work)
    evaluation = {h: _statistics(_running_statistics, widest, h, n, spec.eval_reps, seed,
                                 ("evaluate", h), False, work) for h in (H0, H1)}
    cells = []
    for config in configs:
        row = config.dof - 1  # its even modes are a prefix of the widest's
        cutoff_cal = empirical_cutoff(calibration[row], spec.level)
        entry = CalibrationEntry(N=config.N, n=n, m=config.m, level=spec.level,
                                 cutoff=cutoff_cal, reps=spec.calib_reps, seed=seed)
        rows = tuple(_power_row(config, n, h, evaluation[h][row], seed, cutoff)
                     for h in (H0, H1) for cutoff in (None, cutoff_cal))
        cells.append(CellResult(calibration=entry, rows=rows))
    return cells


def run_grid(spec: GridSpec, workers: int = 1, on_cell=None) -> GridResult:
    """Run every (N, n, m) cell of the grid.

    Each (N, n) pair is one task that gives the cells of every m from
    shared draws. Tasks run through :func:`_run_units` (across at most
    ``workers`` processes, largest n first) and are reduced in spec order:
    ``on_cell`` receives each CellResult in ``spec.cells()`` order as it
    becomes available. Interruption, memory exhaustion or a lost worker
    process yields a valid spec-order prefix of the cells with
    ``complete=False``.
    """
    from concurrent.futures import BrokenExecutor  # loads no pool module

    pairs = [(spec, (N, n)) for N in spec.N_values for n in spec.n_values]
    results: list[CellResult] = []
    complete = True
    try:
        for cells in _run_units(_grid_pair, pairs, workers, lambda pair: pair[1][1]):
            for result in cells:
                results.append(result)
                if on_cell is not None:
                    on_cell(result)
    except (KeyboardInterrupt, MemoryError, BrokenExecutor):
        complete = False

    rows = tuple(row for cell in results for row in cell.rows)
    calibration = tuple(cell.calibration for cell in results)
    return GridResult(rows=rows, calibration=calibration, complete=complete)


# ----------------------------------------------------------------------
# Deterministic tables
# ----------------------------------------------------------------------

def sanov_table(N_values, n_values) -> np.ndarray:
    """Large-deviation power proxy 1 - exp(-n * KL) on the cross product.

    Rows follow N_values, columns follow n_values; fully deterministic.
    Either axis empty raises ConfigError.
    """
    laws = check_values(N_values, "N_values", FiniteNLaw, distinct=False)
    # sanov_power_proxy checks each n
    n_values = check_values(n_values, "n_values", lambda n: n, distinct=False)
    return np.array([[law.sanov_power_proxy(n) for n in n_values] for law in laws])


def power_boundary(N_values, target_power: float) -> list[tuple[float, int]]:
    """Smallest n with sanov power proxy >= target, for each N. An empty
    N_values raises ConfigError, and an n past the float range (KL
    underflows from about N = 1e154) raises DomainError."""
    target = check_real(target_power, "target power")
    if not 0.0 < target < 1.0:
        raise DomainError(f"target power must lie in (0, 1), got {target_power!r}")
    out = []
    for law in check_values(N_values, "N_values", FiniteNLaw, distinct=False):
        kl = law.kl_to_gaussian()
        n_star = -math.log1p(-target) / kl if kl > 0.0 else math.inf
        if not math.isfinite(n_star):
            raise DomainError(f"n_star at N={law.N!r} exceeds the float range")
        out.append((law.N, max(1, math.ceil(n_star))))
    return out


# ----------------------------------------------------------------------
# EDF comparison
# ----------------------------------------------------------------------

def _compare_kernel(x, config, work) -> np.ndarray:
    """T and the KS, CvM and AD statistics of every row of x, as a
    (4, reps) matrix in ``COMPARE_TESTS`` order, with ``work`` (a
    :class:`Workspace`) as scratch."""
    stein = _running_statistics(x, config, work)[-1]
    return np.vstack([stein, *_edf_statistics(x, config.law, work)])


def check_compare(N: float, n_values, m: int, reps: int, level: float):
    """The checks of :func:`compare_edf`, for a caller to run before it draws a
    seed: its config, reps, and a nonempty set of distinct sample sizes n >= 2."""
    config = SteinTestConfig(N=N, m=m, level=level)
    reps = check_int(reps, "comparison replications", MIN_CALIB_REPS)
    n_values = check_values(n_values, "n_values",
                            lambda n: check_int(n, "comparison sample size", 2))
    return config, n_values, reps


# The two phases of each n of a comparison: the null draws that calibrate
# every test's cutoff, and the alternative draws that measure its power.
_COMPARE_PHASES = ((H0, ("compare-calibrate",)), (H1, ("compare-evaluate",)))


def _compare_phase(unit) -> np.ndarray:
    """The (4, reps) statistics matrix of one (n, phase) unit of :func:`compare_edf`."""
    config, n, reps, seed, standardize_first, (hypothesis, tags) = unit
    return _statistics(_compare_kernel, config, hypothesis, n, reps, seed, tags,
                       standardize_first, Workspace())


def compare_edf(
    N: float,
    n_values,
    m: int = 4,
    reps: int = 2_000,
    seed: int = 0,
    level: float = 0.05,
    standardize_first: bool = True,
    workers: int = 1,
) -> list[CompareRow]:
    """Calibrated power of the targeted test and the three EDF baselines.

    Every test sees the identical pipeline: shared per-replication draws,
    the same standardisation treatment, and its own Monte Carlo cutoff
    calibrated under the null at the given level, so the comparison is
    fair by construction. Each (n, phase) pair is one unit of
    :func:`_run_units`, on at most ``workers`` processes; cutoffs and
    rates are taken in n order, so rows are the same for any worker count.
    """
    config, n_values, reps = check_compare(N, n_values, m, reps, level)
    config.law.cdf(0.0)  # imports scipy.special where the CDF needs it, before any fork
    units = [(config, n, reps, seed, standardize_first, phase)
             for n in n_values for phase in _COMPARE_PHASES]
    stats = _run_units(_compare_phase, units, workers, lambda unit: unit[1])
    rows: list[CompareRow] = []
    # two units per n, its null then its alternative; the units come first in
    # zip, so it runs them to their end, and the pool closes there
    for null_stats, alt_stats, n in zip(stats, stats, n_values):
        cutoffs = [empirical_cutoff(values, level) for values in null_stats]
        rows += [
            CompareRow(test_name=name, n=n, calibrated_power=_rate(values, cutoff))
            for name, values, cutoff in zip(COMPARE_TESTS, alt_stats, cutoffs)
        ]
    return rows


# ----------------------------------------------------------------------
# Serialisation: one CSV column or JSON key per dataclass field, in field
# order; floats keep 6 significant digits, mode tuples are "4+6" in CSV
# and [4, 6] in JSON.
# ----------------------------------------------------------------------

def _csv_header(record_type) -> str:
    return ",".join(f.name for f in fields(record_type))


POWER_CSV_HEADER = _csv_header(PowerRow)
COMPARE_CSV_HEADER = _csv_header(CompareRow)


def _csv_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    if isinstance(value, tuple):
        return "+".join(str(int(k)) for k in value)
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        return float(format(value, ".6g"))
    if isinstance(value, tuple):
        return list(value)
    return value


def records_to_csv(record_type, records) -> str:
    """CSV text for records of one dataclass type, header line first."""
    names = [f.name for f in fields(record_type)]
    lines = [_csv_header(record_type)]
    lines += [",".join(_csv_value(getattr(r, name)) for name in names) for r in records]
    return "\n".join(lines) + "\n"


def records_to_json(records) -> list[dict]:
    """JSON-ready dicts for dataclass records, keys in field order."""
    return [{f.name: _json_value(getattr(r, f.name)) for f in fields(r)} for r in records]


def compare_rows_to_csv(rows) -> str:
    return records_to_csv(CompareRow, rows)


def grid_result_to_csv(result: GridResult) -> str:
    flag = "true" if result.complete else "false"
    return records_to_csv(PowerRow, result.rows) + f"# complete={flag}\n"


def grid_result_to_json(result: GridResult) -> dict:
    return {
        "rows": records_to_json(result.rows),
        "calibration": records_to_json(result.calibration),
        "complete": result.complete,
    }
