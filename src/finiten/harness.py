"""Reproducible Monte Carlo experiments over the (N, n, m) grid.

Calibration of critical values, size and power estimation, the
large-deviation power table, and the comparison against classical EDF
tests.

Determinism contract: replication r of a simulation cell draws from a
counter-based substream keyed injectively by (master seed, cell identity,
r). No stream is shared across cells or phases, reductions are
order-independent, and results are bit-identical for any worker count.
Replications are processed in bounded chunks so large grids never
materialise full sample matrices in memory.
"""

from __future__ import annotations

import hashlib
import math
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .distribution import FiniteNLaw
from .edf import batch_edf_statistics
from .errors import ConfigError, DomainError
from .stein_test import SteinTestConfig, batch_statistic, standardize

__all__ = [
    "H0",
    "H1",
    "THEORETICAL",
    "CALIBRATED",
    "ReplicationStreams",
    "GridSpec",
    "CalibrationEntry",
    "CalibrationTable",
    "PowerRow",
    "CompareRow",
    "CellResult",
    "GridResult",
    "empirical_cutoff",
    "calibrate",
    "estimate_rejection",
    "run_grid",
    "sanov_table",
    "power_boundary",
    "compare_edf",
    "COMPARE_TESTS",
    "POWER_CSV_HEADER",
    "CALIBRATION_CSV_HEADER",
    "COMPARE_CSV_HEADER",
    "records_to_csv",
    "records_to_json",
    "compare_rows_to_csv",
    "grid_result_to_csv",
    "grid_result_to_json",
]

H0 = "h0"
H1 = "h1"
THEORETICAL = "theoretical"
CALIBRATED = "calibrated"
COMPARE_TESTS = ("stein", "ks", "cvm", "ad")

_CHUNK = 512


# ----------------------------------------------------------------------
# Deterministic substreams
# ----------------------------------------------------------------------

def _tag_bytes(tag) -> bytes:
    """Injective byte encoding of a stream tag (type byte + payload)."""
    if isinstance(tag, str):
        raw = tag.encode("utf-8")
        return b"s" + struct.pack("<I", len(raw)) + raw
    if isinstance(tag, (bool, int, np.integer)):
        return b"i" + struct.pack("<q", int(tag))
    if isinstance(tag, (float, np.floating)):
        return b"f" + struct.pack("<d", float(tag))
    if isinstance(tag, tuple):
        inner = b"".join(_tag_bytes(t) for t in tag)
        return b"t" + struct.pack("<I", len(tag)) + inner
    raise ConfigError(f"unsupported stream tag type: {type(tag).__name__}")


class ReplicationStreams:
    """Per-replication counter-based generators for one simulation cell.

    The 128-bit Philox key for replication r is a keyed hash of
    (master seed, tags..., r), so streams never collide or depend on
    scheduling order.
    """

    def __init__(self, master_seed: int, *tags):
        h = hashlib.blake2b(digest_size=16)
        h.update(_tag_bytes(int(master_seed)))
        for tag in tags:
            h.update(_tag_bytes(tag))
        self._base = h

    def rng(self, rep: int) -> np.random.Generator:
        h = self._base.copy()
        h.update(struct.pack("<Q", int(rep)))
        key = int.from_bytes(h.digest(), "little")
        return np.random.Generator(np.random.Philox(key=key))


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
class CalibrationTable:
    """Calibrated critical values keyed by (N, n, m, level)."""

    entries: tuple[CalibrationEntry, ...]

    def lookup(self, N: float, n: int, m: int, level: float = 0.05) -> CalibrationEntry:
        for entry in self.entries:
            if (
                entry.N == float(N)
                and entry.n == int(n)
                and entry.m == int(m)
                and entry.level == float(level)
            ):
                return entry
        raise KeyError(f"no calibration entry for (N={N}, n={n}, m={m}, level={level})")


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
    calibration: CalibrationTable
    complete: bool


def _reference_n_values() -> tuple[int, ...]:
    return tuple(range(10, 201, 10)) + tuple(range(250, 501, 50))


@dataclass(frozen=True)
class GridSpec:
    """Simulation grid; the field defaults are the reference protocol
    (N 5..20, n 10..200 step 10 plus 250..500 step 50, m in {4,6,8,10},
    50,000 calibration and 20,000 evaluation replications at the 5% level).
    """

    N_values: tuple[float, ...] = tuple(float(N) for N in range(5, 21))
    n_values: tuple[int, ...] = _reference_n_values()
    m_values: tuple[int, ...] = (4, 6, 8, 10)
    level: float = 0.05
    calib_reps: int = 50_000
    eval_reps: int = 20_000
    master_seed: int = 0

    def __post_init__(self):
        if not self.N_values or any(not (float(N) > 3.0) for N in self.N_values):
            raise ConfigError("N_values must be nonempty with every N > 3")
        if not self.n_values or any(int(n) < 1 for n in self.n_values):
            raise ConfigError("n_values must be nonempty positive integers")
        if not self.m_values or any(int(m) < 4 for m in self.m_values):
            raise ConfigError("m_values must be nonempty integers >= 4")
        if not 0.0 < float(self.level) < 1.0:
            raise ConfigError(f"level must lie in (0, 1), got {self.level!r}")
        if int(self.calib_reps) < 1000:
            raise ConfigError("calib_reps must be at least 1000")
        if int(self.eval_reps) < 1:
            raise ConfigError("eval_reps must be positive")
        object.__setattr__(self, "N_values", tuple(float(N) for N in self.N_values))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "m_values", tuple(int(m) for m in self.m_values))

    def desk_scale(self) -> "GridSpec":
        """Same grid with replication counts sized for a desk run."""
        return replace(self, calib_reps=5_000, eval_reps=2_000)

    def cells(self) -> list[tuple[float, int, int]]:
        return [(N, n, m) for N in self.N_values for n in self.n_values for m in self.m_values]


# ----------------------------------------------------------------------
# Core sampling loops
# ----------------------------------------------------------------------

def _normalize_hypothesis(hypothesis: str) -> str:
    name = str(hypothesis).lower()
    if name not in (H0, H1):
        raise ConfigError(f"hypothesis must be '{H0}' or '{H1}', got {hypothesis!r}")
    return name


def _draw_rows(law, hypothesis, n, count, streams, offset) -> np.ndarray:
    x = np.empty((count, n))
    if hypothesis == H0:
        for j in range(count):
            x[j] = law.sample(n, streams.rng(offset + j))
    else:
        for j in range(count):
            x[j] = law.sample_gaussian_alternative(n, streams.rng(offset + j))
    return x


def _chunks(law, hypothesis, n, reps, streams):
    """Yield (slice, draws) for replications 0..reps-1 in bounded chunks.

    The draws are yielded straight from :func:`_draw_rows`, so this frame
    holds no reference to them while the caller transforms them.
    """
    for start in range(0, reps, _CHUNK):
        count = min(_CHUNK, reps - start)
        yield slice(start, start + count), _draw_rows(law, hypothesis, n, count, streams, start)


def _collect_statistics(
    law, config, basis, hypothesis, n, reps, streams, standardize_first=False
) -> np.ndarray:
    out = np.empty(reps)
    for sl, x in _chunks(law, hypothesis, n, reps, streams):
        out[sl] = batch_statistic(x, config, basis, standardize_first=standardize_first)
    return out


def empirical_cutoff(stats, level: float) -> float:
    """Empirical (1 - level) critical value: the order statistic at rank
    ceil((1 - level) * (R + 1)), clamped to R."""
    values = np.asarray(stats, dtype=float)
    r = values.size
    if r < 1:
        raise DomainError("need at least one statistic")
    if not 0.0 < float(level) < 1.0:
        raise DomainError(f"level must lie in (0, 1), got {level!r}")
    rank = min(math.ceil((1.0 - float(level)) * (r + 1)), r)
    return float(np.partition(values, rank - 1)[rank - 1])


def _check_cell_args(N: float, n: int, config: SteinTestConfig) -> tuple[float, int]:
    N = float(N)
    if config.N != N:
        raise ConfigError(f"config is for N={config.N}, cell requested N={N}")
    if int(n) != n or n < 1:
        raise ConfigError(f"sample size must be a positive integer, got {n!r}")
    return N, int(n)


def calibrate(
    N: float,
    n: int,
    config: SteinTestConfig,
    reps: int,
    seed: int,
    standardize_first: bool = False,
) -> float:
    """Monte Carlo critical value for the statistic under the null.

    Draws ``reps`` independent null samples of size n and returns the
    empirical (1 - level) quantile of the statistic. Deterministic given
    the seed. Set ``standardize_first`` to match however the statistic
    will be applied to data; the protocol runs in this module leave it
    off because simulation draws are aligned by construction.
    """
    N, n = _check_cell_args(N, n, config)
    if int(reps) < 1000:
        raise ConfigError(f"calibration requires at least 1000 replications, got {reps!r}")
    law = FiniteNLaw(N)
    basis = config.build_basis()
    streams = ReplicationStreams(seed, "calibrate", N, n, config.modes)
    stats = _collect_statistics(
        law, config, basis, H0, n, int(reps), streams, standardize_first=standardize_first
    )
    return empirical_cutoff(stats, config.level)


def _evaluate(
    law, config, basis, n, hypothesis, reps, seed, cutoffs, standardize_first=False
) -> list[PowerRow]:
    """One PowerRow per (cutoff_source, cutoff) pair in ``cutoffs``.

    The hypothesis's statistics are drawn once, from the cell's
    "evaluate" streams, and compared against every cutoff.
    """
    reps = int(reps)
    streams = ReplicationStreams(seed, "evaluate", hypothesis, law.N, n, config.modes)
    stats = _collect_statistics(
        law, config, basis, hypothesis, n, reps, streams, standardize_first=standardize_first
    )
    return [
        PowerRow(
            N=law.N, n=n, m=config.m, modes=config.modes,
            cutoff_source=source, hypothesis=hypothesis,
            rejection_rate=int((stats > cutoff).sum()) / reps,
            reps=reps, seed=int(seed),
        )
        for source, cutoff in cutoffs
    ]


def estimate_rejection(
    N: float,
    n: int,
    config: SteinTestConfig,
    hypothesis: str,
    cutoff: float,
    reps: int,
    seed: int,
    cutoff_source: str = CALIBRATED,
    standardize_first: bool = False,
) -> PowerRow:
    """Fraction of replications whose statistic exceeds the cutoff.

    Null replications come from the exact law, alternative replications
    from the standard Gaussian; both are already location/scale aligned
    by construction, so by default the statistic is evaluated on the raw
    draws. Pair any ``standardize_first`` choice with a cutoff calibrated
    the same way.
    """
    N, n = _check_cell_args(N, n, config)
    hypothesis = _normalize_hypothesis(hypothesis)
    if cutoff_source not in (THEORETICAL, CALIBRATED):
        raise ConfigError(f"cutoff_source must be theoretical or calibrated, got {cutoff_source!r}")
    cutoff = float(cutoff)
    if not math.isfinite(cutoff) or cutoff <= 0.0:
        raise ConfigError(f"cutoff must be a positive real, got {cutoff!r}")
    if int(reps) < 1:
        raise ConfigError("reps must be positive")
    (row,) = _evaluate(
        FiniteNLaw(N), config, config.build_basis(), n, hypothesis, reps, seed,
        ((cutoff_source, cutoff),), standardize_first=standardize_first,
    )
    return row


# ----------------------------------------------------------------------
# Grid runner
# ----------------------------------------------------------------------

def _grid_cell(args) -> CellResult:
    spec, (N, n, m) = args
    config = SteinTestConfig(N=N, m=m, level=spec.level)
    law = FiniteNLaw(N)
    basis = config.build_basis()
    cutoff_cal = calibrate(N, n, config, spec.calib_reps, spec.master_seed)
    cutoff_th = config.theoretical_cutoff()
    entry = CalibrationEntry(
        N=N, n=n, m=m, level=spec.level,
        cutoff=cutoff_cal, reps=spec.calib_reps, seed=spec.master_seed,
    )
    cutoffs = ((THEORETICAL, cutoff_th), (CALIBRATED, cutoff_cal))
    rows = []
    for hypothesis in (H0, H1):
        rows += _evaluate(
            law, config, basis, n, hypothesis, spec.eval_reps, spec.master_seed, cutoffs
        )
    return CellResult(calibration=entry, rows=tuple(rows))


def run_grid(spec: GridSpec, workers: int = 1, on_cell=None, progress=None) -> GridResult:
    """Run every (N, n, m) cell of the grid.

    Cells execute independently (optionally across ``workers`` processes)
    and are reduced in deterministic cell order. ``on_cell`` receives each
    CellResult as it becomes available; ``progress`` receives short status
    strings. Interruption or memory exhaustion yields a truncated but
    valid result with ``complete=False``.
    """
    cells = spec.cells()
    total = len(cells)
    results: list[CellResult] = []
    complete = True

    def _consume(iterator):
        for index, result in enumerate(iterator):
            results.append(result)
            if on_cell is not None:
                on_cell(result)
            if progress is not None:
                N, n, m = cells[index]
                progress(f"cell {index + 1}/{total} (N={N:g}, n={n}, m={m}) done")

    try:
        if workers <= 1:
            _consume(_grid_cell((spec, cell)) for cell in cells)
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                _consume(pool.map(_grid_cell, [(spec, cell) for cell in cells]))
    except (KeyboardInterrupt, MemoryError):
        complete = False

    rows = tuple(row for cell in results for row in cell.rows)
    table = CalibrationTable(tuple(cell.calibration for cell in results))
    return GridResult(rows=rows, calibration=table, complete=complete)


# ----------------------------------------------------------------------
# Deterministic tables
# ----------------------------------------------------------------------

def sanov_table(N_values, n_values) -> np.ndarray:
    """Large-deviation power proxy 1 - exp(-n * KL) on the cross product.

    Rows follow N_values, columns follow n_values; fully deterministic.
    """
    laws = [FiniteNLaw(N) for N in N_values]
    n_list = [int(n) for n in n_values]
    if any(n < 0 for n in n_list):
        raise DomainError("sample sizes must be nonnegative")
    return np.array([[law.sanov_power_proxy(n) for n in n_list] for law in laws])


def power_boundary(N_values, target_power: float) -> list[tuple[float, int]]:
    """Smallest n with sanov power proxy >= target, for each N."""
    target = float(target_power)
    if not 0.0 < target < 1.0:
        raise DomainError(f"target power must lie in (0, 1), got {target_power!r}")
    out = []
    for N in N_values:
        kl = FiniteNLaw(N).kl_to_gaussian()
        n_star = max(1, math.ceil(-math.log1p(-target) / kl))
        out.append((float(N), int(n_star)))
    return out


# ----------------------------------------------------------------------
# EDF comparison
# ----------------------------------------------------------------------

def _compare_stats(law, config, basis, hypothesis, n, reps, streams, standardize_first):
    """Per-replication statistics of all four tests on shared draws."""
    out = {name: np.empty(reps) for name in COMPARE_TESTS}
    for sl, x in _chunks(law, hypothesis, n, reps, streams):
        if standardize_first:
            x = standardize(x)
        out["stein"][sl] = batch_statistic(x, config, basis)
        ks, cvm, ad = batch_edf_statistics(x, law)
        out["ks"][sl], out["cvm"][sl], out["ad"][sl] = ks, cvm, ad
    return out


def compare_edf(
    N: float,
    n_values,
    m: int = 4,
    reps: int = 2_000,
    seed: int = 0,
    level: float = 0.05,
    standardize_first: bool = True,
) -> list[CompareRow]:
    """Calibrated power of the targeted test and the three EDF baselines.

    Every test sees the identical pipeline: shared per-replication draws,
    the same standardisation treatment, and its own Monte Carlo cutoff
    calibrated under the null at the given level, so the comparison is
    fair by construction.
    """
    config = SteinTestConfig(N=N, m=m, level=level)
    if int(reps) < 1000:
        raise ConfigError(f"comparison requires at least 1000 replications, got {reps!r}")
    reps = int(reps)
    law = FiniteNLaw(float(N))
    basis = config.build_basis()
    rows: list[CompareRow] = []
    for n in n_values:
        n = int(n)
        if n < 2:
            raise ConfigError("comparison requires n >= 2")
        cal_streams = ReplicationStreams(seed, "compare-calibrate", float(N), n, config.modes)
        null_stats = _compare_stats(law, config, basis, H0, n, reps, cal_streams, standardize_first)
        cutoffs = {name: empirical_cutoff(null_stats[name], level) for name in COMPARE_TESTS}
        eval_streams = ReplicationStreams(seed, "compare-evaluate", float(N), n, config.modes)
        alt_stats = _compare_stats(law, config, basis, H1, n, reps, eval_streams, standardize_first)
        for name in COMPARE_TESTS:
            rejections = int((alt_stats[name] > cutoffs[name]).sum())
            rows.append(CompareRow(test_name=name, n=n, calibrated_power=rejections / reps))
    return rows


# ----------------------------------------------------------------------
# Serialisation: one CSV column or JSON key per dataclass field, in field
# order; floats keep 6 significant digits, mode tuples are "4+6" in CSV
# and [4, 6] in JSON.
# ----------------------------------------------------------------------

def _csv_header(record_type) -> str:
    return ",".join(f.name for f in fields(record_type))


POWER_CSV_HEADER = _csv_header(PowerRow)
CALIBRATION_CSV_HEADER = _csv_header(CalibrationEntry)
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
        "calibration": records_to_json(result.calibration.entries),
        "complete": result.complete,
    }
