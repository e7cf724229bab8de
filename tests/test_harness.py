import concurrent.futures
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from finiten import FiniteNLaw, harness, power_boundary, sanov_table
from finiten.errors import ConfigError, DomainError
from finiten.harness import (
    CALIBRATED,
    H0,
    H1,
    THEORETICAL,
    CalibrationEntry,
    CompareRow,
    GridResult,
    GridSpec,
    PowerRow,
    ReplicationStreams,
    calibrate,
    compare_edf,
    compare_rows_to_csv,
    empirical_cutoff,
    estimate_rejection,
    grid_result_to_csv,
    grid_result_to_json,
    records_to_csv,
    records_to_json,
    run_grid,
)
from finiten.edf import _edf_statistics
from finiten.stein_test import SteinTestConfig, _running_statistics, batch_statistic, standardize
from finiten.workspace import Workspace

# Reference values for the closed-form large-deviation table.
SANOV_N_VALUES = (4, 5, 6, 8, 10, 15, 20)
SANOV_N_SIZES = (10, 50, 100, 200, 400, 600, 800, 1000, 2000)
SANOV_TABLE = {
    4: (0.555, 0.983, 1.000, 1.000, 1.000, 1.000, 1.000, 1.000, 1.000),
    5: (0.370, 0.901, 0.990, 1.000, 1.000, 1.000, 1.000, 1.000, 1.000),
    6: (0.257, 0.774, 0.949, 0.997, 1.000, 1.000, 1.000, 1.000, 1.000),
    8: (0.141, 0.533, 0.782, 0.953, 0.998, 1.000, 1.000, 1.000, 1.000),
    10: (0.088, 0.370, 0.603, 0.842, 0.975, 0.996, 0.999, 1.000, 1.000),
    15: (0.038, 0.174, 0.318, 0.534, 0.783, 0.899, 0.953, 0.978, 1.000),
    20: (0.021, 0.099, 0.188, 0.340, 0.564, 0.712, 0.810, 0.875, 0.984),
}


def test_streams_are_deterministic_and_distinct():
    # one stream per (seed, phase, N, n, block)
    a = ReplicationStreams(7, "calibrate", 5.0, 100)
    b = ReplicationStreams(7, "calibrate", 5.0, 100)
    assert np.array_equal(a.rng(3).standard_normal(8), b.rng(3).standard_normal(8))
    assert not np.array_equal(a.rng(3).standard_normal(8), a.rng(4).standard_normal(8))
    others = [
        ReplicationStreams(7, "evaluate", 5.0, 100),
        ReplicationStreams(7, "evaluate", H0, 5.0, 100),
        ReplicationStreams(7, "evaluate", H1, 5.0, 100),
        ReplicationStreams(8, "calibrate", 5.0, 100),
        ReplicationStreams(7, "calibrate", 6.0, 100),
        ReplicationStreams(7, "calibrate", 5.0, 101),
    ]
    first = a.rng(3).standard_normal(8)
    for other in others:
        assert not np.array_equal(first, other.rng(3).standard_normal(8))
    with pytest.raises(ConfigError, match="unsupported stream tag type: bytes"):
        ReplicationStreams(0, b"x")


# First two raw 64-bit outputs of blocks 0 and 3 for every phase key at
# seed 2024, N = 5, n = 50. A change here changes every simulated number.
PINNED_STREAMS = {
    ("calibrate",): ((6582826036391492040, 9009554873290623611),
                     (2367320927700028376, 8269519502058401952)),
    ("evaluate", H0): ((9842381808202359847, 17120528578209084237),
                       (197815946654787135, 6532474628591399746)),
    ("evaluate", H1): ((688055413160965249, 9513372172467943611),
                       (5492746643669311364, 12922394331744744313)),
    ("compare-calibrate",): ((18201460588009081567, 11383355675181216610),
                             (16625482165167682146, 9254416253588637886)),
    ("compare-evaluate",): ((4923785712653635277, 4084913236454809253),
                            (15098034830277433875, 615236090731365369)),
}


@pytest.mark.parametrize("phase", sorted(PINNED_STREAMS))
def test_stream_keys_are_pinned(phase):
    streams = ReplicationStreams(2024, *phase, 5.0, 50)
    for block, expected in zip((0, 3), PINNED_STREAMS[phase]):
        assert tuple(streams.rng(block).bit_generator.random_raw(2).tolist()) == expected


# Per seed: calibrate(50, N = 5, m = 6, 1000 reps) cutoffs (raw, standardised)
# and estimate_rejection(50, same config, chi-squared cutoff, 1000 reps) rates
# (h0, h1). The stream pins above hash only the tags they are given; these
# fail when a phase draws from a stream under another tag.
PINNED_PHASE_RESULTS = {
    3: ((5.966147721042138, 26.288380338966725), (0.058, 0.736)),
    2026: ((6.072266149736082, 25.689306213588637), (0.046, 0.736)),
}


@pytest.mark.parametrize("seed", sorted(PINNED_PHASE_RESULTS))
def test_calibrate_and_evaluate_draws_are_pinned(seed):
    config = SteinTestConfig(N=5.0, m=6)
    cutoffs, rates = PINNED_PHASE_RESULTS[seed]
    assert [calibrate(50, config, 1000, seed, standardize_first=standardize)
            for standardize in (False, True)] == pytest.approx(cutoffs, rel=1e-12)
    assert tuple(
        estimate_rejection(50, config, h, config.theoretical_cutoff(), 1000, seed).rejection_rate
        for h in (H0, H1)
    ) == rates


def test_replications_are_a_prefix_of_longer_runs():
    # 1000 and 1500 both end inside a block (512 * 2 and 512 * 3)
    assert 1000 % harness.BLOCK and 1500 % harness.BLOCK
    config = SteinTestConfig(N=5.0, m=6)

    def statistics(hypothesis, reps, tags):
        return harness._statistics(_running_statistics, config, hypothesis, 20, reps, 4, tags,
                                   False, Workspace())

    short = statistics(H0, 1000, ("calibrate",))
    long = statistics(H0, 1500, ("calibrate",))
    assert np.array_equal(short, long[:, :1000])
    for hypothesis in (H0, H1):
        short = statistics(hypothesis, 1000, ("evaluate", hypothesis))
        long = statistics(hypothesis, 1500, ("evaluate", hypothesis))
        assert np.array_equal(short, long[:, :1000])


@pytest.mark.parametrize("kernel", [_running_statistics, harness._compare_kernel],
                         ids=["running_statistics", "_compare_kernel"])
@pytest.mark.parametrize("standardize", [False, True])
def test_tiling_changes_no_statistic(monkeypatch, kernel, standardize):
    # 600 replications end inside the second block, and the default tile of
    # n = 300 holds 218 rows, so the unpatched run already splits each block
    config, n, reps = SteinTestConfig(N=20.0, m=6), 300, 600
    assert reps % harness.BLOCK and harness.TILE // n < harness.BLOCK

    def statistics(hypothesis):
        return harness._statistics(kernel, config, hypothesis, n, reps, 5, ("tiles", hypothesis),
                                   standardize, Workspace())

    expected = {h: statistics(h) for h in (H0, H1)}
    # one row per tile; 3 rows, which do not divide a block; one whole block
    for tile in (1, 3 * n, harness.BLOCK * n):
        monkeypatch.setattr(harness, "TILE", tile)
        tiles = harness._blocks(config, H0, n, reps, 5, ("tiles",), False, Workspace())
        rows = [x.shape[0] for x in tiles]
        assert max(rows) == min(max(1, tile // n), harness.BLOCK) and sum(rows) == reps
        for h in (H0, H1):
            assert np.array_equal(statistics(h), expected[h]), (tile, h)


@pytest.mark.parametrize("tile", ["default", "below-one-row"])
@pytest.mark.parametrize("hypothesis, standardize_first",
                         [(H0, False), (H0, True), (H1, False), (H1, True)])
def test_workspace_path_matches_the_public_functions(monkeypatch, tile, hypothesis,
                                                     standardize_first):
    # 600 replications of n = 300: default tiles of 218, 218 and 76 rows, then
    # 88, so a tile grows back inside buffers a shorter one used last; mode 3
    # runs the odd pass and its product buffer
    config, n, reps, seed, tags = SteinTestConfig(N=20.0, m=6, modes=(3, 4, 6)), 300, 600, 5, ("ws",)
    if tile != "default":
        monkeypatch.setattr(harness, "TILE", n // 2)
    rows = max(1, harness.TILE // n)
    streams = ReplicationStreams(seed, *tags, config.N, n)
    draw = config.law.sample if hypothesis == H0 else config.law.sample_gaussian_alternative

    def public_tiles():
        for block, start in enumerate(range(0, reps, harness.BLOCK)):
            rng = streams.rng(block)
            end = min(start + harness.BLOCK, reps)
            for first in range(start, end, rows):
                x = draw(min(rows, end - first) * n, rng).reshape(-1, n)
                yield standardize(x) if standardize_first else x

    work = Workspace()
    tiles = harness._blocks(config, hypothesis, n, reps, seed, tags, standardize_first, work)
    count = 0
    for x, want in zip(tiles, public_tiles(), strict=True):
        assert np.array_equal(x, want)
        assert np.array_equal(_running_statistics(x, config, work),
                              _running_statistics(want, config, Workspace()))
        edf = _edf_statistics(want, config.law, Workspace())
        assert np.array_equal(harness._compare_kernel(x, config, work),
                              np.vstack([batch_statistic(want, config), *edf]))
        assert np.array_equal(x, want)  # the kernels left the tile alone
        count += x.shape[0]
    assert count == reps


_PHASE_FAULTS = """
import resource, sys
from finiten import harness
from finiten.stein_test import SteinTestConfig, _running_statistics
from finiten.workspace import Workspace

config = SteinTestConfig(N=20.0, m=4)

def phase(kernel, hypothesis, standardize):
    return lambda reps: harness._statistics(kernel, config, hypothesis, 500, reps, 1, ("faults",),
                                            standardize, Workspace())

def grid_pair(reps):
    spec = harness.GridSpec(N_values=(20.0,), n_values=(500,), m_values=(4,), calib_reps=reps,
                            eval_reps=reps)
    harness._grid_pair((spec, (20.0, 500)))

desk = phase(_running_statistics, "h0", False)

def faults(run, blocks):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run(blocks * harness.BLOCK)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

if sys.argv[1] == "grid":
    faults(desk, 4), faults(grid_pair, 4)  # the first use of every code path
    print(faults(desk, 4), faults(grid_pair, 4))
else:
    run = desk if sys.argv[1] == "desk" else phase(harness._compare_kernel, "h1", True)
    faults(run, 4)
    print(faults(run, 4), faults(run, 40))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
@pytest.mark.parametrize("phase", ["desk", "compare", "grid"])
def test_phase_page_faults_do_not_grow_with_its_tiles(phase):
    # n = 500 takes 4 tiles per block, so 40 blocks have 144 tiles more than
    # 4 blocks; a kernel that makes new tile-sized arrays faults their pages
    # in again on every tile (about 550 faults per tile), while reused
    # buffers fault once a unit of work. The results themselves grow with
    # the reps. A grid's (N, n) pair runs three phases of desk's size on one
    # workspace, so it faults about as often as one phase, not three times.
    result = subprocess.run([sys.executable, "-c", _PHASE_FAULTS, phase], capture_output=True,
                            text=True, timeout=120, env=os.environ)
    assert result.returncode == 0, result.stderr
    few, many = map(int, result.stdout.split())
    if phase == "grid":
        assert many < 1.5 * few, (few, many)
    else:
        assert many - few < 20 * (40 - 4) * 4, (few, many)


def test_monte_carlo_peak_memory_does_not_scale_with_the_block():
    # one 512-row block of n = 2000 draws alone is 8 MB; tiles hold 0.5 MB
    def peak_mb(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    assert peak_mb(lambda: compare_edf(20.0, [2000], reps=1000, seed=1)) < 8.0
    assert peak_mb(lambda: calibrate(500, SteinTestConfig(N=5, m=10), 2000, 1)) < 6.0


def test_empirical_cutoff_order_statistic():
    stats = np.arange(1.0, 101.0)  # 1..100
    assert empirical_cutoff(stats, 0.05) == 96.0  # ceil(0.95 * 101)
    assert empirical_cutoff(stats, 0.5) == 51.0  # upper median
    assert empirical_cutoff(stats, 1e-6) == 100.0  # rank clamped to R
    shuffled = np.random.default_rng(0).permutation(stats)
    assert empirical_cutoff(shuffled, 0.05) == 96.0
    with pytest.raises(DomainError):
        empirical_cutoff(np.array([]), 0.05)
    with pytest.raises(ConfigError):
        empirical_cutoff(stats, 1.5)


def test_calibrate_determinism_and_validation():
    config = SteinTestConfig(N=5, m=4)
    first = calibrate(50, config, 1000, seed=42)
    second = calibrate(50, config, 1000, seed=42)
    assert first == second
    assert first > 0.0
    assert calibrate(50, config, 1000, seed=43) != first
    with pytest.raises(ConfigError):
        calibrate(50, config, 999, seed=1)


def test_calibrated_cutoff_approaches_chi2():
    # the null law converges, so the calibrated cutoff approaches the
    # chi-squared 95% point 3.84 for one mode
    config = SteinTestConfig(N=5, m=4)
    cutoff = calibrate(500, config, 20_000, seed=7)
    assert cutoff == pytest.approx(3.8414588, abs=0.10)


def test_estimate_rejection_tautology_and_exactness():
    config = SteinTestConfig(N=5, m=4)
    cutoff = calibrate(100, config, 5_000, seed=11)
    row = estimate_rejection(100, config, H0, cutoff, 5_000, seed=11)
    assert row.hypothesis == H0 and row.cutoff_source == CALIBRATED
    # calibrated size is close to the nominal level on fresh draws
    se = math.sqrt(0.05 * 0.95 / 5_000)
    assert abs(row.rejection_rate - 0.05) < 4.0 * se
    # the rate is an exact fraction rejections / reps
    assert row.rejection_rate * row.reps == pytest.approx(
        round(row.rejection_rate * row.reps), abs=1e-9
    )
    again = estimate_rejection(100, config, H0, cutoff, 5_000, seed=11)
    assert row == again


def test_estimate_rejection_validation():
    config = SteinTestConfig(N=5, m=4)
    with pytest.raises(ConfigError):
        estimate_rejection(50, config, "h2", 3.8, 100, seed=0)
    with pytest.raises(ConfigError):
        estimate_rejection(50, config, H0, -1.0, 100, seed=0)


def test_grid_spec_defaults_follow_protocol():
    spec = GridSpec()
    assert spec.N_values == tuple(float(N) for N in range(5, 21))
    assert spec.n_values == tuple(range(10, 201, 10)) + tuple(range(250, 501, 50))
    assert spec.m_values == (4, 6, 8, 10)
    assert spec.level == 0.05
    assert spec.calib_reps == 50_000 and spec.eval_reps == 20_000
    with pytest.raises(DomainError):
        GridSpec(N_values=(2.0,))
    with pytest.raises(ConfigError):
        GridSpec(calib_reps=10)
    with pytest.raises(ConfigError, match="must be nonempty"):
        GridSpec(n_values=())


@pytest.mark.parametrize(
    "axis, values",
    [("N_values", (5.0, 20.0, 5)), ("n_values", (10, 50, 10.0)), ("m_values", (4, 4))],
)
def test_grid_spec_rejects_duplicate_axis_values(axis, values):
    with pytest.raises(ConfigError, match=f"{axis} has duplicate values"):
        GridSpec(**{axis: values})


def _tiny_spec(seed=123):
    return GridSpec(
        N_values=(5.0,),
        n_values=(10, 20),
        m_values=(4,),
        calib_reps=1_000,
        eval_reps=500,
        master_seed=seed,
    )


def test_run_grid_composition_matches_direct_calls():
    # all m of an (N, n) pair share draws, yet each row is what direct
    # calls with that m's config give
    spec = GridSpec(
        N_values=(5.0,), n_values=(50,), m_values=(4, 6, 10),
        calib_reps=1_000, eval_reps=500, master_seed=99,
    )
    result = run_grid(spec)
    assert result.complete
    assert len(result.rows) == 4 * len(spec.m_values)
    expected = {}
    for m in spec.m_values:
        config = SteinTestConfig(N=5.0, m=m, level=spec.level)
        cutoff = calibrate(50, config, spec.calib_reps, spec.master_seed)
        (entry,) = [e for e in result.calibration if e.m == m]
        assert entry.cutoff == cutoff
        for hypothesis in (H0, H1):
            for value in (None, cutoff):
                row = estimate_rejection(50, config, hypothesis, value, spec.eval_reps,
                                         spec.master_seed)
                expected[(m, hypothesis, row.cutoff_source)] = row
    for row in result.rows:
        assert row == expected[(row.m, row.hypothesis, row.cutoff_source)]


def test_run_grid_worker_count_invariance():
    # several m per (N, n) pair, and replication counts that end inside a block
    spec = GridSpec(
        N_values=(5.0, 20.0), n_values=(10, 30), m_values=(4, 6),
        calib_reps=1_100, eval_reps=700, master_seed=5,
    )
    assert spec.calib_reps % harness.BLOCK and spec.eval_reps % harness.BLOCK
    serial = run_grid(spec, workers=1)
    parallel = run_grid(spec, workers=2)
    assert serial.complete and parallel.complete
    assert grid_result_to_csv(serial) == grid_result_to_csv(parallel)
    assert records_to_csv(CalibrationEntry, serial.calibration) == records_to_csv(
        CalibrationEntry, parallel.calibration
    )
    assert serial.rows == parallel.rows


def test_run_grid_reports_progress_and_streams_cells():
    spec = _tiny_spec()
    seen_cells = []
    result = run_grid(spec, on_cell=seen_cells.append)
    assert [cell.calibration for cell in seen_cells] == list(result.calibration)
    assert [(e.N, e.n, e.m) for e in result.calibration] == spec.cells()
    assert "# complete=true" in grid_result_to_csv(result)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: runs each submitted pair at once,
    in this process, and forks nothing."""

    def __init__(self, max_workers, **options):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def shutdown(self, wait=True, cancel_futures=False):
        pass

    def submit(self, fn, item):
        future = Future()
        future.set_result(fn(item))
        return future


def test_run_grid_hands_the_pool_largest_n_first_and_reports_in_spec_order(monkeypatch):
    submitted = []

    class RecordingPool(_InlinePool):
        def submit(self, fn, item):
            submitted.append(item[1])
            return super().submit(fn, item)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    spec = GridSpec(N_values=(5.0, 10.0), n_values=(10, 500, 50), m_values=(4, 6),
                    calib_reps=1_000, eval_reps=100, master_seed=8)
    seen = []
    result = run_grid(spec, workers=2, on_cell=seen.append)
    assert submitted == [(5.0, 500), (10.0, 500), (5.0, 50), (10.0, 50), (5.0, 10), (10.0, 10)]
    assert [(e.N, e.n, e.m) for e in result.calibration] == spec.cells()
    assert [cell.calibration for cell in seen] == list(result.calibration)
    assert grid_result_to_csv(result) == grid_result_to_csv(run_grid(spec, workers=1))


def test_run_grid_clamps_pool_to_cell_count(monkeypatch):
    pool_sizes = []

    class InProcessPool(_InlinePool):
        def __init__(self, max_workers, **options):
            pool_sizes.append(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    spec = replace(_tiny_spec(), m_values=(4, 6))  # 2 (N, n) pairs, 4 cells
    result = run_grid(spec, workers=64)
    assert pool_sizes == [2]
    assert grid_result_to_csv(result) == grid_result_to_csv(run_grid(spec, workers=1))
    run_grid(replace(spec, n_values=(10,)), workers=64)  # one pair: no pool at all
    assert pool_sizes == [2]


def test_run_grid_keeps_finished_pairs_when_a_worker_dies(monkeypatch):
    class DyingPool(_InlinePool):
        """Gives the first result asked for, then fails as a pool whose
        worker the OOM killer ended."""

        def __init__(self, max_workers, **options):
            self.delivered = False

        def submit(self, fn, item):
            pool = self

            class Doomed:
                def result(self):
                    if pool.delivered:
                        raise BrokenProcessPool("a worker process terminated abruptly")
                    pool.delivered = True
                    return fn(item)

            return Doomed()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DyingPool)
    spec = replace(_tiny_spec(), m_values=(4, 6))  # 2 (N, n) pairs, 4 cells
    seen = []
    result = run_grid(spec, workers=2, on_cell=seen.append)
    assert not result.complete
    first = replace(spec, n_values=spec.n_values[:1])
    expected = run_grid(first, workers=1)
    assert result.calibration == expected.calibration and len(result.calibration) == 2
    assert result.rows == expected.rows
    assert [cell.calibration for cell in seen] == list(expected.calibration)
    assert grid_result_to_csv(result).endswith("# complete=false\n")


@pytest.mark.parametrize("standardize", [True, False])
def test_compare_edf_rows_are_the_same_on_two_processes(standardize):
    run = functools.partial(compare_edf, 5.0, (40, 130), reps=1_100, seed=9,
                            standardize_first=standardize)
    assert run(workers=2) == run(workers=1)


def test_compare_edf_clamps_pool_to_unit_count(monkeypatch):
    pool_sizes = []

    class InProcessPool(_InlinePool):
        def __init__(self, max_workers, **options):
            pool_sizes.append(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    rows = compare_edf(5.0, (30, 60), reps=1_000, seed=2, workers=64)
    assert pool_sizes == [4]  # two (n, phase) units per n
    assert rows == compare_edf(5.0, (30, 60), reps=1_000, seed=2, workers=1)


def test_compare_edf_hands_the_pool_largest_n_first_and_reports_in_n_order(monkeypatch):
    submitted = []

    class RecordingPool(_InlinePool):
        def submit(self, fn, item):
            submitted.append((item[1], item[-1][0]))
            return super().submit(fn, item)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    rows = compare_edf(5.0, (30, 90, 60), reps=1_000, seed=4, workers=2)
    assert submitted == [(90, H0), (90, H1), (60, H0), (60, H1), (30, H0), (30, H1)]
    assert [row.n for row in rows] == [30] * 4 + [90] * 4 + [60] * 4
    assert rows == compare_edf(5.0, (30, 90, 60), reps=1_000, seed=4, workers=1)


def test_compare_edf_raises_when_a_worker_dies(monkeypatch):
    # unlike a grid, a comparison has no partial result: a lost worker
    # after the first unit still gives no rows
    class DyingPool(_InlinePool):
        def __init__(self, max_workers, **options):
            self.submitted = 0

        def submit(self, fn, item):
            self.submitted += 1
            if self.submitted == 1:
                return super().submit(fn, item)
            future = Future()
            future.set_exception(BrokenProcessPool("a worker process terminated abruptly"))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DyingPool)
    with pytest.raises(BrokenProcessPool):
        compare_edf(5.0, (30, 60), reps=1_000, seed=2, workers=2)


def test_sanov_table_reproduces_reference_values():
    table = sanov_table(SANOV_N_VALUES, SANOV_N_SIZES)
    for i, N in enumerate(SANOV_N_VALUES):
        for j in range(len(SANOV_N_SIZES)):
            assert table[i, j] == pytest.approx(SANOV_TABLE[N][j], abs=1e-3)
    # strictly increasing along n and strictly decreasing along N, with
    # ties only where the proxy has saturated to 1.0 in floating point
    diff_n = np.diff(table, axis=1)
    assert np.all(diff_n >= 0)
    assert np.all(diff_n[table[:, 1:] < 1.0] > 0)
    diff_N = np.diff(table, axis=0)
    assert np.all(diff_N <= 0)
    assert np.all(diff_N[table[1:, :] < 1.0] < 0)


def test_power_boundary():
    pairs = power_boundary((5.0,), 0.8)
    assert pairs == [(5.0, 35)]
    assert power_boundary((5.0,), 1e-12)[0][1] == 1
    boundary = power_boundary(tuple(float(N) for N in range(4, 21)), 0.8)
    sizes = [n for _, n in boundary]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    with pytest.raises(DomainError):
        power_boundary((5.0,), 1.0)


def test_sanov_and_boundary_refuse_empty_axes():
    for call, name in ((lambda: sanov_table([], [10]), "N_values"),
                       (lambda: sanov_table([5.0], ()), "n_values"),
                       (lambda: power_boundary([], 0.8), "N_values")):
        with pytest.raises(ConfigError, match=f"^{name} must be nonempty$"):
            call()


def test_sanov_and_boundary_monotone_in_N_up_to_1e8():
    N_values = np.geomspace(4.0, 1e8, 241)
    kl = [FiniteNLaw(N).kl_to_gaussian() for N in N_values]
    assert all(0.0 < b < a for a, b in zip(kl, kl[1:]))
    table = sanov_table(N_values, [10, 1000, 10**6])
    assert np.all(table > 0.0)
    assert np.all(np.diff(table, axis=0)[table[1:] < 1.0] < 0.0)
    sizes = [n for _, n in power_boundary(N_values, 0.8)]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    # KL ~ 3/(4 N^2), so n* ~ 4 N^2 log(5) / 3 at large N
    assert sizes[-1] == pytest.approx(4e16 * math.log(5.0) / 3.0, rel=1e-6)


@pytest.mark.parametrize("N", [1e154, 3e154])
def test_power_boundary_refuses_an_n_star_beyond_floats(N):
    # KL underflows: it is subnormal at 1e154 and 0 at 3e154
    with pytest.raises(DomainError, match=r"^n_star at N=.* exceeds the float range$"):
        power_boundary([5.0, N], 0.8)


# compare_edf(20, [300, 600], reps=1000) rows as (stein, ks, cvm, ad) powers
# per n, recorded when the block streams became SFC64
PINNED_COMPARE_ROWS = {
    (3, True): ((0.287, 0.066, 0.08, 0.1), (0.432, 0.087, 0.129, 0.159)),
    (3, False): ((0.31, 0.036, 0.048, 0.051), (0.443, 0.059, 0.05, 0.048)),
    (2026, True): ((0.291, 0.095, 0.095, 0.113), (0.458, 0.086, 0.116, 0.145)),
    (2026, False): ((0.314, 0.054, 0.052, 0.059), (0.45, 0.051, 0.05, 0.049)),
}


@pytest.mark.parametrize("seed, standardize", sorted(PINNED_COMPARE_ROWS))
def test_compare_edf_rows_are_pinned(seed, standardize):
    rows = compare_edf(20.0, [300, 600], reps=1000, seed=seed, standardize_first=standardize)
    expected = [
        CompareRow(test_name=name, n=n, calibrated_power=power)
        for n, powers in zip((300, 600), PINNED_COMPARE_ROWS[seed, standardize])
        for name, power in zip(("stein", "ks", "cvm", "ad"), powers)
    ]
    assert rows == expected


def test_compare_edf_schema_and_determinism():
    rows = compare_edf(5.0, (50, 100), m=4, reps=1_000, seed=3)
    assert [(r.test_name, r.n) for r in rows] == [
        ("stein", 50), ("ks", 50), ("cvm", 50), ("ad", 50),
        ("stein", 100), ("ks", 100), ("cvm", 100), ("ad", 100),
    ]
    assert all(0.0 <= r.calibrated_power <= 1.0 for r in rows)
    again = compare_edf(5.0, (50, 100), m=4, reps=1_000, seed=3)
    assert rows == again
    with pytest.raises(ConfigError):
        compare_edf(5.0, (50,), reps=10)


def test_compare_edf_validates_every_n_before_simulating(monkeypatch):
    def no_streams(self, rep):
        raise AssertionError("a replication stream was built")

    monkeypatch.setattr(ReplicationStreams, "rng", no_streams)
    with pytest.raises(ConfigError):
        compare_edf(20.0, [200, 1], reps=1000)
    with pytest.raises(ConfigError):
        compare_edf(20.0, [200, 10.7], reps=1000)
    with pytest.raises(ConfigError, match="n_values has duplicate values"):
        compare_edf(20.0, [50, 50], reps=1000)
    with pytest.raises(ConfigError, match="n_values must be nonempty"):
        compare_edf(20.0, [], reps=1000)


def test_standardised_calibration_refuses_two_points_before_any_draw(monkeypatch):
    # every standardised pair is (-1, 1), so its T is one constant plus rounding
    def no_streams(self, rep):
        raise AssertionError("a replication stream was built")

    config = SteinTestConfig(N=5, m=4)
    monkeypatch.setattr(ReplicationStreams, "rng", no_streams)
    with pytest.raises(ConfigError, match="^sample size must be an integer >= 3, got 2$"):
        calibrate(2, config, 1000, 1, standardize_first=True)
    with pytest.raises(ConfigError,
                       match="^comparison sample size must be an integer >= 3, got 2$"):
        compare_edf(5.0, [50, 2], reps=1000)
    monkeypatch.undo()
    # the raw paths keep their floors, and three points run on both paths
    for n, standardize_first in ((2, False), (3, True)):
        assert math.isfinite(calibrate(n, config, 1000, 1, standardize_first=standardize_first))
        rows = compare_edf(5.0, [n], reps=1000, seed=1, standardize_first=standardize_first)
        assert [row.n for row in rows] == [n] * 4


def test_compare_pipeline_controls_size():
    # each test holds its own calibrated level on fresh null draws
    N, n, reps, level = 5.0, 100, 2_000, 0.05
    config = SteinTestConfig(N=N, m=4, level=level)

    def statistics(phase):
        return harness._statistics(harness._compare_kernel, config, H0, n, reps, 5, (phase,),
                                   True, Workspace())

    cal = statistics("compare-calibrate")
    assert cal.shape == (len(harness.COMPARE_TESTS), reps)
    se = math.sqrt(level * (1 - level) / reps)
    for null, fresh in zip(cal, statistics("size-check")):
        size = (fresh > empirical_cutoff(null, level)).mean()
        assert abs(size - level) < 4.0 * se


def test_power_row_csv_round_trip():
    rows = (
        PowerRow(N=5.0, n=100, m=4, modes=(4,), cutoff_source=THEORETICAL,
                 hypothesis=H0, rejection_rate=0.0512, reps=5000, seed=9),
        PowerRow(N=12.5, n=250, m=6, modes=(4, 6), cutoff_source=CALIBRATED,
                 hypothesis=H1, rejection_rate=0.8875, reps=2000, seed=9),
    )
    text = records_to_csv(PowerRow, rows)
    lines = text.strip().split("\n")
    assert lines[0] == "N,n,m,modes,cutoff_source,hypothesis,rejection_rate,reps,seed"
    parsed = []
    for line in lines[1:]:
        N, n, m, modes, source, hyp, rate, reps, seed = line.split(",")
        parsed.append(
            PowerRow(
                N=float(N), n=int(n), m=int(m), modes=tuple(int(k) for k in modes.split("+")),
                cutoff_source=source, hypothesis=hyp, rejection_rate=float(rate),
                reps=int(reps), seed=int(seed),
            )
        )
    assert records_to_csv(PowerRow, parsed) == text
    assert parsed[0] == rows[0]  # 6 significant digits preserve these rates exactly


def test_calibration_csv_round_trip():
    table = (CalibrationEntry(N=5.0, n=100, m=4, level=0.05, cutoff=3.84146, reps=50000, seed=1),)
    text = records_to_csv(CalibrationEntry, table)
    lines = text.strip().split("\n")
    assert lines[0] == "N,n,m,level,cutoff,reps,seed"
    fields = lines[1].split(",")
    rebuilt = (
        CalibrationEntry(
            N=float(fields[0]), n=int(fields[1]), m=int(fields[2]),
            level=float(fields[3]), cutoff=float(fields[4]),
            reps=int(fields[5]), seed=int(fields[6]),
        ),
    )
    assert records_to_csv(CalibrationEntry, rebuilt) == text
    assert rebuilt == table  # 6 significant digits preserve this cutoff exactly


def test_compare_rows_csv_schema():
    rows = compare_edf(5.0, (50,), m=4, reps=1_000, seed=1)
    text = compare_rows_to_csv(rows)
    assert text.startswith("test_name,n,calibrated_power\n")
    assert "stein,50," in text


def test_record_serialisation_bytes():
    power = (
        PowerRow(N=12.5, n=250, m=6, modes=(4, 6), cutoff_source=CALIBRATED,
                 hypothesis=H1, rejection_rate=2 / 3, reps=3000, seed=9),
    )
    entry = CalibrationEntry(N=5.0, n=100, m=4, level=0.05, cutoff=3.841458820694124,
                             reps=50000, seed=1)
    compare = (CompareRow(test_name="ad", n=50, calibrated_power=0.123456789),)
    result = GridResult(rows=power, calibration=(entry,), complete=False)
    assert grid_result_to_csv(result) == (
        "N,n,m,modes,cutoff_source,hypothesis,rejection_rate,reps,seed\n"
        "12.5,250,6,4+6,calibrated,h1,0.666667,3000,9\n"
        "# complete=false\n"
    )
    assert records_to_csv(CalibrationEntry, [entry]) == (
        "N,n,m,level,cutoff,reps,seed\n5,100,4,0.05,3.84146,50000,1\n"
    )
    assert compare_rows_to_csv(compare) == "test_name,n,calibrated_power\nad,50,0.123457\n"
    assert records_to_csv(CompareRow, []) == "test_name,n,calibrated_power\n"
    assert json.dumps(grid_result_to_json(result)) == (
        '{"rows": [{"N": 12.5, "n": 250, "m": 6, "modes": [4, 6], '
        '"cutoff_source": "calibrated", "hypothesis": "h1", '
        '"rejection_rate": 0.666667, "reps": 3000, "seed": 9}], '
        '"calibration": [{"N": 5.0, "n": 100, "m": 4, "level": 0.05, '
        '"cutoff": 3.84146, "reps": 50000, "seed": 1}], "complete": false}'
    )
    assert json.dumps(records_to_json(compare)) == (
        '[{"test_name": "ad", "n": 50, "calibrated_power": 0.123457}]'
    )


def test_desk_scale_grid_matches_reference_power():
    # scaled-replication run still lands on the reference power value
    spec = GridSpec(
        N_values=(5.0,), n_values=(100,), m_values=(4,),
        calib_reps=5_000, eval_reps=2_000, master_seed=77,
    )
    result = run_grid(spec)
    powers = {
        (row.hypothesis, row.cutoff_source): row.rejection_rate for row in result.rows
    }
    assert abs(powers[(H1, CALIBRATED)] - 0.886) <= 0.03
    assert abs(powers[(H0, CALIBRATED)] - 0.05) <= 0.02


def test_calibrated_power_monotone_in_n():
    # nondecreasing in n up to Monte Carlo noise (one-step dips <= 0.02)
    spec = GridSpec(
        N_values=(5.0,), n_values=(20, 50, 80, 100), m_values=(4,),
        calib_reps=5_000, eval_reps=2_000, master_seed=31,
    )
    result = run_grid(spec)
    powers = [
        row.rejection_rate
        for row in result.rows
        if row.hypothesis == H1 and row.cutoff_source == CALIBRATED
    ]
    assert len(powers) == 4
    assert all(b >= a - 0.02 for a, b in zip(powers, powers[1:]))


def test_power_stays_below_sanov_proxy():
    # the large-deviation proxy is an optimality benchmark for N >= 10
    for N, n in ((10.0, 50), (10.0, 100), (20.0, 100), (20.0, 500)):
        config = SteinTestConfig(N=N, m=4)
        cutoff = calibrate(n, config, 5_000, seed=17)
        row = estimate_rejection(n, config, H1, cutoff, 2_000, seed=17)
        proxy = FiniteNLaw(N).sanov_power_proxy(n)
        assert row.rejection_rate <= proxy + 0.05


@pytest.mark.slow
def test_calibrated_size_envelope_full_scale():
    # size within [0.044, 0.057] at the full replication counts
    config = SteinTestConfig(N=5, m=4)
    cutoff = calibrate(100, config, 50_000, seed=2024)
    row = estimate_rejection(100, config, H0, cutoff, 20_000, seed=2024)
    assert 0.044 <= row.rejection_rate <= 0.057


def test_standardised_calibration_refuses_modes_1_and_2_before_drawing(monkeypatch):
    config = SteinTestConfig(N=5, m=4, modes=(1, 2, 3, 4))
    assert calibrate(20, config, 1000, 1) > 0.0  # raw draws keep every mode

    def no_streams(self, block):
        raise AssertionError("a replication stream was built")

    monkeypatch.setattr(ReplicationStreams, "rng", no_streams)
    for modes in ((1, 3), (2, 4)):
        with pytest.raises(ConfigError, match="modes 1 and 2"):
            calibrate(20, SteinTestConfig(N=5, m=4, modes=modes), 1000, 1, standardize_first=True)
