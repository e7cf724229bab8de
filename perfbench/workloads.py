"""The three workloads: inputs from the seed, untraced and traced runs.

Untraced runs time the ``finiten`` command line in fresh processes, one at
a time (a closed loop with one client), and give the end-to-end metrics.
Traced runs do a fixed amount of the same work in-process with spans
around each module's entry points, so their counts repeat exactly, and
give the per-layer metrics. Only shares should be read from a traced run:
the wrappers slow it down (see ``trace.overhead_share``).
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from finiten import cli, harness
from finiten.harness import GridSpec

import checks
from spans import Tracer, instrument

PROBE = Path(__file__).resolve().parent / "probe.py"

END_TO_END = {
    "reps_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "harness.streams.calls": "count",
    "harness.streams.self_s": "s",
    "harness.streams.us_per_call": "us",
    "distribution.sample.calls": "count",
    "distribution.sample.self_s": "s",
    "distribution.sample.draws": "count",
    "distribution.gauss.calls": "count",
    "distribution.gauss.self_s": "s",
    "distribution.gauss.draws": "count",
    "stein_test.batch.self_s": "s",
    "stein_test.batch.rows": "count",
    "stein_test.poly_evals": "count",
    "distribution.cdf.self_s": "s",
    "distribution.cdf.points": "count",
    "edf.batch.self_s": "s",
    "edf.batch.rows": "count",
    "harness.cutoff.calls": "count",
    "harness.cutoff.self_s": "s",
    "harness.self_s": "s",
    "harness.cell_max_s": "s",
    "harness.scaling_eff": "ratio",
    "harness.ref_grid_proj_h": "h",
    "jacobi.basis.calls": "count",
    "jacobi.basis.self_s": "s",
    "stein_test.run_test.self_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "trace.overhead_share": "ratio",
    "trace.wall_s": "s",
}

# Percentiles tried for the latency tail, highest first.
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Every run ends within this many seconds of its start, whatever hangs.
_RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload; the defaults are the benchmark."""

    grid_N: tuple[float, ...] = (5.0, 10.0, 20.0)
    grid_n: tuple[int, ...] = (10, 50, 100, 500)
    grid_m: tuple[int, ...] = (4, 6, 8, 10)
    calib_reps: int = 5_000
    eval_reps: int = 2_000
    level: float = 0.05
    workers: int = 2
    compare_N: float = 20.0
    compare_n: tuple[int, ...] = (1000, 2000)
    compare_m: int = 4
    compare_reps: int = 2_000
    gate_N: float = 5.0
    gate_m: int = 4
    gate_points: int = 500
    setup_probes: int = 5
    import_probes: int = 3
    gate_calls: int = 200

    @property
    def cells(self) -> int:
        return len(self.grid_N) * len(self.grid_n) * len(self.grid_m)


@dataclass
class Outcome:
    """What one run measured and whether its outputs were right."""

    metrics: dict
    checks: list
    attempted: int
    failed: int
    notes: list
    workers: list


def _csv(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def program_argv(workload: str, seed: int, scale: Scale, work: Path) -> list[str]:
    """The finiten arguments for this workload; the program sees no benchmark seed."""
    rng = np.random.default_rng(seed)
    program_seed = str(int(rng.integers(2**31)))
    if workload == "desk-grid":
        return ["grid", "--N-values", _csv(scale.grid_N), "--n-values", _csv(scale.grid_n),
                "--m-values", _csv(scale.grid_m), "--level", f"{scale.level:g}",
                "--calib-reps", str(scale.calib_reps), "--eval-reps", str(scale.eval_reps),
                "--workers", str(scale.workers), "--seed", program_seed]
    if workload == "compare-large-n":
        return ["compare", "--N", f"{scale.compare_N:g}", "--n-values", _csv(scale.compare_n),
                "--m", str(scale.compare_m), "--reps", str(scale.compare_reps),
                "--level", f"{scale.level:g}", "--seed", program_seed]
    # gate-test: null draws from the law, made by numpy alone so that the
    # input stays fixed when the program's sampler changes.
    shape = (scale.gate_N - 1.0) / 2.0
    values = math.sqrt(scale.gate_N) * (2.0 * rng.beta(shape, shape, scale.gate_points) - 1.0)
    path = work / "gate-input.txt"
    path.write_text("".join(f"{v:.17g}\n" for v in values), encoding="utf-8")
    return ["test", "--input", str(path), "--N", f"{scale.gate_N:g}", "--m", str(scale.gate_m)]


def reps_per_invocation(workload: str, scale: Scale) -> int:
    if workload == "desk-grid":
        return scale.cells * (scale.calib_reps + 2 * scale.eval_reps)
    if workload == "compare-large-n":
        return len(scale.compare_n) * 2 * scale.compare_reps
    return 1  # one statistic on the one real sample


def check_output(workload: str, text: str, argv: list[str], scale: Scale):
    if workload == "desk-grid":
        return checks.grid_csv(text, scale.cells, scale.calib_reps, scale.eval_reps, scale.level)
    if workload == "compare-large-n":
        return checks.compare_csv(text, scale.compare_n)
    return checks.gate_output(text, argv[argv.index("--input") + 1], scale.gate_N, scale.gate_m)


def tail(values) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it (nearest rank);
    the maximum when no percentile has."""
    ordered = sorted(values)
    count = len(ordered)
    for pct in _TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * count)
        if count - rank >= 10:
            return f"p{pct:g}", ordered[rank - 1]
    return "max", ordered[-1]


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

@dataclass
class Finished:
    code: int
    wall_s: float
    max_rss_kb: int
    stdout: str
    stderr: str


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # already gone


def run_process(cmd, env, work: Path, timeout: float) -> Finished:
    """Run cmd to completion in its own session; kill the session on timeout.

    The resource usage comes from wait4, so the peak resident set covers the
    process and every child it reaped, pool workers included.
    """
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, start_new_session=True)
        timer = threading.Timer(timeout, _kill_session, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(proc.returncode, wall, usage.ru_maxrss,
                    out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"))


def _import_profile(probes: int, env, work: Path, deadline: float) -> tuple[float, float, list]:
    """Median import time of finiten.cli and of the scipy modules it pulls in,
    from ``-X importtime`` in fresh processes."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import finiten.cli"]
    totals, scipy_parts, failures = [], [], []
    run_process(cmd, env, work, deadline - time.perf_counter())  # warm the bytecode cache
    for _ in range(probes):
        done = run_process(cmd, env, work, deadline - time.perf_counter())
        if done.code != 0:
            failures.append(done.stderr[-500:])
            continue
        total, scipy_s = outermost_import_seconds(done.stderr, ("finiten", "scipy"))
        totals.append(total)
        scipy_parts.append(scipy_s)
    if not totals:
        return 0.0, 0.0, failures
    return statistics.median(totals), statistics.median(scipy_parts), failures


def outermost_import_seconds(text: str, packages) -> list[float]:
    """Cumulative ``-X importtime`` seconds of each package's outermost modules.

    The log is post-order (children before parents), so reading it backwards
    meets every parent before its descendants.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        raw = fields[2]
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, raw.strip(), int(fields[1])))
    seconds = [0.0] * len(packages)
    stack: list[tuple[int, int]] = []  # (depth, index of package or -1)
    for depth, name, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        owner = next((i for i, p in enumerate(packages)
                      if name == p or name.startswith(p + ".")), -1)
        if owner >= 0 and all(index != owner for _, index in stack):
            seconds[owner] += cumulative_us / 1e6
        stack.append((depth, owner))
    return seconds


# ----------------------------------------------------------------------
# Untraced: end-to-end metrics
# ----------------------------------------------------------------------

def _merge(verdicts: dict, results) -> bool:
    """Fold one operation's checks into the run's verdicts; True if all passed."""
    passed = True
    for name, ok, detail in results:
        if name not in verdicts or (verdicts[name][0] and not ok):
            verdicts[name] = (bool(ok), detail)
        passed = passed and bool(ok)
    return passed


def run_untraced(workload: str, seed: int, seconds: float, scale: Scale, env, work: Path,
                 started: float) -> Outcome:
    deadline = started + _RUN_LIMIT_S
    argv = program_argv(workload, seed, scale, work)
    probe = [sys.executable, str(PROBE), *argv]
    command = [sys.executable, "-m", "finiten", *argv]
    verdicts: dict = {}
    attempted = failed = 0

    run_process(probe, env, work, deadline - time.perf_counter())  # warm caches, untimed
    setups = []
    for _ in range(scale.setup_probes):
        done = run_process(probe, env, work, deadline - time.perf_counter())
        setups.append(done.wall_s)
        _merge(verdicts, [("setup.exit", done.code == 0, done.stderr[-300:])])

    walls, rss, first = [], [], None
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < seconds:
        done = run_process(command, env, work, deadline - time.perf_counter())
        walls.append(done.wall_s)
        rss.append(done.max_rss_kb)
        first = done.stdout if first is None else first
        results = [("exit", done.code == 0, f"exit {done.code} {done.stderr[-300:]}"),
                   ("repeat.identical", done.stdout == first, "same seed, same bytes")]
        if done.code == 0:
            results += check_output(workload, done.stdout, argv, scale)
        attempted += 1
        failed += not _merge(verdicts, results)
        if time.perf_counter() >= deadline:
            break

    tail_name, tail_value = tail(walls)
    metrics = {
        "reps_per_s": reps_per_invocation(workload, scale) * len(walls) / sum(walls),
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail_value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss) / 1024.0,
    }
    notes = [f"latency over {len(walls)} invocations; tail is {tail_name}",
             "peak_rss_mb: largest peak of any one process (CLI or pool worker)",
             "invocation walls (s): " + " ".join(f"{w:.3f}" for w in walls),
             f"setup_s is the median of {len(setups)} fresh processes"]
    workers = [scale.workers] if workload == "desk-grid" else [1]
    return Outcome(metrics, sorted(verdicts.items()), attempted, failed, notes, workers)


# ----------------------------------------------------------------------
# Traced: per-layer metrics
# ----------------------------------------------------------------------

def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float, imports, extra=None) -> dict:
    t, c = tracer, tracer.counts
    calls = t.calls("harness.streams")
    values = {
        "harness.streams.calls": calls,
        "harness.streams.self_s": t.self_s("harness.streams"),
        "harness.streams.us_per_call": 1e6 * t.self_s("harness.streams") / calls if calls else 0.0,
        "distribution.sample.calls": t.calls("distribution.sample"),
        "distribution.sample.self_s": t.self_s("distribution.sample"),
        "distribution.sample.draws": c["distribution.sample.draws"],
        "distribution.gauss.calls": t.calls("distribution.gauss"),
        "distribution.gauss.self_s": t.self_s("distribution.gauss"),
        "distribution.gauss.draws": c["distribution.gauss.draws"],
        "stein_test.batch.self_s": t.self_s("stein_test.batch"),
        "stein_test.batch.rows": c["stein_test.batch.rows"],
        "stein_test.poly_evals": c["stein_test.poly_evals"],
        "distribution.cdf.self_s": t.self_s("distribution.cdf"),
        "distribution.cdf.points": c["distribution.cdf.points"],
        "edf.batch.self_s": t.self_s("edf.batch"),
        "edf.batch.rows": c["edf.batch.rows"],
        "harness.cutoff.calls": t.calls("harness.cutoff"),
        "harness.cutoff.self_s": t.self_s("harness.cutoff"),
        "harness.self_s": t.self_s("harness"),
        "harness.cell_max_s": 0.0,
        "harness.scaling_eff": 0.0,
        "harness.ref_grid_proj_h": 0.0,
        "jacobi.basis.calls": t.calls("jacobi.basis"),
        "jacobi.basis.self_s": t.self_s("jacobi.basis"),
        "stein_test.run_test.self_s": t.self_s("stein_test.run_test"),
        "cli.import_s": imports[0],
        "cli.import_scipy_s": imports[1],
        "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
        "trace.wall_s": traced_s,
    }
    values.update(extra or {})
    return values


def _timed(fn, tracer=None):
    with instrument(tracer) if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        result = fn()
        return time.perf_counter() - start, result


def _ref_grid_hours(cells) -> float:
    """Single-core hours for the full reference grid, from the cost of one
    replication at each measured n, interpolated linearly in n.

    ``cells`` holds (n, seconds, replications) for each cell of a 1-worker run.
    """
    by_n: dict[int, list] = {}
    for n, seconds, reps in cells:
        total = by_n.setdefault(n, [0.0, 0])
        total[0] += seconds
        total[1] += reps
    measured_n = sorted(by_n)
    per_rep = [by_n[n][0] / by_n[n][1] for n in measured_n]
    ref = GridSpec()
    ref_reps = ref.calib_reps + 2 * ref.eval_reps
    per_n = np.interp(ref.n_values, measured_n, per_rep) * ref_reps
    return float(per_n.sum()) * len(ref.N_values) * len(ref.m_values) / 3600.0


def traced_desk_grid(argv, scale: Scale, imports):
    seed = int(argv[argv.index("--seed") + 1])
    spec = GridSpec(N_values=scale.grid_N, n_values=scale.grid_n, m_values=scale.grid_m,
                    level=scale.level, calib_reps=scale.calib_reps, eval_reps=scale.eval_reps,
                    master_seed=seed)

    per_cell_reps = scale.calib_reps + 2 * scale.eval_reps

    def grid(workers, tracer=None):
        cells, last = [], [0.0]

        def on_cell(cell):
            # Rows carry the CSV schema, so (n, m) stay readable however the
            # harness groups its cells.
            now = time.perf_counter()
            reps = len({row.m for row in cell.rows}) * per_cell_reps
            cells.append((cell.rows[0].n, now - last[0], reps))
            last[0] = now

        def run():
            last[0] = time.perf_counter()
            return harness.run_grid(spec, workers=workers, on_cell=on_cell)

        wall, result = _timed(run, tracer)
        return wall, harness.grid_result_to_csv(result), cells

    # The 1-worker run sits between two multi-worker runs, so that a machine
    # whose speed drifts over minutes biases scaling_eff less.
    wall_a, csv_a, cells_a = grid(scale.workers)
    wall_1, csv_1, cells_1 = grid(1)
    wall_b, csv_b, cells_b = grid(scale.workers)
    tracer = Tracer()
    wall_t, csv_t, _ = grid(1, tracer)

    def ok(text):
        return checks.grid_csv(text, scale.cells, scale.calib_reps, scale.eval_reps, scale.level)

    per_run = [
        ok(csv_a),
        ok(csv_1) + [("grid.workers_identical", csv_1 == csv_a,
                      f"1 worker vs {scale.workers} workers")],
        ok(csv_b) + [("grid.repeat_identical", csv_b == csv_a, "same seed, same bytes")],
        ok(csv_t) + [("grid.trace_identical", csv_t == csv_1, "traced vs untraced")],
    ]
    extra = {
        "harness.cell_max_s": max(seconds for _, seconds, _ in cells_a + cells_b),
        "harness.scaling_eff": wall_1 / (scale.workers * (wall_a + wall_b) / 2.0),
        "harness.ref_grid_proj_h": _ref_grid_hours(cells_1),
    }
    notes = [f"cell_max_s: longest gap between results in the {scale.workers}-worker runs",
             "ref_grid_proj_h: single-core hours, from 1-worker cell times",
             "stein_test.poly_evals is computed as rows x n x max mode"]
    return layer_metrics(tracer, wall_1, wall_t, imports, extra), per_run, notes, [scale.workers, 1]


def traced_compare(argv, scale: Scale, imports):
    seed = int(argv[argv.index("--seed") + 1])

    def compare():
        rows = harness.compare_edf(scale.compare_N, scale.compare_n, m=scale.compare_m,
                                   reps=scale.compare_reps, seed=seed, level=scale.level)
        return harness.compare_rows_to_csv(rows)

    wall_u, csv_u = _timed(compare)
    tracer = Tracer()
    wall_t, csv_t = _timed(compare, tracer)
    per_run = [
        checks.compare_csv(csv_u, scale.compare_n),
        checks.compare_csv(csv_t, scale.compare_n)
        + [("compare.trace_identical", csv_t == csv_u, "traced vs untraced")],
    ]
    return layer_metrics(tracer, wall_u, wall_t, imports), per_run, [], [1]


def traced_gate(argv, scale: Scale, imports, env, work: Path, deadline: float):
    def calls():
        buffer, codes = io.StringIO(), []
        with contextlib.redirect_stdout(buffer):
            for _ in range(scale.gate_calls):
                codes.append(cli.main(argv))
        return codes, buffer.getvalue()

    wall_u, (codes_u, text_u) = _timed(calls)
    tracer = Tracer()
    wall_t, (codes_t, text_t) = _timed(calls, tracer)
    cold = run_process([sys.executable, "-m", "finiten", *argv], env, work,
                       deadline - time.perf_counter())
    single = text_u[: len(text_u) // scale.gate_calls]
    data = argv[argv.index("--input") + 1]
    per_run = [
        checks.gate_output(single, data, scale.gate_N, scale.gate_m)
        + [("gate.exit", codes_u == [0] * scale.gate_calls, str(set(codes_u))),
           ("gate.repeat_identical", text_u == single * scale.gate_calls, "same input, same bytes")],
        [("gate.exit", codes_t == [0] * scale.gate_calls, str(set(codes_t))),
         ("gate.trace_identical", text_t == text_u, "traced vs untraced")],
        [("gate.exit", cold.code == 0, f"exit {cold.code} {cold.stderr[-300:]}"),
         ("gate.cold_identical", cold.stdout == single, "cold process vs in-process")],
    ]
    notes = [f"{scale.gate_calls} in-process test calls per pass; cold cost is cli.import_s"]
    return layer_metrics(tracer, wall_u, wall_t, imports), per_run, notes, [1]


def run_traced(workload: str, seed: int, scale: Scale, env, work: Path, started: float) -> Outcome:
    deadline = started + _RUN_LIMIT_S
    argv = program_argv(workload, seed, scale, work)
    import_s, scipy_s, import_failures = _import_profile(scale.import_probes, env, work, deadline)
    imports = (import_s, scipy_s)
    if workload == "desk-grid":
        metrics, per_run, notes, workers = traced_desk_grid(argv, scale, imports)
    elif workload == "compare-large-n":
        metrics, per_run, notes, workers = traced_compare(argv, scale, imports)
    else:
        metrics, per_run, notes, workers = traced_gate(argv, scale, imports, env, work, deadline)
    per_run.append([("import.exit", not import_failures, "; ".join(import_failures))])
    verdicts: dict = {}
    failed = sum(not _merge(verdicts, results) for results in per_run)
    wall = metrics["trace.wall_s"]
    shares = [f"{name[:-len('.self_s')]} {100.0 * value / wall:.1f}%"
              for name, value in metrics.items() if name.endswith(".self_s") and value > 0]
    notes.append("self time as a share of trace.wall_s: " + ", ".join(shares))
    notes.append("self_s figures include wrapper cost; read them as shares, not as speeds")
    return Outcome(metrics, sorted(verdicts.items()), len(per_run), failed, notes, workers)
