"""Tests of the benchmark itself: span arithmetic, parsing, and a tiny run of
every workload, untraced and traced."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Tracer

run.load_program()
import workloads  # noqa: E402  (needs finiten on the path first)

TINY = workloads.Scale(
    grid_N=(5.0,), grid_n=(100,), grid_m=(4, 6), calib_reps=1000, eval_reps=200,
    compare_N=5.0, compare_n=(300,), compare_reps=1000,
    gate_points=100, setup_probes=1, import_probes=1, gate_calls=3,
)


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # a: [0, 10]; b: [1, 7] inside a; c: [2, 5] inside b; b again: [8, 9].
    tracer = Tracer(clock=_clock(0.0, 1.0, 2.0, 5.0, 7.0, 8.0, 9.0, 10.0))
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
        with tracer.span("b"):
            pass
    assert tracer.spans["a"] == [1, 10.0, 3.0]
    assert tracer.spans["b"] == [2, 7.0, 4.0]
    assert tracer.spans["c"] == [1, 3.0, 3.0]
    assert sum(entry[2] for entry in tracer.spans.values()) == 10.0


def test_self_time_survives_an_exception():
    tracer = Tracer(clock=_clock(0.0, 1.0, 4.0, 6.0))
    with pytest.raises(ValueError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise ValueError
    assert tracer.spans["outer"] == [1, 6.0, 3.0]
    assert tracer.spans["inner"] == [1, 3.0, 3.0]


def test_outermost_import_seconds_counts_each_package_once():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy.special",
        "import time:        50 |        350 |   finiten.distribution",
        "import time:        10 |        360 | finiten",
        "import time:        40 |        400 | finiten.cli",
        "import time:         5 |          5 | json",
    ])
    finiten_s, scipy_s = workloads.outermost_import_seconds(log, ("finiten", "scipy"))
    assert finiten_s == pytest.approx(760e-6)
    assert scipy_s == pytest.approx(300e-6)


@pytest.mark.parametrize("count, label, rank", [(11, "max", 11), (20, "p50", 10), (40, "p75", 30),
                                                 (100, "p90", 90)])
def test_tail_keeps_ten_samples_beyond(count, label, rank):
    values = [float(i) for i in range(1, count + 1)]
    assert workloads.tail(values) == (label, float(rank))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.NAMES)
def test_tiny_run(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)], scale=TINY) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)


def test_refuses_to_run_without_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gate-test", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
