"""Output checks that hold for any valid random-stream scheme.

Nothing here compares against stored bytes: the checks test the CSV
schema, completeness, statistical sanity (the calibrated size sits in a
binomial band around the level, power beats size, the targeted test beats
the EDF baselines) and agreement with the same commit's library.
Each check returns a list of (name, passed, detail) tuples.
"""

from __future__ import annotations

import math

from finiten import SteinTestConfig, run_test
from finiten.harness import COMPARE_CSV_HEADER, POWER_CSV_HEADER

# Half-width of the band around the level, in standard errors. Wide enough
# that a correct program fails it about once in 1.7 million runs.
_BAND_SIGMAS = 5.0


def grid_csv(text: str, cells: int, calib_reps: int, eval_reps: int, level: float):
    lines = text.split("\n")
    checks = [
        ("grid.header", lines[0] == POWER_CSV_HEADER, lines[0]),
        ("grid.complete", text.endswith("# complete=true\n"), lines[-2] if len(lines) > 1 else ""),
    ]
    rows = [line.split(",") for line in lines[1:] if line and not line.startswith("#")]
    checks.append(("grid.rows", len(rows) == 4 * cells, f"{len(rows)} rows for {cells} cells"))
    pooled = {}
    for hypothesis in ("h0", "h1"):
        hits = total = 0.0
        for row in rows:
            if len(row) == 9 and row[4] == "calibrated" and row[5] == hypothesis:
                hits += float(row[6]) * int(row[7])
                total += int(row[7])
        pooled[hypothesis] = hits / total if total else math.nan
    se = math.sqrt(level * (1.0 - level) * (1.0 / (cells * eval_reps) + 1.0 / (cells * calib_reps)))
    half = _BAND_SIGMAS * se
    size = pooled["h0"]
    checks.append(("grid.h0_size_in_band", abs(size - level) <= half,
                   f"pooled calibrated size {size:.5f}, band {level} +/- {half:.5f}"))
    checks.append(("grid.h1_power_above_size", pooled["h1"] > size,
                   f"pooled calibrated power {pooled['h1']:.5f} vs size {size:.5f}"))
    return checks


def compare_csv(text: str, n_values):
    lines = text.split("\n")
    power = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) == 3:
            power[(parts[0], int(parts[1]))] = float(parts[2])
    checks = [
        ("compare.header", lines[0] == COMPARE_CSV_HEADER, lines[0]),
        ("compare.rows", len(power) == 4 * len(n_values), f"{len(power)} rows"),
    ]
    for n in n_values:
        stein = power.get(("stein", n), math.nan)
        others = {name: power.get((name, n), math.nan) for name in ("ks", "cvm", "ad")}
        checks.append((f"compare.stein_beats_edf.n{n}", all(stein > p for p in others.values()),
                       f"stein {stein} vs " + ", ".join(f"{k} {v}" for k, v in others.items())))
    return checks


def read_numbers(path) -> list[float]:
    with open(path, encoding="utf-8") as fh:
        return [float(token) for token in fh.read().split()]


def gate_output(text: str, data_path, N: float, m: int):
    """The CLI's statistic and p-value equal an in-process run_test on the same data."""
    report = run_test(read_numbers(data_path), SteinTestConfig(N=N, m=m))
    lines = text.split("\n")
    fields = dict(zip(lines[0].split(","), lines[1].split(","))) if len(lines) > 1 else {}
    want = {"statistic": f"{report.statistic:.10g}", "p_value": f"{report.p_value:.10g}"}
    return [(f"gate.{key}", fields.get(key) == value, f"cli {fields.get(key)} vs library {value}")
            for key, value in want.items()]
