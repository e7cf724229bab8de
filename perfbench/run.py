#!/usr/bin/env python3
"""finiten benchmark: desk grid, large-n EDF comparison and cold gate test.

Run from the repository root:

    python3 perfbench/run.py --workload desk-grid --seed 1 --seconds 30 --trace 0

``--trace 0`` times the ``finiten`` command line in fresh processes for
``--seconds`` seconds and reports the end-to-end metrics. ``--trace 1``
runs a fixed amount of the same work in-process, with spans around the
public entry points of every module, and reports the per-layer metrics.
Both check the program's outputs. The human-readable report comes first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The benchmark uses
the ``src`` tree next to this directory and exits with status 2 when it is
missing.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("desk-grid", "compare-large-n", "gate-test")


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_program():
    """Import finiten from this checkout's src tree, or exit with status 2."""
    if not (SRC / "finiten" / "__init__.py").is_file():
        _fail(f"no finiten sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import finiten

    if Path(finiten.__file__).resolve().parent != SRC / "finiten":
        _fail(f"finiten was imported from {finiten.__file__}, not {SRC}")


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, workers) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "finiten").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "argv": sys.argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workers,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, scale=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    load_program()
    import workloads

    scale = scale or workloads.Scale()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            outcome = workloads.run_traced(args.workload, args.seed, scale, env, Path(tmp), started)
            units = workloads.PER_LAYER
        else:
            outcome = workloads.run_untraced(args.workload, args.seed, args.seconds, scale, env,
                                             Path(tmp), started)
            units = workloads.END_TO_END

    correct = outcome.failed == 0 and all(ok for _, (ok, _) in outcome.checks)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in units.items():
        value = outcome.metrics[name]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<30} {shown} {unit}")
    print(f"  {'fail_rate':<30} {outcome.failed / outcome.attempted:>16.6g} "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for note in outcome.notes:
        print(f"  note: {note}")
    for name, (ok, detail) in outcome.checks:
        print(f"  check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    print("provenance " + json.dumps(provenance(args, outcome.workers)))
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
