"""Seeded `finiten` commands and the sha256 of what each writes.

For a fixed seed, every CLI output stays byte-identical unless a change
deliberately moves it. ``cli_manifest.json`` maps each command below to
the sha256 of its stdout and stderr and its exit code, run through
``cli.main`` in one process; ``test_cli_manifest.py`` checks them. After a
deliberate change, rewrite the manifest from the repository root with

    PYTHONPATH=src python tests/cli_manifest.py

and quote the old and new hashes of every command that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np

from finiten import cli

MANIFEST = Path(__file__).with_name("cli_manifest.json")

# `test` commands read this sample on stdin: 300 points in (-1.6, 1.6),
# built from integers so that it is the same on every platform
STDIN = "".join(f"{(i * 61 % 199) / 199.0 * 3.2 - 1.6:.17g}\n" for i in range(1, 301))

COMMANDS = (
    "sample --N 5 --n 40 --seed 7",
    "sample --N 5 --n 40 --seed 7 --hypothesis h1",
    "grid --N-values 5,20.5 --n-values 10,60 --m-values 4,6 --calib-reps 1000 --eval-reps 300 "
    "--seed 11 --workers 2",
    "grid --N-values 5 --n-values 30 --m-values 4,8 --calib-reps 1000 --eval-reps 300 "
    "--seed 12 --workers 1 --format json",
    "compare --N 20 --n-values 50,100 --reps 1000 --seed 13 --workers 2",
    "compare --N 20.5 --n-values 50 --reps 1000 --seed 14 --no-standardize --workers 1",
    "compare --N 401.5 --n-values 50 --reps 1000 --seed 15 --workers 1",
    "calibrate --N 5 --n 50 --m 6 --reps 1000 --seed 16",
    "test --N 5 --m 6",
    "test --N 5 --m 6 --no-standardize",
    "test --N 5 --m 4 --modes 3,4 --cutoff 7.5",
    "test --N 5 --m 6 --cutoff calibrated --reps 1000 --seed 17 --format json",
    "dist --N 5 --x=-2.2,-1,0,0.5,2 --p 0.001,0.3,0.5,0.975",
    "dist --N 20.5 --x=-4,-1,0,0.5,3 --p 0.001,0.3,0.5,0.975",
    "dist --N 401 --x=-4,-1,0,0.5,3 --p 0.001,0.5,0.975",
    "sigma-table --N 20 --m 10",
    "sanov",
    "boundary",
)


def environment() -> dict:
    """What the bytes depend on besides the code: SIMD `tan`, `log` or `expm1` may
    differ by an ulp on another numpy, CPU or set of SIMD targets numpy dispatches
    to (which ``NPY_DISABLE_CPU_FEATURES`` narrows)."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    return {"numpy": np.__version__, "machine": platform.machine(), "system": platform.system(),
            "simd": simd}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(command: str) -> dict:
    """The sha256 of stdout and stderr and the exit code of one command."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(STDIN.encode("utf-8")), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(command.split())
            except SystemExit as exc:  # argparse exits on a usage error
                code = exc.code
    finally:
        sys.stdin = stdin
    return {"stdout": sha256(out.getvalue()), "stderr": sha256(err.getvalue()), "exit": code}


def build() -> dict:
    return {"environment": environment(), "stdin": sha256(STDIN),
            "commands": {command: run(command) for command in COMMANDS}}


if __name__ == "__main__":
    old = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else {}
    new = build()
    for command, hashes in new["commands"].items():
        before = old.get("commands", {}).get(command)
        if before != hashes:
            print(f"{command}\n  old {before}\n  new {hashes}")
    MANIFEST.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
