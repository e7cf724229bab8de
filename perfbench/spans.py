"""In-process spans around the public entry points of each finiten module.

Spans are aggregated by name as they close, so a traced desk grid (about a
million spans) needs no per-span memory. A span's self time is its
duration minus the durations of its direct child spans; spans nest
strictly within one thread, so the children never overlap and their sum
is the time they cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Per-name span totals: calls, wall seconds, self seconds; plus counters."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[list] = []  # [name, start, seconds covered by children]
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: defaultdict[str, int] = defaultdict(int)

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self._clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - covered

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]


def _batch_counts(args, kwargs, result):
    samples = args[0] if args else kwargs["samples"]
    config = args[1] if len(args) > 1 else kwargs["config"]
    rows, n = np.shape(samples)
    # Computed, not measured: the recurrence runs to the largest mode for
    # every point of every row.
    return {"stein_test.batch.rows": rows, "stein_test.poly_evals": rows * n * max(config.modes)}


def _targets():
    """(owner, attribute, span name, counter) for every wrapped entry point."""
    from finiten import cli, edf, harness, stein_test
    from finiten.distribution import FiniteNLaw
    from finiten.jacobi import JacobiBasis

    return [
        (harness.ReplicationStreams, "rng", "harness.streams", None),
        (FiniteNLaw, "sample", "distribution.sample",
         lambda a, k, r: {"distribution.sample.draws": int(np.size(r))}),
        (FiniteNLaw, "sample_gaussian_alternative", "distribution.gauss",
         lambda a, k, r: {"distribution.gauss.draws": int(np.size(r))}),
        (FiniteNLaw, "cdf", "distribution.cdf",
         lambda a, k, r: {"distribution.cdf.points": int(np.size(r))}),
        (stein_test, "batch_statistic", "stein_test.batch", _batch_counts),
        (stein_test, "run_test", "stein_test.run_test", None),
        (edf, "batch_edf_statistics", "edf.batch",
         lambda a, k, r: {"edf.batch.rows": len(r[0])}),
        (harness, "empirical_cutoff", "harness.cutoff", None),
        (harness, "run_grid", "harness", None),
        (harness, "calibrate", "harness", None),
        (harness, "estimate_rejection", "harness", None),
        (harness, "compare_edf", "harness", None),
        (JacobiBasis, "build", "jacobi.basis", None),
        (cli, "main", "cli", None),
    ]


def _wrap(tracer: Tracer, fn, name: str, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if counter is not None:
            for key, amount in counter(args, kwargs, result).items():
                tracer.counts[key] += amount
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it.

    A module-level function is replaced in every loaded finiten module that
    holds it (``harness`` imports ``batch_statistic`` by name, for one). A
    target the program no longer has is skipped, so its metrics read zero.
    """
    undo = []
    try:
        for owner, attr, name, counter in _targets():
            if isinstance(owner, type):
                raw = owner.__dict__.get(attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(_wrap(tracer, raw.__func__, name, counter))
                else:
                    patched = _wrap(tracer, raw, name, counter)
                setattr(owner, attr, patched)
                undo.append((owner, attr, raw))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            patched = _wrap(tracer, original, name, counter)
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "finiten" and getattr(module, attr, None) is original:
                    setattr(module, attr, patched)
                    undo.append((module, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
