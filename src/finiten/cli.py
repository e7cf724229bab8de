"""Command-line interface: sampling, density/CDF queries, single-sample
testing, calibration, simulation grids, power tables, and the EDF
comparison.

Exit status is 0 on success, 1 when --fail-on-reject is set and the test
rejects, 2 for usage or input errors, and 130 when interrupted (an
interrupted grid exits 0 with the prefix it finished). Every subcommand is
deterministic under --seed; when the seed is omitted one is drawn from
entropy and echoed to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import os
import stat
import sys

from .distribution import FiniteNLaw, power_boundary, sanov_table
from .errors import FiniteNError, check_cutoff, check_int, check_seed, check_values
from .jacobi import _norms
from .stein_test import CALIBRATED, THEORETICAL, SteinTestConfig, run_test

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse with a single-line diagnostic on usage errors."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _comma_list(kind, noun: str, text: str) -> list:
    try:
        return [kind(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of {noun}, got {text!r}")


_float_list = functools.partial(_comma_list, float, "numbers")
_int_list = functools.partial(_comma_list, int, "integers")


def _modes_list(text: str) -> list[int] | None:
    """--modes: a comma list of integers, or 'even' (None) for {4, 6, .., m}."""
    return None if text == "even" else _int_list(text)


def _resolve_seed(seed: int | None) -> int:
    """--seed, or one drawn and echoed; called after every other check, before
    any output is opened, so a run that cannot start echoes no seed."""
    if seed is not None:
        return check_seed(seed)
    drawn = int.from_bytes(os.urandom(8), "little") >> 1
    print(f"seed={drawn}", file=sys.stderr)
    return drawn


@contextlib.contextmanager
def _open_output(path: str | None):
    """Open an output path: '-' is standard output and None is no output. Every
    handler opens after its last check and before its first random draw. A file
    is not emptied on open but cut to the result when the block ends normally."""
    if path is None or path == "-":
        yield None if path is None else sys.stdout
        return
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8",
              newline="\n") as out:
        yield out
        if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
            out.truncate()


def _table_text(args, csv_text: str, payload) -> str:
    """A table command's result: the CSV text, or under --format json the
    payload as one JSON line."""
    if args.format != "json":
        return csv_text
    import json  # only --format json pays for its import
    return json.dumps(payload) + "\n"


def _csv_text(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _read_numbers(path: str) -> list[float]:
    if path == "-":
        raw = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FiniteNError(f"input is not UTF-8 text: {exc.reason} at byte {exc.start}")
    values = []
    for token in text.split():
        try:
            values.append(float(token))
        except ValueError:
            raise FiniteNError(f"invalid numeric input: {token!r}")
    if not values:
        raise FiniteNError("input contains no numbers")
    return values


def _tail(p, func) -> None:
    """Close a subparser with the options every subcommand shares, and bind
    its handler. Added last, so they are listed last in --help."""
    p.add_argument("--output", default="-")
    p.set_defaults(func=func)


def _table_tail(p, func) -> None:
    """The tail of a subcommand that writes a table: --format, then _tail."""
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _tail(p, func)


def _workers_option(p) -> None:
    """--workers of grid and compare, by default the CPUs this process may use."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    p.add_argument("--workers", type=int, default=usable or 1,
                   help="processes for the Monte Carlo work (default: usable CPUs, %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="finiten", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a sample, one value per line")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--hypothesis", choices=("h0", "h1"), default="h0")
    _tail(p, _cmd_sample)

    p = sub.add_parser("test", help="run the goodness-of-fit test on a sample")
    p.add_argument("--input", default="-", help="path of whitespace-separated numbers, or - for stdin")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--m", type=int, default=SteinTestConfig.m)
    p.add_argument("--modes", type=_modes_list, default=None,
                   help="comma list of modes, or 'even' for {4,6,..,m}")
    p.add_argument("--level", type=float, default=SteinTestConfig.level)
    p.add_argument("--cutoff", default=THEORETICAL,
                   help="'theoretical', 'calibrated', or a finite positive number")
    p.add_argument("--reps", type=int, default=5_000,
                   help="replications for on-the-fly calibration (cutoff=calibrated)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-standardize", dest="standardize", action="store_false",
                   help="skip location/scale alignment (data already aligned)")
    p.add_argument("--fail-on-reject", action="store_true")
    _table_tail(p, _cmd_test)

    p = sub.add_parser("sigma-table", help="normalisation constants sigma_1..sigma_m")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--m", type=int, default=10)
    _table_tail(p, _cmd_sigma_table)

    p = sub.add_parser("dist", help="density/CDF/quantile queries")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--x", type=_float_list, default=None, help="comma list of points")
    p.add_argument("--p", type=_float_list, default=None, help="comma list of probabilities")
    _tail(p, _cmd_dist)

    p = sub.add_parser("calibrate", help="null cutoff of the statistic that test computes, for "
                       "test --cutoff VALUE (with --no-standardize on both, of the raw statistic)")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=SteinTestConfig.m)
    p.add_argument("--modes", type=_modes_list, default=None)
    p.add_argument("--level", type=float, default=SteinTestConfig.level)
    p.add_argument("--reps", type=int, default=None,
                   help="replications (default: the reference protocol's calibration count)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-standardize", dest="standardize", action="store_false",
                   help="calibrate the raw statistic, for test --no-standardize")
    _table_tail(p, _cmd_calibrate)

    # the five grid values default to None so that _cmd_grid can tell an
    # explicit value from a default; it fills in the desk-scale defaults
    p = sub.add_parser("grid", help="size/power rows over an (N, n, m) grid")
    p.add_argument("--N-values", type=_float_list, default=None)
    p.add_argument("--n-values", type=_int_list, default=None)
    p.add_argument("--m-values", type=_int_list, default=None)
    p.add_argument("--full-grid", action="store_true",
                   help="use the full reference grid (N 5..20, n 10..500)")
    p.add_argument("--level", type=float, default=SteinTestConfig.level)
    p.add_argument("--calib-reps", type=int, default=None)
    p.add_argument("--eval-reps", type=int, default=None)
    p.add_argument("--full-reps", action="store_true",
                   help="use the reference protocol's calibration and evaluation replications")
    p.add_argument("--seed", type=int, default=None)
    _workers_option(p)
    p.add_argument("--quiet", action="store_true", help="suppress progress on stderr")
    p.add_argument("--calibration-out", default=None,
                   help="also write the calibration table CSV to this path")
    _table_tail(p, _cmd_grid)

    p = sub.add_parser("sanov", help="large-deviation power table (deterministic)")
    p.add_argument("--N", type=_float_list, default=[4.0, 5.0, 6.0, 8.0, 10.0, 15.0, 20.0])
    p.add_argument("--n", type=_int_list,
                   default=[10, 50, 100, 200, 400, 600, 800, 1000, 2000])
    _table_tail(p, _cmd_sanov)

    p = sub.add_parser("boundary", help="smallest n reaching a target power proxy")
    p.add_argument("--N-values", type=_float_list, default=[float(N) for N in range(4, 21)])
    p.add_argument("--target", type=float, default=0.8)
    _table_tail(p, _cmd_boundary)

    p = sub.add_parser("compare", help="calibrated power: targeted test vs EDF baselines")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--n-values", type=_int_list, default=[1000, 2000, 5000])
    p.add_argument("--m", type=int, default=SteinTestConfig.m)
    p.add_argument("--reps", type=int, default=2_000)
    p.add_argument("--level", type=float, default=SteinTestConfig.level)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-standardize", dest="standardize", action="store_false")
    _workers_option(p)
    _table_tail(p, _cmd_compare)

    return parser


def _cmd_sample(args) -> int:
    law = FiniteNLaw(args.N)
    draw = law.sample if args.hypothesis == "h0" else law.sample_gaussian_alternative
    n = check_int(args.n, "sample size", 1)
    seed = _resolve_seed(args.seed)
    with _open_output(args.output) as out:
        out.write("".join(f"{v:.17g}\n" for v in draw(n, seed)))
    return 0


def _cmd_test(args) -> int:
    config = SteinTestConfig(N=args.N, m=args.m, modes=args.modes, level=args.level)
    calibrated = args.cutoff == CALIBRATED
    keyword = args.cutoff in (THEORETICAL, CALIBRATED)
    cutoff = None if keyword else check_cutoff(args.cutoff)  # None: the chi-squared cutoff
    values = _read_numbers(args.input)  # after the checks: stdin can wait on a terminal
    if calibrated:
        from . import harness  # only a calibrated test loads the Monte Carlo harness
        harness.check_calibration(len(values), config, args.reps, args.standardize)
    # run_test refuses a bad sample, so it runs before a seed is drawn
    report = run_test(values, config, standardize_first=args.standardize, cutoff=cutoff)
    seed = _resolve_seed(args.seed) if calibrated else None
    header = ",".join(["statistic,dof,cutoff,p_value,reject", *(f"mu_{k}" for k in config.modes)])
    with _open_output(args.output) as out:
        if calibrated:
            # calibrate under the same pipeline the decision will use
            cutoff = harness.calibrate(len(values), config, args.reps, seed,
                                       standardize_first=args.standardize)
            report = run_test(values, config, standardize_first=args.standardize, cutoff=cutoff)
        line = ",".join(
            [f"{report.statistic:.10g}", str(report.dof), f"{report.cutoff:.10g}",
             f"{report.p_value:.10g}", "true" if report.reject else "false"]
            + [f"{report.coefficients[k]:.10g}" for k in config.modes]
        )
        out.write(_table_text(args, _csv_text([header, line]), dataclasses.asdict(report)))
    return 1 if args.fail_on_reject and report.reject else 0


def _cmd_sigma_table(args) -> int:
    # the norms alone: the basis's mode weights can overflow where every sigma_k is finite
    alpha = FiniteNLaw(args.N).alpha
    sigmas = dict(enumerate(_norms(alpha, check_int(args.m, "truncation order", 1)), 1))
    csv_text = _csv_text(["k,sigma", *(f"{k},{s:.10g}" for k, s in sigmas.items())])
    with _open_output(args.output) as out:
        # json.dumps writes the int keys of sigmas as strings
        out.write(_table_text(args, csv_text, {"N": args.N, "alpha": alpha, "sigma": sigmas}))
    return 0


def _cmd_dist(args) -> int:
    law = FiniteNLaw(args.N)
    if args.x is None and args.p is None:
        raise FiniteNError("dist requires --x and/or --p")
    lines = []
    if args.x is not None:
        lines.append("x,density,log_density,cdf")
        lines += [f"{x:.10g},{law.density(x):.10g},{law.log_density(x):.10g},{law.cdf(x):.10g}"
                  for x in check_values(args.x, "--x", lambda x: x, distinct=False)]
    if args.p is not None:
        lines.append("p,quantile")
        lines += [f"{p:.10g},{law.quantile(p):.10g}"
                  for p in check_values(args.p, "--p", lambda p: p, distinct=False)]
    with _open_output(args.output) as out:
        out.write(_csv_text(lines))
    return 0


def _cmd_calibrate(args) -> int:
    from . import harness
    config = SteinTestConfig(N=args.N, m=args.m, modes=args.modes, level=args.level)
    reps = harness.GridSpec.calib_reps if args.reps is None else args.reps
    harness.check_calibration(args.n, config, reps, args.standardize)
    seed = _resolve_seed(args.seed)
    with _open_output(args.output) as out:
        cutoff = harness.calibrate(args.n, config, reps, seed, args.standardize)
        entry = harness.CalibrationEntry(N=config.N, n=args.n, m=args.m, level=args.level,
                                         cutoff=cutoff, reps=reps, seed=seed)
        out.write(_table_text(args, harness.records_to_csv(harness.CalibrationEntry, [entry]),
                              harness.records_to_json([entry])))
    return 0


# Desk-scale grid layout and replication counts; --full-grid and
# --full-reps take the reference ones from GridSpec.
_DESK_AXES = {"N_values": (5.0, 10.0, 20.0), "n_values": (10, 50, 100, 500),
              "m_values": (4, 6, 8, 10)}
_DESK_REPS = {"calib_reps": 5_000, "eval_reps": 2_000}


def _cmd_grid(args) -> int:
    from . import harness
    # fields left out take the reference protocol's defaults from GridSpec
    overrides = {}
    for flag, full, defaults in (("--full-grid", args.full_grid, _DESK_AXES),
                                 ("--full-reps", args.full_reps, _DESK_REPS)):
        given = {name: getattr(args, name) for name in defaults if getattr(args, name) is not None}
        if full and given:
            options = ", ".join("--" + name.replace("_", "-") for name in given)
            raise FiniteNError(f"{flag} conflicts with {options}")
        if not full:
            overrides |= {**defaults, **given}
    spec = harness.GridSpec(level=args.level, **overrides)
    check_int(args.workers, "workers", 1)
    if (args.calibration_out not in (None, "-") and args.output != "-"
            and os.path.realpath(args.output) == os.path.realpath(args.calibration_out)):
        raise FiniteNError(f"--output and --calibration-out name the same file: {args.output}")
    spec = dataclasses.replace(spec, master_seed=_resolve_seed(args.seed))
    total = len(spec.cells())
    done = itertools.count(1)

    def report(cell):
        entry = cell.calibration
        print(f"cell {next(done)}/{total} (N={entry.N:g}, n={entry.n}, m={entry.m}) done",
              file=sys.stderr)

    with _open_output(args.output) as out, _open_output(args.calibration_out) as calibration:
        result = harness.run_grid(spec, workers=args.workers,
                                  on_cell=None if args.quiet else report)
        out.write(_table_text(args, harness.grid_result_to_csv(result),
                              harness.grid_result_to_json(result)))
        if calibration is not None:
            calibration.write(harness.records_to_csv(harness.CalibrationEntry,
                                                     result.calibration))
    return 0


def _cmd_sanov(args) -> int:
    table = [[format(v, ".6g") for v in row] for row in sanov_table(args.N, args.n)]
    csv_text = _csv_text([",".join(["N", *map(str, args.n)]),
                          *(f"{N:g}," + ",".join(row) for N, row in zip(args.N, table))])
    payload = {"N_values": args.N, "n_values": args.n,
               "power": [[float(v) for v in row] for row in table]}
    with _open_output(args.output) as out:
        out.write(_table_text(args, csv_text, payload))
    return 0


def _cmd_boundary(args) -> int:
    pairs = power_boundary(args.N_values, args.target)
    with _open_output(args.output) as out:
        out.write(_table_text(args, _csv_text(["N,n_star", *(f"{N:g},{n}" for N, n in pairs)]),
                              [{"N": N, "n_star": n} for N, n in pairs]))
    return 0


def _cmd_compare(args) -> int:
    from . import harness
    harness.check_compare(args.N, args.n_values, args.m, args.reps, args.level, args.standardize)
    check_int(args.workers, "workers", 1)
    seed = _resolve_seed(args.seed)
    with _open_output(args.output) as out:
        rows = harness.compare_edf(args.N, args.n_values, m=args.m, reps=args.reps, seed=seed,
                                   level=args.level, standardize_first=args.standardize,
                                   workers=args.workers)
        out.write(_table_text(args, harness.records_to_csv(harness.CompareRow, rows),
                              harness.records_to_json(rows)))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FiniteNError, OSError) as exc:
        print(f"finiten: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # a grid keeps its prefix; nothing else has a partial result
        print("finiten: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
