"""Command-line interface: sampling, density/CDF queries, single-sample
testing, calibration, simulation grids, power tables, and the EDF
comparison.

Exit status is 0 on success, 1 when --fail-on-reject is set and the test
rejects, and 2 for usage or input errors. Every subcommand is
deterministic under --seed; when the seed is omitted one is drawn from
entropy and echoed to standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys

from . import harness
from .distribution import FiniteNLaw
from .errors import FiniteNError, check_int
from .jacobi import JacobiBasis
from .stein_test import SteinTestConfig, run_test

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse with a single-line diagnostic on usage errors."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of numbers, got {text!r}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers, got {text!r}")


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return check_int(seed, "seed", 0)
    drawn = int.from_bytes(os.urandom(8), "little") >> 1
    print(f"seed={drawn}", file=sys.stderr)
    return drawn


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _read_numbers(path: str) -> list[float]:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    values = []
    for token in text.split():
        try:
            values.append(float(token))
        except ValueError:
            raise FiniteNError(f"invalid numeric input: {token!r}")
    if not values:
        raise FiniteNError("input contains no numbers")
    return values


def _modes_argument(text: str) -> tuple[int, ...] | None:
    if text == "even":
        return None  # SteinTestConfig default
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise FiniteNError(f"invalid mode list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="finiten", description=__doc__)
    reference = harness.GridSpec()
    desk = reference.desk_scale()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a sample, one value per line")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--hypothesis", choices=("h0", "h1"), default="h0")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("test", help="run the goodness-of-fit test on a sample")
    p.add_argument("--input", default="-", help="path of whitespace-separated numbers, or - for stdin")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--modes", default="even", help="comma list of modes, or 'even' for {4,6,..,m}")
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--cutoff", default="theoretical",
                   help="'theoretical', 'calibrated', or an explicit numeric value")
    p.add_argument("--reps", type=int, default=5_000,
                   help="replications for on-the-fly calibration (cutoff=calibrated)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-standardize", dest="standardize", action="store_false",
                   help="skip location/scale alignment (data already aligned)")
    p.add_argument("--fail-on-reject", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_test, standardize=True)

    p = sub.add_parser("sigma-table", help="normalisation constants sigma_1..sigma_m")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sigma_table)

    p = sub.add_parser("dist", help="density/CDF/quantile queries")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--x", type=_float_list, default=None, help="comma list of points")
    p.add_argument("--p", type=_float_list, default=None, help="comma list of probabilities")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("calibrate", help="Monte Carlo critical value under the null")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--modes", default="even")
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=reference.calib_reps)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("grid", help="size/power rows over an (N, n, m) grid")
    p.add_argument("--N-values", type=_float_list, default=[5.0, 10.0, 20.0])
    p.add_argument("--n-values", type=_int_list, default=[10, 50, 100, 500])
    p.add_argument("--m-values", type=_int_list, default=[4, 6, 8, 10])
    p.add_argument("--full-grid", action="store_true",
                   help="use the full reference grid (N 5..20, n 10..500)")
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--calib-reps", type=int, default=desk.calib_reps)
    p.add_argument("--eval-reps", type=int, default=desk.eval_reps)
    p.add_argument("--full-reps", action="store_true",
                   help=f"use {reference.calib_reps:,} calibration / "
                        f"{reference.eval_reps:,} evaluation replications")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--quiet", action="store_true", help="suppress progress on stderr")
    p.add_argument("--calibration-out", default=None,
                   help="also write the calibration table CSV to this path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("sanov", help="large-deviation power table (deterministic)")
    p.add_argument("--N", type=_float_list, default=[4.0, 5.0, 6.0, 8.0, 10.0, 15.0, 20.0])
    p.add_argument("--n", type=_int_list,
                   default=[10, 50, 100, 200, 400, 600, 800, 1000, 2000])
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sanov)

    p = sub.add_parser("boundary", help="smallest n reaching a target power proxy")
    p.add_argument("--N-values", type=_float_list, default=[float(N) for N in range(4, 21)])
    p.add_argument("--target", type=float, default=0.8)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("compare", help="calibrated power: targeted test vs EDF baselines")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--n-values", type=_int_list, default=[1000, 2000, 5000])
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--reps", type=int, default=2_000)
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-standardize", dest="standardize", action="store_false")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_compare, standardize=True)

    return parser


def _cmd_sample(args) -> int:
    law = FiniteNLaw(args.N)
    seed = _resolve_seed(args.seed)
    if args.hypothesis == "h0":
        values = law.sample(args.n, seed)
    else:
        values = law.sample_gaussian_alternative(args.n, seed)
    _write_output(args.output, "".join(f"{v:.17g}\n" for v in values))
    return 0


def _cmd_test(args) -> int:
    values = _read_numbers(args.input)
    modes = _modes_argument(args.modes)
    config = SteinTestConfig(N=args.N, m=args.m, modes=modes, level=args.level)

    cutoff_arg = args.cutoff
    if cutoff_arg == "calibrated":
        seed = _resolve_seed(args.seed)
        # calibrate under the same pipeline the decision will use
        cutoff = harness.calibrate(
            len(values), config, args.reps, seed, standardize_first=args.standardize
        )
        config = dataclasses.replace(config, cutoff=cutoff)
    elif cutoff_arg != "theoretical":
        try:
            explicit = float(cutoff_arg)
        except ValueError:
            raise FiniteNError(
                f"--cutoff must be 'theoretical', 'calibrated', or a number, got {cutoff_arg!r}"
            )
        config = dataclasses.replace(config, cutoff=explicit)

    report = run_test(values, config, standardize_first=args.standardize)

    if args.format == "json":
        text = json.dumps(report.to_dict()) + "\n"
    else:
        header = "statistic,dof,cutoff,p_value,reject," + ",".join(
            f"mu_{k}" for k in config.modes
        )
        line = ",".join(
            [
                f"{report.statistic:.10g}",
                str(report.dof),
                f"{report.cutoff:.10g}",
                f"{report.p_value:.10g}",
                "true" if report.reject else "false",
            ]
            + [f"{report.coefficients[k]:.10g}" for k in config.modes]
        )
        text = header + "\n" + line + "\n"
    _write_output(args.output, text)
    if args.fail_on_reject and report.reject:
        return 1
    return 0


def _cmd_sigma_table(args) -> int:
    basis = JacobiBasis.for_system(args.N, args.m)
    if args.format == "json":
        payload = {
            "N": args.N,
            "alpha": basis.alpha,
            "sigma": {str(k): float(basis.sigmas[k - 1]) for k in range(1, args.m + 1)},
        }
        text = json.dumps(payload) + "\n"
    else:
        lines = ["k,sigma"]
        for k in range(1, args.m + 1):
            lines.append(f"{k},{basis.sigmas[k - 1]:.10g}")
        text = "\n".join(lines) + "\n"
    _write_output(args.output, text)
    return 0


def _cmd_dist(args) -> int:
    law = FiniteNLaw(args.N)
    if args.x is None and args.p is None:
        raise FiniteNError("dist requires --x and/or --p")
    lines = []
    if args.x is not None:
        lines.append("x,density,log_density,cdf")
        for x in args.x:
            lines.append(
                f"{x:.10g},{law.density(x):.10g},{law.log_density(x):.10g},{law.cdf(x):.10g}"
            )
    if args.p is not None:
        lines.append("p,quantile")
        for p in args.p:
            lines.append(f"{p:.10g},{law.quantile(p):.10g}")
    _write_output(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_calibrate(args) -> int:
    modes = _modes_argument(args.modes)
    config = SteinTestConfig(N=args.N, m=args.m, modes=modes, level=args.level)
    seed = _resolve_seed(args.seed)
    cutoff = harness.calibrate(args.n, config, args.reps, seed)
    entry = harness.CalibrationEntry(
        N=float(args.N), n=args.n, m=args.m, level=args.level,
        cutoff=cutoff, reps=args.reps, seed=seed,
    )
    if args.format == "json":
        text = json.dumps(harness.records_to_json([entry])) + "\n"
    else:
        text = harness.records_to_csv(harness.CalibrationEntry, [entry])
    _write_output(args.output, text)
    return 0


def _cmd_grid(args) -> int:
    seed = _resolve_seed(args.seed)
    # fields left out take the reference protocol's defaults from GridSpec
    overrides = {}
    if not args.full_grid:
        overrides.update(
            N_values=tuple(args.N_values),
            n_values=tuple(args.n_values),
            m_values=tuple(args.m_values),
        )
    if not args.full_reps:
        overrides.update(calib_reps=args.calib_reps, eval_reps=args.eval_reps)
    spec = harness.GridSpec(level=args.level, master_seed=seed, **overrides)
    total = len(spec.cells())
    done = itertools.count(1)

    def report(cell):
        entry = cell.calibration
        print(f"cell {next(done)}/{total} (N={entry.N:g}, n={entry.n}, m={entry.m}) done",
              file=sys.stderr)

    result = harness.run_grid(spec, workers=args.workers, on_cell=None if args.quiet else report)
    if args.format == "json":
        text = json.dumps(harness.grid_result_to_json(result)) + "\n"
    else:
        text = harness.grid_result_to_csv(result)
    _write_output(args.output, text)
    if args.calibration_out is not None:
        _write_output(
            args.calibration_out,
            harness.records_to_csv(harness.CalibrationEntry, result.calibration),
        )
    return 0


def _cmd_sanov(args) -> int:
    table = harness.sanov_table(args.N, args.n)
    if args.format == "json":
        payload = {
            "N_values": [float(N) for N in args.N],
            "n_values": [int(n) for n in args.n],
            "power": [[float(format(v, ".6g")) for v in row] for row in table],
        }
        text = json.dumps(payload) + "\n"
    else:
        lines = ["N," + ",".join(str(int(n)) for n in args.n)]
        for N, row in zip(args.N, table):
            lines.append(f"{N:g}," + ",".join(format(v, ".6g") for v in row))
        text = "\n".join(lines) + "\n"
    _write_output(args.output, text)
    return 0


def _cmd_boundary(args) -> int:
    pairs = harness.power_boundary(args.N_values, args.target)
    if args.format == "json":
        text = json.dumps([{"N": N, "n_star": n} for N, n in pairs]) + "\n"
    else:
        lines = ["N,n_star"] + [f"{N:g},{n}" for N, n in pairs]
        text = "\n".join(lines) + "\n"
    _write_output(args.output, text)
    return 0


def _cmd_compare(args) -> int:
    seed = _resolve_seed(args.seed)
    rows = harness.compare_edf(
        args.N,
        args.n_values,
        m=args.m,
        reps=args.reps,
        seed=seed,
        level=args.level,
        standardize_first=args.standardize,
    )
    if args.format == "json":
        text = json.dumps(harness.records_to_json(rows)) + "\n"
    else:
        text = harness.records_to_csv(harness.CompareRow, rows)
    _write_output(args.output, text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FiniteNError as exc:
        print(f"finiten: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"finiten: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
