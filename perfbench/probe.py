"""Set-up probe: import finiten.cli and build one workload's inputs, then exit.

Run in a fresh process as ``python3 perfbench/probe.py <finiten argv...>``
with the checkout's ``src`` on PYTHONPATH. The benchmark times the whole
process, so the figure covers interpreter start, the import, argument
parsing and building the spec, laws, configs and bases that the command
needs before its first replication.
"""

import sys

from finiten import cli
from finiten.distribution import FiniteNLaw
from finiten.harness import GridSpec
from finiten.stein_test import SteinTestConfig


def build(argv):
    args = cli.build_parser().parse_args(argv)
    if args.command == "grid":
        spec = GridSpec(
            N_values=tuple(args.N_values), n_values=tuple(args.n_values),
            m_values=tuple(args.m_values), level=args.level,
            calib_reps=args.calib_reps, eval_reps=args.eval_reps, master_seed=args.seed,
        )
        pairs = [(N, m) for N in spec.N_values for _ in spec.n_values for m in spec.m_values]
    elif args.command == "compare":
        pairs = [(args.N, args.m)]
    elif args.command == "test":
        with open(args.input, encoding="utf-8") as fh:
            [float(token) for token in fh.read().split()]  # parsed as the CLI parses it
        pairs = [(args.N, args.m)]
    else:
        raise SystemExit(f"probe: unsupported command {args.command!r}")
    for N, m in pairs:
        config = SteinTestConfig(N=N, m=m, level=args.level)
        FiniteNLaw(N)
        config.build_basis()
        config.theoretical_cutoff()


if __name__ == "__main__":
    build(sys.argv[1:])
