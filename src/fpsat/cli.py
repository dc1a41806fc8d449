"""Command-line interface: solve, bench, and combined subcommands."""

from __future__ import annotations

import argparse
import math
import re
import sys

from .harness import (
    DEFAULT_FILE_TIMEOUT,
    run_bench,
    run_combined,
    run_solve,
)
from .portfolio import ALGORITHMS, PortfolioConfig


def _add_portfolio_args(p: argparse.ArgumentParser) -> None:
    # Python < 3.13 reads "-1e6" as an option name, so `--bounds -1e6 1e6`
    # would fail; this is the negative-number rule Python 3.13 adopted
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    p.add_argument("--bh", type=int, default=1, metavar="N",
                   help="basin-hopping instances (default 1)")
    p.add_argument("--crs2", type=int, default=1, metavar="N",
                   help="CRS2 instances (default 1)")
    p.add_argument("--isres", type=int, default=1, metavar="N",
                   help="ISRES instances (default 1)")
    p.add_argument("--max-evals", type=int, default=1_000_000, metavar="M",
                   help="objective evaluation budget per instance")
    p.add_argument("--seed", type=int, default=1, metavar="S",
                   help="global 64-bit seed")
    p.add_argument("--start-range", type=float, nargs=2, default=(-0.5, 0.5),
                   metavar=("LO", "HI"), help="random start range")
    p.add_argument("--bounds", type=float, nargs=2, default=(-1e9, 1e9),
                   metavar=("LO", "HI"),
                   help="search box for the population methods")


def _portfolio_config(parser: argparse.ArgumentParser, args,
                      wall_timeout=None) -> PortfolioConfig:
    """Build the race configuration; usage errors exit 2 via `parser.error`."""
    instances = []
    for name in ALGORITHMS:
        count = getattr(args, name)
        if count < 0:
            parser.error(f"--{name} must be >= 0")
        if count:
            instances.append((name, count))
    if not instances:
        parser.error("at least one optimizer instance is required")
    if args.max_evals < 1:
        parser.error("--max-evals must be >= 1")
    if not all(map(math.isfinite, args.bounds)):
        parser.error("--bounds LO HI must be finite")
    lo, hi = args.bounds
    if not lo < hi:
        parser.error("--bounds LO HI needs LO < HI")
    if not all(map(math.isfinite, args.start_range)):
        parser.error("--start-range LO HI must be finite")
    if args.timeout is not None and not 0 <= args.timeout < math.inf:
        parser.error("--timeout must be finite and >= 0")
    return PortfolioConfig(
        instances=instances,
        max_evals=args.max_evals,
        seed=args.seed,
        start_range=tuple(args.start_range),
        wall_timeout=wall_timeout,
        bounds=(lo, hi),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fpsat",
        description="Floating-point satisfiability via a portfolio of "
                    "global optimizers (sat or unknown; never unsat).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one SMT-LIB2 file")
    p_solve.add_argument("file")
    _add_portfolio_args(p_solve)
    p_solve.add_argument("--timeout", type=float, default=None, metavar="T",
                         help="wall timeout in seconds")
    p_solve.add_argument("--model", action="store_true",
                         help="print the model block on sat")
    p_solve.add_argument("--stats-json", action="store_true",
                         help="print a JSON stats object")
    p_solve.add_argument("--dump-cnf", action="store_true",
                         help="dump the normalized clause set")

    p_bench = sub.add_parser("bench", help="run a directory of .smt2 files")
    p_bench.add_argument("dir")
    _add_portfolio_args(p_bench)
    p_bench.add_argument("--timeout", type=float, default=DEFAULT_FILE_TIMEOUT,
                         metavar="T", help="per-file wall timeout (default 600)")
    p_bench.add_argument("--repeat", type=int, default=1, metavar="K",
                         help="repeat runs for first-finder statistics")
    p_bench.add_argument("--csv", default=None, metavar="PATH",
                         help="write per-file records as CSV")

    p_comb = sub.add_parser("combined",
                            help="race the portfolio against an external solver")
    p_comb.add_argument("file")
    p_comb.add_argument("--external", required=True, metavar="CMD",
                        help="external solver command (gets the file appended)")
    _add_portfolio_args(p_comb)
    p_comb.add_argument("--timeout", type=float, default=DEFAULT_FILE_TIMEOUT,
                        metavar="T", help="overall wall timeout")

    args = parser.parse_args(argv)

    if args.command == "solve":
        config = _portfolio_config(p_solve, args, wall_timeout=args.timeout)
        report = run_solve(args.file, config, show_model=args.model,
                           stats_json=args.stats_json, dump_cnf=args.dump_cnf)
        return report.exit_code

    if args.command == "bench":
        config = _portfolio_config(p_bench, args)
        run_bench(args.dir, config, timeout=args.timeout,
                  repeat=args.repeat, csv_path=args.csv)
        return 0

    # combined
    config = _portfolio_config(p_comb, args)
    try:
        outcome = run_combined(args.file, args.external, config,
                               timeout=args.timeout)
    except Exception as exc:
        print("error", file=sys.stdout)
        print(str(exc), file=sys.stderr)
        return 2
    print(outcome.verdict)
    if outcome.model_block:
        print(outcome.model_block)
    print(f"; source={outcome.source} wall={outcome.wall_time:.3f}s",
          file=sys.stderr)
    if outcome.note:
        print(f"; {outcome.note}", file=sys.stderr)
    return 0 if outcome.verdict in ("sat", "unsat") else 1


if __name__ == "__main__":
    sys.exit(main())
