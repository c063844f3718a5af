"""Command-line entry point: ``python -m repro.experiments <figure>``."""

from __future__ import annotations

import argparse
import sys
import time

from repro.api import Deployment, run_grid
from repro.experiments.base import Profile
from repro.experiments.figures import FIGURES, evaluate


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's evaluation figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*FIGURES, "all"],
        help="which figure to reproduce ('all' runs every one)",
    )
    parser.add_argument(
        "--profile",
        default=Profile.DEFAULT.value,
        choices=[p.value for p in Profile],
        help="workload scale (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master random seed"
    )
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="with 'all': run the figures concurrently on all cores",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="run on a sharded topology with N shard servers "
        "(ledgers are identical to the single server; default: 1)",
    )
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")
    if args.parallel and args.experiment != "all":
        parser.error("--parallel runs the figures concurrently: use it with 'all'")

    if args.shards > 1:
        deployment = Deployment.sharded(args.shards)
    else:
        deployment = Deployment.single()

    if args.experiment == "all":
        started = time.perf_counter()
        grid = {
            "name": list(FIGURES),
            "profile": [args.profile],
            "seed": [args.seed],
            "deployment": [deployment],
        }
        for row in run_grid(evaluate, grid, parallel=args.parallel):
            print(row["result"].format())
            print()
        print(f"(total {time.perf_counter() - started:.1f}s)")
        return 0

    started = time.perf_counter()
    result = evaluate(args.experiment, args.profile, args.seed, deployment)
    print(result.format())
    print(f"(ran in {time.perf_counter() - started:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
