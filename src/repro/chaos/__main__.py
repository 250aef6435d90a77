"""Command-line chaos/soak runner.

Examples::

    python -m repro.chaos                       # quick scale, serial
    python -m repro.chaos --scale smoke --jobs 2
    python -m repro.chaos --seed 7 --checkpoint chaos.json

Exit status is non-zero when any row failed outright, or when
``--expect-engine`` is given and any completed row ran on a different
engine (silent-fallback detection for CI).
"""

from __future__ import annotations

import argparse
import sys
import time


def main(argv=None) -> int:
    from repro.chaos import run

    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description=(
            "Randomized fault-campaign soak: escalating severity tiers "
            "at near-saturation load, reproducible from --seed."
        ),
    )
    parser.add_argument("--scale", choices=("smoke", "quick", "full"),
                        default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (results are bit-identical to serial)",
    )
    parser.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="JSON checkpoint file; reruns resume completed rows",
    )
    parser.add_argument(
        "--engine", metavar="NAME", default=None,
        help="simulation engine (default: compiled)",
    )
    parser.add_argument(
        "--watchdog-cycles", type=int, default=None, metavar="N",
        help="override the preset watchdog stall window",
    )
    parser.add_argument(
        "--expect-engine", metavar="NAME", default=None,
        help="fail (exit 1) unless every completed row ran on NAME "
             "(e.g. 'compiled' — catches silent fallback)",
    )
    parser.add_argument(
        "--preflight", action="store_true",
        help="statically verify every row's design point, its faults "
             "included, before the first row simulates",
    )
    args = parser.parse_args(argv)

    start = time.time()
    result = run(
        scale=args.scale,
        seed=args.seed,
        checkpoint=args.checkpoint,
        preflight=args.preflight,
        jobs=args.jobs,
        watchdog_cycles=args.watchdog_cycles,
        engine=args.engine,
    )
    print(result.report())
    print(f"  [{time.time() - start:.1f}s]")

    status = 0
    if "FAILED ROWS" in result.notes:
        print("chaos campaign had failed rows", file=sys.stderr)
        status = 1
    if args.expect_engine:
        strays = [
            f"{row['config']}/{row['tier']}/s{row['fault_seed']}"
            f" ran on {row.get('engine')!r}"
            for row in result.rows
            if row.get("engine") != args.expect_engine
        ]
        if strays:
            print(
                f"{len(strays)} row(s) did not run on the expected "
                f"engine {args.expect_engine!r}: " + "; ".join(strays),
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
