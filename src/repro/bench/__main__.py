"""Command-line bench runner.

Examples::

    python -m repro.bench --json BENCH_noc.json        # refresh baseline
    python -m repro.bench --quick --json report.json \\
        --baseline BENCH_noc.json                      # CI regression gate
    python -m repro.bench --engine compiled            # one engine only
    python -m repro.bench --profile torus-64x8-ur      # cProfile a case
    python -m repro.bench --markdown report.json       # render a report
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import (
    BENCH_ENGINES,
    CASES,
    compare_to_baseline,
    load_report,
    profile_case,
    render_lowering,
    render_markdown,
    run_bench,
    write_report,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Measure simulator cycles/sec on canonical configs.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer repeats (CI mode); cycles/sec stays comparable to "
             "full-mode baselines",
    )
    parser.add_argument("--json", metavar="FILE",
                        help="write the report as JSON to FILE")
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="compare against a committed baseline report; exit 1 on "
             "regression",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--engine", choices=BENCH_ENGINES + ("both",), default="both",
        help="simulation engine(s) to measure (default: both)",
    )
    parser.add_argument(
        "--profile", metavar="CASE", choices=tuple(CASES),
        help="cProfile one canonical case (top 20 by cumulative time) "
             "instead of benchmarking; honours --engine",
    )
    parser.add_argument(
        "--markdown", metavar="FILE",
        help="render FILE (a bench report JSON written by --json) as a "
             "GitHub-flavoured markdown summary on stdout and exit; "
             "no benchmarks are run",
    )
    args = parser.parse_args(argv)

    if args.markdown:
        print(render_markdown(load_report(args.markdown)), end="")
        return 0

    engines = (
        BENCH_ENGINES if args.engine == "both" else (args.engine,)
    )

    if args.profile:
        for engine in engines:
            print(f"== {args.profile} [{engine}] ==")
            print(profile_case(args.profile, seed=args.seed,
                               engine=engine))
        return 0

    mode = "quick" if args.quick else "full"
    report = run_bench(mode=mode, seed=args.seed, engines=engines)

    for case in report["cases"]:
        speedup = case.get("speedup_vs_reference")
        suffix = f" ({speedup:.2f}x vs reference)" if speedup else ""
        print(
            f"{case['name']:24s} [{case['engine']:9s}] "
            f"cycles={case['total_cycles']:6d} "
            f"best={case['best_seconds']:.3f}s "
            f"cps={case['cycles_per_sec']:,.0f}{suffix}"
        )
    print(f"cold lowering: {render_lowering(report['lowering'])}")
    if args.json:
        write_report(report, args.json)
        print(f"wrote {args.json}")

    if args.baseline:
        baseline = load_report(args.baseline)
        regressions = compare_to_baseline(report, baseline)
        if regressions:
            for regression in regressions:
                print(f"REGRESSION: {regression}", file=sys.stderr)
            return 1
        print(
            f"bench OK: every case of {args.baseline} present, above "
            f"its speedup floor and under its lowering ceiling"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
