"""Command-line experiment runner.

Examples::

    python -m repro.experiments --list
    python -m repro.experiments fig6 --scale quick
    python -m repro.experiments all --scale smoke
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.experiments.registry import describe, experiment_ids
from repro.experiments.report import run_each, write_report

#: Component registries the ``--list-<kind>`` flags print, with the
#: module whose import populates each one (``None`` = self-populating).
_REGISTRY_MENUS = (
    ("topologies", "TOPOLOGIES", "repro.core.spec"),
    # spec (not routing) also pulls in the 3-D pack's registrations.
    ("routings", "ROUTINGS", "repro.core.spec"),
    ("routers", "ROUTERS", "repro.sim.router"),
    ("patterns", "PATTERNS", "repro.sim.traffic"),
    ("allocators", "ALLOCATORS", "repro.sim.allocator"),
    ("engines", "ENGINES", None),
)


def _print_registry_menu(registry_name: str, module: str) -> None:
    """Print one registry's catalogue without constructing anything.

    Rows come from registration metadata only (name, aliases,
    description); no config, topology, or engine is ever built, so the
    menu works even for entries that would fail validation.
    """
    import importlib

    from repro.core import registry as registries

    if module:
        importlib.import_module(module)
    reg = getattr(registries, registry_name)
    for name, aliases, description in reg.menu():
        alias_note = f"  [aliases: {', '.join(aliases)}]" if aliases else ""
        print(f"{name:20s} {description}{alias_note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment id (fig6, table2, ...) or 'all'",
    )
    parser.add_argument("--scale", choices=("smoke", "quick", "full"),
                        default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for campaign experiments (default 1; "
             "results are bit-identical to a serial run)",
    )
    parser.add_argument(
        "--engine", metavar="NAME", default=None,
        help="simulation engine for sweep experiments (a "
             "repro.core.registry.ENGINES name, e.g. 'compiled'; "
             "engines are bit-identical by contract, so this only "
             "changes wall-clock)",
    )
    parser.add_argument(
        "--watchdog-cycles", type=int, default=None, metavar="N",
        help="forward-progress watchdog stall window in cycles for "
             "experiments that take one (overrides their preset; both "
             "engines honor it identically)",
    )
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids")
    for flag, _registry, _module in _REGISTRY_MENUS:
        parser.add_argument(
            f"--list-{flag}", action="store_true",
            help=f"list registered {flag} (with aliases) and exit",
        )
    parser.add_argument(
        "--preflight", action="store_true",
        help="statically verify every design point before campaign "
             "experiments start simulating (see repro.verify)",
    )
    parser.add_argument("--output", metavar="FILE",
                        help="write a combined markdown report to FILE")
    args = parser.parse_args(argv)

    menus = [
        (registry, module)
        for flag, registry, module in _REGISTRY_MENUS
        if getattr(args, f"list_{flag}")
    ]
    if menus:
        for registry, module in menus:
            _print_registry_menu(registry, module)
        return 0

    if args.list or args.experiment is None:
        for exp_id in experiment_ids():
            print(f"{exp_id:8s} {describe(exp_id)}")
        return 0

    ids = (
        experiment_ids() if args.experiment == "all" else [args.experiment]
    )
    # Only what the user set: an unset flag leaves a driver's default.
    given = dict(
        preflight=args.preflight,
        jobs=args.jobs,
        engine=args.engine,
        watchdog_cycles=args.watchdog_cycles,
    )
    options = {k: v for k, v in given.items() if v is not None}
    failures: List[str] = []
    if args.output:
        path = write_report(args.output, ids=ids, scale=args.scale,
                            seed=args.seed, failures=failures, **options)
        print(f"wrote {path}")
    else:
        for _exp_id, result, elapsed in run_each(
            ids, failures, scale=args.scale, seed=args.seed, **options
        ):
            print(result.report())
            print(f"  [{elapsed:.1f}s]\n")
    if failures:
        print(
            f"{len(failures)} experiment(s) failed: "
            + ", ".join(failures),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
