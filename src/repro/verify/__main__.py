"""Command-line front end for the static certifier.

Examples::

    python -m repro.verify                       # full paper matrix + lint
    python -m repro.verify --config ruche2-depop --size 16x8
    python -m repro.verify --sizes 8x8,16x8 --rf 2,3
    python -m repro.verify --load my_plugin.py --no-matrix \
        --spec '{"topology": "my-topology", "width": 16, "height": 8}'
    python -m repro.verify --lint-only
    python -m repro.verify --json report.json    # machine-readable output

Every design point runs through the topology-agnostic table certifier
(:mod:`repro.verify.certify`) over the spec-based paper matrix
(including seeded fault-masked entries), is cross-validated against the
exhaustive enumerator, and reports its engine-lowering diagnostics.
JSON output always carries the spec content hash and a provenance
block, so results are joinable with campaign checkpoints.

Exit codes: 0 = everything verified, 1 = a property failed (the report
names the cycle / illegal turn / unreached pair / disagreement), 2 =
bad invocation or configuration.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro
from repro.core.spec import NetworkSpec
from repro.errors import ConfigError
from repro.verify.certify import cross_validate_spec
from repro.verify.determinism import (
    LintFinding,
    lint_determinism,
    render_findings,
)
from repro.verify.lints import lint_conformance
from repro.verify.matrix import (
    DEFAULT_RUCHE_FACTORS,
    DEFAULT_SIZES,
    paper_spec_matrix,
)


def _parse_sizes(text: str) -> List[Tuple[int, int]]:
    sizes = []
    for token in text.split(","):
        width, _, height = token.strip().partition("x")
        try:
            sizes.append((int(width), int(height)))
        except ValueError as exc:
            raise ConfigError(
                f"bad size {token!r}; expected WxH like 16x8"
            ) from exc
    return sizes


def _load_plugin(path: str) -> None:
    """Import a plugin file so its topology registrations run.

    Keyed on the resolved path in ``sys.modules``, so naming the same
    file twice does not attempt a duplicate registration.
    """
    location = Path(path)
    if not location.is_file():
        raise ConfigError(f"--load {path!r}: no such file")
    name = f"_repro_plugin_{location.resolve().stem}"
    if name in sys.modules:
        return
    module_spec = importlib.util.spec_from_file_location(name, location)
    if module_spec is None or module_spec.loader is None:
        raise ConfigError(f"--load {path!r}: not an importable module")
    module = importlib.util.module_from_spec(module_spec)
    sys.modules[name] = module
    module_spec.loader.exec_module(module)


def _parse_spec(text: str) -> NetworkSpec:
    """One ``--spec`` JSON object -> :class:`NetworkSpec`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--spec is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("--spec must be a JSON object")
    try:
        topology = payload.pop("topology")
        width = payload.pop("width")
        height = payload.pop("height")
    except KeyError as exc:
        raise ConfigError(f"--spec is missing {exc.args[0]!r}") from exc
    return NetworkSpec.for_network(topology, width, height, **payload)


def _provenance(mode: str) -> Dict[str, Any]:
    """The joinable identity block of a verification run."""
    from repro.core.registry import ENGINES

    return {
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "mode": mode,
        "engines": list(ENGINES.available()),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description=(
            "Statically prove deadlock freedom (CDG acyclicity), turn "
            "legality, and bounded reachability for Ruche-network "
            "routing, cross-validated against the exhaustive enumerator."
        ),
    )
    parser.add_argument(
        "--config",
        metavar="NAME",
        help="certify one design point by paper-style name "
        "(mesh, torus, ruche3-depop, ...) instead of the full matrix",
    )
    parser.add_argument(
        "--size", metavar="WxH", default="8x8",
        help="array size for --config (default 8x8)",
    )
    parser.add_argument(
        "--dor", choices=("xy", "yx"), default="xy",
        help="dimension order for --config",
    )
    parser.add_argument(
        "--half", action="store_true",
        help="build Half Ruche variants for --config ruche* names",
    )
    parser.add_argument(
        "--sizes", metavar="W1xH1,W2xH2,...",
        default=",".join(f"{w}x{h}" for w, h in DEFAULT_SIZES),
        help="matrix sizes (default: the paper's 8x8,16x8,64x8)",
    )
    parser.add_argument(
        "--rf", metavar="RF1,RF2,...",
        default=",".join(str(rf) for rf in DEFAULT_RUCHE_FACTORS),
        help="Ruche Factors for the matrix (default 2,3,4)",
    )
    parser.add_argument(
        "--no-fault-aware", action="store_true",
        help="skip the seeded fault-injection entries of the matrix",
    )
    parser.add_argument(
        "--load", metavar="FILE", action="append", default=[],
        help="import a plugin module (e.g. examples/plugin_topology.py) "
        "before building the matrix, so --spec can name its topologies",
    )
    parser.add_argument(
        "--spec", metavar="JSON", action="append", default=[],
        help="certify an extra design point given as a NetworkSpec JSON "
        'object, e.g. \'{"topology": "my-topology", "width": 16, '
        '"height": 8}\'',
    )
    parser.add_argument(
        "--no-matrix", action="store_true",
        help="certify only the --spec design points, "
        "skipping the paper matrix (focused smoke checks)",
    )
    parser.add_argument(
        "--skip-lint", action="store_true",
        help="skip the determinism and conformance lints",
    )
    parser.add_argument(
        "--lint-only", action="store_true",
        help="run only the determinism and conformance lints",
    )
    parser.add_argument(
        "--json", metavar="FILE",
        help="write the machine-readable JSON report to FILE ('-' = stdout)",
    )
    args = parser.parse_args(argv)

    lint_findings: List[LintFinding] = []
    if not args.skip_lint:
        lint_findings = lint_determinism() + lint_conformance()

    report_dicts: List[Dict[str, Any]] = []
    summaries: List[str] = []
    failed = 0
    disagreements = 0
    if not args.lint_only:
        try:
            for path in args.load:
                _load_plugin(path)
            failed, disagreements = _run_certify(
                args, report_dicts, summaries
            )
        except (ConfigError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    mode = "lint" if args.lint_only else "certify"
    payload = {
        "ok": not failed and not disagreements and not lint_findings,
        "verified": len(report_dicts),
        "failed": failed,
        "disagreements": disagreements,
        "lint_findings": [f.render() for f in lint_findings],
        "provenance": _provenance(mode),
        "reports": report_dicts,
    }
    if args.json == "-":
        json.dump(payload, sys.stdout, indent=1, sort_keys=True)
        print()
    else:
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
        for line in summaries:
            print(line)
        if lint_findings:
            print("lint findings:")
            print(render_findings(lint_findings))
        verdict = "ok" if payload["ok"] else "FAILED"
        print(
            f"{mode}: {len(report_dicts)} design point(s), {failed} "
            f"failure(s), {disagreements} enumerator disagreement(s), "
            f"{len(lint_findings)} lint finding(s): {verdict}"
        )
        if args.json:
            print(f"wrote {args.json}")
    return 0 if payload["ok"] else 1


def _describe(
    report_dict: Dict[str, Any], summary: str, summaries: List[str]
) -> None:
    summaries.append(summary)
    for problem in report_dict["problems"]:
        summaries.append(f"    {problem}")
    for warning in report_dict["warnings"]:
        summaries.append(f"    note: {warning}")
    for diagnostic in report_dict.get("lowering", []):
        summaries.append(
            f"    falls back to reference engine: "
            f"{diagnostic['code']}: {diagnostic['detail']}"
        )
    lowering_codes = {
        diagnostic["code"]
        for diagnostic in report_dict.get("lowering", [])
    }
    for diagnostic in report_dict.get("batching", []):
        if diagnostic["code"] in lowering_codes:
            continue  # already reported as a lowering fallback above
        summaries.append(
            f"    excluded from batched execution: "
            f"{diagnostic['code']}: {diagnostic['detail']}"
        )


def _run_certify(
    args: argparse.Namespace,
    report_dicts: List[Dict[str, Any]],
    summaries: List[str],
) -> Tuple[int, int]:
    """Certify every design point; returns (failures, disagreements)."""
    if args.config:
        (width, height), = _parse_sizes(args.size)
        options: Dict[str, Any] = {}
        if args.half:
            options["half"] = True
        if args.dor != "xy":
            options["dor_order"] = args.dor
        specs = [
            NetworkSpec.for_network(args.config, width, height, **options)
        ]
    elif args.no_matrix:
        if not args.spec:
            raise ConfigError("--no-matrix needs at least one --spec")
        specs = []
    else:
        specs = paper_spec_matrix(
            sizes=_parse_sizes(args.sizes),
            ruche_factors=[
                int(rf) for rf in args.rf.split(",") if rf.strip()
            ],
            include_fault_aware=not args.no_fault_aware,
        )
    specs.extend(_parse_spec(text) for text in args.spec)
    failed = 0
    disagreements = 0
    for spec in specs:
        report, agrees = cross_validate_spec(spec)
        if not report.ok:
            failed += 1
        report_dict = report.to_dict()
        report_dict["enumerator_agrees"] = agrees
        report_dicts.append(report_dict)
        _describe(report_dict, report.summary(), summaries)
        if not agrees:
            disagreements += 1
            summaries.append(
                "    DISAGREEMENT: table certifier and exhaustive "
                "enumerator reached different verdicts"
            )
    return failed, disagreements


if __name__ == "__main__":
    sys.exit(main())
