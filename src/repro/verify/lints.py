"""AST conformance lints: RNG-stream discipline and registry/slots rules.

Extends the determinism lint (:mod:`repro.verify.determinism`) with
rules that guard contracts the type checker cannot see, over the same
packages (``repro.core`` and ``repro.sim``):

* ``RNG-STREAM-LITERAL`` — the ``stream`` argument of
  :func:`repro.sim.rng.derive_rng` must be a string literal.  Stream
  names are part of the cross-engine equivalence contract (both engines
  must draw the same streams in the same order), so a computed name
  cannot be audited statically.
* ``RNG-STREAM-SHARED`` — a stream literal drawn in two or more modules
  is either an intentional engine-equivalence replication or exactly
  the commit-order bug class the ``faults:drops`` lowering depends on
  avoiding (the open-loop ``"timing"`` / ``"dest"`` streams are derived
  at one site, ``sim.simulator._open_loop_streams``).  Every such site must
  carry the ``# rng: shared`` pragma to assert it is the former.
* ``CONF-SLOTS`` — a class whose same-module base declares
  ``__slots__`` must declare ``__slots__`` itself; otherwise every
  instance silently grows a ``__dict__`` and the base's memory
  discipline (routers, packets, compiled-model rows) is defeated.
* ``CONF-REG-DESC`` — every registry registration
  (``register_topology`` and friends, or ``SOME_REGISTRY.add`` /
  ``.register``) must pass a non-empty ``description`` string literal,
  so ``Registry.describe`` and the menu-on-miss error stay useful.

A finding is suppressed with the ``# lint: allow`` pragma on the
offending line.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.verify.determinism import DEFAULT_LINT_PACKAGES, LintFinding

#: In-line suppression pragma for conformance findings.
ALLOW_PRAGMA = "lint: allow"

#: Pragma asserting a cross-module stream duplication is intentional.
RNG_SHARED_PRAGMA = "rng: shared"

#: Registration wrappers whose calls must carry a description literal.
_REGISTER_FUNCS = frozenset({
    "register_allocator",
    "register_engine",
    "register_pattern",
    "register_router",
    "register_routing",
    "register_topology",
})

#: Files exempt from CONF-REG-DESC: the registry itself forwards
#: ``description`` variables through its wrappers.
_REG_EXEMPT_FILES = frozenset({"registry.py"})


@dataclasses.dataclass(frozen=True)
class StreamSite:
    """One ``derive_rng`` call with a literal stream name."""

    stream: str
    path: str
    line: int
    col: int
    #: Whether the site carries the ``# rng: shared`` pragma.
    shared_ok: bool


def _literal_description(node: ast.Call) -> Optional[str]:
    """The call's ``description`` keyword when it is a string literal."""
    for keyword in node.keywords:
        if keyword.arg == "description":
            value = keyword.value
            if isinstance(value, ast.Constant) and isinstance(
                value.value, str
            ):
                return value.value
            return None
    return None


class _ConformanceVisitor(ast.NodeVisitor):
    def __init__(self, path: str, check_registrations: bool) -> None:
        self.path = path
        self.check_registrations = check_registrations
        self.findings: List[LintFinding] = []
        self.stream_sites: List[Tuple[str, int, int]] = []
        #: Module-scope classes declaring ``__slots__`` in their body.
        self._slotted: Set[str] = set()

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            LintFinding(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    # -- derive_rng stream discipline ----------------------------------
    def _check_derive_rng(self, node: ast.Call) -> None:
        stream: Optional[ast.expr] = None
        if len(node.args) >= 2:
            stream = node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "stream":
                stream = keyword.value
        if stream is None:
            return  # too few arguments; a TypeError, not a lint concern
        if isinstance(stream, ast.Constant) and isinstance(
            stream.value, str
        ):
            self.stream_sites.append(
                (stream.value, node.lineno, node.col_offset)
            )
            return
        self._flag(
            node,
            "RNG-STREAM-LITERAL",
            "derive_rng stream name must be a string literal so the "
            "draw order is statically auditable",
        )

    # -- registry description discipline -------------------------------
    def _check_registration(self, node: ast.Call, name: str) -> None:
        description = _literal_description(node)
        if description is None or not description.strip():
            self._flag(
                node,
                "CONF-REG-DESC",
                f"{name}(...) needs a non-empty description string "
                f"literal (it feeds Registry.describe and the "
                f"menu-on-miss error)",
            )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "derive_rng":
                self._check_derive_rng(node)
            elif (
                self.check_registrations and func.id in _REGISTER_FUNCS
            ):
                self._check_registration(node, func.id)
        elif isinstance(func, ast.Attribute):
            if func.attr == "derive_rng":
                self._check_derive_rng(node)
            elif (
                self.check_registrations
                and func.attr in ("add", "register")
                and isinstance(func.value, ast.Name)
                and func.value.id.isupper()
            ):
                # SOME_REGISTRY.add(...) / SOME_REGISTRY.register(...):
                # uppercase receivers are the registry constants.
                self._check_registration(
                    node, f"{func.value.id}.{func.attr}"
                )
        self.generic_visit(node)

    # -- __slots__ conformance -----------------------------------------
    @staticmethod
    def _declares_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "__slots__"
                ):
                    return True
        return False

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        declares = self._declares_slots(node)
        slotted_base = None
        for base in node.bases:
            if isinstance(base, ast.Name) and base.id in self._slotted:
                slotted_base = base.id
                break
        if slotted_base is not None and not declares:
            self._flag(
                node,
                "CONF-SLOTS",
                f"class {node.name} extends slotted {slotted_base} but "
                f"declares no __slots__; instances grow a __dict__ and "
                f"defeat the base's memory discipline",
            )
        if declares or slotted_base is not None:
            # Transitively slotted: subclasses must keep declaring.
            self._slotted.add(node.name)
        self.generic_visit(node)


def _pragma_lines(source: str, pragma: str) -> Set[int]:
    return {
        number
        for number, text in enumerate(source.splitlines(), start=1)
        if pragma in text
    }


def lint_conformance_source(
    source: str, path: str = "<string>"
) -> Tuple[List[LintFinding], List[StreamSite]]:
    """Per-file conformance rules plus the file's stream sites.

    Returns the pragma-filtered findings for the single-file rules and
    the literal ``derive_rng`` stream sites, which the caller feeds into
    the cross-file ``RNG-STREAM-SHARED`` analysis.
    """
    tree = ast.parse(source, filename=path)
    basename = Path(path).name
    visitor = _ConformanceVisitor(
        path, check_registrations=basename not in _REG_EXEMPT_FILES
    )
    visitor.visit(tree)
    allowed = _pragma_lines(source, ALLOW_PRAGMA)
    shared = _pragma_lines(source, RNG_SHARED_PRAGMA)
    findings = [
        finding
        for finding in visitor.findings
        if finding.line not in allowed
    ]
    sites = [
        StreamSite(
            stream=stream,
            path=path,
            line=line,
            col=col,
            shared_ok=line in shared or line in allowed,
        )
        for stream, line, col in visitor.stream_sites
    ]
    return findings, sites


def shared_stream_findings(
    sites: Sequence[StreamSite],
) -> List[LintFinding]:
    """The cross-file ``RNG-STREAM-SHARED`` rule over collected sites."""
    by_stream: Dict[str, List[StreamSite]] = {}
    for site in sites:
        by_stream.setdefault(site.stream, []).append(site)
    findings: List[LintFinding] = []
    for stream in sorted(by_stream):
        group = by_stream[stream]
        if len({site.path for site in group}) < 2:
            continue
        for site in group:
            if site.shared_ok:
                continue
            findings.append(
                LintFinding(
                    path=site.path,
                    line=site.line,
                    col=site.col,
                    rule="RNG-STREAM-SHARED",
                    message=(
                        f'stream "{stream}" is drawn in multiple '
                        f'modules; add "# rng: shared" if the '
                        f"duplication is an intentional "
                        f"engine-equivalence mirror"
                    ),
                )
            )
    return findings


def lint_conformance(
    root: Optional[Path] = None,
    packages: Sequence[str] = DEFAULT_LINT_PACKAGES,
) -> List[LintFinding]:
    """Run every conformance rule over the lint-covered packages.

    ``root`` is the ``repro`` package directory (auto-detected by
    default); ``packages`` are subpackage names relative to it, the
    same default set the determinism lint covers.
    """
    if root is None:
        root = Path(__file__).resolve().parent.parent
    findings: List[LintFinding] = []
    sites: List[StreamSite] = []
    for package in packages:
        for path in sorted((root / package).rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            file_findings, file_sites = lint_conformance_source(
                source, str(path)
            )
            findings.extend(file_findings)
            sites.extend(file_sites)
    findings.extend(shared_stream_findings(sites))
    return findings
