"""Static verification of routing correctness, pre-simulation.

The paper's central correctness claim — every routing variant is
deadlock-free and consistent with its crossbar connectivity matrix
(Figures 4–5) — is proved here *statically*, before a single cycle is
simulated, by one topology-agnostic **table certifier**
(:mod:`repro.verify.certify`).  For any
:class:`~repro.core.spec.NetworkSpec` it tabulates the routing — builtin
DOR, fault-masked BFS tables, or a third-party plugin — into
per-destination next-hop tables over the port graph, with no 2-D
coordinate assumptions, and proves:

* **Route soundness and termination** — every entry chain ejects at its
  destination within a proven hop bound, no entry escapes through a
  fault-masked port, and every table entry agrees with the reference
  routing function.
* **Deadlock freedom** — the channel dependency graph (VC-extended for
  the torus dateline scheme) is acyclic; a violation is reported as a
  concrete cyclic channel chain.
* **Turn legality** — every turn the tables emit exists in the crossbar
  connectivity matrix the network is built with (the fault-tolerant
  matrix under fault-aware routing), so crossbar depopulation can never
  silently drop a needed connection.
* **Minimality** — audited so that the expected non-minimal cases
  (depopulated Ruche) are flagged and nothing else.
* **Lowering safety** — structured diagnostics naming exactly why a
  spec would fall back to the reference engine.

The exhaustive 2-D coordinate enumerator (:mod:`repro.verify.engine`)
is the certifier's independent oracle: :func:`cross_validate_spec`
checks both analyses reach the same verdict on the same resolved parts,
and ``python -m repro.verify`` fails on any disagreement.

Stdlib-``ast`` lints (:mod:`repro.verify.determinism` and
:mod:`repro.verify.lints`) additionally forbid wall-clock / global-RNG
nondeterminism, unordered-set iteration, undisciplined RNG stream
names, slotless subclasses of slotted simulation classes, and
description-less registry entries in ``repro.core`` and ``repro.sim``.

Run ``python -m repro.verify --help`` for the command-line front end,
or use :func:`repro.verify.preflight.campaign_preflight` to gate long
checkpointed sweeps on certified networks.
"""

from repro.verify.certify import (
    certify_config,
    certify_problems,
    certify_spec,
    cross_validate_spec,
    enumerator_agrees,
)
from repro.verify.determinism import (
    DEFAULT_LINT_PACKAGES,
    LintFinding,
    lint_determinism,
    lint_file,
    lint_source,
)
from repro.verify.engine import verify_config, verify_spec
from repro.verify.lints import lint_conformance, lint_conformance_source
from repro.verify.matrix import paper_spec_matrix
from repro.verify.preflight import campaign_preflight, engine_problems
from repro.verify.report import CertificationReport, VerificationReport
from repro.verify.turns import is_legal_turn, routing_matrix

__all__ = [
    "DEFAULT_LINT_PACKAGES",
    "CertificationReport",
    "LintFinding",
    "VerificationReport",
    "campaign_preflight",
    "certify_config",
    "certify_problems",
    "certify_spec",
    "cross_validate_spec",
    "engine_problems",
    "enumerator_agrees",
    "is_legal_turn",
    "lint_conformance",
    "lint_conformance_source",
    "lint_determinism",
    "lint_file",
    "lint_source",
    "paper_spec_matrix",
    "routing_matrix",
    "verify_config",
    "verify_spec",
]
