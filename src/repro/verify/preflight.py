"""Campaign pre-flight: certify every design point before simulating.

A hardened sweep (:func:`repro.experiments.campaign.run_campaign`) can
burn hours on a misconfigured network before the runtime watchdog
notices.  :func:`campaign_preflight` packages the table certifier as the
campaign's opt-in ``preflight`` callable: it certifies each distinct
design point once, and a single failing config aborts the whole campaign
with concrete witnesses before the first row is simulated.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Union

from repro.core.params import NetworkConfig
from repro.core.spec import NetworkSpec, engine_name
from repro.verify.certify import certify_problems


def engine_problems(engines: Iterable[Optional[str]]) -> List[str]:
    """Validate engine names against the ``ENGINES`` registry.

    Each entry is read as a run reads it
    (:func:`repro.core.spec.engine_name`: ``None`` is a row on the
    default engine); each unknown name is reported once with the
    registry menu, so a typo'd ``--engine compield`` dies before the
    first row instead of hours into a checkpointed campaign.
    """
    # ENGINES lazily imports repro.sim.simulator on first lookup, so a
    # preflight-only process still sees the full engine menu.
    from repro.core.registry import ENGINES

    problems: List[str] = []
    for name in dict.fromkeys(engines):
        if engine_name(name) in ENGINES:
            continue
        known = ", ".join(ENGINES.available())
        problems.append(
            f"unknown simulation engine {name!r}; known engines: {known}"
        )
    return problems


def campaign_preflight(
    configs: Iterable[Union[NetworkConfig, NetworkSpec]],
    engines: Iterable[Optional[str]] = (),
) -> Callable[[], List[str]]:
    """A ``preflight`` callable for :func:`run_campaign`.

    The returned thunk runs the table certifier
    (:func:`repro.verify.certify.certify_problems`) over ``configs`` —
    bare configs, or the specs the rows run, which are certified with
    their faults — lazily (at campaign
    start, not at construction) and returns the list of problems;
    ``run_campaign`` raises :class:`~repro.errors.ConfigError` when it
    is non-empty.  ``engines`` optionally carries the simulation-engine
    name of each row (``None`` = the default engine); unknown names are
    reported as problems alongside the certifier's findings.
    """
    frozen = list(configs)
    frozen_engines = list(engines)

    def preflight() -> List[str]:
        return engine_problems(frozen_engines) + certify_problems(frozen)

    return preflight
