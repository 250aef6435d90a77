"""Registry mapping every paper figure/table to its experiment driver."""

from __future__ import annotations

import importlib
import inspect
from typing import Any, Dict, Optional, Tuple

from repro.experiments.base import ExperimentResult

#: id -> (module whose ``run`` is the driver, description), in figure
#: order; a leading dot is relative to this package.  A driver module is
#: imported when it runs, not before: the listing imports none of them,
#: and ``fig6`` never loads the manycore stack.
_REGISTRY: Dict[str, Tuple[str, str]] = {
    "table1": (".table1_properties", "Topology physical-scalability matrix"),
    "fig5": (".fig5_connectivity", "Crossbar connectivity, pop vs depop"),
    "fig6": (".fig6_synthetic_full", "Full Ruche synthetic traffic"),
    "fig7": (".fig7_area_timing", "Area vs cycle-time synthesis sweep"),
    "table2": (".table2_area", "Router area breakdown"),
    "table3": (".table3_energy", "Router energy per packet"),
    "fig8": (".fig8_fairness", "Per-tile latency fairness"),
    "fig9": (".fig9_synthetic_half", "Half Ruche synthetic traffic"),
    "table4": (".table4_bandwidth", "Bisection vs memory bandwidth"),
    "fig10": (".fig10_speedup", "Benchmark speedup over mesh"),
    "fig11": (".fig11_scalability", "Scalability at 4x cores"),
    "fig12": (".fig12_load_latency", "Remote load latency decomposition"),
    "fig13": (".fig13_energy", "Total energy breakdown"),
    "table6": (".table6_geomean", "Half Ruche geomean summary"),
    "sweep3d": (
        ".sweep3d",
        "3-D mesh/torus synthetic traffic (beyond-2-D pack)",
    ),
    "tail": (
        ".tail_latency",
        "Tail latency and fairness at near-saturation load",
    ),
    "faults": (
        ".fault_degradation",
        "Graceful degradation under random dead links",
    ),
    "chaos": (
        "repro.chaos",
        "Chaos soak: escalating fault tiers at near-saturation load",
    ),
}


def experiment_ids() -> Tuple[str, ...]:
    return tuple(_REGISTRY)


def describe(experiment_id: str) -> str:
    return _REGISTRY[experiment_id][1]


def run_experiment(
    experiment_id: str,
    scale: Optional[str] = None,
    seed: int = 0,
    **options: Any,
) -> ExperimentResult:
    """Run one paper experiment by id (e.g. ``"fig6"``, ``"table2"``).

    Extra ``options`` (e.g. ``preflight=True``) are forwarded only to
    drivers whose signature accepts them, so campaign-only switches can
    be applied to an ``all`` run without breaking simple experiments.
    """
    try:
        module, _ = _REGISTRY[experiment_id]
    except KeyError:
        menu = "\n".join(
            f"  {name:<8} {entry[1]}"
            for name, entry in sorted(_REGISTRY.items())
        )
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available "
            f"experiments:\n{menu}"
        ) from None
    driver = importlib.import_module(module, __package__).run
    parameters = inspect.signature(driver).parameters
    accepted = {k: v for k, v in options.items() if k in parameters}
    return driver(scale=scale, seed=seed, **accepted)
