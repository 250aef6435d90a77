"""Tail latency under near-saturation load: p50/p99/p999 + fairness.

Mean latency (Figures 6/9) hides what saturation does to the *worst*
packets: near the knee, queueing noise concentrates in the distribution
tail and in unlucky tiles long before the mean moves much.  This
experiment loads each fabric with uniform-random traffic at a shared
near-saturation rate (a fixed fraction of the mesh's bisection bound,
so rows compare apples-to-apples) — on the compiled engine unless
``engine`` says otherwise — and reports the tail columns promoted into
:mod:`repro.sim.metrics`: p50/p99/p999 latency plus per-tile fairness
(max/mean ratio and CV of per-tile mean latencies).

Expected shape: Ruche channels pull the p99/p999 tail in and flatten
the per-tile spread at the shared load — extra bandwidth helps the
tail first.  At the paper's scale this runs 64x64 (``--scale full``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.spec import NetworkSpec, build_run
from repro.experiments.base import ExperimentResult, resolve_scale
from repro.sim.metrics import tail_latency_stats

#: Fabrics compared (synthetic-traffic names).
CONFIGS = ("mesh", "half-torus", "ruche2-depop", "ruche2-pop")

#: A square mesh's uniform-random bisection bound is 4/width flits per
#: node per cycle; the shared measurement load sits at this fraction of
#: it — heavy enough that the tail separates fabrics, light enough that
#: the mesh still drains.
LOAD_FRACTION = 0.6

_PRESETS: Dict[str, dict] = {
    "smoke": dict(size=(16, 16), warmup=300, measure=600, drain=6_000),
    "quick": dict(size=(32, 32), warmup=500, measure=1_000, drain=12_000),
    "full": dict(size=(64, 64), warmup=1_000, measure=2_000, drain=30_000),
}


def near_saturation_rate(width: int) -> float:
    """The shared per-node injection rate for a ``width``-wide array."""
    return LOAD_FRACTION * 4.0 / width


def run(
    scale: Optional[str] = None, seed: int = 0, engine: str = "compiled"
) -> ExperimentResult:
    scale = resolve_scale(scale)
    preset = _PRESETS[scale]
    width, height = preset["size"]
    rate = near_saturation_rate(width)
    rows: List[Dict[str, Any]] = []
    for config in CONFIGS:
        spec = NetworkSpec.for_network(
            config,
            width,
            height,
            pattern="uniform_random",
            rate=rate,
            warmup=preset["warmup"],
            measure=preset["measure"],
            drain_limit=preset["drain"],
            seed=seed,
            engine=engine,
        )
        result = build_run(
            spec, track_per_source=True, keep_samples=True
        )
        rows.append({
            "config": config,
            "rate": rate,
            "engine": result.engine,
            "accepted_throughput": result.accepted_throughput,
            "avg_latency": result.avg_latency,
            "drained": result.drained,
            **tail_latency_stats(result.metrics),
        })
    return ExperimentResult(
        experiment_id="tail",
        title=(
            f"Tail latency at near-saturation "
            f"({width}x{height}, rate {rate:.4f})"
        ),
        rows=rows,
        scale=scale,
        notes=(
            "Shared uniform-random load at "
            f"{LOAD_FRACTION:.0%} of the mesh bisection bound; tail "
            "columns (p50/p99/p999, per-tile fairness) come from "
            "repro.sim.metrics; the engine column names the engine that "
            "ran each row."
        ),
    )
