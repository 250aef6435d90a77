"""Per-tile latency fairness analysis (paper Figure 8).

In a mesh, a tile's average latency depends strongly on its position —
edge and corner tiles see longer paths — whereas a torus is perfectly
symmetric.  The paper quantifies this as the mean and standard deviation
of per-tile average latencies under low-load uniform random traffic.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping

from repro.core.coords import Coord
from repro.core.params import NetworkConfig
from repro.sim.metrics import tile_moments
from repro.sim.simulator import run_synthetic


@dataclasses.dataclass(frozen=True)
class FairnessSummary:
    """Figure 8 statistics for one network."""

    config_name: str
    mean: float
    stddev: float
    min_tile: float
    max_tile: float

    @property
    def spread(self) -> float:
        return self.max_tile - self.min_tile


def summarize_per_tile(
    config_name: str, per_tile_means: Mapping[Coord, float]
) -> FairnessSummary:
    """Figure 8 statistics of per-tile mean latencies.

    The moments are :func:`~repro.sim.metrics.tile_moments`, the ones
    the per-run fairness columns use: tiles that delivered nothing
    (NaN mean) are excluded.
    """
    mean, stddev, low, high = tile_moments(per_tile_means)
    return FairnessSummary(config_name, mean, stddev, low, high)


def measure_fairness(
    config: NetworkConfig,
    *,
    rate: float = 0.02,
    warmup: int = 300,
    measure: int = 2000,
    seed: int = 5,
) -> FairnessSummary:
    """Run the Figure 8 experiment: low-load UR, per-source-tile stats."""
    result = run_synthetic(
        config,
        "uniform_random",
        rate,
        warmup=warmup,
        measure=measure,
        drain_limit=5000,
        seed=seed,
        track_per_source=True,
    )
    return summarize_per_tile(
        config.name, result.metrics.per_source_means()
    )


def fairness_comparison(
    summaries: Mapping[str, FairnessSummary], mesh_key: str = "mesh"
) -> Dict[str, Dict[str, float]]:
    """Stddev/mean reduction factors vs. mesh (the Figure 8 claims)."""
    mesh = summaries[mesh_key]
    return {
        name: {
            "stddev_reduction_vs_mesh": mesh.stddev / s.stddev
            if s.stddev
            else float("inf"),
            "mean_ratio_vs_mesh": s.mean / mesh.mean,
        }
        for name, s in summaries.items()
    }
