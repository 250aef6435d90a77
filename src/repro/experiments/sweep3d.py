"""Beyond-2-D: 3-D mesh/torus load-latency sweeps (fig6 shape).

The port-graph IR makes the whole pipeline dimension-agnostic, and this
driver is the proof in campaign form: the same rate-sweep grid, batched
compiled engine, and preflight gate fig6 uses, pointed at the
3-D topology pack (``mesh3d`` / ``torus3d``, stacked ``depth`` layers
riding the RN/RS port ids).  The quick and full presets run the
8x8x4 torus — 256 nodes, three FBFC rings per router — through
:func:`~repro.sim.fastsim.run_compiled_batch` like any 2-D point.

See ``docs/methodology.md`` ("Beyond 2-D") for the sweep recipe.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.experiments.base import ExperimentResult, resolve_scale
from repro.experiments.campaign import run_campaign
from repro.experiments.sweeps import (
    grid_preflight,
    rate_sweep_grid,
    run_rate_sweep_row,
    run_rate_sweep_rows,
)

CONFIG_NAMES = ("mesh3d", "torus3d")

#: 3-D sweeps are uniform-random only: the 2-D coordinate patterns
#: (transpose, tornado, ...) produce layer-0 destinations and would
#: measure an unintended projection, not the 3-D fabric.
PATTERNS = ("uniform_random",)

_PRESETS: Dict[str, dict] = {
    "smoke": dict(
        sizes=[(4, 4)], depth=3,
        rates=(0.05, 0.30),
        warmup=150, measure=300, drain=600,
    ),
    "quick": dict(
        sizes=[(8, 8)], depth=4,
        rates=(0.02, 0.10, 0.20, 0.30, 0.45),
        warmup=250, measure=500, drain=1200,
    ),
    "full": dict(
        sizes=[(8, 8)], depth=4,
        rates=(0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35,
               0.40, 0.45, 0.50, 0.60),
        warmup=500, measure=1000, drain=3000,
    ),
}


def make_grid(
    scale: str,
    seed: int = 1,
    sizes: Optional[Sequence[Tuple[int, int]]] = None,
    engine: Optional[str] = None,
) -> list:
    """The 3-D sweep campaign grid (also used by the pack's tests)."""
    preset = _PRESETS[scale]
    depth = preset["depth"]

    def options_for(
        name: str, width: int, height: int, pattern: str
    ) -> Dict[str, Any]:
        return {"depth": depth}

    return rate_sweep_grid(
        scale=scale,
        sizes=list(sizes or preset["sizes"]),
        patterns=PATTERNS,
        configs=CONFIG_NAMES,
        rates=preset["rates"],
        warmup=preset["warmup"],
        measure=preset["measure"],
        drain=preset["drain"],
        seed=seed,
        options_for=options_for,
        engine=engine,
    )


def run(
    scale: Optional[str] = None,
    seed: int = 1,
    sizes: Optional[Sequence[Tuple[int, int]]] = None,
    jobs: int = 1,
    engine: Optional[str] = None,
    preflight: bool = False,
) -> ExperimentResult:
    scale = resolve_scale(scale)
    grid = make_grid(scale, seed=seed, sizes=sizes, engine=engine)
    outcome = run_campaign(
        grid,
        run_rate_sweep_row,
        jobs=jobs,
        preflight=grid_preflight(grid) if preflight else None,
        batch_runner=run_rate_sweep_rows,
    )
    return ExperimentResult(
        experiment_id="sweep3d",
        title="3-D mesh/torus synthetic traffic (load-latency sweeps)",
        rows=outcome.rows,
        scale=scale,
        notes=(
            "Dimension-agnostic pipeline proof: mesh3d (X-Y-Z DOR) and "
            "torus3d (per-ring shortest-way over FBFC) swept through "
            "the batched compiled engine; expect torus3d to saturate "
            "above mesh3d under uniform random."
        ),
    )
