"""Graceful degradation under link faults: mesh vs. Full Ruche.

Not a paper figure — a robustness study the fault subsystem enables.
For each topology and dead-link count, kill random links, rebuild the
route tables around them (fault-tolerant crossbar + BFS detours), then
sweep injection rate to find the degraded saturation throughput and
zero-load latency.  Normalising against the zero-fault row yields the
graceful-degradation curve.

Expected shape: a mesh has exactly one minimal DOR path per pair, so a
single dead link forces long detours through an already-minimal
channel budget — throughput collapses and, near saturation, the detour
turns deadlock (caught by the watchdog and recorded as the row's
``deadlock_load``).  Full Ruche keeps near-healthy throughput through
several dead links because ruche channels give the tables real path
diversity.

Rows carry per-rate sweep points; a watchdog trip at a rate point is
*recorded as saturation at that load* (the network provably cannot
carry it) rather than failing the row.  Campaign-level hardening
(checkpoint resume, retry-with-fresh-seed, budgets) comes from
:mod:`repro.experiments.campaign`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.analysis.degradation import degradation_curves, degradation_rows
from repro.core.spec import (
    NetworkSpec,
    build_config,
    build_faults,
    build_routing,
)
from repro.errors import DeadlockError
from repro.experiments.base import ExperimentResult, resolve_scale
from repro.experiments.campaign import CheckpointStore, run_campaign
from repro.sim.simulator import run_synthetic
from repro.sim.watchdog import WatchdogConfig

#: Fault injection requires wormhole routers (no VCs / FBFC), so the
#: torus baselines are out; mesh vs. the Full Ruche family is the
#: interesting comparison anyway.
_PRESETS: Dict[str, dict] = {
    "smoke": dict(
        size=(8, 8),
        configs=("mesh", "ruche2-depop"),
        fault_counts=(0, 1, 2, 4),
        fault_seeds=(0,),
        rates=(0.05, 0.15, 0.25, 0.35, 0.45),
        warmup=100, measure=200, drain=400,
        stall_window=300, max_cycles=20_000, max_wall_seconds=120.0,
    ),
    "quick": dict(
        size=(8, 8),
        configs=("mesh", "ruche2-depop", "ruche2-pop"),
        fault_counts=(0, 1, 2, 4, 8),
        fault_seeds=(0, 1),
        rates=(0.02, 0.10, 0.20, 0.30, 0.40, 0.50),
        warmup=250, measure=500, drain=1200,
        stall_window=600, max_cycles=60_000, max_wall_seconds=600.0,
    ),
    "full": dict(
        size=(16, 16),
        configs=("mesh", "multimesh", "ruche2-depop", "ruche2-pop",
                 "ruche3-pop"),
        fault_counts=(0, 1, 2, 4, 8, 16),
        fault_seeds=(0, 1, 2),
        rates=(0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40,
               0.45, 0.50),
        warmup=500, measure=1000, drain=3000,
        stall_window=1000, max_cycles=200_000, max_wall_seconds=3600.0,
    ),
}

PATTERN = "uniform_random"


def _row_spec(params: Dict[str, Any]) -> NetworkSpec:
    """The design point a row routes on, its dead links included: what
    the row runs and what ``--preflight`` certifies.

    ``degraded_model`` pins every row (including the zero-fault
    baseline) to the same microarchitecture — BFS tables on the
    fault-tolerant crossbar — so the fractions isolate fault impact
    rather than the DOR-vs-table routing difference.
    """
    width, height = _PRESETS[params["scale"]]["size"]
    return NetworkSpec.for_network(
        params["config"],
        width,
        height,
        fault_links=params["fault_count"],
        fault_seed=params["fault_seed"],
        degraded_model=True,
    )


def _run_row(params: Dict[str, Any]) -> Dict[str, Any]:
    """One campaign row: a full rate sweep at one fault configuration.

    The preset is recovered from ``params["scale"]`` so the runner is a
    module-level function of one picklable dict — required for the
    campaign's ``jobs > 1`` worker processes.
    """
    preset = _PRESETS[params["scale"]]
    spec = _row_spec(params)
    config = build_config(spec)
    schedule = build_faults(spec, config)
    partitioned = 0
    if schedule.affects_routing:
        routing = build_routing(config, faults=schedule)
        partitioned = len(routing.partitioned_pairs())

    stall_window = params.get("watchdog_cycles") or preset["stall_window"]
    points: List[List[float]] = []
    deadlock_load: Optional[float] = None
    for rate in preset["rates"]:
        try:
            point = run_synthetic(
                config,
                PATTERN,
                rate,
                engine=params.get("engine"),
                warmup=preset["warmup"],
                measure=preset["measure"],
                drain_limit=preset["drain"],
                seed=params["seed"],
                faults=schedule,
                watchdog=WatchdogConfig(stall_window=stall_window),
                max_cycles=preset["max_cycles"],
                max_wall_seconds=preset["max_wall_seconds"],
            )
        except DeadlockError:
            # The degraded network provably cannot carry this load:
            # count the point as saturation, not as a campaign failure.
            deadlock_load = rate
            break
        points.append(
            [rate, point.accepted_throughput, point.avg_latency]
        )
        if point.saturated:
            break
    if not points:
        raise DeadlockError(
            f"{params['config']} with {params['fault_count']} dead links "
            f"deadlocked at the lowest swept rate {preset['rates'][0]}"
        )
    row = dict(params)
    row.update(
        partitioned_pairs=partitioned,
        saturation_throughput=max(p[1] for p in points),
        zero_load_latency=points[0][2],
        deadlock_load=deadlock_load,
        points=points,
    )
    return row


def run(
    scale: Optional[str] = None,
    seed: int = 0,
    checkpoint: Optional[str] = None,
    preflight: bool = False,
    jobs: int = 1,
    watchdog_cycles: Optional[int] = None,
    engine: Optional[str] = None,
) -> ExperimentResult:
    """Fault-degradation campaign (experiment id ``faults``).

    ``checkpoint`` names a JSON file; when given, completed rows persist
    there and a rerun resumes instead of recomputing them.  With
    ``preflight=True``, every row's design point — its fault-aware
    detour tables included — is statically verified (deadlock freedom,
    turn legality, reachability — see :mod:`repro.verify`) before the
    first row simulates.
    ``jobs > 1`` shards rows across worker processes with bit-identical
    results (see :func:`repro.experiments.campaign.run_campaign`).
    ``watchdog_cycles`` overrides the preset's stall window (the CLI's
    ``--watchdog-cycles``), and ``engine`` pins the simulation engine;
    both enter the parameter grid — and so the checkpoint key — only
    when set, keeping existing checkpoints resumable.
    """
    scale = resolve_scale(scale)
    preset = _PRESETS[scale]
    width, height = preset["size"]
    overrides: Dict[str, Any] = {}
    if watchdog_cycles is not None:
        overrides["watchdog_cycles"] = watchdog_cycles
    if engine is not None:
        overrides["engine"] = engine
    grid = [
        {
            "config": name,
            "size": f"{width}x{height}",
            "pattern": PATTERN,
            "scale": scale,
            "fault_count": count,
            "fault_seed": fault_seed,
            "seed": seed + 1,
            **overrides,
        }
        for name in preset["configs"]
        for count in preset["fault_counts"]
        for fault_seed in preset["fault_seeds"]
    ]
    store = CheckpointStore(checkpoint) if checkpoint else None
    preflight_fn = None
    if preflight:
        from repro.verify import campaign_preflight

        preflight_fn = campaign_preflight(
            [_row_spec(row) for row in grid],
            engines=[row.get("engine") for row in grid],
        )
    outcome = run_campaign(
        grid,
        _run_row,
        checkpoint=store,
        preflight=preflight_fn,
        jobs=jobs,
    )
    curves = degradation_curves(outcome.rows)
    rows = degradation_rows(curves)
    notes = (
        "throughput_frac/latency_frac are relative to each config's "
        "zero-fault row; deadlock_load is the offered load at which the "
        "watchdog tripped (counted as saturation). Expected shape: mesh "
        "degrades steeply and deadlocks past saturation once links die; "
        "Full Ruche retains near-1.0 throughput_frac via detour "
        "diversity."
    )
    if outcome.failures:
        failed = ", ".join(
            f"{f['config']}/n={f['fault_count']}" for f in outcome.failures
        )
        notes += f" FAILED ROWS (excluded): {failed}."
    if outcome.reused:
        notes += f" ({outcome.reused} rows resumed from checkpoint.)"
    return ExperimentResult(
        experiment_id="faults",
        title="Graceful degradation under random dead links",
        rows=rows,
        scale=scale,
        notes=notes,
        columns=(
            "config", "fault_count", "fault_seed", "partitioned_pairs",
            "saturation_throughput", "throughput_frac",
            "zero_load_latency", "latency_frac", "deadlock_load",
        ),
    )
