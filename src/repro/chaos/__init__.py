"""Randomized fault-campaign (chaos/soak) harness.

A chaos campaign answers the question the curated fault studies cannot:
what happens to tail latency and per-tile fairness when a network runs
under sustained load while silicon degrades underneath it?  Each row
draws a seeded :class:`~repro.sim.faults.FaultSchedule` from an
escalating severity tier — from a healthy baseline through light
scratches to a mauled fabric mixing dead links, dead routers, and
flit-dropping channels — and simulates it on the compiled engine
(:mod:`repro.sim.fastsim`), which executes fault schedules
bit-identically to the reference engine at a multiple of its speed.

Each row runs two phases:

* **Load probe** — a descending ladder of near-saturation rates.  The
  highest rate the degraded fabric carries to completion is recorded as
  ``sustained_rate``; the lowest rate at which the forward-progress
  watchdog tripped is ``deadlock_load`` (with the snapshot summary).
  Deadlock here is data, not failure — discovering where a degraded
  fabric stops making progress is what a soak run is for.
* **Common-rate measurement** — every tier measured at one shared
  moderate rate, yielding p50/p99/p999 latency and per-tile fairness
  (max/mean ratio and coefficient of variation of per-tile means) that
  compare apples-to-apples across tiers.  Faulted rows are joined
  against their tier-0 baseline into ``*_x`` degradation ratios.

Every row also records the engine that actually ran (provenance — CI
asserts no silent fallback).  Reproducibility: the whole campaign is a
pure function of ``(scale, seed)``; fault draws come from each row's
own ``faults:*`` streams and traffic from the run seed, so
``python -m repro.chaos --scale smoke --seed 7`` emits the same rows on
every machine, serial or sharded (``--jobs``).

Runnable as ``python -m repro.chaos`` or as the registered campaign
experiment ``python -m repro.experiments chaos``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.spec import NetworkSpec, build_config, build_faults
from repro.errors import DeadlockError
from repro.experiments.base import ExperimentResult, resolve_scale
from repro.experiments.campaign import CheckpointStore, run_campaign
from repro.sim.faults import FaultSchedule
from repro.sim.metrics import tail_latency_stats
from repro.sim.simulator import run_synthetic
from repro.sim.watchdog import WatchdogConfig

PATTERN = "uniform_random"

#: Escalating severity tiers.  Counts are per-64-tile quanta (scaled by
#: network size), so a tier means the same fault *density* at every
#: scale.  Tier 0 is the healthy control every degradation ratio is
#: measured against; ``degraded_model`` pins all tiers — including the
#: baseline — to the fault-tolerant crossbar + BFS-table
#: microarchitecture, so the ratios isolate fault impact rather than
#: the routing-model change.
TIERS: List[Dict[str, Any]] = [
    dict(tier="baseline", links=0, routers=0, transient=0, drop_prob=0.0),
    dict(tier="scratched", links=1, routers=0, transient=1, drop_prob=0.005),
    dict(tier="wounded", links=2, routers=1, transient=2, drop_prob=0.01),
    dict(tier="mauled", links=4, routers=2, transient=3, drop_prob=0.02),
]

#: Fault injection with rerouting requires wormhole routers, so chaos
#: sticks to the mesh / Ruche family (the paper's focus anyway).
#: ``probe_rates`` descend from above healthy saturation; ``rate`` is
#: the shared measurement load, low enough that every tier can carry it.
_PRESETS: Dict[str, dict] = {
    "smoke": dict(
        size=(8, 8),
        configs=("mesh",),
        fault_seeds=(0,),
        probe_rates=(0.30, 0.20, 0.12, 0.06),
        rate=0.10,
        warmup=150, measure=300, drain=1200,
        stall_window=300, max_cycles=20_000, max_wall_seconds=120.0,
    ),
    "quick": dict(
        size=(8, 8),
        configs=("mesh", "ruche2-depop"),
        fault_seeds=(0, 1),
        probe_rates=(0.32, 0.24, 0.16, 0.08),
        rate=0.10,
        warmup=300, measure=600, drain=2400,
        stall_window=600, max_cycles=60_000, max_wall_seconds=600.0,
    ),
    "full": dict(
        size=(16, 16),
        configs=("mesh", "ruche2-depop", "ruche2-pop"),
        fault_seeds=(0, 1, 2),
        probe_rates=(0.34, 0.26, 0.18, 0.10, 0.05),
        rate=0.08,
        warmup=500, measure=1500, drain=4500,
        stall_window=1000, max_cycles=200_000, max_wall_seconds=3600.0,
    ),
}


def _scaled(count: int, tiles: int) -> int:
    """Scale a per-64-tile fault count to the actual network size."""
    return max(count, count * tiles // 64) if count else 0


def _row_spec(params: Dict[str, Any]) -> NetworkSpec:
    """The design point one (config, tier, fault seed) row routes on,
    its tier's faults included: what ``preflight`` certifies."""
    width, height = _PRESETS[params["scale"]]["size"]
    tier = next(t for t in TIERS if t["tier"] == params["tier"])
    tiles = width * height
    return NetworkSpec.for_network(
        params["config"],
        width,
        height,
        fault_links=_scaled(tier["links"], tiles),
        fault_routers=_scaled(tier["routers"], tiles),
        fault_transient=_scaled(tier["transient"], tiles),
        fault_drop_prob=tier["drop_prob"],
        fault_seed=params["fault_seed"],
        degraded_model=True,
    )


def build_schedule(params: Dict[str, Any]) -> FaultSchedule:
    """The seeded schedule one row runs on: its :func:`_row_spec`'s
    fault draw, so the row runs what ``preflight`` certifies."""
    spec = _row_spec(params)
    return build_faults(spec, build_config(spec))


def _simulate(config, schedule, preset, params, rate, engine):
    return run_synthetic(
        config,
        PATTERN,
        rate,
        engine=engine,
        warmup=preset["warmup"],
        measure=preset["measure"],
        drain_limit=preset["drain"],
        seed=params["seed"],
        faults=schedule,
        watchdog=WatchdogConfig(
            stall_window=params.get("watchdog_cycles")
            or preset["stall_window"]
        ),
        max_cycles=preset["max_cycles"],
        max_wall_seconds=preset["max_wall_seconds"],
        keep_samples=True,
        track_per_source=True,
    )


def _probe_ladder(
    config, schedule, preset, params, engine
) -> Tuple[Optional[float], Optional[float], Optional[str]]:
    """Descend the probe rates: (sustained_rate, deadlock_load, summary)."""
    deadlock_load: Optional[float] = None
    summary: Optional[str] = None
    for rate in preset["probe_rates"]:
        try:
            _simulate(config, schedule, preset, params, rate, engine)
        except DeadlockError as exc:
            deadlock_load = rate
            summary = (
                exc.snapshot.summary() if exc.snapshot else str(exc)
            )
            continue
        return rate, deadlock_load, summary
    return None, deadlock_load, summary


def _run_row(params: Dict[str, Any]) -> Dict[str, Any]:
    """One chaos row: probe ladder + common-rate soak at one
    (config, tier, fault seed).

    Module-level and driven by one picklable dict, as the parallel
    campaign's worker processes require.
    """
    preset = _PRESETS[params["scale"]]
    schedule = build_schedule(params)
    config = schedule.config
    engine = params.get("engine", "compiled")
    row = dict(params)
    row["rate"] = preset["rate"]

    sustained, deadlock_load, summary = _probe_ladder(
        config, schedule, preset, params, engine
    )
    row.update(
        sustained_rate=sustained,
        deadlock_load=deadlock_load,
        deadlock_summary=summary,
    )

    try:
        result = _simulate(
            config, schedule, preset, params, preset["rate"], engine
        )
    except DeadlockError as exc:
        # Even the shared measurement load cannot be carried: the tier's
        # finding is the deadlock itself.
        row.update(
            engine=engine,
            deadlock=True,
            deadlock_summary=(
                exc.snapshot.summary() if exc.snapshot else str(exc)
            ),
        )
        return row
    metrics = result.metrics
    row.update(
        engine=result.engine,
        deadlock=False,
        accepted_throughput=result.accepted_throughput,
        avg_latency=result.avg_latency,
        injected=metrics.injected_measured,
        delivered=metrics.delivered_measured,
        dropped=metrics.dropped_measured,
        drained=result.drained,
        total_cycles=result.total_cycles,
        **tail_latency_stats(metrics),
    )
    return row


def _attach_degradation(rows: List[Dict[str, Any]]) -> None:
    """Join each faulted row against its tier-0 baseline in place."""
    baselines = {
        row["config"]: row
        for row in rows
        if row["tier"] == "baseline" and not row.get("deadlock")
    }
    for row in rows:
        base = baselines.get(row["config"])
        if row.get("deadlock") or base is None or base is row:
            continue
        for metric in ("p99_latency", "p999_latency",
                       "fairness_max_over_mean"):
            denom = base.get(metric)
            if denom:
                row[f"{metric}_x"] = row[metric] / denom


def run(
    scale: Optional[str] = None,
    seed: int = 0,
    checkpoint: Optional[str] = None,
    preflight: bool = False,
    jobs: int = 1,
    watchdog_cycles: Optional[int] = None,
    engine: Optional[str] = None,
) -> ExperimentResult:
    """Chaos/soak campaign (experiment id ``chaos``).

    Sweeps every configured topology across the escalating fault tiers:
    a near-saturation probe ladder per tier plus a shared-load tail
    measurement.  ``engine`` defaults to ``"compiled"`` (the point of
    the harness); pass ``"reference"`` to cross-check.
    ``watchdog_cycles`` overrides the preset stall window.  Both enter
    rows — and checkpoint keys — only when set.
    """
    scale = resolve_scale(scale)
    preset = _PRESETS[scale]
    overrides: Dict[str, Any] = {}
    if watchdog_cycles is not None:
        overrides["watchdog_cycles"] = watchdog_cycles
    if engine is not None:
        overrides["engine"] = engine
    grid = [
        {
            "config": name,
            "scale": scale,
            "tier": tier["tier"],
            "fault_seed": fault_seed,
            "seed": seed + 1,
            **overrides,
        }
        for name in preset["configs"]
        for tier in TIERS
        for fault_seed in preset["fault_seeds"]
    ]
    store = CheckpointStore(checkpoint) if checkpoint else None
    preflight_fn = None
    if preflight:
        from repro.verify import campaign_preflight

        preflight_fn = campaign_preflight(
            [_row_spec(row) for row in grid],
            engines=[row.get("engine", "compiled") for row in grid],
        )
    outcome = run_campaign(
        grid,
        _run_row,
        checkpoint=store,
        preflight=preflight_fn,
        jobs=jobs,
    )
    tier_order = {t["tier"]: i for i, t in enumerate(TIERS)}
    rows = sorted(
        outcome.rows,
        key=lambda r: (r["config"], tier_order[r["tier"]], r["fault_seed"]),
    )
    _attach_degradation(rows)
    notes = (
        "sustained_rate/deadlock_load come from a descending "
        "near-saturation probe ladder (deadlock_load is where the "
        "watchdog tripped — the fabric provably stopped making "
        "progress); tail/fairness columns are measured at the shared "
        f"rate {preset['rate']} and *_x columns are degradation ratios "
        "vs the same config's healthy baseline tier (same degraded "
        "microarchitecture, zero faults)."
    )
    if outcome.failures:
        failed = ", ".join(
            f"{f['config']}/{f['tier']}" for f in outcome.failures
        )
        notes += f" FAILED ROWS (excluded): {failed}."
    if outcome.reused:
        notes += f" ({outcome.reused} rows resumed from checkpoint.)"
    return ExperimentResult(
        experiment_id="chaos",
        title="Chaos soak: tail latency and fairness under escalating faults",
        rows=rows,
        scale=scale,
        notes=notes,
        columns=(
            "config", "tier", "fault_seed", "engine", "sustained_rate",
            "deadlock_load", "p50_latency", "p99_latency", "p999_latency",
            "p99_latency_x", "p999_latency_x", "fairness_max_over_mean",
            "fairness_cv", "dropped",
        ),
    )
