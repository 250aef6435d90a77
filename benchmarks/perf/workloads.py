"""The six frozen workloads, their bodies, and the statistics digest.

Every grid below is spelled out here — built from ``rate_sweep_grid``
and ``NetworkSpec.for_network``, never from a driver's ``_PRESETS`` —
so editing an experiment driver cannot silently change what the
benchmark measures.  ``--seed`` feeds every grid/spec ``seed`` and every
``fault_seed``; the program under test sees only the generated specs.

Sizing: the driver contract gives one invocation about 25 s including
set-up, so every body is sized to roughly 2-3 s on the 2-core reference
host (the issue's 6-15 s bodies do not fit; the *shape* of each workload
— which layer does the work — is what is kept).  ``smoke=True`` shrinks
each workload to a fraction of a second for the smoke test.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from collections import Counter
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.core.spec import NetworkSpec
from repro.experiments import manycore_runs
from repro.experiments.campaign import CheckpointStore, run_campaign
from repro.experiments.sweeps import (
    rate_sweep_grid,
    run_rate_sweep_row,
    run_rate_sweep_rows,
)
from repro.sim.fastsim import run_compiled_batch
from repro.sim.trace import load_trace, replay_spec

_spec = NetworkSpec.for_network


# ----------------------------------------------------------------------
# Statistics digest
# ----------------------------------------------------------------------
class Tally:
    """Folds every simulated statistic of one body run into one sha256.

    Host-speed work must leave the digest identical (the bit-identity
    contract); ``engine`` is provenance, not a statistic, so it is
    counted in ``engines`` instead of hashed.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.sim_cycles = 0
        self.attempted = 0
        self.failed = 0
        self.engines: Counter = Counter()
        self.trace_records = 0

    def _fold(self, *parts: Any) -> None:
        self._hash.update(repr(parts).encode("utf-8"))

    def add_outcome(self, outcome: Any) -> None:
        """One ``run_compiled_batch`` entry: a RunResult or an error."""
        self.attempted += 1
        if isinstance(outcome, Exception):
            self.failed += 1
            self._fold("error", type(outcome).__name__, str(outcome))
            return
        self.engines[outcome.engine] += 1
        self.sim_cycles += outcome.total_cycles
        for field in dataclasses.fields(outcome):
            if field.name in ("engine", "metrics"):
                continue
            value = getattr(outcome, field.name)
            if field.name == "pattern":
                # A replay pattern embeds the (temporary) trace path.
                head, sep, path = value.partition(":")
                value = head + sep + os.path.basename(path)
            self._fold(field.name, value)
        metrics = outcome.metrics
        if metrics is not None:
            self._fold(
                "metrics",
                metrics.delivered_total,
                metrics.injected_total,
                metrics.dropped_total,
                tuple(metrics.hop_counts),
                metrics.measured.count,
                metrics.measured.total,
                metrics.measured.total_sq,
            )

    def add_row(self, row: Dict[str, Any]) -> None:
        """One campaign row dict (failed rows carry ``failed: True``)."""
        self.attempted += 1
        if row.get("failed"):
            self.failed += 1
        self._fold("row", sorted(row.items()))

    def add_machine(self, stats: Any) -> None:
        """One manycore capture's ``MachineStats``."""
        self.attempted += 1
        if not stats.completed:
            self.failed += 1
        self.sim_cycles += stats.cycles
        self._fold("machine", sorted(dataclasses.asdict(stats).items()))

    def add_trace(self, trace: Any) -> None:
        self.trace_records += trace.records
        self._fold(
            "trace",
            trace.records,
            hashlib.sha256(trace.payload()).hexdigest(),
        )

    def digest(self) -> str:
        return self._hash.hexdigest()


# ----------------------------------------------------------------------
# Workload definition
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Workload:
    """One frozen workload: how to build its inputs and run its body.

    ``kind`` selects the body and the traced decomposition:
    ``"batch"`` inputs are specs submitted to ``run_compiled_batch``;
    ``"campaign"`` inputs are a row grid run through ``run_campaign``;
    ``"chain"`` inputs are manycore run keys (capture → trace → replay).
    ``engine`` is the ``RunResult.engine`` every row must report: any
    other means a row was refused by a gate it should pass, or passed one
    the workload exists to measure.  (Why each workload was chosen:
    ``BENCHMARK.json`` and the README.)
    """

    name: str
    kind: str
    engine: str
    build: Callable[[int, bool], Any]


def run_body(workload: Workload, inputs: Any, seed: int, tmpdir: str) -> Tally:
    """One untraced body run, exactly as a user of the library pays it."""
    tally = Tally()
    if workload.kind == "batch":
        for outcome in run_compiled_batch(inputs):
            tally.add_outcome(outcome)
    elif workload.kind == "campaign":
        for row in run_checkpointed_campaign(inputs, tmpdir).rows:
            tally.add_row(row)
    else:
        specs = []
        for key in inputs:
            tally.add_machine(manycore_runs.run_entry(*key).stats)
            for stream, path in sorted(
                manycore_runs.write_traces(key).items()
            ):
                tally.add_trace(load_trace(path))
                specs.append(replay_spec(path, seed=seed))
        for outcome in run_compiled_batch(specs):
            tally.add_outcome(outcome)
    return tally


def run_checkpointed_campaign(
    grid: Sequence[Dict[str, Any]],
    tmpdir: str,
    batch_runner: Callable = run_rate_sweep_rows,
    jobs: int = 1,
) -> Any:
    """``run_campaign`` as the figure drivers call it, checkpoint on."""
    path = os.path.join(tmpdir, "checkpoint.json")
    if os.path.exists(path):
        os.unlink(path)  # a resumed campaign would skip the work
    return run_campaign(
        grid,
        run_rate_sweep_row,
        checkpoint=CheckpointStore(path),
        batch_runner=batch_runner,
        jobs=jobs,
    )


def campaign_specs(grid: Sequence[Dict[str, Any]]) -> List[NetworkSpec]:
    """The specs a rate-sweep grid expands to (row-major, rate-minor)."""
    return [
        _spec(
            row["config"],
            row["width"],
            row["height"],
            pattern=row["pattern"],
            rate=rate,
            warmup=row["warmup"],
            measure=row["measure"],
            drain_limit=row["drain"],
            seed=row["seed"],
            engine=row.get("engine"),
            **row.get("options", {}),
        )
        for row in grid
        for rate in row["rates"]
    ]


# ----------------------------------------------------------------------
# Frozen grids
# ----------------------------------------------------------------------
_FIG6_CONFIGS = (
    "mesh", "torus", "multimesh", "ruche1",
    "ruche2-depop", "ruche2-pop", "ruche3-depop", "ruche3-pop",
)
_FIG6_PATTERNS = ("uniform_random", "bit_complement", "transpose", "tornado")
_FIG9_CONFIGS = (
    "mesh", "half-torus",
    "ruche2-depop", "ruche2-pop", "ruche3-depop", "ruche3-pop",
)


def _half_options(name: str, width: int, height: int, pattern: str) -> dict:
    options: Dict[str, Any] = {}
    if name.startswith("ruche"):
        options["half"] = True
    if pattern == "tile_to_memory":
        options["edge_memory"] = True
    return options


def _sweep_small(seed: int, smoke: bool) -> List[Dict[str, Any]]:
    """fig6-quick plus fig9-quick tile-to-tile: 38 rows, 114 short runs."""
    window = dict(warmup=200, measure=400, drain=1000)
    if smoke:
        window = dict(warmup=50, measure=100, drain=400)
    grid = rate_sweep_grid(
        scale="perf",
        sizes=[(8, 8)],
        patterns=_FIG6_PATTERNS[:1] if smoke else _FIG6_PATTERNS,
        configs=_FIG6_CONFIGS[:3] if smoke else _FIG6_CONFIGS,
        rates=(0.02, 0.20) if smoke else (0.02, 0.20, 0.45),
        seed=seed,
        engine="compiled",
        **window,
    )
    grid += rate_sweep_grid(
        scale="perf",
        sizes=[(16, 8)],
        patterns=("tile_to_tile",),
        configs=_FIG9_CONFIGS[1:3] if smoke else _FIG9_CONFIGS,
        rates=(0.02, 0.14) if smoke else (0.02, 0.14, 0.30),
        seed=seed + 1,
        engine="compiled",
        options_for=_half_options,
        **window,
    )
    return grid


def _scale_cold(seed: int, smoke: bool) -> List[NetworkSpec]:
    """Large design points, one low rate, short windows, caches cold."""
    points: Sequence[Tuple[str, int, int, dict]] = (
        ("mesh", 32, 32, {}),
        ("torus", 16, 16, {}),
        ("ruche2-depop", 16, 16, {}),
        ("multimesh", 16, 16, {}),
        ("ruche3-pop", 32, 8, {"half": True}),
        ("ruche2-depop", 48, 8, {"half": True}),
        ("half-torus", 32, 8, {}),
        ("torus3d", 8, 8, {"depth": 2}),
        ("mesh3d", 8, 8, {"depth": 2}),
    )
    if smoke:
        points = (
            ("mesh", 12, 12, {}),
            ("half-torus", 16, 4, {}),
            ("torus3d", 4, 4, {"depth": 2}),
        )
    return [
        _spec(
            name, width, height,
            rate=0.05, warmup=100, measure=200, drain_limit=600,
            seed=seed + i, engine="compiled", **options,
        )
        for i, (name, width, height, options) in enumerate(points)
    ]


def _saturate_long(seed: int, smoke: bool) -> List[NetworkSpec]:
    """Small/medium design points near saturation, long windows."""
    points: Sequence[Tuple[str, int, int, dict, float, int, int]] = (
        ("mesh", 16, 16, {}, 0.14, 400, 1200),
        ("torus", 8, 8, {}, 0.42, 2000, 6000),
        ("multimesh", 8, 8, {}, 0.45, 2000, 6000),
        ("ruche3-pop", 8, 8, {}, 0.55, 4000, 12000),
        ("ruche2-depop", 16, 8, {"half": True}, 0.27, 2000, 6000),
        ("half-torus", 16, 8, {}, 0.20, 1000, 3000),
    )
    if smoke:
        points = (
            ("mesh", 8, 8, {}, 0.25, 300, 900),
            ("torus", 8, 8, {}, 0.30, 300, 900),
        )
    return [
        _spec(
            name, width, height,
            rate=rate, warmup=warmup, measure=measure,
            drain_limit=4 * measure,
            seed=seed + i, engine="compiled", **options,
        )
        for i, (name, width, height, options, rate, warmup, measure)
        in enumerate(points)
    ]


def _faults_serial(seed: int, smoke: bool) -> List[NetworkSpec]:
    """Fault rows: the compiled engine's serial (per-spec) path."""
    points: Sequence[Tuple[str, int, int, dict, dict]] = (
        # Transient drops: pure-Python step loops.
        ("torus", 16, 8, {}, dict(fault_transient=4)),
        ("mesh", 16, 16, {}, dict(fault_transient=4)),
        ("half-torus", 16, 8, {}, dict(fault_transient=4)),
        # Permanent faults: per-cycle C step_noc over masked tables.
        ("mesh", 12, 12, {}, dict(fault_links=6, stall_window=400)),
        ("ruche2-depop", 8, 8, {},
         dict(fault_links=4, fault_routers=2)),
        # Mixed.
        ("ruche2-depop", 16, 8, {"half": True},
         dict(fault_links=2, fault_transient=2)),
    )
    rates: Sequence[float] = (0.03, 0.08)
    if smoke:
        points = (
            ("half-torus", 8, 4, {}, dict(fault_transient=2)),
            ("mesh", 8, 8, {}, dict(fault_links=3)),
        )
        rates = (0.05,)
    return [
        _spec(
            name, width, height,
            rate=rate, warmup=300, measure=600, drain_limit=1500,
            seed=seed + i, fault_seed=seed + i, fault_drop_prob=0.01,
            engine="compiled", **faults, **options,
        )
        for i, (name, width, height, options, faults) in enumerate(points)
        for rate in rates
    ]


def _reference_bound(seed: int, smoke: bool) -> List[NetworkSpec]:
    """Rows that end on the reference engine today."""
    window = dict(warmup=150, measure=300, drain=600)
    # (a) fig6-smoke shape with ``engine`` unset: the no-flag default.
    grid = rate_sweep_grid(
        scale="perf",
        sizes=[(8, 8)],
        patterns=("uniform_random",) if smoke
        else ("uniform_random", "transpose"),
        configs=("mesh", "torus") if smoke
        else ("mesh", "torus", "ruche1", "ruche2-depop"),
        rates=(0.05,) if smoke else (0.05, 0.15),
        seed=seed,
        **window,
    )
    # (b) fig9 tile-to-memory: asks for compiled, falls back on the
    # ``edge-memory`` gate.
    grid += rate_sweep_grid(
        scale="perf",
        sizes=[(16, 8)],
        patterns=("tile_to_memory",),
        configs=("mesh",) if smoke else ("mesh", "ruche2-depop"),
        rates=(0.05,) if smoke else (0.05, 0.12),
        seed=seed + 1,
        engine="compiled",
        options_for=_half_options,
        **window,
    )
    return campaign_specs(grid)


def _manycore_chain(seed: int, smoke: bool) -> List[manycore_runs.RunKey]:
    """(benchmark, fabric) captures on the paper's 16x8 array.

    Kernel sizes are ``manycore_runs.KERNEL_PRESETS["smoke"]`` (the only
    way to size a kernel through ``run_entry``); the pinned digest trips
    if that preset is edited.  The manycore model takes no seed — its
    kernels and datasets are fixed programs — so ``seed`` reaches only
    the replay specs (see :func:`run_body`).
    """
    if smoke:
        return [("jacobi", "mesh", 8, 4, "smoke")]
    return [
        (benchmark, fabric, 16, 8, "smoke")
        for benchmark, fabric in (
            ("jacobi", "mesh"),
            ("fft", "half-torus"),
            ("spgemm-CA", "ruche2-depop"),
        )
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sweep_small", "campaign", "compiled-batch", _sweep_small),
        Workload("scale_cold", "batch", "compiled-batch", _scale_cold),
        Workload("saturate_long", "batch", "compiled-batch", _saturate_long),
        Workload("faults_serial", "batch", "compiled", _faults_serial),
        Workload("reference_bound", "batch", "reference", _reference_bound),
        Workload("manycore_chain", "chain", "compiled-batch", _manycore_chain),
    )
}
