"""The traced body and the per-layer metrics derived from its spans.

The traced body does the same work as :func:`workloads.run_body` — its
statistics digest must match — but the harness itself makes the calls a
layer at a time (lower every distinct design point from cold caches,
gate every spec, batch the batchable ones, run the rest one by one) and
wraps the public methods of layers that are only reachable through
another layer's loop (``Network.step`` under ``Machine.run``,
``CheckpointStore.put`` under ``run_campaign``).  Stand-alone *probes*
then time the layers no body calls directly (spec → config → port graph
→ tabulation → reference network, warm lowering, the two-window batch
fit, batch-vs-singles, ``jobs=2``, certify, tail statistics).
"""

from __future__ import annotations

import os
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.routing import clear_routing_caches, tabulate_next_hops
from repro.core.spec import (
    NetworkSpec,
    build_config,
    build_faults,
    build_network,
    build_run,
    network_components,
    resolve_topology,
)
from repro.errors import SimulationError
from repro.experiments import manycore_runs
from repro.experiments.campaign import CheckpointStore
from repro.experiments.sweeps import run_rate_sweep_rows
from repro.sim import fastsim
from repro.sim.fastsim import (
    batching_problems,
    clear_compile_caches,
    lowering_problems,
)
from repro.sim.metrics import fairness_stats, tail_latency_stats
from repro.sim.network import Network
from repro.sim.trace import load_trace, replay_spec
from repro.verify.certify import certify_spec

from benchmarks.perf import workloads
from benchmarks.perf.tracing import Tracer, maxrss_mb
from benchmarks.perf.workloads import Tally, Workload

#: Destinations tabulated per design point by the ``tabulate`` probe
#: (every ``ceil(N / 64)``-th node): all-destination tabulation is
#: O(N^2) route calls and would dwarf the body on the large points.
TABULATE_DESTS = 64
#: Specs sampled (evenly) for the two-window fit and batch-vs-singles.
FIT_SAMPLE = 12
#: The fit's short window; the long one is four times it.
FIT_WINDOW = dict(warmup=100, measure=200, drain_limit=2000)


class TracedTally(Tally):
    """A body tally plus what the traced decomposition saw."""

    def __init__(self) -> None:
        super().__init__()
        self.root: Optional[int] = None
        #: ``ru_maxrss`` (MB) when lowering and the batch finished.
        self.marks: Dict[str, float] = {}
        #: Simulated cycles under each per-spec span name.
        self.cycles: Counter = Counter()
        self.node_cycles: Counter = Counter()
        self.machine_cycles = 0
        self.specs: List[NetworkSpec] = []


def nodes_of(spec: NetworkSpec) -> int:
    return spec.width * spec.height * dict(spec.options).get("depth", 1)


def dp_id(spec: NetworkSpec) -> str:
    """Design-point id: everything lowering depends on, nothing else."""
    parts = [f"{spec.topology}-{spec.width}x{spec.height}"]
    parts += [f"{key}={value}" for key, value in spec.options]
    if spec.fault_links or spec.fault_routers or spec.fault_transient:
        parts.append(
            f"faults=L{spec.fault_links}R{spec.fault_routers}"
            f"T{spec.fault_transient}@{spec.fault_seed}"
        )
    return ",".join(parts)


def design_points(specs: Sequence[NetworkSpec]) -> Dict[str, NetworkSpec]:
    """First spec of each distinct design point, in first-seen order."""
    points: Dict[str, NetworkSpec] = {}
    for spec in specs:
        points.setdefault(dp_id(spec), spec)
    return points


# ----------------------------------------------------------------------
# Traced body
# ----------------------------------------------------------------------
def _count_cycles(
    tally: TracedTally, name: str, spec: NetworkSpec, outcome: Any
) -> None:
    """Credit one outcome's simulated cycles to the span ``name``."""
    if not isinstance(outcome, Exception):
        tally.cycles[name] += outcome.total_cycles
        tally.node_cycles[name] += outcome.total_cycles * nodes_of(spec)


def _lower_and_gate(
    tracer: Tracer, specs: Sequence[NetworkSpec], tally: TracedTally
) -> List[bool]:
    """Lower each distinct design point cold, then gate every spec."""
    tally.specs = list(specs)
    for dp, spec in design_points(specs).items():
        with tracer.span("sim.fastsim.lower_cold", dp):
            lowering_problems(spec)
    tally.marks["sim.fastsim.rss_after_lower_mb"] = maxrss_mb()
    with tracer.span("sim.fastsim.gate"):
        return [not batching_problems(spec) for spec in specs]


def _traced_specs(
    tracer: Tracer, specs: Sequence[NetworkSpec], tally: TracedTally
) -> None:
    """``run_compiled_batch(specs)``, one layer at a time."""
    batchable = _lower_and_gate(tracer, specs, tally)
    outcomes: List[Any] = [None] * len(specs)
    group = [i for i, ok in enumerate(batchable) if ok]
    if group:
        with tracer.span("sim.fastsim.batch"):
            results = fastsim.run_compiled_batch([specs[i] for i in group])
        for i, result in zip(group, results):
            outcomes[i] = ("sim.fastsim.batch", result)
    for i, spec in enumerate(specs):
        if batchable[i]:
            continue
        with tracer.span("run", dp_id(spec)) as span:
            try:
                result = build_run(spec)
            except SimulationError as exc:
                result = exc
            if getattr(result, "engine", None) == "reference":
                span.name = "sim.network.ref"
            elif spec.fault_transient:
                span.name = "sim.fastsim.serial_py"  # drop stream: Python
            else:
                span.name = "sim.fastsim.serial_c"  # per-cycle step_noc
        outcomes[i] = (span.name, result)
    tally.marks["sim.fastsim.rss_after_batch_mb"] = maxrss_mb()
    for spec, (name, outcome) in zip(specs, outcomes):
        tally.add_outcome(outcome)
        _count_cycles(tally, name, spec, outcome)


def _traced_campaign(
    tracer: Tracer, grid: Sequence[dict], tmpdir: str, tally: TracedTally
) -> None:
    _lower_and_gate(tracer, workloads.campaign_specs(grid), tally)
    seen: List[Any] = []
    batch = fastsim.run_compiled_batch

    def recording_batch(batch_specs, **kwargs):
        results = batch(batch_specs, **kwargs)
        seen.extend(zip(batch_specs, results))
        return results

    # run_rate_sweep_rows looks the batch entry point up on the module
    # at call time, so this is what the campaign will call.
    fastsim.run_compiled_batch = tracer.wrap(
        "sim.fastsim.batch", recording_batch
    )
    try:
        with tracer.patched(
            CheckpointStore, "put", "experiments.campaign.checkpoint",
            hot=True,
        ), tracer.span("experiments.campaign"):
            result = workloads.run_checkpointed_campaign(
                grid,
                tmpdir,
                batch_runner=tracer.wrap(
                    "experiments.sweeps.rows", run_rate_sweep_rows
                ),
            )
    finally:
        fastsim.run_compiled_batch = batch
    tally.marks["sim.fastsim.rss_after_batch_mb"] = maxrss_mb()
    tally.marks["experiments.campaign.checkpoint_bytes"] = os.path.getsize(
        os.path.join(tmpdir, "checkpoint.json")
    )
    for row in result.rows:
        tally.add_row(row)
    # Engine counts and cycles come from the batch the campaign made;
    # they stay out of the digest, which is over rows as in run_body.
    for spec, outcome in seen:
        if not isinstance(outcome, Exception):
            tally.engines[outcome.engine] += 1
            tally.sim_cycles += outcome.total_cycles
        _count_cycles(tally, "sim.fastsim.batch", spec, outcome)


def _traced_chain(
    tracer: Tracer, keys: Sequence[tuple], seed: int, tally: TracedTally
) -> None:
    specs: List[NetworkSpec] = []
    with tracer.patched(
        manycore_runs, "build_workload", "manycore.kernels.build_workload"
    ), tracer.patched(
        manycore_runs.Machine, "run", "manycore.machine.run"
    ), tracer.patched(
        manycore_runs.Machine, "finalize_traces", "sim.trace.finalize"
    ), tracer.patched(Network, "step", "sim.network.step", hot=True):
        for key in keys:
            dp = f"{key[0]}@{key[1]}"
            with tracer.span("manycore.capture", dp):
                stats = manycore_runs.run_entry(*key).stats
            tally.add_machine(stats)
            tally.machine_cycles += stats.cycles
            with tracer.span("sim.trace.write", dp):
                paths = manycore_runs.write_traces(key)
            for _stream, path in sorted(paths.items()):
                with tracer.span("sim.trace.load", os.path.basename(path)):
                    tally.add_trace(load_trace(path))
                specs.append(replay_spec(path, seed=seed))
    with tracer.span("sim.trace.replay"):
        _traced_specs(tracer, specs, tally)


def traced_body(
    tracer: Tracer, workload: Workload, inputs: Any, seed: int, tmpdir: str
) -> TracedTally:
    """One body run with a span at every layer boundary."""
    tally = TracedTally()
    with tracer.span("body.traced") as root:
        if workload.kind == "batch":
            _traced_specs(tracer, inputs, tally)
        elif workload.kind == "campaign":
            _traced_campaign(tracer, inputs, tmpdir, tally)
        else:
            _traced_chain(tracer, inputs, seed, tally)
    tally.root = root.id
    return tally


# ----------------------------------------------------------------------
# Probes: layers no body calls directly
# ----------------------------------------------------------------------
def _probe_stages(tracer: Tracer, points: Dict[str, NetworkSpec]) -> None:
    """spec → config → port graph → next-hop tables → reference network."""
    clear_routing_caches()
    clear_compile_caches()
    with tracer.span("probe.stages"):
        for dp, spec in points.items():
            with tracer.span("core.spec.build_config", dp):
                config = build_config(spec)
            with tracer.span("sim.faults.schedule_build", dp):
                faults = build_faults(spec, config)
            components = network_components(
                config,
                faults=faults,
                provider=resolve_topology(spec.topology),
                routing_name=spec.routing,
            )
            with tracer.span("core.topology.port_graph", dp):
                graph = components.topology.port_graph()
            stride = -(-len(graph.nodes) // TABULATE_DESTS)
            with tracer.span("core.routing.tabulate", dp):
                for dest in graph.nodes[::stride]:
                    tabulate_next_hops(
                        components.routing, graph, dest,
                        on_error=lambda state, exc: None,
                    )
            with tracer.span("sim.network.build", dp):
                build_network(spec)


def _probe_lower_warm(tracer: Tracer, points: Dict[str, NetworkSpec]) -> None:
    for spec in points.values():  # leave the compile cache warm
        lowering_problems(spec)
    with tracer.span("probe.lower_warm"):
        for dp, spec in points.items():
            with tracer.span("sim.fastsim.lower_warm", dp):
                lowering_problems(spec)


def _probe_fit(
    tracer: Tracer, specs: Sequence[NetworkSpec]
) -> Dict[str, float]:
    """Two-window fit and batch-vs-singles on a sample of the specs.

    The same design points and rates at a short window and at four
    times it: the intercept of wall against simulated cycles is the
    per-run fixed cost (reserve/seal/bind/marshal/finish), the slope is
    stepping.  Replay specs are left out (a trace fixes its window).
    """
    pool = [
        spec for spec in specs
        if not spec.pattern.startswith("trace_replay")
        and not batching_problems(spec)
    ]
    sample = pool[:: -(-len(pool) // FIT_SAMPLE)] if pool else []
    zero = {
        "sim.fastsim.batch_fixed_ms_per_run": 0.0,
        "sim.fastsim.batch_us_per_cycle": 0.0,
        "sim.fastsim.batch_vs_singles_x": 0.0,
    }
    if not sample:
        return zero
    short = [spec.replace(**FIT_WINDOW) for spec in sample]
    long_ = [
        spec.replace(**{k: 4 * v for k, v in FIT_WINDOW.items()})
        for spec in sample
    ]

    def batch(name: str, group: Sequence[NetworkSpec]) -> Tuple[float, int]:
        t0 = time.perf_counter()
        with tracer.span(name):
            results = fastsim.run_compiled_batch(group)
        wall = time.perf_counter() - t0
        return wall, sum(r.total_cycles for r in results)

    with tracer.span("probe.fit"):
        batch("probe.fit.warmup", long_)  # pattern plans, arena pages
        t_short, c_short = batch("probe.fit.short", short)
        t_long, c_long = batch("probe.fit.long", long_)
        with tracer.span("probe.fit.singles"):
            t_singles = sum(batch("single", [spec])[0] for spec in long_)
    slope = (t_long - t_short) / (c_long - c_short)
    return {
        "sim.fastsim.batch_fixed_ms_per_run": (
            (t_short - slope * c_short) / len(sample) * 1e3
        ),
        "sim.fastsim.batch_us_per_cycle": slope * 1e6,
        "sim.fastsim.batch_vs_singles_x": t_singles / t_long,
    }


def _probe_tail(tracer: Tracer, spec: NetworkSpec) -> None:
    result = build_run(
        spec.replace(engine="compiled"),
        keep_samples=True,
        track_per_source=True,
    )
    with tracer.span("sim.metrics.tail_stats"):
        tail_latency_stats(result.metrics)
        fairness_stats(result.metrics.per_source_means())


def _probe_jobs2(tracer: Tracer, grid: Sequence[dict], tmpdir: str) -> float:
    """Same grid at ``jobs=2`` ÷ ``jobs=1``; rows must be identical."""
    walls, rows = [], []
    with tracer.span("probe.jobs2"):
        for jobs in (1, 2):
            t0 = time.perf_counter()
            with tracer.span(f"experiments.campaign.jobs{jobs}"):
                result = workloads.run_checkpointed_campaign(
                    grid, tmpdir, jobs=jobs
                )
            walls.append(time.perf_counter() - t0)
            rows.append(result.rows)
    if rows[0] != rows[1]:
        raise AssertionError("jobs=2 campaign rows differ from jobs=1")
    return walls[1] / walls[0]


def _probe_certify(tracer: Tracer, points: Dict[str, NetworkSpec]) -> None:
    with tracer.span("probe.certify"):
        for dp, spec in points.items():
            with tracer.span("verify.certify.certify", dp):
                certify_spec(spec)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(
    tracer: Tracer,
    workload: Workload,
    inputs: Any,
    traced: TracedTally,
    *,
    tmpdir: str,
    first_run_s: float,
    rss_marks: Dict[str, float],
    overhead_frac: float,
    setup: Dict[str, Any],
) -> Dict[str, float]:
    """Every per-layer metric of ``metrics.PER_LAYER`` for one workload.

    Timings come from the second (warm-process) traced body; a layer the
    workload never enters reads 0.  ``rss_marks`` are from the first
    traced body, when the high-water mark was still this body's own.
    """
    root = traced.root
    specs = traced.specs
    points = design_points(specs)
    _probe_stages(tracer, points)
    _probe_lower_warm(tracer, points)
    fit = _probe_fit(tracer, specs)
    _probe_tail(tracer, specs[0])
    jobs2_x = 0.0
    if workload.kind == "campaign":
        # Only the campaign workload has a row grid to shard, and only
        # its small design points certify in a probe's time.
        jobs2_x = _probe_jobs2(tracer, inputs, tmpdir)
        _probe_certify(tracer, points)

    def total(name: str) -> float:
        return tracer.total(name, root)

    def per(seconds: float, count: float, scale: float) -> float:
        return seconds / count * scale if count else 0.0

    lower_cold = total("sim.fastsim.lower_cold")
    serial_py = total("sim.fastsim.serial_py")
    serial_c = total("sim.fastsim.serial_c")
    ref = total("sim.network.ref")
    batch = total("sim.fastsim.batch")
    machine_run = total("manycore.machine.run")
    step = total("sim.network.step")
    campaign_self = tracer.self_seconds("experiments.campaign", root)
    cycles, node_cycles = traced.cycles, traced.node_cycles
    return {
        "repro.import_s": setup["repro.import_s"],
        "sim._ckernel.build_s": setup["sim._ckernel.build_s"],
        "sim._ckernel.available": float(setup["kernel"]),
        "process.first_run_s": first_run_s,
        "core.spec.build_config_s": tracer.total("core.spec.build_config"),
        "core.topology.port_graph_s": tracer.total(
            "core.topology.port_graph"
        ),
        "core.routing.tabulate_s": tracer.total("core.routing.tabulate"),
        "sim.network.build_s": tracer.total("sim.network.build"),
        "sim.fastsim.lower_cold_s": lower_cold,
        "sim.fastsim.lower_warm_s": tracer.total("sim.fastsim.lower_warm"),
        "sim.fastsim.lower_count": float(len(points)),
        "sim.fastsim.lower_us_per_node_pair": per(
            lower_cold, sum(nodes_of(s) ** 2 for s in points.values()), 1e6
        ),
        "sim.fastsim.gate_s": total("sim.fastsim.gate"),
        "sim.fastsim.batch_s": batch,
        **fit,
        "sim.fastsim.batch_ns_per_node_cycle": per(
            batch, node_cycles["sim.fastsim.batch"], 1e9
        ),
        "sim.fastsim.rss_after_lower_mb": rss_marks[
            "sim.fastsim.rss_after_lower_mb"
        ],
        "sim.fastsim.rss_after_batch_mb": rss_marks[
            "sim.fastsim.rss_after_batch_mb"
        ],
        "sim.fastsim.serial_s": serial_py + serial_c,
        "sim.fastsim.serial_py_us_per_cycle": per(
            serial_py, cycles["sim.fastsim.serial_py"], 1e6
        ),
        "sim.fastsim.serial_c_us_per_cycle": per(
            serial_c, cycles["sim.fastsim.serial_c"], 1e6
        ),
        "sim.faults.schedule_build_s": tracer.total(
            "sim.faults.schedule_build"
        ),
        "sim.fastsim.engine_compiled_batch_rows": float(
            traced.engines.get("compiled-batch", 0)
        ),
        "sim.fastsim.engine_compiled_rows": float(
            traced.engines.get("compiled", 0)
        ),
        "sim.fastsim.engine_reference_rows": float(
            traced.engines.get("reference", 0)
        ),
        "sim.network.ref_us_per_cycle": per(
            ref, cycles["sim.network.ref"], 1e6
        ),
        "sim.network.ref_ns_per_node_cycle": per(
            ref, node_cycles["sim.network.ref"], 1e9
        ),
        "manycore.kernels.build_workload_s": total(
            "manycore.kernels.build_workload"
        ),
        "manycore.machine.run_s": machine_run,
        "manycore.machine.self_s": machine_run - step,
        "manycore.machine.sim_cycles": float(traced.machine_cycles),
        "sim.network.step_s": step,
        "sim.network.step_calls": float(
            tracer.calls("sim.network.step", root) if step else 0
        ),
        "sim.trace.finalize_s": total("sim.trace.finalize"),
        "sim.trace.write_s": total("sim.trace.write"),
        "sim.trace.load_s": total("sim.trace.load"),
        "sim.trace.replay_s": total("sim.trace.replay"),
        "sim.trace.records": float(traced.trace_records),
        "experiments.sweeps.rows_s": tracer.self_seconds(
            "experiments.sweeps.rows", root
        ),
        "experiments.campaign.overhead_s": campaign_self,
        "experiments.campaign.checkpoint_s": total(
            "experiments.campaign.checkpoint"
        ),
        "experiments.campaign.checkpoint_bytes": float(
            traced.marks.get("experiments.campaign.checkpoint_bytes", 0)
        ),
        "experiments.campaign.rows": float(
            len(inputs) if workload.kind == "campaign" else 0
        ),
        "experiments.campaign.jobs2_x": jobs2_x,
        "sim.metrics.tail_stats_s": tracer.total("sim.metrics.tail_stats"),
        "verify.certify.certify_s": tracer.total("verify.certify.certify"),
        "tracing.overhead_frac": overhead_frac,
    }
