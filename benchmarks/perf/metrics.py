"""Names, units and direction of every metric the benchmark reports.

``BENCHMARK.json`` at the repo root carries the same lists (the smoke
test keeps the two in step).  ``bound`` is the share of the baseline's
median by which an end-to-end metric may worsen before a change counts
as a regression; per-layer metrics explain, they do not gate.  Timings
are quiet-host estimates (see :mod:`.hostspeed`); their bounds stay at
the contract's widest (0.25) because the reference host's speed drifts
by up to 60 % and the estimate still by up to 10 % (README, *Host
noise*).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: Optional[float] = None


END_TO_END: List[Metric] = [
    # Wall-clock of one body run, median of the timed runs (host time).
    Metric("wall_s", "s", "lower", 0.25),
    # User+sys CPU of one body run, median of the same runs: parallelism
    # bought with CPU shows here and not in wall_s.
    Metric("cpu_s", "s", "lower", 0.25),
    # Simulated cycles of one body (deterministic) / wall_s.
    Metric("sim_cycles_per_s", "1/s", "higher", 0.25),
    # The body process's ru_maxrss at exit.
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    # Process start -> ready for the first body run (imports, cc kernel
    # build, grids), median of SETUP_SAMPLES fresh processes.
    Metric("setup_s", "s", "lower", 0.25),
]

PER_LAYER: List[Metric] = [
    Metric("repro.import_s", "s", "lower"),
    Metric("sim._ckernel.build_s", "s", "lower"),
    Metric("sim._ckernel.available", "count", "higher"),
    Metric("process.first_run_s", "s", "lower"),
    Metric("core.spec.build_config_s", "s", "lower"),
    Metric("core.topology.port_graph_s", "s", "lower"),
    Metric("core.routing.tabulate_s", "s", "lower"),
    Metric("sim.network.build_s", "s", "lower"),
    Metric("sim.fastsim.lower_cold_s", "s", "lower"),
    Metric("sim.fastsim.lower_warm_s", "s", "lower"),
    Metric("sim.fastsim.lower_count", "count", "lower"),
    Metric("sim.fastsim.lower_us_per_node_pair", "us", "lower"),
    Metric("sim.fastsim.gate_s", "s", "lower"),
    Metric("sim.fastsim.batch_s", "s", "lower"),
    Metric("sim.fastsim.batch_fixed_ms_per_run", "ms", "lower"),
    Metric("sim.fastsim.batch_us_per_cycle", "us", "lower"),
    Metric("sim.fastsim.batch_ns_per_node_cycle", "ns", "lower"),
    Metric("sim.fastsim.batch_vs_singles_x", "x", "higher"),
    Metric("sim.fastsim.rss_after_lower_mb", "MB", "lower"),
    Metric("sim.fastsim.rss_after_batch_mb", "MB", "lower"),
    Metric("sim.fastsim.serial_s", "s", "lower"),
    Metric("sim.fastsim.serial_py_us_per_cycle", "us", "lower"),
    Metric("sim.fastsim.serial_c_us_per_cycle", "us", "lower"),
    Metric("sim.faults.schedule_build_s", "s", "lower"),
    Metric("sim.fastsim.engine_compiled_batch_rows", "count", "higher"),
    Metric("sim.fastsim.engine_compiled_rows", "count", "lower"),
    Metric("sim.fastsim.engine_reference_rows", "count", "lower"),
    Metric("sim.network.ref_us_per_cycle", "us", "lower"),
    Metric("sim.network.ref_ns_per_node_cycle", "ns", "lower"),
    Metric("manycore.kernels.build_workload_s", "s", "lower"),
    Metric("manycore.machine.run_s", "s", "lower"),
    Metric("manycore.machine.self_s", "s", "lower"),
    Metric("manycore.machine.sim_cycles", "count", "lower"),
    Metric("sim.network.step_s", "s", "lower"),
    Metric("sim.network.step_calls", "count", "lower"),
    Metric("sim.trace.finalize_s", "s", "lower"),
    Metric("sim.trace.write_s", "s", "lower"),
    Metric("sim.trace.load_s", "s", "lower"),
    Metric("sim.trace.replay_s", "s", "lower"),
    Metric("sim.trace.records", "count", "lower"),
    Metric("experiments.sweeps.rows_s", "s", "lower"),
    Metric("experiments.campaign.overhead_s", "s", "lower"),
    Metric("experiments.campaign.checkpoint_s", "s", "lower"),
    Metric("experiments.campaign.checkpoint_bytes", "count", "lower"),
    Metric("experiments.campaign.rows", "count", "higher"),
    Metric("experiments.campaign.jobs2_x", "x", "lower"),
    Metric("sim.metrics.tail_stats_s", "s", "lower"),
    Metric("verify.certify.certify_s", "s", "lower"),
    Metric("tracing.overhead_frac", "frac", "lower"),
]

#: Per-layer metrics that must repeat exactly between two runs of one
#: commit (and so compare as counts, not timings).
EXACT = (
    "sim.fastsim.lower_count",
    "sim.fastsim.engine_compiled_batch_rows",
    "sim.fastsim.engine_compiled_rows",
    "sim.fastsim.engine_reference_rows",
    "manycore.machine.sim_cycles",
    "sim.network.step_calls",
    "sim.trace.records",
    "experiments.campaign.checkpoint_bytes",
    "experiments.campaign.rows",
)
