"""One workload in one fresh process (spawned by :mod:`.harness`).

The child pays what a CLI user pays: cold imports, the ``cc`` kernel
build, grid construction (together ``setup_s``, counted from the
parent's spawn timestamp), then the body — once discarded (the
fresh-process first run) and then timed until ``--seconds`` have passed
(at least :data:`MIN_RUNS`, at most :data:`MAX_RUNS` runs), with the
routing, compile and manycore caches cleared before every run.  Timed
runs are sampled by :class:`.hostspeed.HostSpeed` and reported as
quiet-host estimates next to the raw readings.  It prints one JSON
object on its last stdout line.

With ``--trace 1`` the child instead runs: traced body (fresh process),
a few untraced bodies (the baseline for ``tracing.overhead_frac``), the
traced body again (the per-layer numbers), then the stand-alone probes.
"""

import time

_ENTERED = time.monotonic()  # before any program import

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from benchmarks.perf.hostspeed import HostSpeed  # noqa: E402
from benchmarks.perf.tracing import (  # noqa: E402
    Tracer,
    cpu_seconds,
    maxrss_mb,
)

MIN_RUNS = 3
MAX_RUNS = 9
#: Untraced baseline runs inside a traced child.
TRACE_BASELINE_RUNS = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--setup-only", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=_ENTERED)
    parser.add_argument("--tmpdir", required=True)
    parser.add_argument("--span-file", default=None)
    args = parser.parse_args(argv)

    speed = HostSpeed()
    speed.start()
    tracer = Tracer(args.workload)
    with tracer.span("setup"):
        with tracer.span("repro.import"):
            import repro  # noqa: F401
            from repro.core.routing import clear_routing_caches
            from repro.sim._ckernel import get_kernel
            from repro.sim.fastsim import clear_compile_caches

            from benchmarks.perf import workloads
            from benchmarks.perf.workloads import manycore_runs
        with tracer.span("sim._ckernel.build"):
            kernel = get_kernel()
        with tracer.span("grid.build"):
            workload = workloads.WORKLOADS[args.workload]
            inputs = workload.build(args.seed, bool(args.smoke))
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's spawn
    # timestamp and this reading are on one clock.
    setup_raw = time.monotonic() - args.spawned_at
    setup_spins = speed.stop()
    speed.calibrate()
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": speed.settle(setup_spins, setup_raw)[0],
        "setup_raw_s": setup_raw,
        "kernel": kernel is not None
        and not os.environ.get("REPRO_NO_CKERNEL"),
        "repro.import_s": tracer.total("repro.import"),
        "sim._ckernel.build_s": tracer.total("sim._ckernel.build"),
        "grid.build_s": tracer.total("grid.build"),
    }
    if args.setup_only or not out["kernel"]:
        # Without the native kernel the pure-Python fallback would be
        # measured: a different program.  The parent fails the run.
        print(json.dumps(out))
        return 0

    def cold_start() -> None:
        clear_routing_caches()
        clear_compile_caches()
        manycore_runs.clear_cache()
        gc.collect()

    def timed(body, sampled=None):
        cold_start()
        if sampled is not None:
            speed.start()
        try:
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            tally = body()
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        finally:
            if sampled is not None:
                sampled.append(speed.stop())
        return wall, cpu, tally

    def untraced():
        return workloads.run_body(workload, inputs, args.seed, args.tmpdir)

    walls, cpus, tallies = [], [], []
    if args.trace:
        from benchmarks.perf import layers

        first_wall, _cpu, first = timed(
            lambda: layers.traced_body(
                tracer, workload, inputs, args.seed, args.tmpdir
            )
        )
        marks = dict(first.marks)
        tallies.append(first)
        for _ in range(1 if args.smoke else TRACE_BASELINE_RUNS):
            wall, cpu, tally = timed(untraced)
            walls.append(wall)
            cpus.append(cpu)
            tallies.append(tally)
        traced_wall, _cpu, traced = timed(
            lambda: layers.traced_body(
                tracer, workload, inputs, args.seed, args.tmpdir
            )
        )
        tallies.append(traced)
        out["layers"] = layers.layer_metrics(
            tracer,
            workload,
            inputs,
            traced,
            tmpdir=args.tmpdir,
            first_run_s=first_wall,
            rss_marks=marks,
            overhead_frac=traced_wall / statistics.median(walls) - 1.0,
            setup=out,
        )
        if args.span_file:
            tracer.dump(args.span_file)
    else:
        first_wall, _cpu, first = timed(untraced)
        tallies.append(first)
        spins = []
        started = time.perf_counter()
        while len(walls) < (1 if args.smoke else MIN_RUNS) or (
            time.perf_counter() - started < args.seconds
            and len(walls) < MAX_RUNS
        ):
            wall, cpu, tally = timed(untraced, spins)
            walls.append(wall)
            cpus.append(cpu)
            tallies.append(tally)
        speed.calibrate()
        settled = [speed.settle(s, wall) for s, wall in zip(spins, walls)]
        out["wall_runs_raw"] = walls
        out["host_slowdown"] = [slowdown for _wall, slowdown in settled]
        walls = [wall for wall, _slowdown in settled]
        cpus = [speed.settle(s, cpu)[0] for s, cpu in zip(spins, cpus)]

    last = tallies[-1]
    if workload.kind == "campaign" and not args.trace:
        # Campaign rows carry neither cycle counts nor engines; run the
        # same specs once more, directly, for the (deterministic)
        # numerator and the provenance check.  (The traced body records
        # them from the batch the campaign itself made.)
        for outcome in workloads.run_compiled_batch(
            workloads.campaign_specs(inputs)
        ):
            if not isinstance(outcome, Exception):
                last.sim_cycles += outcome.total_cycles
                last.engines[outcome.engine] += 1
    out.update(
        first_run_s=first_wall,
        wall_runs=walls,
        cpu_runs=cpus,
        sim_cycles=last.sim_cycles,
        attempted=last.attempted,
        failed=last.failed,
        digest=last.digest(),
        digests_agree=len({t.digest() for t in tallies}) == 1,
        engines=dict(last.engines),
        stray_engines=sorted(set(last.engines) - {workload.engine}),
        trace_records=last.trace_records,
        peak_rss_mb=maxrss_mb(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
