"""Microbenchmark harness: cycles/sec on canonical design points.

The repo's performance trajectory is tracked by ``BENCH_noc.json`` at
the repo root — the committed baseline this harness regenerates and CI
regresses against (the ``bench-regression`` job runs ``python -m
repro.bench --quick`` and fails when a compiled case's speedup over
the same-run reference falls below its floor, a cold lowering exceeds
its ceiling, or a case goes missing).  Three canonical configs cover
the simulator's three router models:

* ``mesh-8x8-ur`` — wormhole router, the smallest paper array;
* ``halfruche2-16x8-ur`` — the paper's flagship Half Ruche RF=2 point
  (and the acceptance config for hot-path optimizations);
* ``torus-64x8-ur`` — VC router with wavefront allocation at the
  manycore aspect ratio.

Further cases pin fault-schedule compilation (``torus-64x8-ur-faults``),
the port-graph 3-D lowering (``torus3d-8x8x4-ur``), and the
trace-replay fast path (``manycore-replay`` — a captured manycore
workload replayed at compiled speed, gated >= 4x over reference).

Those are all warm numbers: :func:`measure_case` is best-of-N, so
every repeat after the first finds the route tables and the compiled
model cached.  The ``lowering`` section is the cold counterpart — wall
time of :func:`~repro.sim.fastsim.lowering_problems` from empty routing
and compile caches on two large design points, as microseconds per
``(node, dest)`` pair of the route table it fills, under an absolute
ceiling (:data:`LOWERING_POINTS`).

Each case is measured once per registered simulation engine
(``reference`` and ``compiled`` — see :data:`repro.core.registry.ENGINES`),
so the baseline pins both the object-per-flit simulator and the
flat-array engine, and the compiled entries carry their speedup over
the same-run reference measurement.

Simulations are fully deterministic, so wall-clock is the only noisy
input; each case reports the **best of N repeats** (the repeat least
disturbed by the host), which is the standard way to stabilize
microbenchmarks without statistics over noise you cannot control.

Campaign-level behaviour (``--jobs`` scaling, batched submission) is
not measured here: the row-identity contracts are tier-1 tests
(``tests/experiments/test_parallel_campaign.py``) and the timings are
``benchmarks/perf`` layer metrics (``experiments.campaign.jobs2_x``,
``sim.fastsim.batch_vs_singles_x``).
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.spec import NetworkSpec, build_run

SCHEMA = "repro-bench-v2"

#: Engines every bench run measures, reference first so the compiled
#: entry can report its speedup against the same report.
BENCH_ENGINES = ("reference", "compiled")

#: name -> (config factory args, pattern, rate).  Workload windows are
#: fixed across modes so cycles/sec stays comparable between ``--quick``
#: CI runs and the committed full-mode baseline.
CASES: Dict[str, Dict[str, Any]] = {
    "mesh-8x8-ur": dict(
        config=("mesh", 8, 8, {}),
        pattern="uniform_random", rate=0.25,
        warmup=200, measure=400, drain_limit=800,
    ),
    "halfruche2-16x8-ur": dict(
        config=("ruche2-depop", 16, 8, {"half": True}),
        pattern="uniform_random", rate=0.20,
        warmup=200, measure=400, drain_limit=800,
    ),
    "torus-64x8-ur": dict(
        config=("torus", 64, 8, {}),
        pattern="uniform_random", rate=0.10,
        warmup=200, measure=400, drain_limit=800,
    ),
    # Pins the compiled engine's advantage *with* an active fault
    # schedule.  Transient-only: VC routers reject permanent-fault
    # rerouting in both engines.  The kernel draws the drop stream
    # itself, so this case must track its fault-free twin above
    # (SPEEDUP_FLOORS).
    "torus-64x8-ur-faults": dict(
        config=("torus", 64, 8,
                {"fault_transient": 4, "fault_drop_prob": 0.01}),
        pattern="uniform_random", rate=0.10,
        warmup=200, measure=400, drain_limit=800,
    ),
    # Beyond-2-D pack: 256 nodes across 4 stacked layers, lowered from
    # the port-graph IR through the generic route tabulation (no 2-D
    # closed form anywhere on this path).
    "torus3d-8x8x4-ur": dict(
        config=("torus3d", 8, 8, {"depth": 4}),
        pattern="uniform_random", rate=0.10,
        warmup=200, measure=400, drain_limit=800,
    ),
    # Trace capture/replay: a fig10-class manycore workload captured
    # once from the execution-driven machine (untimed, at spec-build
    # time via the manycore run cache), then replayed as a pure
    # injection schedule.  The C kernel consumes the trace natively
    # (a full-rate replay injects in-kernel on every compiled path),
    # and must stay >= 4x the reference replay (SPEEDUP_FLOORS).
    "manycore-replay": dict(
        trace=("jacobi", "ruche2-depop", 16, 8, "quick"),
        stream="fwd",
        pattern="trace_replay", rate=1.0,
    ),
}

#: Repeats per case: quick keeps CI fast, full feeds the baseline.
REPEATS = {"quick": 2, "full": 4}

#: Hard floors on ``speedup_vs_reference`` per ``(case, engine)``.  These
#: pin engine-level wins that must never silently erode: the VC/torus C
#: kernel took torus-64x8-ur from ~3x to parity with the other kernel
#: cases, moving the transient-drop draw into the kernel did the
#: same for its faulted twin, and in-kernel injection of serial runs
#: took the mesh, Half Ruche and 3-D cases from 7-15x (host injection,
#: one kernel call per cycle) to 27-61x; each new floor is about half
#: the committed speedup.  Applied only when the report actually
#: carries the speedup (i.e. both engines were measured).
SPEEDUP_FLOORS: Dict[Tuple[str, str], float] = {
    ("mesh-8x8-ur", "compiled"): 13.0,
    ("halfruche2-16x8-ur", "compiled"): 15.0,
    ("torus-64x8-ur", "compiled"): 5.0,
    ("torus-64x8-ur-faults", "compiled"): 8.0,
    ("torus3d-8x8x4-ur", "compiled"): 30.0,
    ("manycore-replay", "compiled"): 4.0,
}

#: Cold-lowering design points and the most a lowering may cost, in
#: microseconds per ``(node, dest)`` pair of the array.  Absolute, not
#: relative to the baseline: the builtin routings are tabulated from
#: O(sum of K*K over the axis sizes K) route calls into per-axis tables
#: (``fastsim._axis_tables``) — nothing in the lowering is per pair any
#: more, so the figure falls as the array grows and each ceiling is
#: about twice what the baseline host reads.  One Python route call
#: per pair measured 0.6 (mesh 32x32) and 2.9 (torus 64x8) there, and
#: the 3-D point cost 3.5 as a port-graph walk.
LOWERING_POINTS: Dict[str, Dict[str, Any]] = {
    "mesh-32x32": dict(config=("mesh", 32, 32, {}), ceiling_us=0.08),
    "torus-64x8": dict(config=("torus", 64, 8, {}), ceiling_us=0.26),
    "mesh-128x128": dict(config=("mesh", 128, 128, {}), ceiling_us=0.006),
    "torus3d-8x8x2": dict(
        config=("torus3d", 8, 8, {"depth": 2}), ceiling_us=0.75
    ),
}


def _case_spec(
    name: str, seed: int = 1, engine: Optional[str] = None
) -> NetworkSpec:
    """The declarative design point behind one canonical case."""
    case = CASES[name]
    if "trace" in case:
        from repro.experiments.manycore_runs import write_traces
        from repro.sim.trace import replay_spec

        paths = write_traces(case["trace"])
        return replay_spec(
            paths[case.get("stream", "fwd")],
            engine=engine or "compiled",
            seed=seed,
        )
    config_name, width, height, kwargs = case["config"]
    return NetworkSpec.for_network(
        config_name,
        width,
        height,
        pattern=case["pattern"],
        rate=case["rate"],
        warmup=case["warmup"],
        measure=case["measure"],
        drain_limit=case["drain_limit"],
        seed=seed,
        engine=engine,
        **kwargs,
    )


def measure_case(
    name: str,
    repeats: int,
    seed: int = 1,
    engine: str = "reference",
) -> Dict[str, Any]:
    """Best-of-``repeats`` cycles/sec for one canonical case/engine."""
    case = CASES[name]
    spec = _case_spec(name, seed=seed, engine=engine)
    best_seconds = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = build_run(spec)
        elapsed = time.perf_counter() - start
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
    return {
        "name": name,
        "engine": engine,
        "pattern": case["pattern"],
        "rate": case["rate"],
        "total_cycles": result.total_cycles,
        "best_seconds": round(best_seconds, 6),
        "cycles_per_sec": round(result.total_cycles / best_seconds, 1),
    }


def profile_case(
    name: str,
    seed: int = 1,
    engine: str = "reference",
    limit: int = 20,
) -> str:
    """cProfile one canonical case; returns the top-``limit`` report.

    Sorted by cumulative time, which surfaces the phase structure
    (stepping vs injection vs stats) rather than leaf churn.
    """
    import cProfile
    import io
    import pstats

    spec = _case_spec(name, seed=seed, engine=engine)
    build_run(spec)  # warm route tables / native kernel out of the profile
    profiler = cProfile.Profile()
    profiler.enable()
    build_run(spec)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(limit)
    return stream.getvalue()


def _cold_lowering_seconds(spec: NetworkSpec) -> float:
    """Wall time of one lowering of ``spec`` from empty caches."""
    from repro.core.routing import clear_routing_caches
    from repro.sim.fastsim import clear_compile_caches, lowering_problems

    clear_routing_caches()
    clear_compile_caches()
    start = time.perf_counter()
    lowering_problems(spec)
    return time.perf_counter() - start


def measure_lowering(repeats: int) -> List[Dict[str, Any]]:
    """Best-of-``repeats`` *cold* lowering time per design point.

    Every repeat empties the routing and compile caches first, so each
    one pays the whole lowering — port graph, route tabulation, wiring.
    One untimed call beforehand builds the native kernel (a per-process
    cost the gate is not about) and records the verdict: a point that
    does not lower (``problems``) was never tabulated, and its timing
    means nothing.
    """
    from repro.sim.fastsim import lowering_problems

    entries: List[Dict[str, Any]] = []
    for name, point in LOWERING_POINTS.items():
        topology, width, height, options = point["config"]
        spec = NetworkSpec.for_network(
            topology, width, height, engine="compiled", **options
        )
        problems = lowering_problems(spec)
        best = min(_cold_lowering_seconds(spec) for _ in range(repeats))
        pairs = spec.config().num_nodes ** 2
        entries.append(
            {
                "name": name,
                "node_pairs": pairs,
                "best_seconds": round(best, 6),
                "us_per_node_pair": round(best * 1e6 / pairs, 4),
                "problems": [problem.code for problem in problems],
            }
        )
    return entries


def run_bench(
    mode: str = "full",
    seed: int = 1,
    engines: Sequence[str] = BENCH_ENGINES,
) -> Dict[str, Any]:
    """Measure every canonical case per engine; returns the report dict.

    Cases are ordered case-major, reference engine first, so each
    compiled entry can carry ``speedup_vs_reference`` against the
    measurement taken moments earlier on the same host.
    """
    if mode not in REPEATS:
        raise ValueError(f"mode must be one of {sorted(REPEATS)}")
    cases: List[Dict[str, Any]] = []
    for name in CASES:
        reference_cps: Optional[float] = None
        for engine in engines:
            case = measure_case(
                name, REPEATS[mode], seed=seed, engine=engine
            )
            if engine == "reference":
                reference_cps = case["cycles_per_sec"]
            elif reference_cps:
                case["speedup_vs_reference"] = round(
                    case["cycles_per_sec"] / reference_cps, 2
                )
            cases.append(case)
    return {
        "schema": SCHEMA,
        "mode": mode,
        "cases": cases,
        "lowering": measure_lowering(REPEATS[mode]),
    }


def compare_to_baseline(
    report: Dict[str, Any],
    baseline: Dict[str, Any],
) -> List[str]:
    """Gate a report against a committed baseline; returns regressions.

    The gate is what one CPU can judge in minutes — same-run ratios and
    absolute ceilings.  Cycles/sec is reported, not gated: against a
    number recorded on another host it measures the host
    (``benchmarks/perf`` is the measuring stick for speed).  A case
    present in the baseline but missing from the report is a
    regression — a silently dropped benchmark must not pass the gate.
    Compiled entries must clear their :data:`SPEEDUP_FLOORS` (when the
    report carries ``speedup_vs_reference``).  Every ``lowering`` entry
    must have lowered and must cost at most its
    :data:`LOWERING_POINTS` ceiling per node pair; the section is
    optional in a baseline, but not once the baseline carries it.
    """

    def case_key(case: Dict[str, Any]) -> Tuple[str, str]:
        return case["name"], case["engine"]

    measured = {case_key(c) for c in report.get("cases", ())}
    regressions: List[str] = [
        f"{name}[{engine}]: missing from report"
        for name, engine in map(case_key, baseline.get("cases", ()))
        if (name, engine) not in measured
    ]
    for case in report.get("cases", ()):
        key = case_key(case)
        floor = SPEEDUP_FLOORS.get(key)
        speedup = case.get("speedup_vs_reference")
        if floor is not None and speedup is not None and speedup < floor:
            regressions.append(
                f"{key[0]}[{key[1]}]: speedup {speedup}x vs reference "
                f"is below the pinned floor {floor}x"
            )
    lowering = report.get("lowering")
    if lowering is None:
        if baseline.get("lowering") is not None:
            regressions.append(
                "lowering section missing from report while the "
                "baseline carries one"
            )
    else:
        for entry in lowering:
            label = f"cold lowering {entry['name']}"
            ceiling = LOWERING_POINTS[entry["name"]]["ceiling_us"]
            if entry["problems"]:
                regressions.append(
                    f"{label}: did not lower "
                    f"({', '.join(entry['problems'])})"
                )
            elif entry["us_per_node_pair"] > ceiling:
                regressions.append(
                    f"{label}: {entry['us_per_node_pair']} us per node "
                    f"pair is above the ceiling {ceiling}"
                )
    return regressions


def load_report(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unknown bench schema {report.get('schema')!r} "
            f"(expected {SCHEMA})"
        )
    return report


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def render_lowering(lowering: List[Dict[str, Any]]) -> str:
    """The ``lowering`` section on one line (CLI and markdown)."""
    return "; ".join(
        "{name}: {us:.3f} us per node pair ({secs:.3f}s{bad})".format(
            name=entry["name"],
            us=entry["us_per_node_pair"],
            secs=entry["best_seconds"],
            bad="".join(f", {code}" for code in entry["problems"]),
        )
        for entry in lowering
    )


def render_markdown(report: Dict[str, Any]) -> str:
    """A bench report as a compact GitHub-flavoured markdown summary.

    The CI bench job appends this to ``$GITHUB_STEP_SUMMARY`` so the
    cycles/sec and speedup trend is readable per commit without
    downloading the JSON artifact.
    """
    lines = [
        f"### Bench ({report.get('mode', 'unknown')} mode)",
        "",
        "| case | engine | cycles | best (s) | cycles/sec | vs reference |",
        "| --- | --- | ---: | ---: | ---: | ---: |",
    ]
    for case in report.get("cases", ()):
        speedup = case.get("speedup_vs_reference")
        lines.append(
            "| {name} | {engine} | {cycles:,} | {secs:.3f} "
            "| {cps:,.0f} | {sp} |".format(
                name=case["name"],
                engine=case["engine"],
                cycles=case["total_cycles"],
                secs=case["best_seconds"],
                cps=case["cycles_per_sec"],
                sp=f"{speedup:.2f}x" if speedup else "—",
            )
        )
    lowering = report.get("lowering")
    if lowering is not None:
        lines += ["", "**Cold lowering**: " + render_lowering(lowering)]
    return "\n".join(lines) + "\n"
