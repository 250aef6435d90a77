"""Batched execution and in-kernel injection: ``run_compiled_batch``.

The batch contract extends the cross-engine contract of
``test_fastsim.py``: a batch is a loop — each spec is resolved once, run
to completion on arrays of its own and released before the next starts —
over the launch a serial ``build_run`` performs, so the oracle here is
the **reference engine**: same metrics, same RNG trajectories, same
watchdog trip messages.  Who draws a run's packets (the kernel, or the
host a block ahead — the kernel enqueues them either way) is decided by
the launch from the resolved run and never shows in results.
Failures come back as data (one row's deadlock cannot disturb its
batchmates), rows carry honest engine provenance, block and log-growth
boundaries never show in results, and a batch's memory is that of its
largest run.
"""

import dataclasses
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from property.settings import tiered_settings

from repro.core.coords import Coord, Direction
from repro.core.registry import register_pattern
from repro.core import spec as spec_module
from repro.core.spec import NetworkSpec, build_run, resolve_run
from repro.core.topology import make_topology
from repro.errors import DeadlockError, SimulationTimeout
from repro.sim import _ckernel, fastsim, watchdog
from repro.sim.fastsim import (
    batching_problems,
    run_compiled,
    run_compiled_batch,
)
from repro.sim.faults import FaultSchedule
from repro.sim.router import P_IDX
from repro.sim.simulator import _WALL_CHECK_EVERY, _drive, run_synthetic
from repro.sim.trace import Trace


def fingerprint(result):
    """Every metric of a run, excluding provenance (``engine``).

    Same shape as ``test_fastsim.fingerprint`` (tests are not a package,
    so the helper is restated rather than imported).
    """
    fields = dataclasses.asdict(result)
    fields.pop("metrics")
    fields.pop("engine")
    measured = result.metrics.measured
    return (
        fields,
        measured.count,
        measured.total,
        measured.total_sq,
        measured.min,
        measured.max,
        tuple(result.metrics.hop_counts),
        result.metrics.delivered_total,
        result.metrics.injected_total,
        result.metrics.dropped_total,
        result.metrics.dropped_measured,
    )


def _moments(stats):
    return (stats.count, stats.total, stats.total_sq, stats.min, stats.max)


def _per_source(result):
    return {
        coord: _moments(stats)
        for coord, stats in result.metrics.per_source.items()
    }


class _KernelSpy:
    """Stands in for the kernel library and records, per block, its stop
    code and the longer of the two watchdog counters at that point
    (``calls``), its injection mode (``modes``), how far into its
    schedule the block stopped (``cursors``) and its fault filters
    (``filters``: the discard flag, and whether a live mask is set)."""

    def __init__(self, monkeypatch):
        self.calls = []
        self.modes = []
        self.cursors = []
        self.filters = []
        self._run_block = fastsim._native_kernel().run_block
        monkeypatch.setattr(fastsim, "_native_kernel", lambda: self)

    def clear(self):
        del self.calls[:], self.modes[:], self.cursors[:], self.filters[:]

    def run_block(self, cref):
        stop = self._run_block(cref)
        ctx = cref._obj
        st = ctx.st
        self.calls.append(
            (stop, max(st[_ckernel.ST_IDLE], st[_ckernel.ST_STARVED]))
        )
        self.modes.append(ctx.mode)
        self.cursors.append((ctx.sched_cur, ctx.sched_len))
        self.filters.append((ctx.reach, bool(ctx.live)))
        return stop


def _peak_held(monkeypatch):
    """Run every block one cycle long and record, per run context (keyed
    by ``id``), the most packets it held at a cycle's end: the packets
    alive, ``ST_OCC``."""
    peak = {}
    kernel = fastsim._native_kernel()

    class Spy:
        hop_count = kernel.hop_count

        @staticmethod
        def run_block(cref):
            stop = kernel.run_block(cref)
            ctx = cref._obj
            peak[id(ctx)] = max(
                peak.get(id(ctx), 0), ctx.st[_ckernel.ST_OCC]
            )
            return stop

    monkeypatch.setattr(fastsim, "_BLOCK_CYCLES", 1)
    monkeypatch.setattr(fastsim, "_native_kernel", lambda: Spy)
    return peak


def _reference(spec, **trackers):
    """The oracle's run of ``spec``."""
    return build_run(spec.replace(engine="reference"), **trackers)


def _tracked(result):
    """Headline scalars plus every tracked structure
    (``fingerprint()`` can't asdict Coord-keyed trackers)."""
    return (
        result.total_cycles, result.avg_latency, result.avg_hops,
        sorted(result.metrics.link_counts.items()),
        result.metrics.measured._samples,
        _per_source(result),
    )


def _spec(name, width, height, **overrides):
    base = dict(
        rate=0.1, warmup=30, measure=80, drain_limit=300, seed=3,
        engine="compiled",
    )
    base.update(overrides)
    return NetworkSpec.for_network(name, width, height, **base)


_TRACKERS = dict(track_per_source=True, keep_samples=True, track_links=True)

#: One design per router kind the batch arena must lay out correctly:
#: wormhole mesh, FBFC torus (depth-2 credits), dateline-VC torus, and a
#: Half Ruche point (route-table rows with ruche offsets).
_BATCH_DESIGNS = (
    ("mesh", {}),
    ("torus-fbfc", {}),
    ("torus", {}),
    ("ruche2-depop", {"half": True}),
)


class TestBatchEquivalence:
    def test_mixed_batch_bit_identical_to_serial(self):
        specs = [
            _spec(name, 8, 4, seed=5 + i, **options)
            for i, (name, options) in enumerate(_BATCH_DESIGNS)
        ]
        batched = run_compiled_batch(specs)
        for spec, got in zip(specs, batched):
            assert got.engine == "compiled-batch", spec.topology
            assert fingerprint(_reference(spec)) == fingerprint(got), (
                spec.topology
            )

    def test_single_spec_batch(self):
        spec = _spec("torus", 8, 8)
        (result,) = run_compiled_batch([spec])
        assert result.engine == "compiled-batch"
        assert fingerprint(result) == fingerprint(_reference(spec))

    def test_degraded_model_without_faults_batches_on_its_own_tables(self):
        """``degraded_model`` pins the fault-aware BFS tables even with
        nothing broken; the batch must route on them, not on the healthy
        DOR model."""
        spec = _spec("ruche2-depop", 8, 8, rate=0.2, degraded_model=True)
        assert batching_problems(spec) == []
        (result,) = run_compiled_batch([spec])
        assert result.engine == "compiled-batch"
        assert fingerprint(result) == fingerprint(_reference(spec))

    def test_trackers_and_samples_identical(self):
        spec = _spec("torus", 8, 4, rate=0.2, seed=9)
        (got,) = run_compiled_batch([spec], **_TRACKERS)
        assert got.engine == "compiled-batch"
        assert _tracked(got) == _tracked(_reference(spec, **_TRACKERS))

    def test_tiny_blocks_are_invisible(self, monkeypatch):
        """Block granularity must never leak into results — phase
        boundaries and watchdog windows are per-cycle, not per-block."""
        specs = [_spec("mesh", 4, 4, seed=1), _spec("torus", 4, 4, seed=2)]
        coarse = run_compiled_batch(specs)
        monkeypatch.setattr(fastsim, "_BLOCK_CYCLES", 7)
        fine = run_compiled_batch(specs)
        for a, b in zip(coarse, fine):
            assert fingerprint(a) == fingerprint(b)

    @pytest.mark.parametrize("name", ["mesh", "torus-fbfc", "torus"])
    def test_log_growth_mid_run_is_invisible(self, name, monkeypatch):
        """The per-packet records double on ``STOP_CAPACITY`` — several
        times inside one block — and the ejection log of a run that
        keeps per-packet data grows the same way; neither shows."""
        spec = _spec(name, 8, 4, rate=0.2)
        kwargs = dict(keep_samples=True, track_per_source=True)

        def legs():
            return (
                run_compiled_batch([spec]) + [build_run(spec)],
                run_compiled_batch([spec], **kwargs)
                + [build_run(spec, **kwargs)],
            )

        roomy_plain, roomy_logged = legs()
        monkeypatch.setattr(fastsim, "_PK_CAP0", 8)
        monkeypatch.setattr(fastsim, "_EJ_CAP0", 8)
        spy = _KernelSpy(monkeypatch)
        tight_plain, tight_logged = legs()
        assert roomy_plain[0].metrics.injected_total > 64  # it did grow
        # Every phase fits one default block, so back-to-back capacity
        # stops (no budget or drain stop between them) are in one block.
        assert spec.drain_limit < fastsim._BLOCK_CYCLES
        capacity = [stop == _ckernel.STOP_CAPACITY for stop, _ in spy.calls]
        assert any(a and b for a, b in zip(capacity, capacity[1:]))
        for a, b in zip(roomy_plain, tight_plain):
            assert fingerprint(a) == fingerprint(b)
        # fingerprint() can't asdict Coord-keyed trackers.
        for a, b in zip(roomy_logged, tight_logged):
            assert (a.total_cycles, a.avg_latency, a.stddev_latency) == (
                b.total_cycles, b.avg_latency, b.stddev_latency
            )
            assert a.metrics.measured._samples == b.metrics.measured._samples
            assert _per_source(a) == _per_source(b)

    @pytest.mark.parametrize(
        "window", [{"stall_window": 25}, {"starvation_window": 25}]
    )
    def test_capacity_stops_inside_watchdog_window(self, window, monkeypatch):
        """A wormhole torus under tornado deadlocks at once while its
        sources keep queueing: the records double several times inside
        the idle window, which must keep counting across the stops, and
        the snapshot rehydrates every injection list."""
        doomed = _spec(
            "torus", 8, 4, router="wormhole", pattern="tornado", rate=1.0,
            warmup=200, measure=400, drain_limit=800, **window,
        )
        assert batching_problems(doomed) == []
        # The snapshot names queue heads only; what waits behind them
        # is read off the network the snapshot is captured from.
        waiting = []

        def capture(net, kind, length, _real=watchdog.capture_snapshot):
            waiting.append([
                [pkt.pid for pkt in router.in_q[P_IDX]]
                for router in net.routers.values()
            ])
            return _real(net, kind, length)

        monkeypatch.setattr(watchdog, "capture_snapshot", capture)
        with pytest.raises(DeadlockError) as ref_exc:
            _reference(doomed)
        ref = ref_exc.value
        monkeypatch.setattr(fastsim, "_PK_CAP0", 8)
        spy = _KernelSpy(monkeypatch)
        (got,) = run_compiled_batch([doomed])
        assert isinstance(got, DeadlockError)
        assert sum(
            stop == _ckernel.STOP_CAPACITY and waiting >= 5
            for stop, waiting in spy.calls
        ) >= 2
        assert str(got) == str(ref)
        in_reference, rehydrated = waiting
        assert rehydrated == in_reference
        assert min(len(queue) for queue in rehydrated) >= 15
        for field in (
            "kind", "cycle", "occupancy", "window",
            "stalled_routers", "audit_problems",
        ):
            assert getattr(got.snapshot, field) == getattr(
                ref.snapshot, field
            ), field

    def test_unbatchable_rows_fall_back_with_provenance(self):
        """Mixed grids: batchable rows batch, the rest run per-spec on
        whatever engine their spec resolves to."""
        specs = [
            _spec("mesh", 4, 4),
            _spec("mesh", 4, 4, engine="reference"),
            _spec("mesh", 4, 4, engine=None),
            _spec("mesh", 4, 4, pattern="hotspot"),
            _spec("mesh", 4, 4, max_wall_seconds=60.0),
        ]
        results = run_compiled_batch(specs)
        engines = [r.engine for r in results]
        assert engines[0] == "compiled-batch"
        assert engines[1] == "reference"
        # Fallback rows resolve their spec's own engine choice.
        assert engines[2] != "compiled-batch"
        assert engines[3] == "compiled"
        # A wall budget is polled between blocks; it gates nothing.
        assert engines[4] == "compiled-batch"
        for spec, got in zip(specs, results):
            assert fingerprint(got) == fingerprint(_reference(spec))

    @tiered_settings(10, deadline=None)
    @given(
        designs=st.lists(
            st.tuples(
                st.sampled_from(_BATCH_DESIGNS),
                st.integers(4, 8),
                st.integers(4, 6),
                st.sampled_from((0.05, 0.15, 0.3)),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_property_batched_equals_serial(self, designs):
        specs = [
            _spec(name, width, height, rate=rate, seed=seed,
                  warmup=20, measure=60, drain_limit=200, **options)
            for (name, options), width, height, rate, seed in designs
        ]
        batched = run_compiled_batch(specs)
        for spec, got in zip(specs, batched):
            assert got.engine == "compiled-batch"
            assert fingerprint(got) == fingerprint(_reference(spec))


#: One design per router kind and route-table source: closed-form
#: wormhole rows, Half Ruche class rows, multimesh subnet rows, the
#: dateline-VC tables, FBFC, and the generic IR walk (3-D).
_PATH_DESIGNS = (
    ("mesh", 8, 4, {}),
    ("ruche2-depop", 8, 4, {"half": True}),
    ("multimesh", 8, 4, {}),
    ("torus", 8, 4, {}),
    ("torus-fbfc", 8, 4, {}),
    ("torus3d", 4, 4, {"depth": 2}),
)


#: Kernel calls a host-drawn run may make beyond one per
#: ``_WALL_CHECK_EVERY`` cycles: three phase ends, a few capacity stops.
_BLOCK_SLACK = 6


def _drawn_on_host(spy, result):
    """Whether the blocks ``spy`` saw were one host-drawn run of
    ``result.total_cycles`` cycles, a block per wall-check interval."""
    return set(spy.modes) == {_ckernel.MODE_SCHEDULE} and len(spy.calls) <= (
        result.total_cycles // _WALL_CHECK_EVERY + _BLOCK_SLACK
    )


def _drawn_in_kernel(spy):
    """Whether the blocks ``spy`` saw drew their own packets (a table
    or uniform plan, never a schedule) in whole-phase blocks."""
    return (
        set(spy.modes) <= {_ckernel.MODE_TABLE, _ckernel.MODE_UNIFORM}
        and 0 < len(spy.calls) < 10
    )


def _host_draws(monkeypatch):
    """Leave every pattern without a kernel plan: the host draws."""
    monkeypatch.setattr(fastsim, "_pattern_plan", lambda *args: None)


class TestInjectionPath:
    """The launch, not the entry point, decides who draws a run's
    packets; the kernel enqueues them either way, a block at a time."""

    @pytest.mark.parametrize(
        "name, width, height, options",
        _PATH_DESIGNS,
        ids=[design[0] for design in _PATH_DESIGNS],
    )
    def test_host_and_kernel_injection_agree(
        self, name, width, height, options, monkeypatch
    ):
        spec = _spec(name, width, height, rate=0.2, **options)
        # A fault that never drops changes the row's label and nothing
        # else: the kernel still draws.
        faulted = spec.replace(fault_transient=1, fault_drop_prob=0.0)
        assert batching_problems(spec) == []
        assert [d.code for d in batching_problems(faulted)] == [
            "fault-schedule"
        ]
        want = _tracked(_reference(spec, **_TRACKERS))
        spy = _KernelSpy(monkeypatch)
        in_kernel = build_run(spec, **_TRACKERS)
        assert _drawn_in_kernel(spy)
        spy.clear()
        in_kernel_faulted = build_run(faulted, **_TRACKERS)
        assert _drawn_in_kernel(spy)
        spy.clear()
        _host_draws(monkeypatch)
        on_host = build_run(spec, **_TRACKERS)
        assert _drawn_on_host(spy, on_host)
        assert in_kernel.engine == on_host.engine == "compiled"
        assert in_kernel_faulted.engine == "compiled"
        assert _tracked(in_kernel) == want
        assert _tracked(in_kernel_faulted) == want
        assert _tracked(on_host) == want

    def test_serial_run_steps_in_whole_phase_blocks(self, monkeypatch):
        spec = _spec("mesh", 8, 8, warmup=200, measure=400, drain_limit=800)
        spy = _KernelSpy(monkeypatch)
        plain = build_run(spec)
        assert plain.engine == "compiled" and plain.total_cycles >= 600
        assert len(spy.calls) < 10
        spy.clear()
        faulted = spec.replace(fault_transient=2, fault_drop_prob=0.01)
        in_kernel = build_run(faulted)
        assert in_kernel.engine == "compiled"
        assert in_kernel.total_cycles >= 600
        assert _drawn_in_kernel(spy)
        spy.clear()
        _host_draws(monkeypatch)
        on_host = build_run(faulted)
        assert _drawn_on_host(spy, on_host)
        assert fingerprint(on_host) == fingerprint(in_kernel)

    def test_argument_overrides_pick_the_path(self, monkeypatch):
        """``run_compiled`` lets arguments override spec fields, so the
        injection gate reads the resolved run, not the spec."""
        spec = _spec("mesh", 8, 8)
        config = spec.config()
        window = dict(warmup=30, measure=80, drain_limit=300, seed=3)
        dead = FaultSchedule.random_dead_links(config, 3, seed=2)
        spy = _KernelSpy(monkeypatch)
        for target, args, overrides in (
            (spec, (), dict(faults=dead)),
            (spec, ("hotspot", 0.1), {}),
            (config, ("neighbor", 0.1), {}),
        ):
            spy.clear()
            got = run_compiled(target, *args, **window, **overrides)
            assert got.engine == "compiled"
            if overrides:
                # The kernel draws, filtering through the dead links.
                assert _drawn_in_kernel(spy)
                assert set(spy.filters) == {(1, False)}
            else:
                assert _drawn_on_host(spy, got)
            want = run_synthetic(
                target, *args, engine="reference", **window, **overrides
            )
            assert fingerprint(got) == fingerprint(want)
        # The same calls without the override draw in-kernel.
        spy.clear()
        assert run_compiled(spec, **window).engine == "compiled"
        run_compiled(config, "uniform_random", 0.1, **window)
        assert len(spy.calls) < 20
        assert set(spy.modes) == {_ckernel.MODE_UNIFORM}
        assert set(spy.filters) == {(0, False)}

    def test_uncompiled_specs_are_not_lowered(self, monkeypatch):
        """A run that does not select the compiled engine executes on
        the engine it names before anything is gated or compiled."""
        specs = [
            _spec("mesh", 4, 4, engine=None),
            _spec("mesh", 4, 4, engine="reference"),
        ]
        # The gate is an analysis and does lower to give its verdict.
        for spec in specs:
            assert [d.code for d in batching_problems(spec)] == [
                "engine-not-compiled"
            ]
        want = [fingerprint(build_run(spec)) for spec in specs]
        fastsim.clear_compile_caches()
        monkeypatch.setattr(
            fastsim,
            "_build_model",
            lambda *args: pytest.fail("lowered an uncompiled spec"),
        )
        results = run_compiled_batch(specs)
        assert [r.engine for r in results] == ["reference", "reference"]
        assert [fingerprint(r) for r in results] == want


@register_pattern(
    "test-skewed", description="dest-stream pattern with no kernel plan",
    replace=True,
)
def _make_skewed(config):
    width, height = config.width, config.height

    def skewed(src, rng):
        if rng.random() < 0.3:
            return None
        dest = Coord(rng.randrange(width), rng.randrange(height))
        return None if dest == src else dest

    return skewed


def _cut_off_schedule(config):
    """A corner tile with every link dead (live, but partitioned from
    all the others), a dead router, and one more dead link."""
    graph = make_topology(config).port_graph()
    corner = Coord(0, 0)
    links = [
        (corner, Direction(ch.out_port))
        for ch in graph.channels
        if ch.src == corner
    ]
    links.append((Coord(config.width - 1, config.height - 1), Direction.W))
    return FaultSchedule(
        config, dead_links=links, dead_routers=[Coord(3, 2)], seed=1
    )


#: scenario -> spec overrides ("cut-off" also takes `_cut_off_schedule`).
_DRAW_SCENARIOS = {
    "cut-off": dict(rate=0.15),
    "drops": dict(rate=0.15, fault_transient=3, fault_drop_prob=0.05),
    "plugin-pattern": dict(rate=0.3, pattern="test-skewed"),
    "off-rate-trace": dict(rate=0.5, pattern="trace"),
    "full-rate-trace": dict(rate=1.0, pattern="trace"),
}


class TestHostDrawnSchedule:
    """Whoever draws them, the packets are the reference's."""

    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        """A 600-cycle uniform trace for the 8x4 designs below."""
        rng = random.Random(5)
        rows = [
            (cycle, src, rng.choice([d for d in range(32) if d != src]))
            for cycle in range(600)
            for src in range(32)
            if rng.random() < 0.12
        ]
        return Trace(
            topology="mesh", width=8, height=4, duration=600,
            cycles=array("i", (r[0] for r in rows)),
            srcs=array("i", (r[1] for r in rows)),
            dests=array("i", (r[2] for r in rows)),
            sizes=array("i", [1] * len(rows)),
        ).write(str(tmp_path_factory.mktemp("traces") / "u.noctrace"))

    @tiered_settings(10, deadline=None)
    @given(
        design=st.sampled_from(
            (("mesh", {}), ("ruche2-depop", {"half": True}),
             ("torus-fbfc", {}), ("torus", {}))
        ),
        scenario=st.sampled_from(sorted(_DRAW_SCENARIOS)),
        # Windows that end mid-block: warmup inside the first
        # wall-check interval, measure across the next boundary.
        warmup=st.integers(130, 250),
        measure=st.integers(150, 300),
        seed=st.integers(0, 5),
    )
    def test_property_host_drawn_equals_in_kernel_equals_reference(
        self, trace_path, design, scenario, warmup, measure, seed
    ):
        name, options = design
        cut_off = scenario == "cut-off"
        if cut_off and name.startswith("torus"):
            name, options = "mesh", {}  # permanent faults reroute
        overrides = dict(_DRAW_SCENARIOS[scenario])
        if overrides.get("pattern") == "trace":
            overrides["pattern"] = f"trace_replay:{trace_path}"
        spec = _spec(
            name, 8, 4, warmup=warmup, measure=measure, drain_limit=900,
            seed=seed, **options, **overrides,
        )
        faults = _cut_off_schedule(spec.config()) if cut_off else None

        def run(engine):
            return run_synthetic(
                spec, spec.pattern, spec.rate, engine=engine, faults=faults,
                warmup=warmup, measure=measure, drain_limit=900, seed=seed,
                **_TRACKERS,
            )

        reference = run("reference")
        want = _tracked(reference)
        if cut_off:
            # The dead router never drew; the corner drew, and every
            # destination it drew was discarded as unreachable.
            delivered_from = reference.metrics.per_source
            assert len(delivered_from) == 30
            assert not {Coord(0, 0), Coord(3, 2)} & set(delivered_from)
        faulted = scenario in ("cut-off", "drops")
        with pytest.MonkeyPatch.context() as patch:
            spy = _KernelSpy(patch)
            codes = [d.code for d in batching_problems(spec, faults=faults)]
            if faulted:
                # The kernel draws under the fault schedule, skipping
                # the dead router and discarding unreachable
                # destinations, in whole-phase blocks and on the
                # re-entry after each capacity stop alike ...
                assert codes == ["fault-schedule"]
                default_cap = fastsim._PK_CAP0
                for cap in (default_cap, 8):
                    patch.setattr(fastsim, "_PK_CAP0", cap)
                    spy.clear()
                    planned = run("compiled")
                    assert planned.engine == "compiled"
                    assert set(spy.modes) <= {
                        _ckernel.MODE_TABLE, _ckernel.MODE_UNIFORM
                    }
                    # Transient drops reroute nothing: no filter.
                    assert set(spy.filters) == {(int(cut_off), cut_off)}
                    assert _tracked(planned) == want
                assert _ckernel.STOP_CAPACITY in (s for s, _ in spy.calls)
                patch.setattr(fastsim, "_PK_CAP0", default_cap)
            elif not codes:
                # The kernel has a plan of its own for this run ...
                (planned,) = run_compiled_batch([spec], **_TRACKERS)
                assert planned.engine == "compiled-batch"
                assert _tracked(planned) == want
            if faulted or not codes:
                # ... which the host's draw must reproduce.
                patch.setattr(fastsim, "_pattern_plan", lambda *args: None)
                spy.clear()
            drawn = run("compiled")
            assert drawn.engine == "compiled"
            assert _drawn_on_host(spy, drawn)
            assert _tracked(drawn) == want
            # Records and log too small for a block's schedule: the
            # kernel stops mid-schedule, the host grows, the cursor holds.
            patch.setattr(fastsim, "_PK_CAP0", 8)
            patch.setattr(fastsim, "_EJ_CAP0", 8)
            spy.clear()
            assert _tracked(run("compiled")) == want
            assert any(
                stop == _ckernel.STOP_CAPACITY and 0 < cursor < length
                for (stop, _), (cursor, length) in zip(spy.calls, spy.cursors)
            )


class TestRunLifetime:
    def test_batch_memory_is_that_of_one_run(self):
        """Every run allocates its own arrays and releases them before
        the next starts, so twelve runs peak where one does."""
        spec = _spec("mesh", 8, 8)
        run_compiled_batch([spec])  # warm the compile and pattern caches

        def peak(specs):
            tracemalloc.start()
            try:
                results = run_compiled_batch(specs)
                return tracemalloc.get_traced_memory()[1], results
            finally:
                tracemalloc.stop()

        one, _ = peak([spec])
        twelve, results = peak([spec] * 12)
        assert len(results) == 12
        assert twelve <= 2 * one

    def test_batched_row_resolves_once(self, monkeypatch):
        """config, faults and pattern plan are derived once per spec
        (the design point is already in the compile cache)."""
        spec = _spec("mesh", 4, 4)
        run_compiled_batch([spec])
        calls = {}
        for module, name in (
            (spec_module, "build_config"),
            (spec_module, "build_faults"),
            (fastsim, "_pattern_plan"),
        ):
            real = getattr(module, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
        (result,) = run_compiled_batch([spec])
        assert result.engine == "compiled-batch"
        assert calls == {
            "build_config": 1, "build_faults": 1, "_pattern_plan": 1,
        }


def _make_run(spec, **trackers):
    """The ``_Run`` ``run_compiled_batch`` would build for ``spec``."""
    assert batching_problems(spec) == []
    run = resolve_run("run_compiled_batch", spec, **trackers)
    _problems, model = fastsim._resolve(run)
    plan = fastsim._pattern_plan(model, run.pattern)
    return fastsim._Run(run, model, plan, "compiled-batch")


class TestKernelMoments:
    """The kernel scores ejections itself: the moments it accumulates in
    ``st[]`` are those of the per-packet samples, on both engines."""

    @pytest.mark.parametrize(
        "name, options",
        [
            ("mesh", {}),
            ("torus-fbfc", {}),
            ("torus", {}),
            ("torus", {"fault_transient": 3, "fault_drop_prob": 0.05}),
        ],
        ids=["mesh", "torus-fbfc", "torus-vc", "torus-vc-drops"],
    )
    def test_moments_equal_samples(self, name, options):
        spec = _spec(name, 8, 4, rate=0.25, **options)
        got = build_run(spec, keep_samples=True)
        assert got.engine == "compiled"
        stats = got.metrics.measured
        samples = stats._samples
        assert len(samples) > 100
        assert _moments(stats) == (
            len(samples), sum(samples), sum(x * x for x in samples),
            min(samples), max(samples),
        )
        ref = _reference(spec, keep_samples=True)
        assert _moments(stats) == _moments(ref.metrics.measured)
        assert samples == ref.metrics.measured._samples
        if not options:
            (batched,) = run_compiled_batch([spec], keep_samples=True)
            assert _moments(batched.metrics.measured) == _moments(stats)
            assert batched.metrics.measured._samples == samples

    def test_sum_of_squares_carries_into_the_high_limb(self):
        spec = _spec("mesh", 4, 4)
        (plain,) = run_compiled_batch([spec])
        seed = 2**64 - 5
        run = _make_run(spec)
        run.st[_ckernel.ST_LAT_SQ_LO] = seed - 2**64  # as an int64
        got = _drive(run.resolved, run)
        assert fingerprint(got)[1:3] == fingerprint(plain)[1:3]
        assert got.metrics.measured.total_sq == (
            seed + plain.metrics.measured.total_sq
        )
        assert run.st[_ckernel.ST_LAT_SQ_HI] == 1

    def test_no_measured_delivery_means_no_extremes(self):
        (got,) = run_compiled_batch([_spec("mesh", 4, 4, rate=0.0)])
        assert _moments(got.metrics.measured) == (0, 0, 0, None, None)


class TestRunStateSize:
    """Run state is sized by traffic, not by ``n x window``."""

    #: mesh 32x32 at the ``tail`` experiment's quick window.
    SPEC = dict(warmup=500, measure=1000, drain_limit=12_000, rate=0.05)

    @staticmethod
    def _owned_bytes(run):
        arrays = [*run.keep, run.pk]
        if run.ejlog_a is not None:
            arrays.append(run.ejlog_a)
        return sum(len(a) * a.itemsize for a in arrays)

    def test_fresh_run_is_small(self):
        run = _make_run(_spec("mesh", 32, 32, **self.SPEC))
        assert run.ejlog_a is None  # a plain run keeps no ejection log
        assert self._owned_bytes(run) < 2 * 2**20
        logged = _make_run(
            _spec("torus", 32, 32, **self.SPEC), keep_samples=True
        )
        assert self._owned_bytes(logged) < 2 * 2**20

    @pytest.mark.parametrize("keep_samples", [False, True])
    def test_records_track_packets_alive(self, keep_samples, monkeypatch):
        """Record slots are freed at ejection and reused, so from 8 they
        double only while the packets alive plus one injection round
        do not fit, however many packets the run injects."""
        monkeypatch.setattr(fastsim, "_PK_CAP0", 8)
        peak = _peak_held(monkeypatch)
        run = _make_run(
            _spec("mesh", 32, 32, **self.SPEC), keep_samples=keep_samples
        )
        nd = run.model.nd
        result = _drive(run.resolved, run)
        assert result.drained
        assert 8 < run.ctx.pk_cap <= max(8, 2 * (peak[id(run.ctx)] + nd))
        assert run.ctx.pk_cap < result.metrics.injected_total
        assert len(run.pk) == _ckernel.PK_LEN * run.ctx.pk_cap
        if keep_samples:
            assert len(run.ejlog_a) == 2 * run.ctx.ej_cap
            assert run.ctx.ej_cap <= max(fastsim._EJ_CAP0 // 2, 2 * nd)
        assert self._owned_bytes(run) < 4 * 2**20


class TestBatchErrors:
    def test_deadlock_between_healthy_rows(self):
        ok_a = _spec("mesh", 4, 4, seed=1)
        ok_b = _spec("torus", 4, 4, seed=2)
        doomed = _spec(
            "mesh", 8, 8, rate=0.5, warmup=200, measure=400,
            drain_limit=800, starvation_window=1,
        )
        got_a, got_doomed, got_b = run_compiled_batch([ok_a, doomed, ok_b])
        assert isinstance(got_doomed, DeadlockError)
        for spec, got in ((ok_a, got_a), (ok_b, got_b)):
            (alone,) = run_compiled_batch([spec])
            assert got.engine == "compiled-batch"
            assert fingerprint(got) == fingerprint(alone)

    def test_timeout_is_data_with_serial_message(self):
        healthy = _spec("mesh", 4, 4)
        doomed = _spec("mesh", 8, 8, max_cycles=50)
        with pytest.raises(SimulationTimeout) as serial_exc:
            _reference(doomed)
        got_doomed, got_healthy = run_compiled_batch([doomed, healthy])
        assert isinstance(got_doomed, SimulationTimeout)
        assert str(got_doomed) == str(serial_exc.value)
        assert got_healthy.engine == "compiled-batch"
        assert fingerprint(got_healthy) == fingerprint(_reference(healthy))

    @pytest.mark.parametrize(
        "faults", [{}, {"fault_transient": 2}], ids=["healthy", "faulted"]
    )
    def test_expired_wall_budget_times_out_identically(self, faults):
        """A budget that has already run out trips at the first poll —
        the reference's cycle 256 — with one message on every engine:
        raised by a serial run, data in a batch, whoever draws."""
        doomed = _spec(
            "mesh", 8, 8, warmup=300, measure=400, max_wall_seconds=0.0,
            **faults,
        )
        with pytest.raises(SimulationTimeout) as ref_exc:
            _reference(doomed)
        assert str(ref_exc.value) == (
            "run exceeded its 0.0s wall-clock limit at cycle 256"
        )
        with pytest.raises(SimulationTimeout) as compiled_exc:
            build_run(doomed)
        (got,) = run_compiled_batch([doomed])
        assert isinstance(got, SimulationTimeout)
        assert str(compiled_exc.value) == str(got) == str(ref_exc.value)

    @pytest.mark.parametrize("name", ["mesh", "torus"])
    def test_watchdog_trip_message_matches_serial(self, name):
        """An aggressive starvation window trips identically — same
        cycle, same occupancy, same snapshot — in a batch, in a serial
        compiled run (raised) and on the reference engine."""
        doomed = _spec(
            name, 8, 8, rate=0.5, warmup=200, measure=400,
            drain_limit=800, starvation_window=1,
        )
        with pytest.raises(DeadlockError) as serial_exc:
            _reference(doomed)
        with pytest.raises(DeadlockError) as compiled_exc:
            build_run(doomed)
        assert str(compiled_exc.value) == str(serial_exc.value)
        (got,) = run_compiled_batch([doomed])
        assert isinstance(got, DeadlockError)
        assert str(got) == str(serial_exc.value)


class TestBatchingGate:
    def _codes(self, target, **kwargs):
        return [d.code for d in batching_problems(target, **kwargs)]

    def test_clean_compiled_spec_batches(self):
        assert batching_problems(_spec("torus", 8, 8)) == []

    def test_default_engine_is_not_batchable(self):
        codes = self._codes(_spec("mesh", 4, 4, engine=None))
        assert "engine-not-compiled" in codes

    def test_fault_schedule_rejected(self):
        spec = NetworkSpec.for_network(
            "mesh", 8, 8, rate=0.05, warmup=20, measure=50,
            drain_limit=200, engine="compiled",
            fault_transient=2, fault_drop_prob=0.01,
        )
        assert "fault-schedule" in self._codes(spec)

    def test_lowering_problems_subsumed(self):
        spec = _spec("mesh", 4, 4, audit_every=10)
        lowering = {
            d.code for d in fastsim.lowering_problems(spec)
        }
        assert lowering  # audit hooks don't lower
        assert lowering <= set(self._codes(spec))

    def test_missing_kernel_rejected(self, monkeypatch):
        monkeypatch.setattr(fastsim._ckernel, "get_kernel", lambda: None)
        fastsim.clear_compile_caches()
        try:
            codes = self._codes(_spec("mesh", 4, 4))
            assert codes == ["no-native-kernel"]
        finally:
            fastsim.clear_compile_caches()

    def test_gate_rejections_still_produce_rows(self):
        """Every gate code falls back inside run_compiled_batch; the
        caller always gets a result per spec."""
        specs = [
            _spec("mesh", 4, 4, audit_every=10),
            _spec("mesh", 4, 4, fault_transient=2),
            _spec("mesh", 4, 4, pattern="hotspot"),
        ]
        assert all(batching_problems(spec) for spec in specs)
        results = run_compiled_batch(specs)
        for spec, got in zip(specs, results):
            assert fingerprint(got) == fingerprint(_reference(spec))


class TestCertifyBatchability:
    def test_certify_reports_batchable(self):
        from repro.verify.certify import certify_spec

        spec = _spec("torus", 8, 8)
        report = certify_spec(spec)
        assert report.batchable is True
        assert report.batching == []

    def test_certify_names_batch_exclusion(self):
        from repro.verify.certify import certify_spec

        spec = NetworkSpec.for_network(
            "mesh", 8, 8, rate=0.05, warmup=20, measure=50,
            drain_limit=200, engine="compiled",
            fault_transient=2, fault_drop_prob=0.01,
        )
        report = certify_spec(spec)
        assert report.batchable is False
        assert "fault-schedule" in [
            d["code"] for d in report.batching
        ]
        # Transient faults still *compile* serially — the batch gate is
        # strictly tighter than the lowering gate.
        assert report.compiles is True

    def test_report_dict_round_trips_batching_fields(self):
        from repro.verify.certify import certify_spec

        report = certify_spec(_spec("mesh", 4, 4))
        payload = dataclasses.asdict(report)
        assert payload["batchable"] is True
        assert payload["batching"] == []
