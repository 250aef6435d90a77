"""Batched execution: ``run_compiled_batch`` vs serial runs.

The batch contract extends the cross-engine contract of
``test_fastsim.py``: a batch is a loop — each spec is resolved once, run
to completion on arrays of its own (in-kernel injection, whole-phase
blocks of the native kernel) and released before the next starts — and
must be **bit-identical** to running each spec serially: same metrics,
same RNG trajectories, same watchdog trip messages.  Failures come back
as data (one row's deadlock cannot disturb its batchmates), unbatchable
rows run per-spec with honest engine provenance, block and log-growth
boundaries never show in results, and a batch's memory is that of its
largest run.
"""

import dataclasses
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from property.settings import tiered_settings

from repro.core.spec import NetworkSpec, build_run
from repro.errors import DeadlockError, SimulationTimeout
from repro.sim import fastsim
from repro.sim.fastsim import batching_problems, run_compiled_batch


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


def _spec(name, width, height, **overrides):
    base = dict(
        rate=0.1, warmup=30, measure=80, drain_limit=300, seed=3,
        engine="compiled",
    )
    base.update(overrides)
    return NetworkSpec.for_network(name, width, height, **base)


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
        serial = [build_run(spec) for spec in specs]
        batched = run_compiled_batch(specs)
        for spec, ref, got in zip(specs, serial, batched):
            assert got.engine == "compiled-batch", spec.topology
            assert fingerprint(ref) == fingerprint(got), spec.topology

    def test_single_spec_batch(self):
        spec = _spec("torus", 8, 8)
        (result,) = run_compiled_batch([spec])
        assert result.engine == "compiled-batch"
        assert fingerprint(result) == fingerprint(build_run(spec))

    def test_degraded_model_without_faults_batches_on_its_own_tables(self):
        """``degraded_model`` pins the fault-aware BFS tables even with
        nothing broken; the batch must route on them, not on the healthy
        DOR model."""
        spec = _spec("ruche2-depop", 8, 8, rate=0.2, degraded_model=True)
        assert batching_problems(spec) == []
        (result,) = run_compiled_batch([spec])
        assert result.engine == "compiled-batch"
        assert fingerprint(result) == fingerprint(
            build_run(spec.replace(engine="reference"))
        )

    def test_trackers_and_samples_identical(self):
        spec = _spec("torus", 8, 4, rate=0.2, seed=9)
        kwargs = dict(
            track_per_source=True, keep_samples=True, track_links=True
        )
        ref = build_run(spec, **kwargs)
        (got,) = run_compiled_batch([spec], **kwargs)
        assert got.engine == "compiled-batch"
        # fingerprint() can't asdict Coord-keyed trackers; compare the
        # headline scalars plus every tracked structure explicitly.
        assert (ref.total_cycles, ref.avg_latency, ref.avg_hops) == (
            got.total_cycles, got.avg_latency, got.avg_hops
        )
        assert sorted(ref.metrics.link_counts.items()) == sorted(
            got.metrics.link_counts.items()
        )
        assert ref.metrics.measured._samples == got.metrics.measured._samples
        assert set(ref.metrics.per_source) == set(got.metrics.per_source)
        for key, rt in ref.metrics.per_source.items():
            gt = got.metrics.per_source[key]
            assert (rt.count, rt.total, rt.total_sq, rt.min, rt.max) == (
                gt.count, gt.total, gt.total_sq, gt.min, gt.max
            )

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
        """The per-packet records and the ejection log double (and their
        ctypes pointers are refreshed) several times inside one run."""
        spec = _spec(name, 8, 4, rate=0.2)
        roomy = run_compiled_batch([spec]) + [build_run(spec)]
        monkeypatch.setattr(fastsim, "_PK_CAP0", 8)
        monkeypatch.setattr(fastsim, "_EJ_CAP0", 8)
        tight = run_compiled_batch([spec]) + [build_run(spec)]
        assert roomy[0].metrics.injected_total > 64  # it did grow
        for a, b in zip(roomy, tight):
            assert fingerprint(a) == fingerprint(b)

    def test_unbatchable_rows_fall_back_with_provenance(self):
        """Mixed grids: batchable rows batch, the rest run per-spec on
        whatever engine their spec resolves to."""
        specs = [
            _spec("mesh", 4, 4),
            _spec("mesh", 4, 4, engine="reference"),
            _spec("mesh", 4, 4, engine=None),
            _spec("mesh", 4, 4, max_wall_seconds=60.0),
        ]
        results = run_compiled_batch(specs)
        engines = [r.engine for r in results]
        assert engines[0] == "compiled-batch"
        assert engines[1] == "reference"
        # Fallback rows resolve their spec's own engine choice.
        assert engines[2] != "compiled-batch"
        assert engines[3] == "compiled"
        for spec, got in zip(specs, results):
            assert fingerprint(got) == fingerprint(build_run(spec))

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
            assert fingerprint(got) == fingerprint(build_run(spec))


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
        for name in ("build_config", "build_faults", "_pattern_plan"):
            real = getattr(fastsim, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args)

            monkeypatch.setattr(fastsim, name, counted)
        (result,) = run_compiled_batch([spec])
        assert result.engine == "compiled-batch"
        assert calls == {
            "build_config": 1, "build_faults": 1, "_pattern_plan": 1,
        }


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
            build_run(doomed)
        got_doomed, got_healthy = run_compiled_batch([doomed, healthy])
        assert isinstance(got_doomed, SimulationTimeout)
        assert str(got_doomed) == str(serial_exc.value)
        assert got_healthy.engine == "compiled-batch"
        assert fingerprint(got_healthy) == fingerprint(build_run(healthy))

    @pytest.mark.parametrize("name", ["mesh", "torus"])
    def test_watchdog_trip_message_matches_serial(self, name):
        """An aggressive starvation window trips identically — same
        cycle, same occupancy, same snapshot — batched or serial."""
        doomed = _spec(
            name, 8, 8, rate=0.5, warmup=200, measure=400,
            drain_limit=800, starvation_window=1,
        )
        with pytest.raises(DeadlockError) as serial_exc:
            build_run(doomed)
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

    def test_wall_clock_budget_rejected(self):
        codes = self._codes(_spec("mesh", 4, 4, max_wall_seconds=5.0))
        assert "wall-clock-budget" in codes

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
            _spec("mesh", 4, 4, max_wall_seconds=30.0),
        ]
        results = run_compiled_batch(specs)
        for spec, got in zip(specs, results):
            assert fingerprint(got) == fingerprint(build_run(spec))


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
