"""Cross-engine equivalence: the compiled engine vs the reference.

The contract (see ``docs/architecture.md``, "Simulation engines") is
bit-identity, not approximation: for every design point the compiled
engine either produces exactly the reference metrics or transparently
falls back to the reference engine.  These tests pin that contract on
the canonical bench cases, on hypothesis-generated small specs across
all three router kinds, on the no-kernel fallback (compiled requests
run on reference), on the kernel's struct-layout self-check, and on
every fault class (dead links, dead routers, transient drops — whole-run
and windowed — and mixed), on random fault schedules, and on watchdog
deadlock snapshots.
"""

import ctypes
import dataclasses
import re
import shutil
import subprocess
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from property.settings import tiered_settings

from repro.bench import CASES, _case_spec
from repro.core.coords import Coord, Direction
from repro.core.params import NetworkConfig
from repro.core.registry import ENGINES
from repro.core.spec import NetworkSpec, build_run
from repro.errors import DeadlockError
from repro.sim import _ckernel, fastsim
from repro.sim.faults import FaultSchedule, TransientLinkFault
from repro.sim.simulator import run_synthetic
from repro.sim.watchdog import WatchdogConfig


def fingerprint(result):
    """Every metric of a run, excluding provenance (``engine``)."""
    # Flat fields only: the trackers' Coord-keyed maps do not asdict.
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name not in ("metrics", "engine")
    }
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


def assert_engines_identical(spec, **trackers):
    """Both engines' runs of ``spec``, each with ``trackers``
    (``track_links``, ``keep_samples``, ``track_per_source``)."""
    reference = build_run(spec.replace(engine="reference"), **trackers)
    compiled = build_run(spec.replace(engine="compiled"), **trackers)
    assert compiled.engine == "compiled", (
        f"{spec.topology} unexpectedly fell back to "
        f"{compiled.engine!r}"
    )
    assert fingerprint(reference) == fingerprint(compiled)
    return reference, compiled


class TestEngineRegistry:
    def test_both_engines_registered(self):
        assert "reference" in ENGINES
        assert "compiled" in ENGINES

    def test_unknown_engine_fails_with_menu(self):
        from repro.errors import ConfigError

        spec = NetworkSpec.for_network(
            "mesh", 4, 4, rate=0.1, warmup=10, measure=20,
            drain_limit=100, engine="warp",
        )
        with pytest.raises(ConfigError, match="known simulation engine"):
            build_run(spec)


class TestBenchCaseEquivalence:
    """Bit-identical fingerprints on the three canonical bench cases."""

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bench_case_fingerprint(self, name):
        assert_engines_identical(_case_spec(name))


class TestFallbacks:
    def test_no_kernel_runs_on_reference(self, monkeypatch):
        """The kernel is the only stepping implementation outside the
        oracle: without it a compiled request runs on reference, and
        the gate names the reason."""
        spec = NetworkSpec.for_network(
            "ruche2-depop", 8, 8, half=True, rate=0.15,
            warmup=50, measure=100, drain_limit=300, engine="compiled",
        )
        with_kernel = build_run(spec)
        assert with_kernel.engine == "compiled"
        monkeypatch.setattr(fastsim._ckernel, "get_kernel", lambda: None)
        without_kernel = build_run(spec)
        assert without_kernel.engine == "reference"
        assert [d.code for d in fastsim.lowering_problems(spec)] == [
            "no-native-kernel"
        ]
        assert fingerprint(with_kernel) == fingerprint(without_kernel)

    def test_audit_tripwires_fall_back_to_reference(self):
        """``audit_every`` hooks are the one remaining fault-adjacent
        feature the compiled engine does not lower."""
        config = NetworkConfig.from_name("mesh", 4, 4)
        result = run_synthetic(
            config, "uniform_random", 0.05,
            warmup=20, measure=50, drain_limit=200, seed=3,
            audit_every=25, engine="compiled",
        )
        assert result.engine == "reference"

    def test_failed_kernel_compile_cached_with_single_warning(
        self, monkeypatch, kernel_cache
    ):
        """A poisoned ``CC`` costs one compiler invocation and one
        warning per process; later calls hit the cached negative."""
        monkeypatch.setenv("CC", "/nonexistent/compiler")
        with pytest.warns(
            RuntimeWarning, match="native step kernel unavailable"
        ) as caught:
            assert _ckernel.get_kernel() is None
        kernel_warnings = [
            w for w in caught
            if "native step kernel unavailable" in str(w.message)
        ]
        assert len(kernel_warnings) == 1
        assert _ckernel.origin == (None, "unavailable")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _ckernel.get_kernel() is None

    def test_failed_compile_warning_says_why(
        self, monkeypatch, kernel_cache
    ):
        """The one warning carries the compiler's own diagnostic, not
        just its exit status."""
        monkeypatch.setenv("CC", "cc -include /nonexistent/repro-header.h")
        with pytest.warns(
            RuntimeWarning, match="native step kernel unavailable"
        ) as caught:
            assert _ckernel.get_kernel() is None
        (warning,) = [
            str(w.message) for w in caught
            if "native step kernel unavailable" in str(w.message)
        ]
        assert "exited with status" in warning
        assert "/nonexistent/repro-header.h" in warning
        assert list(kernel_cache.iterdir()) == []

    def test_cc_may_carry_arguments(self, monkeypatch, kernel_cache):
        """``CC="ccache cc"`` / ``CC="cc -fsanitize=address"`` are a
        command line, not one ``argv[0]``: the kernel still builds and
        passes its layout check."""
        monkeypatch.setenv("CC", "cc -O1 -DREPRO_TEST_CC_ARGUMENT=1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = _ckernel.get_kernel()
        assert kernel is not None
        sizes = (ctypes.c_int32 * 2)()
        kernel.ctx_size(sizes)
        assert list(sizes) == [ctypes.sizeof(_ckernel.Ctx), _ckernel.ST_LEN]

    def test_struct_layout_drift_rejects_the_kernel(
        self, monkeypatch, kernel_cache
    ):
        """A ctypes mirror that no longer matches the C struct is
        treated like a failed build, not loaded and trusted — and the
        library that failed the check does not stay in the cache."""

        class DriftedCtx(ctypes.Structure):
            _fields_ = _ckernel.Ctx._fields_ + [("extra", ctypes.c_int64)]

        monkeypatch.setattr(_ckernel, "Ctx", DriftedCtx)
        with pytest.warns(RuntimeWarning, match="struct layout mismatch"):
            assert _ckernel.get_kernel() is None
        assert list(kernel_cache.iterdir()) == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _ckernel.get_kernel() is None


class TestKernelSource:
    """The C source names what Python names: one set of constants, one
    run context, three exported functions."""

    def test_slots_modes_and_stop_codes_go_by_name(self):
        source = _ckernel._SOURCE
        constants = {
            name: value
            for name, value in vars(_ckernel).items()
            if name.startswith(("ST_", "KIND_", "MODE_", "STOP_"))
        }
        assert len(constants) > 28
        for name, value in constants.items():
            assert f"#define {name} {value}\n" in source
        assert not re.search(r"\bst\[\s*\d", source)
        assert not re.search(r"\bstop\s*=\s*\d", source)
        assert not re.search(r"\b(mode|kind)\s*[!=]=\s*\d", source)

    def test_one_context_declared_once(self):
        """The emitted C has a single struct, and reading its member
        names back from the text gives the ctypes mirror's, in order —
        a hand edit to either output is caught here, where ``sizeof``
        cannot tell two same-width members swapped."""
        source = _ckernel._SOURCE
        assert source.count("typedef struct") == 1
        (body,) = re.findall(r"typedef struct \{(.*?)\} Ctx;", source, re.S)
        body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
        members = [
            name
            for decl in body.split(";")
            for name in re.findall(r"(\w+)\s*(?:,|$)", decl.strip())
        ]
        assert members == [name for name, _ in _ckernel.Ctx._fields_]
        assert len(members) == len(set(members)) > 60
        subclasses = [
            value
            for value in vars(_ckernel).values()
            if isinstance(value, type)
            and issubclass(value, ctypes.Structure)
        ]
        assert subclasses == [_ckernel.Ctx]

    def test_exported_surface(self):
        """Every function definition that is not ``static`` — the
        library's whole surface — and each takes one context at most."""
        source = _ckernel._SOURCE
        definitions = re.findall(
            r"^(static\b[^\n(]*?|[^\n(]*?)\b(\w+)\(([^)]*)\)\n\{",
            source,
            re.M,
        )
        assert len(definitions) > 10
        exported = [
            name
            for prefix, name, _ in definitions
            if not prefix.startswith("static")
        ]
        assert exported == ["run_block", "hop_count", "ctx_size"]
        for _, name, params in definitions:
            assert params.count("Ctx *") <= 1, name
        assert not re.search(r"\?\s*\w+->\w+\s*:\s*\w+->", source)

    def test_route_tables_are_read_in_one_place(self):
        """Every route-table member is dereferenced inside
        ``route_lookup()`` and nowhere else — whichever form a model
        carries, the steps, ``enqueue``, the injection draw's
        unreachable-destination discard and ``hop_count`` cannot tell —
        and the per-pair planes it replaced are gone."""
        source = re.sub(r"/\*.*?\*/", "", _ckernel._SOURCE, flags=re.S)
        (lookup,) = re.findall(
            r"^static inline int route_lookup\(.*?^}\n", source, re.M | re.S
        )
        members = r"->\s*(rows|rowof|rowlen|axtab|dkey|rkey|cls|nax)\b"
        assert len(set(re.findall(members, lookup))) == 8
        assert not re.search(members, source.replace(lookup, ""))
        assert {"out", "vcn", "dl", "subnet"}.isdisjoint(
            name for name, _ in _ckernel.Ctx._fields_
        )
        callers = re.findall(
            r"^(?:static )?(?:inline )?\w+ (\w+)\([^)]*\)\n\{(.*?)^}\n",
            source,
            re.M | re.S,
        )
        assert [
            name for name, body in callers if "route_lookup(" in body
        ] == ["step_noc", "step_vc", "enqueue", "inject_block", "hop_count"]

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_lint_build_is_warning_free(self, tmp_path):
        source = tmp_path / "step_noc.c"
        source.write_text(_ckernel._SOURCE)
        subprocess.run(
            ["cc", "-std=c99", "-Wall", "-Wextra", "-Wshadow", "-Werror",
             "-c", str(source), "-o", str(tmp_path / "step_noc.o")],
            check=True, capture_output=True, timeout=120,
        )


#: One seeded recipe per fault class, all verified to complete (and
#: drain) on an 8x8 mesh at the rates used below.
_FAULT_RECIPES = {
    "dead-links": lambda cfg: FaultSchedule.random_dead_links(
        cfg, 4, seed=3, degraded_model=True
    ),
    "dead-routers": lambda cfg: FaultSchedule.random_mixed(
        cfg, routers=2, seed=5, degraded_model=True
    ),
    "transient": lambda cfg: FaultSchedule.random_mixed(
        cfg, transient=3, drop_prob=0.05, seed=7
    ),
    "mixed": lambda cfg: FaultSchedule.random_mixed(
        cfg, links=2, routers=1, transient=2, drop_prob=0.05,
        seed=9, degraded_model=True,
    ),
}


class TestFaultEquivalence:
    """Fault schedules run compiled, bit-identical to the reference."""

    @pytest.mark.parametrize("kind", sorted(_FAULT_RECIPES))
    def test_fault_classes_stay_compiled_and_identical(self, kind):
        config = NetworkConfig.from_name("mesh", 8, 8)
        schedule = _FAULT_RECIPES[kind](config)
        kwargs = dict(
            warmup=200, measure=400, drain_limit=2000, seed=1,
            faults=schedule,
        )
        compiled = run_synthetic(
            config, "uniform_random", 0.15, engine="compiled", **kwargs
        )
        reference = run_synthetic(
            config, "uniform_random", 0.15, engine="reference", **kwargs
        )
        assert compiled.engine == "compiled"
        assert fingerprint(compiled) == fingerprint(reference)

    @pytest.mark.parametrize("fbfc", [False, True], ids=["vc", "fbfc"])
    def test_transient_drops_on_torus_stay_compiled(self, fbfc):
        """Transient faults do not reroute, so they lower even on the
        VC / FBFC torus baselines."""
        config = NetworkConfig.from_name("torus", 8, 4, fbfc=fbfc)
        schedule = FaultSchedule.random_transient(
            config, 3, seed=2, drop_prob=0.05
        )
        kwargs = dict(
            warmup=100, measure=200, drain_limit=800, seed=1,
            faults=schedule,
        )
        compiled = run_synthetic(
            config, "uniform_random", 0.1, engine="compiled", **kwargs
        )
        reference = run_synthetic(
            config, "uniform_random", 0.1, engine="reference", **kwargs
        )
        assert compiled.engine == "compiled"
        assert fingerprint(compiled) == fingerprint(reference)

    @pytest.mark.parametrize(
        "name,options",
        [("mesh", {}), ("torus", {"fbfc": True}), ("torus", {})],
        ids=["wormhole", "fbfc", "vc"],
    )
    def test_windowed_transient_faults_identical(self, name, options):
        """``start``/``end`` windows: one fault opens mid-measure and
        closes before drain, one closes mid-warmup, one (with
        ``drop_prob`` 0 — it still draws) never closes."""
        config = NetworkConfig.from_name(name, 8, 4, **options)
        schedule = FaultSchedule(
            config,
            transient=[
                TransientLinkFault(
                    Coord(3, 1), Direction.E, 0.5, start=250, end=450
                ),
                TransientLinkFault(
                    Coord(4, 2), Direction.W, 0.3, start=0, end=60
                ),
                TransientLinkFault(
                    Coord(2, 2), Direction.S, 0.0, start=100
                ),
            ],
            seed=4,
        )
        kwargs = dict(
            warmup=100, measure=400, drain_limit=1500, seed=2,
            faults=schedule,
        )
        compiled = run_synthetic(
            config, "uniform_random", 0.15, engine="compiled", **kwargs
        )
        reference = run_synthetic(
            config, "uniform_random", 0.15, engine="reference", **kwargs
        )
        assert compiled.engine == "compiled"
        assert reference.metrics.dropped_total > 0
        assert 0 < reference.dropped_measured
        assert (
            compiled.metrics.dropped_total,
            compiled.dropped_measured,
        ) == (
            reference.metrics.dropped_total,
            reference.dropped_measured,
        )
        assert fingerprint(compiled) == fingerprint(reference)

    def test_vc_rerouting_rejected_identically(self):
        """Permanent faults on the VC torus are rejected by both
        engines with the same error (the compiled engine defers to the
        reference rather than invent its own behavior)."""
        config = NetworkConfig.from_name("torus", 4, 4)
        schedule = FaultSchedule.random_dead_links(config, 1, seed=0)
        messages = {}
        for engine in ("reference", "compiled"):
            with pytest.raises(Exception) as excinfo:
                run_synthetic(
                    config, "uniform_random", 0.05,
                    warmup=10, measure=20, drain_limit=100, seed=1,
                    faults=schedule, engine=engine,
                )
            messages[engine] = (type(excinfo.value), str(excinfo.value))
        assert messages["reference"] == messages["compiled"]

    def test_drop_accounting_balances_at_drain(self):
        """Injected = delivered + dropped + in-flight; a drained run
        has resolved every measured packet one way or the other."""
        config = NetworkConfig.from_name("mesh", 8, 8)
        schedule = FaultSchedule.random_transient(
            config, 4, seed=11, drop_prob=0.2
        )
        result = run_synthetic(
            config, "uniform_random", 0.1,
            warmup=100, measure=300, drain_limit=2000, seed=1,
            faults=schedule, engine="compiled",
        )
        assert result.engine == "compiled"
        assert result.drained
        metrics = result.metrics
        assert metrics.dropped_measured > 0
        assert result.injected_measured == (
            result.delivered_measured + metrics.dropped_measured
        )
        in_flight = (
            metrics.injected_total
            - metrics.delivered_total
            - metrics.dropped_total
        )
        assert in_flight >= 0

    def test_watchdog_snapshot_parity(self):
        """When the watchdog trips, the compiled engine reconstructs a
        ``DeadlockSnapshot`` field-for-field identical to the one the
        reference engine captured live."""
        config = NetworkConfig.from_name("mesh", 8, 8)
        schedule = FaultSchedule.random_dead_links(
            config, 6, seed=0, degraded_model=True
        )
        kwargs = dict(
            warmup=2000, measure=2000, drain_limit=2000, seed=1,
            faults=schedule, watchdog=WatchdogConfig(stall_window=300),
        )
        errors = {}
        for engine in ("reference", "compiled"):
            with pytest.raises(DeadlockError) as excinfo:
                run_synthetic(
                    config, "uniform_random", 0.8, engine=engine,
                    **kwargs,
                )
            errors[engine] = excinfo.value
        ref, comp = errors["reference"], errors["compiled"]
        assert str(ref) == str(comp)
        assert ref.snapshot is not None and comp.snapshot is not None
        assert comp.snapshot.kind == "stall"
        for field in (
            "kind", "cycle", "occupancy", "window",
            "stalled_routers", "audit_problems",
        ):
            assert getattr(ref.snapshot, field) == getattr(
                comp.snapshot, field
            ), field


    def test_watchdog_trip_with_transient_faults_identical(self):
        """A run that both drops flits in the kernel and deadlocks
        raises the reference's ``DeadlockError`` text byte for byte."""
        config = NetworkConfig.from_name("mesh", 8, 8)
        schedule = FaultSchedule.random_mixed(
            config, links=6, transient=4, drop_prob=0.3, seed=0,
            degraded_model=True,
        )
        kwargs = dict(
            warmup=2000, measure=2000, drain_limit=2000, seed=1,
            faults=schedule, watchdog=WatchdogConfig(stall_window=300),
        )
        # Nine flits are dropped before the stall at cycle 347; the
        # message's in-flight count is off by each one missed.
        messages = {}
        for engine in ("reference", "compiled"):
            with pytest.raises(DeadlockError) as excinfo:
                run_synthetic(
                    config, "uniform_random", 0.8, engine=engine,
                    **kwargs,
                )
            messages[engine] = str(excinfo.value)
        assert messages["reference"] == messages["compiled"]


#: (name, config options, permanent faults legal).  Permanent faults
#: require the wormhole rerouting path; the torus rows are clamped to
#: transient-only below.
_FAULT_DESIGNS = (
    ("mesh", {}, True),
    ("multimesh", {}, True),
    ("ruche2-depop", {}, True),
    ("torus", {}, False),
    ("torus", {"fbfc": True}, False),
)


class TestFaultProperty:
    @tiered_settings(10, deadline=None)
    @given(
        design=st.sampled_from(_FAULT_DESIGNS),
        links=st.integers(0, 3),
        routers=st.integers(0, 1),
        transient=st.integers(0, 3),
        drop_prob=st.sampled_from((0.0, 0.02, 0.1)),
        fault_seed=st.integers(0, 3),
        seed=st.integers(0, 2),
    )
    def test_random_fault_schedules_identical(
        self, design, links, routers, transient, drop_prob,
        fault_seed, seed,
    ):
        name, options, reroutable = design
        if not reroutable:
            links = routers = 0
        config = NetworkConfig.from_name(name, 8, 4, **options)
        schedule = FaultSchedule.random_mixed(
            config, links=links, routers=routers, transient=transient,
            drop_prob=drop_prob, seed=fault_seed,
            degraded_model=reroutable and bool(links or routers),
        )
        results = {}
        for engine in ("reference", "compiled"):
            results[engine] = run_synthetic(
                config, "uniform_random", 0.1,
                warmup=50, measure=150, drain_limit=600, seed=seed,
                faults=schedule, engine=engine,
            )
        assert results["compiled"].engine == "compiled"
        assert fingerprint(results["compiled"]) == fingerprint(
            results["reference"]
        )


#: (config name, max width, max height) combos legal at small sizes;
#: covers the wormhole, FBFC, and VC (dateline torus) router kinds.
_DESIGNS = (
    ("mesh", {}),
    ("multimesh", {}),
    ("torus", {}),
    ("torus-fbfc", {}),
    ("half-torus", {}),
    ("ruche2-depop", {}),
    ("ruche2-pop", {}),
    ("ruche2-depop", {"half": True}),
)


class TestPropertyEquivalence:
    @tiered_settings(12, deadline=None)
    @given(
        design=st.sampled_from(_DESIGNS),
        width=st.integers(4, 8),
        height=st.integers(4, 8),
        rate=st.sampled_from((0.05, 0.15, 0.3)),
        seed=st.integers(0, 3),
    )
    def test_random_small_specs_identical(
        self, design, width, height, rate, seed
    ):
        name, options = design
        spec = NetworkSpec.for_network(
            name, width, height, rate=rate, seed=seed,
            warmup=20, measure=60, drain_limit=200, **options,
        )
        reference, compiled = assert_engines_identical(spec)
        # The assertion above is full-fingerprint; spell out the
        # headline quantities the contract names.
        assert compiled.injected_measured == reference.injected_measured
        assert compiled.delivered_measured == reference.delivered_measured
        assert compiled.avg_latency == reference.avg_latency

    def test_p99_latency_identical_from_samples(self):
        spec = NetworkSpec.for_network(
            "torus", 8, 4, rate=0.2, warmup=30, measure=80,
            drain_limit=250, seed=11,
        )
        results = {
            engine: run_synthetic(
                spec, engine=engine, keep_samples=True
            )
            for engine in ("reference", "compiled")
        }
        assert results["compiled"].engine == "compiled"

        def p99(result):
            samples = sorted(result.metrics.measured._samples)
            assert samples
            return samples[(len(samples) * 99) // 100]

        assert p99(results["reference"]) == p99(results["compiled"])

    def test_trackers_identical(self):
        # Wormhole and dateline-VC: the two kernel commit loops that
        # count link crossings.
        for name in ("ruche2-depop", "torus"):
            spec = NetworkSpec.for_network(
                name, 8, 8, rate=0.15, warmup=30, measure=80,
                drain_limit=250, seed=7,
            )
            kwargs = dict(track_per_source=True, track_links=True)
            reference = run_synthetic(spec, engine="reference", **kwargs)
            compiled = run_synthetic(spec, engine="compiled", **kwargs)
            assert compiled.engine == "compiled"
            assert sorted(reference.metrics.link_counts.items()) == sorted(
                compiled.metrics.link_counts.items()
            )
            assert set(reference.metrics.per_source) == set(
                compiled.metrics.per_source
            )
            for key, ref_tracker in reference.metrics.per_source.items():
                comp_tracker = compiled.metrics.per_source[key]
                assert (
                    ref_tracker.count,
                    ref_tracker.total,
                    ref_tracker.total_sq,
                    ref_tracker.min,
                    ref_tracker.max,
                ) == (
                    comp_tracker.count,
                    comp_tracker.total,
                    comp_tracker.total_sq,
                    comp_tracker.min,
                    comp_tracker.max,
                )
