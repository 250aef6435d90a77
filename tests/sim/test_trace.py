"""Trace capture/replay: format round-trip, validation, engine parity.

The contract under test is the tentpole of the trace engine: a trace
written to disk loads back identically, a replay of it is bit-identical
across the reference engine, the compiled serial engine, and the
compiled batch engine, and any damaged file is rejected with an error
naming the file and the violated invariant.
"""

import dataclasses
import random
from array import array

import pytest

from repro.core.coords import Coord
from repro.core.spec import build_run
from repro.errors import ConfigError
from repro.sim.trace import (
    Trace,
    TraceError,
    TraceRecorder,
    load_trace,
    replay_spec,
    write_trace,
)


def synthetic_trace(
    width=8, height=8, duration=120, rate=0.35, seed=3,
    topology="mesh", options=None,
):
    """A deterministic random trace (uniform destinations)."""
    rng = random.Random(seed)
    n = width * height
    rows = []
    for cycle in range(duration):
        for src in range(n):
            if rng.random() >= rate:
                continue
            dest = rng.randrange(n)
            while dest == src:
                dest = rng.randrange(n)
            rows.append((cycle, src, dest, 1))
    rows.sort(key=lambda r: (r[0], r[1]))
    return Trace(
        topology=topology,
        width=width,
        height=height,
        duration=duration,
        options=dict(options or {}),
        provenance={"generator": "test", "seed": seed},
        cycles=array("i", (r[0] for r in rows)),
        srcs=array("i", (r[1] for r in rows)),
        dests=array("i", (r[2] for r in rows)),
        sizes=array("i", (r[3] for r in rows)),
    )


def fingerprint(result):
    """Everything a run reports except the engine label."""
    d = dataclasses.asdict(result)
    d.pop("metrics", None)
    d.pop("engine", None)
    m = result.metrics
    lat = m.measured
    return (
        tuple(sorted(d.items())),
        lat.count, lat.total, lat.total_sq, lat.min, lat.max,
        tuple(m.hop_counts),
        m.delivered_total, m.injected_total, m.dropped_total,
    )


@pytest.fixture()
def trace_file(tmp_path):
    tr = synthetic_trace()
    path = str(tmp_path / "t.noctrace")
    write_trace(tr, path)
    return path


class TestRoundTrip:
    def test_load_returns_identical_records(self, tmp_path):
        tr = synthetic_trace()
        path = str(tmp_path / "rt.noctrace")
        tr.write(path)
        back = load_trace(path)
        assert back.topology == tr.topology
        assert (back.width, back.height) == (tr.width, tr.height)
        assert back.duration == tr.duration
        assert back.cycles == tr.cycles
        assert back.srcs == tr.srcs
        assert back.dests == tr.dests
        assert back.sizes == tr.sizes
        assert back.provenance == tr.provenance
        assert back.source_key is not None

    def test_serialization_is_deterministic(self, tmp_path):
        a = synthetic_trace().to_bytes()
        b = synthetic_trace().to_bytes()
        assert a == b

    def test_load_is_cached_per_stat_signature(self, trace_file):
        assert load_trace(trace_file) is load_trace(trace_file)


class TestReplayParity:
    @pytest.mark.parametrize(
        "topology,options",
        [
            ("mesh", {}),
            ("torus", {}),
            ("half-torus", {}),
            ("ruche2-depop", {"half": True}),
        ],
    )
    def test_replay_bit_identical_across_engines(
        self, tmp_path, topology, options
    ):
        tr = synthetic_trace(topology=topology, options=options)
        path = str(tmp_path / "p.noctrace")
        tr.write(path)
        results = {
            engine: build_run(replay_spec(path, engine=engine))
            for engine in ("reference", "compiled")
        }
        assert results["reference"].engine == "reference"
        assert results["compiled"].engine == "compiled"
        assert fingerprint(results["reference"]) == fingerprint(
            results["compiled"]
        )
        # Every trace record was injected: the replay is exhaustive.
        assert (
            results["compiled"].metrics.injected_total == tr.records
        )

    def test_batched_replay_matches_serial(self, trace_file):
        from repro.sim.fastsim import run_compiled_batch

        spec = replay_spec(trace_file, engine="compiled")
        serial = build_run(replay_spec(trace_file, engine="reference"))
        (batched,) = run_compiled_batch([spec])
        assert not isinstance(batched, Exception)
        assert batched.engine == "compiled-batch"
        assert fingerprint(batched) == fingerprint(serial)

    def test_rewritten_trace_replaces_its_cached_plan(self, tmp_path):
        """Overwriting a trace at the same path replays the new content
        and leaves one cached plan, not one per rewrite; clearing the
        compile caches drops it."""
        from repro.sim import fastsim

        fastsim.clear_compile_caches()
        path = str(tmp_path / "rewritten.noctrace")
        for seed in (1, 2, 3, 4):
            tr = synthetic_trace(seed=seed)
            tr.write(path)
            (batched,) = fastsim.run_compiled_batch(
                [replay_spec(path, engine="compiled")]
            )
            assert batched.engine == "compiled-batch"
            assert batched.metrics.injected_total == tr.records
            assert fingerprint(batched) == fingerprint(
                build_run(replay_spec(path, engine="reference"))
            )
            assert len(fastsim._TRACE_PLAN_CACHE) == 1
        fastsim.clear_compile_caches()
        assert fastsim._TRACE_PLAN_CACHE == {}

    def test_batching_requires_full_rate(self, trace_file):
        from repro.sim.fastsim import batching_problems

        spec = replay_spec(trace_file, engine="compiled")
        assert batching_problems(spec) == []
        slow = dataclasses.replace(spec, rate=0.5)
        codes = [p.code for p in batching_problems(slow)]
        assert "trace-rate" in codes

    def test_off_rate_replay_injects_on_the_host(
        self, trace_file, monkeypatch
    ):
        """Off full rate the trace as a cycle-indexed schedule would
        diverge from the pattern-call-indexed replay, so every compiled
        entry point leaves the draw to the Python pattern."""
        from repro.sim import fastsim

        monkeypatch.setattr(
            fastsim,
            "_trace_plan",
            lambda *args: pytest.fail("planned an off-rate replay"),
        )
        slow = replay_spec(trace_file, engine="compiled").replace(rate=0.5)
        want = fingerprint(build_run(slow.replace(engine="reference")))
        serial = build_run(slow)
        (batched,) = fastsim.run_compiled_batch([slow])
        assert serial.engine == batched.engine == "compiled"
        assert serial.metrics.injected_total > 0
        assert fingerprint(serial) == fingerprint(batched) == want

    def test_replay_rejects_wrong_geometry(self, trace_file):
        from repro.core.params import NetworkConfig
        from repro.sim.trace import replay_pattern

        config = NetworkConfig.from_name("mesh", 4, 4)
        with pytest.raises(TraceError, match="8x8"):
            replay_pattern(config, trace_file)

    def test_pattern_requires_argument(self):
        from repro.core.params import NetworkConfig
        from repro.sim.traffic import make_pattern

        config = NetworkConfig.from_name("mesh", 8, 8)
        with pytest.raises(TraceError, match="trace_replay:<path>"):
            make_pattern("trace_replay", config)


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot stat"):
            load_trace(str(tmp_path / "absent.noctrace"))

    def test_bad_magic(self, tmp_path, trace_file):
        blob = bytearray(open(trace_file, "rb").read())
        blob[:4] = b"XXXX"
        bad = tmp_path / "magic.noctrace"
        bad.write_bytes(bytes(blob))
        with pytest.raises(TraceError, match="magic"):
            load_trace(str(bad))

    def test_truncated_payload(self, tmp_path, trace_file):
        blob = open(trace_file, "rb").read()
        bad = tmp_path / "short.noctrace"
        bad.write_bytes(blob[:-7])
        with pytest.raises(TraceError, match="short.noctrace"):
            load_trace(str(bad))

    def test_corrupt_payload_fails_checksum(self, tmp_path, trace_file):
        blob = bytearray(open(trace_file, "rb").read())
        blob[-3] ^= 0xFF
        bad = tmp_path / "flip.noctrace"
        bad.write_bytes(bytes(blob))
        with pytest.raises(TraceError, match="sha256"):
            load_trace(str(bad))

    def test_trace_error_is_config_error(self):
        # Campaign/driver error handling catches ConfigError.
        assert issubclass(TraceError, ConfigError)

    def test_out_of_range_destination(self, tmp_path):
        tr = synthetic_trace(width=4, height=4, duration=10)
        tr.dests[0] = 99
        bad = tmp_path / "range.noctrace"
        tr.write(str(bad))
        with pytest.raises(TraceError):
            load_trace(str(bad))


class TestRecorder:
    def test_memory_endpoints_clamp_to_edge_tiles(self):
        rec = TraceRecorder()
        rec.record("fwd", 0, Coord(2, 1), Coord(3, -1))
        rec.record("fwd", 1, Coord(2, 1), Coord(3, 4))
        traces = rec.finalize(
            width=4, height=4, duration=2,
            networks={"fwd": ("mesh", {})},
        )
        tr = traces["fwd"]
        assert list(tr.dests) == [
            tr.node_id(Coord(3, 0)),
            tr.node_id(Coord(3, 3)),
        ]

    def test_self_addressed_after_clamp_is_dropped(self):
        rec = TraceRecorder()
        rec.record("fwd", 0, Coord(3, 0), Coord(3, -1))
        traces = rec.finalize(
            width=4, height=4, duration=1,
            networks={"fwd": ("mesh", {})},
        )
        assert traces["fwd"].records == 0

    def test_same_cycle_collision_spills_forward(self):
        rec = TraceRecorder()
        rec.record("fwd", 5, Coord(0, 0), Coord(1, 0))
        rec.record("fwd", 5, Coord(0, 0), Coord(2, 0))
        traces = rec.finalize(
            width=4, height=4, duration=6,
            networks={"fwd": ("mesh", {})},
        )
        tr = traces["fwd"]
        assert list(tr.cycles) == [5, 6]
        # Spilling past the end extends the replay window.
        assert tr.duration == 7

    def test_finalized_traces_satisfy_the_parser(self, tmp_path):
        rec = TraceRecorder()
        rng = random.Random(7)
        for cycle in range(40):
            for src in range(8):
                if rng.random() < 0.4:
                    rec.record(
                        "fwd", cycle,
                        Coord(src % 4, src // 4),
                        Coord(rng.randrange(4), rng.randrange(-1, 3)),
                    )
        traces = rec.finalize(
            width=4, height=2, duration=40,
            networks={"fwd": ("mesh", {})},
            provenance={"origin": "unit"},
        )
        path = str(tmp_path / "rec.noctrace")
        traces["fwd"].write(path)
        back = load_trace(path)
        assert back.provenance["origin"] == "unit"
        assert back.records == traces["fwd"].records
