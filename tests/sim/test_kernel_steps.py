"""The kernel's arbitration paths and its packet-record slots.

Both steps arbitrate by bitmask (``step_noc``: the round-robin pick over
a request mask, and under FBFC the need-2 candidates masked out when one
slot is free; ``step_vc``: the wavefront's (input, output) pairs as one
mask over visit keys, and the round-robin lane pick).  The property
below drives every one of those paths at and past saturation, where
FIFOs fill and several candidates compete, and pins compiled ==
reference with every per-packet tracker on.

Packet records live in slots that are freed at ejection and reused, so a
run's records follow the packets alive; a slot is an index, a packet's
identity its serial, and the watchdog's report names serials.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from property.settings import tiered_settings
from test_fastsim import assert_engines_identical
from test_fastsim_batch import _make_run, _tracked

from repro.core.params import NetworkConfig
from repro.core.spec import NetworkSpec
from repro.errors import DeadlockError
from repro.sim import _ckernel, fastsim
from repro.sim.faults import FaultSchedule
from repro.sim.simulator import _drive, run_synthetic
from repro.sim.watchdog import WatchdogConfig

#: Per design: the arbitration path it takes through the kernel.
_ARBITRATION_DESIGNS = (
    ("torus", {"fbfc": True}),  # FBFC: the one-free-slot need-2 mask
    ("torus3d", {"depth": 2}),  # nine-port wormhole, both ring axes
    ("torus", {}),  # dateline VC: both lanes, every wavefront priority
    ("half-torus", {}),
    ("ruche3-pop", {}),
    ("ruche2-depop", {}),
    ("multimesh", {}),
    ("mesh", {}),
)

_TRACKERS = dict(track_links=True, keep_samples=True, track_per_source=True)


class TestArbitrationPaths:
    @tiered_settings(16, deadline=None)
    @given(
        design=st.sampled_from(_ARBITRATION_DESIGNS),
        width=st.integers(4, 6),
        height=st.integers(4, 6),
        rate=st.sampled_from((0.3, 0.45, 0.6)),
        measure=st.integers(300, 500),
        seed=st.integers(0, 3),
    )
    def test_saturated_steps_identical(
        self, design, width, height, rate, measure, seed
    ):
        name, options = design
        spec = NetworkSpec.for_network(
            name, width, height, rate=rate, seed=seed, warmup=60,
            measure=measure, drain_limit=300, **options,
        )
        reference, compiled = assert_engines_identical(spec, **_TRACKERS)
        assert _tracked(reference) == _tracked(compiled)


class TestPacketSlots:
    def test_records_do_not_grow_with_the_window(self):
        """Below saturation the records stay where the packets alive
        put them, however many packets the window injects."""
        caps = []
        for measure in (1_000, 30_000):
            spec = NetworkSpec.for_network(
                "mesh", 16, 16, rate=0.05, seed=1, warmup=200,
                measure=measure, drain_limit=2_000, engine="compiled",
            )
            run = _make_run(spec)
            result = _drive(run.resolved, run)
            assert result.drained
            caps.append(run.ctx.pk_cap)
        assert caps[0] == caps[1]
        assert result.metrics.injected_total > 30 * caps[1]

    def test_starvation_after_reuse_reports_serials(self, monkeypatch):
        """A watchdog trip long after slots began to be reused rehydrates
        every held packet under its serial: the error and its snapshot
        equal the reference's, packet ids included."""
        cfg = NetworkConfig.from_name("mesh", 8, 8)
        faults = FaultSchedule.random_dead_links(cfg, 6, seed=1)
        watchdog = WatchdogConfig(stall_window=10_000, starvation_window=200)

        def run(engine):
            return run_synthetic(
                cfg, "uniform_random", 0.2, warmup=2_000, measure=2_000,
                seed=1, faults=faults, watchdog=watchdog, engine=engine,
            )

        with pytest.raises(DeadlockError) as ref_exc:
            run("reference")
        monkeypatch.setattr(fastsim, "_PK_CAP0", 8)
        held = []
        real_trip = fastsim._RunState._trip

        def trip(self, stop):
            held.append((self.ctx.pk_top, int(self.st[_ckernel.ST_NPK])))
            return real_trip(self, stop)

        monkeypatch.setattr(fastsim._RunState, "_trip", trip)
        with pytest.raises(DeadlockError) as got_exc:
            run("compiled")
        ref, got = ref_exc.value, got_exc.value
        slots, serials = held[-1]
        assert serials > slots + 1_000  # slots taken again and again
        assert got.snapshot.kind == "starvation"
        assert str(got) == str(ref)
        assert got.snapshot == ref.snapshot

