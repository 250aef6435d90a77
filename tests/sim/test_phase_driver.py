"""The three-phase window's trip order, on every engine.

A run ends for one of four reasons: a watchdog (or audit) trips, a
budget runs out, every measured packet resolves while draining, or the
window runs out.  Where two of them fall on one cycle, the order they
are checked in decides the outcome: the tripwire, then the budgets,
then the drain.  Each case here puts two of them on one cycle and
asserts one outcome — the same error type and message, or the same
fingerprint — from the reference engine and the compiled engine (raised
by a serial run, kernel-drawn and host-drawn alike, and kept as data by
a batch).

An expired wall budget in the warmup is
``test_fastsim_batch.py::TestBatchErrors::test_expired_wall_budget_times_out_identically``;
the measure and drain cases are here.
"""

import dataclasses

import pytest

from repro.core.spec import NetworkSpec, build_run
from repro.errors import DeadlockError, SimulationError, SimulationTimeout
from repro.sim import fastsim
from repro.sim.fastsim import run_compiled_batch
from repro.sim.network import Network


def fingerprint(result):
    """Every metric of a run, excluding provenance (``engine``)."""
    fields = dataclasses.asdict(result)
    fields.pop("metrics")
    fields.pop("engine")
    measured = result.metrics.measured
    return (
        fields,
        measured.total_sq,
        tuple(result.metrics.hop_counts),
        result.metrics.delivered_total,
        result.metrics.injected_total,
    )


def _settled(spec):
    """What ``build_run(spec)`` gives: its result, or the error it raised."""
    try:
        return build_run(spec)
    except SimulationError as exc:
        return exc


def _key(outcome):
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return type(outcome), fingerprint(outcome)


def _on_every_engine(spec):
    """The reference outcome of ``spec``, asserting every compiled
    launch gives the same one."""
    want = _settled(spec.replace(engine="reference"))
    compiled = spec.replace(engine="compiled")
    assert _key(_settled(compiled)) == _key(want)
    (batched,) = run_compiled_batch([compiled])
    assert _key(batched) == _key(want)
    with pytest.MonkeyPatch.context() as patch:
        # No kernel plan: the host draws each block's packets.
        patch.setattr(fastsim, "_pattern_plan", lambda *args: None)
        assert _key(_settled(compiled)) == _key(want)
    return want


#: Drains at cycle 154 (all measured packets resolved) with 6 unmeasured
#: packets still in flight.
_DRAINS = NetworkSpec.for_network(
    "mesh", 4, 4, rate=0.3, warmup=50, measure=100
)
#: Six dead links wedge the detoured mesh: the stall watchdog trips at
#: cycle 141 (``_STALL_AT``), in the drain, with thousands of packets
#: queued at their sources.
_WEDGED = NetworkSpec.for_network(
    "mesh", 8, 8, rate=0.8, warmup=50, measure=50, drain_limit=3000,
    fault_links=6, fault_seed=0, stall_window=100,
)
_STALL_AT = 141
#: Starves on its first cycle: nothing ejects at cycle 0.
_STARVED = NetworkSpec.for_network(
    "mesh", 8, 8, rate=0.5, warmup=200, measure=400, drain_limit=800,
    starvation_window=1,
)


class TestDrainAtTheBudget:
    def test_drain_cycle(self):
        result = build_run(_DRAINS.replace(engine="reference"))
        assert result.drained
        assert result.total_cycles == 154

    @pytest.mark.parametrize("max_cycles", [153, 154, 155])
    def test_budget_around_the_drain(self, max_cycles):
        """The budget is checked before the drain: a run that drains on
        the budget's last cycle has still run out of it."""
        got = _on_every_engine(_DRAINS.replace(max_cycles=max_cycles))
        if max_cycles <= 154:
            assert isinstance(got, SimulationTimeout)
            assert str(got) == (
                f"run exceeded its {max_cycles}-cycle budget "
                f"(6 packets still in flight)"
            )
        else:
            assert got.drained and got.total_cycles == 154


class TestWatchdogAtTheBudget:
    @pytest.mark.parametrize(
        "max_cycles", [0, 1, _STALL_AT, _STALL_AT + 1]
    )
    def test_stall(self, max_cycles):
        """A budget that ends before the tripping cycle wins; one that
        ends after it does not."""
        got = _on_every_engine(_WEDGED.replace(max_cycles=max_cycles))
        if max_cycles <= _STALL_AT:
            assert isinstance(got, SimulationTimeout)
            assert str(got).startswith(
                f"run exceeded its {max_cycles}-cycle budget "
            )
        else:
            assert isinstance(got, DeadlockError)
            assert got.snapshot.cycle == _STALL_AT

    @pytest.mark.parametrize("max_cycles", [0, 1])
    def test_starvation_on_the_first_cycle(self, max_cycles):
        """A budget is checked only after a cycle has run, so even a
        zero-cycle budget runs cycle 0, and a watchdog due there wins."""
        got = _on_every_engine(_STARVED.replace(max_cycles=max_cycles))
        assert isinstance(got, DeadlockError)
        assert got.snapshot.cycle == 0


class TestTripInEachPhase:
    @pytest.mark.parametrize(
        "warmup, measure",
        [(200, 100), (100, 100), (50, 50)],
        ids=["warmup", "measure", "drain"],
    )
    def test_watchdog(self, warmup, measure):
        got = _on_every_engine(_WEDGED.replace(warmup=warmup, measure=measure))
        assert isinstance(got, DeadlockError)
        assert got.snapshot.cycle == _STALL_AT

    @pytest.mark.parametrize(
        "warmup, measure",
        [(200, 100), (100, 100)],
        ids=["measure", "drain"],
    )
    def test_expired_wall_budget(self, warmup, measure):
        """An expired wall budget trips at the first poll, cycle 256 —
        before the stall watchdog (300 cycles) can."""
        got = _on_every_engine(
            _WEDGED.replace(
                warmup=warmup, measure=measure, stall_window=300,
                max_wall_seconds=0.0,
            )
        )
        assert isinstance(got, SimulationTimeout)
        assert str(got) == (
            "run exceeded its 0.0s wall-clock limit at cycle 256"
        )


def test_reference_error_kept_as_data_holds_no_network():
    """A failed run kept as data keeps none of its run: no frame of the
    error's traceback holds the reference ``Network``."""
    (got,) = run_compiled_batch([_STARVED.replace(engine="reference")])
    assert isinstance(got, DeadlockError)
    tb = got.__traceback__
    while tb is not None:
        held = tb.tb_frame.f_locals.values()
        assert not any(isinstance(value, Network) for value in held), (
            tb.tb_frame.f_code.co_name
        )
        tb = tb.tb_next
