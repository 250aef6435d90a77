"""Unit tests for the core state machine and memory-side endpoints."""

import pytest

from repro.core.coords import Coord
from repro.manycore.core_model import (
    BARRIER,
    BUSY,
    DONE,
    DRAIN,
    RUNNABLE,
    WINDOW,
    Core,
    Request,
)
from repro.manycore.memory import MemoryTile, ScratchpadServer
from repro.sim.packet import Packet


class FakeMachine:
    """Minimal machine stub for isolated core tests."""

    def __init__(self, window=2, accept=True):
        class Cfg:
            pass

        self.config = Cfg()
        self.config.window = window
        self.config.height = 4
        self._accept = accept
        self.issued = []
        self.finished = 0
        self.resolved = 0

    def llc_coord(self, addr):
        self.resolved += 1
        return Coord(addr % 4, -1)

    def try_issue(self, core, kind, dest, cycle):
        if not self._accept:
            return False
        self.issued.append((kind, dest, cycle))
        return True

    def barrier_arrive(self, core):
        pass

    def barrier_released(self, core):
        return True

    def core_finished(self):
        self.finished += 1


def make_core(ops, machine=None):
    machine = machine or FakeMachine()
    return Core(Coord(0, 0), iter(ops), machine), machine


class TestCore:
    def test_compute_busy_for_n_cycles(self):
        core, m = make_core([("compute", 3)])
        for cycle in range(3):
            core.step(cycle)
            assert not core.done
        assert core.stats.compute_cycles == 3
        core.step(3)
        assert core.done
        assert m.finished == 1

    def test_load_issues_and_occupies_window(self):
        core, m = make_core([("load", 7)])
        core.step(0)
        assert m.issued == [("load", Coord(3, -1), 0)]
        assert core.outstanding == 1

    def test_window_full_stalls(self):
        core, m = make_core([("load", i) for i in range(4)],
                            FakeMachine(window=2))
        core.step(0)
        core.step(1)
        assert core.outstanding == 2
        core.step(2)
        assert core.outstanding == 2  # stalled
        assert core.stats.stall_mem == 1

    def test_network_backpressure_counts_stall_net(self):
        core, m = make_core([("load", 1)], FakeMachine(accept=False))
        core.step(0)
        core.step(1)
        assert core.stats.stall_net == 2
        assert core.outstanding == 0

    def test_fence_waits_for_responses(self):
        core, m = make_core([("load", 1), ("fence",), ("compute", 1)])
        core.step(0)  # issue load
        core.step(1)  # fence: blocked
        assert core.stats.stall_mem == 1
        core.receive(Request("load", Coord(0, 0), 0, 4), 5)
        core.step(6)  # fence clears, same-cycle fallthrough to compute
        assert core.stats.compute_cycles >= 1

    def test_tload_targets_tile(self):
        core, m = make_core([("tload", (2, 3), 9)])
        core.step(0)
        assert m.issued == [("load", Coord(2, 3), 0)]

    def test_drains_outstanding_before_done(self):
        core, m = make_core([("load", 1)])
        core.step(0)
        core.step(1)
        assert not core.done
        core.receive(Request("load", Coord(0, 0), 0, 4), 2)
        core.step(3)
        assert core.done

    def test_latency_accounting(self):
        core, m = make_core([])
        req = Request("load", Coord(0, 0), issue_cycle=10, intrinsic=6)
        core.outstanding = 1
        core.receive(req, 25)
        assert core.stats.latency_total == 15
        assert core.stats.intrinsic_total == 6

    def test_unknown_op_raises(self):
        core, m = make_core([("teleport", 1)])
        with pytest.raises(ValueError):
            core.step(0)


class TestWhyACoreCannotProceed:
    """``step`` reports the block; a scheduler may skip such steps."""

    def test_compute_reports_busy_only_while_it_is(self):
        core, m = make_core([("compute", 3), ("compute", 1)])
        assert [core.step(c) for c in range(3)] == [BUSY, BUSY, BUSY]
        assert core.busy_until == 3
        assert core.step(3) == RUNNABLE  # one cycle: nothing to wait for
        assert core.step(4) == DONE and core.step(5) == DONE

    def test_window_fence_and_drain(self):
        ops = [("load", 0), ("load", 1), ("fence",), ("load", 2)]
        core, m = make_core(ops, FakeMachine(window=1))
        assert core.step(0) == RUNNABLE
        assert core.step(1) == WINDOW
        core.receive(Request("load", Coord(0, 0), 0, 4), 2)
        assert core.step(2) == RUNNABLE
        assert core.step(3) == DRAIN  # the fence
        core.receive(Request("load", Coord(0, 0), 2, 4), 4)
        assert core.step(4) == RUNNABLE  # fence retired, load issued
        assert core.step(5) == DRAIN  # nothing left but the response
        assert core.stats.stall_mem == 3

    def test_net_stall_is_runnable(self):
        core, m = make_core([("load", 1)], FakeMachine(accept=False))
        assert core.step(0) == RUNNABLE
        assert core.stats.stall_net == 1

    def test_barrier_until_the_machine_lets_go(self):
        core, m = make_core([("barrier",), ("compute", 1)])
        assert [core.step(c) for c in range(3)] == [BARRIER] * 3
        assert core.stats.stall_barrier == 3
        core.leave_barrier()
        assert core.step(3) == RUNNABLE
        assert core.stats.compute_cycles == 1

    def test_an_arrival_that_releases_reports_runnable(self):
        class LastArriver(FakeMachine):
            def barrier_arrive(self, core):
                core.leave_barrier()

        core, m = make_core([("barrier",)], LastArriver())
        assert core.step(0) == RUNNABLE
        assert core.stats.stall_barrier == 1
        assert core.step(1) == DONE

    @pytest.mark.parametrize(
        "ops, blocked_at",
        [
            ([("compute", 9)], 0),
            ([("load", 0), ("load", 1), ("load", 2)], 2),
            ([("load", 0), ("fence",)], 1),
            ([("barrier",)], 0),
        ],
    )
    def test_skip_adds_what_the_skipped_steps_would(self, ops, blocked_at):
        def counters(core):
            return tuple(
                getattr(core.stats, name) for name in core.stats.__slots__
            )

        stepped, _ = make_core(ops)
        skipped, _ = make_core(ops)
        for cycle in range(blocked_at + 1):
            stepped.step(cycle)
            why = skipped.step(cycle)
        assert why not in (RUNNABLE, DONE)
        for cycle in range(blocked_at + 1, blocked_at + 5):
            assert stepped.step(cycle) == why
        skipped.skip(why, 4)
        assert counters(skipped) == counters(stepped)

    def test_destination_is_resolved_once_however_often_retried(self):
        core, m = make_core(
            [("load", 7), ("load", 7)], FakeMachine(window=1, accept=False)
        )
        for cycle in range(5):
            core.step(cycle)
        assert core.stats.stall_net == 5 and m.resolved == 1


def mem_packet(kind="load"):
    req = Request(kind, Coord(0, 0), 0, 4)
    return Packet(0, Coord(0, 0), Coord(1, -1), 0, payload=req)


class TestMemoryTile:
    def test_serves_one_per_cycle_with_latency(self):
        mem = MemoryTile(Coord(1, -1), capacity=4, mem_latency=2,
                         amo_service=4)
        mem.deliver(mem_packet(), 0)
        mem.serve(0)
        assert mem.pending_response(1) is None
        assert mem.pending_response(2) is not None

    def test_amo_occupies_bank(self):
        mem = MemoryTile(Coord(1, -1), capacity=4, mem_latency=2,
                         amo_service=4)
        mem.deliver(mem_packet("amo"), 0)
        mem.deliver(mem_packet("load"), 0)
        mem.serve(0)       # amo: busy until cycle 4
        mem.serve(1)
        assert len(mem.inbox) == 1  # load still queued behind the amo
        mem.serve(4)
        assert len(mem.inbox) == 0

    def test_backpressure_when_inbox_full(self):
        mem = MemoryTile(Coord(1, -1), capacity=2, mem_latency=1,
                         amo_service=2)
        mem.deliver(mem_packet(), 0)
        mem.deliver(mem_packet(), 0)
        assert not mem.ready()

    def test_every_delivery_tells_whoever_schedules_the_endpoint(self):
        woken = []
        mem = MemoryTile(Coord(1, -1), capacity=4, mem_latency=1,
                         amo_service=2, on_deliver=lambda: woken.append(1))
        srv = ScratchpadServer(Coord(2, 2), capacity=2,
                               on_deliver=lambda: woken.append(2))
        mem.deliver(mem_packet(), 0)
        srv.deliver(mem_packet(), 0)
        mem.deliver(mem_packet(), 1)
        assert woken == [1, 2, 1]

    def test_served_counter(self):
        mem = MemoryTile(Coord(1, -1), capacity=4, mem_latency=1,
                         amo_service=2)
        for _ in range(3):
            mem.deliver(mem_packet(), 0)
        for cycle in range(5):
            mem.serve(cycle)
        assert mem.served == 3


class TestScratchpadServer:
    def test_single_cycle_service(self):
        srv = ScratchpadServer(Coord(2, 2), capacity=2)
        srv.deliver(mem_packet(), 0)
        srv.serve(0)
        assert srv.pending_response(1) is not None
        assert srv.pop_response() is not None
        assert not srv.outbox
