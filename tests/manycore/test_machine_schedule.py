"""Which cores and endpoints a machine cycle visits must not show.

``Machine.step`` steps only cores that can act and visits only
endpoints with work (its docstring states the five rules that keep that
invisible).  The oracle here is the schedule it replaced — every core
and every endpoint, every cycle — obtained from the same ``Machine`` by
a test-only patch of one instance (:func:`make_eager`): there is no
product-side switch to flip.
"""

import pytest
from test_golden_captures import (
    CHAIN_KEYS,
    SMOKE_KEYS,
    build_machine,
    core_rows,
    digests,
    golden,
    key_id,
)

from repro.core.coords import Coord
from repro.manycore import Machine, MachineConfig
from repro.manycore.core_model import RUNNABLE, Core
from repro.manycore.memory import ServicePoint


def make_eager(machine):
    """Never let a core or an endpoint of ``machine`` sleep."""
    machine._park = lambda i, why, cycle: machine._next.append(i)
    scheduled_step = machine.step

    def step():
        machine._active_memories.update(range(len(machine._memory_list)))
        machine._active_servers.update(range(len(machine._server_list)))
        scheduled_step()

    machine.step = step
    return machine


class Visits:
    """Counts ``Core.step`` calls and endpoint visits while patched in.

    A core step is *idle* when it returns the block it returned one
    cycle earlier: the core was stepped only to charge a counter.  It
    is *nested* when a satisfied fence made it step again within the
    cycle.  An endpoint visit is *empty* when inbox and outbox both are.
    """

    def __init__(self, monkeypatch):
        self.calls = self.idle = self.nested = 0
        self.visits = self.empty = 0
        last = {}
        core_step = Core.step
        pending_response = ServicePoint.pending_response

        def step(core, cycle):
            why = core_step(core, cycle)
            self.calls += 1
            before, blocked = last.get(core, (-1, RUNNABLE))
            if before == cycle:
                self.nested += 1
            elif why != RUNNABLE and (before, blocked) == (cycle - 1, why):
                self.idle += 1
            last[core] = (cycle, why)
            return why

        def visit(point, cycle):
            self.visits += 1
            self.empty += not (point.inbox or point.outbox)
            return pending_response(point, cycle)

        monkeypatch.setattr(Core, "step", step)
        monkeypatch.setattr(ServicePoint, "pending_response", visit)


# ---------------------------------------------------------------------------
# (i) the eager loop is a degenerate schedule
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("key", SMOKE_KEYS, ids=key_id)
def test_never_sleeping_changes_nothing(key, monkeypatch):
    seen = Visits(monkeypatch)
    machine = make_eager(build_machine(key, "compiled"))
    stats = machine.run(max_cycles=400_000)
    assert digests(machine, stats) == golden()[key_id(key)]
    # It was the eager loop: each core stepped every cycle up to its
    # last, every endpoint visited every cycle, most of it for nothing.
    assert seen.calls - seen.nested == sum(
        core.stats.finish_cycle + 1 for core in machine.cores.values()
    )
    assert seen.idle > seen.calls // 4
    assert seen.visits == stats.cycles * (
        len(machine.memories) + len(machine.servers)
    )
    assert seen.empty > seen.visits // 2


# ---------------------------------------------------------------------------
# (ii) a reader mid-sleep sees settled counters
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kernel", ["jacobi", "spgemm-CA"])
def test_every_cycle_budget_cuts_where_the_eager_loop_stands(kernel):
    key = (kernel, "mesh", 8, 4, "smoke")
    machine = build_machine(key, "compiled")
    oracle = make_eager(build_machine(key, "reference"))
    budget = 0
    while not oracle.stats().completed:
        budget += 1
        oracle.step()
        cut = machine.run(max_cycles=budget)
        assert cut == oracle.stats(), budget
        assert core_rows(machine) == core_rows(oracle), budget
        assert machine.stats() == cut  # settling twice credits once
    assert cut.cycles == budget > 100 and cut.stall_barrier > 0


# ---------------------------------------------------------------------------
# (iii) barrier release is index-ordered
# ---------------------------------------------------------------------------
def hand_machine(programs, default):
    """A 4x2 machine: core ``i`` runs ``programs.get(i, default)``."""
    mcfg = MachineConfig(network="mesh", width=4, height=2)
    workload = {
        coord: iter(programs.get(i, default))
        for i, coord in enumerate(mcfg.compute_coords())
    }
    return Machine(mcfg, workload)


def per_core(machine, name):
    return [getattr(core.stats, name) for core in machine.cores.values()]


def test_last_arriver_in_the_middle_releases_by_index():
    """Core 3 computes for cycles 0-4 and arrives last, in cycle 5.
    Cores 4-7 are stepped after it in cycle 5 and run on at once; cores
    0-2 were already charged a barrier stall for cycle 5 and, like the
    releaser, run on in cycle 6."""
    late = [("compute", 5), ("barrier",), ("compute", 1)]
    prompt = [("barrier",), ("compute", 1)]
    machine = hand_machine({3: late}, prompt)
    stats = machine.run()
    assert stats.completed and stats.cycles == 8
    assert per_core(machine, "stall_barrier") == [6, 6, 6, 1, 5, 5, 5, 5]
    assert per_core(machine, "finish_cycle") == [7, 7, 7, 7, 6, 6, 6, 6]
    assert per_core(machine, "instructions") == [1, 1, 1, 6, 1, 1, 1, 1]
    oracle = make_eager(hand_machine({3: late}, prompt))
    assert oracle.run() == stats
    assert core_rows(oracle) == core_rows(machine)


def test_a_finishing_core_releases_by_index_too():
    """Core 3 never arrives: it finishes in cycle 3, which releases the
    other seven — 4-7 in cycle 3, 0-2 in cycle 4."""
    prompt = [("barrier",), ("compute", 1)]
    machine = hand_machine({3: [("compute", 3)]}, prompt)
    stats = machine.run()
    assert stats.completed and stats.cycles == 6
    assert per_core(machine, "stall_barrier") == [4, 4, 4, 0, 3, 3, 3, 3]
    assert per_core(machine, "finish_cycle") == [5, 5, 5, 3, 4, 4, 4, 4]
    oracle = make_eager(hand_machine({3: [("compute", 3)]}, prompt))
    assert oracle.run() == stats
    assert core_rows(oracle) == core_rows(machine)


# ---------------------------------------------------------------------------
# (iv) a sleeping core still makes progress
# ---------------------------------------------------------------------------
def test_a_long_compute_does_not_trip_the_progress_guard():
    """The guard reads instruction counts, which a busy sleeper only
    gets when it is settled."""
    machine = hand_machine({0: [("compute", 50)]}, [])
    stats = machine.run(progress_window=10)
    assert stats.completed and stats.cycles == 51
    assert stats.instructions == stats.compute_cycles == 50


# ---------------------------------------------------------------------------
# (v) only what can act is stepped
# ---------------------------------------------------------------------------
def test_the_benchmark_chain_steps_only_what_acts(monkeypatch):
    """777 013 ``Core.step`` calls before cores slept, 28 299 of which
    did anything — issue, retire, arrive, finish, find the source queue
    full, or meet the block that puts the core to sleep."""
    seen = Visits(monkeypatch)
    for key in CHAIN_KEYS:
        machine = build_machine(key, "compiled")
        assert machine.run(max_cycles=400_000).completed
    assert seen.calls <= 35_000
    assert seen.calls <= 1.2 * (seen.calls - seen.idle)
    assert seen.visits <= 1.2 * (seen.visits - seen.empty)


def test_a_parked_core_is_not_stepped(monkeypatch):
    """The schedule in the small: one load, then the drain."""
    machine = hand_machine({0: [("load", 0)]}, [])
    core = machine.cores[Coord(0, 0)]
    stepped = []
    core_step = Core.step

    def step(self, cycle):
        if self is core:
            stepped.append(cycle)
        return core_step(self, cycle)

    monkeypatch.setattr(Core, "step", step)
    stats = machine.run()
    # Issue, meet the drain, sleep until the response, finish.
    assert stepped == [0, 1, core.stats.finish_cycle]
    assert stats.stall_mem == core.stats.finish_cycle - 1 > 1
