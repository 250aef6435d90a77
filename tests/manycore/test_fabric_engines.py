"""The manycore's two networks on either engine: bit-identical.

``Machine(engine="compiled")`` steps its request and response networks
as :class:`~repro.sim.fastsim.CompiledFabric`\\ s — the native kernel, a
cycle per call, endpoints gating its sinks through ready words —
``engine="reference"`` as the :class:`~repro.sim.network.Network` pair
that is the oracle.  Every statistic and every captured trace byte must
agree, on every fabric a ``MachineConfig`` admits (wormhole, FBFC and
VC routers), under every endpoint backpressure the model can produce;
and the fabric alone, driven by a script, must trip the watchdog and
wake a blocked router exactly as the reference does.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from property.settings import tiered_settings

from repro.core.coords import Coord
from repro.core.params import DorOrder, NetworkConfig
from repro.core.spec import build_network, build_routing
from repro.errors import ConfigError, DeadlockError
from repro.experiments.manycore_runs import kernel_params, suite_for
from repro.manycore import Machine, MachineConfig, build_workload
from repro.sim import _ckernel, fastsim
from repro.sim.network import Network
from repro.sim.router import Sink
from repro.sim.trace import TraceRecorder
from repro.sim.watchdog import WatchdogConfig

REPO_ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    fastsim._native_kernel() is None,
    reason="no native kernel: every machine runs on reference",
)

#: One fabric per router kind and row class the lowering tells apart:
#: wormhole (one row class), VC, FBFC, depopulated Ruche (three row
#: classes, in-port-dependent second axis), populated Ruche.
FABRICS = (
    "mesh", "half-torus", "half-torus-fbfc", "ruche2-depop", "ruche3-pop",
)
KERNELS = (*suite_for("smoke"), "sgemm", "fft", "bh")


def capture(mcfg, kernel, engine, **params):
    """One run: (machine, stats dict, fwd bytes, rev bytes).

    A machine whose network deadlocks (FBFC with one-slot FIFOs can
    never spare the bubble) reports the error and the cycle instead of
    its stats: the engines must agree on that too.
    """
    workload = build_workload(kernel, mcfg, **params)
    machine = Machine(
        mcfg, workload, recorder=TraceRecorder(), engine=engine
    )
    try:
        outcome = dataclasses.asdict(machine.run(max_cycles=400_000))
    except DeadlockError as exc:
        outcome = {"deadlock": str(exc), "cycle": machine.cycle}
    traces = machine.finalize_traces()
    return (
        machine,
        outcome,
        traces["fwd"].to_bytes(),
        traces["rev"].to_bytes(),
    )


# ---------------------------------------------------------------------------
# (i) kernel x fabric
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("network", FABRICS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_on_fabric_is_engine_independent(kernel, network):
    mcfg = MachineConfig(network=network, width=8, height=4)
    params = kernel_params(kernel, "smoke")
    machine, *compiled = capture(mcfg, kernel, "compiled", **params)
    oracle, *reference = capture(mcfg, kernel, "reference", **params)
    assert machine.engine == "compiled" and machine.fallback == []
    assert oracle.engine == "reference" and oracle.fallback == []
    assert isinstance(machine.fwd, fastsim.CompiledFabric)
    assert isinstance(oracle.rev, Network)
    assert compiled[0]["completed"]
    assert compiled == reference


@pytest.mark.parametrize("network", ["ruche2-depop", "half-torus"])
def test_one_cycle_blocks_cross_record_growth(network, monkeypatch):
    """Packet records start small and double whenever a block stops for
    room; a fabric re-enters the same cycle's block, offers and all.
    Slots freed at ejection are taken again, so the records follow the
    most packets a fabric held at once, not the packets it carried."""
    monkeypatch.setattr(fastsim, "_PK_CAP0", 8)
    peak = {}
    kernel = fastsim._native_kernel()

    class Spy:  # the packets each fabric holds after every cycle
        hop_count = kernel.hop_count

        @staticmethod
        def run_block(cref):
            stop = kernel.run_block(cref)
            ctx = cref._obj
            peak[id(ctx)] = max(
                peak.get(id(ctx), 0), ctx.st[_ckernel.ST_OCC]
            )
            return stop

    monkeypatch.setattr(fastsim, "_native_kernel", lambda: Spy)
    mcfg = MachineConfig(network=network, width=8, height=4)
    params = kernel_params("jacobi", "smoke")
    machine, *compiled = capture(mcfg, "jacobi", "compiled", **params)
    _oracle, *reference = capture(mcfg, "jacobi", "reference", **params)
    assert compiled == reference
    for fabric in (machine.fwd, machine.rev):
        cap, nd = fabric.ctx.pk_cap, fabric.model.nd
        assert 8 < cap <= max(8, 2 * (peak[id(fabric.ctx)] + nd))
        assert cap < fabric.st[_ckernel.ST_NPK]


# ---------------------------------------------------------------------------
# (ii) endpoint backpressure, generated
# ---------------------------------------------------------------------------
@tiered_settings(12, deadline=None)
@given(
    network=st.sampled_from(FABRICS),
    kernel=st.sampled_from(("spgemm-CA", "sgemm", "jacobi")),
    window=st.integers(1, 8),
    inbox_capacity=st.integers(1, 4),
    fifo_depth=st.integers(1, 4),
    mem_latency=st.integers(1, 6),
    amo_service=st.integers(1, 8),
)
def test_backpressured_machines_are_engine_independent(
    network, kernel, window, inbox_capacity, fifo_depth, mem_latency,
    amo_service,
):
    """Windows, inboxes, FIFOs and bank timings move where and how hard
    endpoints push back — gated sinks, refused memory offers, full
    source queues — and none of it may tell the engines apart."""
    mcfg = MachineConfig(
        network=network, width=4, height=4, window=window,
        inbox_capacity=inbox_capacity, fifo_depth=fifo_depth,
        mem_latency=mem_latency, amo_service=amo_service,
    )
    params = kernel_params(kernel, "smoke")
    machine, *compiled = capture(mcfg, kernel, "compiled", **params)
    _oracle, *reference = capture(mcfg, kernel, "reference", **params)
    assert machine.engine == "compiled"
    assert compiled == reference
    # Only a run that pushed back somewhere counts as an example (about
    # two in three do): a full source queue, a sink left not ready, a
    # refused memory offer, or a network backed up solid.
    assume(
        "deadlock" in compiled[0]
        or compiled[0]["stall_net"] > 0
        or machine.fwd.sink_stalls + machine.rev.sink_stalls > 0
        or machine.fwd.refusals + machine.rev.refusals > 0
    )


# ---------------------------------------------------------------------------
# (iii) the fabric alone, scripted against the reference network
# ---------------------------------------------------------------------------
class _ToggleSink(Sink):
    """A gated sink the test opens and closes; logs what it is handed."""

    __slots__ = ("open", "log")

    def __init__(self, is_open, log):
        self.open = is_open
        self.log = log

    def ready(self):
        return self.open

    def deliver(self, pkt, cycle):
        self.log.append((cycle, pkt.pid, tuple(pkt.dest), pkt.payload))


def _edge_config(name, order=DorOrder.XY):
    return NetworkConfig.from_name(
        name, 4, 2, half=name.startswith("ruche"), edge_memory=True,
        dor_order=order,
    )


def _build(kind, config, is_open, watchdog=None):
    """A network of ``config`` on either engine, all sinks toggles."""
    log, sinks = [], {}

    def sink(coord):
        return sinks.setdefault(coord, _ToggleSink(is_open, log))

    maker = fastsim.CompiledFabric if kind == "compiled" else build_network
    net = maker(
        config, sink_factory=sink, memory_sink_factory=sink,
        watchdog=watchdog,
    )
    return net, sinks, log


@pytest.mark.parametrize("name", ["mesh", "half-torus", "half-torus-fbfc"])
def test_never_ready_sinks_trip_the_watchdog_like_the_reference(name):
    """Sinks that never open back the network up until nothing moves:
    same trip cycle, same message, same snapshot — heads blocked on
    ``sink backpressure`` included — on a wormhole, a VC and an FBFC
    fabric, with packets waiting in injection, ring and entry queues."""
    outcomes = {}
    for order in (DorOrder.XY, DorOrder.YX):
        config = _edge_config(name, order)
        memory = [Coord(x, y) for y in (-1, 2) for x in range(4)]
        tiles = [Coord(x, y) for y in range(2) for x in range(4)]
        for kind in ("reference", "compiled"):
            net, _sinks, log = _build(
                kind, config, False, WatchdogConfig(stall_window=17)
            )
            accepted = []
            with pytest.raises(DeadlockError) as tripped:
                for cycle in range(400):
                    if cycle < 5:
                        for k, src in enumerate(tiles):
                            net.inject(
                                src, (memory + tiles)[(3 * k + cycle) % 16]
                            )
                        # Y-X only: the X-Y crossbar turns no memory
                        # arrival toward another column.
                        if order is DorOrder.YX:
                            for k, mem in enumerate(memory):
                                accepted.append(
                                    net.try_inject_from_memory(
                                        mem, tiles[(k + cycle) % 8]
                                    )
                                )
                    net.step()
            assert log == []
            outcomes[order, kind] = (
                net.cycle, net.occupancy, accepted,
                str(tripped.value), tripped.value.snapshot,
            )
        assert outcomes[order, "compiled"] == outcomes[order, "reference"]
        assert "sink backpressure" in repr(outcomes[order, "compiled"][4])
    refused = outcomes[DorOrder.YX, "compiled"][2]
    assert True in refused and False in refused


@pytest.mark.parametrize("name", ["mesh", "half-torus", "half-torus-fbfc"])
def test_a_blocked_router_resumes_the_cycle_its_sink_opens(name):
    """One packet per closed sink and nothing else in flight: every
    router goes quiet (``step_vc`` stops looking at a clean one).  Each
    sink opening must be seen that very cycle — drop the fabric's
    ``dirty[]`` wake-up and the VC case never delivers."""
    config = _edge_config(name)
    # Disjoint one- and two-hop paths, so nothing waits behind anything:
    # a tile's P sink, a north and a south memory sink.
    flows = [
        (Coord(2, 0), Coord(2, 1)),
        (Coord(1, 0), Coord(1, -1)),
        (Coord(3, 1), Coord(3, 2)),
    ]
    opens = {30: flows[0][1], 41: flows[1][1], 42: flows[2][1]}
    logs = {}
    for kind in ("reference", "compiled"):
        net, sinks, log = _build(kind, config, False)
        for k, (src, dest) in enumerate(flows):
            net.inject(src, dest, payload=k)
        for cycle in range(60):
            if cycle in opens:
                sinks[opens[cycle]].open = True
            net.step()
        assert net.occupancy == 0
        logs[kind] = log
    assert logs["compiled"] == logs["reference"]
    assert [cycle for cycle, *_ in logs["compiled"]] == sorted(opens)


def test_an_endpoint_that_offers_twice_a_cycle_is_an_error():
    """The fabric reads ``qlen[]`` after the step and trusts one offer
    per source per cycle; breaking that is reported, not absorbed."""
    from repro.errors import SimulationError

    config = _edge_config("mesh", DorOrder.YX)
    net, _sinks, _log = _build("compiled", config, True)
    mem, dest = Coord(1, -1), Coord(1, 1)
    for _ in range(config.fifo_depth + 1):
        assert net.try_inject_from_memory(mem, dest)
    with pytest.raises(SimulationError, match="refused an offer"):
        net.step()


# ---------------------------------------------------------------------------
# Hop counts off the lowered tables
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("network", FABRICS)
def test_table_hop_counts_equal_the_routing_walk(network):
    """``intrinsic_latency`` asks the fabric, which walks the rows and
    ``dn`` the kernel steps; ``routing.hop_count`` walks the algorithm.
    Every tile x (tile or endpoint) pair, requests forward on the X-Y
    network, responses back on the Y-X one."""
    mcfg = MachineConfig(network=network, width=8, height=4)
    machine = Machine(mcfg, {})
    assert machine.engine == "compiled"
    fwd_routing = build_routing(mcfg.forward_config)
    rev_routing = build_routing(mcfg.reverse_config)
    tiles = mcfg.compute_coords()
    for src in tiles:
        for dest in tiles + mcfg.memory_coords():
            assert machine.fwd.hop_count(src, dest) == (
                fwd_routing.hop_count(src, dest)
            ), (src, dest)
            assert machine.rev.hop_count(dest, src) == (
                rev_routing.hop_count(dest, src)
            ), (dest, src)


# ---------------------------------------------------------------------------
# Engine selection and fallback
# ---------------------------------------------------------------------------
def test_unknown_engine_is_a_config_error():
    mcfg = MachineConfig(network="mesh", width=4, height=2)
    with pytest.raises(ConfigError, match="engine"):
        Machine(mcfg, {}, engine="fast")


_NO_KERNEL_SCRIPT = """
import dataclasses, json
import repro.manycore as manycore

made = []

class Spy(manycore.Machine):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        made.append(self)

manycore.Machine = Spy
stats = manycore.run_benchmark("jacobi", "ruche2-depop", 8, 4)
(machine,) = made
print(json.dumps({
    "stats": dataclasses.asdict(stats),
    "engine": machine.engine,
    "fallback": [problem.code for problem in machine.fallback],
}))
"""


def test_without_the_kernel_the_machine_runs_on_reference_and_says_so():
    """``get_kernel`` caches per process, hence the subprocess."""
    from repro.manycore import run_benchmark

    env = dict(os.environ, REPRO_NO_CKERNEL="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", _NO_KERNEL_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(done.stdout)
    assert report["engine"] == "reference"
    assert report["fallback"] == ["no-native-kernel"]
    here = run_benchmark("jacobi", "ruche2-depop", 8, 4)
    assert report["stats"] == dataclasses.asdict(here)


def test_run_entries_record_the_engine():
    from repro.experiments import manycore_runs

    entry = manycore_runs.run_entry("jacobi", "mesh", 8, 4, "smoke")
    assert (entry.engine, entry.fallback) == ("compiled", [])
