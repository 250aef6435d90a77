"""Tests for fault injection, fault-aware routing, and the watchdog."""

import pytest
from hypothesis import given, strategies as st

from property.settings import tiered_settings

from repro.core.coords import Coord, Direction
from repro.core.params import NetworkConfig
from repro.core.routing import (
    FaultAwareTableRouting,
    make_fault_aware_routing,
)
from repro.core.spec import (
    NetworkSpec,
    build_network,
    build_routing,
    build_run,
    resolve_run,
)
from repro.core.topology import Topology
from repro.errors import ConfigError, DeadlockError, SimulationTimeout
from repro.sim import fastsim, faults, network
from repro.sim.fastsim import lowering_problems
from repro.sim.faults import FaultSchedule, TransientLinkFault
from repro.sim.simulator import run_synthetic
from repro.sim.watchdog import WatchdogConfig


def mesh8():
    return NetworkConfig.from_name("mesh", 8, 8)


class TestFaultSchedule:
    def test_dead_link_kills_both_directions(self):
        cfg = mesh8()
        sched = FaultSchedule(
            cfg, dead_links=[(Coord(2, 2), Direction.E)]
        )
        assert (Coord(2, 2), Direction.E) in sched.killed_channels
        assert (Coord(3, 2), Direction.W) in sched.killed_channels
        assert sched.affects_routing and sched.has_faults

    def test_nonexistent_link_rejected(self):
        cfg = mesh8()
        with pytest.raises(ConfigError):
            FaultSchedule(cfg, dead_links=[(Coord(7, 7), Direction.E)])

    def test_random_dead_links_deterministic(self):
        cfg = mesh8()
        a = FaultSchedule.random_dead_links(cfg, 4, seed=5)
        b = FaultSchedule.random_dead_links(cfg, 4, seed=5)
        assert a.dead_links == b.dead_links
        c = FaultSchedule.random_dead_links(cfg, 4, seed=6)
        assert a.dead_links != c.dead_links

    def test_dead_router_kills_adjacent_channels(self):
        cfg = mesh8()
        sched = FaultSchedule(cfg, dead_routers=[Coord(3, 3)])
        assert (Coord(3, 3), Direction.E) in sched.killed_channels
        assert (Coord(2, 3), Direction.E) in sched.killed_channels

    def test_vc_topologies_rejected_at_network(self):
        """Rerouting on VC/FBFC routers has one rule and one message:
        ``build_network`` raises what a spec run raises on both
        engines, and the analyzer still names the fallback."""
        cfg = NetworkConfig.from_name("torus", 8, 8)
        sched = FaultSchedule(
            cfg, dead_links=[(Coord(2, 2), Direction.E)]
        )
        with pytest.raises(ConfigError) as direct:
            build_network(cfg, faults=sched)
        spec = NetworkSpec.for_network(
            "torus", 8, 8, fault_links=1, warmup=5, measure=5
        )
        for engine in ("reference", "compiled"):
            with pytest.raises(ConfigError) as run:
                build_run(spec.replace(engine=engine))
            assert str(run.value) == str(direct.value)
        assert "vc-fbfc-rerouting" in [
            d.code for d in lowering_problems(spec)
        ]


#: The builtin families fault-aware routing runs on (wormhole routers,
#: no edge memory): (name, half, extra options).
_FAULT_FAMILIES = (
    ("mesh", False, {}),
    ("multimesh", False, {}),
    ("ruche1", False, {}),
    ("ruche2-depop", False, {}),
    ("ruche2-pop", True, {}),
    ("ruche3-depop", True, {}),
    ("mesh3d", False, {"depth": 3}),
)


@st.composite
def _faulted_schedules(draw):
    name, half, options = draw(st.sampled_from(_FAULT_FAMILIES))
    width = draw(st.integers(4, 7))
    height = draw(st.integers(3, 6))
    config = NetworkSpec.for_network(
        name, width, height, half=half, **options
    ).config()
    return FaultSchedule.random_mixed(
        config,
        links=draw(st.integers(0, 6)),
        routers=draw(st.integers(0, 2)),
        seed=draw(st.integers(0, 2**31 - 1)),
        degraded_model=True,
    )


@given(_faulted_schedules())
@tiered_settings(20, deadline=None)
def test_schedule_and_routing_kill_the_same_channels(sched):
    """The network leaves unwired exactly the channels the route tables
    detour around: one expansion of links and routers into channels."""
    routing = build_routing(sched.config, faults=sched)
    assert sched.killed_channels == routing.dead_links


@pytest.fixture()
def graphs_seen(monkeypatch):
    """Each port graph emitted, tabulated on and wired, by role."""
    seen = {"emitted": [], "tabulated": [], "wired": []}
    emit = Topology.port_graph
    tabulate = FaultAwareTableRouting._build_tables

    def emitting(topology):
        graph = emit(topology)
        seen["emitted"].append(graph)
        return graph

    def tabulating(routing, graph, turns):
        seen["tabulated"].append(graph)
        return tabulate(routing, graph, turns)

    def wiring_of(live_wiring):
        def wiring(graph, killed=frozenset()):
            seen["wired"].append(graph)
            return live_wiring(graph, killed)

        return wiring

    monkeypatch.setattr(Topology, "port_graph", emitting)
    monkeypatch.setattr(FaultAwareTableRouting, "_build_tables", tabulating)
    for module in (fastsim, network):
        monkeypatch.setattr(
            module, "live_wiring", wiring_of(module.live_wiring)
        )
    faults._port_graph.cache_clear()
    fastsim.clear_compile_caches()
    yield seen
    faults._port_graph.cache_clear()
    fastsim.clear_compile_caches()


@pytest.mark.parametrize("engine", ["reference", "compiled"])
class TestOneGraphPerRun:
    """A run emits its port graph once: the fault schedule is drawn on
    it, and the fault-aware tables and the wiring read that object."""

    def test_a_faulted_run_emits_one_graph(self, graphs_seen, engine):
        spec = NetworkSpec.for_network(
            "mesh", 8, 8, fault_links=3, warmup=50, measure=100,
            engine=engine,
        )
        run = resolve_run("build_run", spec)
        run.execute()
        assert graphs_seen["emitted"] == [run.faults.graph]
        assert graphs_seen["tabulated"] == [run.faults.graph]
        assert graphs_seen["wired"] == [run.faults.graph]

    def test_a_healthy_run_emits_one_graph(self, graphs_seen, engine):
        spec = NetworkSpec.for_network(
            "mesh", 8, 8, warmup=50, measure=100, engine=engine
        )
        resolve_run("build_run", spec).execute()
        (graph,) = graphs_seen["emitted"]
        assert graphs_seen["wired"] == [graph]
        assert graphs_seen["tabulated"] == []


class TestFaultAwareRouting:
    def test_healthy_tables_match_dor_hop_counts(self):
        from repro.core.routing import make_routing

        cfg = mesh8()
        table = make_fault_aware_routing(cfg)
        dor = make_routing(cfg)
        nodes = [Coord(x, y) for x in range(8) for y in range(8)]
        for src in nodes[::5]:
            for dest in nodes[::7]:
                if src == dest:
                    continue
                assert table.hop_count(src, dest) == dor.hop_count(
                    src, dest
                )

    def test_detour_avoids_dead_link(self):
        cfg = mesh8()
        dead = (Coord(3, 3), Direction.E)
        routing = make_fault_aware_routing(cfg, dead_links=[dead])
        path = routing.compute_path(Coord(0, 3), Coord(7, 3))
        assert dead not in path
        assert (Coord(4, 3), Direction.W) not in path
        assert routing.partitioned_pairs() == []

    def test_corner_cut_off_is_partitioned(self):
        cfg = mesh8()
        routing = make_fault_aware_routing(
            cfg,
            dead_links=[
                (Coord(0, 0), Direction.E),
                (Coord(0, 0), Direction.S),
            ],
        )
        pairs = routing.partitioned_pairs()
        assert len(pairs) == 2 * 63
        assert not routing.reachable(Coord(0, 0), Coord(1, 1))

    def test_dead_router_unreachable_but_rest_connected(self):
        cfg = mesh8()
        routing = make_fault_aware_routing(cfg, dead_nodes=[Coord(4, 4)])
        assert not routing.reachable(Coord(0, 0), Coord(4, 4))
        assert routing.partitioned_pairs() == []


class TestFaultedRuns:
    def test_zero_fault_schedule_is_bit_identical(self):
        cfg = mesh8()
        sched = FaultSchedule.random_dead_links(cfg, 0, seed=3)
        plain = run_synthetic(cfg, "uniform_random", 0.1,
                              warmup=100, measure=200, seed=9)
        faulted = run_synthetic(cfg, "uniform_random", 0.1,
                                warmup=100, measure=200, seed=9,
                                faults=sched)
        assert plain.avg_latency == faulted.avg_latency
        assert plain.delivered_measured == faulted.delivered_measured

    def test_dead_links_carry_no_traffic(self):
        cfg = mesh8()
        sched = FaultSchedule.random_dead_links(cfg, 4, seed=1)
        r = run_synthetic(cfg, "uniform_random", 0.1,
                          warmup=100, measure=300, seed=2,
                          faults=sched, track_links=True)
        assert r.drained
        for link in sched.killed_channels:
            assert r.metrics.link_counts.get(link, 0) == 0

    def test_dead_router_run_drains(self):
        cfg = mesh8()
        sched = FaultSchedule.random_dead_routers(cfg, 2, seed=4)
        r = run_synthetic(cfg, "uniform_random", 0.08,
                          warmup=100, measure=300, seed=2, faults=sched)
        assert r.drained
        assert r.delivered_measured > 0

    def test_transient_faults_drop_and_still_drain(self):
        cfg = mesh8()
        fault = TransientLinkFault(Coord(3, 3), Direction.E, drop_prob=1.0)
        sched = FaultSchedule(cfg, transient=[fault])
        r = run_synthetic(cfg, "uniform_random", 0.1,
                          warmup=100, measure=300, seed=2, faults=sched)
        assert r.drained
        assert r.dropped_measured > 0

    def test_degraded_model_flag_forces_table_routing(self):
        cfg = NetworkConfig.from_name("ruche2-depop", 8, 8)
        sched = FaultSchedule.random_dead_links(
            cfg, 0, seed=0, degraded_model=True
        )
        assert sched.affects_routing and not sched.has_faults
        net = build_network(cfg, faults=sched)
        assert isinstance(net.routing, FaultAwareTableRouting)

    def test_max_cycles_budget_raises_timeout(self):
        cfg = mesh8()
        with pytest.raises(SimulationTimeout):
            run_synthetic(cfg, "uniform_random", 0.05,
                          warmup=100, measure=200, max_cycles=50)

    def test_audit_every_passes_on_healthy_run(self):
        cfg = mesh8()
        r = run_synthetic(cfg, "uniform_random", 0.1,
                          warmup=50, measure=100, audit_every=25)
        assert r.drained


class TestWatchdog:
    # 6 dead links at rate 0.8 reliably wedges the detoured mesh: the
    # BFS tables use turns outside the DOR order, so a saturated load
    # closes a buffer-wait cycle the watchdog must catch.
    def test_routing_deadlock_raises_with_snapshot(self):
        cfg = mesh8()
        sched = FaultSchedule.random_dead_links(cfg, 6, seed=0)
        with pytest.raises(DeadlockError) as excinfo:
            run_synthetic(cfg, "uniform_random", 0.8,
                          warmup=2000, measure=2000, seed=1,
                          faults=sched,
                          watchdog=WatchdogConfig(stall_window=300))
        snap = excinfo.value.snapshot
        assert snap is not None
        assert snap.kind == "stall"
        assert snap.stalled_routers
        worst = snap.stalled_routers[0]
        assert worst.buffered > 0
        assert str(tuple(worst.coord)) in snap.summary()

    def test_watchdog_config_validation(self):
        with pytest.raises(ValueError):
            WatchdogConfig(stall_window=0)

    def test_healthy_saturated_run_does_not_trip(self):
        # Saturation is backpressure, not deadlock: packets keep moving.
        cfg = mesh8()
        r = run_synthetic(cfg, "uniform_random", 0.9,
                          warmup=100, measure=400, drain_limit=100,
                          watchdog=WatchdogConfig(stall_window=200))
        assert r.saturated
