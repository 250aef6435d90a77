"""Network-level tests: delivery, latency semantics, flow control,
deadlock freedom, edge-memory endpoints."""

import pytest
from hypothesis import given, strategies as st

from property.settings import tiered_settings

from repro.core.coords import Coord, Direction
from repro.core.params import NetworkConfig
from repro.core.routing import make_routing
from repro.core.spec import build_network
from repro.sim.rng import derive_rng

ALL_NAMES = [
    "mesh", "torus", "half-torus", "multimesh", "ruche1",
    "ruche2-depop", "ruche2-pop", "ruche3-depop", "ruche3-pop",
]


def net_for(name, w=8, h=8, **kw):
    half = name == "half-torus"
    return build_network(NetworkConfig.from_name(name, w, h, half=half, **kw))


class TestSinglePacket:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_latency_equals_hop_count_at_zero_load(self, name):
        net = net_for(name)
        src, dest = Coord(1, 2), Coord(6, 5)
        expected = make_routing(net.config).hop_count(src, dest)
        net.inject(src, dest, measured=True)
        assert net.drain(200)
        stats = net.metrics.measured
        assert stats.count == 1
        assert stats.mean == expected

    def test_packet_hops_recorded(self):
        net = net_for("mesh")
        pkt = net.inject(Coord(0, 0), Coord(3, 0), measured=True)
        net.drain(100)
        assert pkt.hops == 3

    def test_self_send_delivers_via_p_loopback(self):
        net = net_for("mesh")
        net.inject(Coord(2, 2), Coord(2, 2), measured=True)
        assert net.drain(50)
        assert net.metrics.measured.count == 1


class TestConservation:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_injected_packet_is_delivered_exactly_once(self, name):
        net = net_for(name)
        rng = derive_rng(3, name)
        nodes = list(net.routers)
        n_pkts = 300
        for _ in range(n_pkts):
            src = nodes[rng.randrange(len(nodes))]
            dest = nodes[rng.randrange(len(nodes))]
            net.inject(src, dest, measured=True)
        assert net.drain(3000)
        assert net.metrics.measured.count == n_pkts
        assert net.metrics.delivered_total == n_pkts
        assert net.occupancy == 0

    @given(st.integers(0, 2**32 - 1))
    @tiered_settings(12, deadline=None)
    def test_random_burst_conservation_property(self, seed):
        rng = derive_rng(seed, "burst")
        name = ALL_NAMES[seed % len(ALL_NAMES)]
        net = net_for(name, 6, 6)
        nodes = list(net.routers)
        count = rng.randrange(1, 120)
        for _ in range(count):
            net.inject(
                nodes[rng.randrange(len(nodes))],
                nodes[rng.randrange(len(nodes))],
                measured=True,
            )
        assert net.drain(4000)
        assert net.metrics.measured.count == count


class TestFlowControl:
    def test_fifo_depth_never_exceeded(self):
        """Saturating a single column must never overflow any FIFO
        (Fifo.append raises if flow control breaks)."""
        net = net_for("mesh", 6, 6)
        for t in range(200):
            for y in range(6):
                net.inject(Coord(0, y), Coord(5, y))
            net.step()
        # If we got here, no OverflowError fired.
        assert net.occupancy > 0
        assert net.drain(5000)

    def test_source_queue_len_visible(self):
        net = net_for("mesh", 4, 4)
        for _ in range(5):
            net.inject(Coord(0, 0), Coord(3, 3))
        assert net.source_queue_len(Coord(0, 0)) == 5
        net.step()
        assert net.source_queue_len(Coord(0, 0)) == 4


class TestTorusDeadlockFreedom:
    """The dateline VC scheme must survive adversarial saturation."""

    @pytest.mark.parametrize("pattern_shift", [1, 3, 4])
    def test_ring_saturation_drains(self, pattern_shift):
        net = net_for("torus", 8, 8)
        rng = derive_rng(11, "ddl")
        for t in range(300):
            for node in list(net.routers):
                if rng.random() < 0.5:
                    dest = Coord(
                        (node.x + pattern_shift) % 8,
                        (node.y + pattern_shift) % 8,
                    )
                    if dest != node:
                        net.inject(node, dest)
            net.step()
        assert net.drain(20000)

    def test_half_torus_tornado_drains(self):
        net = net_for("half-torus", 16, 8)
        for t in range(200):
            for node in list(net.routers):
                dest = Coord((node.x + 7) % 16, node.y)
                net.inject(node, dest)
            net.step()
        assert net.drain(60000)


class TestEdgeMemory:
    def test_packets_reach_memory_sinks(self):
        net = net_for("mesh", 8, 4, edge_memory=True)
        net.inject(Coord(3, 2), Coord(6, -1), measured=True)
        net.inject(Coord(3, 2), Coord(0, 4), measured=True)
        assert net.drain(200)
        assert net.metrics.measured.count == 2

    def test_memory_can_inject_responses_on_yx_network(self):
        """Responses travel Y-X (Section 4): the X-Y crossbar has no
        N-input -> E-output connection, so memory-sourced traffic rides a
        second network with the swapped dimension order."""
        from repro.core.params import DorOrder

        net = net_for("mesh", 8, 4, edge_memory=True, dor_order=DorOrder.YX)
        ok = net.try_inject_from_memory(Coord(2, -1), Coord(5, 3), measured=True)
        assert ok
        assert net.drain(200)
        assert net.metrics.measured.count == 1

    def test_memory_injection_backpressure(self):
        """When the edge FIFO is full, memory injection must fail."""
        cfg = NetworkConfig.from_name("mesh", 4, 4, edge_memory=True)
        net = build_network(cfg)
        mem = Coord(1, -1)
        accepted = 0
        for _ in range(10):
            if net.try_inject_from_memory(mem, Coord(1, 3)):
                accepted += 1
        assert accepted == cfg.fifo_depth  # no steps taken: FIFO capacity
        assert net.memory_entry_space(mem) == 0
        net.step()
        assert net.memory_entry_space(mem) > 0

    def test_vertical_ruche_rejects_edge_memory(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            NetworkConfig.from_name("ruche2-depop", 16, 8, edge_memory=True)
        with pytest.raises(ConfigError):
            NetworkConfig.from_name("multimesh", 16, 8, edge_memory=True)

    def test_half_ruche_memory_traffic(self):
        net = build_network(
            NetworkConfig.from_name(
                "ruche3-depop", 16, 8, half=True, edge_memory=True
            )
        )
        rng = derive_rng(5, "mem")
        for _ in range(200):
            src = Coord(rng.randrange(16), rng.randrange(8))
            dest = Coord(rng.randrange(16), -1 if rng.random() < 0.5 else 8)
            net.inject(src, dest, measured=True)
        assert net.drain(4000)
        assert net.metrics.measured.count == 200


def _half(name):
    return name == "half-torus"


class TestHopAccounting:
    def test_direction_counters_match_packet_hops(self):
        net = net_for("ruche2-pop")
        rng = derive_rng(9, "hops")
        nodes = list(net.routers)
        pkts = []
        for _ in range(150):
            pkts.append(
                net.inject(
                    nodes[rng.randrange(len(nodes))],
                    nodes[rng.randrange(len(nodes))],
                    measured=True,
                )
            )
        assert net.drain(4000)
        assert sum(net.metrics.hop_counts) == sum(p.hops for p in pkts)

    def test_ruche_directions_used(self):
        net = net_for("ruche3-pop")
        net.inject(Coord(0, 0), Coord(7, 7))
        net.drain(100)
        assert net.metrics.hop_counts[int(Direction.RE)] > 0
        assert net.metrics.hop_counts[int(Direction.RS)] > 0
