"""Tests for pipelined credited channels and FBFC torus flow control."""

import pytest

from repro.core.coords import Coord, Direction
from repro.core.params import NetworkConfig
from repro.core.spec import build_network
from repro.errors import ConfigError
from repro.sim.channel import PipelinedChannel
from repro.sim.packet import Packet
from repro.sim.rng import derive_rng
from repro.sim.simulator import run_synthetic


def make_packet(pid=0):
    return Packet(pid, Coord(0, 0), Coord(1, 0), 0)


class TestPipelinedChannelUnit:
    def test_delivery_after_latency(self):
        ch = PipelinedChannel(latency=3, depth=2)
        ch.send(make_packet(), cycle=10)
        assert list(ch.deliveries(12)) == []
        out = list(ch.deliveries(13))
        assert len(out) == 1 and out[0][1] == 0

    def test_credits_bound_inflight(self):
        ch = PipelinedChannel(latency=2, depth=2)
        ch.send(make_packet(0), 0)
        ch.send(make_packet(1), 0)
        assert not ch.can_send()
        with pytest.raises(OverflowError):
            ch.send(make_packet(2), 0)

    def test_credit_return_matures_after_latency(self):
        ch = PipelinedChannel(latency=2, depth=1)
        ch.send(make_packet(), 0)
        assert not ch.can_send()
        ch.credit_return(cycle=3)
        list(ch.deliveries(4))
        assert not ch.can_send()
        list(ch.deliveries(5))  # credit matures at 3 + 2
        assert ch.can_send()

    def test_per_lane_credits(self):
        ch = PipelinedChannel(latency=1, depth=1, num_lanes=2)
        ch.send(make_packet(), 0, lane=0)
        assert not ch.can_send(0)
        assert ch.can_send(1)

    def test_invalid_latency(self):
        with pytest.raises(ValueError):
            PipelinedChannel(latency=0, depth=2)


class TestPipelinedNetwork:
    def test_zero_load_latency_scales_with_channel_latency(self):
        base = NetworkConfig.from_name("mesh", 8, 8)
        piped = NetworkConfig.from_name("mesh", 8, 8, channel_latency=2)
        lat1 = run_synthetic(base, "uniform_random", 0.02,
                             warmup=100, measure=300).avg_latency
        lat2 = run_synthetic(piped, "uniform_random", 0.02,
                             warmup=100, measure=300).avg_latency
        assert lat2 == pytest.approx(2 * lat1, rel=0.1)

    def test_credit_return_limits_shallow_fifos(self):
        """The paper's Section 3.2 rule: FIFO capacity must grow with the
        credit round trip or throughput collapses."""

        def sat(depth):
            cfg = NetworkConfig.from_name(
                "mesh", 8, 8, channel_latency=2, fifo_depth=depth
            )
            return run_synthetic(cfg, "uniform_random", 0.6,
                                 warmup=200, measure=400,
                                 drain_limit=0).accepted_throughput

        assert sat(4) > 1.5 * sat(2)

    def test_conservation_with_pipelined_channels(self):
        cfg = NetworkConfig.from_name(
            "ruche2-depop", 8, 8, channel_latency=2, fifo_depth=4
        )
        net = build_network(cfg)
        rng = derive_rng(7, "pipe")
        nodes = list(net.routers)
        for _ in range(200):
            net.inject(nodes[rng.randrange(64)], nodes[rng.randrange(64)],
                       measured=True)
        assert net.drain(5000)
        assert net.metrics.measured.count == 200

    def test_slow_ruche_links_only(self):
        """Long Ruche wires can be pipelined independently of the locals."""
        cfg = NetworkConfig.from_name(
            "ruche3-pop", 9, 9, ruche_channel_latency=2, fifo_depth=4
        )
        assert cfg.latency_for(Direction.RE) == 2
        assert cfg.latency_for(Direction.E) == 1
        net = build_network(cfg)
        net.inject(Coord(0, 0), Coord(6, 0), measured=True)
        assert net.drain(100)
        # RE,RE ride 2-cycle channels: 2*2 hops-latency = 4 total.
        assert net.metrics.measured.mean == 4

    def test_vc_network_with_pipelined_channels(self):
        cfg = NetworkConfig.from_name(
            "torus", 8, 8, channel_latency=2, fifo_depth=4
        )
        r = run_synthetic(cfg, "uniform_random", 0.15,
                          warmup=200, measure=400, drain_limit=3000)
        assert r.drained

    def test_invalid_latency_rejected(self):
        with pytest.raises(ConfigError):
            NetworkConfig.from_name("mesh", 8, 8, channel_latency=0)


class TestFbfc:
    def test_name_round_trip(self):
        cfg = NetworkConfig.from_name("torus-fbfc", 8, 8)
        assert cfg.fbfc and not cfg.uses_vcs
        assert cfg.name == "torus-fbfc"
        cfg2 = NetworkConfig.from_name("half-torus-fbfc", 16, 8)
        assert cfg2.name == "half-torus-fbfc"

    def test_fbfc_requires_torus(self):
        with pytest.raises(ConfigError):
            NetworkConfig.from_name("mesh", 8, 8, fbfc=True)

    def test_deadlock_freedom_under_saturation(self):
        """The FBFC bubble invariant must survive adversarial overload on
        both ring dimensions."""
        net = build_network(NetworkConfig.from_name("torus-fbfc", 8, 8))
        rng = derive_rng(3, "fbfc")
        nodes = list(net.routers)
        for _ in range(400):
            for node in nodes:
                if rng.random() < 0.5:
                    dest = Coord((node.x + 3) % 8, (node.y + 3) % 8)
                    net.inject(node, dest)
            net.step()
        assert net.drain(60000)

    def test_conservation(self):
        net = build_network(NetworkConfig.from_name("torus-fbfc", 6, 6))
        rng = derive_rng(9, "fbfc2")
        nodes = list(net.routers)
        for _ in range(300):
            net.inject(nodes[rng.randrange(36)], nodes[rng.randrange(36)],
                       measured=True)
        assert net.drain(8000)
        assert net.metrics.measured.count == 300

    def test_fbfc_saves_vc_area(self):
        from repro.phys.area import router_area

        vc = router_area(NetworkConfig.from_name("torus", 8, 8))
        fbfc = router_area(NetworkConfig.from_name("torus-fbfc", 8, 8))
        assert fbfc.total < 0.6 * vc.total
        assert fbfc.control_label == "Arbiter"

    def test_fbfc_cycle_time_matches_wormhole(self):
        from repro.phys.timing import min_cycle_time_fo4

        fbfc = min_cycle_time_fo4(NetworkConfig.from_name("torus-fbfc", 8, 8))
        vc = min_cycle_time_fo4(NetworkConfig.from_name("torus", 8, 8))
        assert fbfc < 0.7 * vc

    def test_injection_restricted_when_one_slot_free(self):
        """A ring-entry move needs two free slots downstream."""
        from repro.sim.router import FbfcRouter

        net = build_network(NetworkConfig.from_name("torus-fbfc", 6, 6))
        router = net.routers[Coord(0, 0)]
        assert isinstance(router, FbfcRouter)
        needs = router._entry_need[int(Direction.E)]
        assert needs[int(Direction.P)] == 2  # injection into the X ring
        assert needs[int(Direction.W)] == 1  # through traffic
