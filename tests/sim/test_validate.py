"""Tests for the network invariant auditor."""

import pytest

from repro.core.coords import Coord
from repro.core.params import NetworkConfig
from repro.core.spec import build_network
from repro.sim.rng import derive_rng
from repro.sim.validate import assert_healthy, audit_network, is_vc_network


def loaded_network(name="mesh", steps=120, **kw):
    net = build_network(NetworkConfig.from_name(name, 8, 8, **kw))
    rng = derive_rng(4, name)
    nodes = list(net.routers)
    for _ in range(steps):
        for _ in range(8):
            net.inject(nodes[rng.randrange(64)], nodes[rng.randrange(64)])
        net.step()
    return net


class TestAudit:
    @pytest.mark.parametrize(
        "name, kw",
        [
            ("mesh", {}),
            ("torus", {}),
            ("torus-fbfc", {}),
            ("ruche2-depop", {}),
            ("ruche3-pop", {"channel_latency": 2, "fifo_depth": 4}),
            ("torus", {"channel_latency": 2, "fifo_depth": 4}),
        ],
    )
    def test_healthy_under_load(self, name, kw):
        net = loaded_network(name, **kw)
        assert audit_network(net) == []
        assert_healthy(net)

    def test_healthy_after_drain(self):
        net = loaded_network("ruche2-pop")
        net.drain(5000)
        assert_healthy(net)
        assert net.occupancy == 0

    def test_detects_corrupted_occupancy(self):
        net = loaded_network("mesh", steps=20)
        router = net.routers[Coord(3, 3)]
        router.occ += 1
        problems = audit_network(net)
        assert any("occ" in p for p in problems)
        with pytest.raises(AssertionError):
            assert_healthy(net)

    def test_detects_global_occupancy_mismatch(self):
        net = loaded_network("mesh", steps=20)
        net.occupancy += 5
        assert any("occupancy" in p for p in audit_network(net))

    def test_detects_unwired_route(self):
        net = build_network(NetworkConfig.from_name("mesh", 4, 4))
        pkt = net.inject(Coord(0, 0), Coord(3, 0))
        pkt.out_dir = 7  # RN: not wired on a mesh
        assert any("unwired" in p for p in audit_network(net))

    def test_vc_network_detection(self):
        assert is_vc_network(
            build_network(NetworkConfig.from_name("torus", 4, 4))
        )
        assert not is_vc_network(
            build_network(NetworkConfig.from_name("torus-fbfc", 4, 4))
        )
