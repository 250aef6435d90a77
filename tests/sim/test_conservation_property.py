"""Broad conservation property: every packet injected into any supported
configuration is delivered exactly once, across the full config space
(topologies × flow control × channel latency × FIFO depth)."""

from hypothesis import given, strategies as st

from property.settings import tiered_settings

from repro.core.params import NetworkConfig
from repro.core.spec import build_network
from repro.sim.rng import derive_rng
from repro.sim.validate import assert_healthy

NAMES = [
    "mesh", "torus", "torus-fbfc", "half-torus", "multimesh",
    "ruche1", "ruche2-depop", "ruche2-pop", "ruche3-depop", "ruche3-pop",
]


@st.composite
def any_config(draw):
    name = draw(st.sampled_from(NAMES))
    w = draw(st.integers(5, 9))
    h = draw(st.integers(5, 9))
    latency = draw(st.sampled_from([1, 1, 2]))
    depth = draw(st.sampled_from([2, 4])) if latency == 1 else 4
    half = name == "half-torus"
    return NetworkConfig.from_name(
        name, w, h, half=half, channel_latency=latency, fifo_depth=depth
    )


@given(any_config(), st.integers(0, 2**31 - 1))
@tiered_settings(25, deadline=None)
def test_universal_conservation(cfg, seed):
    net = build_network(cfg)
    rng = derive_rng(seed, "universal")
    nodes = list(net.routers)
    count = rng.randrange(1, 150)
    for _ in range(count):
        src = nodes[rng.randrange(len(nodes))]
        dest = nodes[rng.randrange(len(nodes))]
        net.inject(src, dest, measured=True)
        if rng.random() < 0.3:
            net.step()
    assert net.drain(20000), f"{cfg.name} failed to drain"
    assert net.metrics.measured.count == count
    assert net.occupancy == 0
    assert_healthy(net)


@given(st.integers(0, 2**31 - 1))
@tiered_settings(10, deadline=None)
def test_vc_network_healthy_mid_flight(seed):
    """Invariants hold at arbitrary mid-simulation points, not only at
    quiescence."""
    cfg = NetworkConfig.from_name("torus", 6, 6)
    net = build_network(cfg)
    rng = derive_rng(seed, "midflight")
    nodes = list(net.routers)
    for t in range(60):
        for _ in range(4):
            net.inject(
                nodes[rng.randrange(36)],
                nodes[rng.randrange(36)],
            )
        net.step()
        if t % 13 == 0:
            assert_healthy(net)


def test_self_messages_on_every_topology():
    for name in NAMES:
        half = name == "half-torus"
        net = build_network(NetworkConfig.from_name(name, 6, 6, half=half))
        for node in list(net.routers):
            net.inject(node, node, measured=True)
        assert net.drain(500)
        assert net.metrics.measured.count == 36
