"""Port-graph IR unit tests and the registry-wide round-trip property.

The hypothesis property at the bottom is the IR's load-bearing
contract: for *any* registered topology family — 2-D mesh/torus/Ruche,
the 3-D pack, an out-of-tree plugin — the emitted
:class:`~repro.core.portgraph.PortGraph` round-trips through
:func:`~repro.core.routing.tabulate_next_hops` and the chain walk the
compiled engine lowers, with every ``(src, dest)`` pair ejecting at
the right node.  No consumer in that loop touches a coordinate.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from property.settings import tiered_settings

from repro.core.coords import Coord
from repro.core.params import NetworkConfig
from repro.core.portgraph import (
    PortChannel,
    PortGraph,
    ensure_port_graph,
    minimal_distances,
)
from repro.core.registry import TOPOLOGIES
from repro.core.routing import tabulate_next_hops
from repro.core.spec import network_components
from repro.core.topology import make_topology
from repro.errors import RoutingError


def _tiny_graph(**overrides):
    """A two-node, three-port line: a <-> b on port 1/2, eject on 0."""
    a, b = (0, 0), (1, 0)
    fields = dict(
        nodes=(a, b),
        num_ports=3,
        ejection_port=0,
        port_names=("P", "W", "E"),
        channels=(
            PortChannel(a, 2, b, 1, 1, 32),
            PortChannel(b, 1, a, 2, 1, 32),
        ),
    )
    fields.update(overrides)
    return PortGraph(**fields)


class TestPortGraphValidation:
    def test_port_names_arity_checked(self):
        with pytest.raises(ValueError, match="port_names"):
            _tiny_graph(port_names=("P", "W"))

    def test_ejection_port_in_range(self):
        with pytest.raises(ValueError, match="ejection_port"):
            _tiny_graph(ejection_port=3)

    def test_channel_port_ids_in_range(self):
        bad = PortChannel((0, 0), 9, (1, 0), 1, 1, 32)
        with pytest.raises(ValueError, match="out_port out of range"):
            _tiny_graph(channels=(bad,))
        bad = PortChannel((0, 0), 2, (1, 0), 9, 1, 32)
        with pytest.raises(ValueError, match="in_port out of range"):
            _tiny_graph(channels=(bad,))

    def test_channel_on_the_ejection_port_rejected(self):
        for bad in (
            PortChannel((0, 0), 0, (1, 0), 1, 1, 32),
            PortChannel((0, 0), 2, (1, 0), 0, 1, 32),
        ):
            with pytest.raises(ValueError, match="ejection port"):
                _tiny_graph(channels=(bad,))

    def test_latency_floor(self):
        bad = PortChannel((0, 0), 2, (1, 0), 1, 0, 32)
        with pytest.raises(ValueError, match="latency"):
            _tiny_graph(channels=(bad,))

    def test_duplicate_output_rejected(self):
        dup = (
            PortChannel((0, 0), 2, (1, 0), 1, 1, 32),
            PortChannel((0, 0), 2, (1, 0), 1, 2, 32),
        )
        with pytest.raises(ValueError, match="duplicate output"):
            _tiny_graph(channels=dup)


class TestPortGraphQueries:
    def test_out_map_and_queries(self):
        g = _tiny_graph()
        assert g.has_output((0, 0), 2)
        assert not g.has_output((0, 0), 1)
        assert g.dest_of((0, 0), 2) == (1, 0)
        assert g.output_ports((0, 0)) == (2,)
        assert g.output_ports((1, 0)) == (1,)

    def test_port_name_fallback(self):
        g = _tiny_graph()
        assert g.port_name(1) == "W"
        assert g.port_name(9) == "p9"

    def test_render_node(self):
        g = _tiny_graph()
        assert g.render_node((3, 4)) == "(3, 4)"
        assert g.render_node((1, 2, 3)) == "(1, 2, 3)"

    def test_endpoint_only_nodes(self):
        stub = (9, 9)
        g = _tiny_graph(
            channels=(
                PortChannel((0, 0), 2, (1, 0), 1, 1, 32),
                PortChannel((1, 0), 1, stub, 2, 1, 32),
            )
        )
        assert g.endpoint_only_nodes == (stub,)
        # Stubs are channel endpoints, not routable nodes.
        assert stub not in g.nodes


class TestEnsurePortGraph:
    def test_passthrough(self):
        g = _tiny_graph()
        assert ensure_port_graph(g) is g

    def test_topology_emits(self):
        topo = make_topology(NetworkConfig.from_name("mesh", 4, 4))
        g = ensure_port_graph(topo)
        assert isinstance(g, PortGraph)
        assert len(g.nodes) == 16

    def test_rejects_foreign_objects(self):
        with pytest.raises(TypeError, match="port_graph"):
            ensure_port_graph(42)

    def test_rejects_wrong_emitter_return(self):
        class Bad:
            def port_graph(self):
                return "not a graph"

        with pytest.raises(TypeError, match="expected PortGraph"):
            ensure_port_graph(Bad())


#: Golden content addresses of the emitted graphs.  These pin node
#: order, channel order, port naming, and per-channel latency/width —
#: an emitter change that alters any of them (and with it every
#: downstream tie-break) must show up here as a deliberate diff.
GOLDEN_FINGERPRINTS = {
    ("mesh", 8, 8, ()): (
        "8e41982739000c969eefed472e0e76ba"
        "75276985d8b04bd8bacbdfa0aba3545c"
    ),
    ("torus", 8, 8, ()): (
        "6b06b222843be300931a75eefce8b5e4"
        "14a6c8cc28f22a9a047ff51535599f64"
    ),
    ("ruche2-depop", 8, 8, ()): (
        "9d9e799ad9002fd94a3f01400b6e339e"
        "edd9b71f2ee58e8011bb1ee4d3518d1f"
    ),
    ("ruche2-depop", 16, 8, (("half", True),)): (
        "994b20dcbc001f34f2143418d2247c72"
        "4c472aaf777d75097dad3b76a5995c90"
    ),
    ("mesh3d", 4, 4, (("depth", 3),)): (
        "b8a25f33eb75667c996482665abf9fa2"
        "d4ddf3e038e0000636271fcc555059da"
    ),
    ("torus3d", 8, 8, (("depth", 4),)): (
        "dfb3f73a312323f8dbc8ea61cd903ef0"
        "9d9e475a5dce518de810292950b1ce97"
    ),
}


class TestFingerprints:
    @pytest.mark.parametrize(
        "key", sorted(GOLDEN_FINGERPRINTS), ids=lambda k: f"{k[0]}-{k[1]}x{k[2]}"
    )
    def test_golden_fingerprint(self, key):
        name, width, height, options = key
        config = NetworkConfig.from_name(
            name, width, height, **dict(options)
        )
        graph = make_topology(config).port_graph()
        assert graph.fingerprint() == GOLDEN_FINGERPRINTS[key]

    def test_fingerprint_is_stable_across_emissions(self):
        config = NetworkConfig.from_name("torus", 6, 6)
        first = make_topology(config).port_graph()
        second = make_topology(config).port_graph()
        assert first.fingerprint() == second.fingerprint()
        assert first.channels == second.channels

    def test_fingerprint_separates_topologies(self):
        fps = {
            make_topology(
                NetworkConfig.from_name(name, 8, 8)
            ).port_graph().fingerprint()
            for name in ("mesh", "torus", "multimesh", "ruche2-depop")
        }
        assert len(fps) == 4


class TestMinimalDistances:
    def test_mesh_distances_are_manhattan(self):
        graph = make_topology(
            NetworkConfig.from_name("mesh", 4, 4)
        ).port_graph()
        dest = Coord(2, 1)
        dist = minimal_distances(graph, dest)
        for node in graph.nodes:
            manhattan = abs(node[0] - dest.x) + abs(node[1] - dest.y)
            assert dist[node] == manhattan

    def test_torus3d_distances_are_ring_minimal(self):
        config = NetworkConfig.from_name("torus3d", 4, 4, depth=4)
        graph = make_topology(config).port_graph()
        dest = graph.nodes[0]
        dist = minimal_distances(graph, dest)
        for node in graph.nodes:
            expect = sum(
                min((d - c) % 4, (c - d) % 4)
                for c, d in zip(node, dest)
            )
            assert dist[node] == expect


# ---------------------------------------------------------------------------
# The registry-wide round-trip property
# ---------------------------------------------------------------------------
def _load_plugin():
    name = "plugin_topology_example"
    if name in sys.modules:
        return sys.modules[name]
    path = (
        Path(__file__).resolve().parents[2]
        / "examples"
        / "plugin_topology.py"
    )
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


#: One representative of every construction path the registry serves:
#: builtin 2-D, Ruche, the 3-D pack, and the out-of-tree plugin.
FAMILIES = (
    ("mesh", {}),
    ("torus", {}),
    ("ruche2-depop", {}),
    ("ruche2-pop", {"half": True}),
    ("mesh3d", {"depth": 2}),
    ("torus3d", {"depth": 4}),
    ("express-mesh", {}),
)


def _family_components(name, width, height, options):
    if name == "express-mesh":
        _load_plugin()
        provider = TOPOLOGIES.get(name)
        config = provider.config_factory(
            name, width, height, **options
        )
        bundle = network_components(config, provider=provider)
    else:
        config = NetworkConfig.from_name(
            name, width, height, **options
        )
        bundle = network_components(config)
    return bundle.topology, bundle.routing, bundle.matrix


@st.composite
def any_design_point(draw):
    name, options = draw(st.sampled_from(FAMILIES))
    width = draw(st.integers(4, 6))
    height = draw(st.integers(4, 6))
    if name == "express-mesh":
        # Stations every SPAN=4 columns; widen so express links exist.
        width += 4
    return name, width, height, options


@given(any_design_point(), st.data())
@tiered_settings(30, deadline=None)
def test_port_graph_round_trips_through_tabulation(point, data):
    """Emitted graph -> next-hop table -> chain walk ejects correctly.

    The exact walk the compiled engine lowers (and the certifier
    audits): start at ``(src, ejection_port)``, follow the table entry
    through the graph's ``out_map``, and require ejection at ``dest``
    within a livelock bound — for every source, for a sampled
    destination, on every registered family.
    """
    name, width, height, options = point
    topology, routing, _matrix = _family_components(
        name, width, height, options
    )
    graph = topology.port_graph()
    assert graph.fingerprint() == topology.port_graph().fingerprint()

    dest = data.draw(
        st.sampled_from(list(graph.nodes)), label="dest"
    )
    errors = []

    def on_error(state, exc):
        errors.append((state, exc))

    table = tabulate_next_hops(
        routing, graph, dest, on_error=on_error
    )
    assert errors == [], f"{name}: tabulation raised {errors[:3]}"

    bound = len(graph.nodes) * graph.num_ports * 4
    for src in graph.nodes:
        state = (
            src,
            graph.ejection_port,
            0,
            routing.injection_subnet(src, dest),
        )
        hops = 0
        while True:
            entry = table.get(state)
            assert entry is not None, (
                f"{name}: no table entry at {state!r} toward {dest!r}"
            )
            out_port, out_vc = entry
            if out_port == graph.ejection_port:
                assert state[0] == dest, (
                    f"{name}: {src!r} -> {dest!r} ejected at "
                    f"{state[0]!r}"
                )
                break
            hop = graph.out_map.get((state[0], out_port))
            assert hop is not None, (
                f"{name}: table routes {state!r} onto unwired port "
                f"{out_port}"
            )
            nxt, in_port, _latency = hop
            state = (nxt, in_port, out_vc, state[3])
            hops += 1
            assert hops <= bound, (
                f"{name}: {src!r} -> {dest!r} exceeded {bound} hops"
            )


def test_tabulation_reports_raising_routes():
    """A route() that raises is surfaced through on_error, not lost."""
    topology, routing, _matrix = _family_components("mesh", 4, 4, {})
    graph = topology.port_graph()

    class Exploding:
        uses_vcs = False

        def injection_subnet(self, src, dest):
            return 0

        def route(self, node, in_dir, dest, subnet=0):
            raise RoutingError("boom")

    seen = []
    table = tabulate_next_hops(
        Exploding(), graph, graph.nodes[0],
        on_error=lambda state, exc: seen.append(exc),
    )
    assert table == {}
    assert seen and all("boom" in str(e) for e in seen)
