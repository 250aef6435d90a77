"""Unit tests for topology construction and analytic bandwidth accounting."""

import pytest

from repro.core.coords import Coord, Direction
from repro.core.params import NetworkConfig, TopologyKind
from repro.core.topology import (
    Topology,
    physical_properties,
    table1_criteria,
    table1_topologies,
)
from repro.errors import ConfigError


def topo(name, w, h, **kw):
    return Topology(NetworkConfig.from_name(name, w, h, **kw))


class TestChannels:
    def test_mesh_channel_count(self):
        t = topo("mesh", 4, 4)
        # 2 * (3*4) unidirectional per axis = 48
        assert len(t.channels) == 48

    def test_torus_channel_count(self):
        t = topo("torus", 4, 4)
        # Every node has all four ring outputs: 4*16 = 64.
        assert len(t.channels) == 64

    def test_full_ruche_adds_clipped_ruche_channels(self):
        t = topo("ruche2-depop", 4, 4)
        # Mesh 48 + per row RE: (4-2)=2 eastward, 2 westward => 4*4=16
        # and same vertically: 16.  Total 80.
        assert len(t.channels) == 80

    def test_half_ruche_only_horizontal(self):
        t = topo("ruche2-depop", 4, 4, half=True)
        assert len(t.channels) == 48 + 16
        assert not any(
            d in (Direction.RN, Direction.RS) for _, d, _ in t.channels
        )

    def test_ruche_one_doubles_links(self):
        t = topo("ruche1", 4, 4)
        assert len(t.channels) == 96  # mesh 48 doubled

    def test_channel_endpoints_are_correct_for_ruche(self):
        g = topo("ruche3-depop", 8, 8).port_graph()
        assert g.dest_of(Coord(0, 0), Direction.RE) == Coord(3, 0)
        assert g.dest_of(Coord(5, 7), Direction.RW) == Coord(2, 7)
        assert not g.has_output(Coord(6, 0), Direction.RE)  # would exit

    def test_torus_wrap_channels(self):
        g = topo("torus", 4, 4).port_graph()
        assert g.dest_of(Coord(3, 1), Direction.E) == Coord(0, 1)
        assert g.dest_of(Coord(0, 2), Direction.W) == Coord(3, 2)
        assert g.dest_of(Coord(2, 0), Direction.N) == Coord(2, 3)

    def test_half_torus_wraps_only_horizontally(self):
        g = topo("half-torus", 4, 4).port_graph()
        assert g.dest_of(Coord(3, 1), Direction.E) == Coord(0, 1)
        assert not g.has_output(Coord(2, 0), Direction.N)

    def test_channel_symmetry(self):
        """Every channel has a reverse channel (inputs mirror outputs)."""
        for name in ["mesh", "torus", "ruche2-depop", "ruche1", "multimesh"]:
            t = topo(name, 6, 6)
            chset = {(s, d, t_) for s, d, t_ in t.channels}
            for src, d, dst in t.channels:
                assert (dst, d.opposite, src) in chset


class TestEdgeMemory:
    def test_memory_nodes_on_both_edges(self):
        g = topo("mesh", 4, 4, edge_memory=True).port_graph()
        assert len(g.endpoint_only_nodes) == 8
        assert Coord(0, -1) in g.endpoint_only_nodes
        assert Coord(3, 4) in g.endpoint_only_nodes

    def test_memory_channels_bidirectional(self):
        g = topo("mesh", 4, 4, edge_memory=True).port_graph()
        assert g.dest_of(Coord(1, 0), Direction.N) == Coord(1, -1)
        assert g.dest_of(Coord(1, -1), Direction.S) == Coord(1, 0)
        assert g.dest_of(Coord(2, 3), Direction.S) == Coord(2, 4)

    def test_full_torus_rejects_edge_memory(self):
        with pytest.raises(ConfigError):
            topo("torus", 4, 4, edge_memory=True)

    def test_memory_tile_bandwidth(self):
        t = topo("mesh", 16, 8, edge_memory=True)
        assert t.memory_tile_bandwidth() == 32


class TestBisection:
    """Lock in the paper's Table 4 bisection-bandwidth numbers."""

    @pytest.mark.parametrize(
        "name, w, h, expected",
        [
            ("mesh", 16, 8, 16),
            ("ruche2-depop", 16, 8, 48),
            ("ruche3-depop", 16, 8, 64),
            ("mesh", 32, 16, 32),
            ("ruche2-depop", 32, 16, 96),
            ("ruche3-depop", 32, 16, 128),
            ("mesh", 64, 8, 16),
            ("ruche2-depop", 64, 8, 48),
            ("ruche3-depop", 64, 8, 64),
            ("mesh", 32, 8, 16),
            ("ruche2-depop", 32, 8, 48),
            ("ruche3-depop", 32, 8, 64),
        ],
    )
    def test_table4_vertical_bisection(self, name, w, h, expected):
        t = topo(name, w, h, half=name.startswith("ruche"))
        assert t.bisection_channels("vertical") == expected

    def test_torus_doubles_mesh_bisection(self):
        mesh = topo("mesh", 8, 8)
        torus = topo("torus", 8, 8)
        assert (
            torus.bisection_channels("vertical")
            == 2 * mesh.bisection_channels("vertical")
        )

    def test_half_torus_doubles_only_horizontal_cut(self):
        mesh = topo("mesh", 16, 8)
        ht = topo("half-torus", 16, 8)
        assert ht.bisection_channels("vertical") == 2 * mesh.bisection_channels(
            "vertical"
        )
        assert ht.bisection_channels("horizontal") == mesh.bisection_channels(
            "horizontal"
        )

    def test_memory_stub_channels_excluded(self):
        with_mem = topo("mesh", 16, 8, edge_memory=True)
        without = topo("mesh", 16, 8)
        assert (
            with_mem.bisection_channels("vertical")
            == without.bisection_channels("vertical")
        )

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            topo("mesh", 8, 8).bisection_channels("diagonal")


class TestLinkSpan:
    def test_local_and_ruche_spans(self):
        t = topo("ruche3-depop", 8, 8)
        assert t.link_span(Direction.E) == 1
        assert t.link_span(Direction.RE) == 3
        assert t.link_span(Direction.P) == 0

    def test_folded_torus_links_span_two_tiles(self):
        t = topo("torus", 8, 8)
        assert t.link_span(Direction.E) == 2
        assert t.link_span(Direction.S) == 2

    def test_half_torus_vertical_links_stay_local(self):
        t = topo("half-torus", 16, 8)
        assert t.link_span(Direction.E) == 2
        assert t.link_span(Direction.S) == 1


class TestRouterDirections:
    def test_mesh_router_has_five_ports(self):
        assert len(topo("mesh", 4, 4).router_directions) == 5

    def test_full_ruche_router_has_nine_ports(self):
        assert len(topo("ruche2-depop", 8, 8).router_directions) == 9

    def test_half_ruche_router_has_seven_ports(self):
        assert len(topo("ruche2", 16, 8, half=True).router_directions) == 7

    def test_torus_router_has_five_ports(self):
        assert len(topo("torus", 8, 8).router_directions) == 5


class TestTable1:
    def test_all_rows_present(self):
        assert len(table1_topologies()) == 7
        assert len(table1_criteria()) == 7

    def test_ruche_and_torus_meet_all_criteria(self):
        for kind in (TopologyKind.FULL_RUCHE, TopologyKind.FOLDED_TORUS):
            assert all(physical_properties(kind).values())

    def test_mesh_lacks_long_range_links_only(self):
        props = physical_properties(TopologyKind.MESH)
        assert not props["long_range_links"]
        assert sum(props.values()) == 6

    def test_high_radix_topologies_fail_tiling_criteria(self):
        fb = physical_properties("flattened-butterfly")
        assert not fb["constant_router_radix"]
        assert not fb["constant_link_distance"]
        mecs = physical_properties("mecs")
        assert not mecs["regular_tile_shape"]
        assert mecs["long_range_links"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            physical_properties("hypercube")
