"""Routing algorithm tests: paper examples, invariants, property tests."""

import pytest
from hypothesis import given, strategies as st

from property.settings import tiered_settings

from repro.core.coords import Coord, Direction
from repro.core.params import DorOrder, NetworkConfig
from repro.core.routing import make_routing
from repro.core.topology import Topology

P, W, E, N, S = (
    Direction.P, Direction.W, Direction.E, Direction.N, Direction.S,
)
RW, RE, RN, RS = (
    Direction.RW, Direction.RE, Direction.RN, Direction.RS,
)


def routing(name, w=12, h=12, **kw):
    return make_routing(NetworkConfig.from_name(name, w, h, **kw))


def dirs_of(path):
    return [d for _, d in path]


class TestMeshDOR:
    def test_xy_goes_east_then_south(self):
        r = routing("mesh", 8, 8)
        path = r.compute_path(Coord(1, 1), Coord(4, 3))
        assert dirs_of(path) == [E, E, E, S, S, P]

    def test_yx_goes_south_then_east(self):
        r = make_routing(
            NetworkConfig.from_name("mesh", 8, 8, dor_order=DorOrder.YX)
        )
        path = r.compute_path(Coord(1, 1), Coord(4, 3))
        assert dirs_of(path) == [S, S, E, E, E, P]

    def test_self_delivery(self):
        r = routing("mesh", 8, 8)
        assert dirs_of(r.compute_path(Coord(2, 2), Coord(2, 2))) == [P]


class TestRucheFirstDimension:
    """The 'highway' behaviour of Figure 4 in the first (X) dimension."""

    def test_pop_rides_ruche_until_exact_arrival(self):
        r = routing("ruche3-pop", 12, 12)
        # dx = 6 = 2*RF: two Ruche hops, then turn directly off the Ruche
        # input (fully-populated allows RE-input -> S turn).
        path = r.compute_path(Coord(0, 0), Coord(6, 2))
        assert dirs_of(path) == [RE, RE, S, S, P]

    def test_depop_leaves_highway_before_turn(self):
        r = routing("ruche3-depop", 12, 12)
        # dx = 6: depopulated boards only while |dx| > RF, so one Ruche hop
        # then three local hops — non-minimal, as the paper notes.
        path = r.compute_path(Coord(0, 0), Coord(6, 0))
        assert dirs_of(path) == [RE, E, E, E, P]

    def test_depop_last_x_hop_is_always_local(self):
        r = routing("ruche3-depop", 12, 12)
        for dest_x in range(1, 12):
            path = r.compute_path(Coord(0, 5), Coord(dest_x, 7))
            x_hops = [d for d in dirs_of(path) if d.is_horizontal]
            assert x_hops[-1] in (E, W)

    def test_pop_boards_at_exactly_rf(self):
        r = routing("ruche3-pop", 12, 12)
        path = r.compute_path(Coord(0, 0), Coord(3, 0))
        assert dirs_of(path) == [RE, P]

    def test_short_distance_stays_local(self):
        r = routing("ruche3-pop", 12, 12)
        path = r.compute_path(Coord(0, 0), Coord(2, 0))
        assert dirs_of(path) == [E, E, P]

    def test_westward_symmetry(self):
        r = routing("ruche3-pop", 12, 12)
        path = r.compute_path(Coord(11, 0), Coord(2, 0))
        assert dirs_of(path) == [RW, RW, RW, P]


class TestRucheSecondDimension:
    """Local-first routing in the second (Y) dimension."""

    def test_local_until_multiple_of_rf(self):
        r = routing("ruche3-pop", 12, 12)
        # dy = 7: one local hop (7 % 3 != 0), then 6 = 2*RF on Ruche.
        path = r.compute_path(Coord(0, 0), Coord(0, 7))
        assert dirs_of(path) == [S, RS, RS, P]

    def test_pop_boards_y_ruche_directly_from_turn(self):
        r = routing("ruche3-pop", 12, 12)
        # dy = 6 at the turn: fully-populated boards RS straight from the
        # E-input (W->RS style connection).
        path = r.compute_path(Coord(0, 0), Coord(1, 6))
        assert dirs_of(path) == [E, RS, RS, P]

    def test_depop_takes_local_detour_before_y_ruche(self):
        r = routing("ruche3-depop", 12, 12)
        # Same journey: depopulated must take local Y hops until the
        # remainder is again a multiple of RF *and* it is on a Y input.
        path = r.compute_path(Coord(0, 0), Coord(1, 6))
        assert dirs_of(path) == [E, S, S, S, RS, P]

    def test_depop_rides_y_ruche_to_ejection(self):
        r = routing("ruche3-depop", 12, 12)
        path = r.compute_path(Coord(0, 0), Coord(0, 9))
        # Injection is a P input (not a Y-axis input), so one local hop
        # first would break the multiple; local-first takes 3 locals then
        # boards for the remaining 6.
        assert dirs_of(path) == [S, S, S, RS, RS, P]
        assert dirs_of(path)[-2] is RS

    def test_half_ruche_y_is_plain_mesh(self):
        r = routing("ruche3-depop", 16, 8, half=True)
        path = r.compute_path(Coord(0, 0), Coord(0, 6))
        assert dirs_of(path) == [S] * 6 + [P]


class TestRucheOne:
    def test_even_distance_rides_ruche_subnet(self):
        r = routing("ruche1", 8, 8)
        src, dest = Coord(0, 0), Coord(2, 2)
        assert r.injection_subnet(src, dest) == 1
        assert dirs_of(r.compute_path(src, dest)) == [RE, RE, RS, RS, P]

    def test_odd_distance_rides_local_subnet(self):
        r = routing("ruche1", 8, 8)
        src, dest = Coord(0, 0), Coord(2, 1)
        assert r.injection_subnet(src, dest) == 0
        assert dirs_of(r.compute_path(src, dest)) == [E, E, S, P]

    def test_path_never_mixes_subnets(self):
        r = routing("ruche1", 8, 8)
        for dest in [Coord(5, 3), Coord(1, 6), Coord(7, 7)]:
            path_dirs = dirs_of(r.compute_path(Coord(2, 2), dest))[:-1]
            classes = {d.is_ruche for d in path_dirs}
            assert len(classes) == 1


class TestMultiMesh:
    def test_even_distance_uses_mesh0(self):
        r = routing("multimesh", 8, 8)
        assert r.injection_subnet(Coord(0, 0), Coord(2, 2)) == 0
        path_dirs = dirs_of(r.compute_path(Coord(0, 0), Coord(2, 2)))[:-1]
        assert all(not d.is_ruche for d in path_dirs)

    def test_odd_distance_uses_mesh1(self):
        r = routing("multimesh", 8, 8)
        assert r.injection_subnet(Coord(0, 0), Coord(2, 1)) == 1
        path_dirs = dirs_of(r.compute_path(Coord(0, 0), Coord(2, 1)))[:-1]
        assert all(d.is_ruche for d in path_dirs)


class TestTorus:
    def test_shortest_way_wraps(self):
        r = routing("torus", 8, 8)
        path = r.compute_path(Coord(7, 0), Coord(1, 0))
        assert dirs_of(path) == [E, E, P]  # wrap through x=0

    def test_dateline_promotes_to_vc1(self):
        r = routing("torus", 8, 8)
        out, vc = r.route_vc(Coord(7, 0), W, 0, Coord(1, 0))
        assert out is E and vc == 1  # the 7->0 hop is the dateline

    def test_vc_sticky_after_crossing(self):
        r = routing("torus", 8, 8)
        out, vc = r.route_vc(Coord(0, 0), W, 1, Coord(1, 0))
        assert out is E and vc == 1

    def test_crossing_flows_enter_on_vc0(self):
        r = routing("torus", 8, 8)
        out, vc = r.route_vc(Coord(6, 0), P, 0, Coord(1, 0))
        assert out is E and vc == 0

    def test_non_crossing_flows_balanced_by_dest_hash(self):
        r = routing("torus", 8, 8)
        vcs = set()
        for dest_x in range(1, 4):
            _out, vc = r.route_vc(Coord(0, 3), P, 0, Coord(dest_x, 3))
            vcs.add(vc)
        assert vcs == {0, 1}

    def test_vc_resets_on_turn(self):
        r = routing("torus", 8, 8)
        # Arrived travelling east on VC1; turning south restarts the Y
        # ring's dateline logic.
        out, vc = r.route_vc(Coord(3, 0), W, 1, Coord(3, 2))
        assert out is S
        assert vc in (0, 1)  # chosen by crossing/hash logic, not carried
        out2, vc2 = r.route_vc(Coord(3, 6), P, 0, Coord(3, 1))
        assert out2 is S and vc2 == 0  # will wrap: must start on VC0

    def test_tie_breaks_split_by_destination(self):
        r = routing("torus", 8, 8)
        outs = set()
        for dest in [Coord(4, 0), Coord(4, 1)]:
            outs.add(r.route(Coord(0, dest.y), P, dest))
        assert outs == {E, W}

    def test_half_torus_vertical_is_mesh(self):
        r = routing("half-torus", 16, 8)
        path = r.compute_path(Coord(0, 7), Coord(0, 0))
        assert dirs_of(path) == [N] * 7 + [P]

    def test_half_torus_wraps_horizontally(self):
        r = routing("half-torus", 16, 8)
        assert r.route(Coord(15, 0), P, Coord(1, 0)) is E


ALL_NAMES = [
    "mesh", "torus", "half-torus", "multimesh", "ruche1",
    "ruche2-depop", "ruche2-pop", "ruche3-depop", "ruche3-pop",
]


class TestDeliveryProperty:
    """Every (src, dest) pair is deliverable on every topology."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_all_pairs_8x8(self, name):
        half = name in ("half-torus",)
        r = routing(name, 8, 8, half=half)
        nodes = [Coord(x, y) for x in range(8) for y in range(8)]
        for src in nodes[::5]:
            for dest in nodes:
                path = r.compute_path(src, dest)
                assert path[-1] == (dest, P)

    @pytest.mark.parametrize("name", ["ruche2-depop", "ruche3-pop"])
    def test_half_ruche_all_pairs_rectangular(self, name):
        r = routing(name, 16, 8, half=True)
        nodes = [Coord(x, y) for x in range(16) for y in range(8)]
        for src in nodes[::7]:
            for dest in nodes:
                assert r.compute_path(src, dest)[-1] == (dest, P)

    @pytest.mark.parametrize(
        "name",
        ["mesh", "half-torus", "ruche2-depop", "ruche2-pop",
         "ruche3-depop", "ruche3-pop"],
    )
    def test_edge_memory_destinations(self, name):
        half = name.startswith("ruche")
        r = routing(name, 16, 8, half=half, edge_memory=True)
        for x in range(0, 16, 3):
            for mem in (Coord(5, -1), Coord(5, 8)):
                path = r.compute_path(Coord(x, 3), mem)
                assert path[-1] == (mem, P)


class TestHopCounts:
    def test_ruche_shortens_paths(self):
        mesh = routing("mesh", 16, 16)
        ruche = routing("ruche3-pop", 16, 16)
        src, dest = Coord(0, 0), Coord(15, 15)
        assert ruche.hop_count(src, dest) < mesh.hop_count(src, dest)
        assert ruche.hop_count(src, dest) == 5 + 5  # RE*5, RS*5

    def test_depop_never_shorter_than_pop(self):
        pop = routing("ruche3-pop", 12, 12)
        depop = routing("ruche3-depop", 12, 12)
        for src in [Coord(0, 0), Coord(3, 7)]:
            for dest in [Coord(9, 9), Coord(11, 2), Coord(6, 6)]:
                assert depop.hop_count(src, dest) >= pop.hop_count(src, dest)

    def test_torus_halves_diameter(self):
        mesh = routing("mesh", 8, 8)
        torus = routing("torus", 8, 8)
        assert mesh.hop_count(Coord(0, 0), Coord(7, 7)) == 14
        assert torus.hop_count(Coord(0, 0), Coord(7, 7)) == 2


@st.composite
def config_and_pair(draw):
    name = draw(st.sampled_from(ALL_NAMES))
    w = draw(st.integers(min_value=5, max_value=12))
    h = draw(st.integers(min_value=5, max_value=12))
    half = draw(st.booleans()) if name.startswith("ruche2") else False
    if name == "half-torus":
        half = False
    cfg = NetworkConfig.from_name(name, w, h, half=half)
    src = Coord(draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1)))
    dest = Coord(draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1)))
    return cfg, src, dest


class TestRoutingProperties:
    @given(config_and_pair())
    @tiered_settings(300, deadline=None)
    def test_every_route_terminates_at_destination(self, case):
        cfg, src, dest = case
        r = make_routing(cfg)
        path = r.compute_path(src, dest)
        assert path[-1] == (dest, Direction.P)

    @given(config_and_pair())
    @tiered_settings(200, deadline=None)
    def test_routes_use_only_existing_channels(self, case):
        cfg, src, dest = case
        r = make_routing(cfg)
        graph = Topology(cfg).port_graph()
        for node, out in r.compute_path(src, dest)[:-1]:
            assert graph.has_output(node, out), (node, out)

    @given(config_and_pair())
    @tiered_settings(200, deadline=None)
    def test_non_torus_routes_are_bounded_by_manhattan(self, case):
        cfg, src, dest = case
        if cfg.kind.is_torus:
            return
        r = make_routing(cfg)
        hops = r.hop_count(src, dest)
        manhattan = src.manhattan(dest)
        # Depopulated detours add at most 2*(RF-1) hops per dimension.
        slack = 4 * max(1, cfg.ruche_factor)
        assert hops <= manhattan + slack
