"""The fault-aware tables against a per-state BFS oracle.

:class:`~repro.core.routing.FaultAwareTableRouting` searches one state
per input class — a router and one distinct turn set among its wired
inputs — because two inputs with the same turn set always get the same
next hop at the same distance.  The oracle below is the search that
claim replaces: one state per ``(router, input port)``, each keeping
its own next hop, with the same level-synchronous ``_BFS_PRIORITY``
tie-break.  Everything the routing answers must be the oracle's:
``next_hop_items`` per destination, ``reachable``,
``partitioned_pairs`` and ``route``'s output or error text.
"""

from hypothesis import given
from hypothesis import strategies as st

from property.settings import tiered_settings

from repro.core.connectivity import (
    connectivity_matrix,
    fault_tolerant_matrix,
    port_turns,
)
from repro.core.coords import Coord, Direction
from repro.core.params import NetworkConfig
from repro.core.portgraph import live_wiring
from repro.core.routing import _BFS_PRIORITY, FaultAwareTableRouting
from repro.errors import RoutingError
from repro.sim.faults import FaultSchedule


def per_state_tables(graph, turns, killed, live):
    """Per-destination next-hop tables over ``(node, input port)``
    states: ``{dest: {(node, in_port): out_port}}`` for every live
    ``dest``."""
    reverse = {}
    p_out = graph.ejection_port
    inputs_at = {n: [p_out] for n in live}
    alive = live_wiring(graph, killed).channels
    for channel in alive:
        inputs_at[channel.dst].append(channel.in_port)
    for channel in alive:
        succ = (channel.dst, channel.in_port)
        for in_idx in inputs_at[channel.src]:
            if channel.out_port in turns.get(in_idx, ()):
                reverse.setdefault(succ, []).append(
                    ((channel.src, in_idx), channel.out_port)
                )
    tables = {}
    for dest in live:
        next_hop = {}
        frontier = []
        for in_idx in inputs_at[dest]:
            if p_out in turns.get(in_idx, ()):
                next_hop[(dest, in_idx)] = p_out
                frontier.append((dest, in_idx))
        while frontier:
            best = {}
            for state in frontier:
                for pred, out in reverse.get(state, ()):
                    if pred in next_hop:
                        continue
                    cur = best.get(pred)
                    if cur is None or _BFS_PRIORITY[out] < _BFS_PRIORITY[cur]:
                        best[pred] = out
            next_hop.update(best)
            frontier = list(best)
        tables[dest] = next_hop
    return tables


def oracle_route(tables, node, in_dir, dest):
    """The per-state routing's ``route``: an output port, or the
    :class:`RoutingError` message it raises."""
    table = tables.get(dest)
    if table is None:
        return f"destination {dest} is a failed router"
    out = table.get((node, int(in_dir)))
    if out is None:
        return (
            f"no surviving path from {node} (input "
            f"{Direction(in_dir).name}) to {dest}"
        )
    return out


def routed(routing, node, in_dir, dest):
    try:
        return int(routing.route(node, Direction(in_dir), dest))
    except RoutingError as exc:
        return str(exc)


def assert_matches_oracle(routing, graph, turns):
    nodes = list(graph.nodes)
    dead = routing.dead_nodes
    live = [n for n in nodes if n not in dead]
    tables = per_state_tables(graph, turns, routing.dead_links, live)
    p_in = int(Direction.P)
    for dest in nodes:
        assert dict(routing.next_hop_items(dest)) == tables.get(dest, {})
    for src in nodes:
        for dest in nodes:
            want = (
                src not in dead
                and dest not in dead
                and (src == dest or (src, p_in) in tables[dest])
            )
            assert routing.reachable(src, dest) == want
    assert routing.partitioned_pairs() == [
        (src, dest)
        for dest in live
        for src in live
        if src != dest and (src, p_in) not in tables[dest]
    ]
    for dest in nodes:
        for node in nodes:
            for in_dir in range(graph.num_ports):
                assert routed(routing, node, in_dir, dest) == oracle_route(
                    tables, node, in_dir, dest
                )


#: The families the fault-aware routing runs on, Half Ruche included.
_DESIGNS = (
    ("mesh", False),
    ("ruche1", False),
    ("multimesh", False),
    ("ruche2-depop", False),
    ("ruche2-depop", True),
    ("ruche3-pop", False),
    ("ruche3-pop", True),
)


@tiered_settings(25, deadline=None)
@given(
    design=st.sampled_from(_DESIGNS),
    width=st.integers(4, 7),
    height=st.integers(3, 6),
    links=st.integers(0, 8),
    routers=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_property_class_bfs_equals_per_state_bfs(
    design, width, height, links, routers, seed
):
    name, half = design
    config = NetworkConfig.from_name(name, width, height, half=half)
    faults = FaultSchedule.random_mixed(
        config, links=links, routers=routers, seed=seed
    )
    routing = FaultAwareTableRouting(
        config, faults.graph, faults.killed_channels, faults.dead_routers
    )
    # The fully-connected crossbar: one class per router.
    classes = routing.input_classes()
    assert len(set(classes.values())) == len(routing._nodes)
    assert_matches_oracle(
        routing, faults.graph, port_turns(fault_tolerant_matrix(config))
    )


def test_partial_turn_matrix_gives_a_router_several_classes():
    """On a dimension-ordered crossbar the inputs of one router turn
    differently, so a router has several classes, and the class search
    must still be the per-state search."""
    config = NetworkConfig.from_name("ruche2-depop", 6, 5)
    faults = FaultSchedule(
        config,
        dead_links=[(Coord(2, 2), Direction.E), (Coord(4, 1), Direction.S)],
        dead_routers=[Coord(1, 3)],
    )
    routing = FaultAwareTableRouting(
        config, faults.graph, faults.killed_channels, faults.dead_routers
    )
    turns = port_turns(connectivity_matrix(config))
    routing._tables = routing._build_tables(faults.graph, turns)
    classes = routing.input_classes()
    per_router = {}
    for (node, _in_port), k in classes.items():
        per_router.setdefault(node, set()).add(k)
    assert max(len(ks) for ks in per_router.values()) > 1
    assert routing.partitioned_pairs()  # DOR turns cannot detour
    assert_matches_oracle(routing, faults.graph, turns)
