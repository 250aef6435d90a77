"""Routing algorithms for every topology the paper evaluates.

All algorithms are *deterministic dimension-ordered* variants, computed
per-hop from ``(current tile, input port, destination)`` plus a small
per-packet state decided at injection (the subnet class for Ruche-One /
multi-mesh, the current VC for torus).  This mirrors the paper's RTL route
computation and keeps every algorithm deadlock-free:

* **Mesh**: minimal X-Y (or Y-X) DOR.
* **Ruche** (Section 3.2, Figure 4): the first dimension routes
  *Ruche-first* — board a Ruche channel like a highway while the remaining
  distance warrants it, then finish on local links; the second dimension
  routes *local-first* — take local links until the remaining distance is a
  multiple of the Ruche Factor, then ride Ruche channels to the destination.
  The *fully-populated* variant allows direct turns off a Ruche channel;
  the *depopulated* variant requires getting off to local links first and
  only boards second-dimension Ruche channels from same-axis inputs, which
  makes it (mildly) non-minimal but prunes 16 crossbar connections
  (Figure 5).
* **Ruche-One** (Figure 1f): Ruche Factor 1; a packet rides the Ruche
  subnet for its entire path when its total Manhattan distance is even,
  and the local subnet when odd, balancing the two parallel networks.
* **Multi-mesh** (Figure 3a): two parallel meshes; mesh 0 when the
  Manhattan distance is even, mesh 1 otherwise.
* **Folded torus**: shortest-way DOR around each ring with two virtual
  channels and *dateline* partitioning for deadlock freedom (Dally &
  Seitz); crossing a ring's wrap link promotes the packet to VC 1.
"""

from __future__ import annotations

import functools
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    cast,
)

from repro.core.coords import Coord, Direction
from repro.core.params import DorOrder, NetworkConfig, TopologyKind
from repro.core.portgraph import (
    NodeId,
    PortGraph,
    PortRef,
    ensure_port_graph,
    killed_channels,
    live_wiring,
)
from repro.core.registry import register_routing
from repro.errors import ConfigError, RoutingError

if TYPE_CHECKING:
    from typing import Union

    from repro.core.topology import Topology

# Axis direction tables: (negative local, positive local, negative ruche,
# positive ruche).  "Positive" means growing coordinate (E for x, S for y).
_AxisDirs = Tuple[Direction, Direction, Direction, Direction]
_X_DIRS: _AxisDirs = (Direction.W, Direction.E, Direction.RW, Direction.RE)
_Y_DIRS: _AxisDirs = (Direction.N, Direction.S, Direction.RN, Direction.RS)

_X_AXIS_INPUTS = frozenset(_X_DIRS)
_Y_AXIS_INPUTS = frozenset(_Y_DIRS)


class RoutingAlgorithm:
    """Base class: per-hop deterministic route computation.

    Subclasses implement :meth:`route`, returning the output direction for
    a packet at ``node`` that arrived on ``in_dir`` heading for ``dest``.
    ``subnet`` is the packet's injection-time class (see
    :meth:`injection_subnet`); non-classed algorithms ignore it.
    """

    #: True when the algorithm needs virtual-channel state (torus family).
    uses_vcs = False

    def __init__(self, config: NetworkConfig) -> None:
        self.config = config
        self.width = config.width
        self.height = config.height
        first_axis_is_x = config.dor_order is DorOrder.XY
        self._first_axis_is_x = first_axis_is_x
        self._route_caches: Dict[Coord, Dict[Any, Any]] = {}

    def node_route_cache(self, node: Coord) -> Dict[Any, Any]:
        """Per-node route memo shared by every router built at ``node``.

        Routing is a pure function of ``(in port, destination, subnet)``
        at a given tile, so routers memoize their lookups here; because
        :func:`make_routing` is itself memoized per config, repeated
        simulations of the same design point (rate/seed sweeps) start
        with warm tables instead of recomputing every route per packet.
        """
        cache = self._route_caches.get(node)
        if cache is None:
            cache = self._route_caches[node] = {}
        return cache

    def injection_subnet(self, src: Coord, dest: Coord) -> int:
        """Per-packet subnet class chosen at injection (default: none)."""
        return 0

    def route(
        self, node: Coord, in_dir: Direction, dest: Coord, subnet: int = 0
    ) -> Direction:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Analytic helpers
    # ------------------------------------------------------------------
    def compute_path(
        self, src: Coord, dest: Coord, subnet: Optional[int] = None
    ) -> List[Tuple[Coord, Direction]]:
        """The full hop sequence from ``src`` to ``dest``.

        Returns a list of ``(tile, output direction)`` pairs, ending with
        the ``P`` ejection at the destination.  Used for zero-load
        latency, diameters, and routing validation.
        """
        if subnet is None:
            subnet = self.injection_subnet(src, dest)
        path: List[Tuple[Coord, Direction]] = []
        node, in_dir = src, Direction.P
        limit = 4 * (self.width + self.height) * max(1, self.config.ruche_factor or 1)
        for _ in range(limit):
            out = self.route(node, in_dir, dest, subnet)
            path.append((node, out))
            if out is Direction.P:
                if node != dest:
                    raise RoutingError(
                        f"ejected at {node} but destination is {dest}"
                    )
                return path
            node, in_dir = self._advance(node, out)
        raise RoutingError(
            f"route from {src} to {dest} did not converge within {limit} hops"
        )

    def hop_count(self, src: Coord, dest: Coord, subnet: Optional[int] = None) -> int:
        """Number of channel traversals from ``src`` to ``dest``."""
        return len(self.compute_path(src, dest, subnet)) - 1

    def _advance(self, node: Coord, out: Direction) -> Tuple[Coord, Direction]:
        dx, dy = out.step(max(1, self.config.ruche_factor))
        nxt = node.offset(dx, dy)
        if self.config.kind.is_torus:
            wrap_x = self.config.kind in (
                TopologyKind.FOLDED_TORUS,
                TopologyKind.HALF_TORUS,
            )
            wrap_y = self.config.kind is TopologyKind.FOLDED_TORUS
            x = nxt.x % self.width if wrap_x else nxt.x
            y = nxt.y % self.height if wrap_y else nxt.y
            nxt = Coord(x, y)
        return nxt, out.opposite


class MeshDOR(RoutingAlgorithm):
    """Minimal dimension-ordered routing on a 2-D mesh."""

    def route(
        self, node: Coord, in_dir: Direction, dest: Coord, subnet: int = 0
    ) -> Direction:
        dx = dest.x - node.x
        dy = dest.y - node.y
        if self._first_axis_is_x:
            if dx:
                return Direction.E if dx > 0 else Direction.W
            if dy:
                return Direction.S if dy > 0 else Direction.N
        else:
            if dy:
                return Direction.S if dy > 0 else Direction.N
            if dx:
                return Direction.E if dx > 0 else Direction.W
        return Direction.P


class RucheDOR(RoutingAlgorithm):
    """Ruche-first / local-first DOR for Half and Full Ruche networks."""

    def __init__(self, config: NetworkConfig) -> None:
        super().__init__(config)
        self.rf = config.ruche_factor
        self.depopulated = config.depopulated
        self._x_has_ruche = config.has_horizontal_ruche
        self._y_has_ruche = config.has_vertical_ruche

    def route(
        self, node: Coord, in_dir: Direction, dest: Coord, subnet: int = 0
    ) -> Direction:
        dx = dest.x - node.x
        dy = dest.y - node.y
        if self._first_axis_is_x:
            if dx:
                return self._first_axis(dx, _X_DIRS, self._x_has_ruche)
            if dy:
                return self._second_axis(
                    dy, _Y_DIRS, self._y_has_ruche, in_dir, _Y_AXIS_INPUTS
                )
        else:
            if dy:
                return self._first_axis(dy, _Y_DIRS, self._y_has_ruche)
            if dx:
                return self._second_axis(
                    dx, _X_DIRS, self._x_has_ruche, in_dir, _X_AXIS_INPUTS
                )
        return Direction.P

    def _first_axis(
        self, d: int, dirs: _AxisDirs, has_ruche: bool
    ) -> Direction:
        """Ruche-first: ride the highway while the distance warrants it.

        Fully-populated boards a Ruche channel whenever ``|d| >= RF`` (it
        may land exactly on the turn column and turn straight off the
        Ruche input); depopulated boards only when ``|d| > RF`` so that the
        final first-dimension hop is always a local link.
        """
        neg_local, pos_local, neg_ruche, pos_ruche = dirs
        adist = abs(d)
        if has_ruche:
            boards = adist > self.rf if self.depopulated else adist >= self.rf
            if boards:
                return pos_ruche if d > 0 else neg_ruche
        return pos_local if d > 0 else neg_local

    def _second_axis(
        self,
        d: int,
        dirs: _AxisDirs,
        has_ruche: bool,
        in_dir: Direction,
        axis_inputs: FrozenSet[Direction],
    ) -> Direction:
        """Local-first: local links until the remainder divides the RF.

        Depopulated routers only board second-dimension Ruche channels from
        same-axis inputs (Figure 5: the RS/RN outputs lose their P, W, E,
        RW, RE inputs), so a turning packet always takes at least one local
        hop first.
        """
        neg_local, pos_local, neg_ruche, pos_ruche = dirs
        adist = abs(d)
        if has_ruche and adist % self.rf == 0:
            allowed = (not self.depopulated) or (in_dir in axis_inputs)
            if allowed:
                return pos_ruche if d > 0 else neg_ruche
        return pos_local if d > 0 else neg_local


class _ParitySubnetRouting(RoutingAlgorithm):
    """Shared logic for Ruche-One and multi-mesh parity-balanced routing."""

    #: subnet value that maps onto the Ruche-named direction set.
    _RUCHE_SUBNET = 1

    def route(
        self, node: Coord, in_dir: Direction, dest: Coord, subnet: int = 0
    ) -> Direction:
        dx = dest.x - node.x
        dy = dest.y - node.y
        ruche_class = subnet == self._RUCHE_SUBNET
        if self._first_axis_is_x:
            if dx:
                return self._axis_dir(dx, _X_DIRS, ruche_class)
            if dy:
                return self._axis_dir(dy, _Y_DIRS, ruche_class)
        else:
            if dy:
                return self._axis_dir(dy, _Y_DIRS, ruche_class)
            if dx:
                return self._axis_dir(dx, _X_DIRS, ruche_class)
        return Direction.P

    @staticmethod
    def _axis_dir(d: int, dirs: _AxisDirs, ruche_class: bool) -> Direction:
        neg_local, pos_local, neg_ruche, pos_ruche = dirs
        if ruche_class:
            return pos_ruche if d > 0 else neg_ruche
        return pos_local if d > 0 else neg_local


class RucheOneRouting(_ParitySubnetRouting):
    """Ruche-One: even total distance rides the Ruche subnet (Section 3.2)."""

    def injection_subnet(self, src: Coord, dest: Coord) -> int:
        return 1 if src.manhattan(dest) % 2 == 0 else 0


class MultiMeshRouting(_ParitySubnetRouting):
    """2x multi-mesh: even Manhattan distance uses mesh 0 (Section 4.2)."""

    def injection_subnet(self, src: Coord, dest: Coord) -> int:
        return 0 if src.manhattan(dest) % 2 == 0 else 1


class TorusDOR(RoutingAlgorithm):
    """Shortest-way DOR with dateline VC partitioning for (half-)torus.

    Returns both an output direction and an output VC through
    :meth:`route_vc`.  Each unidirectional ring has one *dateline* at its
    wrap link; packets that will traverse the dateline start on VC 0 and
    are promoted to VC 1 when they cross it, breaking the cyclic channel
    dependency.  Packets whose ring segment never touches the dateline
    cannot contribute to either cycle, so they may use either VC; they are
    spread across both by a per-flow hash, which keeps delivery in order
    (the VC sequence is deterministic per source/destination pair) while
    recovering the buffer utilization a VC0-only scheme would waste.
    """

    uses_vcs = True

    def __init__(self, config: NetworkConfig) -> None:
        super().__init__(config)
        self._x_is_ring = True
        self._y_is_ring = config.kind is TopologyKind.FOLDED_TORUS

    def route(
        self, node: Coord, in_dir: Direction, dest: Coord, subnet: int = 0
    ) -> Direction:
        out, _vc = self.route_vc(node, in_dir, 0, dest)
        return out

    def route_vc(
        self, node: Coord, in_dir: Direction, in_vc: int, dest: Coord
    ) -> Tuple[Direction, int]:
        """Output ``(direction, vc)`` for a packet holding VC ``in_vc``."""
        if self._first_axis_is_x:
            axes = (("x", node.x, dest.x), ("y", node.y, dest.y))
        else:
            axes = (("y", node.y, dest.y), ("x", node.x, dest.x))
        for axis, cur, tgt in axes:
            if cur == tgt:
                continue
            if axis == "x":
                k, is_ring, dirs = self.width, self._x_is_ring, _X_DIRS
            else:
                k, is_ring, dirs = self.height, self._y_is_ring, _Y_DIRS
            out = self._ring_dir(cur, tgt, k, is_ring, dirs, dest)
            same_dim = (
                in_dir in _X_AXIS_INPUTS
                if out in _X_AXIS_INPUTS
                else in_dir in _Y_AXIS_INPUTS
            )
            if same_dim:
                vc = in_vc
            elif is_ring and self._crosses_ahead(out, cur, tgt, k):
                vc = 0  # will be promoted at the dateline hop
            else:
                # Never touches the dateline in this ring: spread across
                # both VCs, deterministically per destination flow.
                vc = (dest.x + dest.y) & 1 if is_ring else 0
            if self._crosses_dateline(out, cur, k):
                vc = 1
            return out, vc
        return Direction.P, 0

    @staticmethod
    def _crosses_ahead(out: Direction, cur: int, tgt: int, k: int) -> bool:
        """True when the remaining ring segment includes the wrap link."""
        if out in (Direction.E, Direction.S):
            return tgt < cur
        return tgt > cur

    @staticmethod
    def _ring_dir(
        cur: int, tgt: int, k: int, is_ring: bool, dirs: _AxisDirs, dest: Coord
    ) -> Direction:
        neg_local, pos_local, _nr, _pr = dirs
        if not is_ring:
            return pos_local if tgt > cur else neg_local
        fwd = (tgt - cur) % k
        bwd = (cur - tgt) % k
        if fwd == bwd:
            # Exact half-ring distance: break the tie per destination flow
            # (deterministic, hence in-order) so neither unidirectional
            # ring carries all of the half-way traffic.
            return pos_local if (dest.x + dest.y) % 2 == 0 else neg_local
        return pos_local if fwd < bwd else neg_local

    def _crosses_dateline(self, out: Direction, cur: int, k: int) -> bool:
        """True when this hop traverses the ring's wrap (dateline) link."""
        if out in (Direction.E, Direction.S):
            return cur == k - 1 and self._axis_is_ring(out)
        if out in (Direction.W, Direction.N):
            return cur == 0 and self._axis_is_ring(out)
        return False

    def _axis_is_ring(self, out: Direction) -> bool:
        return self._x_is_ring if out.is_horizontal else self._y_is_ring


#: Tie-break order among equal-distance outputs in the fault-aware BFS.
#: X-axis moves come first so that, on a healthy array, the recomputed
#: tables collapse to the same X-Y dimension order the DOR algorithms use
#: (and therefore inherit their deadlock freedom); detours near faults are
#: the only deviations.
_BFS_PRIORITY = {
    int(d): rank
    for rank, d in enumerate(
        (
            Direction.P,
            Direction.E,
            Direction.W,
            Direction.RE,
            Direction.RW,
            Direction.S,
            Direction.N,
            Direction.RS,
            Direction.RN,
        )
    )
}
#: The output port of each :data:`_BFS_PRIORITY` rank.
_BFS_ORDER = sorted(_BFS_PRIORITY, key=_BFS_PRIORITY.__getitem__)

#: A directed link identified by its source node and output direction.
LinkId = Tuple[NodeId, Direction]


class FaultAwareTableRouting(RoutingAlgorithm):
    """Table routing recomputed by BFS around dead links and routers.

    For every destination a backward breadth-first search over the
    *surviving* channel graph produces a next-hop table keyed by
    ``(tile, input port)``.  Feasible turns come from the
    fault-tolerant crossbar (:func:`~repro.core.connectivity.
    fault_tolerant_matrix`): dimension-ordered switches physically lack
    the Y-to-X turns detours need, so degraded operation provisions the
    fully-connected switch and pays its area cost.  Paths are shortest
    feasible paths over the surviving graph.  Parity-subnet disciplines
    (Ruche-One / multi-mesh) are dropped under faults: every packet is
    subnet 0 and may use any surviving channel.

    Two inputs of a router with the same turn set route alike (same
    next hop, same distance), so the search runs over one state per
    *input class* — a router and one distinct turn set among its wired
    inputs — and each destination's table is one list indexed by class
    (:meth:`input_classes`, :meth:`class_next_hops`).  On the
    fully-connected crossbar every router is one class, and the search
    walks the channels once per destination.

    Unlike the healthy DOR algorithms this is not provably deadlock-free
    once faults bend routes out of dimension order; the simulator's
    forward-progress watchdog is the backstop (see
    ``docs/methodology.md``).  Node pairs left with no feasible path are
    reported by :meth:`partitioned_pairs` rather than routed into a
    livelock.  The tables walk ``graph`` less its ``killed`` channels
    (the graph and channels of the run's fault schedule).
    """

    def __init__(
        self,
        config: NetworkConfig,
        graph: PortGraph,
        killed: FrozenSet[PortRef] = frozenset(),
        dead_nodes: FrozenSet[Coord] = frozenset(),
    ) -> None:
        super().__init__(config)
        if config.uses_vcs or config.fbfc:
            raise ConfigError(
                "fault-aware routing supports wormhole-routed topologies "
                "only (mesh / Ruche family), not the torus VC/FBFC routers"
            )
        if config.edge_memory:
            raise ConfigError(
                "fault-aware routing does not model edge-memory endpoints"
            )
        from repro.core.connectivity import (
            fault_tolerant_matrix,
            port_turns,
        )

        self.dead_nodes = dead_nodes
        #: Every directed ``(node, port)`` channel the faults kill.
        self.dead_links = killed
        self._nodes = [
            n for n in graph.nodes if n not in self.dead_nodes
        ]
        # Degraded operation assumes the fault-tolerant crossbar: a DOR
        # switch physically lacks the turns detours need (see
        # fault_tolerant_matrix), and the simulator builds its routers
        # with the same matrix whenever faults are active.
        turns = port_turns(fault_tolerant_matrix(config))
        self._tables = self._build_tables(graph, turns)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_tables(
        self, graph: PortGraph, turns: Mapping[int, FrozenSet[int]]
    ) -> Dict[NodeId, List[int]]:
        """Per-destination next-hop lists, indexed by input class.

        Sets :attr:`_class_of`, ``(node, input port) -> class``: each
        live node's wired inputs (the ejection port, where packets are
        injected, and every alive channel's arrival port), one class per
        distinct turn set, numbered in node then first-input order.  A
        destination's list holds each class's output port, ``-1`` where
        no surviving path leaves it.

        Pure port-graph construction: the channels are the ones both
        engines wire (:func:`~repro.core.portgraph.live_wiring` without
        the dead links), in emitter order; turn legality comes from the
        integer turn sets of :func:`~repro.core.connectivity.port_turns`.
        """
        p_out = graph.ejection_port
        alive = live_wiring(graph, self.dead_links).channels
        inputs_at: Dict[NodeId, List[int]] = {
            n: [p_out] for n in self._nodes
        }
        for channel in alive:
            inputs_at[channel.dst].append(channel.in_port)
        class_of: Dict[Tuple[NodeId, int], int] = {}
        classes_at: Dict[NodeId, List[int]] = {}
        class_turns: List[FrozenSet[int]] = []
        for node, inputs in inputs_at.items():
            ids: Dict[FrozenSet[int], int] = {}
            for in_idx in inputs:
                turn_set = turns.get(in_idx, frozenset())
                k = ids.get(turn_set)
                if k is None:
                    k = ids[turn_set] = len(class_turns)
                    class_turns.append(turn_set)
                class_of[(node, in_idx)] = k
            classes_at[node] = list(ids.values())
        self._class_of = class_of
        # Backward edges over classes: the channel out of `pred` on
        # port `out` lands in class `succ`; kept as (rank of out, pred).
        reverse: List[List[Tuple[int, int]]] = [[] for _ in class_turns]
        for channel in alive:
            out = channel.out_port
            rank = _BFS_PRIORITY[out]
            succ = reverse[class_of[(channel.dst, channel.in_port)]]
            for pred in classes_at[channel.src]:
                if out in class_turns[pred]:
                    succ.append((rank, pred))
        blank = [-1] * len(class_turns)
        unranked = len(_BFS_ORDER)
        tables: Dict[NodeId, List[int]] = {}
        for dest in self._nodes:
            next_hop = blank.copy()
            frontier = []
            for k in classes_at[dest]:
                if p_out in class_turns[k]:
                    next_hop[k] = p_out
                    frontier.append(k)
            # Level-synchronous BFS with a deterministic, DOR-like
            # tie-break: among predecessors discovered on the same level,
            # each class keeps the output ranked first by _BFS_PRIORITY.
            while frontier:
                best: Dict[int, int] = {}
                for k in frontier:
                    for rank, pred in reverse[k]:
                        if next_hop[pred] >= 0:
                            continue
                        if rank < best.get(pred, unranked):
                            best[pred] = rank
                for pred, rank in best.items():
                    next_hop[pred] = _BFS_ORDER[rank]
                frontier = list(best)
            tables[dest] = next_hop
        return tables

    # ------------------------------------------------------------------
    # RoutingAlgorithm interface
    # ------------------------------------------------------------------
    def route(
        self, node: Coord, in_dir: Direction, dest: Coord, subnet: int = 0
    ) -> Direction:
        table = self._tables.get(dest)
        if table is None:
            raise RoutingError(f"destination {dest} is a failed router")
        k = self._class_of.get((node, int(in_dir)))
        out = -1 if k is None else table[k]
        if out < 0:
            raise RoutingError(
                f"no surviving path from {node} (input "
                f"{Direction(in_dir).name}) to {dest}"
            )
        return Direction(out)

    def next_hop_items(
        self, dest: Coord
    ) -> Iterable[Tuple[Tuple[NodeId, int], int]]:
        """All ``((tile, input port), output port)`` entries for ``dest``.

        The tabulated form of :meth:`route`, every state a packet bound
        for ``dest`` can occupy; empty for a failed-router destination.
        """
        table = self._tables.get(dest)
        if table is None:
            return ()
        return [
            (state, table[k])
            for state, k in self._class_of.items()
            if table[k] >= 0
        ]

    def input_classes(self) -> Mapping[Tuple[NodeId, int], int]:
        """``(tile, input port) -> class`` for every wired live input:
        the index into each :meth:`class_next_hops` list."""
        return self._class_of

    def class_next_hops(self, dest: Coord) -> Optional[List[int]]:
        """``dest``'s output port per input class (``-1``: no surviving
        path), or ``None`` for a failed-router destination.  Read-only:
        the routing's own table."""
        return self._tables.get(dest)

    # ------------------------------------------------------------------
    # Reachability analysis
    # ------------------------------------------------------------------
    def reachable(self, src: Coord, dest: Coord) -> bool:
        """True when a packet injected at ``src`` can reach ``dest``."""
        if src in self.dead_nodes or dest in self.dead_nodes:
            return False
        if src == dest:
            return True
        table = self._tables.get(dest)
        k = self._class_of.get((src, int(Direction.P)))
        return table is not None and k is not None and table[k] >= 0

    def partitioned_pairs(self) -> List[Tuple[NodeId, NodeId]]:
        """All (src, dest) pairs of live tiles with no surviving path.

        A campaign checks this *before* injecting so that a partitioned
        pair is reported as degraded coverage instead of silently
        livelocking the run.
        """
        p_in = int(Direction.P)
        injection = [
            (src, self._class_of.get((src, p_in), -1)) for src in self._nodes
        ]
        return [
            (src, dest)
            for dest in self._nodes
            for src, k in injection
            if src != dest and (k < 0 or self._tables[dest][k] < 0)
        ]


#: A flat routing-table state: (node, input port index, held VC, subnet).
TableState = Tuple[NodeId, int, int, int]

#: A next-hop decision: (output port index, output VC).
TableEntry = Tuple[int, int]


def tabulate_next_hops(
    routing: RoutingAlgorithm,
    topology: "Union[Topology, PortGraph]",
    dest: Coord,
    *,
    sources: Optional[Iterable[Coord]] = None,
    entries: Iterable[TableState] = (),
    on_error: Optional[Callable[[TableState, RoutingError], None]] = None,
) -> Dict[TableState, TableEntry]:
    """Export ``routing``'s next-hop decisions toward ``dest`` as a table.

    This is the flat representation the compiled engine lowers to and
    the static certifier (:mod:`repro.verify.certify`) analyzes: one
    ``(node, input port, held VC, subnet) -> (output port, output VC)``
    entry per routing state reachable from injection.  The walk uses
    only the port-graph IR (``topology`` may be a
    :class:`~repro.core.portgraph.PortGraph` or anything that emits one
    via ``port_graph()``) and the routing's own per-hop function — no
    coordinate arithmetic — so any registered topology, builtin or
    plugin, and any :class:`RoutingAlgorithm`, closed-form or
    table-driven (:class:`FaultAwareTableRouting`), exports
    identically.

    ``sources`` restricts the injection frontier (the certifier passes
    only fault-reachable sources); default is every graph node.
    ``entries`` are further states to walk from: where packets enter a
    node on a channel port rather than at its injection port (an
    endpoint-only node feeding the array).
    Route computations that raise, and outputs with no wired channel,
    are reported through ``on_error`` — an unwired output keeps its
    table entry (the entry *is* the defect), a raising state gets none.
    Ejections appear as entries whose output port is the graph's
    ejection port.
    """
    graph = ensure_port_graph(topology)
    # Key VC usage on the deployed router discipline, not the routing
    # class: an FBFC torus instantiates TorusDOR (uses_vcs=True) but its
    # FbfcRouter consumes single-VC route() — bubble flow control, no
    # dateline — so the class flag alone would tabulate dateline states
    # the hardware never visits.
    routing_config = getattr(routing, "config", None)
    if routing_config is not None:
        uses_vcs = routing_config.uses_vcs
    else:
        uses_vcs = routing.uses_vcs
    p_idx = graph.ejection_port
    table: Dict[TableState, TableEntry] = {}
    frontier: List[TableState] = [
        (src, p_idx, 0, routing.injection_subnet(src, dest))
        for src in cast(
            "Iterable[Coord]",
            graph.nodes if sources is None else sources,
        )
    ]
    frontier.extend(entries)
    while frontier:
        state = frontier.pop()
        if state in table:
            continue
        raw_node, in_idx, in_vc, subnet = state
        node = cast(Coord, raw_node)
        try:
            if uses_vcs:
                out, out_vc = routing.route_vc(
                    node, Direction(in_idx), in_vc, dest
                )
            else:
                out = routing.route(node, Direction(in_idx), dest, subnet)
                out_vc = 0
        except RoutingError as exc:
            if on_error is not None:
                on_error(state, exc)
            continue
        out_idx = int(out)
        table[state] = (out_idx, out_vc)
        if out_idx == p_idx:
            continue
        hop = graph.out_map.get((node, out_idx))
        if hop is None:
            if on_error is not None:
                on_error(
                    state,
                    RoutingError(
                        f"{tuple(node)} routed {graph.port_name(out_idx)} "
                        f"but no such channel is wired"
                    ),
                )
            continue
        nxt, in_port, _latency = hop
        frontier.append((nxt, in_port, out_vc, subnet))
    return table


def make_fault_aware_routing(
    config: NetworkConfig,
    dead_links: Iterable[LinkId] = (),
    dead_nodes: Iterable[Coord] = (),
) -> FaultAwareTableRouting:
    """Routing tables recomputed around a set of faults."""
    from repro.core.topology import make_topology

    graph = make_topology(config).port_graph()
    dead = frozenset(dead_nodes)
    return FaultAwareTableRouting(
        config, graph, killed_channels(graph, dead_links, dead), dead
    )


@functools.lru_cache(maxsize=128)
def make_routing(config: NetworkConfig) -> RoutingAlgorithm:
    """Factory: the routing algorithm for a design point.

    Memoized per (frozen, hashable) config: every algorithm here is a
    pure function of the config, so instances — and their per-node route
    caches — are safely shared across simulations.  Fault-aware tables
    (:func:`make_fault_aware_routing`) are per-fault-set and stay
    unmemoized.
    """
    kind = config.kind
    if kind is TopologyKind.MESH:
        return MeshDOR(config)
    if kind in (TopologyKind.FULL_RUCHE, TopologyKind.HALF_RUCHE):
        return RucheDOR(config)
    if kind is TopologyKind.RUCHE_ONE:
        return RucheOneRouting(config)
    if kind is TopologyKind.MULTI_MESH:
        return MultiMeshRouting(config)
    if kind.is_torus:
        return TorusDOR(config)
    if kind.is_3d:
        # Imported lazily: the 3-D pack depends on this module.
        from repro.core.topo3d import make_routing_3d

        return make_routing_3d(config)
    raise RoutingError(f"no routing algorithm for {kind!r}")


def clear_routing_caches() -> None:
    """Drop the memoized routing instances (and their route tables).

    The ``lru_cache`` bound (128 configs) caps growth within a process;
    this hook exists for callers that need a cold start — the bench
    harness clears it before timing the first campaign leg, and tests
    use it to isolate cache effects.
    """
    make_routing.cache_clear()


# Registered names let a spec (or a plugin) pick an algorithm explicitly
# instead of relying on the config-kind dispatch in make_routing.
register_routing(
    "mesh-dor", description="minimal X-Y / Y-X dimension-ordered routing"
)(MeshDOR)
register_routing(
    "ruche-dor",
    description=(
        "Ruche-first / local-first DOR (pop and depop, Figure 4)"
    ),
)(RucheDOR)
register_routing(
    "ruche-one",
    description="RF=1 dual-subnet routing balanced by path parity",
)(RucheOneRouting)
register_routing(
    "multi-mesh",
    description="two parallel meshes balanced by path parity",
)(MultiMeshRouting)
register_routing(
    "torus-dor",
    description="shortest-way ring DOR with dateline VC promotion",
)(TorusDOR)
