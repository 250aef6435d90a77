"""Topology construction: nodes, channels, bisection accounting.

A :class:`Topology` materializes a :class:`~repro.core.params.NetworkConfig`
into the tiles and physical channels the physical models measure, and
emits them as the port graph (:meth:`Topology.port_graph`) every other
consumer reads; where a channel goes, whether it exists and which nodes
are endpoints are questions for that graph (``dest_of``, ``has_output``,
``endpoint_only_nodes``).  It also provides the analytic quantities used
by the paper's Table 4 (bisection bandwidth vs. memory-tile bandwidth)
and Table 1 (physical-scalability properties).

Coordinate system: ``x`` in ``[0, width)`` grows eastward; ``y`` in
``[0, height)`` grows southward.  When ``edge_memory`` is enabled, memory
endpoints occupy the phantom rows ``y = -1`` (north) and ``y = height``
(south), one per column, reachable through the edge routers' vertical
channels — the arrangement of the cellular manycore in Section 4.5+ —
as the graph's endpoint-only nodes, on channels of latency 1.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple, Union

from repro.core.coords import (
    ALL_DIRECTIONS,
    MESH_DIRECTIONS,
    RUCHE_HORIZONTAL,
    RUCHE_VERTICAL,
    Coord,
    Direction,
)
from repro.core.params import NetworkConfig, TopologyKind
from repro.core.portgraph import PortChannel, PortGraph
from repro.errors import ConfigError

#: A physical channel: (source tile, output direction, destination tile).
Channel = Tuple[Coord, Direction, Coord]
#: What builds a design point's topology: :func:`make_topology`, or a
#: plugin provider's topology factory.
Emitter = Callable[[NetworkConfig], "Topology"]


class Topology:
    """The physical structure of one network design point.

    Parameters
    ----------
    config:
        The network design point to materialize.
    """

    def __init__(self, config: NetworkConfig) -> None:
        self.config = config
        self.width = config.width
        self.height = config.height
        self.nodes: List[Coord] = list(self._build_nodes())
        self.channels: List[Channel] = list(self._build_channels())

    # ------------------------------------------------------------------
    # Node and channel construction
    # ------------------------------------------------------------------
    def _build_nodes(self) -> Iterable[Coord]:
        """The routable tiles, in canonical (row-major) order.

        Subclasses override this to change the node set — the 3-D pack
        yields :class:`~repro.core.coords.Coord3` tiles layer by layer —
        and every consumer (simulator enumeration, port-graph
        fingerprints, route tables) follows this order.
        """
        return (
            Coord(x, y)
            for y in range(self.height)
            for x in range(self.width)
        )

    def _build_channels(self) -> Iterable[Channel]:
        cfg = self.config
        kind = cfg.kind
        for node in self.nodes:
            x, y = node
            # Local (mesh) channels.  Torus dimensions use wrap-around
            # rings instead of open rows/columns.
            if kind.is_torus:
                yield from self._ring_channels(node, horizontal=True)
            else:
                if x + 1 < self.width:
                    yield (node, Direction.E, Coord(x + 1, y))
                if x - 1 >= 0:
                    yield (node, Direction.W, Coord(x - 1, y))
            if kind is TopologyKind.FOLDED_TORUS:
                yield from self._ring_channels(node, horizontal=False)
            else:
                if y + 1 < self.height:
                    yield (node, Direction.S, Coord(x, y + 1))
                if y - 1 >= 0:
                    yield (node, Direction.N, Coord(x, y - 1))
            # Ruche channels, horizontal then vertical.
            rf = cfg.ruche_factor
            if cfg.has_horizontal_ruche:
                if x + rf < self.width:
                    yield (node, Direction.RE, Coord(x + rf, y))
                if x - rf >= 0:
                    yield (node, Direction.RW, Coord(x - rf, y))
            if cfg.has_vertical_ruche:
                if y + rf < self.height:
                    yield (node, Direction.RS, Coord(x, y + rf))
                if y - rf >= 0:
                    yield (node, Direction.RN, Coord(x, y - rf))
        # Edge memory channels (both directions, so memory tiles can both
        # receive requests and inject responses).
        if cfg.edge_memory:
            if kind is TopologyKind.FOLDED_TORUS:
                raise ConfigError(
                    "edge memory is not defined for a full torus "
                    "(the vertical dimension has no edges)"
                )
            for x in range(self.width):
                north = Coord(x, -1)
                south = Coord(x, self.height)
                yield (Coord(x, 0), Direction.N, north)
                yield (north, Direction.S, Coord(x, 0))
                yield (Coord(x, self.height - 1), Direction.S, south)
                yield (south, Direction.N, Coord(x, self.height - 1))

    def _ring_channels(self, node: Coord, horizontal: bool) -> Iterable[Channel]:
        x, y = node
        if horizontal:
            k = self.width
            yield (node, Direction.E, Coord((x + 1) % k, y))
            yield (node, Direction.W, Coord((x - 1) % k, y))
        else:
            k = self.height
            yield (node, Direction.S, Coord(x, (y + 1) % k))
            yield (node, Direction.N, Coord(x, (y - 1) % k))

    # ------------------------------------------------------------------
    # Port-graph emission
    # ------------------------------------------------------------------
    def port_names(self) -> Tuple[str, ...]:
        """Human-readable name per port id, for rendering findings."""
        return tuple(direction.name for direction in ALL_DIRECTIONS)

    def port_graph(self) -> PortGraph:
        """Emit this topology as the port-graph IR.

        The single contract between construction and every downstream
        consumer (route tabulation, both engines' wiring, certification).
        Channel order preserves :attr:`channels` construction order
        bit-for-bit, so two builds of the same config produce the same
        :meth:`~repro.core.portgraph.PortGraph.fingerprint`.  A channel
        to or from an edge-memory endpoint has latency 1 (an endpoint
        is a sink or an entry FIFO); the others take the config's
        latency for their direction.
        """
        cfg = self.config
        routers = frozenset(self.nodes)
        return PortGraph(
            nodes=tuple(self.nodes),
            num_ports=len(ALL_DIRECTIONS),
            ejection_port=int(Direction.P),
            port_names=self.port_names(),
            channels=tuple(
                PortChannel(
                    src=src,
                    out_port=int(direction),
                    dst=dst,
                    in_port=int(direction.opposite),
                    latency=(
                        cfg.latency_for(direction)
                        if src in routers and dst in routers
                        else 1
                    ),
                    width=cfg.channel_width_bits,
                )
                for src, direction, dst in self.channels
            ),
        )

    @property
    def router_directions(self) -> Tuple[Direction, ...]:
        """The full port list of this design's router (including ``P``).

        This is the router *radix* used by the physical models; edge tiles
        leave some ports unconnected but are physically identical tiles
        (the paper's tiling requirement).
        """
        cfg = self.config
        dirs: List[Direction] = list(MESH_DIRECTIONS)
        if cfg.has_horizontal_ruche:
            dirs += list(RUCHE_HORIZONTAL)
        if cfg.has_vertical_ruche:
            dirs += list(RUCHE_VERTICAL)
        return tuple(dirs)

    def link_span(self, direction: Direction) -> int:
        """Physical length of a channel, in tile pitches.

        Local mesh links span one tile; Ruche links span ``ruche_factor``
        tiles; folded-torus links span two tiles (the folding interleaves
        every other tile, exactly as in the Tenstorrent layouts the paper
        cites).
        """
        if direction is Direction.P:
            return 0
        if direction.is_ruche:
            return self.config.ruche_factor
        if self.config.kind is TopologyKind.FOLDED_TORUS:
            return 2
        if self.config.kind is TopologyKind.HALF_TORUS and direction.is_horizontal:
            return 2
        return 1

    # ------------------------------------------------------------------
    # Analytic bandwidth quantities (Table 4)
    # ------------------------------------------------------------------
    def bisection_channels(self, axis: str = "vertical") -> int:
        """Number of channels crossing the array's bisection cut.

        ``axis="vertical"`` cuts between columns ``width/2 - 1`` and
        ``width/2`` (the cut stressed by the paper's all-to-edge traffic);
        ``axis="horizontal"`` cuts between the middle rows.  Each channel
        carries one flit per cycle, so this count *is* the bisection
        bandwidth in flits/cycle for unit channel width.
        """
        if axis == "vertical":
            cut = self.width // 2

            def crosses(src: Coord, dst: Coord) -> bool:
                return (src.x < cut) != (dst.x < cut)

        elif axis == "horizontal":
            cut = self.height // 2

            def crosses(src: Coord, dst: Coord) -> bool:
                return (src.y < cut) != (dst.y < cut)

        else:
            raise ConfigError(f"unknown bisection axis: {axis!r}")
        return sum(
            1
            for src, _direction, dst in self.channels
            if dst.y not in (-1, self.height)  # exclude memory stubs
            and src.y not in (-1, self.height)
            and crosses(src, dst)
        )

    def memory_tile_bandwidth(self) -> int:
        """Aggregate memory-port bandwidth in flits/cycle (Table 4).

        One port per column on each of the northern and southern edges.
        """
        return 2 * self.width

    # ------------------------------------------------------------------
    # Table 1: physical scalability criteria
    # ------------------------------------------------------------------
    def physical_properties(self) -> Dict[str, bool]:
        """The paper's Table 1 row for this topology."""
        return physical_properties(self.config.kind)


#: Table 1 reference rows for topologies the paper compares against but does
#: not simulate.  Keys are the column headers of Table 1.
_TABLE1_CRITERIA = (
    "regular_tile_shape",
    "regular_wire_routing",
    "constant_router_radix",
    "standard_cell_based",
    "non_power_of_2_tiling",
    "long_range_links",
    "constant_link_distance",
)

_TABLE1_ROWS: Dict[str, Sequence[bool]] = {
    "ruche": (True, True, True, True, True, True, True),
    "torus": (True, True, True, True, True, True, True),
    "mesh": (True, True, True, True, True, False, True),
    "multimesh": (True, True, True, True, True, False, True),
    "flattened-butterfly": (False, False, False, True, False, True, False),
    "mecs": (False, False, False, True, True, True, False),
    "swizzle-switch": (False, False, False, False, True, True, False),
}

_KIND_TO_TABLE1 = {
    TopologyKind.MESH: "mesh",
    TopologyKind.FOLDED_TORUS: "torus",
    TopologyKind.HALF_TORUS: "torus",
    TopologyKind.FULL_RUCHE: "ruche",
    TopologyKind.HALF_RUCHE: "ruche",
    TopologyKind.RUCHE_ONE: "ruche",
    TopologyKind.MULTI_MESH: "multimesh",
    # The 3-D pack inherits its per-layer physical row: a 3-D mesh is a
    # stack of meshes, a 3-D (folded) torus a stack of tori.
    TopologyKind.MESH3D: "mesh",
    TopologyKind.TORUS3D: "torus",
}


def make_topology(config: NetworkConfig) -> Topology:
    """The builtin :class:`Topology` subclass for a config's kind.

    The kind-aware counterpart of calling ``Topology(config)`` directly:
    3-D kinds dispatch to the :mod:`repro.core.topo3d` subclasses (whose
    node set and channels span layers), everything else builds the base
    2-D topology.  Construction paths that take a bare config
    (fault-tolerant matrices, the static verifier, fault-aware tables)
    route through here so they stay kind-agnostic.
    """
    if config.kind.is_3d:
        # Imported lazily: topo3d depends on this module.
        from repro.core.topo3d import topology_for_config

        return topology_for_config(config)
    return Topology(config)


def physical_properties(kind: Union[TopologyKind, str]) -> Dict[str, bool]:
    """Table 1 physical-scalability row for a topology.

    ``kind`` may be a :class:`TopologyKind` or one of the reference row
    names (``"flattened-butterfly"``, ``"mecs"``, ``"swizzle-switch"``).
    """
    if isinstance(kind, TopologyKind):
        row = _TABLE1_ROWS[_KIND_TO_TABLE1[kind]]
    else:
        try:
            row = _TABLE1_ROWS[str(kind)]
        except KeyError as exc:
            raise ConfigError(
                f"unknown topology for Table 1: {kind!r}"
            ) from exc
    return dict(zip(_TABLE1_CRITERIA, row))


def table1_criteria() -> Tuple[str, ...]:
    """Column headers of Table 1, in paper order."""
    return _TABLE1_CRITERIA


def table1_topologies() -> Tuple[str, ...]:
    """Row names of Table 1, in paper order."""
    return (
        "ruche",
        "torus",
        "mesh",
        "multimesh",
        "flattened-butterfly",
        "mecs",
        "swizzle-switch",
    )
