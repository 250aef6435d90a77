"""The 3-D mesh / torus topology pack.

The proof load for the port-graph IR: a topology family whose nodes are
*not* 2-D coordinates, built entirely from the same machinery the 2-D
families use — :class:`~repro.core.topology.Topology` subclasses emit
the port graph, :class:`~repro.core.routing.RoutingAlgorithm`
subclasses provide per-hop XYZ dimension order, and the shared seven
-port crossbar matrix feeds the certifier's turn model.  Nothing
downstream of construction (tabulation, compiled-engine lowering,
certification) knows these networks have a third axis.

Port mapping: a 3-D router has seven ports — ``P``, the four planar
mesh directions, and an up/down pair for the ``z`` axis.  The ``z``
channels ride the otherwise-unused vertical Ruche port ids (``RN`` for
``z-``, ``RS`` for ``z+``) so nodes flow through the same 9-port
arrays as 2-D tiles; :meth:`port_names` renders them ``D`` and ``U``.
Inter-layer (e.g. TSV) latency is modelled with the existing
``ruche_channel_latency`` knob, which :meth:`NetworkConfig.latency_for`
already applies to those port ids.

Deadlock freedom: ``mesh3d`` uses strict XYZ dimension order, acyclic
by construction (the certifier proves CDG acyclicity over the IR).
``torus3d`` routes each ring shortest-way and requires flit-buffer
flow control (``fbfc=True`` is forced by the config layer); per-ring
bubble invariants stand in for datelines exactly as on the 2-D
``torus-fbfc`` design points, so the certifier applies the same CDG
waiver.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.core.connectivity import Matrix, _freeze
from repro.core.coords import Coord, Coord3, Direction
from repro.core.params import NetworkConfig, TopologyKind
from repro.core.registry import register_routing, register_topology
from repro.core.routing import RoutingAlgorithm
from repro.core.topology import Channel, Topology
from repro.errors import ConfigError, RoutingError

P, W, E, N, S, RN, RS = (
    Direction.P,
    Direction.W,
    Direction.E,
    Direction.N,
    Direction.S,
    Direction.RN,
    Direction.RS,
)

#: Output direction per axis, negative then positive way.
_AXIS_DIRS: Tuple[Tuple[Direction, Direction], ...] = (
    (W, E),
    (N, S),
    (RN, RS),
)

#: Per-direction (dx, dy, dz) unit steps of the 3-D packs.
_STEP3: Dict[Direction, Tuple[int, int, int]] = {
    W: (-1, 0, 0),
    E: (1, 0, 0),
    N: (0, -1, 0),
    S: (0, 1, 0),
    RN: (0, 0, -1),
    RS: (0, 0, 1),
}

#: XYZ dimension-ordered seven-port crossbar, shared by ``mesh3d`` and
#: ``torus3d`` (torus routers have the same switch as mesh; the flow
#: control sits in front of it, as on the 2-D torus).  Inputs may only
#: continue their own axis, turn to a *later* axis, or eject.
MESH3D_XYZ: Matrix = _freeze({
    P: (P, W, E, N, S, RN, RS),
    W: (E, N, S, RN, RS, P),
    E: (W, N, S, RN, RS, P),
    N: (S, RN, RS, P),
    S: (N, RN, RS, P),
    RN: (RS, P),
    RS: (RN, P),
})


def connectivity_matrix_3d(config: NetworkConfig) -> Matrix:
    """The seven-port crossbar of the 3-D packs."""
    if not config.kind.is_3d:
        raise ConfigError(
            f"3-D connectivity requested for {config.kind!r}"
        )
    return MESH3D_XYZ


# ---------------------------------------------------------------------------
# Topologies
# ---------------------------------------------------------------------------
class Mesh3dTopology(Topology):
    """An open ``width x height x depth`` 3-D mesh."""

    def _build_nodes(self) -> Iterable[Coord]:
        # Layer-major: z outermost, then the familiar row-major plane,
        # matching the traffic layer's node enumeration.
        return (
            Coord3(x, y, z)
            for z in range(self.config.depth)
            for y in range(self.height)
            for x in range(self.width)
        )

    def _build_channels(self) -> Iterable[Channel]:
        depth = self.config.depth
        limits = (self.width, self.height, depth)
        for node in self.nodes:
            assert isinstance(node, Coord3)
            xyz = (node.x, node.y, node.z)
            for axis, (neg, pos) in enumerate(_AXIS_DIRS):
                if xyz[axis] + 1 < limits[axis]:
                    yield (node, pos, node.offset3(*_STEP3[pos]))
                if xyz[axis] - 1 >= 0:
                    yield (node, neg, node.offset3(*_STEP3[neg]))

    def port_names(self) -> Tuple[str, ...]:
        # The z pair rides the RN/RS port ids; render them honestly.
        names = [d.name for d in Direction]
        names[int(RN)] = "D"
        names[int(RS)] = "U"
        return tuple(names)

    @property
    def router_directions(self) -> Tuple[Direction, ...]:
        return (P, W, E, N, S, RN, RS)

    def link_span(self, direction: Direction) -> int:
        if direction is Direction.P:
            return 0
        if direction in (RN, RS):
            # One layer pitch, not a Ruche span (ruche_factor is 0).
            return 1
        if (
            self.config.kind is TopologyKind.TORUS3D
            and direction.is_local_link
        ):
            # Folded rings interleave every other tile, as on the 2-D
            # folded torus.
            return 2
        return 1


class Torus3dTopology(Mesh3dTopology):
    """A ``width x height x depth`` torus: rings on all three axes."""

    def _build_channels(self) -> Iterable[Channel]:
        limits = (self.width, self.height, self.config.depth)
        for node in self.nodes:
            assert isinstance(node, Coord3)
            xyz = (node.x, node.y, node.z)
            for axis, (neg, pos) in enumerate(_AXIS_DIRS):
                k = limits[axis]
                for direction in (pos, neg):
                    step = _STEP3[direction]
                    nxt = [
                        (c + d) % k if i == axis else c + d
                        for i, (c, d) in enumerate(zip(xyz, step))
                    ]
                    yield (node, direction, Coord3(*nxt))


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------
class _Routing3d(RoutingAlgorithm):
    """Shared 3-D scaffolding: Coord3 stepping and declared minimality."""

    def __init__(self, config: NetworkConfig) -> None:
        super().__init__(config)
        if not config.kind.is_3d:
            raise ConfigError(
                f"{type(self).__name__} requires a 3-D config, "
                f"got {config.kind!r}"
            )
        self.depth = config.depth

    def _advance(
        self, node: Coord, out_dir: Direction
    ) -> Tuple[Coord, Direction]:
        if not isinstance(node, Coord3):
            raise RoutingError(f"3-D routing reached 2-D node {node!r}")
        step = _STEP3.get(out_dir)
        if step is None:
            raise RoutingError(
                f"3-D routing produced non-3-D direction {out_dir.name}"
            )
        nxt = node.offset3(*step)
        if self.config.kind is TopologyKind.TORUS3D:
            nxt = Coord3(
                nxt.x % self.width, nxt.y % self.height, nxt.z % self.depth
            )
        return nxt, out_dir.opposite

    @staticmethod
    def _deltas(node: Coord, dest: Coord) -> Tuple[int, ...]:
        if not (isinstance(node, Coord3) and isinstance(dest, Coord3)):
            raise RoutingError(
                f"3-D routing needs Coord3 endpoints, got "
                f"{node!r} -> {dest!r}"
            )
        return tuple(d - c for c, d in zip(node, dest))


@register_routing(
    "mesh3d-dor", description="minimal X-Y-Z dimension-ordered routing"
)
class Mesh3dDOR(_Routing3d):
    """Strict XYZ dimension order on the open 3-D mesh."""

    def route(
        self, node: Coord, in_dir: Direction, dest: Coord, subnet: int = 0
    ) -> Direction:
        for axis, delta in enumerate(self._deltas(node, dest)):
            if delta != 0:
                neg, pos = _AXIS_DIRS[axis]
                return pos if delta > 0 else neg
        return Direction.P

    def minimal_hops(self, src: Coord, dest: Coord) -> int:
        """3-axis Manhattan distance (declared-minimal basis)."""
        return sum(abs(d) for d in self._deltas(src, dest))


@register_routing(
    "torus3d-dor",
    description="per-ring shortest-way X-Y-Z order (FBFC rings)",
)
class Torus3dDOR(_Routing3d):
    """XYZ order, each ring traversed the shortest way.

    Ties on an even ring (distance exactly half the ring) break toward
    the positive direction, deterministically.  Deadlock freedom within
    each ring comes from the FBFC bubble invariant, not datelines, so
    the algorithm is single-VC.
    """

    def route(
        self, node: Coord, in_dir: Direction, dest: Coord, subnet: int = 0
    ) -> Direction:
        limits = (self.width, self.height, self.depth)
        for axis, delta in enumerate(self._deltas(node, dest)):
            if delta != 0:
                k = limits[axis]
                neg, pos = _AXIS_DIRS[axis]
                forward = delta % k
                return pos if forward <= k - forward else neg
        return Direction.P

    def minimal_hops(self, src: Coord, dest: Coord) -> int:
        """Sum of per-ring shortest-way distances."""
        limits = (self.width, self.height, self.depth)
        total = 0
        for axis, delta in enumerate(self._deltas(src, dest)):
            forward = delta % limits[axis]
            total += min(forward, limits[axis] - forward)
        return total


# ---------------------------------------------------------------------------
# Factories and registration
# ---------------------------------------------------------------------------
def topology_for_config(config: NetworkConfig) -> Topology:
    """The 3-D :class:`Topology` subclass for a 3-D config."""
    if config.kind is TopologyKind.MESH3D:
        return Mesh3dTopology(config)
    if config.kind is TopologyKind.TORUS3D:
        return Torus3dTopology(config)
    raise ConfigError(f"not a 3-D topology kind: {config.kind!r}")


def make_routing_3d(config: NetworkConfig) -> RoutingAlgorithm:
    """The 3-D routing algorithm for a 3-D config."""
    if config.kind is TopologyKind.MESH3D:
        return Mesh3dDOR(config)
    if config.kind is TopologyKind.TORUS3D:
        return Torus3dDOR(config)
    raise ConfigError(f"not a 3-D topology kind: {config.kind!r}")


def _config3d(
    name: str, width: int, height: int, **options: object
) -> NetworkConfig:
    # Depth arrives through spec options ({"depth": 4}); everything else
    # follows the builtin from_name grammar (torus3d forces fbfc there).
    return NetworkConfig.from_name(name, width, height, **options)


# Registered without custom component factories: the builtin
# make_topology / make_routing / connectivity_matrix dispatchers are
# kind-aware, so the 3-D packs behave as first-class builtins everywhere
# (including paths that start from a bare config).
register_topology(
    "mesh3d",
    description="3-D mesh, X-Y-Z DOR (depth option sets layers)",
    aliases=("mesh-3d",),
)(_config3d)
register_topology(
    "torus3d",
    description="3-D torus, per-ring shortest-way DOR over FBFC",
    aliases=("torus-3d",),
)(_config3d)


__all__ = [
    "MESH3D_XYZ",
    "Mesh3dDOR",
    "Mesh3dTopology",
    "Torus3dDOR",
    "Torus3dTopology",
    "connectivity_matrix_3d",
    "make_routing_3d",
    "topology_for_config",
]
