"""The port-graph intermediate representation of a topology.

A :class:`PortGraph` is the topology-agnostic contract between the
construction layer and every consumer downstream of it: a node set
(opaque hashable ids — 2-D tiles use :class:`~repro.core.coords.Coord`,
3-D tiles :class:`~repro.core.coords.Coord3`), integer port ids per
node, a directed channel list with per-channel latency and width, and
one designated ejection port.  Emitters
(:meth:`repro.core.topology.Topology.port_graph` and any plugin
topology) guarantee that ``channels`` preserve construction order, so
fingerprints — and every tie-break taken while walking the graph — are
bit-stable across processes and releases.

Consumers:

* :func:`repro.core.routing.tabulate_next_hops` and
  :class:`~repro.core.routing.FaultAwareTableRouting` produce
  next-hop tables keyed ``(node, port)`` over it;
* both engines wire from the one :class:`Wiring` record
  :func:`live_wiring` returns, which is also where the wiring rules
  are checked: the reference :class:`~repro.sim.network.Network`
  builds its routers, links and endpoints from it (a channel of
  latency above one is a pipelined link), and :mod:`repro.sim.fastsim`
  lowers its arrays and route tables from it (the generic tabulation
  path behind non-builtin routings);
* :func:`killed_channels` is the one expansion of dead links and
  routers into dead channels: a
  :class:`~repro.sim.faults.FaultSchedule` expands its faults once,
  and :class:`~repro.core.routing.FaultAwareTableRouting` reads that
  set;
* :mod:`repro.verify.certify` certifies route soundness, turn
  legality, and CDG acyclicity natively on it, with no 2-D coordinate
  assumptions.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Tuple

from repro.errors import ConfigError

#: An opaque node id.  Builtin emitters use coordinate tuples, but
#: consumers must treat ids as hashable tokens only.
NodeId = Tuple[int, ...]


class PortChannel(NamedTuple):
    """One directed physical channel of the port graph."""

    #: Source node and the output port the channel leaves on.
    src: NodeId
    out_port: int
    #: Destination node and the input port the channel arrives on.
    dst: NodeId
    in_port: int
    #: Traversal latency in cycles (>= 1).
    latency: int
    #: Channel width in bits (flit width).
    width: int


class PortGraph:
    """A materialized topology, free of coordinate semantics.

    Parameters
    ----------
    nodes:
        The routable nodes, in the emitter's canonical order (this is
        the enumeration order of every consumer, so it is part of the
        fingerprint).  Channel endpoints outside this set are allowed —
        edge-memory stubs, for example — and are reported by
        :attr:`endpoint_only_nodes`.
    num_ports:
        Ports per node; port ids are ``0 .. num_ports - 1``.
    ejection_port:
        The port id packets eject (and inject) on.
    port_names:
        Human-readable name per port id, for rendering findings.
    channels:
        Directed channels in emitter order.
    """

    __slots__ = (
        "nodes",
        "num_ports",
        "ejection_port",
        "port_names",
        "channels",
        "out_map",
        "in_channels",
        "endpoint_only_nodes",
    )

    def __init__(
        self,
        *,
        nodes: Tuple[NodeId, ...],
        num_ports: int,
        ejection_port: int,
        port_names: Tuple[str, ...],
        channels: Tuple[PortChannel, ...],
    ) -> None:
        if len(port_names) != num_ports:
            raise ValueError(
                f"port_names has {len(port_names)} entries for "
                f"{num_ports} ports"
            )
        if not 0 <= ejection_port < num_ports:
            raise ValueError(
                f"ejection_port {ejection_port} out of range for "
                f"{num_ports} ports"
            )
        self.nodes = nodes
        self.num_ports = num_ports
        self.ejection_port = ejection_port
        self.port_names = port_names
        self.channels = channels
        #: ``(src, out_port) -> (dst, in_port, latency)``.
        out_map: Dict[Tuple[NodeId, int], Tuple[NodeId, int, int]] = {}
        #: Incoming channels per destination node, in channel order.
        in_channels: Dict[NodeId, List[PortChannel]] = {}
        node_set = frozenset(nodes)
        extra: List[NodeId] = []
        seen_extra = set(node_set)
        for channel in channels:
            if not 0 <= channel.out_port < num_ports:
                raise ValueError(
                    f"channel {channel!r}: out_port out of range"
                )
            if not 0 <= channel.in_port < num_ports:
                raise ValueError(
                    f"channel {channel!r}: in_port out of range"
                )
            if ejection_port in (channel.out_port, channel.in_port):
                raise ValueError(
                    f"channel {channel!r}: wired to the ejection port"
                )
            if channel.latency < 1:
                raise ValueError(
                    f"channel {channel!r}: latency must be >= 1"
                )
            key = (channel.src, channel.out_port)
            if key in out_map:
                raise ValueError(
                    f"duplicate output channel at {key!r}"
                )
            out_map[key] = (channel.dst, channel.in_port, channel.latency)
            in_channels.setdefault(channel.dst, []).append(channel)
            for endpoint in (channel.src, channel.dst):
                if endpoint not in seen_extra:
                    seen_extra.add(endpoint)
                    extra.append(endpoint)
        self.out_map = out_map
        self.in_channels = in_channels
        #: Channel endpoints that are not routable nodes (memory stubs).
        self.endpoint_only_nodes: Tuple[NodeId, ...] = tuple(extra)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_output(self, node: NodeId, out_port: int) -> bool:
        return (node, out_port) in self.out_map

    def dest_of(self, node: NodeId, out_port: int) -> NodeId:
        """Destination node of ``node``'s ``out_port`` channel."""
        return self.out_map[(node, out_port)][0]

    def output_ports(self, node: NodeId) -> Tuple[int, ...]:
        """The wired output ports of ``node`` (excluding ejection)."""
        return tuple(
            port
            for port in range(self.num_ports)
            if port != self.ejection_port
            and (node, port) in self.out_map
        )

    def port_name(self, port: int) -> str:
        """Render a port id (falls back to ``p<id>`` off the menu)."""
        if 0 <= port < len(self.port_names):
            return self.port_names[port]
        return f"p{port}"

    def render_node(self, node: NodeId) -> str:
        """Render a node id for findings (``(x, y[, z])``)."""
        return "(" + ", ".join(str(part) for part in node) + ")"

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def canonical_lines(self) -> Iterable[str]:
        """The canonical rendering :meth:`fingerprint` hashes."""
        yield f"ports={self.num_ports} eject={self.ejection_port}"
        yield "names=" + ",".join(self.port_names)
        yield "nodes=" + ";".join(
            ",".join(str(part) for part in node) for node in self.nodes
        )
        for channel in self.channels:
            yield (
                ",".join(str(part) for part in channel.src)
                + f">{channel.out_port}>{channel.in_port}>"
                + ",".join(str(part) for part in channel.dst)
                + f"@{channel.latency}w{channel.width}"
            )

    def fingerprint(self) -> str:
        """Stable content address of this graph (sha256 hex).

        Covers node order, channel order, port naming, and per-channel
        latency/width — two emitters produce the same fingerprint iff
        they describe the same wired machine the same way.
        """
        digest = hashlib.sha256()
        for line in self.canonical_lines():
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PortGraph(nodes={len(self.nodes)}, "
            f"channels={len(self.channels)}, ports={self.num_ports})"
        )


def ensure_port_graph(topology_or_graph: object) -> PortGraph:
    """Normalize a :class:`PortGraph` or anything with ``port_graph()``.

    The adapter the table producers use so call sites can hand either a
    materialized :class:`~repro.core.topology.Topology` (which emits its
    graph) or the graph itself.
    """
    if isinstance(topology_or_graph, PortGraph):
        return topology_or_graph
    emit = getattr(topology_or_graph, "port_graph", None)
    if emit is None:
        raise TypeError(
            f"expected a PortGraph or a topology with port_graph(), "
            f"got {type(topology_or_graph).__name__}"
        )
    graph = emit()
    if not isinstance(graph, PortGraph):
        raise TypeError(
            f"{type(topology_or_graph).__name__}.port_graph() returned "
            f"{type(graph).__name__}, expected PortGraph"
        )
    return graph


#: A ``(node, port)`` pair: one end of a channel.
PortRef = Tuple[NodeId, int]


class Wiring(NamedTuple):
    """What a machine wires from a port graph: both engines read this."""

    #: The alive router-to-router channels, in emitter order.
    channels: List[PortChannel]
    #: Per routable node, in ``graph.nodes`` order: bit ``p`` is set iff
    #: the router has an input FIFO on port ``p`` — its own output ``p``
    #: is wired and alive, or ``p`` is the ejection port, where packets
    #: are injected.  The same bits name the router's wired outputs.
    masks: Dict[NodeId, int]
    #: Per endpoint-only node with a channel out: the router input FIFO
    #: its packets enter.
    entry: Dict[NodeId, PortRef]
    #: Per endpoint-only node with channels in: the router outputs that
    #: feed it, in emitter order.
    sinks: Dict[NodeId, List[PortRef]]


def live_wiring(
    graph: PortGraph, killed: FrozenSet[PortRef] = frozenset()
) -> Wiring:
    """The :class:`Wiring` of ``graph`` without the ``killed`` channels.

    ``killed`` names dead ``(src, out_port)`` channels (see
    :func:`killed_channels`).  The wiring rules are checked here, once
    for both engines; a graph that breaks one raises
    :class:`~repro.errors.ConfigError`:

    * a channel arrives on a port where its router has an input FIFO;
    * a channel to or from an endpoint has latency 1 (an endpoint is a
      sink or an entry FIFO, not a pipelined link);
    * an endpoint has at most one channel out, and it enters a router.
    """
    channels = [
        ch for ch in graph.channels if (ch.src, ch.out_port) not in killed
    ]
    masks = dict.fromkeys(graph.nodes, 1 << graph.ejection_port)
    for ch in channels:
        if ch.src in masks:
            masks[ch.src] |= 1 << ch.out_port
    wiring = Wiring([], masks, {}, {})

    def where(ch: PortChannel) -> str:
        src, dst = graph.render_node(ch.src), graph.render_node(ch.dst)
        return f"channel {src} -> {dst}"

    for ch in channels:
        src, out_port, dst, in_port, latency, _width = ch
        into = masks.get(dst)
        if into is not None and not into >> in_port & 1:
            port = graph.port_name(in_port)
            raise ConfigError(
                f"{where(ch)} arrives on port {port}, where the router "
                f"has no input FIFO (its own {port} output is not wired)"
            )
        if into is not None and src in masks:
            wiring.channels.append(ch)
        elif latency != 1:
            raise ConfigError(
                f"{where(ch)} has latency {latency}; a channel to or "
                f"from an endpoint has latency 1"
            )
        elif src in masks:
            wiring.sinks.setdefault(dst, []).append((src, out_port))
        elif into is None or src in wiring.entry:
            raise ConfigError(
                f"endpoint {graph.render_node(src)} needs exactly one "
                f"channel out, into a router"
            )
        else:
            wiring.entry[src] = (dst, in_port)
    return wiring


def killed_channels(
    graph: PortGraph,
    dead_links: Iterable[PortRef] = (),
    dead_routers: FrozenSet[NodeId] = frozenset(),
) -> FrozenSet[PortRef]:
    """Every directed ``(src, out_port)`` channel the faults kill.

    A dead link, named by one of its channels, takes the reverse
    channel (the one leaving its far end on the port it arrives on)
    with it; a dead router takes every channel into or out of it.  A
    link the graph does not wire raises
    :class:`~repro.errors.ConfigError`.
    """
    killed: List[PortRef] = []
    for src, port in dead_links:
        hop = graph.out_map.get((src, port))
        if hop is None:
            raise ConfigError(
                f"dead link ({tuple(src)}, {graph.port_name(port)}) does "
                f"not exist in this topology"
            )
        killed += [(src, int(port)), (hop[0], hop[1])]
    if dead_routers:
        for ch in graph.channels:
            if ch.src in dead_routers or ch.dst in dead_routers:
                killed += [(ch.src, ch.out_port), (ch.dst, ch.in_port)]
    return frozenset(killed)


def minimal_distances(
    graph: PortGraph, dest: NodeId
) -> Dict[NodeId, int]:
    """Hop-count BFS distances *to* ``dest`` over the channel graph.

    The graph-distance minimality basis: level-synchronous backward BFS
    over predecessors, in channel order, so results are deterministic
    for a fixed emitter.
    """
    dist: Dict[NodeId, int] = {dest: 0}
    frontier: List[NodeId] = [dest]
    hops = 0
    while frontier:
        hops += 1
        nxt: List[NodeId] = []
        for node in frontier:
            for channel in graph.in_channels.get(node, ()):
                if channel.src not in dist:
                    dist[channel.src] = hops
                    nxt.append(channel.src)
        frontier = nxt
    return dist


__all__ = [
    "NodeId",
    "PortChannel",
    "PortGraph",
    "PortRef",
    "Wiring",
    "ensure_port_graph",
    "killed_channels",
    "live_wiring",
    "minimal_distances",
]
