"""Exhaustive static enumeration of a deterministic routing function.

Every routing algorithm in :mod:`repro.core.routing` is a *deterministic*
per-hop function of ``(node, input port, destination)`` plus a small
injection-time class (the parity subnet, the current VC).  That makes the
set of states a packet can ever occupy finite and exactly enumerable: for
each destination, the verifier walks the one-successor state graph from
every injection state, visiting each reachable
``(node, input port, vc, subnet)`` tuple exactly once.

One walk yields every property the pre-flight gate needs:

* every emitted turn, checked against the crossbar connectivity matrix;
* every channel-to-channel dependency, accumulated into the (VC-extended)
  channel dependency graph whose acyclicity proves deadlock freedom;
* a proven hop count per source/destination pair (termination), compared
  against the minimal hop count for the minimality audit;
* any state cycle, i.e. a routing livelock, with the repeating states.

States the simulator can never create (e.g. a Y-input packet that still
needs X movement under X-Y DOR) are unreachable in this walk and hence —
correctly — never constrain the crossbar.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.core.connectivity import Matrix
from repro.core.coords import Coord, Direction
from repro.core.params import NetworkConfig, TopologyKind
from repro.core.portgraph import PortGraph, ensure_port_graph
from repro.core.routing import FaultAwareTableRouting, RoutingAlgorithm
from repro.core.spec import (
    NetworkSpec,
    build_config,
    build_faults,
    build_routing,
    network_components,
    resolve_topology,
)
from repro.core.topology import Topology, make_topology
from repro.errors import RoutingError
from repro.verify.cdg import ChannelV, DepEdge, find_cycle, format_channel
from repro.verify.report import VerificationReport
from repro.verify.turns import format_turn, routing_matrix

#: A routing state: (node, input port, held VC, parity subnet).
State = Tuple[Coord, int, int, int]

_P = int(Direction.P)
#: Sentinel hop count for states that never reach their destination.
_INF = -1


def minimal_hops_fn(config: NetworkConfig) -> Callable[[Coord, Coord], int]:
    """Per-pair minimal channel traversals for this design point.

    Minimal means monotone (never moving away from the destination):
    per axis, ``d // RF`` Ruche hops plus ``d % RF`` local hops where
    Ruche channels exist, the shorter way around for ring axes, and
    ``d`` local hops otherwise.  This is the bound minimal
    dimension-ordered routing achieves; overshooting a Ruche channel
    past the destination is by definition non-minimal even where it
    would save hops.
    """
    rf = config.ruche_factor
    width, height = config.width, config.height
    x_ring = config.kind.is_torus
    y_ring = config.kind is TopologyKind.FOLDED_TORUS
    x_ruche = config.has_horizontal_ruche
    y_ruche = config.has_vertical_ruche

    def axis(delta: int, extent: int, ring: bool, ruche: bool) -> int:
        dist = abs(delta)
        if ring:
            dist = min(dist, extent - dist)
        if ruche and rf > 1:
            return dist // rf + dist % rf
        return dist

    def minimal(src: Coord, dest: Coord) -> int:
        return axis(dest.x - src.x, width, x_ring, x_ruche) + axis(
            dest.y - src.y, height, y_ring, y_ruche
        )

    return minimal


class _Enumerator:
    """One verification run: walks every destination's state graph."""

    def __init__(
        self,
        config: NetworkConfig,
        routing: RoutingAlgorithm,
        matrix: Matrix,
        report: VerificationReport,
        max_findings: int,
        topology: Optional[Union[Topology, PortGraph]] = None,
    ) -> None:
        self.config = config
        self.routing = routing
        self.matrix = matrix
        self.report = report
        self.max_findings = max_findings
        self.uses_vcs = config.uses_vcs
        self.graph = ensure_port_graph(
            topology if topology is not None else make_topology(config)
        )
        # A routing that declares its own minimal-hop bound (the 3-D
        # DOR pack, plugins) is audited against that declaration; the
        # builtin 2-D algorithms are held to the monotone closed form.
        declared = getattr(routing, "minimal_hops", None)
        self.minimal_hops: Callable[[Coord, Coord], int] = (
            declared if callable(declared) else minimal_hops_fn(config)
        )
        # Reverse channel lookup: (arrival tile, input port) -> channel.
        self.rev: Dict[Tuple[Coord, int], Tuple[Coord, Direction]] = {}
        for ch in self.graph.channels:
            key = (ch.dst, ch.in_port)
            if key in self.rev:  # pragma: no cover - topology invariant
                raise RoutingError(
                    f"ambiguous input: two channels arrive at {ch.dst} on "
                    f"{self.graph.port_name(ch.in_port)}"
                )
            self.rev[key] = (ch.src, Direction(ch.out_port))
        self.nodes: List[Coord] = list(self.graph.nodes)
        if isinstance(routing, FaultAwareTableRouting):
            self.nodes = [
                n for n in self.nodes if n not in routing.dead_nodes
            ]
        #: Turns emitted: (in_dir, out_dir) -> example (node, dest).
        self.turns: Dict[Tuple[int, int], Tuple[Coord, Coord]] = {}
        self.dep_edges: Set[DepEdge] = set()
        # Memo of the destination currently being walked (hop counts per
        # state; _INF marks livelocked/errored states).
        self._hops: Dict[State, int] = {}

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        report = self.report
        fault_aware = isinstance(self.routing, FaultAwareTableRouting)
        for dest in self.nodes:
            self._hops = {}
            for src in self.nodes:
                if fault_aware and not self.routing.reachable(src, dest):
                    report.partitioned_pairs += 1
                    continue
                subnet = self.routing.injection_subnet(src, dest)
                count = self._follow(dest, (src, _P, 0, subnet))
                if count == _INF:
                    self._note(
                        report.unreached,
                        f"{tuple(src)} -> {tuple(dest)} never ejects",
                    )
                    continue
                report.pairs_checked += 1
                if count > report.max_hops:
                    report.max_hops = count
                if report.minimality_checked:
                    excess = count - self.minimal_hops(src, dest)
                    if excess > 0:
                        report.non_minimal_pairs += 1
                        if excess > report.max_detour:
                            report.max_detour = excess
                            report.non_minimal_example = (
                                f"{tuple(src)} -> {tuple(dest)}: {count} "
                                f"hops, minimal {count - excess}"
                            )
            report.states += len(self._hops)
        report.turns_used = len(self.turns)

    # ------------------------------------------------------------------
    # State-graph walk
    # ------------------------------------------------------------------
    def _follow(self, dest: Coord, start: State) -> int:
        """Proven hop count from ``start`` to ejection (``_INF`` = never).

        Follows the deterministic successor chain, memoizing into the
        per-destination table; a state recurring within the current
        chain is a routing livelock and poisons the whole chain.
        """
        hops = self._hops
        chain: List[State] = []
        position: Dict[State, int] = {}
        state = start
        while True:
            cached = hops.get(state)
            if cached is not None:
                break
            if state in position:
                self._record_livelock(dest, chain[position[state]:])
                for pending in chain:
                    hops[pending] = _INF
                return _INF
            position[state] = len(chain)
            chain.append(state)
            nxt = self._transition(dest, state)
            if nxt is not None:
                state = nxt
                continue
            # Terminal: _transition stored 0 (clean ejection) or _INF
            # (routing error) for this state.
            cached = hops[state]
            chain.pop()
            break
        if cached == _INF:
            for pending in chain:
                hops[pending] = _INF
            return _INF
        value = cached
        for pending in reversed(chain):
            value += 1
            hops[pending] = value
        return value if chain else cached

    def _transition(self, dest: Coord, state: State) -> Optional[State]:
        """One route computation; records turns, CDG edges, and errors.

        Returns the successor state, or ``None`` for terminal states
        after storing their hop value (0 on clean ejection, ``_INF`` on
        any routing error) into the per-destination memo.
        """
        node, in_idx, in_vc, subnet = state
        report = self.report
        try:
            if self.uses_vcs:
                out, out_vc = self.routing.route_vc(
                    node, Direction(in_idx), in_vc, dest
                )
            else:
                out = self.routing.route(
                    node, Direction(in_idx), dest, subnet
                )
                out_vc = 0
        except RoutingError as exc:
            self._note(
                report.routing_errors,
                f"route({tuple(node)}, {Direction(in_idx).name}, "
                f"dest={tuple(dest)}) raised: {exc}",
            )
            self._hops[state] = _INF
            return None
        out_idx = int(out)
        turn = (in_idx, out_idx)
        if turn not in self.turns:
            self.turns[turn] = (node, dest)
            if out not in self.matrix.get(Direction(in_idx), frozenset()):
                self._note(
                    report.illegal_turns,
                    format_turn(node, Direction(in_idx), out)
                    + f" (dest {tuple(dest)})",
                )
        if out_idx == _P:
            if node == dest:
                self._hops[state] = 0
            else:
                self._note(
                    report.routing_errors,
                    f"ejected at {tuple(node)} but destination is "
                    f"{tuple(dest)}",
                )
                self._hops[state] = _INF
            return None
        if not 0 <= out_vc < max(1, self.config.num_vcs):
            self._note(
                report.routing_errors,
                f"route_vc at {tuple(node)} emitted invalid VC {out_vc}",
            )
            self._hops[state] = _INF
            return None
        hop = self.graph.out_map.get((node, out_idx))
        if hop is None:
            self._note(
                report.routing_errors,
                f"{tuple(node)} routed {out.name} but no such channel "
                f"is wired (dest {tuple(dest)})",
            )
            self._hops[state] = _INF
            return None
        if in_idx != _P:
            src_node, src_dir = self.rev[(node, in_idx)]
            held: ChannelV = (src_node, src_dir, in_vc)
            requested: ChannelV = (node, out, out_vc)
            self.dep_edges.add((held, requested))
        return (hop[0], hop[1], out_vc, subnet)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _record_livelock(self, dest: Coord, cycle: List[State]) -> None:
        rendered = " -> ".join(
            f"({s[0].x},{s[0].y})@{Direction(s[1]).name}" for s in cycle[:8]
        )
        self._note(
            self.report.unreached,
            f"dest {tuple(dest)}: state cycle {rendered}"
            + (" ..." if len(cycle) > 8 else ""),
        )

    def _note(self, bucket: List[str], message: str) -> None:
        if len(bucket) < self.max_findings:
            bucket.append(message)
        elif len(bucket) == self.max_findings:
            bucket.append("... further findings suppressed")


def verify_config(
    config: NetworkConfig,
    routing: Optional[RoutingAlgorithm] = None,
    *,
    matrix: Optional[Matrix] = None,
    topology: Optional[Union[Topology, PortGraph]] = None,
    max_findings: int = 8,
) -> VerificationReport:
    """Statically verify one design point; see :mod:`repro.verify`.

    Parameters
    ----------
    config:
        The design point to verify.
    routing:
        Routing algorithm instance; defaults to the config's registered
        algorithm (:func:`~repro.core.spec.build_routing`).  Pass a
        :class:`~repro.core.routing.FaultAwareTableRouting` to verify
        degraded tables (checked against the fault-tolerant crossbar).
    matrix:
        Override the connectivity matrix the turns are checked against
        (used by tests to prove that a mutilated crossbar is rejected).
    topology:
        Override the channel set the walk runs on: a topology or its
        port graph (plugin topologies; see :func:`verify_spec`).
    max_findings:
        Cap on recorded findings per category; counting continues for
        the numeric fields.
    """
    if routing is None:
        routing = build_routing(config)
    if matrix is None:
        matrix = routing_matrix(config, routing)
    report = VerificationReport(
        config=config.name,
        width=config.width,
        height=config.height,
        algorithm=type(routing).__name__,
        dor_order=config.dor_order.value,
    )
    if config.fbfc:
        report.cdg_required = False
        report.warnings.append(
            "FBFC: deadlock freedom comes from bubble flow control; ring "
            "CDG cycles are expected and not checked"
        )
    if isinstance(routing, FaultAwareTableRouting):
        report.minimality_checked = False
        if routing.dead_links or routing.dead_nodes:
            report.cdg_required = False
            report.warnings.append(
                "fault-aware routing with live faults is not provably "
                "deadlock-free; the runtime watchdog is the backstop"
            )
    if config.edge_memory:
        report.warnings.append(
            "edge-memory endpoints are exercised by runtime audits, not "
            "this static walk"
        )
    report.non_minimal_expected = (
        config.kind in (TopologyKind.FULL_RUCHE, TopologyKind.HALF_RUCHE)
        and config.depopulated
    )

    enumerator = _Enumerator(
        config, routing, matrix, report, max_findings, topology=topology
    )
    enumerator.run()

    cycle = find_cycle(enumerator.dep_edges)
    vertices: Set[ChannelV] = set()
    for held, requested in enumerator.dep_edges:
        vertices.add(held)
        vertices.add(requested)
    report.cdg_vertices = len(vertices)
    report.cdg_edges = len(enumerator.dep_edges)
    if cycle is not None:
        report.cdg_acyclic = False
        report.cycle = [format_channel(channel) for channel in cycle]
    return report


def verify_spec(
    spec: NetworkSpec,
    *,
    max_findings: int = 8,
    include_faults: bool = False,
) -> VerificationReport:
    """Statically verify the design point a spec describes.

    Resolves the spec's topology provider through the registry, so
    plugin topologies are verified with their own channels, routing, and
    crossbar matrix — the same components
    :func:`~repro.core.spec.build_network` simulates with.

    ``include_faults`` additionally materializes the spec's seeded
    :class:`~repro.sim.faults.FaultSchedule` and verifies the resulting
    fault-aware detour tables (the healthy routing is verified
    otherwise); the certifier's cross-validation pass uses this so the
    enumerator and the table certifier judge the same masked tables.
    """
    provider = resolve_topology(spec.topology)
    config = build_config(spec)
    faults = build_faults(spec, config) if include_faults else None
    components = network_components(
        config,
        faults=faults,
        provider=provider,
        routing_name=spec.routing,
    )
    matrix: Optional[Matrix] = None
    if provider.matrix_factory is not None or (
        faults is not None and faults.affects_routing
    ):
        matrix = components.matrix
    return verify_config(
        config,
        components.routing,
        matrix=matrix,
        topology=components.graph,
        max_findings=max_findings,
    )
