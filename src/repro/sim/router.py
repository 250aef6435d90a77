"""Router models: single-cycle wormhole (Ruche family) and VC (torus).

Both routers move packets at one cycle per hop (the paper's synthetic
setup) under ready/valid flow control against two-element input FIFOs.

:class:`WormholeRouter` models the Ruche/mesh/multi-mesh router of
Section 3.2: per-output decentralized round-robin arbiters over the inputs
admitted by the crossbar connectivity matrix, with request generation
independent of downstream readiness ("ready-valid-and").

:class:`VCRouter` models the paper's torus baseline: two VCs per input
sharing one crossbar port through a VC mux (Figure 3c — this is what
halves the peak crossbar bandwidth), requests gated on downstream credit
availability ("ready-then-valid"), and switch allocation by a wavefront
allocator with rotating priority.

Hot-path note: arbitration runs once per buffered router per cycle, so
:meth:`finish_wiring` compiles the wiring into flat per-output plans
(``(output, candidates, readiness kind, readiness object)`` tuples) that
the per-cycle loops dispatch on with integer compares instead of
``isinstance`` chains.  Grant decisions and round-robin pointer updates
are bit-identical to the straightforward formulation; the cross-check
against :class:`~repro.sim.arbiter.RoundRobinArbiter` lives in the test
suite.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.coords import Coord, Direction
from repro.core.params import NetworkConfig, TopologyKind
from repro.core.registry import ALLOCATORS, register_router
from repro.core.routing import RoutingAlgorithm
from repro.errors import ConfigError
from repro.sim.allocator import WavefrontAllocator
from repro.sim.channel import PipelinedChannel
from repro.sim.fifo import Fifo
from repro.sim.packet import Packet

NUM_DIRS = len(Direction)
P_IDX = int(Direction.P)

#: A committed switch traversal: (router, input port, input VC, output
#: port, packet).  The network applies all moves of a cycle atomically.
Move = Tuple["BaseRouter", int, int, int, Packet]

#: Readiness/commit dispatch codes compiled by ``finish_wiring``.
#: The network's commit loop and the routers' arbitration plans share
#: these so neither needs ``isinstance`` per flit.
KIND_SINK = 0       #: a Sink whose ``ready()`` must be consulted
KIND_LINK = 1       #: a PipelinedLink (multi-cycle, credit-controlled)
KIND_DIRECT = 2     #: a direct (router, input index) wire
KIND_SINK_FREE = 3  #: a Sink that is statically always ready


class Sink:
    """Ejection endpoint attached to a router output.

    The default sink is always ready and records deliveries into the run's
    metrics; the manycore layer substitutes tiles and memory controllers
    that exert real backpressure.
    """

    __slots__ = ()

    def ready(self) -> bool:
        """Whether the sink can take a packet this cycle.

        Contract for subclasses that override it (a class that does not
        is statically ready and never asked): a network delivers at
        most one packet per sink per cycle, and readiness may *fall*
        only as a result of such a delivery — anything else the
        endpoint does (serving a request, draining an inbox) may only
        raise it.  Both engines rely on the first half (readiness is
        judged against cycle-start state); the compiled fabric relies
        on the second to poll a sink only after delivering to it and
        while it was last seen not ready, not every cycle.
        """
        return True

    def deliver(self, pkt: Packet, cycle: int) -> None:  # pragma: no cover
        raise NotImplementedError


class MetricsSink(Sink):
    """Records every delivery into a :class:`RunMetrics`."""

    __slots__ = ("metrics",)

    def __init__(self, metrics) -> None:
        self.metrics = metrics

    def deliver(self, pkt: Packet, cycle: int) -> None:
        self.metrics.record_delivery(pkt, cycle)


class PipelinedLink:
    """An output wired through a multi-cycle, credit-controlled channel."""

    __slots__ = ("channel", "router", "in_idx")

    def __init__(self, channel: PipelinedChannel, router: "BaseRouter",
                 in_idx: int) -> None:
        self.channel = channel
        self.router = router
        self.in_idx = in_idx


def _target_kind(target) -> int:
    """Dispatch code for one wired output target (see KIND_*)."""
    if isinstance(target, Sink):
        # A sink whose class never overrode ready() is statically ready;
        # skipping the method call matters at ejection rates of one flit
        # per tile per cycle.
        if type(target).ready is Sink.ready:
            return KIND_SINK_FREE
        return KIND_SINK
    if isinstance(target, PipelinedLink):
        return KIND_LINK
    return KIND_DIRECT


class BaseRouter:
    """State and wiring shared by both router models."""

    __slots__ = (
        "coord",
        "depth",
        "in_q",
        "out_target",
        "out_kind",
        "candidates",
        "occ",
        "route_cache",
        "in_channel",
        "net_idx",
    )

    def __init__(self, coord: Coord, depth: int,
                 route_cache: Optional[Dict] = None) -> None:
        self.coord = coord
        self.depth = depth
        self.occ = 0
        # Route memo; the builders share one per-node dict across router
        # instances of the same config (see RoutingAlgorithm.
        # node_route_cache) so repeated runs skip recomputation entirely.
        self.route_cache: Dict = {} if route_cache is None else route_cache
        # out_target[o] is None (port absent), a (router, in_idx) pair, a
        # PipelinedLink, or a Sink.  Filled in by the network's wiring.
        self.out_target: List = [None] * NUM_DIRS
        # out_kind[o] is the KIND_* code of out_target[o] (None when the
        # port is absent); compiled by finish_wiring for the commit loop.
        self.out_kind: List[Optional[int]] = [None] * NUM_DIRS
        # Credit-return hooks for inputs fed by pipelined channels.
        self.in_channel: List[Optional[PipelinedChannel]] = [None] * NUM_DIRS
        # Position in the network's router list (active-set bookkeeping).
        self.net_idx = 0

    def _compile_out_kinds(self) -> None:
        for o, target in enumerate(self.out_target):
            self.out_kind[o] = None if target is None else _target_kind(target)

    def pop(self, in_idx: int, vc: int) -> Packet:
        raise NotImplementedError

    def arbitrate(self, moves: List[Move]) -> None:
        raise NotImplementedError


class WormholeRouter(BaseRouter):
    """Single-cycle router without virtual channels (Ruche family).

    Every output direction owns an independent round-robin arbiter over
    the inputs that the crossbar connectivity matrix admits.  An input's
    request depends only on its head packet's route — not on downstream
    readiness — matching the "ready-valid-and" style the paper credits for
    the Ruche router's short critical path.
    """

    __slots__ = (
        "route_fn", "arb", "active_outputs", "_plan",
        "_in_list", "_posmap", "_reqmask",
    )

    def __init__(
        self,
        coord: Coord,
        depth: int,
        route_fn: Callable,
        input_dirs: Sequence[int],
        matrix: Dict[Direction, frozenset],
        route_cache: Optional[Dict] = None,
    ) -> None:
        super().__init__(coord, depth, route_cache)
        self.route_fn = route_fn
        # Input queues: P is the (unbounded) source queue; others are
        # bounded FIFOs, present only where a channel arrives.
        self.in_q: List[Optional[deque]] = [None] * NUM_DIRS
        self.in_q[P_IDX] = deque()
        for i in input_dirs:
            if i != P_IDX:
                self.in_q[i] = Fifo(depth)
        present = set(input_dirs) | {P_IDX}
        # Per-output candidate input lists (connectivity ∩ present inputs).
        self.candidates: List[Tuple[int, ...]] = [()] * NUM_DIRS
        for out_dir in Direction:
            cands = tuple(
                int(inp)
                for inp in Direction
                if int(inp) in present and out_dir in matrix.get(inp, ())
            )
            self.candidates[int(out_dir)] = cands
        self.arb = [0] * NUM_DIRS
        self.active_outputs: Tuple[int, ...] = ()
        # Per-output arbitration plan, compiled by finish_wiring:
        # (o, cands, len(cands), kind, readiness object, fifo depth).
        self._plan: Tuple[tuple, ...] = ()
        # Present input ports, ascending (the candidate-list order).
        self._in_list: Tuple[int, ...] = tuple(
            i for i in range(NUM_DIRS) if self.in_q[i] is not None
        )
        # _posmap[o * NUM_DIRS + i]: position of input i in candidates[o]
        # (-1 when the crossbar does not admit the turn).
        posmap = [-1] * (NUM_DIRS * NUM_DIRS)
        for o in range(NUM_DIRS):
            for pos, i in enumerate(self.candidates[o]):
                posmap[o * NUM_DIRS + i] = pos
        self._posmap: Tuple[int, ...] = tuple(posmap)
        # Per-output bitmask of requesting candidate positions, rebuilt
        # (and cleared) every arbitration cycle.
        self._reqmask = [0] * NUM_DIRS

    def finish_wiring(self) -> None:
        """Freeze the wired outputs into a flat arbitration plan."""
        self.active_outputs = tuple(
            o for o in range(NUM_DIRS) if self.out_target[o] is not None
        )
        self._compile_out_kinds()
        plan = []
        for o in self.active_outputs:
            cands = self.candidates[o]
            if not cands:
                continue
            target = self.out_target[o]
            kind = self.out_kind[o]
            if kind == KIND_DIRECT:
                down_router, down_idx = target
                # The downstream FIFO object is stable after wiring;
                # binding it here removes two indirections per check.
                obj = down_router.in_q[down_idx]
                depth = obj.depth
            elif kind == KIND_LINK:
                obj = target.channel
                depth = 0
            else:  # sink (free or gated)
                obj = target
                depth = 0
            plan.append((o, cands, len(cands), kind, obj, depth))
        self._plan = tuple(plan)

    def accept(self, pkt: Packet, in_idx: int, in_vc: int = 0) -> None:
        """Enqueue an arriving packet and cache its route decision."""
        key = (in_idx, pkt.dest, pkt.subnet)
        out = self.route_cache.get(key)
        if out is None:
            out = int(
                self.route_fn(
                    self.coord, Direction(in_idx), pkt.dest, pkt.subnet
                )
            )
            self.route_cache[key] = out
        pkt.out_dir = out
        self.in_q[in_idx].append(pkt)
        self.occ += 1

    def pop(self, in_idx: int, vc: int) -> Packet:
        self.occ -= 1
        return self.in_q[in_idx].popleft()

    def arbitrate(self, moves: List[Move]) -> None:
        """One cycle of per-output round-robin arbitration.

        Request-driven formulation of the per-output round-robin scan:
        one pass over the occupied input heads builds a bitmask of
        requesting candidate positions per output, then each requested
        output resolves its winner — the first set bit cyclically from
        the round-robin pointer, which is exactly the input the
        per-output candidate scan would have granted.  Readiness is
        consulted only for the winner; the pointer advances only on a
        grant, so grants and pointer trajectories are bit-identical to
        the straightforward formulation.
        """
        in_q = self.in_q
        reqmask = self._reqmask
        posmap = self._posmap
        for i in self._in_list:
            q = in_q[i]
            if q:
                o = q[0].out_dir
                pos = posmap[o * NUM_DIRS + i]
                if pos >= 0:
                    reqmask[o] |= 1 << pos
        arb = self.arb
        for o, cands, n, kind, obj, fifo_depth in self._plan:
            m = reqmask[o]
            if not m:
                continue
            reqmask[o] = 0
            pos = arb[o]
            while not (m >> pos) & 1:
                pos += 1
                if pos >= n:
                    pos = 0
            if kind == KIND_DIRECT:
                if len(obj) >= fifo_depth:
                    continue
            elif kind == KIND_SINK:
                if not obj.ready():
                    continue
            elif kind == KIND_LINK:
                if not obj.can_send(0):
                    continue
            # KIND_SINK_FREE: always ready.
            arb[o] = pos + 1 if pos + 1 < n else 0
            in_idx = cands[pos]
            moves.append((self, in_idx, 0, o, in_q[in_idx][0]))


def fbfc_ring_ports(config: NetworkConfig) -> Tuple[frozenset, ...]:
    """The port-id group of each ring an FBFC router of ``config`` sits on.

    A half torus has x rings only, a folded torus x and y, and the 3-D
    torus adds the z ring that rides the RN/RS port ids.  Entering a
    group's output from an input outside it is a ring entry (the bubble
    rule); the reference builder and the compiled lowering both read
    the groups from here.
    """
    rings = [frozenset((int(Direction.W), int(Direction.E)))]
    if config.kind in (TopologyKind.FOLDED_TORUS, TopologyKind.TORUS3D):
        rings.append(frozenset((int(Direction.N), int(Direction.S))))
    if config.kind is TopologyKind.TORUS3D:
        rings.append(frozenset((int(Direction.RN), int(Direction.RS))))
    return tuple(rings)


class FbfcRouter(WormholeRouter):
    """Torus router using Flit Bubble Flow Control (Ma et al.).

    No virtual channels: deadlock freedom comes from an injection
    restriction — a packet may *enter* a ring (from the P port or by
    turning from the other dimension) only if the receiving FIFO keeps
    one free slot beyond the packet, so every ring always holds at least
    one bubble and through-traffic can always make progress.  Packets
    already travelling in the ring move under the normal one-slot rule.
    """

    __slots__ = ("_entry_need",)

    def __init__(
        self,
        coord: Coord,
        depth: int,
        route_fn: Callable,
        input_dirs: Sequence[int],
        matrix: Dict[Direction, frozenset],
        ring_ports: Sequence[frozenset],
        route_cache: Optional[Dict] = None,
    ) -> None:
        super().__init__(
            coord, depth, route_fn, input_dirs, matrix,
            route_cache=route_cache,
        )
        # _entry_need[o][i]: FIFO slots required for input i to win
        # output o (2 = ring entry, 1 = in-ring or non-ring move).
        self._entry_need = {}
        for o in range(NUM_DIRS):
            needs = {}
            for i in self.candidates[o]:
                entering = any(
                    o in group and i not in group
                    for group in ring_ports
                )
                needs[i] = 2 if entering else 1
            self._entry_need[o] = needs

    def arbitrate(self, moves: List[Move]) -> None:
        in_q = self.in_q
        arb = self.arb
        for o, cands, n, kind, obj, fifo_depth in self._plan:
            if kind == KIND_DIRECT:
                free = fifo_depth - len(obj)
            elif kind == KIND_LINK:
                free = obj.credits[0]
            elif kind == KIND_SINK:
                if not obj.ready():
                    continue
                free = self.depth  # ejection is not a ring entry
            else:  # KIND_SINK_FREE
                free = self.depth
            if free <= 0:
                continue
            needs = self._entry_need[o]
            ptr = arb[o]
            for k in range(n):
                pos = ptr + k
                if pos >= n:
                    pos -= n
                i = cands[pos]
                q = in_q[i]
                if q and q[0].out_dir == o and free >= needs[i]:
                    arb[o] = pos + 1 if pos + 1 < n else 0
                    moves.append((self, i, 0, o, q[0]))
                    break


class VCRouter(BaseRouter):
    """Torus router: 2 VCs per input, VC mux, wavefront switch allocation.

    Structural properties reproduced from the paper's Figure 3c:

    * each input port owns ``num_vcs`` FIFOs but only **one** crossbar
      port, so at most one flit per input per cycle enters the switch;
    * a request is raised only when the destination VC downstream has a
      free slot ("ready-then-valid" — the allocator must not grant flits
      that cannot move);
    * the switch allocator computes a maximal input/output matching
      (wavefront) and a per-input round-robin picks among requesting VCs.
    """

    __slots__ = (
        "route_vc_fn", "num_ports", "num_vcs", "vc_rr", "alloc", "ports",
        "_out_space", "_requests", "_candmask", "_touched",
    )

    #: Torus routers use only the five mesh directions.
    NUM_PORTS = 5

    def __init__(
        self,
        coord: Coord,
        depth: int,
        route_vc_fn: Callable,
        input_dirs: Sequence[int],
        num_vcs: int,
        route_cache: Optional[Dict] = None,
        allocator_factory: Optional[Callable] = None,
    ) -> None:
        super().__init__(coord, depth, route_cache)
        self.route_vc_fn = route_vc_fn
        self.num_vcs = num_vcs
        self.num_ports = self.NUM_PORTS
        self.in_q = [None] * self.NUM_PORTS
        self.in_q[P_IDX] = (deque(),)  # injection queue, single lane
        for i in input_dirs:
            if i != P_IDX:
                self.in_q[i] = tuple(Fifo(depth) for _ in range(num_vcs))
        self.vc_rr = [0] * self.NUM_PORTS
        if allocator_factory is None:
            allocator_factory = WavefrontAllocator
        self.alloc = allocator_factory(self.NUM_PORTS, self.NUM_PORTS)
        self.ports = tuple(
            i for i in range(self.NUM_PORTS) if self.in_q[i] is not None
        )
        # Per-output space-check plan: (kind, obj) where obj is the
        # downstream lane tuple (KIND_DIRECT), channel (KIND_LINK) or
        # sink; compiled by finish_wiring.
        self._out_space: List[Optional[tuple]] = [None] * self.NUM_PORTS
        # Reused per-cycle request state (allocation-free steady state):
        # the boolean matrix handed to the allocator plus a flat bitmask
        # of requesting VC lanes per (input, output) pair.
        nports = self.NUM_PORTS
        self._requests = [[False] * nports for _ in range(nports)]
        self._candmask = [0] * (nports * nports)
        self._touched: List[int] = []

    def finish_wiring(self) -> None:
        self._compile_out_kinds()
        for o in range(self.num_ports):
            if self.out_target[o] is not None:
                self._compile_out_space(o)

    def _compile_out_space(self, o: int) -> None:
        """Build the space-check plan for one wired output."""
        target = self.out_target[o]
        kind = _target_kind(target)
        if kind == KIND_DIRECT:
            down_router, down_idx = target
            lanes = down_router.in_q[down_idx]
            if down_idx == P_IDX:
                # Injection-side entry: a single unbounded lane.
                lanes = tuple(lanes[0] for _ in range(self.num_vcs))
            plan = (kind, lanes)
        elif kind == KIND_LINK:
            plan = (kind, target.channel)
        else:
            plan = (kind, target)
        self._out_space[o] = plan

    def accept(self, pkt: Packet, in_idx: int, in_vc: int = 0) -> None:
        pkt.vc = in_vc
        key = (in_idx, in_vc, pkt.dest)
        cached = self.route_cache.get(key)
        if cached is None:
            out, ovc = self.route_vc_fn(
                self.coord, Direction(in_idx), in_vc, pkt.dest
            )
            cached = (int(out), ovc)
            self.route_cache[key] = cached
        pkt.out_dir, pkt.out_vc = cached
        lanes = self.in_q[in_idx]
        lane = 0 if in_idx == P_IDX else in_vc
        lanes[lane].append(pkt)
        self.occ += 1

    def pop(self, in_idx: int, vc: int) -> Packet:
        self.occ -= 1
        lanes = self.in_q[in_idx]
        lane = 0 if in_idx == P_IDX else vc
        return lanes[lane].popleft()

    def _space_downstream(self, pkt: Packet) -> bool:
        plan = self._out_space[pkt.out_dir]
        if plan is None:
            return False
        kind, obj = plan
        if kind == KIND_DIRECT:
            fifo = obj[pkt.out_vc]
            return len(fifo) < fifo.depth
        if kind == KIND_SINK_FREE:
            return True
        if kind == KIND_LINK:
            return obj.can_send(pkt.out_vc)
        return obj.ready()

    def arbitrate(self, moves: List[Move]) -> None:
        nports = self.num_ports
        requests = self._requests
        candmask = self._candmask
        touched = self._touched
        space = self._space_downstream
        any_request = False
        for i in self.ports:
            lanes = self.in_q[i]
            base = i * nports
            for lane, fifo in enumerate(lanes):
                if not fifo:
                    continue
                pkt = fifo[0]
                if not space(pkt):
                    continue
                o = pkt.out_dir
                idx = base + o
                if not candmask[idx]:
                    requests[i][o] = True
                    touched.append(idx)
                candmask[idx] |= 1 << lane
                any_request = True
        if not any_request:
            return
        num_vcs = self.num_vcs
        for i, o in self.alloc.allocate(requests):
            mask = candmask[i * nports + o]
            # Per-input round-robin among requesting VCs (the VC mux):
            # the winning lane minimizes (lane - ptr) mod num_vcs.
            ptr = self.vc_rr[i]
            best = 0
            best_key = num_vcs
            lane = 0
            while mask:
                if mask & 1:
                    key = (lane - ptr) % num_vcs
                    if key < best_key:
                        best_key = key
                        best = lane
                mask >>= 1
                lane += 1
            self.vc_rr[i] = (best + 1) % num_vcs
            pkt = self.in_q[i][best][0]
            moves.append((self, i, best, o, pkt))
        for idx in touched:
            candmask[idx] = 0
            requests[idx // nports][idx % nports] = False
        touched.clear()


# ----------------------------------------------------------------------
# Registered router kinds
# ----------------------------------------------------------------------
# Builders share one keyword signature so repro.core.spec can construct
# any registered kind uniformly.  Each takes its node's route memo from
# the routing (RoutingAlgorithm.node_route_cache), so a sweep rebuilding
# networks for one design point never recomputes a route it has seen.
# ``allocator`` names a registered switch allocator; only the VC router
# performs switch allocation, so the other kinds reject it rather than
# silently ignore it.


def _reject_allocator(kind: str, allocator: Optional[str]) -> None:
    if allocator is not None:
        raise ConfigError(
            f"router kind {kind!r} does not use a switch allocator "
            f"(got allocator={allocator!r}); only 'vc' does"
        )


@register_router(
    "wormhole",
    description="single-cycle router without VCs (mesh / Ruche family)",
)
def build_wormhole_router(
    *,
    coord: Coord,
    config: NetworkConfig,
    routing: RoutingAlgorithm,
    input_dirs: Sequence[int],
    matrix: Dict[Direction, frozenset],
    allocator: Optional[str] = None,
) -> WormholeRouter:
    _reject_allocator("wormhole", allocator)
    return WormholeRouter(
        coord,
        config.fifo_depth,
        routing.route,
        input_dirs,
        matrix,
        route_cache=routing.node_route_cache(coord),
    )


@register_router(
    "fbfc",
    description="torus router with Flit Bubble Flow Control, no VCs",
)
def build_fbfc_router(
    *,
    coord: Coord,
    config: NetworkConfig,
    routing: RoutingAlgorithm,
    input_dirs: Sequence[int],
    matrix: Dict[Direction, frozenset],
    allocator: Optional[str] = None,
) -> FbfcRouter:
    _reject_allocator("fbfc", allocator)
    return FbfcRouter(
        coord,
        config.fifo_depth,
        routing.route,
        input_dirs,
        matrix,
        ring_ports=fbfc_ring_ports(config),
        route_cache=routing.node_route_cache(coord),
    )


@register_router(
    "vc",
    description="2-VC torus router with wavefront switch allocation",
)
def build_vc_router(
    *,
    coord: Coord,
    config: NetworkConfig,
    routing: RoutingAlgorithm,
    input_dirs: Sequence[int],
    matrix: Dict[Direction, frozenset],
    allocator: Optional[str] = None,
) -> VCRouter:
    allocator_factory = (
        ALLOCATORS.get(allocator) if allocator is not None else None
    )
    return VCRouter(
        coord,
        config.fifo_depth,
        routing.route_vc,
        input_dirs,
        config.num_vcs,
        route_cache=routing.node_route_cache(coord),
        allocator_factory=allocator_factory,
    )
