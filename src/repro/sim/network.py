"""Network assembly and the cycle loop.

A :class:`Network` materializes a design point into routers wired by the
channels of the topology's port graph — the one wiring contract both
engines read (:func:`~repro.core.portgraph.live_wiring`) — and advances
them with a two-phase cycle:

1. **Arbitrate** — every router with buffered packets computes its switch
   grants against cycle-start FIFO occupancies (so a full FIFO cannot
   accept an enqueue on the cycle it dequeues, matching registered
   ready/valid handshakes).
2. **Commit** — all granted moves execute atomically: pops, pushes (with
   the next hop's route computed on arrival), ejections into sinks.

Endpoints are pluggable: the default sink records metrics (synthetic
traffic); the manycore layer attaches tiles and memory controllers that
exert backpressure and re-inject response traffic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.coords import Coord
from repro.core.params import NetworkConfig
from repro.core.portgraph import live_wiring
from repro.core.registry import ROUTERS
from repro.core.spec import NetworkComponents
from repro.sim.channel import PipelinedChannel
from repro.sim.faults import FaultSchedule
from repro.sim.metrics import RunMetrics
from repro.sim.packet import Packet
from repro.sim.router import (
    KIND_DIRECT,
    KIND_LINK,
    P_IDX,
    MetricsSink,
    Move,
    PipelinedLink,
    Sink,
)
from repro.sim.watchdog import WatchdogConfig, deadlock_error


class Network:
    """One NoC instance: routers, channels, endpoints, and the cycle loop.

    Built by :func:`repro.core.spec.build_network` (or
    :meth:`~repro.core.spec.ResolvedRun.network`), which resolves the
    parts; the network itself resolves none.

    Parameters
    ----------
    config:
        The design point to build.
    components:
        Its resolved :class:`~repro.core.spec.NetworkComponents`: the
        routers are wired from ``components.graph``, which the network
        does not keep.
    router / allocator:
        Registered router-kind and switch-allocator names.
    metrics:
        Measurement collector; a fresh :class:`RunMetrics` by default.
    sink_factory:
        Optional ``coord -> Sink`` supplying each tile's ejection endpoint
        (defaults to the shared metrics sink).
    memory_sink_factory:
        Optional ``node -> Sink`` for each endpoint-only node of the port
        graph (the phantom memory endpoints on the array's north/south
        edges of ``edge_memory`` configs).
    faults:
        Optional :class:`~repro.sim.faults.FaultSchedule`, the one the
        components were resolved under.  Dead links/routers are left
        unwired (routing was recomputed around them and routers get
        the fault-tolerant crossbar); transient faults drop flits in
        the commit phase.
    watchdog:
        Forward-progress thresholds; defaults to the classic
        1000-idle-cycle stall watchdog with starvation detection off.
    """

    def __init__(
        self,
        config: NetworkConfig,
        components: NetworkComponents,
        router: str,
        allocator: Optional[str] = None,
        *,
        metrics: Optional[RunMetrics] = None,
        sink_factory: Optional[Callable[[Coord], Sink]] = None,
        memory_sink_factory: Optional[Callable[[Coord], Sink]] = None,
        faults: Optional[FaultSchedule] = None,
        watchdog: Optional[WatchdogConfig] = None,
    ) -> None:
        self.config = config
        self.faults = faults
        self.watchdog = watchdog if watchdog is not None else WatchdogConfig()
        self.routing = routing = components.routing
        self.metrics = metrics if metrics is not None else RunMetrics()
        self.cycle = 0
        self.occupancy = 0
        self._idle_cycles = 0
        self._starved_cycles = 0
        self._next_pid = 0
        killed = faults.killed_channels if faults is not None else frozenset()
        self._drop_rng = faults.make_drop_rng() if faults is not None else None
        self._has_transient = bool(faults is not None and faults.transient)
        default_sink = MetricsSink(self.metrics)
        #: The crossbar matrix every router was provisioned with; the
        #: runtime audit checks buffered routes against it via the same
        #: turn-legality predicate as the static verifier.
        self.matrix = matrix = components.matrix

        build_router = ROUTERS.get(router)
        graph = components.graph
        wiring = live_wiring(graph, killed)
        self.routers: Dict[Coord, object] = {
            node: build_router(
                coord=node,
                config=config,
                routing=routing,
                input_dirs=[
                    p for p in range(graph.num_ports) if mask >> p & 1
                ],
                matrix=matrix,
                allocator=allocator,
            )
            for node, mask in wiring.masks.items()
        }

        # Pipelined links (only created when channel latency > 1).
        self._channels: List[PipelinedLink] = []
        lanes = config.num_vcs if config.uses_vcs else 1
        for ch in wiring.channels:
            down = self.routers[ch.dst]
            if ch.latency > 1:
                channel = PipelinedChannel(
                    ch.latency, config.fifo_depth, num_lanes=lanes
                )
                target = PipelinedLink(channel, down, ch.in_port)
                self._channels.append(target)
                down.in_channel[ch.in_port] = channel
            else:
                target = (down, ch.in_port)
            self.routers[ch.src].out_target[ch.out_port] = target
        for endpoint, feeds in wiring.sinks.items():
            for node, out_port in feeds:
                self.routers[node].out_target[out_port] = (
                    memory_sink_factory(endpoint)
                    if memory_sink_factory
                    else default_sink
                )
        # Endpoint entry points: endpoint node -> (router, input port).
        self._edge_entry: Dict[Coord, tuple] = {
            endpoint: (self.routers[node], in_port)
            for endpoint, (node, in_port) in wiring.entry.items()
        }
        for coord, router in self.routers.items():
            sink = sink_factory(coord) if sink_factory else default_sink
            router.out_target[P_IDX] = sink
            router.finish_wiring()
        self._router_list = list(self.routers.values())
        for idx, router in enumerate(self._router_list):
            router.net_idx = idx
        # Indexes (into _router_list) of routers currently holding at
        # least one packet.  The cycle loop arbitrates only these,
        # iterating a sorted view so the per-cycle order — and with it
        # the transient-fault RNG stream — is identical to a full scan.
        self._active: set = set()

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def inject(
        self,
        src: Coord,
        dest: Coord,
        *,
        measured: bool = False,
        payload=None,
    ) -> Packet:
        """Create a packet at ``src``'s source queue, bound for ``dest``."""
        subnet = self.routing.injection_subnet(src, dest)
        pkt = Packet(
            self._next_pid,
            src,
            dest,
            self.cycle,
            subnet=subnet,
            measured=measured,
            payload=payload,
        )
        self._next_pid += 1
        router = self.routers[src]
        router.accept(pkt, P_IDX)
        self._active.add(router.net_idx)
        self.occupancy += 1
        self.metrics.record_injection(measured)
        return pkt

    def source_queue_len(self, src: Coord) -> int:
        """Occupancy of a tile's injection queue (closed-loop backpressure)."""
        router = self.routers[src]
        lanes = router.in_q[P_IDX]
        return len(lanes[0]) if isinstance(lanes, tuple) else len(lanes)

    def try_inject_from_memory(self, mem_coord: Coord, dest: Coord, *,
                               payload=None, measured: bool = False) -> bool:
        """Inject a packet from a phantom memory endpoint into the array.

        Memory responses enter through the edge router's vertical input
        FIFO; the injection fails (returns False) when that FIFO is full,
        which is how memory-side backpressure propagates.
        """
        router, in_idx = self._edge_entry[mem_coord]
        fifo = self._edge_fifo(router, in_idx)
        if len(fifo) >= self.config.fifo_depth:
            return False
        pkt = Packet(
            self._next_pid,
            mem_coord,
            dest,
            self.cycle,
            measured=measured,
            payload=payload,
        )
        self._next_pid += 1
        if self.config.uses_vcs:
            router.accept(pkt, in_idx, 0)
        else:
            router.accept(pkt, in_idx)
        self._active.add(router.net_idx)
        self.occupancy += 1
        self.metrics.record_injection(measured)
        return True

    @property
    def hop_counts(self) -> List[int]:
        """Channel traversals so far, per output direction."""
        return self.metrics.hop_counts

    def hop_count(self, src: Coord, dest: Coord) -> int:
        """Channel traversals of a ``src`` -> ``dest`` packet at zero load."""
        return self.routing.hop_count(src, dest)

    def memory_entry_space(self, mem_coord: Coord) -> int:
        """Free slots in the edge FIFO behind a memory endpoint."""
        router, in_idx = self._edge_entry[mem_coord]
        fifo = self._edge_fifo(router, in_idx)
        return self.config.fifo_depth - len(fifo)

    @staticmethod
    def _edge_fifo(router, in_idx: int):
        lanes = router.in_q[in_idx]
        # VC routers keep a tuple of lanes; memory responses ride VC 0.
        return lanes[0] if isinstance(lanes, tuple) else lanes

    # ------------------------------------------------------------------
    # Cycle loop
    # ------------------------------------------------------------------
    def step(self) -> int:
        """Advance one cycle; returns the number of switch traversals."""
        arrivals = 0
        active = self._active
        if self._channels:
            for link in self._channels:
                for pkt, lane in link.channel.deliveries(self.cycle):
                    link.router.accept(pkt, link.in_idx, lane)
                    active.add(link.router.net_idx)
                    arrivals += 1
        moves: List[Move] = []
        if active:
            router_list = self._router_list
            # Quiescent routers never enter the active set, so the cycle
            # loop touches only buffered routers; the sorted view keeps
            # the arbitration (and hence move/RNG) order deterministic.
            for idx in sorted(active):
                router_list[idx].arbitrate(moves)
        ejections = 0
        if moves:
            cycle = self.cycle
            hop_counts = self.metrics.hop_counts
            link_counts = self.metrics.link_counts
            has_transient = self._has_transient
            for router, in_idx, vc, out_idx, pkt in moves:
                router.pop(in_idx, vc)
                if not router.occ:
                    active.discard(router.net_idx)
                channel = router.in_channel[in_idx]
                if channel is not None:
                    channel.credit_return(cycle, vc)
                if has_transient and out_idx != P_IDX:
                    fault = self.faults.transient_on(router.coord, out_idx)
                    if (
                        fault is not None
                        and fault.active(cycle)
                        and self._drop_rng.random() < fault.drop_prob
                    ):
                        # The flit dies on the faulty wires: it left its
                        # FIFO (credit already returned) but never
                        # arrives anywhere.
                        self.occupancy -= 1
                        self.metrics.record_drop(pkt)
                        continue
                if link_counts is not None and out_idx != P_IDX:
                    key = (router.coord, out_idx)
                    link_counts[key] = link_counts.get(key, 0) + 1
                kind = router.out_kind[out_idx]
                target = router.out_target[out_idx]
                if kind == KIND_DIRECT:  # router-to-router is the hot case
                    pkt.hops += 1
                    hop_counts[out_idx] += 1
                    down, idx = target
                    down.accept(pkt, idx, pkt.out_vc)
                    active.add(down.net_idx)
                elif kind == KIND_LINK:
                    pkt.hops += 1
                    hop_counts[out_idx] += 1
                    target.channel.send(pkt, cycle, pkt.out_vc)
                else:  # sink (KIND_SINK / KIND_SINK_FREE)
                    if out_idx != P_IDX:
                        pkt.hops += 1
                        hop_counts[out_idx] += 1
                    self.occupancy -= 1
                    ejections += 1
                    target.deliver(pkt, cycle)
        watchdog = self.watchdog
        if moves or arrivals:
            self._idle_cycles = 0
        elif self.occupancy:
            self._idle_cycles += 1
            if self._idle_cycles >= watchdog.stall_window:
                raise deadlock_error(self, "stall", self._idle_cycles)
        if watchdog.starvation_window is not None:
            if ejections or not self.occupancy:
                self._starved_cycles = 0
            else:
                self._starved_cycles += 1
                if self._starved_cycles >= watchdog.starvation_window:
                    raise deadlock_error(
                        self, "starvation", self._starved_cycles
                    )
        self.cycle += 1
        return len(moves)

    def drain(self, limit: int) -> bool:
        """Step until the network is empty; False if ``limit`` hit first."""
        for _ in range(limit):
            if self.occupancy == 0:
                return True
            self.step()
        return self.occupancy == 0
