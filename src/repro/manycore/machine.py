"""The cellular manycore machine: cores + dual NoCs + edge memory.

Assembles the full system of the paper's Sections 4.6–4.10:

* a ``width × height`` array of compute tiles, each with an in-order core
  (:class:`~repro.manycore.core_model.Core`) and a scratchpad server;
* LLC memory tiles on the northern and southern edges, addressed through
  IPOLY interleaving;
* a **request network** (X-Y DOR) and a **response network** (Y-X DOR) of
  the chosen fabric (mesh, half-torus, or Half Ruche).

The simulation is execution-driven end to end: cores stall on window
pressure and network backpressure, memory banks backpressure the request
network, and response injection contends with the response network — the
feedback effects the paper contrasts against trace-driven methodology.

The two networks are two *fabrics* behind one surface (offer a packet,
read a source queue, step, hop counts): by default a
:class:`~repro.sim.fastsim.CompiledFabric` each — the native kernel
stepping one cycle per call, endpoints gating its sinks through ready
words — or, with ``engine="reference"`` (the oracle, and the fallback
when a fabric does not lower), a :class:`~repro.sim.network.Network`
each.  The machine, cores and memory models are one copy and do not know
which; results are bit-identical.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.coords import Coord
from repro.errors import ConfigError, SimulationError
from repro.manycore.config import MachineConfig
from repro.manycore.core_model import Core, Request
from repro.manycore.ipoly import ipoly_hash, modulo_hash
from repro.manycore.memory import MemoryTile, ScratchpadServer
from repro.sim.fastsim import (
    CompiledFabric,
    LoweringDiagnostic,
    fabric_problems,
)
from repro.sim.network import Network
from repro.sim.packet import Packet
from repro.sim.router import Sink
from repro.sim.trace import Trace, TraceRecorder


class _CoreSink(Sink):
    """Response-network ejection port of a compute tile."""

    __slots__ = ("core",)

    def __init__(self, core: Core) -> None:
        self.core = core

    def deliver(self, pkt: Packet, cycle: int) -> None:
        self.core.receive(pkt.payload, cycle)


class _UnexpectedSink(Sink):
    """Guard: the response network must never eject at a memory tile."""

    __slots__ = ("coord",)

    def __init__(self, coord: Coord) -> None:
        self.coord = coord

    def deliver(self, pkt: Packet, cycle: int) -> None:
        raise SimulationError(
            f"response network delivered a packet to memory tile "
            f"{tuple(self.coord)}"
        )


@dataclasses.dataclass
class MachineStats:
    """Aggregate outcome of one manycore run."""

    cycles: int
    completed: bool
    instructions: int
    compute_cycles: int
    stall_mem: int
    stall_net: int
    stall_barrier: int
    loads_completed: int
    latency_total: int
    intrinsic_total: int
    fwd_hop_counts: List[int]
    rev_hop_counts: List[int]
    requests_served: int

    @property
    def stall_cycles(self) -> int:
        return self.stall_mem + self.stall_net + self.stall_barrier

    @property
    def avg_load_latency(self) -> float:
        """Mean remote round-trip latency (Figure 12's total)."""
        if not self.loads_completed:
            return float("nan")
        return self.latency_total / self.loads_completed

    @property
    def avg_intrinsic_latency(self) -> float:
        """Zero-load component of the round trip (Figure 12)."""
        if not self.loads_completed:
            return float("nan")
        return self.intrinsic_total / self.loads_completed

    @property
    def avg_congestion_latency(self) -> float:
        """Congestion-induced extra latency (Figure 12)."""
        return self.avg_load_latency - self.avg_intrinsic_latency


class Machine:
    """One manycore instance bound to a workload.

    ``workload`` maps each compute coordinate to an operation iterator
    (see :mod:`repro.manycore.kernels`).  ``hash_fn`` selects the LLC
    interleaving ("ipoly" per the paper, "modulo" for the ablation).
    ``engine`` selects who steps the two networks: ``"compiled"`` (the
    native kernel) or ``"reference"`` (the object model, bit-identical
    and the oracle).  :attr:`engine` reports the one that actually
    steps; a compiled request that cannot lower runs on reference and
    :attr:`fallback` says why.
    """

    def __init__(
        self,
        config: MachineConfig,
        workload: Dict[Coord, Iterator[Tuple]],
        hash_fn: str = "ipoly",
        recorder: Optional["TraceRecorder"] = None,
        *,
        engine: str = "compiled",
    ) -> None:
        if engine not in ("compiled", "reference"):
            raise ConfigError(
                f"unknown machine engine {engine!r}; expected "
                f"'compiled' or 'reference'"
            )
        self.config = config
        self.cycle = 0
        #: Optional injection-trace capture (see :mod:`repro.sim.trace`):
        #: when set, every accepted injection on either network is
        #: recorded, at a cost of one method call per injection.
        self.recorder = recorder
        self._hash = ipoly_hash if hash_fn == "ipoly" else modulo_hash
        self._mem_coords = config.memory_coords()
        self._intrinsic_cache: Dict[Tuple[Coord, Coord], int] = {}

        # Endpoints.
        self.cores: Dict[Coord, Core] = {}
        self.servers: Dict[Coord, ScratchpadServer] = {}
        self.memories: Dict[Coord, MemoryTile] = {}
        for coord in config.compute_coords():
            ops = workload.get(coord, iter(()))
            self.cores[coord] = Core(coord, ops, self)
            self.servers[coord] = ScratchpadServer(
                coord, config.inbox_capacity
            )
        for coord in self._mem_coords:
            self.memories[coord] = MemoryTile(
                coord,
                config.inbox_capacity,
                config.mem_latency,
                config.amo_service,
            )

        # Networks: requests X-Y, responses Y-X.  Both on one engine.
        #: Why a ``"compiled"`` request runs on reference (else empty).
        self.fallback: List[LoweringDiagnostic] = []
        if engine == "compiled":
            self.fallback = fabric_problems(
                config.forward_config
            ) or fabric_problems(config.reverse_config)
        #: The engine that actually steps the networks.
        self.engine = "reference" if self.fallback else engine
        fabric = CompiledFabric if self.engine == "compiled" else Network
        self.fwd = fabric(
            config.forward_config,
            sink_factory=lambda c: self.servers[c],
            memory_sink_factory=lambda c: self.memories[c],
        )
        self.rev = fabric(
            config.reverse_config,
            sink_factory=lambda c: _CoreSink(self.cores[c]),
            memory_sink_factory=_UnexpectedSink,
        )

        # Barrier state (sense-reversing).
        self._barrier_generation = 0
        self._barrier_arrivals = 0
        self._barrier_sense: Dict[Coord, int] = {}
        self._cores_remaining = len(self.cores)
        self._core_list = list(self.cores.values())
        self._server_list = list(self.servers.values())
        self._memory_list = list(self.memories.values())

    # ------------------------------------------------------------------
    # Services used by cores
    # ------------------------------------------------------------------
    def llc_coord(self, addr: int) -> Coord:
        """The LLC bank owning ``addr`` under the configured hashing."""
        bank = self._hash(addr, len(self._mem_coords))
        return self._mem_coords[bank]

    def intrinsic_latency(self, src: Coord, dest: Coord) -> int:
        """Zero-load round-trip hop latency src → dest → src."""
        key = (src, dest)
        cached = self._intrinsic_cache.get(key)
        if cached is None:
            cached = self.fwd.hop_count(src, dest)
            cached += self.rev.hop_count(dest, src)
            self._intrinsic_cache[key] = cached
        return cached

    def try_issue(self, core: Core, kind: str, dest: Coord,
                  cycle: int) -> bool:
        """Inject a request if the core's network outbox has room."""
        src = core.coord
        if self.fwd.source_queue_len(src) >= self.config.fifo_depth:
            return False
        service = self._service_latency(kind, dest)
        intrinsic = self.intrinsic_latency(src, dest) + service
        request = Request(kind, src, cycle, intrinsic)
        self.fwd.inject(src, dest, payload=request)
        if self.recorder is not None:
            self.recorder.record("fwd", cycle, src, dest)
        return True

    def _service_latency(self, kind: str, dest: Coord) -> int:
        if dest.y in (-1, self.config.height):  # LLC bank
            if kind == "amo":
                return self.config.amo_service + self.config.mem_latency
            return self.config.mem_latency
        return 1  # scratchpad

    # Barrier protocol -------------------------------------------------
    def barrier_arrive(self, core: Core) -> None:
        self._barrier_sense[core.coord] = self._barrier_generation
        self._barrier_arrivals += 1
        if self._barrier_arrivals == self._cores_remaining:
            self._barrier_generation += 1
            self._barrier_arrivals = 0

    def barrier_released(self, core: Core) -> bool:
        return self._barrier_sense[core.coord] < self._barrier_generation

    def core_finished(self) -> None:
        self._cores_remaining -= 1
        # A finished core must not block others at a barrier.
        if (
            self._cores_remaining
            and self._barrier_arrivals == self._cores_remaining
        ):
            self._barrier_generation += 1
            self._barrier_arrivals = 0

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        cycle = self.cycle
        self.fwd.step()
        self.rev.step()
        for mem in self._memory_list:
            response = mem.pending_response(cycle)
            if response is not None and self.rev.try_inject_from_memory(
                mem.coord, response.payload.src, payload=response.payload
            ):
                if self.recorder is not None:
                    self.recorder.record(
                        "rev", cycle, mem.coord, response.payload.src
                    )
                mem.pop_response()
            mem.serve(cycle)
        rev = self.rev
        depth = self.config.fifo_depth
        for server in self._server_list:
            if server.inbox or server.outbox:
                response = server.pending_response(cycle)
                if response is not None and (
                    rev.source_queue_len(server.coord) < depth
                ):
                    rev.inject(
                        server.coord,
                        response.payload.src,
                        payload=response.payload,
                    )
                    if self.recorder is not None:
                        self.recorder.record(
                            "rev",
                            cycle,
                            server.coord,
                            response.payload.src,
                        )
                    server.pop_response()
                server.serve(cycle)
        for core in self._core_list:
            core.step(cycle)
        self.cycle += 1

    def run(self, max_cycles: int = 2_000_000,
            progress_window: int = 200_000) -> MachineStats:
        """Run to completion (all cores done) or ``max_cycles``.

        Raises :class:`SimulationError` if no core makes progress for
        ``progress_window`` cycles — the livelock/deadlock guard.
        """
        last_progress_mark = self._progress_fingerprint()
        last_check = 0
        while self._cores_remaining and self.cycle < max_cycles:
            self.step()
            if self.cycle - last_check >= progress_window:
                mark = self._progress_fingerprint()
                if mark == last_progress_mark:
                    raise SimulationError(
                        f"no core progress for {progress_window} cycles "
                        f"at cycle {self.cycle}"
                    )
                last_progress_mark = mark
                last_check = self.cycle
        return self.stats(completed=self._cores_remaining == 0)

    def finalize_traces(
        self, provenance: Optional[Dict[str, object]] = None
    ) -> Dict[str, Trace]:
        """The captured ``fwd`` / ``rev`` injection traces of this run.

        Requires a :class:`~repro.sim.trace.TraceRecorder` passed at
        construction.  The replay geometry mirrors the machine's two
        networks — same fabric, DOR order, FIFO depth, and channel
        width — minus the edge-memory endpoints, which capture remaps
        onto the adjacent edge tiles so the trace replays on a fabric
        the compiled engine lowers.
        """
        if self.recorder is None:
            raise SimulationError(
                "this machine was built without a TraceRecorder; pass "
                "recorder=TraceRecorder() to capture traces"
            )
        cfg = self.config
        base: Dict[str, object] = {
            "fifo_depth": cfg.fifo_depth,
            "channel_width_bits": cfg.channel_width_bits,
        }
        if cfg.network.lower().startswith("ruche"):
            base["half"] = True
        return self.recorder.finalize(
            width=cfg.width,
            height=cfg.height,
            duration=self.cycle,
            networks={
                "fwd": (cfg.network, {**base, "dor_order": "xy"}),
                "rev": (cfg.network, {**base, "dor_order": "yx"}),
            },
            provenance=provenance,
        )

    def _progress_fingerprint(self) -> Tuple[int, int]:
        return (
            sum(c.stats.instructions for c in self._core_list),
            sum(c.stats.loads_completed for c in self._core_list),
        )

    def stats(self, completed: Optional[bool] = None) -> MachineStats:
        if completed is None:
            completed = self._cores_remaining == 0
        cores = self._core_list
        return MachineStats(
            cycles=self.cycle,
            completed=completed,
            instructions=sum(c.stats.instructions for c in cores),
            compute_cycles=sum(c.stats.compute_cycles for c in cores),
            stall_mem=sum(c.stats.stall_mem for c in cores),
            stall_net=sum(c.stats.stall_net for c in cores),
            stall_barrier=sum(c.stats.stall_barrier for c in cores),
            loads_completed=sum(c.stats.loads_completed for c in cores),
            latency_total=sum(c.stats.latency_total for c in cores),
            intrinsic_total=sum(c.stats.intrinsic_total for c in cores),
            fwd_hop_counts=list(self.fwd.hop_counts),
            rev_hop_counts=list(self.rev.hop_counts),
            requests_served=(
                sum(m.served for m in self._memory_list)
                + sum(s.served for s in self._server_list)
            ),
        )
