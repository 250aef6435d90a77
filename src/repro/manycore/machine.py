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
import functools
from heapq import heapify, heappop, heappush
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.coords import Coord
from repro.core.spec import build_network
from repro.errors import ConfigError, SimulationError
from repro.manycore.config import MachineConfig
from repro.manycore.core_model import (
    BUSY,
    DONE,
    DRAIN,
    RUNNABLE,
    WINDOW,
    Core,
    Request,
)
from repro.manycore.ipoly import ipoly_bank_lookup, modulo_hash
from repro.manycore.memory import (
    MemoryTile,
    ScratchpadServer,
    ServicePoint,
)
from repro.sim.fastsim import (
    CompiledFabric,
    LoweringDiagnostic,
    fabric_problems,
)
from repro.sim.packet import Packet
from repro.sim.router import Sink
from repro.sim.trace import Trace, TraceRecorder


class _CoreSink(Sink):
    """Response-network ejection port of a compute tile.

    A response is the event a window-, fence- or drain-blocked core
    sleeps for, so the port tells the machine which core got one.
    """

    __slots__ = ("core", "index", "machine")

    def __init__(self, core: Core, index: int, machine: "Machine") -> None:
        self.core = core
        self.index = index
        self.machine = machine

    def deliver(self, pkt: Packet, cycle: int) -> None:
        self.core.receive(pkt.payload, cycle)
        self.machine._response_delivered(self.index)


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
        self._mem_coords = config.memory_coords()
        banks = len(self._mem_coords)
        self._bank = (
            ipoly_bank_lookup(banks)
            if hash_fn == "ipoly"
            else lambda addr: modulo_hash(addr, banks)
        )
        self._intrinsic_cache: Dict[Tuple[Coord, Coord], int] = {}

        # Endpoints.  Delivering a request marks its endpoint active
        # (see :meth:`step`).
        self.cores: Dict[Coord, Core] = {}
        self.servers: Dict[Coord, ScratchpadServer] = {}
        self.memories: Dict[Coord, MemoryTile] = {}
        self._active_servers: Set[int] = set()
        self._active_memories: Set[int] = set()
        for i, coord in enumerate(config.compute_coords()):
            ops = workload.get(coord, iter(()))
            self.cores[coord] = Core(coord, ops, self)
            self.servers[coord] = ScratchpadServer(
                coord,
                config.inbox_capacity,
                on_deliver=functools.partial(self._active_servers.add, i),
            )
        for i, coord in enumerate(self._mem_coords):
            self.memories[coord] = MemoryTile(
                coord,
                config.inbox_capacity,
                config.mem_latency,
                config.amo_service,
                on_deliver=functools.partial(self._active_memories.add, i),
            )
        self._core_list = list(self.cores.values())
        self._server_list = list(self.servers.values())
        self._memory_list = list(self.memories.values())
        core_sinks = {
            coord: _CoreSink(core, i, self)
            for i, (coord, core) in enumerate(self.cores.items())
        }

        # Networks: requests X-Y, responses Y-X.  Both on one engine.
        #: Why a ``"compiled"`` request runs on reference (else empty).
        self.fallback: List[LoweringDiagnostic] = []
        if engine == "compiled":
            self.fallback = fabric_problems(
                config.forward_config
            ) or fabric_problems(config.reverse_config)
        #: The engine that actually steps the networks.
        self.engine = "reference" if self.fallback else engine
        fabric = CompiledFabric if self.engine == "compiled" else build_network
        self.fwd = fabric(
            config.forward_config,
            sink_factory=lambda c: self.servers[c],
            memory_sink_factory=lambda c: self.memories[c],
        )
        self.rev = fabric(
            config.reverse_config,
            sink_factory=core_sinks.__getitem__,
            memory_sink_factory=_UnexpectedSink,
        )

        # Which cores a cycle steps (see :meth:`step`).  ``_ready``
        # holds the cores to step this cycle (a heap while they are
        # stepped), ``_next`` collects next cycle's; every other core
        # that is not done sleeps: ``_why[i]`` says on what and
        # ``_since[i]`` is the last cycle it has been charged for.
        n = len(self._core_list)
        self._ready: List[int] = list(range(n))
        self._next: List[int] = []
        self._why = [RUNNABLE] * n
        self._since = [0] * n
        #: ``busy_until`` cycle -> the cores sleeping until then.
        self._timers: Dict[int, List[int]] = {}
        #: The core being stepped: who arrives, finishes, releases.
        self._stepping = -1
        self._at_barrier: List[int] = []
        self._cores_remaining = n

    # ------------------------------------------------------------------
    # Services used by cores
    # ------------------------------------------------------------------
    def llc_coord(self, addr: int) -> Coord:
        """The LLC bank owning ``addr`` under the configured hashing."""
        return self._mem_coords[self._bank(addr)]

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

    # Barrier protocol (called by the core being stepped) --------------
    def barrier_arrive(self, core: Core) -> None:
        self._at_barrier.append(self._stepping)
        if len(self._at_barrier) == self._cores_remaining:
            self._release_barrier()

    def core_finished(self) -> None:
        self._cores_remaining -= 1
        # A finished core must not block others at a barrier.
        if (
            self._cores_remaining
            and len(self._at_barrier) == self._cores_remaining
        ):
            self._release_barrier()

    def _release_barrier(self) -> None:
        """Every arrived core leaves the barrier (rule 2 of :meth:`step`)."""
        releaser, cycle, cores = self._stepping, self.cycle, self._core_list
        for i in self._at_barrier:
            cores[i].leave_barrier()
            if self._why[i] != RUNNABLE:
                if i > releaser:
                    self._wake(i, cycle)
                    heappush(self._ready, i)
                else:
                    self._wake(i, cycle + 1)
                    self._next.append(i)
        self._at_barrier.clear()

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the machine one cycle, stepping only what can act.

        Both networks step; then every *active* memory, then every
        active scratchpad server (one whose inbox or outbox is not
        empty: a delivery activates it, a visit that leaves both empty
        drops it); then every core that is neither done nor asleep.
        :meth:`Core.step` says why a core cannot proceed and the machine
        stops stepping it until exactly the event that unblocks it: the
        ``busy_until`` cycle (a timer), a response at its ejection port
        (any for a full window, the last outstanding one for a fence or
        the final drain), the barrier release.  A core whose source
        queue is full keeps being stepped: what unblocks it is a pop
        inside the network, which has no hook.

        No statistic may tell this schedule from stepping every core
        and endpoint every cycle.  Five rules see to that:

        1. *Same-cycle wake on response.*  ``rev.step()`` delivers
           before the cores step, so a core woken by a response steps
           in this cycle.
        2. *Barrier release is index-ordered.*  When core ``k`` releases
           the barrier while being stepped in cycle ``c`` (by arriving
           last, or by finishing), sleepers with a higher index step in
           ``c`` — they join the cores still to step — and those with a
           lower index were already charged for ``c`` and step in
           ``c + 1``.
        3. *Credit is arithmetic and goes where the blocking step
           charged.*  Blocked by the step of cycle ``s`` and next
           stepped in cycle ``w``, a core gets ``w - s - 1`` cycles of
           what that step charged (:meth:`Core.skip`).  A blocked core
           that is stepped anyway accounts that cycle itself: sleeping
           changes the schedule, never ``Core.step``.
        4. *Readers settle sleepers.*  :meth:`stats` (so a
           ``max_cycles`` cut too) and the progress guard first credit
           every sleeper up to the current cycle, idempotently; read
           per-core ``CoreStats`` after one of them.
        5. *Visit order is list order* — memories, then servers, then
           cores by index — because offer order assigns packet ids, the
           recorder's event order and the kernel's enqueue order.
        """
        cycle = self.cycle
        self.fwd.step()
        self.rev.step()
        if self._active_memories:
            self._respond_and_serve(
                self._memory_list, self._active_memories,
                self._offer_from_memory, cycle,
            )
        if self._active_servers:
            self._respond_and_serve(
                self._server_list, self._active_servers,
                self._offer_from_tile, cycle,
            )
        ready = self._ready
        for i in self._timers.pop(cycle, ()):
            self._wake(i, cycle)
            ready.append(i)
        if ready:
            heapify(ready)
            cores, still = self._core_list, self._next
            while ready:
                i = self._stepping = heappop(ready)
                why = cores[i].step(cycle)
                if why == RUNNABLE:
                    still.append(i)
                elif why != DONE:
                    self._park(i, why, cycle)
            self._ready, self._next = still, ready
        self.cycle = cycle + 1

    def _respond_and_serve(
        self,
        points: Sequence[ServicePoint],
        active: Set[int],
        offer: Callable[[Coord, Request], bool],
        cycle: int,
    ) -> None:
        """One cycle of the ``active`` endpoints of ``points``, in order."""
        recorder = self.recorder
        for i in sorted(active):
            point = points[i]
            response = point.pending_response(cycle)
            if response is not None:
                request = response.payload
                if offer(point.coord, request):
                    if recorder is not None:
                        recorder.record(
                            "rev", cycle, point.coord, request.src
                        )
                    point.pop_response()
            point.serve(cycle)
            if not (point.inbox or point.outbox):
                active.discard(i)

    def _offer_from_memory(self, coord: Coord, request: Request) -> bool:
        return self.rev.try_inject_from_memory(
            coord, request.src, payload=request
        )

    def _offer_from_tile(self, coord: Coord, request: Request) -> bool:
        if self.rev.source_queue_len(coord) >= self.config.fifo_depth:
            return False
        self.rev.inject(coord, request.src, payload=request)
        return True

    # Sleeping cores ---------------------------------------------------
    def _park(self, i: int, why: int, cycle: int) -> None:
        """Core ``i``, stepped in ``cycle``, sleeps until ``why`` ends."""
        self._why[i] = why
        self._since[i] = cycle
        if why == BUSY:
            self._timers.setdefault(
                self._core_list[i].busy_until, []
            ).append(i)

    def _credit(self, i: int, through: int) -> None:
        """Charge sleeper ``i`` for the cycles up to ``through``."""
        skipped = through - self._since[i]
        if skipped:
            self._core_list[i].skip(self._why[i], skipped)
            self._since[i] = through

    def _wake(self, i: int, cycle: int) -> None:
        """Sleeper ``i`` steps again in ``cycle``; the caller lists it."""
        self._credit(i, cycle - 1)
        self._why[i] = RUNNABLE

    def _response_delivered(self, i: int) -> None:
        """Core ``i`` got a response (``rev.step()``, this cycle)."""
        why = self._why[i]
        if why == WINDOW or (
            why == DRAIN and not self._core_list[i].outstanding
        ):
            self._wake(i, self.cycle)
            self._ready.append(i)

    def _settle(self) -> None:
        """Bring every sleeper's counters up to the current cycle."""
        for i, why in enumerate(self._why):
            if why != RUNNABLE:
                self._credit(i, self.cycle - 1)

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
        self._settle()
        return (
            sum(c.stats.instructions for c in self._core_list),
            sum(c.stats.loads_completed for c in self._core_list),
        )

    def stats(self, completed: Optional[bool] = None) -> MachineStats:
        if completed is None:
            completed = self._cores_remaining == 0
        self._settle()
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
