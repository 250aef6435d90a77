"""Abstract in-order core executing a remote-memory operation stream.

This is the execution-driven substitution for the paper's RTL RISC-V
cores: each core consumes a kernel-generated stream of operations and
interacts with the *real* simulated networks.  What the substitution
preserves — and what the paper's methodology section argues matters — is
the feedback loop: network congestion delays responses, delayed responses
fill the core's outstanding-request window, a full window stalls the
core, and a stalled core injects nothing, reshaping the traffic.

Operation vocabulary (produced by :mod:`repro.manycore.kernels`):

``("compute", n)``
    Execute ``n`` single-cycle instructions locally.
``("load", addr)`` / ``("store", addr)`` / ``("amo", addr)``
    Remote access to the LLC bank selected by IPOLY hashing of ``addr``.
    All three occupy a window slot until their response (data or ack)
    returns on the response network; atomics additionally serialize at
    the bank.
``("tload", (x, y), addr)`` / ``("tstore", (x, y), addr)``
    Remote access to another tile's scratchpad (Jacobi halo exchange,
    FFT transpose).
``("fence",)``
    Wait until the window is empty.
``("barrier",)``
    Global sense-reversing barrier across all cores.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.core.coords import Coord

#: What :meth:`Core.step` returns: ``RUNNABLE`` when the core must be
#: stepped again next cycle (it issued, retired, or found its source
#: queue full), else why every step before one event would only charge a
#: counter — ``BUSY`` until cycle ``busy_until``; ``WINDOW`` until any
#: response arrives; ``DRAIN`` (a fence, or the drain before finishing)
#: until ``outstanding == 0``; ``BARRIER`` until
#: :meth:`Core.leave_barrier`; ``DONE`` for good.
RUNNABLE, BUSY, WINDOW, DRAIN, BARRIER, DONE = range(6)

_LLC_OPS = ("load", "store", "amo")
_TILE_OPS = {"tload": "load", "tstore": "store"}


class Request:
    """An in-flight remote request (rides the packet payload)."""

    __slots__ = ("kind", "src", "issue_cycle", "intrinsic")

    def __init__(self, kind: str, src: Coord, issue_cycle: int,
                 intrinsic: int) -> None:
        self.kind = kind
        self.src = src
        self.issue_cycle = issue_cycle
        self.intrinsic = intrinsic

    @property
    def is_amo(self) -> bool:
        return self.kind == "amo"


class CoreStats:
    """Per-core cycle and latency accounting (Figures 12 and 13 inputs)."""

    __slots__ = (
        "instructions",
        "compute_cycles",
        "stall_mem",
        "stall_net",
        "stall_barrier",
        "loads_completed",
        "latency_total",
        "intrinsic_total",
        "finish_cycle",
    )

    def __init__(self) -> None:
        self.instructions = 0
        self.compute_cycles = 0
        self.stall_mem = 0
        self.stall_net = 0
        self.stall_barrier = 0
        self.loads_completed = 0
        self.latency_total = 0
        self.intrinsic_total = 0
        self.finish_cycle = 0

    @property
    def stall_cycles(self) -> int:
        return self.stall_mem + self.stall_net + self.stall_barrier


class Core:
    """One in-order core with a bounded remote-request window."""

    __slots__ = (
        "coord",
        "machine",
        "_ops",
        "_current",
        "busy_until",
        "outstanding",
        "_at_barrier",
        "done",
        "stats",
    )

    def __init__(self, coord: Coord, ops: Iterator[Tuple],
                 machine) -> None:
        self.coord = coord
        self.machine = machine
        self._ops = ops
        self._current: Optional[Tuple] = None
        self.busy_until = 0
        self.outstanding = 0
        self._at_barrier = False
        self.done = False
        self.stats = CoreStats()

    # ------------------------------------------------------------------
    def receive(self, request: Request, cycle: int) -> None:
        """A response arrived on the response network."""
        self.outstanding -= 1
        self.stats.loads_completed += 1
        self.stats.latency_total += cycle - request.issue_cycle
        self.stats.intrinsic_total += request.intrinsic

    def _fetch(self) -> Optional[Tuple]:
        """The current operation, a remote one as ``(kind, dest)``.

        The destination is resolved here, once, however often a full
        window or source queue makes :meth:`step` retry the operation.
        """
        op = self._current
        if op is None:
            op = next(self._ops, None)
            if op is not None:
                kind = op[0]
                if kind in _LLC_OPS:
                    op = (kind, self.machine.llc_coord(op[1]))
                elif kind in _TILE_OPS:
                    op = (_TILE_OPS[kind], Coord(*op[1]))
                self._current = op
        return op

    def _retire(self) -> None:
        self._current = None

    def leave_barrier(self) -> None:
        """The barrier this core waits at released: retire it."""
        self._at_barrier = False
        self._retire()

    def skip(self, why: int, cycles: int) -> None:
        """Account ``cycles`` cycles the core was not stepped while
        blocked by ``why``: what that many :meth:`step` calls add."""
        stats = self.stats
        if why == BUSY:
            stats.compute_cycles += cycles
            stats.instructions += cycles
        elif why == BARRIER:
            stats.stall_barrier += cycles
        else:  # WINDOW, DRAIN
            stats.stall_mem += cycles

    def step(self, cycle: int) -> int:
        """Advance one cycle; say what the next step waits for.

        A blocked core that is stepped anyway accounts that cycle
        itself: the return value lets a scheduler skip such steps (and
        :meth:`skip` their cycles), it never stands in for one.
        """
        if self.done:
            return DONE
        if cycle < self.busy_until:
            self.stats.compute_cycles += 1
            self.stats.instructions += 1
            return BUSY
        if self._at_barrier:
            self.stats.stall_barrier += 1
            return BARRIER
        op = self._fetch()
        if op is None:
            if self.outstanding:
                self.stats.stall_mem += 1  # drain before finishing
                return DRAIN
            self.done = True
            self.stats.finish_cycle = cycle
            self.machine.core_finished()
            return DONE
        kind = op[0]
        if kind in _LLC_OPS:
            return self._issue(cycle, kind, op[1])
        if kind == "compute":
            self.busy_until = cycle + op[1]
            self.stats.compute_cycles += 1
            self.stats.instructions += 1
            self._retire()
            return BUSY if op[1] > 1 else RUNNABLE
        if kind == "fence":
            if self.outstanding:
                self.stats.stall_mem += 1
                return DRAIN
            # A satisfied fence retires for free; the next operation
            # executes in the same cycle (mirrors barrier release).
            self._retire()
            return self.step(cycle)
        if kind == "barrier":
            # The arrival may itself release the barrier.
            self._at_barrier = True
            self.stats.stall_barrier += 1
            self.machine.barrier_arrive(self)
            return BARRIER if self._at_barrier else RUNNABLE
        raise ValueError(f"unknown core op: {op!r}")  # kernel bug guard

    def _issue(self, cycle: int, kind: str, dest: Coord) -> int:
        if self.outstanding >= self.machine.config.window:
            self.stats.stall_mem += 1
            return WINDOW
        if not self.machine.try_issue(self, kind, dest, cycle):
            self.stats.stall_net += 1
            return RUNNABLE
        self.outstanding += 1
        self.stats.instructions += 1
        self._retire()
        return RUNNABLE
