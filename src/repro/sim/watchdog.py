"""Forward-progress watchdog: stall detection and diagnostic snapshots.

The network's step loop counts two windows while packets are in flight:

* **stall** — cycles with no switch traversal and no channel arrival
  anywhere (a classic buffer-cycle deadlock);
* **starvation** — cycles with no ejection anywhere, even though packets
  are moving (a livelock: traffic circling without delivering).

When either window exceeds its threshold the network raises a
:class:`~repro.errors.DeadlockError` carrying a
:class:`DeadlockSnapshot`, which attributes the stall to specific
routers: per-router buffered occupancy, the head-of-line packet on every
input with the reason its move is blocked, plus the invariant audit from
:func:`~repro.sim.validate.audit_network` (so a flow-control bug is
distinguishable from a genuine routing deadlock).

The compiled engine (:mod:`repro.sim.fastsim`) runs the same two
counters as cheap in-loop integers and only pays for diagnostics on
trip: it rebuilds the reference object model, replays every buffered
packet into it, and calls :func:`capture_snapshot` on the
reconstruction — so a compiled-engine ``DeadlockError`` carries a
snapshot identical, field for field, to the reference engine's.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.errors import DeadlockError

#: Consecutive all-idle cycles with packets in flight before the watchdog
#: declares a deadlock.  Correct healthy routing never trips this.
DEFAULT_STALL_WINDOW = 1000


@dataclasses.dataclass(frozen=True)
class WatchdogConfig:
    """Thresholds for the forward-progress watchdog.

    ``stall_window`` counts consecutive cycles with zero movement while
    packets are in flight.  ``starvation_window`` (optional; disabled
    when ``None``) counts consecutive cycles with zero ejections while
    packets are in flight — it catches livelocks that the stall counter
    misses because packets keep moving.  Endpoint-driven simulations
    (the manycore layer) should keep starvation detection off or
    generous: long legitimate ejection gaps are possible under
    endpoint backpressure.
    """

    stall_window: int = DEFAULT_STALL_WINDOW
    starvation_window: Optional[int] = None

    def __post_init__(self) -> None:
        if self.stall_window < 1:
            raise ValueError("stall_window must be >= 1")
        if self.starvation_window is not None and self.starvation_window < 1:
            raise ValueError("starvation_window must be >= 1")


@dataclasses.dataclass(frozen=True)
class BlockedHead:
    """A head-of-line packet that cannot move, and why."""

    input_dir: int
    pid: int
    dest: Tuple[int, int]
    out_dir: int
    reason: str


@dataclasses.dataclass(frozen=True)
class StalledRouter:
    """One router holding traffic at watchdog-trip time."""

    coord: Tuple[int, int]
    buffered: int
    heads: Tuple[BlockedHead, ...]


@dataclasses.dataclass(frozen=True)
class DeadlockSnapshot:
    """Everything needed to diagnose a watchdog trip offline."""

    kind: str  # "stall" or "starvation"
    cycle: int
    occupancy: int
    window: int
    stalled_routers: Tuple[StalledRouter, ...]
    audit_problems: Tuple[str, ...]

    def summary(self, max_routers: int = 5) -> str:
        names = ", ".join(
            str(r.coord) for r in self.stalled_routers[:max_routers]
        )
        extra = (
            f" (+{len(self.stalled_routers) - max_routers} more)"
            if len(self.stalled_routers) > max_routers
            else ""
        )
        text = (
            f"{self.kind} at cycle {self.cycle}: no progress for "
            f"{self.window} cycles with {self.occupancy} packets in "
            f"flight; stalled routers: {names}{extra}"
        )
        if self.audit_problems:
            text += f"; audit: {'; '.join(self.audit_problems)}"
        return text


def _blocking_reason(router, pkt) -> str:
    """Why a head-of-line packet's requested output cannot accept it."""
    from repro.sim.router import P_IDX, PipelinedLink, Sink

    target = router.out_target[pkt.out_dir]
    if target is None:
        return "routed to unwired output"
    if isinstance(target, Sink):
        return "ready" if target.ready() else "sink backpressure"
    if isinstance(target, PipelinedLink):
        lane = getattr(pkt, "out_vc", 0)
        return (
            "ready"
            if target.channel.can_send(lane)
            else "no channel credit"
        )
    down, idx = target
    lanes = down.in_q[idx]
    if isinstance(lanes, tuple):
        lanes = (lanes[0] if idx == P_IDX else lanes[pkt.out_vc],)
    else:
        lanes = (lanes,)
    fifo = lanes[0]
    depth = getattr(fifo, "depth", None)
    if depth is not None and len(fifo) >= depth:
        return f"downstream FIFO full at {tuple(down.coord)}"
    return "ready (lost arbitration)"


def capture_snapshot(net, kind: str, window: int) -> DeadlockSnapshot:
    """Build a :class:`DeadlockSnapshot` from a live network."""
    from repro.sim.validate import audit_network

    stalled: List[StalledRouter] = []
    for coord, router in net.routers.items():
        if not router.occ:
            continue
        heads: List[BlockedHead] = []
        for in_idx, lanes in enumerate(router.in_q):
            if lanes is None:
                continue
            lane_list = lanes if isinstance(lanes, tuple) else (lanes,)
            for lane in lane_list:
                if not lane:
                    continue
                pkt = lane[0]
                heads.append(
                    BlockedHead(
                        input_dir=in_idx,
                        pid=pkt.pid,
                        dest=tuple(pkt.dest),
                        out_dir=pkt.out_dir,
                        reason=_blocking_reason(router, pkt),
                    )
                )
        stalled.append(
            StalledRouter(
                coord=tuple(coord),
                buffered=router.occ,
                heads=tuple(heads),
            )
        )
    stalled.sort(key=lambda r: (-r.buffered, r.coord))
    return DeadlockSnapshot(
        kind=kind,
        cycle=net.cycle,
        occupancy=net.occupancy,
        window=window,
        stalled_routers=tuple(stalled),
        audit_problems=tuple(audit_network(net)),
    )


def deadlock_error(net, kind: str, window: int) -> DeadlockError:
    """The :class:`~repro.errors.DeadlockError` of a tripped watchdog.

    ``kind`` is ``"stall"`` or ``"starvation"`` and ``window`` the
    cycles it counted; the error carries ``net``'s snapshot.
    """
    snapshot = capture_snapshot(net, kind, window)
    verb, noun = (
        ("moved", "deadlock") if kind == "stall" else ("ejected", "livelock")
    )
    return DeadlockError(
        f"no packet {verb} for {window} cycles with {net.occupancy} "
        f"packets in flight: {noun} [{snapshot.summary()}]",
        snapshot=snapshot,
    )
