"""Pipelined channels with credit-based flow control.

Section 3.2 of the paper: "As the tile size or Ruche Factor increases,
the wire delay starts to dominate, in which case the router and the
physical link need to be pipelined using credit-based flow control.  The
capacity of input FIFOs needs to be increased accordingly to hide the
credit-return latency."

A :class:`PipelinedChannel` models exactly that: flits take
``latency`` cycles to cross, credits take ``latency`` cycles to return,
and the sender may only push while it holds credits.  With the default
single-cycle channels the network bypasses this module entirely (the
sender reads the receiver FIFO's occupancy directly, which is equivalent
for latency 1).

Round-trip accounting: sustaining one flit per cycle across a channel of
latency ``L`` needs ``2L`` buffer slots downstream — the ablation bench
``benchmarks/test_ablation_channel_latency.py`` demonstrates the paper's
sizing rule.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.sim.packet import Packet


class PipelinedChannel:
    """A multi-cycle link between two routers, flow-controlled by credits.

    Parameters
    ----------
    latency:
        Cycles for a flit to traverse (and for a credit to return).
    depth:
        Receiver FIFO depth per lane; the sender starts with this many
        credits per lane.
    num_lanes:
        1 for wormhole receivers; the VC count for torus receivers
        (credits are per-VC).
    """

    __slots__ = ("latency", "num_lanes", "credits", "_in_flight",
                 "_credit_returns")

    def __init__(self, latency: int, depth: int, num_lanes: int = 1) -> None:
        if latency < 1:
            raise ValueError("channel latency must be >= 1")
        self.latency = latency
        self.num_lanes = num_lanes
        self.credits: List[int] = [depth] * num_lanes
        # (arrival_cycle, packet, lane)
        self._in_flight: Deque[Tuple[int, Packet, int]] = deque()
        # (mature_cycle, lane)
        self._credit_returns: Deque[Tuple[int, int]] = deque()

    def can_send(self, lane: int = 0) -> bool:
        return self.credits[lane] > 0

    def send(self, pkt: Packet, cycle: int, lane: int = 0) -> None:
        if self.credits[lane] <= 0:
            raise OverflowError("send without credit: flow control broken")
        self.credits[lane] -= 1
        self._in_flight.append((cycle + self.latency, pkt, lane))

    def credit_return(self, cycle: int, lane: int = 0) -> None:
        """The receiver freed a slot; the credit matures after the wire
        delay back to the sender."""
        self._credit_returns.append((cycle + self.latency, lane))

    def deliveries(self, cycle: int):
        """Pop and yield every (packet, lane) arriving this cycle, and
        mature any due credits."""
        while self._credit_returns and self._credit_returns[0][0] <= cycle:
            _, lane = self._credit_returns.popleft()
            self.credits[lane] += 1
        while self._in_flight and self._in_flight[0][0] <= cycle:
            _, pkt, lane = self._in_flight.popleft()
            yield pkt, lane

    @property
    def occupancy(self) -> int:
        """Flits currently on the wire."""
        return len(self._in_flight)

