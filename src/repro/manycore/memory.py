"""Memory-side endpoints: LLC banks and tile scratchpad servers.

Both endpoint types follow the same pattern: a bounded inbox fed by the
request network's ejection port (a full inbox backpressures the network),
a service pipeline, and an outbox drained into the response network
(which can itself backpressure).  LLC banks additionally serialize
atomics — the mechanism behind the paper's SpGEMM hotspot observation.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Tuple

from repro.core.coords import Coord
from repro.sim.packet import Packet
from repro.sim.router import Sink


def _nobody() -> None:
    """The default ``on_deliver``: an endpoint nobody schedules."""


class ServicePoint(Sink):
    """Shared inbox/service/outbox machinery for memory-side endpoints.

    An endpoint with an empty inbox and an empty outbox has nothing to
    do until the next delivery, which calls ``on_deliver()`` — how the
    machine learns it must visit this endpoint again.
    """

    __slots__ = ("coord", "capacity", "inbox", "outbox", "busy_until",
                 "served", "on_deliver")

    def __init__(self, coord: Coord, capacity: int,
                 on_deliver: Callable[[], object] = _nobody) -> None:
        self.coord = coord
        self.capacity = capacity
        self.on_deliver = on_deliver
        self.inbox: Deque[Packet] = deque()
        self.outbox: Deque[Tuple[int, Packet]] = deque()
        self.busy_until = 0
        self.served = 0

    # Sink interface (request-network ejection).
    def ready(self) -> bool:
        return len(self.inbox) < self.capacity

    def deliver(self, pkt: Packet, cycle: int) -> None:
        self.inbox.append(pkt)
        self.on_deliver()

    def _service_time(self, pkt: Packet) -> Tuple[int, int]:
        """(bank occupancy cycles, response-ready latency)."""
        raise NotImplementedError

    def serve(self, cycle: int) -> None:
        """Dequeue at most one request into the response outbox."""
        if not self.inbox or cycle < self.busy_until:
            return
        pkt = self.inbox.popleft()
        occupancy, latency = self._service_time(pkt)
        self.busy_until = cycle + occupancy
        self.outbox.append((cycle + latency, pkt))
        self.served += 1

    def pending_response(self, cycle: int):
        """The response due for injection this cycle, if any."""
        if self.outbox and self.outbox[0][0] <= cycle:
            return self.outbox[0][1]
        return None

    def pop_response(self) -> Packet:
        return self.outbox.popleft()[1]


class MemoryTile(ServicePoint):
    """One LLC bank on the array's northern or southern edge.

    Serves one request per cycle at a fixed pipeline latency; atomic
    operations occupy the bank for ``amo_service`` cycles, so a stream of
    atomics to one bank queues up — the execution-driven hotspot.
    """

    __slots__ = ("mem_latency", "amo_service")

    def __init__(self, coord: Coord, capacity: int, mem_latency: int,
                 amo_service: int,
                 on_deliver: Callable[[], object] = _nobody) -> None:
        super().__init__(coord, capacity, on_deliver)
        self.mem_latency = mem_latency
        self.amo_service = amo_service

    def _service_time(self, pkt: Packet) -> Tuple[int, int]:
        request = pkt.payload
        if request is not None and request.is_amo:
            return self.amo_service, self.amo_service + self.mem_latency
        return 1, self.mem_latency


class ScratchpadServer(ServicePoint):
    """The remote-access port of a compute tile's scratchpad.

    One word per cycle at single-cycle latency (the paper's tiles serve
    neighbour scratchpad accesses at SRAM speed).
    """

    def _service_time(self, pkt: Packet) -> Tuple[int, int]:
        return 1, 1
