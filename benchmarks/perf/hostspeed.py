"""Sample how fast this vCPU is while a body runs.

The reference host's speed changes under the benchmark: a neighbour on
the sibling hardware thread slows a run by 10-60 % for minutes at a time
(README, *Host noise*).  The slowdown is per vCPU and decorrelates within
a second, so calibrating before and after a run, or on the other vCPU,
does not see it.  What does: a 100 Hz ``SIGALRM`` whose handler times a
fixed ~0.4 ms pure-Python spin *in the timed thread itself* — a few
hundred samples inside every body run.  The fastest spin ever seen is the
quiet-host floor (millisecond-long quiet gaps occur even in the worst
phase), and

    slowdown = mean(spins during the run) / floor

is how much slower than quiet the vCPU was during that run.  The harness
reports ``(elapsed - time spent spinning) / slowdown``: an estimate of
the run's duration on a quiet host.  The handler runs between bytecodes,
so a long C call is sampled once when it returns.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

_SPIN_ITERATIONS = 6000
_INTERVAL_S = 0.01
_CALIBRATE_SPINS = 300
_DESCHEDULED_X = 3.0


def _spin() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(_SPIN_ITERATIONS):
        x += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """:meth:`start` / :meth:`stop` around a run, then :meth:`settle` it."""

    def __init__(self) -> None:
        self.floor = float("inf")
        self._current: List[float] = []

    def calibrate(self) -> None:
        """Look for the floor outside any run (a burst of spins)."""
        self.floor = min(
            self.floor, min(_spin() for _ in range(_CALIBRATE_SPINS))
        )

    def _on_alarm(self, _signum: int, _frame: object) -> None:
        self._current.append(_spin())

    def start(self) -> None:
        self._current = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, _INTERVAL_S, _INTERVAL_S)

    def stop(self) -> List[float]:
        """End the run; returns its spin times for :meth:`settle`."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        spins = self._current
        if spins:
            self.floor = min(self.floor, min(spins))
        return spins

    def settle(
        self, spins: List[float], elapsed: float
    ) -> Tuple[float, float]:
        """``(quiet-host estimate of elapsed, slowdown)`` for one run.

        Call after the last run and a :meth:`calibrate`, so every run is
        judged against the same (final) floor.  A run shorter than one
        timer interval has no spins and is returned as measured.
        """
        if not spins:
            return elapsed, 1.0
        # Contention on the sibling thread cannot triple a spin; one
        # that long was descheduled, which is lost time, not slowness
        # (it is still subtracted from ``elapsed`` in full).
        cap = _DESCHEDULED_X * self.floor
        slowdown = sum(min(s, cap) for s in spins) / len(spins) / self.floor
        return (elapsed - sum(spins)) / slowdown, slowdown
