"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark's own code around calls into each
layer (spans inside the program are a later change).  A span carries a
name, start, end, the span that caused it (``parent``), the workload,
and a design-point id; hot methods that run thousands of times per body
(``Network.step``, ``CheckpointStore.put``) are folded into one
*aggregate* span per parent carrying ``calls`` and ``busy_s`` instead of
one record per call.  Everything stays in memory until :meth:`dump`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
import time
from typing import Any, Callable, Dict, Iterator, List, Optional


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def maxrss_mb() -> float:
    """This process's resident-set high-water mark (Linux: KiB → MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = (
        "id", "name", "start", "end", "parent", "dp", "calls", "busy_s"
    )

    def __init__(
        self,
        id: int,
        name: str,
        start: float,
        parent: Optional[int],
        dp: Optional[str],
    ) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.dp = dp
        #: Aggregate spans only: calls folded in, and their summed time.
        self.calls = 0
        self.busy_s = 0.0

    @property
    def seconds(self) -> float:
        return self.busy_s if self.calls else self.end - self.start


class Tracer:
    """Records spans; index in :attr:`spans` is the span id."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, dp: Optional[str] = None) -> Iterator[Span]:
        """Time a block; the yielded span may be renamed before exit."""
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, dp)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with one span per call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_hot(self, name: str, fn: Callable) -> Callable:
        """``fn`` folded into one aggregate span per enclosing span."""
        open_spans: Dict[Optional[int], Span] = {}

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = self._stack[-1] if self._stack else None
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                agg = open_spans.get(parent)
                if agg is None:
                    agg = open_spans[parent] = Span(
                        len(self.spans), name, t0, parent, None
                    )
                    self.spans.append(agg)
                agg.calls += 1
                agg.busy_s += t1 - t0
                agg.end = t1

        return traced

    @contextlib.contextmanager
    def patched(
        self, owner: Any, attr: str, name: str, hot: bool = False
    ) -> Iterator[None]:
        """Temporarily wrap the public ``owner.attr`` with a span."""
        original = getattr(owner, attr)
        wrapper = (self.wrap_hot if hot else self.wrap)(name, original)
        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    # -- queries (over the subtree of ``root``, or everything) ---------
    def _within(self, root: Optional[int]) -> List[int]:
        if root is None:
            return list(range(len(self.spans)))
        keep = {root}
        for idx, span in enumerate(self.spans):  # parents precede children
            if span.parent in keep:
                keep.add(idx)
        return sorted(keep)

    def total(self, name: str, root: Optional[int] = None) -> float:
        return sum(
            self.spans[i].seconds
            for i in self._within(root)
            if self.spans[i].name == name
        )

    def calls(self, name: str, root: Optional[int] = None) -> int:
        return sum(
            self.spans[i].calls or 1
            for i in self._within(root)
            if self.spans[i].name == name
        )

    def self_seconds(self, name: str, root: Optional[int] = None) -> float:
        """Σ over spans called ``name`` of duration minus child spans."""
        ids = self._within(root)
        children: Dict[int, float] = {}
        for i in ids:
            parent = self.spans[i].parent
            if parent is not None:
                children[parent] = (
                    children.get(parent, 0.0) + self.spans[i].seconds
                )
        return sum(
            self.spans[i].seconds - children.get(i, 0.0)
            for i in ids
            if self.spans[i].name == name
        )

    def dump(self, path: str) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        records = [
            {
                "id": s.id,
                "name": s.name,
                "start_s": s.start - origin,
                "end_s": s.end - origin,
                "parent": s.parent,
                "workload": self.workload,
                "dp": s.dp,
                **({"calls": s.calls, "busy_s": s.busy_s} if s.calls else {}),
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.workload, "spans": records}, fh)
