"""Measurement collection: latency statistics, throughput, fairness.

The simulator's default packet sink feeds a :class:`RunMetrics`, which
aggregates the quantities the paper reports: average/percentile latency
(Figures 6, 9), accepted throughput, per-source-tile latency distributions
(the fairness study of Figure 8), and per-direction channel traversal
counts (input to the energy models of Table 3 / Figure 13).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.coords import Coord, Direction


class LatencyStats:
    """Streaming mean/stddev/min/max of packet latencies."""

    __slots__ = ("count", "total", "total_sq", "min", "max", "_samples")

    def __init__(self, keep_samples: bool = False) -> None:
        self.count = 0
        self.total = 0
        self.total_sq = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self._samples: Optional[List[int]] = [] if keep_samples else None

    def add(self, latency: int) -> None:
        self.count += 1
        self.total += latency
        self.total_sq += latency * latency
        if self.min is None or latency < self.min:
            self.min = latency
        if self.max is None or latency > self.max:
            self.max = latency
        if self._samples is not None:
            self._samples.append(latency)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    @property
    def stddev(self) -> float:
        if self.count < 2:
            return 0.0
        mean = self.mean
        var = self.total_sq / self.count - mean * mean
        return math.sqrt(max(0.0, var))

    def percentile(self, q: float) -> float:
        """Latency percentile ``q`` in [0, 1]; needs ``keep_samples``.

        Nearest-rank definition: the smallest sample with at least a
        ``q`` fraction of the distribution at or below it.  Well-defined
        on short runs too — with fewer than 1000 samples, p999 is the
        maximum, not an out-of-range index rounded to something odd.
        """
        if self._samples is None:
            raise ValueError("percentiles require keep_samples=True")
        if not self._samples:
            return float("nan")
        ordered = sorted(self._samples)
        n = len(ordered)
        idx = min(n - 1, max(0, math.ceil(q * n) - 1))
        return float(ordered[idx])

    def merge(self, other: "LatencyStats") -> None:
        self.count += other.count
        self.total += other.total
        self.total_sq += other.total_sq
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        if self._samples is not None and other._samples is not None:
            self._samples.extend(other._samples)


def tile_moments(
    per_tile_means: Mapping[Any, float]
) -> Tuple[float, float, float, float]:
    """``(mean, stddev, min, max)`` of per-tile mean latencies.

    Population moments over the tiles that delivered something: a NaN
    mean (see :meth:`RunMetrics.per_source_means`) is excluded, and all
    four are NaN when every tile's is.
    """
    means = [m for m in per_tile_means.values() if not math.isnan(m)]
    if not means:
        nan = float("nan")
        return nan, nan, nan, nan
    mean = sum(means) / len(means)
    var = sum((m - mean) ** 2 for m in means) / len(means)
    return mean, math.sqrt(var), min(means), max(means)


def fairness_stats(per_source_means: Dict) -> Dict[str, float]:
    """Per-tile fairness of mean latencies: max/mean ratio and CV.

    ``per_source_means`` maps source tiles to their mean measured
    latency (see :meth:`RunMetrics.per_source_means`); tiles that
    delivered nothing (NaN mean) are excluded (:func:`tile_moments`).
    A max/mean ratio near 1 and a small coefficient of variation mean
    the fabric serves every tile evenly (the Figure 8 question); both
    degrade near saturation.
    """
    mean, stddev, _low, high = tile_moments(per_source_means)
    return dict(
        fairness_max_over_mean=high / mean if mean else float("nan"),
        fairness_cv=stddev / mean if mean else float("nan"),
    )


def tail_latency_stats(metrics: "RunMetrics") -> Dict[str, float]:
    """p50/p99/p999 plus fairness for one run, as flat row columns.

    Requires the run to have been measured with ``keep_samples=True``;
    the fairness columns additionally require ``track_per_source=True``
    and are omitted otherwise.
    """
    out = {
        "p50_latency": metrics.measured.percentile(0.50),
        "p99_latency": metrics.measured.percentile(0.99),
        "p999_latency": metrics.measured.percentile(0.999),
    }
    if metrics.per_source is not None:
        out.update(fairness_stats(metrics.per_source_means()))
    return out


class RunMetrics:
    """All measurements collected during one simulation run."""

    def __init__(
        self,
        track_per_source: bool = False,
        keep_samples: bool = False,
        track_links: bool = False,
    ) -> None:
        self.measured = LatencyStats(keep_samples=keep_samples)
        self.delivered_total = 0
        self.delivered_measured = 0
        self.injected_total = 0
        self.injected_measured = 0
        #: Flits destroyed by transient link faults (fault injection).
        self.dropped_total = 0
        self.dropped_measured = 0
        self.hop_counts = [0] * len(Direction)
        self.per_source: Optional[Dict[Coord, LatencyStats]] = (
            {} if track_per_source else None
        )
        #: Per-channel traversal counts, keyed (source tile, direction).
        #: Populated by the network only when tracking is requested
        #: (it costs a dict update per switch traversal).
        self.link_counts: Optional[Dict] = {} if track_links else None

    # Called by the network on every ejection.
    def record_delivery(self, pkt, cycle: int) -> None:
        self.delivered_total += 1
        if pkt.measured:
            self.delivered_measured += 1
            latency = cycle - pkt.inject_cycle
            self.measured.add(latency)
            if self.per_source is not None:
                stats = self.per_source.get(pkt.src)
                if stats is None:
                    stats = LatencyStats()
                    self.per_source[pkt.src] = stats
                stats.add(latency)

    def record_injection(self, measured: bool) -> None:
        self.injected_total += 1
        if measured:
            self.injected_measured += 1

    # Called by the network when a transient link fault destroys a flit.
    def record_drop(self, pkt) -> None:
        self.dropped_total += 1
        if pkt.measured:
            self.dropped_measured += 1

    def per_source_means(self) -> Dict[Coord, float]:
        """Per-tile mean latency (the Figure 8 distribution)."""
        if self.per_source is None:
            raise ValueError("run was not configured with track_per_source")
        return {src: stats.mean for src, stats in self.per_source.items()}

    def hop_count_for(self, direction: Direction) -> int:
        return self.hop_counts[int(direction)]

    def link_utilization(self, cycles: int) -> Dict:
        """Per-channel utilization in flits/cycle over ``cycles``.

        Requires ``track_links=True``; keys are ``(tile, direction)``.
        """
        if self.link_counts is None:
            raise ValueError("run was not configured with track_links")
        return {
            key: count / cycles for key, count in self.link_counts.items()
        }

    def hottest_links(self, n: int = 10):
        """The ``n`` most-traversed channels (bottleneck analysis)."""
        if self.link_counts is None:
            raise ValueError("run was not configured with track_links")
        ranked = sorted(
            self.link_counts.items(), key=lambda kv: kv[1], reverse=True
        )
        return ranked[:n]
