"""Open-loop synthetic-traffic simulation harness.

Implements the standard three-phase measurement methodology behind the
paper's load–latency curves (Figures 6 and 9): a warmup window brings the
network to steady state, packets injected during the measurement window are
tagged, and the run then drains (while continuing to inject untagged
background traffic, so tail packets still see a loaded network) until every
tagged packet is delivered or a drain limit is hit.

Injection is Bernoulli per tile per cycle ("packets are randomly injected
based on a fixed probability", Section 4.6), with an unbounded source
queue — the open-loop convention, under which latency includes source
queueing and therefore diverges at saturation.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.coords import Coord
from repro.core.params import NetworkConfig
from repro.core.registry import register_engine
from repro.core.spec import (
    NetworkSpec,
    ResolvedRun,
    build_pattern,
    build_routing,
    resolve_run,
)
from repro.core.topology import make_topology
from repro.errors import SimulationError, SimulationTimeout
from repro.sim.faults import FaultSchedule
from repro.sim.metrics import RunMetrics
from repro.sim.rng import derive_rng

#: How often (in cycles) the wall-clock limit is polled; keeps the
#: common no-limit path free of ``time.monotonic`` calls.
_WALL_CHECK_EVERY = 256


@dataclasses.dataclass
class RunResult:
    """Summary of one (design point, pattern, rate) simulation."""

    config_name: str
    pattern: str
    offered_load: float
    accepted_throughput: float
    avg_latency: float
    stddev_latency: float
    max_latency: float
    delivered_measured: int
    injected_measured: int
    drained: bool
    measure_cycles: int
    avg_hops: float
    #: Cycles actually simulated (warmup + measurement + drain).
    total_cycles: int = 0
    #: Measured packets destroyed by transient link faults.
    dropped_measured: int = 0
    metrics: Optional[RunMetrics] = dataclasses.field(
        default=None, repr=False
    )
    #: The registered engine that actually produced this result (a
    #: compiled run that fell back reports ``"reference"``).  Excluded
    #: from cross-engine fingerprints — it is provenance, not a metric.
    engine: str = "reference"

    @property
    def saturated(self) -> bool:
        """Heuristic: the run failed to drain its tagged packets."""
        return not self.drained


def run_synthetic(
    config: Union[NetworkConfig, NetworkSpec],
    pattern: Optional[str] = None,
    rate: Optional[float] = None,
    **given,
) -> RunResult:
    """Simulate one injection rate and return its measured statistics.

    ``rate`` is the per-tile injection probability per cycle (the paper's
    "injection rate" axis, as a fraction of one flit/tile/cycle).

    The call is resolved once, by
    :func:`~repro.core.spec.resolve_run`, into the
    :class:`~repro.core.spec.ResolvedRun` record the engine executes.
    ``config`` may be a :class:`~repro.core.spec.NetworkSpec`: *every*
    field of the spec then applies — pattern and rate, the window and
    seed, the fault and watchdog fields, ``audit_every``, the budgets
    and the engine — and a keyword passed here overrides the field of
    the same name (``None`` counts as not passed).  A bare
    :class:`~repro.core.params.NetworkConfig` must name its pattern
    and rate and takes the ``NetworkSpec`` field defaults for the rest.
    An unknown keyword is a :class:`TypeError` naming the valid ones.

    ``engine`` names a registered simulation engine
    (:data:`repro.core.registry.ENGINES`): ``"reference"`` (default) is
    the object-per-flit :class:`~repro.sim.network.Network`;
    ``"compiled"`` is the flat-array engine of
    :mod:`repro.sim.fastsim`, which produces bit-identical metrics —
    including under fault schedules — and transparently falls back to
    the reference engine for runs it cannot compile
    (:func:`repro.sim.fastsim.lowering_problems` names the reason for
    any design point).

    Measurement keywords: ``warmup``, ``measure``, ``drain_limit``,
    ``seed``, ``track_per_source``, ``keep_samples``, ``track_links``.
    Robustness knobs (all off by default, so healthy runs are
    bit-identical to earlier versions):

    * ``faults`` — a :class:`~repro.sim.faults.FaultSchedule`.  Dead
      routers stop injecting, and a destination the fault-aware
      routing's ``reachable`` says a source can no longer reach is
      skipped at injection instead of livelocking the run.  The
      healthy-path RNG streams are shared with the fault-free run: for
      link-fault schedules every injected packet keeps the same
      (src, dest, cycle) it would have had without faults, and a
      zero-fault schedule reproduces the fault-free run bit for bit.
    * ``watchdog`` — forward-progress thresholds for the step loop.
    * ``audit_every`` — run :func:`~repro.sim.validate.audit_network`
      every N cycles as an invariant tripwire; violations raise
      :class:`~repro.errors.SimulationError`.
    * ``max_cycles`` / ``max_wall_seconds`` — per-run budgets; on
      overrun the run raises :class:`~repro.errors.SimulationTimeout`
      (hardened campaigns convert that into a retry or a failed row).
    """
    return resolve_run(
        "run_synthetic", config, pattern, rate, **given
    ).execute()


# ----------------------------------------------------------------------
# The open-loop recipe, written once for both engines
# ----------------------------------------------------------------------
def _live_sources(
    nodes: Sequence[Coord], faults: Optional[FaultSchedule]
) -> Tuple[Tuple[int, Coord], ...]:
    """The run's sources, ``(index, node)``: the port-graph ``nodes`` in
    graph order minus dead routers (which never inject, nor draw)."""
    dead = faults.dead_routers if faults is not None else ()
    return tuple((s, src) for s, src in enumerate(nodes) if src not in dead)


def _open_loop_streams(seed: int) -> Tuple[random.Random, random.Random]:
    """The ``timing`` and ``dest`` streams the open-loop draw consumes."""
    return derive_rng(seed, "timing"), derive_rng(seed, "dest")


def _open_loop_draw(
    run: ResolvedRun,
    sources: Sequence[Tuple[int, Coord]],
    reachable: Optional[Callable[[Coord, Coord], bool]],
) -> Callable[[int, int], List[Tuple[int, int, Coord]]]:
    """The open-loop injection draw: ``draw(first, count)`` lists the
    ``(cycle, source index, dest)`` packets of the next ``count``
    cycles, ``first`` onwards.

    Bernoulli injection (Section 4.6): cycle by cycle, ``sources`` in
    order, one ``timing`` draw each and, on a hit, the pattern's
    destination.  Under a fault schedule a destination ``reachable``
    denies is discarded *after* the pattern drew it, so a link-fault
    run injects each packet at the fault-free run's (src, dest, cycle).
    """
    rate = run.rate
    dest_fn = build_pattern(run.pattern, run.config)
    faults = run.faults
    if faults is not None and faults.has_faults and reachable is not None:
        healthy_fn = dest_fn

        def dest_fn(src, rng):  # noqa: F811 - degraded wrapper
            dest = healthy_fn(src, rng)
            if dest is None or not reachable(src, dest):
                return None
            return dest

    timing_rng, dest_rng = _open_loop_streams(run.seed)
    rnd = timing_rng.random

    def draw(first: int, count: int) -> List[Tuple[int, int, Coord]]:
        packets = []
        for cycle in range(first, first + count):
            for s, src in sources:
                if rnd() < rate:
                    dest = dest_fn(src, dest_rng)
                    if dest is not None:
                        packets.append((cycle, s, dest))
        return packets

    return draw


def _budget_check(
    run: ResolvedRun,
) -> Optional[Callable[[int, int], Optional[SimulationTimeout]]]:
    """``check(cycle, occupancy)`` after a block: the timeout of a run
    past its ``max_cycles`` or — polled every :data:`_WALL_CHECK_EVERY`
    cycles — its ``max_wall_seconds`` (timed from this call), else
    ``None``.  ``None`` for a run with neither budget."""
    max_cycles, wall_budget = run.max_cycles, run.max_wall_seconds
    if max_cycles is None and wall_budget is None:
        return None
    if wall_budget is not None:
        deadline = time.monotonic() + wall_budget  # det: allow - wall budget

    def check(cycle: int, occupancy: int) -> Optional[SimulationTimeout]:
        if max_cycles is not None and cycle >= max_cycles:
            return SimulationTimeout(
                f"run exceeded its {max_cycles}-cycle budget "
                f"({occupancy} packets still in flight)"
            )
        if (
            wall_budget is not None
            and cycle % _WALL_CHECK_EVERY == 0
            and time.monotonic() > deadline  # det: allow - wall budget
        ):
            return SimulationTimeout(
                f"run exceeded its {wall_budget:.1f}s wall-clock "
                f"limit at cycle {cycle}"
            )
        return None

    return check


#: The phases a stepper's ``advance`` takes.  Packets injected while
#: measuring are tagged; draining injects untagged traffic.
_WARMUP, _MEASURE, _DRAIN = range(3)


def _drained(stepper: Any) -> bool:
    """Has every measured packet resolved?  Dropped measured packets
    count as resolved, so lossy (transient-fault) runs can still end."""
    return (
        stepper.delivered_measured + stepper.dropped_measured
        >= stepper.injected_measured
    )


def _drive(
    run: ResolvedRun, stepper: Any
) -> Union[RunResult, SimulationError]:
    """The phase driver of both engines: ``run``'s open-loop window on
    ``stepper``, and its result, or the error that ended it as data.

    Warmup, measure, then drain (unless :func:`_drained` already), in
    blocks that end where a budget is due: at ``max_cycles`` and, with a
    wall budget, every :data:`_WALL_CHECK_EVERY` cycles.  Budgets are
    checked after a cycle has run, so the first block has at least one.
    After each block the stepper's error wins, then a budget, then the
    drain.  ``stepper.advance(count, phase)`` runs at most ``count``
    cycles; it stops early on a watchdog or audit trip, returning the
    error with no traceback, and while draining once :func:`_drained`.
    Between blocks the driver reads its ``cycle``, ``occupancy``,
    ``delivered_total`` and ``injected_`` / ``delivered_`` /
    ``dropped_measured``; at the end its ``metrics``, live ``sources``
    and ``engine`` label.
    """
    over_budget = _budget_check(run)
    delivered_before = delivered_during = 0
    for phase, cycles in (
        (_WARMUP, run.warmup),
        (_MEASURE, run.measure),
        (_DRAIN, run.drain_limit),
    ):
        if phase == _MEASURE:
            delivered_before = stepper.delivered_total
        elif phase == _DRAIN:
            delivered_during = stepper.delivered_total - delivered_before
            if _drained(stepper):
                break
        end = stepper.cycle + cycles
        while stepper.cycle < end:
            cycle = stepper.cycle
            count = end - cycle
            if run.max_cycles is not None:
                count = min(count, max(run.max_cycles - cycle, 1))
            if run.max_wall_seconds is not None:
                count = min(
                    count, _WALL_CHECK_EVERY - cycle % _WALL_CHECK_EVERY
                )
            error = stepper.advance(count, phase)
            if error is None and over_budget is not None:
                error = over_budget(stepper.cycle, stepper.occupancy)
            if error is not None:
                return error
            if phase == _DRAIN and _drained(stepper):
                break
    metrics = stepper.metrics
    stats = metrics.measured
    delivered = metrics.delivered_total
    source_cycles = len(stepper.sources) * run.measure  # live sources
    return RunResult(
        config_name=run.config.name,
        pattern=run.pattern,
        offered_load=run.rate,
        accepted_throughput=delivered_during / source_cycles,
        avg_latency=stats.mean,
        stddev_latency=stats.stddev,
        max_latency=(
            float(stats.max) if stats.max is not None else float("nan")
        ),
        delivered_measured=metrics.delivered_measured,
        injected_measured=metrics.injected_measured,
        drained=_drained(stepper),
        measure_cycles=run.measure,
        avg_hops=(
            sum(metrics.hop_counts) / delivered if delivered else float("nan")
        ),
        total_cycles=stepper.cycle,
        dropped_measured=metrics.dropped_measured,
        metrics=metrics,
        engine=stepper.engine,
    )


def _raised(outcome: Union[RunResult, SimulationError]) -> RunResult:
    """An engine door's result: a returned error is raised here."""
    if isinstance(outcome, SimulationError):
        raise outcome
    return outcome


class _ReferenceStepper:
    """The reference engine as the driver's stepper: each cycle injects
    its round from :func:`_open_loop_draw` (sources in the network's —
    the port graph's — node order), steps the object network, then
    audits it when ``audit_every`` is due."""

    __slots__ = ("audit_every", "metrics", "net", "nodes", "sources", "draw")
    engine = "reference"

    def __init__(self, run: ResolvedRun) -> None:
        self.audit_every = run.audit_every
        self.metrics = RunMetrics(
            track_per_source=run.track_per_source,
            keep_samples=run.keep_samples,
            track_links=run.track_links,
        )
        self.net = net = run.network(self.metrics)
        self.nodes = list(net.routers)
        self.sources = _live_sources(self.nodes, run.faults)
        self.draw = _open_loop_draw(
            run, self.sources, getattr(net.routing, "reachable", None)
        )

    cycle = property(lambda s: s.net.cycle)
    occupancy = property(lambda s: s.net.occupancy)
    delivered_total = property(lambda s: s.metrics.delivered_total)
    injected_measured = property(lambda s: s.metrics.injected_measured)
    delivered_measured = property(lambda s: s.metrics.delivered_measured)
    dropped_measured = property(lambda s: s.metrics.dropped_measured)

    def advance(self, count: int, phase: int) -> Optional[SimulationError]:
        net, nodes, draw = self.net, self.nodes, self.draw
        inject, audit_every = net.inject, self.audit_every
        measured = phase == _MEASURE
        draining = phase == _DRAIN
        for _ in range(count):
            for _cycle, s, dest in draw(net.cycle, 1):
                inject(nodes[s], dest, measured=measured)
            try:
                net.step()
            except SimulationError as exc:
                return exc.with_traceback(None)
            if audit_every is not None and net.cycle % audit_every == 0:
                from repro.sim.validate import audit_network

                problems = audit_network(net)
                if problems:
                    return SimulationError(
                        f"invariant audit failed at cycle {net.cycle}:\n  "
                        + "\n  ".join(problems)
                    )
            if draining and _drained(self):
                break
        return None


@register_engine(
    "reference",
    description="object-per-flit cycle-accurate Network (sim.network)",
)
def _run_reference(run: ResolvedRun) -> RunResult:
    """The reference engine: the phase driver on the object network."""
    return _raised(_drive(run, _ReferenceStepper(run)))


@register_engine(
    "compiled",
    description=(
        "flat structure-of-arrays engine (sim.fastsim) with compiled "
        "fault schedules; lowers any registered topology through the "
        "port-graph IR and falls back to reference for what "
        "sim.fastsim.lowering_problems names"
    ),
)
def _compiled_engine(run: ResolvedRun) -> RunResult:
    # Imported lazily: fastsim imports this module for the open-loop
    # recipe and the phase driver, so a top-level import would be
    # circular.
    from repro.sim.fastsim import _launch

    return _raised(_launch(run, "compiled"))


def sweep_injection_rates(
    config: NetworkConfig,
    pattern: str,
    rates: Sequence[float],
    *,
    stop_when_saturated: bool = False,
    **given,
) -> List[RunResult]:
    """A load–latency curve: one :class:`RunResult` per injection rate.

    ``stop_when_saturated`` aborts the sweep after the first undrained
    point, which saves time on steep post-saturation regions.  Every
    other keyword (window, seed, ``faults``, ``watchdog``, budgets,
    ``engine``, ...) is a run keyword of :func:`run_synthetic`, resolved
    the same way.
    """
    results: List[RunResult] = []
    for rate in rates:
        result = resolve_run(
            "sweep_injection_rates", config, pattern, rate, **given
        ).execute()
        results.append(result)
        if stop_when_saturated and result.saturated:
            break
    return results


def multi_seed_run(
    config: NetworkConfig,
    pattern: str,
    rate: float,
    *,
    seeds: Sequence[int] = (1, 2, 3),
    **given,
) -> Dict[str, float]:
    """Mean and spread of latency/throughput across independent seeds.

    Useful for judging whether a small difference between two design
    points exceeds run-to-run noise.  ``given`` are run keywords of
    :func:`run_synthetic`.
    """
    results = [
        resolve_run(
            "multi_seed_run", config, pattern, rate, seed=seed, **given
        ).execute()
        for seed in seeds
    ]
    lats = [r.avg_latency for r in results]
    accs = [r.accepted_throughput for r in results]
    n = len(results)
    lat_mean = sum(lats) / n
    acc_mean = sum(accs) / n
    return {
        "latency_mean": lat_mean,
        "latency_spread": max(lats) - min(lats),
        "throughput_mean": acc_mean,
        "throughput_spread": max(accs) - min(accs),
        "seeds": n,
    }


def _sampled_pairs(
    config: NetworkConfig, pattern: str, samples: int, rng: random.Random
) -> Iterator[Tuple[Coord, Coord]]:
    """``samples`` ``(src, dest)`` pairs of ``pattern`` drawn from ``rng``
    (uniform sources; one the pattern sends nowhere is drawn again)."""
    dest_fn = build_pattern(pattern, config)
    nodes = make_topology(config).nodes
    count = 0
    while count < samples:
        src = nodes[rng.randrange(len(nodes))]
        dest = dest_fn(src, rng)
        if dest is not None:
            count += 1
            yield src, dest


def zero_load_latency(
    config: NetworkConfig,
    pattern: str = "uniform_random",
    *,
    samples: int = 2000,
    seed: int = 7,
) -> float:
    """Analytic zero-load latency: mean hop count under a pattern.

    At one cycle per hop with empty buffers, a packet's latency equals its
    hop count, so the mean routed path length *is* the zero-load latency.
    Sampled (not exhaustive) for tractability on large arrays.
    """
    routing = build_routing(config)
    rng = derive_rng(seed, "zero-load")
    pairs = _sampled_pairs(config, pattern, samples, rng)
    return sum(routing.hop_count(src, dest) for src, dest in pairs) / samples


def average_hops_by_direction(
    config: NetworkConfig,
    pattern: str = "uniform_random",
    *,
    samples: int = 2000,
    seed: int = 7,
) -> Dict[int, float]:
    """Mean traversals per packet for each direction (energy modelling)."""
    routing = build_routing(config)
    counts: Dict[int, int] = {}
    rng = derive_rng(seed, "dir-hops")
    for src, dest in _sampled_pairs(config, pattern, samples, rng):
        for _node, out in routing.compute_path(src, dest):
            counts[int(out)] = counts.get(int(out), 0) + 1
    return {d: c / samples for d, c in counts.items()}
