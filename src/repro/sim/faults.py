"""Deterministic, seeded fault injection for simulated networks.

A :class:`FaultSchedule` describes which parts of a design point are
broken — permanent dead links, failed routers, transient flit-dropping
links — and is handed to a run (usually via
``run_synthetic(..., faults=...)``).  The schedule is built from its own
named RNG streams (``derive_rng(seed, "faults:*")``), so adding or
removing faults never perturbs the healthy-path ``timing``/``dest``
streams: a zero-fault schedule reproduces the fault-free run bit for bit.

Fault models
------------

* **Dead link** — a bidirectional channel failure.  The channel is never
  wired, and routing is recomputed by BFS around it
  (:class:`~repro.core.routing.FaultAwareTableRouting`).
* **Dead router** — every channel touching the tile fails, the tile
  neither injects nor receives, and all pairs through it reroute.
* **Transient link fault** — the link stays wired but drops each
  traversing flit with probability ``drop_prob`` inside an optional
  ``[start, end)`` cycle window, from a dedicated drop RNG stream.

A schedule is drawn on one port graph and keeps it (``graph``): the
run under it wires that graph, and its dead links and routers become
dead channels once, by :func:`~repro.core.portgraph.killed_channels`,
a set the fault-aware tables and both engines' wiring all read.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.coords import Coord, Direction
from repro.core.params import NetworkConfig
from repro.core.portgraph import PortGraph, PortRef, killed_channels
from repro.core.topology import Emitter, make_topology
from repro.errors import ConfigError
from repro.sim.rng import derive_rng

#: A directed link id: (source tile, output direction).
LinkId = Tuple[Coord, Direction]


@dataclasses.dataclass(frozen=True)
class TransientLinkFault:
    """A link that drops flits with ``drop_prob`` during a cycle window.

    ``end=None`` means the fault persists for the rest of the run.
    """

    src: Coord
    direction: Direction
    drop_prob: float
    start: int = 0
    end: Optional[int] = None

    def active(self, cycle: int) -> bool:
        if cycle < self.start:
            return False
        return self.end is None or cycle < self.end


class FaultSchedule:
    """An immutable description of every injected fault for one run.

    Parameters
    ----------
    config:
        The design point the faults apply to (link ids are validated
        against its topology).
    dead_links:
        Bidirectional permanent link failures, each given as one
        directed ``(source tile, direction)`` id; the reverse direction
        dies with it.
    dead_routers:
        Failed tiles.
    transient:
        :class:`TransientLinkFault` entries (links stay routed; flits
        are dropped stochastically from the schedule's drop stream).
    seed:
        Seeds the drop stream.  Generator classmethods also derive
        their link/router choices from it.
    degraded_model:
        Force the degraded microarchitecture (BFS route tables on the
        fault-tolerant crossbar) even with zero faults.  Degradation
        *curves* need this for their baseline row: on depopulated
        crossbars the fault-tolerant matrix admits turns restricted DOR
        lacks, so comparing faulted table-routed runs against a healthy
        DOR run would conflate the routing-model change with the fault
        impact.
    """

    def __init__(
        self,
        config: NetworkConfig,
        *,
        dead_links: Iterable[LinkId] = (),
        dead_routers: Iterable[Coord] = (),
        transient: Iterable[TransientLinkFault] = (),
        seed: int = 0,
        degraded_model: bool = False,
    ) -> None:
        self._place(
            make_topology, config, dead_links, dead_routers, transient,
            seed, degraded_model,
        )

    def _place(
        self,
        emitter: Emitter,
        config: NetworkConfig,
        dead_links: Iterable[LinkId],
        dead_routers: Iterable[Coord],
        transient: Iterable[TransientLinkFault],
        seed: int,
        degraded_model: bool,
    ) -> None:
        """Check and index the faults on ``emitter``'s graph of ``config``
        (the builtin topology, or a plugin spec's: see :meth:`_drawn`)."""
        self.config = config
        self.seed = seed
        self.degraded_model = degraded_model
        #: The port graph the faults name channels of, which a run under
        #: them wires: ``emitter(config)``'s, and no other.
        self.emitter = emitter
        self.graph = graph = _port_graph(config, emitter)
        self.dead_routers: FrozenSet[Coord] = frozenset(dead_routers)
        routers = frozenset(graph.nodes)
        for coord in self.dead_routers:
            if coord not in routers:
                raise ConfigError(f"dead router {tuple(coord)} is not a tile")
        self.dead_links: Tuple[LinkId, ...] = tuple(dead_links)
        #: Every directed ``(tile, port)`` channel that must not be wired.
        self.killed_channels: FrozenSet[PortRef] = killed_channels(
            graph, self.dead_links, self.dead_routers
        )
        self.transient: Tuple[TransientLinkFault, ...] = tuple(transient)
        trans_map: Dict[Tuple[Coord, int], TransientLinkFault] = {}
        for fault in self.transient:
            if not graph.has_output(fault.src, fault.direction):
                raise ConfigError(
                    f"transient fault on nonexistent link "
                    f"({tuple(fault.src)}, {fault.direction.name})"
                )
            if not 0.0 <= fault.drop_prob <= 1.0:
                raise ConfigError("drop_prob must be in [0, 1]")
            if (fault.src, fault.direction) in self.killed_channels:
                raise ConfigError(
                    "transient fault overlaps a dead link/router"
                )
            trans_map[(fault.src, int(fault.direction))] = fault
        self._transient_map = trans_map

    # ------------------------------------------------------------------
    # Queries used by the network and campaigns
    # ------------------------------------------------------------------
    @property
    def affects_routing(self) -> bool:
        """True when route tables must be recomputed (permanent faults,
        or ``degraded_model`` pinning the table-routed baseline)."""
        return bool(self.killed_channels) or self.degraded_model

    @property
    def has_faults(self) -> bool:
        return bool(self.killed_channels or self.transient)

    def transient_on(self, src: Coord, out_idx: int) -> Optional[TransientLinkFault]:
        """The transient fault on a directed link, if any."""
        if not self._transient_map:
            return None
        return self._transient_map.get((src, out_idx))

    def make_drop_rng(self):
        """A fresh drop-decision stream (one per Network instance)."""
        return derive_rng(self.seed, "faults:drops")

    def describe(self) -> List[str]:
        """Human-readable fault list (stable order, for reports/tests)."""
        lines = [
            f"dead link {tuple(src)} -{direction.name}-"
            for src, direction in self.dead_links
        ]
        lines += [
            f"dead router {tuple(coord)}"
            for coord in sorted(self.dead_routers)
        ]
        lines += [
            f"transient {tuple(f.src)} -{f.direction.name}- "
            f"p={f.drop_prob} [{f.start}, {f.end})"
            for f in self.transient
        ]
        return lines

    # ------------------------------------------------------------------
    # Seeded generators
    # ------------------------------------------------------------------
    @classmethod
    def random_dead_links(
        cls,
        config: NetworkConfig,
        n: int,
        seed: int = 0,
        *,
        degraded_model: bool = False,
    ) -> "FaultSchedule":
        """``n`` distinct dead links drawn uniformly from the topology.

        Links are sampled as undirected channels (each listed once by
        its canonical direction), deterministically from the
        ``faults:links`` stream of ``seed``.
        """
        return cls.random_mixed(
            config, links=n, seed=seed, degraded_model=degraded_model
        )

    @classmethod
    def random_dead_routers(
        cls, config: NetworkConfig, n: int, seed: int = 0
    ) -> "FaultSchedule":
        """``n`` distinct failed tiles, from the ``faults:routers`` stream."""
        return cls.random_mixed(config, routers=n, seed=seed)

    @classmethod
    def random_transient(
        cls,
        config: NetworkConfig,
        n: int,
        seed: int = 0,
        *,
        drop_prob: float = 0.01,
    ) -> "FaultSchedule":
        """``n`` flit-dropping links from the ``faults:transient`` stream.

        Each chosen channel drops flits in its canonical direction with
        ``drop_prob`` for the whole run.
        """
        return cls.random_mixed(
            config, transient=n, drop_prob=drop_prob, seed=seed
        )

    @classmethod
    def random_mixed(
        cls,
        config: NetworkConfig,
        *,
        links: int = 0,
        routers: int = 0,
        transient: int = 0,
        drop_prob: float = 0.01,
        seed: int = 0,
        degraded_model: bool = False,
    ) -> "FaultSchedule":
        """A combined schedule: dead links + dead routers + droppy links.

        Each fault class draws from its own named stream of ``seed``
        (``faults:links`` / ``faults:routers`` / ``faults:transient``),
        so ``random_mixed(links=n)`` is :meth:`random_dead_links` and
        adding routers or transient faults never perturbs the link
        choices.  Transient candidates exclude channels already killed
        by the permanent faults (a dead link cannot also drop flits).
        """
        return cls._drawn(
            make_topology, config, links, routers, transient, drop_prob,
            seed, degraded_model,
        )

    @classmethod
    def _drawn(
        cls, emitter: Emitter, config: NetworkConfig,
        links: int, routers: int, transient: int, drop_prob: float,
        seed: int, degraded_model: bool,
    ) -> "FaultSchedule":
        """:meth:`random_mixed`, drawn on ``emitter``'s topology."""
        graph = _port_graph(config, emitter)
        link_candidates = _undirected_channels(graph)
        if links > len(link_candidates):
            raise ConfigError(
                f"requested {links} dead links but topology has only "
                f"{len(link_candidates)} channels"
            )
        chosen_links = derive_rng(seed, "faults:links").sample(
            link_candidates, links
        )
        nodes = graph.nodes
        if routers > len(nodes):
            raise ConfigError(
                f"requested {routers} dead routers of {len(nodes)}"
            )
        chosen_routers = derive_rng(seed, "faults:routers").sample(
            nodes, routers
        )
        chosen_transient: List[LinkId] = []
        if transient > 0:
            killed = killed_channels(
                graph, chosen_links, frozenset(chosen_routers)
            )
            survivors = [
                link for link in link_candidates if link not in killed
            ]
            if transient > len(survivors):
                raise ConfigError(
                    f"requested {transient} transient faults but only "
                    f"{len(survivors)} channels survive the permanent "
                    f"faults"
                )
            chosen_transient = derive_rng(seed, "faults:transient").sample(
                survivors, transient
            )
        drops = [
            TransientLinkFault(src, direction, drop_prob)
            for src, direction in chosen_transient
        ]
        schedule = cls.__new__(cls)
        schedule._place(
            emitter, config, chosen_links, chosen_routers, drops, seed,
            degraded_model,
        )
        return schedule


@functools.lru_cache(maxsize=1)
def _port_graph(config: NetworkConfig, emitter: Emitter) -> PortGraph:
    """The graph of one design point, emitted once for its draws."""
    return emitter(config).port_graph()


def _undirected_channels(graph: PortGraph) -> List[LinkId]:
    """Each router-to-router channel once, by its first-emitted direction."""
    endpoints = set(graph.endpoint_only_nodes)
    seen: Set[FrozenSet] = set()
    links: List[LinkId] = []
    for ch in graph.channels:
        if ch.src in endpoints or ch.dst in endpoints:
            continue
        key = frozenset(((ch.src, ch.out_port), (ch.dst, ch.in_port)))
        if key in seen:
            continue
        seen.add(key)
        links.append((ch.src, Direction(ch.out_port)))
    return links
