"""Compiled structure-of-arrays simulation engine.

The reference engine (:mod:`repro.sim.network`) spends most of its time
in per-flit object machinery: a ``Packet`` per flit, a ``Fifo`` per
port, a method call per router per cycle.  This module lowers a design
point into flat integer structures once — per-port FIFO rings of packet
ids (the unbounded injection queue is an intrusive per-source list),
route tables, packed per-packet
records (destination index, inject cycle, measured bit) that double on
demand — and steps the whole network with tight loops over those
structures — the native kernel in :mod:`repro.sim._ckernel`, the one
stepping implementation outside the reference oracle.  The lowering is
a pure function of the design point's resolved parts — the topology's
:class:`~repro.core.portgraph.PortGraph`, the crossbar connectivity
matrix, the routing's tables, the router kind — written once, straight
into the arrays (:func:`_build_model`).  No reference
:class:`~repro.sim.network.Network` is built, and none of its
attributes is read, so the oracle's wiring and this module's are two
independent derivations from the same description, and the
differential tests compare them.

Route tables
------------
The kernel reads routes through one function, ``route_lookup()``, over
one of two forms.  The builtin dimension-ordered routings
(:data:`_SUPPORTED_ROUTINGS`, 2-D and 3-D), on the grid the builtin
topologies emit, decide from coordinates: the first routed axis a node
and a destination differ on, their two coordinates on it, one parity
bit.  Their models carry exactly that — per input class and subnet one
small table per axis, filled from ``O(W*W + H*H)`` axis-aligned route
calls (:func:`_axis_tables`), plus per-id keys — so route tables grow
with the array's axes, not with the square of its size (0.1 MB for a
64x64 mesh or torus, not 67 / 201 MB), on wormhole, FBFC and VC
routers alike.  Where the information really is per ``(node, dest)``
pair — :class:`~repro.core.routing.FaultAwareTableRouting`'s BFS
tables, and the walk over the port graph that tabulates plugin
routings and permuted node orders — the model carries flat rows, one
entry per ``(input class, destination)``.

Equivalence contract
--------------------
For every run the compiled engine accepts, its :class:`RunResult` and
:class:`~repro.sim.metrics.RunMetrics` are **bit-identical** to the
reference engine's: same RNG streams and consumption order, same
injection and arbitration order, same round-robin/wavefront pointer
trajectories, same per-packet latency multiset and delivery order.  The
cross-engine differential tests in ``tests/sim/test_fastsim.py`` enforce
this on the canonical bench cases and on hypothesis-generated specs.

Both steps skip routers that hold no packet (``occ[r] == 0``).  The
dateline-VC step (``step_vc``) additionally skips *clean* routers —
routers whose queues and downstream occupancies are untouched since
they last arbitrated (its ``dirty[]`` flags); the wormhole / FBFC step
(``step_noc``) has no such flags and arbitrates every occupied router
every cycle.  The skip is lossless, not approximate: a grantless VC
arbitration mutates no state (round-robin pointers advance only on
grants; the router rotates its wavefront priority only when at least
one space-gated request exists, and any such request always yields a
grant), so re-running it would reproduce the same nothing.

Faults at compiled speed
------------------------
:class:`~repro.sim.faults.FaultSchedule` state is lowered rather than
delegated.  Dead links and routers are masked ports: the schedule's
killed channels are dropped from the port graph's channel list before
anything is wired, and the packed route tables come straight from
:class:`~repro.core.routing.FaultAwareTableRouting`'s BFS tables, one
row per input class (``-1`` marks states a packet can never occupy).
The kernel draws a faulted run's packets itself: a per-source live
mask skips dead routers, and a drawn destination whose entry at the
source's injection port is ``-1`` — the routing's ``reachable``
saying no — is discarded, as the host's draw discards it.  Transient
drop faults are a per-link ``(prob, start, end)`` table handed to the
kernel, which replays the reference's ``faults:drops`` stream from its
own copy of CPython's Mersenne Twister inside the commit loop, at the
exact point the reference engine draws it.  The forward-progress
watchdog stays a cheap in-kernel stall counter; only on a trip is the
flat queue state rehydrated into a reference-style network to capture
a full :class:`~repro.sim.watchdog.DeadlockSnapshot`.

One executor
------------
:func:`run_compiled` and :func:`run_compiled_batch` are one launch
(:func:`_launch`) of one record
(:func:`~repro.core.spec.resolve_run`: config, traffic, window, faults,
watchdog, budgets, once per run): one gate-and-compile step
(:func:`_resolve`, once per design point) and one run
object (:class:`_Run`, on the one state allocation :class:`_RunState`:
one array layout, one kernel context (:class:`_ckernel.Ctx`, whatever
the router kind: the lowering keys a model's static tables by the
context member each fills, and one pass fills it), one growth path, one
watchdog rehydration; and one metrics finaliser — ejections are
scored in the kernel, and logged for the host only under
``keep_samples`` / ``track_per_source``).  A run owns its memory, sized
by the packets it holds, and is stepped to completion before anything
else happens, so a batch is a loop over its specs (a serial call is a
batch of one) and nothing but the compile and pattern caches outlives a
run.  The kernel injects every packet, through one enqueue; the launch
alone decides, from the resolved run, who *chooses* the packets: the
kernel, when the pattern has a plan and the run is no off-rate trace
(a full-rate trace replay's plan is the trace itself, as one injection
schedule, except under faults) — under a fault schedule skipping dead
routers and discarding unreachable destinations as the host's draw
does; otherwise the host draws them in Python, a block ahead (any
registered pattern), and hands the kernel the same kind of schedule.

The same state has a second driver, for callers that are themselves the
traffic: :class:`CompiledFabric` steps it one cycle per call — offers
appended to the next cycle's schedule, a one-cycle block, each ejected
packet handed to its sink — behind the endpoint-facing surface of the
reference :class:`~repro.sim.network.Network`.  It is what the
execution-driven manycore (:mod:`repro.manycore.machine`) holds two of.

Endpoints
---------
Endpoint-only nodes of the port graph (edge memory's phantom rows) are
not routers and lower as what the reference wires them as.  They are
destination (and source) ids after the routers': off-grid coordinates
of the axis tables, one more column of a flat row.  A channel router ->
endpoint is a *sink
output*: ``dn`` stays ``-1`` as on the ejection port, and a grant there
ejects the packet on the grant cycle — counted as a hop, being a
channel.  A channel endpoint -> router is an *entry queue*: the input
FIFO the port mask gives that router anyway, fed by nothing but the
arrivals a host offers (``feed = -1``), routed like any arrival on that
input.  A sink is always ready unless a fabric *gates* it: the fabric's
own copy of ``dn`` then carries ``-2 - sink id``, and the kernel blocks
that output — exactly where it blocks on a full downstream queue —
while the host-written ``ready[sink id]`` is zero.

What falls back
---------------
Runs the compiler cannot prove equivalent are transparently delegated to
the reference engine (the returned result then reports
``engine == "reference"``): hosts without the native kernel (no C
compiler, ``REPRO_NO_CKERNEL`` — reference is the executable spec, so
there is no second Python stepping semantics to fall back to),
``audit_every`` tripwires, routings or router/allocator types the
tabulators cannot lower, multi-cycle (pipelined) channels, and
fault-aware rerouting on the VC/FBFC torus routers (which the reference
engine rejects with the same :class:`~repro.errors.ConfigError`).
*Spec runs* on edge-memory configs also still report ``"reference"``:
a provenance pin in :func:`_gate_diagnostics`, not a capability (the
endpoints lower, and a :class:`CompiledFabric` never asks that gate).
:func:`lowering_problems` names the exact reason for any design point,
:func:`fabric_problems` for a fabric.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import itertools
from array import array
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.connectivity import port_turns
from repro.core.coords import Coord, Coord3, Direction
from repro.core.params import DorOrder, NetworkConfig, TopologyKind
from repro.core.portgraph import live_wiring
from repro.core.registry import ALLOCATORS, ROUTERS
from repro.core.routing import (
    FaultAwareTableRouting,
    MeshDOR,
    MultiMeshRouting,
    RucheDOR,
    RucheOneRouting,
    TorusDOR,
    tabulate_next_hops,
)
from repro.core.spec import (
    NetworkComponents,
    NetworkSpec,
    ResolvedRun,
    build_network,
    build_pattern,
    resolve_components,
    resolve_run,
)
from repro.core.topo3d import Mesh3dDOR, Torus3dDOR
from repro.errors import DeadlockError, SimulationError
from repro.sim import _ckernel
from repro.sim.allocator import WavefrontAllocator
from repro.sim.faults import FaultSchedule
from repro.sim.metrics import LatencyStats, RunMetrics
from repro.sim.packet import Packet
from repro.sim.router import (
    NUM_DIRS,
    P_IDX,
    Sink,
    VCRouter,
    build_fbfc_router,
    build_vc_router,
    build_wormhole_router,
    fbfc_ring_ports,
)
from repro.sim.simulator import (
    _DRAIN,
    _MEASURE,
    _WALL_CHECK_EVERY,
    _compiled_engine,
    _drive,
    _live_sources,
    _open_loop_draw,
    _open_loop_streams,
    _ReferenceStepper,
)
from repro.sim.watchdog import WatchdogConfig

__all__ = [
    "CompiledFabric",
    "LoweringDiagnostic",
    "batching_problems",
    "clear_compile_caches",
    "fabric_problems",
    "lowering_problems",
    "run_compiled",
    "run_compiled_batch",
]

#: Routing algorithms whose tables :func:`_axis_tables` builds from
#: axis-aligned route calls.  What an exact-type match protects is
#: *axis + parity separability*: the decision reads the pair only
#: through the first routed axis the two differ on, their two
#: coordinates on it, and the parity of ``dest``'s coordinate sum (the
#: 2-D torus's tie-break and VC spread; the 3-D packs have no parity
#: term).  A subclass may override behavior that breaks this, so it
#: still falls back (generic IR walk on wormhole / FBFC routers,
#: ``unsupported-routing`` on the VC router).
_SUPPORTED_ROUTINGS = (
    MeshDOR,
    RucheDOR,
    RucheOneRouting,
    MultiMeshRouting,
    TorusDOR,
    Mesh3dDOR,
    Torus3dDOR,
)


@dataclasses.dataclass(frozen=True)
class LoweringDiagnostic:
    """One structured reason a design point cannot lower to this engine.

    ``code`` is a stable machine-readable slug (``"pipelined-channels"``,
    ``"audit-every"``, ...); ``detail`` is the human-readable
    explanation.  Diagnostics come from the same gate checks and
    compile-time raises that make :func:`run_compiled` fall back, so
    :func:`lowering_problems` can never disagree with the engine about
    *why* a run delegated to reference.
    """

    code: str
    detail: str

    def render(self) -> str:
        return f"{self.code}: {self.detail}"


class _Unsupported(Exception):
    """Raised during compilation when a design point cannot be lowered."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.diagnostic = LoweringDiagnostic(code=code, detail=detail)


class _CompiledModel:
    """Immutable per-config lowering shared by every run of that config.

    Holds only static tables (wiring, routes, candidate lists), already
    flattened into the int32 arrays the native kernel reads; all mutable
    simulation state (queues, pointers, counters) is allocated fresh per
    run by :class:`_Run`.
    """

    __slots__ = (
        "kind",
        "config",
        "nodes",  # the routers, in port-graph order
        "endpoints",  # endpoint-only nodes (edge memory), ids n.. after them
        "node_index",  # router or endpoint -> its source / destination id
        "n",  # routers
        "nd",  # routers + endpoints: the destination stride of a route row
        "depth",
        "nports",  # ports per router: the stride of flat (router, port) ids
        "num_vcs",  # lanes per input port (1 off the VC router)
        "reachable",
        "in_ports",  # per router: its wired input ports, ascending
        "entry",  # per endpoint: flat (router, input) it enters on, or -1
        "sink_of",  # per endpoint: flat (router, output) feeding it, or -1
        # The static tables the kernel steps by, keyed by the `Ctx` field
        # each fills (int32 arrays; `nax`, `sublen` and `rowlen` are
        # integers): the route tables (axis form or flat rows), wiring
        # and arbiter candidates for the wormhole / FBFC step, port
        # lists and feeders for the VC step.  `_ckernel._CTX_TYPEDEF`
        # documents every one.
        "tables",
    )


#: What :func:`~repro.core.spec.resolve_components` returns: the
#: components, the router kind and the allocator name a model lowers.
_Parts = Tuple[NetworkComponents, str, Optional[str]]

# Compiled models keyed by everything a model is a function of: the
# spec's topology name (a plugin may ride a builtin config, so the
# config alone does not identify the wiring; a bare NetworkConfig keys
# as builtin), the config, the routing / router / allocator names, and
# the routing-relevant fault state (killed channels + degraded flag).
# An uncompilable design point caches its LoweringDiagnostic so repeat
# calls skip the lowering yet still report the original reason.
_MISSING = object()
_COMPILE_CACHE: Dict[
    Tuple, Union[_CompiledModel, LoweringDiagnostic]
] = {}


def clear_compile_caches() -> None:
    """Drop every compiled model (bench cold-start / test hygiene)."""
    _COMPILE_CACHE.clear()
    _PATTERN_CACHE.clear()
    _TRACE_PLAN_CACHE.clear()


# ----------------------------------------------------------------------
# Compilation: port graph + crossbar matrix + route tables -> arrays
# ----------------------------------------------------------------------
def _compile(
    target: Union[NetworkConfig, NetworkSpec],
    config: NetworkConfig,
    faults: Any = None,
    resolved: Optional[_Parts] = None,
) -> _CompiledModel:
    # ``resolved``: the parts resolve_components already gave a caller
    # (the certifier) for these arguments, lowered instead of resolving
    # them again.  The model is a function of the arguments alone, so
    # the key does not carry them.
    names = (
        (target.topology, target.routing, target.router, target.allocator)
        if isinstance(target, NetworkSpec)
        else None
    )
    # Keyed by the design point a schedule was drawn for, so one drawn
    # for another misses and meets network_components' check.  Transient
    # faults are not keyed: drops happen at run time.
    fault_key = (
        (
            faults.config, faults.emitter, faults.killed_channels,
            faults.dead_routers, faults.degraded_model,
        )
        if faults is not None
        else None
    )
    key = (config, names, fault_key)
    cached = _COMPILE_CACHE.get(key, _MISSING)
    if cached is not _MISSING:
        if isinstance(cached, LoweringDiagnostic):
            raise _Unsupported(cached.code, cached.detail)
        return cached
    try:
        model = _build_model(target, config, faults, resolved)
    except _Unsupported as exc:
        _COMPILE_CACHE[key] = exc.diagnostic
        raise
    _COMPILE_CACHE[key] = model
    return model


#: The registered router builders this module has arrays for, by
#: identity: a plugin registered under (or over) a builtin name must
#: not silently lower as the builtin it replaced.
_ROUTER_KINDS = {
    build_wormhole_router: "wormhole",
    build_fbfc_router: "fbfc",
    build_vc_router: "vc",
}
_KIND_CODES = {
    "wormhole": _ckernel.KIND_WORMHOLE,
    "fbfc": _ckernel.KIND_FBFC,
    "vc": _ckernel.KIND_VC,
}


def _build_model(
    target: Union[NetworkConfig, NetworkSpec],
    config: NetworkConfig,
    faults: Any = None,
    resolved: Optional[_Parts] = None,
) -> _CompiledModel:
    """Lower one design point: a pure function of its resolved parts.

    The parts are what :func:`~repro.core.spec.build_network` would
    hand the reference :class:`~repro.sim.network.Network` — port graph,
    crossbar matrix, routing, router kind, allocator — plus the killed
    channels of ``faults``; no network is built.  Registry misses and
    component conflicts raise the same :class:`ConfigError` the
    reference path raises.
    """
    components, router_name, allocator = resolved or resolve_components(
        target, config, faults
    )
    kind = _ROUTER_KINDS.get(ROUTERS.get(router_name))
    if kind is None:
        raise _Unsupported(
            "unsupported-router",
            f"router kind {router_name!r} is not a builtin builder",
        )
    # Only the VC router allocates; the other builders reject the
    # argument, an error left to the reference engine to raise.
    if allocator is not None and (
        kind != "vc" or ALLOCATORS.get(allocator) is not WavefrontAllocator
    ):
        raise _Unsupported(
            "unsupported-allocator",
            f"allocator {allocator!r} on a {kind} router",
        )
    routing = components.routing
    if type(routing) is FaultAwareTableRouting and faults is None:
        raise _Unsupported(
            "fault-aware-routing",
            "fault-aware table routing without a FaultSchedule",
        )
    graph = components.graph
    # Killed channels are never wired, so masked ports (shrunk input
    # lists, absent arbiters, -1 position-map slots) fall out of the
    # one channel list every array below is written from; the port
    # masks are the reference engine's input FIFOs, from the same call.
    wiring = live_wiring(
        graph, faults.killed_channels if faults is not None else frozenset()
    )
    channels = wiring.channels
    if any(ch.latency > 1 for ch in channels):
        raise _Unsupported(
            "pipelined-channels",
            "multi-cycle channel pipelining is not lowered",
        )
    # The axis tables are those routings' on the grid they were written
    # for; any other node set takes the generic walk (or, on a VC
    # router, falls back).
    grid = (
        _grid_axes(config, graph.nodes)
        if type(routing) in _SUPPORTED_ROUTINGS
        else None
    )
    if kind == "vc" and grid is None:
        raise _Unsupported(
            "unsupported-routing",
            f"no VC tabulation for routing {type(routing).__name__}",
        )
    nports = VCRouter.NUM_PORTS if kind == "vc" else NUM_DIRS
    # Every port a channel leaves or enters a router on is a mask bit.
    masks = list(wiring.masks.values())
    widest = max(masks, default=0).bit_length() - 1
    if widest >= nports:
        raise _Unsupported(
            "unsupported-router",
            f"a {kind} router has {nports} ports; the topology "
            f"wires port {widest}",
        )

    model = _CompiledModel()
    model.kind = kind
    model.config = config
    # Mirrors the reference engine's getattr: only the fault-aware
    # tables expose reachability, and only faulted runs consult it.
    model.reachable = getattr(routing, "reachable", None)
    model.nodes = nodes = graph.nodes
    # Endpoint-only nodes (edge memory) are sources and destinations
    # but not routers: one route-row column each, a sink output where
    # a channel enters one, an entry queue where a channel leaves one.
    model.endpoints = endpoints = graph.endpoint_only_nodes
    dests = tuple(nodes) + endpoints
    model.node_index = nidx = {node: idx for idx, node in enumerate(dests)}
    model.n = n = len(nodes)
    model.nd = len(dests)
    model.depth = config.fifo_depth
    model.nports = nports
    model.num_vcs = config.num_vcs if kind == "vc" else 1
    model.tables = tables = {}
    # The two parity-subnet routings pick a packet's subnet from the
    # parity of its Manhattan distance, the XOR of two per-id bits: the
    # destination's coordinate-sum parity and the source's, flipped
    # when distance zero rides subnet 1 (Ruche-One).
    nsub = 2 if type(routing) in (RucheOneRouting, MultiMeshRouting) else 1
    if nsub == 2:
        flip = routing.injection_subnet(nodes[0], nodes[0])
        tables["par"] = array("i", (sum(node) & 1 for node in dests))
        tables["spar"] = array(
            "i", ((sum(node) & 1) ^ flip for node in nodes)
        )

    # One bitmask per router names both its inputs and its outputs.
    model.in_ports = tuple(
        tuple(i for i in range(nports) if mask >> i & 1) for mask in masks
    )
    if kind == "vc":
        _tabulate_vc_routes(model, routing, grid, tables)
        tables["plist"] = plist = array("i")
        tables["pofs"] = pofs = array("i")
        tables["pcnt"] = pcnt = array("i")
        for ports in model.in_ports:
            pofs.append(len(plist))
            plist.extend(ports)
            pcnt.append(len(ports))
    else:
        if type(routing) is FaultAwareTableRouting:
            _tabulate_fault_routes(model, routing, tables)
        elif grid is not None:
            # Exact builtin types keep their closed form (no graph
            # walk): axis tables from axis-aligned route calls.
            _tabulate_wormhole_routes(model, routing, grid, nsub, tables)
        else:
            _tabulate_generic_routes(model, graph, routing, nsub, tables)
        _wire_crossbars(
            tables,
            masks,
            port_turns(components.matrix),
            fbfc_ring_ports(config) if kind == "fbfc" else None,
        )
    # Downstream wiring, one pass over the alive router-to-router
    # channels.  `dn` stays -1 on every sink output — the ejection port
    # and a channel into an endpoint, always ready unless a fabric gates
    # them — on unwired outputs, and on a wired crossbar output no
    # present input may turn to (it never arbitrates).  A VC input's
    # feeder is the router upstream of it.
    tables["dn"] = dn = array("i", [-1]) * (n * nports)
    feed = None
    if kind == "vc":
        tables["feed"] = feed = array("i", [-1]) * (n * nports)
    for ch in channels:
        src = nidx[ch.src]
        out = src * nports + ch.out_port
        down = nidx[ch.dst] * nports + ch.in_port
        if feed is not None:
            feed[down] = src
        elif not tables["ncv"][out]:
            continue
        dn[out] = down
    # An endpoint's entry queue is the router input FIFO its channel
    # enters (the host feeds it, no router does); its sink is the
    # router output feeding it.  The kernel scores at most one
    # ejection per destination id a cycle, and a gated sink has one
    # ready word, so an endpoint fed by two channels is not lowered.
    model.entry = entry = array("i", [-1]) * len(endpoints)
    model.sink_of = sink_of = array("i", [-1]) * len(endpoints)
    for endpoint, (node, in_port) in wiring.entry.items():
        entry[nidx[endpoint] - n] = nidx[node] * nports + in_port
    for endpoint, feeds in wiring.sinks.items():
        if len(feeds) > 1:
            raise _Unsupported(
                "injection-wiring",
                f"endpoint {tuple(endpoint)} is fed by two channels",
            )
        node, out_port = feeds[0]
        sink_of[nidx[endpoint] - n] = nidx[node] * nports + out_port
    return model


def _wire_crossbars(
    tables: Dict[str, Any],
    masks: List[int],
    turns: Dict[int, Any],
    ring_ports: Optional[Sequence[frozenset]],
) -> None:
    """Write the per-output arbiters of every wormhole / FBFC router.

    An output's candidate list is "the present inputs the matrix admits
    for it, ascending" — the order every round-robin position counts
    in.  ``pm[o * 9 + i]`` (position of input ``i`` in output ``o``'s
    list, else -1) is filled for all 9x9 pairs; ``ncv`` / ``cands`` /
    ``needs`` only for wired outputs, so an unwired output never
    arbitrates.  ``needs`` is the FBFC slot requirement — 2 to *enter*
    a ring (output in a ring group, input outside it), else 1 — and
    stays zero for wormhole routers (``ring_ports`` None).  Routers
    with the same port mask share one block, computed once.
    """
    names = ("ncv", "cands", "needs", "pm")
    for name in names:
        tables[name] = array("i")
    blocks: Dict[int, Tuple[List[int], ...]] = {}
    for mask in masks:
        block = blocks.get(mask)
        if block is None:
            ncv = [0] * NUM_DIRS
            cands = [0] * (NUM_DIRS * NUM_DIRS)
            needs = [0] * (NUM_DIRS * NUM_DIRS)
            pm = [-1] * (NUM_DIRS * NUM_DIRS)
            for o in range(NUM_DIRS):
                admitted = [
                    i
                    for i in range(NUM_DIRS)
                    if mask >> i & 1 and o in turns.get(i, ())
                ]
                base = o * NUM_DIRS
                for pos, i in enumerate(admitted):
                    pm[base + i] = pos
                if not mask >> o & 1:
                    continue
                ncv[o] = len(admitted)
                cands[base : base + ncv[o]] = admitted
                if ring_ports is not None:
                    needs[base : base + ncv[o]] = [
                        2 if any(o in g and i not in g for g in ring_ports)
                        else 1
                        for i in admitted
                    ]
            block = blocks[mask] = (ncv, cands, needs, pm)
        for name, part in zip(names, block):
            tables[name].extend(part)


def _grid_axes(config: NetworkConfig, nodes) -> Optional[Tuple]:
    """``(shape, order)`` of the grid ``nodes`` enumerates, else ``None``.

    The grid is the one the builtin topologies emit — row-major in 2-D,
    layer-major in 3-D — and nothing else qualifies.  ``order[j]`` is the
    natural (x, y[, z]) index of the ``j``-th routed axis and
    ``shape[j]`` its size: ``dor_order`` decides in 2-D, the 3-D packs
    route X-Y-Z whatever it says.
    """
    if config.kind.is_3d:
        sizes, make = (config.width, config.height, config.depth), Coord3
        order: Tuple[int, ...] = (0, 1, 2)
    else:
        sizes, make = (config.width, config.height), Coord
        order = (0, 1) if config.dor_order is DorOrder.XY else (1, 0)
    grid = [
        make(*reversed(point))
        for point in itertools.product(*map(range, reversed(sizes)))
    ]
    if list(nodes) != grid:
        return None
    return tuple(sizes[i] for i in order), order


def _axis_tables(model, grid, probes, tables) -> None:
    """Write the axis form of the route tables, one block per ``probe``.

    Every :data:`_SUPPORTED_ROUTINGS` decision is *axis + parity
    separable*: with ``j`` the first routed axis on which ``dest``
    differs from the node (the last when none does: the ejection),
    ``probe(node, dest)`` depends on the pair only through their two
    coordinates on axis ``j`` and the parity of ``dest``'s coordinate
    sum (:class:`TorusDOR`'s half-ring tie-break and VC spread; the
    other routings ignore it).  So that is all that is stored — per
    probe and axis, ``[node coordinate][dest coordinate][parity]`` —
    and the oracle is called on axis-aligned pairs only, about ``2 *
    sum(K * K)`` times over the axis sizes ``K``, not once per ``(node,
    dest)``.  The pair probed for an entry lies on the line through the
    origin along axis ``j``, moved to an odd coordinate of another axis
    (a ``spare`` one, spanning more than one coordinate) when the
    parity asks for it; a parity no such pair realises is never looked
    up and stays 0.  Endpoints lie off the grid (edge memory's phantom
    rows, ``y = -1`` and ``y = H``) but under the same rule, so they
    only widen an axis's coordinate range (on a one-row array the odd
    coordinate *is* a phantom row's: the routings are arithmetic).
    The kernel's ``route_lookup`` is the reader;
    ``_ckernel._CTX_TYPEDEF`` documents the members written here
    (``nax``, ``dkey``, ``rkey``, ``axtab``, ``sublen``).
    Nothing at run time re-checks separability; the exhaustive
    differential test against the all-pairs oracle
    (``tests/sim/test_route_rows.py``) pins it.
    """
    shape, order = grid
    nax = len(order)
    make = type(model.nodes[0])
    ids = [
        [point[i] for i in order]
        for point in (*model.nodes, *model.endpoints)
    ]
    lo = [min(point[j] for point in ids) for j in range(nax)]
    span = [max(point[j] for point in ids) - lo[j] + 1 for j in range(nax)]
    offsets = [0]
    for extent in span:
        offsets.append(offsets[-1] + 2 * extent * extent)
    tables["nax"] = nax
    tables["sublen"] = offsets[-1]
    tables["dkey"] = array(
        "i",
        [
            2 * (c - low) + (sum(point) & 1)
            for point in ids
            for c, low in zip(point, lo)
        ],
    )
    tables["rkey"] = array(
        "i",
        [
            offsets[j] + 2 * span[j] * (point[j] - lo[j])
            for point in ids[: model.n]
            for j in range(nax)
        ],
    )

    def at(j: int, c: int, spare: Optional[int], step: int) -> Coord:
        # Every `order` is its own inverse, so it also maps routed axes
        # back to natural ones.
        point = [0] * nax
        point[j] = c
        if spare is not None:
            point[spare] = step
        return make(*(point[i] for i in order))

    # Per axis: lines[odd][c], the point at (shifted) coordinate c of the
    # line through the origin along axis j — moved, for lines[1], to an
    # odd coordinate of the spare axis (None: there is none) — and the
    # coordinates routers have (endpoints only ever are destinations:
    # their rows stay 0).
    geometry = []
    for j in range(nax):
        spare = next((f for f in range(nax) if f != j and span[f] > 1), None)
        steps = [0]
        if spare is not None:
            steps.append(1 if lo[spare] + span[spare] > 1 else -1)
        lines: List[Optional[List[Coord]]] = [
            [at(j, c, spare, step) for c in range(lo[j], lo[j] + span[j])]
            for step in steps
        ]
        lines.append(None)
        geometry.append((lines, range(-lo[j], shape[j] - lo[j])))
    axtab: List[int] = []
    for probe in probes:
        for j, (lines, routers) in enumerate(geometry):
            for c in range(span[j]):
                for d in range(span[j]):
                    for parity in (0, 1):
                        line = lines[(parity + d + lo[j]) & 1]
                        axtab.append(
                            probe(line[c], line[d])
                            if line is not None and c in routers
                            else 0
                        )
    tables["axtab"] = array("i", axtab)


def _tabulate_wormhole_routes(model, routing, grid, nsub: int, tables) -> None:
    """Closed-form route tables, one per input-equivalence class.

    ``route(node, in_dir, dest, subnet)`` depends on ``in_dir`` only
    through axis membership (and only for :class:`RucheDOR`'s
    second-axis Ruche-boarding rule), so one representative input per
    class tabulates every input port exactly, and the input ports of a
    class share that class's tables (``cls``).  Each (class, subnet)
    table comes from :func:`_axis_tables`, so ``route`` is called on
    axis-aligned pairs only.
    """
    if type(routing) is RucheDOR:
        cls_of_in = (0, 1, 1, 2, 2, 1, 1, 2, 2)  # P | x-axis | y-axis
        reps = (Direction.P, Direction.W, Direction.N)
    else:
        cls_of_in = (0,) * NUM_DIRS
        reps = (Direction.P,)
    route = routing.route
    _axis_tables(
        model,
        grid,
        [
            lambda node, dest, rep=rep, sub=sub: int(
                route(node, rep, dest, sub)
            )
            for rep in reps
            for sub in range(nsub)
        ],
        tables,
    )
    tables["cls"] = array(
        "i", (cls * nsub * tables["sublen"] for cls in cls_of_in)
    )


def _tabulate_fault_routes(model, routing, tables) -> None:
    """Per-(node, input) route rows from the fault-aware BFS tables.

    :class:`FaultAwareTableRouting` keys its next hop on the input
    class (inputs of a node with the same turn set route alike), so
    each class gets one row, the destinations' class lists transposed,
    and every ``(node, input)`` of the class routes by it.  States no
    class covers, and failed-router destinations, are ``-1``: never
    consulted to forward a packet — injection discards unreachable
    destinations (whose ``(source, P)`` entry is exactly the ``-1``),
    and the BFS tables are next-hop-closed (a tabled state's successor
    is also tabled, all the way to ejection).
    """
    classes = routing.input_classes()
    dead = (-1,) * len(set(classes.values()))
    by_class = list(zip(*(
        routing.class_next_hops(dest) or dead for dest in model.nodes
    )))
    node_index = model.node_index
    by_state = {
        (node_index[node], in_idx): by_class[k]
        for (node, in_idx), k in classes.items()
    }
    _pack_state_rows(model, tables, by_state, (-1,) * model.nd)


def _pack_state_rows(model, tables, by_state, blank) -> None:
    """Write the flat form, ``rows`` / ``rowof`` / ``rowlen``, from
    per-state rows.

    A ``(router, input)`` state no table mentions gets the ``blank``
    row, and equal rows are stored once, so the kernel's rows table
    stays near one copy per node (on the fully-connected fault matrix
    every input of a node shares its class's row).
    """
    index: Dict[Tuple[int, ...], int] = {}
    tables["sublen"] = model.nd
    tables["rowlen"] = len(blank)
    tables["rows"] = rows = array("i")
    tables["rowof"] = rowof = array("i")
    for r in range(model.n):
        for i in range(NUM_DIRS):
            row = by_state.get((r, i), blank)
            key = tuple(row)
            idx = index.get(key)
            if idx is None:
                idx = index[key] = len(index)
                rows.extend(row)
            rowof.append(idx)


def _tabulate_generic_routes(model, graph, routing, nsub: int, tables) -> None:
    """Per-(node, input) route rows for any routing, walked over the IR.

    The generic lowering behind plugin routings and the 3-D packs: each
    destination's table comes from
    :func:`~repro.core.routing.tabulate_next_hops` over the topology's
    port graph, so anything that routes soundly over the IR compiles —
    no per-algorithm closed form required.  Rows are packed exactly
    like the fault tables.  A route computation that raises, an output
    with no wired channel, or VC-dependent state makes the design point
    fall back with a ``route-tabulation`` diagnostic.  Endpoints are
    destinations like any other; as sources they start the walk on
    their entry queue (subnet 0, where the reference puts a memory
    injection), not at an injection port of their own.
    """
    n, nd = model.n, model.nd
    node_index = model.node_index
    blank = [-1] * (nsub * nd)
    by_state: Dict[Tuple[int, int], List[int]] = defaultdict(blank.copy)
    problems: List[str] = []

    def on_error(state, exc) -> None:
        problems.append(str(exc))

    entries = [
        (ch.dst, ch.in_port, 0, 0)
        for ch in graph.channels
        if node_index[ch.src] >= n
    ]
    for d, dest in enumerate((*model.nodes, *model.endpoints)):
        table = tabulate_next_hops(
            routing, graph, dest, entries=entries, on_error=on_error
        )
        if problems:
            raise _Unsupported(
                "route-tabulation",
                f"routing {type(routing).__name__} toward "
                f"{tuple(dest)}: {problems[0]}",
            )
        for (coord, in_idx, in_vc, subnet), (out, out_vc) in table.items():
            if in_vc or out_vc:
                raise _Unsupported(
                    "route-tabulation",
                    f"routing {type(routing).__name__} uses VC state, "
                    f"which only the builtin torus lowering models",
                )
            if not 0 <= subnet < nsub:
                raise _Unsupported(
                    "route-tabulation",
                    f"routing {type(routing).__name__} produced subnet "
                    f"{subnet} outside the {nsub} modelled subnet(s)",
                )
            by_state[node_index[coord], in_idx][subnet * nd + d] = out
    _pack_state_rows(model, tables, by_state, blank)


def _tabulate_vc_routes(model, routing, grid, tables) -> None:
    """Decompose ``route_vc`` into (output, non-same-dim VC, dateline).

    The output port is a pure function of ``(node, dest)`` (taken
    straight from :meth:`TorusDOR.route_vc`); the VC depends on the
    arriving VC only through the same-dimension predicate, which
    ``sd`` lets the kernel reconstruct at accept time, and the
    remaining cases — dateline promotion and the ahead/spread choice —
    are pure ``(node, dest)`` arithmetic mirrored from the reference,
    packed into one table entry, ``out | vcn << 3 | dl << 4``.
    All three are axis + parity separable, so the entries come from
    :func:`_axis_tables` over axis-aligned pairs (endpoint coordinates
    included: the arithmetic holds for the phantom rows').
    """
    config = model.config
    y_ring = config.kind is TopologyKind.FOLDED_TORUS
    east, south = int(Direction.E), int(Direction.S)

    def hop(coord: Coord, dest: Coord) -> int:
        out = vcn = dateline = 0  # (P, 0) at the destination
        if dest != coord:
            out = int(routing.route_vc(coord, Direction.P, 0, dest)[0])
            along_x = out in (1, 2)  # W, E
            cur = coord.x if along_x else coord.y
            tgt = dest.x if along_x else dest.y
            k = config.width if along_x else config.height
            is_ring = along_x or y_ring
            if out in (east, south):
                ahead = tgt < cur
                dateline = is_ring and cur == k - 1
            else:
                ahead = tgt > cur
                dateline = is_ring and cur == 0
            if is_ring and not ahead:
                vcn = (dest.x + dest.y) & 1
        return out | vcn << 3 | dateline << 4

    _axis_tables(model, grid, [hop], tables)
    tables["cls"] = array("i", [0]) * VCRouter.NUM_PORTS
    # sd[in_port * 5 + out_port], exactly as TorusDOR.route_vc
    # evaluates it for the five mesh ports.  An injection-port input is
    # never same-dimension; a P output never consults the flag (the
    # reference returns (P, 0) before the check), so it is pinned False
    # and the ejection VC collapses to vcn's 0 at the destination.
    horiz = (int(Direction.W), int(Direction.E))
    tables["sd"] = array(
        "i",
        (
            i != P_IDX and o != P_IDX and (i in horiz) == (o in horiz)
            for i in range(VCRouter.NUM_PORTS)
            for o in range(VCRouter.NUM_PORTS)
        ),
    )


# ----------------------------------------------------------------------
# The native kernel
# ----------------------------------------------------------------------
#: array typecodes must match the kernel's int32/int64/uint32 fields.
_ARRAYS_OK = (
    array("i").itemsize == 4
    and array("q").itemsize == 8
    and array("I").itemsize == 4
)


def _native_kernel() -> Any:
    """The loaded kernel library, or ``None`` (see ``no-native-kernel``)."""
    return _ckernel.get_kernel() if _ARRAYS_OK else None


_NO_KERNEL = LoweringDiagnostic(
    "no-native-kernel",
    "the native step kernel is unavailable (no C compiler, a failed "
    "build or layout check, REPRO_NO_CKERNEL, or exotic array widths); "
    "reference is the only other stepping implementation",
)


_POINTER_TYPES = {
    "i": ctypes.POINTER(ctypes.c_int32),
    "q": ctypes.POINTER(ctypes.c_int64),
    "I": ctypes.POINTER(ctypes.c_uint32),
    "d": ctypes.POINTER(ctypes.c_double),
}


def _ptr(a: array) -> Any:
    """The kernel's view of ``a``, which the caller keeps alive."""
    return ctypes.cast(a.buffer_info()[0], _POINTER_TYPES[a.typecode])


# ----------------------------------------------------------------------
# Lowering diagnostics
# ----------------------------------------------------------------------
def _gate_diagnostics(
    cfg: NetworkConfig,
    faults: Any,
    audit_every: Optional[int],
) -> List[LoweringDiagnostic]:
    """The pre-compile fallback gates, as structured diagnostics.

    This is the single source of truth for the checks
    :func:`run_compiled` performs before attempting compilation; the
    static analyzer (:func:`lowering_problems`) reports exactly these,
    so analyzer and engine can never drift apart.  Everything else
    that falls back is reported by compilation itself.
    """
    reasons: List[LoweringDiagnostic] = []
    if _native_kernel() is None:
        reasons.append(_NO_KERNEL)
    if audit_every is not None:
        reasons.append(
            LoweringDiagnostic(
                "audit-every",
                "in-loop network audits (audit_every) only run on the "
                "reference engine",
            )
        )
    if cfg.edge_memory:
        # A provenance pin, not a capability: endpoints lower (a
        # CompiledFabric steps them, and never asks this gate), but
        # spec runs on edge-memory configs keep their "reference" rows
        # until the benchmark that pins those labels is re-recorded.
        reasons.append(
            LoweringDiagnostic(
                "edge-memory",
                "spec runs with edge-memory endpoints stay on the "
                "reference engine (pinned provenance; the endpoints "
                "themselves lower)",
            )
        )
    if (
        faults is not None
        and faults.affects_routing
        and (cfg.uses_vcs or cfg.fbfc)
    ):
        # The reference engine raises the identical ConfigError for
        # fault-aware rerouting on VC/FBFC topologies — run_compiled
        # delegates so the error comes from one place.
        reasons.append(
            LoweringDiagnostic(
                "vc-fbfc-rerouting",
                "fault-aware rerouting on VC/FBFC torus routers is "
                "rejected (identically) by both engines",
            )
        )
    return reasons


# ----------------------------------------------------------------------
# Native injection plans
# ----------------------------------------------------------------------
class _PoisonPattern(Exception):
    """Raised when a probed pattern touches its RNG (not tabulable)."""


class _PoisonRng:
    """An RNG stand-in whose every use raises :class:`_PoisonPattern`."""

    __slots__ = ()

    def __getattr__(self, name: str) -> Any:
        raise _PoisonPattern(name)


_POISON_RNG = _PoisonRng()

#: (model, pattern name) -> in-kernel injection plan: ``("table",
#: dtab)`` for deterministic patterns (``-1`` = self-addressed, skipped
#: after the timing draw), ``("uniform", perm, ubits)`` for the builtin
#: uniform-random pattern, or ``None`` when the pattern draws from the
#: dest stream in a way the block kernel cannot replicate.  Plans hold
#: node *indices*, so they key on the model whose node order they were
#: built in (a plugin topology may ride a builtin's config in another
#: order).  Trace replay plans (``("schedule", triples)``: the whole
#: run's ``(cycle, source, dest)`` injections) live in
#: :data:`_TRACE_PLAN_CACHE` instead, validated by the trace file's
#: stat signature — a name-keyed entry would go stale when the file at
#: the same path is overwritten.
_PATTERN_CACHE: Dict[Tuple, Optional[Tuple]] = {}

#: (model, trace abspath) -> (source key, ``("schedule", triples)`` plan):
#: one entry per file, replaced when its stat signature changes (the
#: discipline of :data:`repro.sim.trace._TRACE_CACHE`).
_TRACE_PLAN_CACHE: Dict[Tuple, Tuple] = {}


def _trace_plan(model: _CompiledModel, arg: str) -> Optional[Tuple]:
    """The in-kernel plan for ``trace_replay:<arg>``, or ``None``.

    ``None`` leaves the draw to the host, where the pattern factory
    raises the loader's full :class:`~repro.sim.trace.TraceError` — the
    injection gate stays an analysis, not an error path.
    """
    from repro.sim import trace as trace_mod

    try:
        tr = trace_mod.load_trace(arg)
        tr.check_config(model.config)
    except Exception:
        return None
    key = (model, tr.source_key[0])
    cached = _TRACE_PLAN_CACHE.get(key)
    if cached is not None and cached[0] == tr.source_key:
        return cached[1]
    try:
        plan = ("schedule", tr.batch_table(model.nodes, model.node_index))
    except Exception:
        return None
    _TRACE_PLAN_CACHE[key] = (tr.source_key, plan)
    return plan


def _pattern_plan(model: _CompiledModel, pattern: str) -> Optional[Tuple]:
    base, sep, arg = pattern.partition(":")
    if sep and base.strip().lower() == "trace_replay":
        # Stateful by design (per-source call counters) — the
        # poison-RNG probe below would mis-tabulate it, and the plan
        # must key on the file's content signature, not its name.
        return _trace_plan(model, arg)
    key = (model, pattern)
    cached = _PATTERN_CACHE.get(key, _MISSING)
    if cached is not _MISSING:
        return cached
    plan: Optional[Tuple] = None
    config = model.config
    nidx = model.node_index
    try:
        fn = build_pattern(pattern, config)
        vals = array("i", bytes(4 * model.n))
        for s, src in enumerate(model.nodes):
            dest = fn(src, _POISON_RNG)
            vals[s] = -1 if dest is None else nidx[dest]
        plan = ("table", vals)
    except _PoisonPattern:
        # Draws from the dest stream: only the builtin uniform pattern
        # has a kernel translation (identity check — a plugin override
        # registered under the same name must not silently batch).
        from repro.core.registry import PATTERNS
        from repro.errors import ConfigError
        from repro.sim import traffic

        try:
            factory = PATTERNS.get(pattern)
        except ConfigError:
            factory = None
        if factory is traffic.make_uniform:
            pnodes = traffic._all_nodes(config)
            if len(pnodes) == model.n:
                perm = array("i", (nidx[c] for c in pnodes))
                plan = ("uniform", perm, len(pnodes).bit_length())
    except Exception:
        plan = None
    _PATTERN_CACHE[key] = plan
    return plan


# ----------------------------------------------------------------------
# Gate and compile: from a resolved run to its diagnostics or its model
# ----------------------------------------------------------------------
def _resolve(
    run: ResolvedRun,
    resolved: Optional[_Parts] = None,
) -> Tuple[List[LoweringDiagnostic], Optional[_CompiledModel]]:
    """Gate and compile one resolved run's design point.

    Returns ``(problems, model)``.  ``problems`` names why the run does
    not lower to this engine — the pre-compile gates, else what
    compilation raised — and ``model`` is ``None`` exactly when there
    are any.  :func:`lowering_problems` is the ``problems`` of this
    function and :func:`_launch` runs its ``model``, on the same
    record, so analyzer and executor can never disagree about a run.
    No pattern work happens here.
    """
    model = None
    problems = _gate_diagnostics(run.config, run.faults, run.audit_every)
    if not problems:
        try:
            model = _compile(run.target, run.config, run.faults, resolved)
        except _Unsupported as exc:
            problems = [exc.diagnostic]
    return problems, model


def _off_rate_trace(run: ResolvedRun) -> bool:
    base, sep, _arg = run.pattern.partition(":")
    return bool(sep) and base.strip().lower() == "trace_replay" and (
        run.rate != 1.0
    )


def _faulted(run: ResolvedRun) -> bool:
    return run.faults is not None and run.faults.has_faults


def _injection_gate(run: ResolvedRun) -> List[LoweringDiagnostic]:
    """Why a run that lowers is not a ``"compiled-batch"`` row.

    Cheap.  The host draws an off-rate trace; a faulted run keeps the
    ``"compiled"`` label, whoever draws it (:func:`_injection_plan`).
    """
    reasons: List[LoweringDiagnostic] = []
    if _off_rate_trace(run):
        reasons.append(
            LoweringDiagnostic(
                "trace-rate",
                f"a trace is an in-kernel injection schedule only at "
                f"rate=1.0 (run has rate={run.rate}): the schedule is "
                f"indexed by cycle while the reference engine indexes "
                f"the trace by pattern call, and the two agree only "
                f"when every cycle draws the pattern; the host draws, "
                f"the kernel enqueues",
            )
        )
    if _faulted(run):
        reasons.append(
            LoweringDiagnostic(
                "fault-schedule",
                "a run under a fault schedule reports engine "
                "'compiled', not 'compiled-batch'",
            )
        )
    return reasons


def _injection_plan(
    run: ResolvedRun, model: _CompiledModel
) -> Optional[Tuple]:
    """The kernel's injection plan for a run that lowers, or ``None``
    when the host draws its packets.

    The host draws an off-rate trace, a pattern :func:`_pattern_plan`
    has no plan for and, under a fault schedule, a trace replay (its
    schedule knows neither dead routers nor unreachable destinations);
    the kernel draws everything else, faulted runs included.
    """
    if _off_rate_trace(run):
        return None
    plan = _pattern_plan(model, run.pattern)
    if plan is not None and plan[0] == "schedule" and _faulted(run):
        return None
    return plan


def lowering_problems(
    target: Union[NetworkConfig, NetworkSpec], **given: Any
) -> List[LoweringDiagnostic]:
    """Why ``target`` would fall back to the reference engine.

    A static compilability analysis: an empty list means
    :func:`run_compiled` will run this design point on the flat-array
    engine; otherwise each :class:`LoweringDiagnostic` names one exact
    fallback reason.  ``target`` and ``given`` are what
    :func:`run_compiled` takes and resolve the same way (a spec's fault
    and ``audit_every`` fields apply; ``faults=`` / ``audit_every=``
    override them).  Nothing is simulated: the analysis is the
    resolution :func:`run_compiled` itself performs on that record —
    the pre-compile gates and, when those pass, the (cached) model
    compilation — so the verdict is the engine's own, not a parallel
    reimplementation.
    """
    return _resolve(resolve_run("lowering_problems", target, **given))[0]


def batching_problems(
    target: Union[NetworkConfig, NetworkSpec], **given: Any
) -> List[LoweringDiagnostic]:
    """Why ``target`` is not a ``"compiled-batch"`` row.

    An empty list means :func:`run_compiled_batch` will run this design
    point with the kernel drawing its own packets; otherwise each
    diagnostic names one exact reason it does not.  A strict superset
    of :func:`lowering_problems`, judged on the same resolved record:
    everything that cannot lower cannot batch, and a batched row
    additionally selects the compiled engine, with a pattern the
    kernel can draw natively (no compiled run of the spec needs the
    host's Python draw) and no fault schedule (a faulted run, drawn in
    the kernel all the same, keeps the ``"compiled"`` label).
    """
    return _diagnose(resolve_run("batching_problems", target, **given))[1]


def _diagnose(
    run: ResolvedRun,
    resolved: Optional[_Parts] = None,
) -> Tuple[List[LoweringDiagnostic], List[LoweringDiagnostic]]:
    """``(lowering, batching)`` diagnostics of one resolved run.

    The first is :func:`lowering_problems`' list (the engine is not
    read), the second :func:`batching_problems`', from one gate and
    one compile.  ``resolved`` is handed on to :func:`_compile`.
    """
    lowering, model = _resolve(run, resolved)
    reasons: List[LoweringDiagnostic] = []
    if run.engine != "compiled":
        reasons.append(
            LoweringDiagnostic(
                "engine-not-compiled",
                f"run selects engine {run.engine!r}; batches run "
                f"only explicitly compiled design points",
            )
        )
    reasons += _injection_gate(run)
    reasons += lowering
    if not reasons and _pattern_plan(model, run.pattern) is None:
        reasons.append(
            LoweringDiagnostic(
                "pattern-not-batchable",
                f"pattern {run.pattern!r} draws from the dest "
                f"stream in a way the block kernel cannot replicate; "
                f"the host draws, the kernel enqueues",
            )
        )
    return lowering, reasons


# ----------------------------------------------------------------------
# The executor: one run, its own arrays, stepped to completion
# ----------------------------------------------------------------------
# Every compiled run goes the same way: allocate that run's flat state
# (`_RunState`) — FIFO rings, injection lists, packet records, counters,
# Mersenne Twister states — and hand it, as a `_Run`, to the phase
# driver both engines share (`sim.simulator._drive`), which advances it
# in native kernel blocks (`run_block`), doubling the packet records
# whenever one stops for room, and keeps the `RunResult` (or the error)
# and nothing else.  The kernel enqueues every packet.  With an
# injection plan it chooses them too; without one the host draws a
# block's packets ahead of it, a `_WALL_CHECK_EVERY`-cycle interval at
# a time.
#
# The bit-identity contract covers both: the in-kernel draw consumes
# the same `timing` / `dest` RNG streams in the same order as the host
# draw (the kernel replicates CPython's MT19937, including `random()`'s
# 53-bit recipe and `randrange`'s top-bits rejection loop), so every
# counter, latency, and checkpoint byte matches the reference engine
# either way.

_PK_CAP0 = 4096  # initial per-run packet-record slots (doubles)
_EJ_CAP0 = 8192  # initial per-run ejection-log capacity, in int32 slots
#: Most cycles one kernel block runs when the host has nothing to do in
#: between; not a memory bound (records grow by demand, whatever the
#: block length).
_BLOCK_CYCLES = 4096
_I32_MAX = 2**31 - 1
_LOW32 = 0xFFFFFFFF  # a record keeps a packet serial's low 32 bits


def _counter(slot: int) -> Any:
    """A read-only view of the kernel counter ``st[slot]``."""
    return property(lambda self: int(self.st[slot]))


class _RunState:
    """One lowered design point's run state: every array the kernel steps.

    The single allocation behind both compiled steppers — :class:`_Run`
    steps it a block at a time for the phase driver,
    :class:`CompiledFabric` a cycle at a time for its host.  It owns
    the FIFO rings, injection lists, packet records and counters and
    the one kernel context pointing into them (:class:`_ckernel.Ctx`,
    filled once, here), so
    a run's memory lives exactly as long as this object; it grows the
    packet records on demand and rehydrates a tripped watchdog into the
    reference's :class:`~repro.errors.DeadlockError`.  As built, the
    kernel injects from an (empty) ``(cycle, source, dest)`` schedule;
    a driver points it at its packets.  ``rebuild`` returns a fresh
    reference network of the same design point, for the rehydration.
    """

    __slots__ = (
        "model", "rebuild", "keep",
        "buf", "qoff", "qcap", "qhead", "qlen",
        "phead", "hop", "link", "st", "dirty", "ej", "nej",
        "pk", "ejlog_a", "ctx", "cref", "run_block",
    )

    def __init__(
        self,
        model: _CompiledModel,
        rebuild: Any,
        *,
        faults: Optional[FaultSchedule] = None,
        watchdog: Optional[WatchdogConfig] = None,
        track_links: bool = False,
        log_ejections: bool = False,
    ) -> None:
        self.model = model
        self.rebuild = rebuild
        # Everything the context points into is held until the run
        # ends: the static tables by `model`, the rest here (by name
        # when Python reads it back, else in `keep`).
        self.keep: List[array] = []
        new = self._new

        n, nd, depth = model.n, model.nd, model.depth
        nflat = n * model.nports  # flat (router, port) ids
        nq = nflat * model.num_vcs
        self.qcap = qcap = new(nq)
        self.qoff = qoff = new(nq)
        off = 0
        for q, _r, i, _lane in self._queues():
            # An injection (P) queue is unbounded, as in the reference
            # engine: its `qlen` packets wait on the source's list
            # (`phead` -> `pnext` ... `ptail`), not in a ring.
            qcap[q] = 0 if i == P_IDX else depth
            qoff[q] = off
            off += qcap[q]
        self.buf = new(off)
        self.qhead = new(nq)
        self.qlen = new(nq)
        self.phead = new(n)
        self.hop = new(NUM_DIRS, "q")
        self.link = new(n * NUM_DIRS if track_links else 1, "q")
        self.st = new(_ckernel.ST_LEN, "q")
        # At most one ejection per sink a cycle: routers and endpoints.
        self.ej = new(nd)
        self.nej = new(1)
        # Only `step_vc` skips clean routers.
        self.dirty = new([1] * n) if model.kind == "vc" else None
        #: The growable packet records: `pk_cap` slots of
        #: `_ckernel.PK_LEN` fields, as many in use as packets alive.
        self.pk = array("i", bytes(4 * _ckernel.PK_LEN * _PK_CAP0))
        # (source, latency) of each measured ejection since the last
        # replay — only for runs that keep per-packet data.
        self.ejlog_a = (
            array("i", bytes(4 * _EJ_CAP0)) if log_ejections else None
        )

        # -- the kernel context: scalars, then every array in one pass --
        c = self.ctx = _ckernel.Ctx()
        self.cref = ctypes.byref(c)
        c.kind = _KIND_CODES[model.kind]
        c.n = n
        c.nd = nd
        c.np = model.nports
        c.nvc = model.num_vcs
        c.depth = depth
        c.track_links = track_links
        c.mode = _ckernel.MODE_SCHEDULE
        wd = watchdog if watchdog is not None else WatchdogConfig()
        c.stall_window = wd.stall_window
        c.starve_window = (
            -1 if wd.starvation_window is None else wd.starvation_window
        )
        c.pk_cap = _PK_CAP0
        c.pk_free = -1
        fill = dict(
            model.tables,
            entry=model.entry,
            buf=self.buf, qoff=qoff, qcap=qcap,
            qhead=self.qhead, qlen=self.qlen,
            occ=new(n), rr=new(nflat),
            phead=self.phead, ptail=new(n),
            st=self.st, hop=self.hop, link=self.link,
            gsq=new(nflat), gro=new(nflat),
            ej=self.ej, nej=self.nej,
            pk=self.pk,
        )
        if self.dirty is not None:
            fill.update(prio=new(n), dirty=self.dirty)
        if self.ejlog_a is not None:
            c.ej_cap = _EJ_CAP0 // 2
            fill["ejlog"] = self.ejlog_a
        transient = faults.transient if faults is not None else ()
        if transient:
            # fmap[router * 9 + out] -> fault index, consulted by the
            # kernel in commit order — which both engines share — so
            # its draws consume the faults:drops stream identically.
            fmap = new([-1] * (n * NUM_DIRS))
            fwin = new(())
            for k, tf in enumerate(transient):
                link = model.node_index[tf.src] * NUM_DIRS + int(tf.direction)
                fmap[link] = k
                end = _I32_MAX if tf.end is None else tf.end
                fwin.append(max(-_I32_MAX, min(tf.start, _I32_MAX)))
                fwin.append(max(-_I32_MAX, min(end, _I32_MAX)))
            fill.update(
                fmap=fmap,
                fwin=fwin,
                fprob=new((tf.drop_prob for tf in transient), "d"),
            )
            c.x_mt = self._twister(faults.make_drop_rng())
        for name, value in fill.items():
            setattr(
                c, name, value if isinstance(value, int) else _ptr(value)
            )
        self.run_block = _native_kernel().run_block

    #: The packets the network holds.
    occupancy = _counter(_ckernel.ST_OCC)

    def _new(self, init: Union[int, Sequence[int]], code: str = "i") -> array:
        """A zeroed (or initialised) array that lives as long as the run."""
        if isinstance(init, int):
            a = array(code, [0]) * init
        else:
            a = array(code, init)
        self.keep.append(a)
        return a

    def _twister(self, rng: Any) -> Any:
        """A Mersenne Twister state for the kernel to advance."""
        return _ptr(self._new(rng.getstate()[1], "I"))

    def _queues(self):
        """Every wired input queue as ``(flat id, router, port, lane)``.

        Layout order: router, then port, then lane ascending.  Flat ids
        are ``(router * nports + port) * num_vcs + lane`` — ``router * 9
        + port`` on the wormhole / FBFC routers, whose ports have one
        lane.  The P injection port owns a single lane on every kind
        (mirroring the reference's one injection FIFO).  An endpoint's
        entry queue is the ordinary input ring of the port its channel
        arrives on.
        """
        model = self.model
        nports, nvc = model.nports, model.num_vcs
        # Routers with the same ports share one block layout.
        layouts: Dict[Tuple[int, ...], List[Tuple[int, int, int]]] = {}
        for r, ports in enumerate(model.in_ports):
            layout = layouts.get(ports)
            if layout is None:
                layout = layouts[ports] = [
                    (i * nvc + lane, i, lane)
                    for i in ports
                    for lane in range(1 if i == P_IDX else nvc)
                ]
            base = r * nports * nvc
            for off, i, lane in layout:
                yield base + off, r, i, lane

    # -- demand growth ----------------------------------------------------
    def _grow(self) -> None:
        """Make room for one more injection round and its ejections.

        At most one packet per source and one ejection per sink —
        routers and endpoints, ``nd`` of each — so ``nd`` free record
        slots (and ``nd`` log entries, the log having just been
        replayed) suffice.  The slots in use are the packets alive,
        ``ST_OCC``, so doubling tracks the most alive at once.
        """
        c = self.ctx
        nd = self.model.nd
        need = self.st[_ckernel.ST_OCC] + nd
        if need > c.pk_cap:
            cap = c.pk_cap
            while cap < need:
                cap *= 2
            # One resize and no temporary: the new slots start as copies
            # of the old, which nothing reads before an enqueue writes
            # every field.
            self.pk *= cap // c.pk_cap
            c.pk_cap = cap
            c.pk = _ptr(self.pk)
        if self.ejlog_a is not None and nd > c.ej_cap:
            cap = c.ej_cap
            while cap < nd:
                cap *= 2
            self.ejlog_a.frombytes(bytes(8 * (cap - c.ej_cap)))
            c.ej_cap = cap
            c.ejlog = _ptr(self.ejlog_a)

    # -- a tripped watchdog ---------------------------------------------
    def _watchdog_error(self, kind: str, window: int) -> DeadlockError:
        """The reference-identical ``DeadlockError`` for a tripped run.

        Slow path, entered at most once per run: rebuild the reference
        object model, replay every buffered packet into it, and let the
        watchdog's snapshot machinery produce the same forensic report
        a reference run would have raised.
        """
        from repro.sim.watchdog import deadlock_error

        model = self.model
        coords = (*model.nodes, *model.endpoints)
        buf, pk, width = self.buf, self.pk, _ckernel.PK_LEN
        npk = int(self.st[_ckernel.ST_NPK])
        has_subnets = "spar" in model.tables
        sublen = model.tables["sublen"]
        net = self.rebuild()
        routers = [net.routers[coord] for coord in model.nodes]
        for q, r, i, lane in self._queues():
            pids = []
            if i == P_IDX:  # the source's injection list, oldest first
                pid = self.phead[r]
                for _ in range(self.qlen[q]):
                    pids.append(pid)
                    pid = pk[pid * width + _ckernel.PK_NEXT]
            else:
                ring, cap, head = self.qoff[q], self.qcap[q], self.qhead[q]
                for k in range(self.qlen[q]):
                    pids.append(buf[ring + (head + k) % cap])
            for pid in pids:
                rec = pk[pid * width : (pid + 1) * width]
                # No packet held has 2**32 packets enqueued after it.
                serial = npk - ((npk - rec[_ckernel.PK_SERIAL]) & _LOW32)
                pkt = Packet(
                    serial,
                    coords[rec[_ckernel.PK_SRC]],
                    coords[rec[_ckernel.PK_DEST]],
                    rec[_ckernel.PK_INJ],
                    subnet=(
                        rec[_ckernel.PK_AUX] // sublen if has_subnets else 0
                    ),
                    measured=bool(rec[_ckernel.PK_MEAS]),
                )
                routers[r].accept(pkt, i, lane)
        net.cycle = int(self.st[_ckernel.ST_CYCLE])
        net.occupancy = int(self.st[_ckernel.ST_OCC])
        return deadlock_error(net, kind, window)

    def _trip(self, stop: int) -> Optional[DeadlockError]:
        """The watchdog error behind a block's stop code, if it is one.

        Built at once: the rehydration reads this run's arrays.
        """
        if stop == _ckernel.STOP_STALL:
            return self._watchdog_error(
                "stall", int(self.st[_ckernel.ST_IDLE])
            )
        if stop == _ckernel.STOP_STARVE:
            return self._watchdog_error(
                "starvation", int(self.st[_ckernel.ST_STARVED])
            )
        return None


class _Run(_RunState):
    """One resolved run on its :class:`_RunState`: the phase driver's
    (:func:`~repro.sim.simulator._drive`) compiled stepper.

    Built only by :func:`_launch`, for the driver.  ``run`` is the
    :class:`~repro.core.spec.ResolvedRun` record (so plain
    ``NetworkConfig`` callers work too) and ``engine`` the label the
    result reports.  ``plan`` is
    the native injection plan from :func:`_injection_plan`; ``None``
    means the host draws each block's packets with the reference's
    own :func:`~repro.sim.simulator._open_loop_draw` into the
    ``(cycle, source, dest)`` schedule the kernel injects from.  Either
    way only the kernel touches a queue or a packet record.  The
    phases, budgets and result are the driver's; this class keeps the
    stepping and the counters' fill.
    """

    __slots__ = (
        "resolved", "engine", "sources", "draw", "sched",
        "samples", "per_src",
    )

    def __init__(
        self,
        run: ResolvedRun,
        model: _CompiledModel,
        plan: Optional[Tuple],
        engine: str,
    ) -> None:
        faults = run.faults
        super().__init__(
            model,
            run.network,
            faults=faults,
            watchdog=run.watchdog,
            track_links=run.track_links,
            log_ejections=run.keep_samples or run.track_per_source,
        )
        self.resolved = run
        self.engine = engine
        self.sources = _live_sources(model.nodes, faults)
        self.samples: Optional[List[int]] = (
            [] if run.keep_samples else None
        )
        self.per_src: Optional[Dict[int, LatencyStats]] = (
            {} if run.track_per_source else None
        )
        c = self.ctx
        c.rate = run.rate
        if plan is None:
            self.draw: Optional[Any] = _open_loop_draw(
                run, self.sources, model.reachable
            )
        else:
            self.draw = None
            # The plan's table is read-only in the kernel, so every run
            # of the design point shares the cached copy.
            table = plan[1]
            self.keep.append(table)
            if plan[0] == "schedule":
                c.sched = _ptr(table)
                c.sched_len = len(table) // 3
            else:
                timing_rng, dest_rng = _open_loop_streams(run.seed)
                c.t_mt = self._twister(timing_rng)
                c.d_mt = self._twister(dest_rng)
                # The host draw's fault filters: dead routers take no
                # draw, and a destination `reachable` denies (a -1 route
                # entry at the source's injection port) is dropped.
                if faults is not None and faults.dead_routers:
                    live = self._new(model.n)
                    for s, _src in self.sources:
                        live[s] = 1
                    c.live = _ptr(live)
                c.reach = _faulted(run) and model.reachable is not None
                if plan[0] == "table":
                    c.mode = _ckernel.MODE_TABLE
                    c.dtab = _ptr(table)
                else:
                    c.mode = _ckernel.MODE_UNIFORM
                    c.ubits = plan[2]
                    c.perm = _ptr(table)

    # -- stepping -------------------------------------------------------
    cycle = _counter(_ckernel.ST_CYCLE)
    delivered_total = _counter(_ckernel.ST_DEL_TOTAL)
    injected_measured = _counter(_ckernel.ST_INJ_MEAS)
    delivered_measured = _counter(_ckernel.ST_DEL_MEAS)
    dropped_measured = _counter(_ckernel.ST_DROP_MEAS)

    def advance(self, count: int, phase: int) -> Optional[DeadlockError]:
        """Run at most ``count`` cycles of ``phase`` in kernel blocks.

        Returns a tripped watchdog's error; ``None`` when the cycles ran
        out or — while draining — every measured packet resolved.
        """
        st = self.st
        c = self.ctx
        draw = self.draw
        c.measured = phase == _MEASURE
        c.drain = phase == _DRAIN
        c.target = st[_ckernel.ST_INJ_MEAS]
        stop = _ckernel.STOP_BUDGET
        while count > 0:
            # A host-drawn block ends at the next wall-check cycle, so
            # its schedule holds at most one interval's packets.
            c.count = min(
                count,
                _WALL_CHECK_EVERY - st[_ckernel.ST_CYCLE] % _WALL_CHECK_EVERY
                if draw is not None
                else _BLOCK_CYCLES,
            )
            # A block re-entered after growing keeps its schedule (and
            # the kernel its cursor into it).
            if draw is not None and stop != _ckernel.STOP_CAPACITY:
                self._schedule(draw(st[_ckernel.ST_CYCLE], c.count))
            stop = self.run_block(self.cref)
            count -= st[_ckernel.ST_RAN]
            if st[_ckernel.ST_NEJLOG]:
                self._replay_ejections()
            if stop == _ckernel.STOP_CAPACITY:
                self._grow()
            elif stop != _ckernel.STOP_BUDGET:
                return self._trip(stop)
        return None

    def _schedule(self, packets: List[Tuple[int, int, Coord]]) -> None:
        """Hand the kernel's enqueue a block of host-drawn packets.

        The ``(cycle, source, dest)`` schedule is kept alive here while
        the kernel reads it.
        """
        nidx = self.model.node_index
        self.sched = sched = array(
            "i",
            [v for cycle, s, dest in packets for v in (cycle, s, nidx[dest])],
        )
        c = self.ctx
        c.sched = _ptr(sched)
        c.sched_len = len(packets)
        c.sched_cur = 0

    def _replay_ejections(self) -> None:
        """Move the logged measured ejections into the per-packet data."""
        st = self.st
        end = 2 * st[_ckernel.ST_NEJLOG]
        latencies = self.ejlog_a[1:end:2]
        if self.samples is not None:
            self.samples.extend(latencies)
        per_src = self.per_src
        if per_src is not None:
            for s, lat in zip(self.ejlog_a[0:end:2], latencies):
                stats = per_src.get(s)
                if stats is None:
                    stats = per_src[s] = LatencyStats()
                stats.add(lat)
        st[_ckernel.ST_NEJLOG] = 0

    # -- terminal state --------------------------------------------------
    @property
    def metrics(self) -> RunMetrics:
        """The run's metrics, read off the kernel's counters."""
        st = self.st
        model = self.model
        run = self.resolved
        metrics = RunMetrics(
            track_per_source=run.track_per_source,
            keep_samples=run.keep_samples,
            track_links=run.track_links,
        )
        stats = metrics.measured
        stats.count = st[_ckernel.ST_DEL_MEAS]
        stats.total = st[_ckernel.ST_LAT_SUM]
        stats.total_sq = (st[_ckernel.ST_LAT_SQ_HI] << 64) | (
            st[_ckernel.ST_LAT_SQ_LO] & (2**64 - 1)
        )
        if stats.count:
            stats.min = st[_ckernel.ST_LAT_MIN]
            stats.max = st[_ckernel.ST_LAT_MAX]
        if self.samples is not None:
            stats._samples = self.samples
        metrics.delivered_total = int(st[_ckernel.ST_DEL_TOTAL])
        metrics.delivered_measured = int(st[_ckernel.ST_DEL_MEAS])
        metrics.injected_total = int(st[_ckernel.ST_INJ_TOTAL])
        metrics.injected_measured = int(st[_ckernel.ST_INJ_MEAS])
        metrics.dropped_total = int(st[_ckernel.ST_DROP_TOTAL])
        metrics.dropped_measured = int(st[_ckernel.ST_DROP_MEAS])
        metrics.hop_counts = list(self.hop)
        if self.per_src is not None:
            for s, src_stats in self.per_src.items():
                metrics.per_source[model.nodes[s]] = src_stats
        if run.track_links:
            link_counts = metrics.link_counts
            link = self.link
            for r in range(model.n):
                base = r * NUM_DIRS
                coord = model.nodes[r]
                for o in range(1, NUM_DIRS):
                    count = link[base + o]
                    if count:
                        link_counts[(coord, o)] = count
        return metrics


# ----------------------------------------------------------------------
# The stepping surface: one network, one cycle at a time
# ----------------------------------------------------------------------
def fabric_problems(config: NetworkConfig) -> List[LoweringDiagnostic]:
    """Why ``config`` cannot step as a :class:`CompiledFabric`.

    Empty when it can.  A fabric needs the native kernel and a model;
    the spec-run gates do not apply to it (no spec, no faults, no
    audit), the ``edge-memory`` provenance pin least of all.
    """
    if _native_kernel() is None:
        return [_NO_KERNEL]
    try:
        _compile(config, config)
    except _Unsupported as exc:
        return [exc.diagnostic]
    return []


class CompiledFabric(_RunState):
    """A lowered network stepped a cycle at a time, under host endpoints.

    The endpoint-facing surface of the reference
    :class:`~repro.sim.network.Network` — what the manycore machine
    drives — and nothing else: offer a packet at a tile
    (:meth:`inject`) or from an endpoint (:meth:`try_inject_from_memory`),
    read a source queue's length, :meth:`step`, read the occupancy and
    the hop counts.  Bit-identical to the reference given the same
    calls: an offer is a ``(cycle, source, dest)`` triple on the
    schedule of the next cycle's one-cycle block (an endpoint's source
    id means its entry queue), the kernel's one ``enqueue`` injects it
    under the next packet serial, and each slot in the block's ``ej[]``
    hands the carrier of its record's serial to
    ``sinks[dest].deliver(pkt, cycle)`` in commit order.  The host
    writes no queue and no packet record; the only run state it writes
    is the ``ready[]`` word of a gated sink and the wake-up that implies.

    Contracts (the machine keeps them; :class:`Sink.ready` states the
    first): a sink's readiness falls only when this fabric delivers to
    it, so it is re-read after a delivery and, before a step, only
    while last seen not ready; a source offers at most once a cycle,
    after reading its queue length, so ``qlen[]`` read after the step
    is exact.  ``sink_factory`` / ``memory_sink_factory`` are the
    reference network's arguments.
    """

    __slots__ = (
        "cycle", "sinks", "refusals", "sink_stalls",
        "_index", "_stride", "_entry_q", "_offers", "_sched", "_carriers",
        "_next_pid", "_ready", "_gated", "_waiting", "_wake",
    )

    def __init__(
        self,
        config: NetworkConfig,
        sink_factory: Any,
        memory_sink_factory: Any,
        watchdog: Optional[WatchdogConfig] = None,
    ) -> None:
        model = _compile(config, config)
        self._index = index = model.node_index
        self.sinks = sinks = [sink_factory(c) for c in model.nodes]
        sinks += [memory_sink_factory(c) for c in model.endpoints]

        def sink_at(coord: Coord) -> Any:
            return sinks[index[coord]]

        super().__init__(
            model,
            functools.partial(
                build_network,
                config,
                sink_factory=sink_at,
                memory_sink_factory=sink_at,
                watchdog=watchdog,
            ),
            watchdog=watchdog,
        )
        self.cycle = 0
        #: Offers an entry queue refused, and deliveries that left a
        #: gated sink not ready (what backpressure tests look for).
        self.refusals = 0
        self.sink_stalls = 0
        nports, lanes = model.nports, model.num_vcs
        # Flat queue id of a port's lane 0: source s injects at
        # s * _stride, endpoint e enters at _entry_q[e].
        self._stride = nports * lanes
        self._entry_q = [port * lanes for port in model.entry]
        # A gated sink (one whose class overrides `ready`) blocks its
        # output through a word the kernel reads: dn = -2 - sink id on
        # this run's copy of the wiring, free sinks stay -1.
        self._ready = ready = self._new([1] * model.nd)
        self._gated = gated = [
            type(sink).ready is not Sink.ready for sink in sinks
        ]
        self._waiting: List[int] = []
        # The flat (router, output) feeding each sink, and its router:
        # the one `step_vc` must look at again when the sink turns ready.
        outs = (*range(0, model.n * nports, nports), *model.sink_of)
        self._wake = [out // nports for out in outs]
        if any(gated):
            dn = self._new(model.tables["dn"])
            for k, out in enumerate(outs):
                if gated[k] and out >= 0:
                    dn[out] = -2 - k
                    if not sinks[k].ready():
                        ready[k] = 0
                        self._waiting.append(k)
            self.ctx.dn = _ptr(dn)
            self.ctx.ready = _ptr(ready)
        # Next cycle's offers, copied into a fixed schedule buffer the
        # kernel reads: every source may offer once.
        self._offers: List[int] = []
        self._sched = self._new(3 * model.nd)
        self.ctx.sched = _ptr(self._sched)
        self.ctx.count = 1
        # Payload carriers by the low 32 bits of the packet serial,
        # which the record keeps: this fabric numbers its offers as the
        # kernel does (ST_NPK), whatever slot each takes.
        self._carriers: Dict[int, Any] = {}
        self._next_pid = 0

    # -- offers -----------------------------------------------------------
    def inject(self, src: Coord, dest: Coord, *, payload: Any = None) -> Any:
        """Offer a packet at ``src``'s (unbounded) source queue."""
        pid = self._next_pid
        self._next_pid = pid + 1
        index = self._index
        self._offers += (self.cycle, index[src], index[dest])
        pkt = self._carriers[pid & _LOW32] = Packet(
            pid, src, dest, self.cycle, payload=payload
        )
        return pkt

    def try_inject_from_memory(
        self, mem_coord: Coord, dest: Coord, *, payload: Any = None
    ) -> bool:
        """Offer a packet from an endpoint; False when its entry is full."""
        q = self._entry_q[self._index[mem_coord] - self.model.n]
        if self.qlen[q] >= self.model.depth:
            self.refusals += 1
            return False
        self.inject(mem_coord, dest, payload=payload)
        return True

    def source_queue_len(self, src: Coord) -> int:
        """Occupancy of a tile's injection queue (closed-loop backpressure)."""
        return self.qlen[self._index[src] * self._stride]

    # -- reads ------------------------------------------------------------
    @property
    def hop_counts(self) -> List[int]:
        return list(self.hop)

    def hop_count(self, src: Coord, dest: Coord) -> int:
        """Channel traversals ``src`` -> ``dest``, off the lowered tables.

        What ``routing.hop_count`` walks from the algorithm, read from
        the rows the kernel routes by (endpoints on either end count
        their channel).
        """
        index = self._index
        hops = _native_kernel().hop_count(
            self.cref, index[src], index[dest]
        )
        if hops < 0:
            raise SimulationError(
                f"no table route from {tuple(src)} to {tuple(dest)}"
            )
        return hops

    # -- the cycle --------------------------------------------------------
    def step(self) -> None:
        """Advance one cycle: enqueue the offers, step, deliver."""
        offers = self._offers
        offered = len(offers)
        if offered:
            if offered > len(self._sched):
                raise SimulationError(
                    f"{offered // 3} offers in cycle {self.cycle}: a "
                    f"source offers at most once a cycle"
                )
            self._sched[:offered] = array("i", offers)
            c = self.ctx
            c.sched_len = offered // 3
            c.sched_cur = 0
            del offers[:]
        waiting = self._waiting
        if waiting:
            # Sinks last seen not ready: only the endpoint's own work
            # can have made room since.
            ready, sinks, dirty = self._ready, self.sinks, self.dirty
            still = []
            for k in waiting:
                if sinks[k].ready():
                    ready[k] = 1
                    if dirty is not None:
                        # step_vc skips clean routers; the one feeding
                        # this sink has a request to raise again.
                        dirty[self._wake[k]] = 1
                else:
                    still.append(k)
            self._waiting = waiting = still
        stop = self.run_block(self.cref)
        while stop == _ckernel.STOP_CAPACITY:
            self._grow()
            stop = self.run_block(self.cref)
        if stop:
            raise self._trip(stop)
        if offered and self.st[_ckernel.ST_NPK] != self._next_pid:
            raise SimulationError(
                f"an entry queue refused an offer in cycle {self.cycle}: "
                f"an endpoint offers at most once a cycle, after "
                f"try_inject_from_memory saw room"
            )
        cycle = self.cycle
        count = self.nej[0]
        if count:
            # The ejected slots are free, but only their link changes
            # before the next block takes them again.
            ej, pk, sinks = self.ej, self.pk, self.sinks
            carriers, gated = self._carriers, self._gated
            width = _ckernel.PK_LEN
            dest_at, serial_at = _ckernel.PK_DEST, _ckernel.PK_SERIAL
            for k in range(count):
                at = ej[k] * width
                dest = pk[at + dest_at]
                sink = sinks[dest]
                sink.deliver(carriers.pop(pk[at + serial_at] & _LOW32), cycle)
                if gated[dest] and not sink.ready():
                    self._ready[dest] = 0
                    waiting.append(dest)
                    self.sink_stalls += 1
        self.cycle = cycle + 1


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _launch(run: ResolvedRun, label: str) -> Any:
    """Run one resolved record: the result, or the error as data.

    The phase driver runs it on a :class:`_Run`, or on the reference
    engine's stepper when it does not lower.  Who draws a compiled run's
    packets is decided here and nowhere else: the kernel when
    :func:`_injection_plan` has a plan, else the host.  The run reports
    ``label`` when the kernel draws and :func:`_injection_gate` finds
    nothing, else ``"compiled"``.
    """
    _problems, model = _resolve(run)
    if model is None:
        return _drive(run, _ReferenceStepper(run))
    plan = _injection_plan(run, model)
    if plan is None or _injection_gate(run):
        label = "compiled"
    return _drive(run, _Run(run, model, plan, label))


def run_compiled(
    config: Union[NetworkConfig, NetworkSpec],
    pattern: Optional[str] = None,
    rate: Optional[float] = None,
    **given: Any,
):
    """The compiled engine: ``run_synthetic`` semantics on flat arrays.

    Takes what :func:`~repro.sim.simulator.run_synthetic` takes (minus
    ``engine``) and resolves it the same way into the
    :class:`~repro.core.spec.ResolvedRun` record it executes.  The phase
    driver both engines share (:func:`~repro.sim.simulator._drive`)
    runs it on the native kernel, fault schedules included: permanent
    faults select a fault-aware route-table model, transient drops are
    drawn in the kernel, and a watchdog trip raises the reference's
    :class:`~repro.errors.DeadlockError`, snapshot and all.  The kernel
    draws the packets when it can and enqueues the host's draw otherwise
    (:func:`_launch` decides; results are bit-identical either way).  A
    run that does not lower (:func:`lowering_problems` says why) runs on
    the reference engine, and the result's ``engine`` says which ran.
    """
    return _compiled_engine(
        resolve_run(
            "run_compiled", config, pattern, rate, engine="compiled", **given
        )
    )


def run_compiled_batch(specs: Sequence[NetworkSpec], **trackers: Any):
    """Run many design points, one after another, on the compiled engine.

    Returns one entry per spec, **in order**: a
    :class:`~repro.sim.simulator.RunResult`, or the
    :class:`~repro.errors.SimulationError` that ended the run, kept as
    data that holds none of the run's state (watchdog trips and budget
    overruns are data in a sweep).  Each spec is resolved once
    (``trackers`` — ``track_per_source``, ``keep_samples``,
    ``track_links`` — apply to every spec), run on arrays of its own and
    released before the next starts, so a batch needs the memory of its
    largest run.

    A spec that does not select the compiled engine runs on the engine
    it names.  Every other spec is :func:`run_compiled`'s launch, with
    one difference in provenance: rows :func:`batching_problems` clears
    (in-kernel draw) report ``engine == "compiled-batch"``, the rest
    ``"compiled"`` or ``"reference"``.  Results are bit-identical to the
    reference engine's: same RNG streams, counters and error messages.
    """
    results: List[Any] = []
    for spec in specs:
        try:
            run = resolve_run("run_compiled_batch", spec, **trackers)
            if run.engine != "compiled":
                outcome = run.execute()
            else:
                outcome = _launch(run, "compiled-batch")
        except SimulationError as exc:
            outcome = exc
        results.append(outcome)
    return results
