"""The lowering: port graph + crossbar matrix + route tables -> arrays.

``fastsim._build_model`` wires the compiled engine from the resolved
parts of a design point and builds no reference ``Network``, so the
cross-engine suites compare two independent wirings.  These tests pin
the shape of that lowering: it constructs no network, its arrays are
the ones the parent commit extracted from the oracle (golden
fingerprints), its compile cache tells a plugin from the builtin whose
config it rides, and every fallback diagnostic that exists is produced
here, listed in ``docs/architecture.md``, and runs on reference with
reference-identical results.
"""

import dataclasses
import hashlib
import importlib.util
import re
import sys
from array import array
from pathlib import Path

import pytest

from repro.core import registry
from repro.core.coords import Coord, Coord3
from repro.core.portgraph import PortChannel, PortGraph
from repro.core.routing import (
    MeshDOR,
    TorusDOR,
    make_fault_aware_routing,
)
from repro.core.spec import NetworkSpec, build_run, resolve_run
from repro.core.topo3d import Mesh3dTopology
from repro.core.topology import Topology
from repro.errors import ConfigError, RoutingError
from repro.sim import fastsim
from repro.sim.allocator import WavefrontAllocator
from repro.sim.network import Network
from repro.sim.router import build_wormhole_router
from repro.verify.matrix import paper_spec_matrix

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module", autouse=True)
def express_mesh():
    """The out-of-tree example plugin, imported once by file path."""
    name = "plugin_topology_example"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, REPO_ROOT / "examples" / "plugin_topology.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.fixture(autouse=True)
def cold_compile_caches():
    fastsim.clear_compile_caches()
    yield
    fastsim.clear_compile_caches()


def fingerprint(result):
    """Every metric of a run, excluding provenance (``engine``)."""
    # (asdict deep-copies; per-source metrics are keyed by Coord.)
    fields = dataclasses.asdict(dataclasses.replace(result, metrics=None))
    fields.pop("metrics")
    fields.pop("engine")
    measured = result.metrics.measured
    return (
        fields,
        measured.count,
        measured.total,
        measured.total_sq,
        tuple(result.metrics.hop_counts),
        result.metrics.delivered_total,
        result.metrics.injected_total,
    )


@pytest.fixture()
def unpinned(monkeypatch):
    """Spec runs without the ``edge-memory`` provenance pin.

    The gate keeps edge-memory spec rows on ``"reference"`` until the
    benchmark that pins those labels is re-recorded; what is behind it
    lowers, and these tests hold the flip to a one-line deletion.
    """
    gates = fastsim._gate_diagnostics
    monkeypatch.setattr(
        fastsim,
        "_gate_diagnostics",
        lambda *args: [d for d in gates(*args) if d.code != "edge-memory"],
    )


def _run_spec(name, width, height, **fields):
    base = dict(rate=0.1, warmup=30, measure=80, drain_limit=300, seed=3)
    base.update(fields)
    return NetworkSpec.for_network(name, width, height, **base)


# ---------------------------------------------------------------------------
# No network is built
# ---------------------------------------------------------------------------
def test_lowering_builds_no_network(monkeypatch):
    def no_network(self, *args, **kwargs):
        raise AssertionError("lowering constructed a reference Network")

    monkeypatch.setattr(Network, "__init__", no_network)
    specs = [
        spec.replace(
            engine="compiled", warmup=20, measure=40, drain_limit=200
        )
        for spec in paper_spec_matrix(sizes=((8, 8),), include_3d=False)
    ]
    specs.append(
        _run_spec("torus3d", 4, 4, depth=4, engine="compiled")
    )
    specs.append(_run_spec("express-mesh", 16, 8, engine="compiled"))
    specs.append(
        _run_spec("mesh", 8, 8, fault_links=3, engine="compiled")
    )
    for spec in specs:
        assert fastsim.lowering_problems(spec) == [], spec.topology
    results = fastsim.run_compiled_batch(specs)
    for spec, result in zip(specs, results):
        assert not isinstance(result, Exception), (spec.topology, result)
        assert result.engine.startswith("compiled"), spec.topology


# ---------------------------------------------------------------------------
# Golden lowered tables
# ---------------------------------------------------------------------------
#: The order the golden hashes below read a model's tables in (and the
#: complete key set of ``model.tables``): the wiring, per router kind,
#: then the route tables, per form — axis tables for the builtin
#: dimension-ordered routings on their grid, flat rows for the
#: fault-aware BFS tables and the generic walk.  A two-subnet model
#: adds the parity vectors ``spar`` and ``par``.
_WIRING_LABELS = {
    "vc": ("plist", "pofs", "pcnt", "dn", "feed", "sd"),
    "wormhole": ("dn", "ncv", "cands", "pm", "needs"),
}
_WIRING_LABELS["fbfc"] = _WIRING_LABELS["wormhole"]
_AXIS_LABELS = ("nax", "dkey", "rkey", "cls", "axtab", "sublen")
_FLAT_LABELS = ("rowof", "rows", "rowlen")


def table_fingerprint(model):
    """sha256 over ``in_ports`` and every table array (and, where there
    are endpoints, their entry and sink wiring).

    A flat-rows model hashes exactly what it did before the axis form
    existed — the per-pair subnet table first (expanded from the parity
    vectors; ``None`` for one subnet), ``sublen`` checked, not hashed —
    so its goldens are the ones recorded then.
    """
    digest = hashlib.sha256()
    digest.update(repr([list(p) for p in model.in_ports]).encode())
    tables = dict(model.tables)
    spar, par = tables.pop("spar", None), tables.pop("par", None)
    if "axtab" in tables:
        labels = _WIRING_LABELS[model.kind] + _AXIS_LABELS
        parts = [("spar", spar), ("par", par)]
    else:
        labels = _WIRING_LABELS[model.kind] + _FLAT_LABELS
        assert tables.pop("sublen") == model.nd
        parts = [("subnet_tab", spar and array(
            "i", (s ^ d for s in spar for d in par)
        ))]
    assert sorted(tables) == sorted(labels)
    parts += [(name, tables[name]) for name in labels]
    if model.endpoints:
        parts += [("entry", model.entry), ("sink_of", model.sink_of)]
    for name, value in parts:
        digest.update(f"|{name}|".encode())
        digest.update(
            value.tobytes()
            if isinstance(value, array)
            else repr(value).encode()
        )
    return digest.hexdigest()


#: Content addresses of the lowered tables.  They pin candidate order,
#: position maps, FBFC entry needs, VC feeders, masked ports and the
#: route tables across every router family.  The three flat-rows
#: entries (``express-mesh`` and the two faulted points) are the ones
#: recorded at the last commit that *extracted* the tables from a
#: reference ``Network`` (PR 13).  The sixteen axis-form entries —
#: three routed Y-X (what a manycore ``rev`` network lowers), two with
#: ``edge_memory`` (a manycore ``fwd`` and a ``rev`` network as
#: :class:`~repro.sim.fastsim.CompiledFabric` steps them: endpoint
#: coordinates, sink outputs, entry queues), two 3-D — were recorded at
#: PR 24, when the route tables changed form, after a script on that
#: commit and its parent expanded the axis tables back to the flat
#: arrays these entries pinned before (PR 13 / 14 / 19) and found them
#: byte-equal, wiring included, on 84 design points — the 3-D ones,
#: which pinned the generic walk's rows, equal on every state the walk
#: tabled (``CHANGES.md``).
GOLDEN_TABLES = {
    ("mesh", 8, 8, ()): (
        "ef5bc7fd58d22e3b3d944d6e2f6ad646"
        "919c7f98d74fba675910bc6d239f881a"
    ),
    ("torus-fbfc", 8, 8, ()): (
        "1314aea45d9817b18d6e881f849c8e3e"
        "fe964294fb4d62860f059f6476ef4ed8"
    ),
    ("half-torus-fbfc", 16, 8, ()): (
        "e0522ccd44fdb17f8c06e8e28dff5630"
        "2aee91e78d559820313c40f14f05a793"
    ),
    ("torus", 8, 8, ()): (
        "eb6a8ac921cb2265edc0a860c7905aa5"
        "2b064d693da8aad03b1eaefbac7ea192"
    ),
    ("half-torus", 16, 8, ()): (
        "fcf7b72b9ea312d83a271a2a96ea0c12"
        "1da95a51b328fdc5b5ca857b4d6d6c7f"
    ),
    ("multimesh", 8, 8, ()): (
        "b25a664aa2b7c7d42634ce168a4f6950"
        "57f22f36136fa99eb7a1533ea8790051"
    ),
    ("ruche1", 8, 8, ()): (
        "a136b30efc6f68942989430e77aa1578"
        "721ad8d08db768f089fcf6ff8d99209a"
    ),
    ("ruche2-depop", 8, 8, ()): (
        "b047bec4190ae4411bb46440637df234"
        "c0c35bb62ecf08aa9ec1f9ddd7ea7979"
    ),
    ("ruche3-pop", 16, 8, (("half", True),)): (
        "dfb1cecf0e6e7fcd596736c4609e0437"
        "18d4b83cd85393c87eaae0235a4d3061"
    ),
    ("torus3d", 4, 4, (("depth", 4),)): (
        "cb53a80676b28d14bfa07d49411044ac"
        "165745d75ef09f4a44873d99f937286e"
    ),
    ("mesh3d", 8, 8, (("depth", 2),)): (
        "155da7aaf34b7058394ad40b0ea58bd7"
        "98d8aaf151bf5deb059be5fa0db2b6cf"
    ),
    ("express-mesh", 16, 8, ()): (
        "73c478616ab2b372dabb90c97ed4b276"
        "bd3f3664a515dbb4f623a5e70b9ee31d"
    ),
    ("mesh", 12, 12, (("fault_links", 6), ("fault_seed", 4))): (
        "aa67ef1d875a813b564ced6493b18d2f"
        "060b9c6a9a9f756b8a46e8e81eb0bdc4"
    ),
    (
        "ruche2-depop", 8, 8,
        (("fault_links", 4), ("fault_routers", 2), ("fault_seed", 5)),
    ): (
        "cd77050b3b491e21c45db90da8ee3217"
        "e4461930b596676bd7a41b19c99db07a"
    ),
    ("mesh", 8, 8, (("dor_order", "yx"),)): (
        "fdc051031b64d26f915e75612803c60e"
        "0dc9052778d40ae47b706167637c2246"
    ),
    ("ruche2-depop", 16, 8, (("dor_order", "yx"), ("half", True))): (
        "6f4fba70262dc3746a8bdd3db8b5d7a5"
        "ac4f87e1628ae5ef4b2cbe20cb744559"
    ),
    ("half-torus", 16, 8, (("dor_order", "yx"),)): (
        "c8cb8be90f1bde401972b13853789c31"
        "791b6a069a9f76d01ab75a656298ff39"
    ),
    ("mesh", 8, 4, (("edge_memory", True),)): (
        "15261e474b6e264778053d94d3a1e776"
        "cd193cdafeec1c371674f29be769d04a"
    ),
    ("half-torus", 8, 4, (("dor_order", "yx"), ("edge_memory", True))): (
        "c3ca7818dfb94e36dba5020237f1fe92"
        "5175900f6a312fe7a4c6c327c2b1438f"
    ),
}


@pytest.mark.parametrize(
    "key",
    sorted(GOLDEN_TABLES),
    ids=lambda k: f"{k[0]}-{k[1]}x{k[2]}" + ("-opts" if k[3] else ""),
)
def test_golden_lowered_tables(key, unpinned):
    name, width, height, fields = key
    spec = NetworkSpec.for_network(name, width, height, **dict(fields))
    problems, model = fastsim._resolve(resolve_run("lowering_problems", spec))
    assert problems == []
    assert table_fingerprint(model) == GOLDEN_TABLES[key]


# ---------------------------------------------------------------------------
# Route tables the size of the axes, not the square of the array
# ---------------------------------------------------------------------------
_ROUTE_TABLES = (
    "dkey", "rkey", "cls", "axtab", "spar", "par", "rowof", "rows",
)


def _table_bytes(model, names=None):
    """Bytes of a model's static tables: a property of the lowering,
    read off the arrays — not an RSS reading."""
    return sum(
        len(value) * value.itemsize
        for name, value in model.tables.items()
        if isinstance(value, array) and (names is None or name in names)
    )


@pytest.mark.parametrize("name", ["mesh", "torus"])
def test_route_tables_scale_with_the_axes(name):
    """The ``tail`` experiment's full-scale points: one entry per
    ``(node, dest)`` pair is 67.1 MB (mesh) and 201.3 MB (torus, three
    planes) of route tables at 64x64; two 64x64x2 axis tables and the
    per-id keys are a few hundred KB.  What is left is the wiring, a
    fixed number of bytes per router port."""
    spec = NetworkSpec.for_network(name, 64, 64)
    model = fastsim._compile(spec, spec.config())
    assert _table_bytes(model, _ROUTE_TABLES) < 1 << 20
    # Per port: dn (4 B), and on the wormhole / FBFC routers ncv (4 B)
    # and a candidate list, a needs list and a position-map row of 9
    # entries each (108 B); the route tables add under a byte at 64x64.
    assert _table_bytes(model) <= 128 * model.n * model.nports


def test_a_128x128_mesh_lowers_and_routes():
    """16 384 routers: 1 GB of per-pair route rows, or 0.46 MB of axis
    tables.  Sixteen packets between far corners and near neighbours
    arrive, each after exactly its Manhattan distance in channels."""
    from repro.sim.router import Sink

    if fastsim._native_kernel() is None:
        pytest.skip("no native kernel: nothing lowers on this host")
    config = NetworkSpec.for_network("mesh", 128, 128).config()
    # Judged as the bare config the fabric below compiles, so the one
    # lowering serves both.
    assert fastsim.lowering_problems(
        config, pattern="uniform_random", rate=0.01, engine="compiled"
    ) == []
    model = fastsim._compile(config, config)
    assert _table_bytes(model, _ROUTE_TABLES) < 1 << 20
    arrived = []

    class Log(Sink):
        def deliver(self, packet, cycle):
            arrived.append((packet.src, packet.dest))

    fabric = fastsim.CompiledFabric(config, lambda coord: Log(), None)
    corners = [Coord(0, 0), Coord(127, 0), Coord(0, 127), Coord(127, 127)]
    pairs = [(a, b) for a in corners for b in corners if a != b]
    pairs += [
        (Coord(64, 64), Coord(65, 64)), (Coord(64, 64), Coord(64, 63)),
        (Coord(3, 120), Coord(100, 7)), (Coord(90, 1), Coord(2, 99)),
    ]
    assert len(pairs) == 16
    for src, dest in pairs:
        assert fabric.hop_count(src, dest) == src.manhattan(dest)
        fabric.inject(src, dest)
    fabric.step()  # the offers enter with the next cycle's block
    while fabric.occupancy:
        fabric.step()
    assert sorted(arrived) == sorted(pairs)
    assert sum(fabric.hop_counts) == sum(a.manhattan(b) for a, b in pairs)
    assert fabric.cycle <= 2 * 127 + 16


# ---------------------------------------------------------------------------
# The compile cache tells a plugin from the builtin config it rides
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("plugin_first", [False, True])
def test_compile_cache_keeps_plugin_and_builtin_apart(plugin_first):
    """express-mesh 16x8 builds the same ``NetworkConfig`` as the
    builtin Half ``ruche4-depop``; their wirings differ."""
    window = dict(rate=0.10, seed=3, warmup=100, measure=300,
                  drain_limit=1000)
    specs = [
        NetworkSpec.for_network("ruche4-depop", 16, 8, half=True, **window),
        NetworkSpec.for_network("express-mesh", 16, 8, **window),
    ]
    assert specs[0].config() == specs[1].config()
    if plugin_first:
        specs.reverse()
    reference = [
        fingerprint(build_run(spec.replace(engine="reference")))
        for spec in specs
    ]
    assert reference[0] != reference[1]
    compiled = [build_run(spec.replace(engine="compiled")) for spec in specs]
    assert [r.engine for r in compiled] == ["compiled", "compiled"]
    assert [fingerprint(r) for r in compiled] == reference


# ---------------------------------------------------------------------------
# Every compile-stage diagnostic: produced, on reference, identical
# ---------------------------------------------------------------------------
class _SubclassedTorusDOR(TorusDOR):
    """Not the exact builtin type, so no closed form applies."""


class _RaisingMeshDOR(MeshDOR):
    """Cannot route toward tile (0, 0) — which transpose never targets."""

    def route(self, node, in_dir, dest, subnet=0):
        if dest == Coord(0, 0) and node != dest:
            raise RoutingError("no route toward (0, 0)")
        return super().route(node, in_dir, dest, subnet)


class _SubclassedWavefront(WavefrontAllocator):
    """Behaves as the builtin; is not the builtin."""


def _wrapped_wormhole_router(**kwargs):
    return build_wormhole_router(**kwargs)


class _GraphEmitter(Topology):
    """A mesh whose *emitted graph* differs from its channel list.

    Both engines wire from the port graph, so each variant is what the
    reference runs and what the lowering reads (or refuses).
    """

    def _emit(self, graph, channels, nodes=None):
        return PortGraph(
            nodes=graph.nodes if nodes is None else nodes,
            num_ports=graph.num_ports,
            ejection_port=graph.ejection_port,
            port_names=graph.port_names,
            channels=tuple(channels),
        )


class _PipelinedGraph(_GraphEmitter):
    def port_graph(self):
        graph = super().port_graph()
        return self._emit(
            graph, (ch._replace(latency=2) for ch in graph.channels)
        )


class _TwiceFedStubGraph(_GraphEmitter):
    """One endpoint stub fed by the N outputs of two edge routers."""

    def port_graph(self):
        graph = super().port_graph()
        stubs = [
            PortChannel(
                src=Coord(x, 0), out_port=3, dst=Coord(0, -1), in_port=4,
                latency=1, width=graph.channels[0].width,
            )
            for x in (0, 1)
        ]
        return self._emit(graph, [*graph.channels, *stubs])


class _StubEndpointGraph(_GraphEmitter):
    def port_graph(self):
        graph = super().port_graph()
        stub = PortChannel(
            src=Coord(0, 0), out_port=3, dst=Coord(0, -1), in_port=4,
            latency=1, width=graph.channels[0].width,
        )
        return self._emit(graph, [*graph.channels, stub])


class _OneWayGraph(_GraphEmitter):
    """The mesh without the (1, 0) -> W channel: (0, 0)'s E channel
    arrives on a port where (1, 0) has no input FIFO."""

    def port_graph(self):
        graph = super().port_graph()
        return self._emit(graph, (
            ch for ch in graph.channels
            if (ch.src, ch.out_port) != (Coord(1, 0), 1)
        ))


class _SlowStubGraph(_GraphEmitter):
    """An endpoint stub whose channel in has latency 2."""

    def port_graph(self):
        graph = super().port_graph()
        stub = PortChannel(
            src=Coord(0, 0), out_port=3, dst=Coord(0, -1), in_port=4,
            latency=2, width=graph.channels[0].width,
        )
        return self._emit(graph, [*graph.channels, stub])


class _TwoOutStubGraph(_GraphEmitter):
    """Endpoint (0, -1) with channels out into (0, 0) and (1, 0)."""

    def port_graph(self):
        graph = super().port_graph()
        width = graph.channels[0].width

        def channel(src, out_port, dst, in_port):
            return PortChannel(src, out_port, dst, in_port, 1, width)

        stubs = [
            channel(Coord(0, 0), 3, Coord(0, -1), 4),
            channel(Coord(1, 0), 3, Coord(1, -1), 4),
            channel(Coord(0, -1), 4, Coord(0, 0), 3),
            channel(Coord(0, -1), 2, Coord(1, 0), 3),
        ]
        return self._emit(graph, [*graph.channels, *stubs])


class _StubToStubGraph(_GraphEmitter):
    """Endpoint (0, -1)'s one channel out enters endpoint (1, -1)."""

    def port_graph(self):
        graph = super().port_graph()
        stub = PortChannel(
            src=Coord(0, -1), out_port=2, dst=Coord(1, -1), in_port=1,
            latency=1, width=graph.channels[0].width,
        )
        return self._emit(graph, [*graph.channels, stub])


class _ReversedNodesGraph(_GraphEmitter):
    """The mesh's graph with its node list reversed: the topology keeps
    its row-major ``nodes``, and only the graph says otherwise."""

    def port_graph(self):
        graph = super().port_graph()
        return self._emit(
            graph, graph.channels, nodes=tuple(reversed(graph.nodes))
        )


class _ColumnMajorMesh(Topology):
    """A mesh whose tiles are enumerated column by column."""

    def _build_nodes(self):
        return (
            Coord(x, y)
            for x in range(self.width)
            for y in range(self.height)
        )


class _LayerMinorMesh3d(Mesh3dTopology):
    """A 3-D mesh whose tiles are enumerated z innermost."""

    def _build_nodes(self):
        return (
            Coord3(x, y, z)
            for y in range(self.height)
            for x in range(self.width)
            for z in range(self.config.depth)
        )


def _mesh_config(name, width, height, **options):
    kind = "mesh3d" if "depth" in options else "mesh"
    return NetworkSpec.for_network(kind, width, height, **options).config()


@pytest.fixture()
def test_components():
    """Test-local registrations, removed again afterwards."""
    registry.register_routing(
        "test-torus-dor", description="TorusDOR subclass (test)"
    )(_SubclassedTorusDOR)
    registry.register_routing(
        "test-raising-dor", description="MeshDOR that raises (test)"
    )(_RaisingMeshDOR)
    registry.register_routing(
        "test-fault-aware", description="healthy BFS tables (test)"
    )(make_fault_aware_routing)
    registry.register_allocator(
        "test-wavefront", description="WavefrontAllocator subclass (test)"
    )(_SubclassedWavefront)
    registry.register_router(
        "test-wormhole", description="wrapped wormhole builder (test)"
    )(_wrapped_wormhole_router)
    graphs = {
        "test-pipelined-graph": _PipelinedGraph,
        "test-twice-fed-graph": _TwiceFedStubGraph,
        "test-stub-graph": _StubEndpointGraph,
        "test-one-way-graph": _OneWayGraph,
        "test-slow-stub-graph": _SlowStubGraph,
        "test-two-out-stub-graph": _TwoOutStubGraph,
        "test-stub-to-stub-graph": _StubToStubGraph,
        "test-reversed-nodes-graph": _ReversedNodesGraph,
        "test-column-major": _ColumnMajorMesh,
        "test-layer-minor": _LayerMinorMesh3d,
    }
    for name, topology in graphs.items():
        registry.register_topology(
            name, description=f"{topology.__name__} (test)",
            topology=topology,
        )(_mesh_config)
    yield
    for name in ("test-torus-dor", "test-raising-dor", "test-fault-aware"):
        registry.ROUTINGS.unregister(name)
    registry.ALLOCATORS.unregister("test-wavefront")
    registry.ROUTERS.unregister("test-wormhole")
    for name in graphs:
        registry.TOPOLOGIES.unregister(name)


#: code -> the spec that produces it at the compile stage.
COMPILE_STAGE_SPECS = {
    "unsupported-router": _run_spec("mesh", 6, 6, router="test-wormhole"),
    "unsupported-allocator": _run_spec(
        "torus", 6, 6, allocator="test-wavefront"
    ),
    "unsupported-routing": _run_spec(
        "torus", 6, 6, routing="test-torus-dor"
    ),
    "route-tabulation": _run_spec(
        "mesh", 6, 6, routing="test-raising-dor", pattern="transpose"
    ),
    "fault-aware-routing": _run_spec(
        "mesh", 6, 6, routing="test-fault-aware"
    ),
    "pipelined-channels": _run_spec("test-pipelined-graph", 6, 6),
    "injection-wiring": _run_spec("test-twice-fed-graph", 6, 6),
}


@pytest.mark.parametrize("code", sorted(COMPILE_STAGE_SPECS))
def test_compile_stage_diagnostic(code, test_components):
    spec = COMPILE_STAGE_SPECS[code].replace(engine="compiled")
    assert [d.code for d in fastsim.lowering_problems(spec)] == [code]
    compiled = build_run(spec)
    assert compiled.engine == "reference"
    reference = build_run(spec.replace(engine="reference"))
    assert fingerprint(compiled) == fingerprint(reference)
    # The verdict is cached, and the cached verdict is the same one.
    assert [d.code for d in fastsim.lowering_problems(spec)] == [code]


def test_the_reference_runs_the_graphs_channel_latency(test_components):
    """The reference engine wires from the port graph, so the latency-2
    channels the graph declares are pipelined links there: a zero-load
    run is slower than on the plain mesh.  (The lowering still refuses
    them, and a compiled request equals the reference run: the
    ``pipelined-channels`` case of ``test_compile_stage_diagnostic``.)"""
    load = dict(rate=0.02, warmup=100, measure=400, drain_limit=600)
    piped = build_run(_run_spec("test-pipelined-graph", 6, 6, **load))
    plain = build_run(_run_spec("mesh", 6, 6, **load))
    assert piped.avg_latency > plain.avg_latency + 2


#: graph -> what its ConfigError says: the wiring rules both engines
#: read from ``core.portgraph.live_wiring``.
BAD_WIRING = {
    "test-one-way-graph": "(1, 0) arrives on port W, where the router "
                          "has no input FIFO",
    "test-slow-stub-graph": "has latency 2",
    "test-two-out-stub-graph": "needs exactly one channel out",
    "test-stub-to-stub-graph": "channel out, into a router",
}


@pytest.mark.parametrize("name", sorted(BAD_WIRING))
def test_both_engines_reject_bad_wiring_alike(name, test_components):
    messages = []
    for engine in ("reference", "compiled"):
        with pytest.raises(ConfigError) as info:
            build_run(_run_spec(name, 4, 4, engine=engine))
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert BAD_WIRING[name] in messages[0]


# ---------------------------------------------------------------------------
# Endpoint-only nodes lower: sink outputs, entry queues, route columns
# ---------------------------------------------------------------------------
def test_an_endpoint_stub_lowers(test_components):
    """A channel into a node that is no router is a sink output and one
    more route column, not a fallback (until PR 19: ``edge-memory`` at
    the compile stage)."""
    spec = _run_spec("test-stub-graph", 6, 6, engine="compiled")
    assert fastsim.lowering_problems(spec) == []
    compiled = build_run(spec)
    assert compiled.engine == "compiled"
    reference = build_run(spec.replace(engine="reference"))
    assert fingerprint(compiled) == fingerprint(reference)
    model = fastsim._resolve(resolve_run("lowering_problems", spec))[1]
    assert model.endpoints == (Coord(0, -1),)
    assert (model.n, model.nd) == (36, 37)
    assert list(model.sink_of) == [3] and list(model.entry) == [-1]


def _trackers(result):
    metrics = result.metrics
    return (
        list(metrics.measured._samples),
        {
            tuple(src): (stats.count, stats.total, stats.total_sq)
            for src, stats in metrics.per_source.items()
        },
        {(tuple(node), out): n for (node, out), n in
         metrics.link_counts.items()},
    )


@pytest.mark.parametrize("rate", [0.05, 0.12])
@pytest.mark.parametrize("name", ["mesh", "half-torus", "ruche2-depop"])
def test_fig9_tile_to_memory_runs_compiled_behind_the_pin(
    name, rate, unpinned
):
    """fig9's ``tile_to_memory`` rows (below and above the 4:1
    compute-to-memory bound): every tile a source, every memory
    endpoint a sink, per-packet, per-source and per-link data kept."""
    spec = NetworkSpec.for_network(
        name, 16, 8, half=name.startswith("ruche"), edge_memory=True,
        pattern="tile_to_memory", rate=rate, warmup=100, measure=200,
        drain_limit=600, seed=2,
    )
    trackers = dict(
        keep_samples=True, track_per_source=True, track_links=True
    )
    assert fastsim.lowering_problems(spec) == []
    compiled = build_run(spec.replace(engine="compiled"), **trackers)
    assert compiled.engine == "compiled"
    reference = build_run(spec.replace(engine="reference"), **trackers)
    assert fingerprint(compiled) == fingerprint(reference)
    assert _trackers(compiled) == _trackers(reference)
    assert compiled.metrics.delivered_total > 0
    # Memory-bound traffic leaves on the edge routers' N / S channels.
    assert any(
        node[1] in (0, 7) and out in (3, 4)
        for node, out in _trackers(compiled)[2]
    )


def test_the_pin_keeps_edge_memory_spec_rows_on_reference():
    spec = NetworkSpec.for_network(
        "mesh", 8, 4, edge_memory=True, pattern="tile_to_memory",
        engine="compiled",
    )
    assert [d.code for d in fastsim.lowering_problems(spec)] == [
        "edge-memory"
    ]


def test_endpoints_lower_through_the_generic_walk_too(
    test_components, unpinned
):
    """Off the row-major grid the rows come from the IR walk: endpoint
    destinations are tabulated like tiles, and the walk is seeded at
    the entry queues (no router feeds a north edge's N input)."""
    spec = _run_spec(
        "test-column-major", 6, 4, edge_memory=True,
        pattern="tile_to_memory", engine="compiled",
    )
    assert fastsim.lowering_problems(spec) == []
    compiled = build_run(spec)
    assert compiled.engine == "compiled"
    reference = build_run(spec.replace(engine="reference"))
    assert fingerprint(compiled) == fingerprint(reference)
    model = fastsim._resolve(resolve_run("lowering_problems", spec))[1]
    tables = model.tables
    rows, rowof, rowlen = tables["rows"], tables["rowof"], tables["rowlen"]
    for e, port in enumerate(model.entry):
        row = rowof[port] * rowlen
        # An arrival from memory routes on: some destination is tabled.
        assert any(rows[row + d] >= 0 for d in range(model.nd)), e


def _walked_spec(monkeypatch, topology, **options):
    """A spec on a permuted grid: it must compile, through the generic
    IR walk into flat rows (no axis tables), and equal the reference."""
    monkeypatch.setattr(
        fastsim,
        "_axis_tables",
        lambda *args: pytest.fail("axis tables for a permuted grid"),
    )
    spec = _run_spec(topology, 6, 4, engine="compiled", **options)
    assert fastsim.lowering_problems(spec) == []
    compiled = build_run(spec)
    assert compiled.engine == "compiled"
    reference = build_run(spec.replace(engine="reference"))
    assert fingerprint(compiled) == fingerprint(reference)
    model = fastsim._resolve(resolve_run("lowering_problems", spec))[1]
    assert "rows" in model.tables and "axtab" not in model.tables
    return spec


def test_exact_routing_off_the_row_major_grid_takes_the_walk(
    test_components, monkeypatch
):
    """The axis tables are for the row-major tile grid the builtin
    topologies emit; an exact ``MeshDOR`` over any other node order
    still compiles, through the generic IR walk, and still equals the
    reference."""
    spec = _walked_spec(monkeypatch, "test-column-major")
    vc = spec.replace(router="vc", routing="torus-dor")
    assert [d.code for d in fastsim.lowering_problems(vc)] == [
        "unsupported-routing"
    ]


def test_exact_3d_routing_off_the_layer_major_grid_takes_the_walk(
    test_components, monkeypatch
):
    """The 3-D twin: ``Mesh3dDOR`` over a z-innermost node order."""
    _walked_spec(monkeypatch, "test-layer-minor", depth=3)


@pytest.mark.parametrize("plugin_first", [False, True])
def test_injection_plans_keep_node_orders_apart(
    test_components, plugin_first
):
    """The column-major mesh rides the builtin mesh's ``NetworkConfig``
    in another node order, and an injection plan holds node indices:
    neither may run on the other's cached plan."""
    specs = [
        _run_spec("mesh", 6, 4, engine="compiled"),
        _run_spec("test-column-major", 6, 4, engine="compiled"),
    ]
    assert specs[0].config() == specs[1].config()
    if plugin_first:
        specs.reverse()
    fastsim.clear_compile_caches()
    for spec, got in zip(specs, fastsim.run_compiled_batch(specs)):
        assert got.engine == "compiled-batch"
        reference = build_run(spec.replace(engine="reference"))
        assert fingerprint(got) == fingerprint(reference)


def test_every_draw_visits_sources_in_the_graphs_node_order(
    test_components, monkeypatch
):
    """The open-loop draw walks the run's port-graph nodes, whoever
    draws: the reference's injection rounds, the kernel's in-kernel
    draw — fault-free, and under a fault schedule (transient drops: a
    plugin topology does not reroute) — and the host-drawn schedule
    (forced here by leaving the pattern without a kernel plan) give one
    result on a graph whose node order is not its topology's."""
    spec = _run_spec(
        "test-reversed-nodes-graph", 6, 6, rate=0.2, engine="compiled",
    )
    faulted = spec.replace(
        fault_transient=2, fault_drop_prob=0.05, fault_seed=1
    )
    assert [d.code for d in fastsim.batching_problems(faulted)] == [
        "fault-schedule"
    ]
    want = {
        run: fingerprint(build_run(run.replace(engine="reference")))
        for run in (spec, faulted)
    }
    with monkeypatch.context() as patch:
        patch.setattr(
            fastsim,
            "_open_loop_draw",
            lambda *args: pytest.fail("the host drew"),
        )
        in_kernel, in_kernel_faulted = fastsim.run_compiled_batch(
            [spec, faulted]
        )
    assert in_kernel.engine == "compiled-batch"
    assert in_kernel_faulted.engine == "compiled"
    monkeypatch.setattr(fastsim, "_pattern_plan", lambda *args: None)
    host = build_run(spec)
    assert host.engine == "compiled"
    assert fingerprint(in_kernel) == want[spec]
    assert fingerprint(in_kernel_faulted) == want[faulted]
    assert fingerprint(host) == want[spec]


def test_trace_schedule_is_in_the_models_node_order(
    test_components, tmp_path
):
    """A trace file is ``(cycle, row-major source)``-sorted; the kernel's
    injection schedule must be in the *model's* source order, or packet
    ids — which a watchdog snapshot names — differ from the oracle's."""
    from repro.errors import DeadlockError
    from repro.sim.trace import Trace

    rows = [(cycle, src, (src + 5) % 24) for cycle in range(3)
            for src in range(24)]
    path = Trace(
        topology="mesh", width=6, height=4, duration=3,
        cycles=array("i", (r[0] for r in rows)),
        srcs=array("i", (r[1] for r in rows)),
        dests=array("i", (r[2] for r in rows)),
        sizes=array("i", [1] * len(rows)),
    ).write(str(tmp_path / "dense.noctrace"))
    doomed = _run_spec(
        "test-column-major", 6, 4, pattern=f"trace_replay:{path}",
        rate=1.0, warmup=0, measure=3, starvation_window=1,
        engine="compiled",
    )
    assert fastsim.batching_problems(doomed) == []
    with pytest.raises(DeadlockError) as reference:
        build_run(doomed.replace(engine="reference"))
    with pytest.raises(DeadlockError) as compiled:
        build_run(doomed)
    assert compiled.value.snapshot == reference.value.snapshot
    heads = [
        head.pid
        for router in compiled.value.snapshot.stalled_routers
        for head in router.heads
    ]
    assert len(set(heads)) > 1


def test_route_tabulation_rejects_vc_state(test_components):
    """A VC-emitting routing under a wormhole router has no lowering."""
    spec = _run_spec(
        "torus", 6, 6, routing="test-torus-dor", router="wormhole",
        rate=0.02, engine="compiled",
    )
    (problem,) = fastsim.lowering_problems(spec)
    assert problem.code == "route-tabulation"
    assert "VC state" in problem.detail


def test_vc_router_on_a_nine_port_topology_is_left_to_the_oracle():
    """The five-port VC router cannot hold Ruche ports; the reference
    builder is the one that says so."""
    spec = _run_spec(
        "ruche2-depop", 8, 8, router="vc", routing="torus-dor",
        engine="compiled",
    )
    (problem,) = fastsim.lowering_problems(spec)
    assert problem.code == "unsupported-router"
    with pytest.raises(IndexError):
        build_run(spec)


def test_oracle_errors_reach_the_caller_unchanged():
    """Conflicts the reference builders reject are theirs to report."""
    messages = {}
    for engine in ("reference", "compiled"):
        spec = _run_spec("mesh", 6, 6, allocator="wavefront", engine=engine)
        with pytest.raises(ConfigError) as excinfo:
            build_run(spec)
        messages[engine] = str(excinfo.value)
    assert messages["compiled"] == messages["reference"]
    for field, menu in (
        ("routing", "routing algorithm"),
        ("router", "router kind"),
        ("allocator", "allocator"),
    ):
        spec = _run_spec("torus", 6, 6, engine="compiled", **{field: "nope"})
        with pytest.raises(ConfigError, match=menu):
            build_run(spec)
    faulted_plugin = _run_spec(
        "express-mesh", 16, 8, fault_links=2, engine="compiled"
    )
    with pytest.raises(ConfigError, match="plugin topologies"):
        build_run(faulted_plugin)


# ---------------------------------------------------------------------------
# docs/architecture.md lists exactly the codes the engine can emit
# ---------------------------------------------------------------------------
def test_fallback_table_matches_the_code():
    source = (REPO_ROOT / "src/repro/sim/fastsim.py").read_text()
    emitted = set(
        re.findall(
            r'(?:LoweringDiagnostic|_Unsupported)\(\s*"([a-z-]+)"', source
        )
    )
    doc = (REPO_ROOT / "docs/architecture.md").read_text()
    section = doc.split("### Engine-fallback diagnostics", 1)[1]
    section = section.split("\n## ", 1)[0].split("\n### ", 1)[0]
    documented = set(re.findall(r"^\| `([a-z-]+)` \|", section, re.M))
    assert documented == emitted
    # Every compile-stage code has a producing test above; the gate
    # codes are produced in test_fastsim.py / test_fastsim_batch.py.
    # ``edge-memory`` is a gate only: a provenance pin on spec runs.
    gate_codes = {
        "no-native-kernel", "audit-every", "edge-memory",
        "pipelined-channels", "vc-fbfc-rerouting",
        "engine-not-compiled", "trace-rate", "fault-schedule",
        "pattern-not-batchable",
    }
    assert emitted == gate_codes | set(COMPILE_STAGE_SPECS)
