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
from repro.core.coords import Coord
from repro.core.portgraph import PortChannel, PortGraph
from repro.core.routing import (
    MeshDOR,
    TorusDOR,
    make_fault_aware_routing,
)
from repro.core.spec import NetworkSpec, build_run, resolve_run
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
#: complete key set of ``model.tables``), per router kind.
_TABLE_LABELS = {
    "vc": (
        "plist", "pofs", "pcnt", "dn", "feed", "out", "vcn", "dl", "sd",
    ),
    "wormhole": (
        "dn", "ncv", "cands", "pm", "needs", "rowof", "rows", "rowlen",
    ),
}
_TABLE_LABELS["fbfc"] = _TABLE_LABELS["wormhole"]


def table_fingerprint(model):
    """sha256 over ``in_ports``, ``subnet_tab`` and every table array
    (and, where there are endpoints, their entry and sink wiring)."""
    digest = hashlib.sha256()
    digest.update(repr([list(p) for p in model.in_ports]).encode())
    labels = _TABLE_LABELS[model.kind]
    assert sorted(model.tables) == sorted(labels)
    parts = [("subnet_tab", model.subnet_tab)]
    parts += [(name, model.tables[name]) for name in labels]
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


#: Content addresses of the lowered tables, recorded at the last commit
#: that *extracted* them from a reference ``Network`` (PR 13).  They pin
#: candidate order, position maps, FBFC entry needs, VC feeders, masked
#: ports and route-row packing across every router family.  The three
#: ``dor_order="yx"`` entries (what a manycore ``rev`` network lowers,
#: less its endpoints) were recorded at PR 14, the last commit whose
#: tabulators called the routing once per ``(node, dest)`` pair.  The
#: two ``edge_memory`` entries (a manycore ``fwd`` and a ``rev``
#: network as :class:`~repro.sim.fastsim.CompiledFabric` steps them:
#: endpoint columns, sink outputs, entry queues) were recorded at
#: PR 19, when endpoints first lowered, against the reference machine
#: they reproduce bit for bit.
GOLDEN_TABLES = {
    ("mesh", 8, 8, ()): (
        "9016c9911a854324d27050ef2dad2e5e"
        "5e823aaafe6ef2d08fbc1dcd9e4e9fbf"
    ),
    ("torus-fbfc", 8, 8, ()): (
        "fa76f9e102bc3f90318420f1efdc9936"
        "7a87933f2cbbd10630f0b45964859a52"
    ),
    ("half-torus-fbfc", 16, 8, ()): (
        "c5d284ebabd6a46f60565a31d899871b"
        "79e55b65f388076892f0a733a0df357e"
    ),
    ("torus", 8, 8, ()): (
        "701f479c602a27d031487dbd4c6cf6b5"
        "75dc5a781f5fc7c10c763c0c0562b722"
    ),
    ("half-torus", 16, 8, ()): (
        "9f6a109ef0ea99a13855868207cad745"
        "a769916ec0245a3906218c40b4f02a89"
    ),
    ("multimesh", 8, 8, ()): (
        "40a8ba57819603c2ae0a014745577ca2"
        "d3aa0785d07ebec50e4748cc820a7929"
    ),
    ("ruche1", 8, 8, ()): (
        "8a04bf642f8a01752bdc0b81428b22c2"
        "c215073b8bd39718575e18aeb75acf32"
    ),
    ("ruche2-depop", 8, 8, ()): (
        "cf15a8aacb86ecdbcf45e1d5b948fc2b"
        "0a2ded13a970ac0bc4fe22f1adc376c3"
    ),
    ("ruche3-pop", 16, 8, (("half", True),)): (
        "d69487916fa2df13ee554cb493ce29e9"
        "5f81267aaeb26c5c4ae34012db11593a"
    ),
    ("torus3d", 4, 4, (("depth", 4),)): (
        "c4b59943e25abafc7d3df820db569a8e"
        "9761e7e2c7807844c6f8f6afa24e6e89"
    ),
    ("mesh3d", 8, 8, (("depth", 2),)): (
        "e3d811188986029def0bbb11a92e0fec"
        "ee0dd30f79433cb22749e463a502fd4d"
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
        "0f82f3fc960dc9dd9827e0980c685738"
        "263b2ed5f563187028f19a2c2896b424"
    ),
    ("ruche2-depop", 16, 8, (("dor_order", "yx"), ("half", True))): (
        "290e3d16f2274cf9208d88d4583e91ac"
        "197c8c6cf14af6376fee3602c276a316"
    ),
    ("half-torus", 16, 8, (("dor_order", "yx"),)): (
        "af1b09468bb813e5a0ff6516a9ee6bf4"
        "de8d2b2210672bb77bc3b40e5ef38385"
    ),
    ("mesh", 8, 4, (("edge_memory", True),)): (
        "680e72c0f36bf5da5a6026e98c576822"
        "7fa793a0ba574e44c003e762dd74f701"
    ),
    ("half-torus", 8, 4, (("dor_order", "yx"), ("edge_memory", True))): (
        "dd6ece48a65d7f3c9fae237ce7c6e61c"
        "3f1e4157dbea6d99636415adb5355916"
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

    The reference engine wires from ``channels`` and is unaffected; the
    lowering reads the port graph, so each variant trips one gate.
    """

    def _emit(self, graph, channels):
        return PortGraph(
            nodes=graph.nodes,
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


class _InjectionWiredGraph(_GraphEmitter):
    def port_graph(self):
        graph = super().port_graph()
        first, *rest = graph.channels
        return self._emit(
            graph, [first._replace(in_port=graph.ejection_port), *rest]
        )


class _StubEndpointGraph(_GraphEmitter):
    def port_graph(self):
        graph = super().port_graph()
        stub = PortChannel(
            src=Coord(0, 0), out_port=3, dst=Coord(0, -1), in_port=4,
            latency=1, width=graph.channels[0].width,
        )
        return self._emit(graph, [*graph.channels, stub])


class _ColumnMajorMesh(Topology):
    """A mesh whose tiles are enumerated column by column."""

    def _build_nodes(self):
        return (
            Coord(x, y)
            for x in range(self.width)
            for y in range(self.height)
        )


def _mesh_config(name, width, height, **options):
    return NetworkSpec.for_network("mesh", width, height, **options).config()


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
        "test-injection-graph": _InjectionWiredGraph,
        "test-stub-graph": _StubEndpointGraph,
        "test-column-major": _ColumnMajorMesh,
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
    "injection-wiring": _run_spec("test-injection-graph", 6, 6),
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


def test_exact_routing_off_the_row_major_grid_takes_the_walk(
    test_components, monkeypatch
):
    """The per-axis row assembler indexes the row-major tile grid; an
    exact ``MeshDOR`` over any other node order still compiles, through
    the generic IR walk, and still equals the reference."""
    monkeypatch.setattr(
        fastsim,
        "_row_assembler",
        lambda *args: pytest.fail("assembled rows for a permuted grid"),
    )
    spec = _run_spec("test-column-major", 6, 4, engine="compiled")
    assert fastsim.lowering_problems(spec) == []
    compiled = build_run(spec)
    assert compiled.engine == "compiled"
    reference = build_run(spec.replace(engine="reference"))
    assert fingerprint(compiled) == fingerprint(reference)
    vc = spec.replace(router="vc", routing="torus-dor")
    assert [d.code for d in fastsim.lowering_problems(vc)] == [
        "unsupported-routing"
    ]


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
