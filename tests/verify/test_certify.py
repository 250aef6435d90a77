"""Tests for the table certifier (``repro.verify.certify``).

The certifier proves route soundness, deadlock freedom, and lowering
safety from exported next-hop tables; these tests pin the positive
paths (every paper config certifies and agrees with the exhaustive 2-D
enumerator), the negative paths (broken crossbars, livelocks,
nondeterministic routings, masked-port escapes are concrete findings),
and the plugin path (an out-of-tree topology certifies with zero
coordinate assumptions).
"""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from property.settings import tiered_settings

from repro.core.connectivity import connectivity_matrix
from repro.core.coords import Coord, Direction
from repro.core.params import NetworkConfig
from repro.core.portgraph import killed_channels
from repro.core.routing import FaultAwareTableRouting, MeshDOR
from repro.core.spec import NetworkSpec
from repro.core.topology import make_topology
from repro.verify import (
    certify_config,
    certify_problems,
    certify_spec,
    cross_validate_spec,
    enumerator_agrees,
    verify_config,
)

FAMILY_NAMES = (
    "mesh",
    "torus",
    "half-torus",
    "torus-fbfc",
    "half-torus-fbfc",
    "multimesh",
    "ruche1",
    "ruche2-depop",
    "ruche2-pop",
)


class TestAcceptsHealthyConfigs:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_8x8_certifies_and_agrees(self, name):
        config = NetworkConfig.from_name(name, 8, 8)
        certified = certify_config(config)
        assert certified.ok, certified.problems()
        assert certified.minimality_basis == "monotone-dor"
        enumerated = verify_config(config)
        assert enumerator_agrees(certified, enumerated)

    def test_rectangular_agrees(self):
        config = NetworkConfig.from_name("ruche3-depop", 16, 8)
        certified = certify_config(config)
        enumerated = verify_config(config)
        assert certified.ok, certified.problems()
        assert enumerator_agrees(certified, enumerated)

    def test_depopulated_ruche_detours_match_enumerator(self):
        config = NetworkConfig.from_name("ruche2-depop", 8, 8)
        certified = certify_config(config)
        enumerated = verify_config(config)
        assert certified.non_minimal_expected
        assert certified.non_minimal_pairs == enumerated.non_minimal_pairs
        assert certified.max_detour == enumerated.max_detour


class TestRejectsBrokenCrossbar:
    def test_missing_turn_named_in_report(self):
        config = NetworkConfig.from_name("mesh", 8, 8)
        matrix = dict(connectivity_matrix(config))
        matrix[Direction.W] = matrix[Direction.W] - {Direction.N}
        report = certify_config(config, matrix=matrix)
        assert not report.ok
        assert any("W -> N" in turn for turn in report.illegal_turns)


class _PingPong(MeshDOR):
    """Bounces east/west forever between two columns: a routing livelock."""

    def route(self, node, in_dir, dest, subnet=0):
        if node == dest:
            return Direction.P
        return Direction.W if node.x >= 2 else Direction.E


class _Flaky(MeshDOR):
    """Answers differently on every call: a nondeterministic routing."""

    def __init__(self, config):
        super().__init__(config)
        self.calls = 0

    def route(self, node, in_dir, dest, subnet=0):
        self.calls += 1
        out = super().route(node, in_dir, dest, subnet)
        if out is Direction.P and node != dest:  # pragma: no cover
            return out
        if self.calls % 7 == 0 and out in (Direction.E, Direction.W):
            return Direction.N if node.y > 0 else Direction.S
        return out


class TestRejectsBrokenRouting:
    def test_livelock_detected_with_state_cycle(self):
        config = NetworkConfig.from_name("mesh", 8, 8)
        report = certify_config(config, _PingPong(config))
        assert not report.ok
        assert any("state cycle" in entry for entry in report.unreached)

    def test_nondeterminism_is_a_table_mismatch(self):
        config = NetworkConfig.from_name("mesh", 4, 4)
        report = certify_config(config, _Flaky(config))
        assert not report.ok
        assert report.table_mismatches
        assert any(
            "table/reference mismatch" in p for p in report.problems()
        )


class _Oblivious(FaultAwareTableRouting):
    """Routes plain X-Y DOR, ignoring its own masked links."""

    def route(self, node, in_dir, dest, subnet=0):
        dx = dest.x - node.x
        if dx:
            return Direction.E if dx > 0 else Direction.W
        dy = dest.y - node.y
        if dy:
            return Direction.S if dy > 0 else Direction.N
        return Direction.P


def _oblivious(config, dead_links=(), dead_nodes=()):
    """An :class:`_Oblivious` routing on the config's graph and faults."""
    graph = make_topology(config).port_graph()
    dead = frozenset(dead_nodes)
    return _Oblivious(
        config, graph, killed_channels(graph, dead_links, dead), dead
    )


class TestFaultMaskedTables:
    def test_seeded_fault_spec_certifies(self):
        spec = NetworkSpec.for_network(
            "mesh", 8, 8, fault_links=4, fault_routers=1, fault_seed=7
        )
        report = certify_spec(spec)
        assert report.ok, report.problems()
        assert report.minimality_basis == "bfs-tables"
        assert not report.cdg_required
        assert report.partitioned_pairs == 0
        assert any("watchdog" in w for w in report.warnings)

    def test_fault_spec_agrees_with_enumerator(self):
        spec = NetworkSpec.for_network(
            "ruche2-depop", 8, 8, fault_links=3, fault_seed=7
        )
        report, agrees = cross_validate_spec(spec)
        assert report.ok, report.problems()
        assert agrees

    def test_masked_escape_is_a_finding(self):
        config = NetworkConfig.from_name("mesh", 4, 4)
        routing = _oblivious(
            config, dead_links=[(Coord(1, 0), Direction.E)]
        )
        report = certify_config(config, routing)
        assert not report.ok
        assert any("masked link" in e for e in report.masked_escapes)
        assert any("masked-port escape" in p for p in report.problems())

    def test_dead_router_escape_is_a_finding(self):
        config = NetworkConfig.from_name("mesh", 4, 4)
        routing = _oblivious(config, dead_nodes=[Coord(1, 1)])
        report = certify_config(config, routing)
        assert not report.ok
        assert any("dead router" in e for e in report.masked_escapes)


def _load_plugin_module():
    """Import the example once per process, by file path.

    Uses the same module name as ``tests/examples`` so whichever test
    file runs first does the (sole) registration.
    """
    name = "plugin_topology_example"
    if name in sys.modules:
        return sys.modules[name]
    path = (
        Path(__file__).resolve().parents[2]
        / "examples"
        / "plugin_topology.py"
    )
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TestPluginTopology:
    @pytest.fixture(scope="class")
    def plugin(self):
        return _load_plugin_module()

    def test_express_mesh_certifies_on_graph_basis(self, plugin):
        report = certify_spec(plugin.demo_spec())
        assert report.ok, report.problems()
        assert report.minimality_basis == "graph-bfs"
        assert not report.minimality_checked
        # Station boarding is legitimately graph-non-minimal; the audit
        # is informational and must not fail the verdict.
        assert report.topology == "express-mesh"

    def test_express_mesh_compiles_via_generic_tabulation(self, plugin):
        # Plugin components lower through the generic port-graph route
        # tabulation; the old blanket plugin-components gate is gone.
        report = certify_spec(plugin.demo_spec())
        assert report.compiles is True
        assert report.lowering == []


class TestLoweringDiagnostics:
    def test_compilable_spec_has_no_diagnostics(self):
        report = certify_spec(NetworkSpec.for_network("mesh", 4, 4))
        assert report.compiles is True
        assert report.lowering == []

    def test_pipelined_channels_named_exactly(self):
        spec = NetworkSpec.for_network("mesh", 4, 4, channel_latency=2)
        report = certify_spec(spec)
        assert report.compiles is False
        assert [d["code"] for d in report.lowering] == [
            "pipelined-channels"
        ]

    def test_edge_memory_named_exactly(self):
        spec = NetworkSpec.for_network("mesh", 4, 4, edge_memory=True)
        report = certify_spec(spec)
        assert report.compiles is False
        assert "edge-memory" in [d["code"] for d in report.lowering]


class TestCertifyProblems:
    def test_healthy_targets_yield_no_problems(self):
        targets = [
            NetworkConfig.from_name("mesh", 4, 4),
            NetworkSpec.for_network("ruche2-depop", 8, 8),
        ]
        assert certify_problems(targets) == []

    def test_broken_config_is_reported_with_label(self):
        config = NetworkConfig.from_name("mesh", 4, 4)
        problems = certify_problems([config, config])  # dedup too
        assert problems == []
        routing_problems = certify_problems(
            [NetworkSpec.for_network("mesh", 4, 4)]
        )
        assert routing_problems == []

    def test_campaign_preflight_certify_gate(self):
        from repro.verify import campaign_preflight

        thunk = campaign_preflight(
            [NetworkConfig.from_name("mesh", 4, 4)], certify=True
        )
        assert thunk() == []


class TestReportShape:
    def test_to_dict_round_trips_subclass_fields(self):
        report = certify_spec(NetworkSpec.for_network("mesh", 4, 4))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["minimality_basis"] == "monotone-dor"
        assert payload["spec_hash"] == report.spec_hash
        assert payload["compiles"] is True
        assert payload["masked_escapes"] == []

    def test_summary_carries_basis(self):
        report = certify_config(NetworkConfig.from_name("mesh", 4, 4))
        assert "\n" not in report.summary()
        assert "basis=monotone-dor" in report.summary()


#: Small random design points: the certifier must reach the exact same
#: verdict as the exhaustive enumerator on everything 2-D.
random_configs = st.builds(
    NetworkConfig.from_name,
    st.sampled_from(
        ["mesh", "torus", "half-torus", "ruche2-depop", "ruche2-pop"]
    ),
    st.integers(3, 6),
    st.integers(3, 6),
)


@tiered_settings(25, deadline=None)
@given(random_configs)
def test_certifier_verdict_matches_enumerator(config):
    certified = certify_config(config)
    enumerated = verify_config(config)
    assert certified.ok == enumerated.ok
    assert enumerator_agrees(certified, enumerated), (
        dataclasses.asdict(certified),
        dataclasses.asdict(enumerated),
    )
