"""The out-of-tree express-mesh plugin: registered, verified, simulated.

These tests load ``examples/plugin_topology.py`` by file path (it is not
an installed package — that is the point) and prove the registry's
promise: a topology the core has never seen becomes constructible,
statically verifiable, and simulable with zero core changes.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core.coords import Direction
from repro.core.registry import TOPOLOGIES
from repro.core.spec import (
    NetworkSpec,
    build_faults,
    build_run,
    resolve_topology,
)
from repro.core.topology import Topology
from repro.errors import ConfigError
from repro.sim.fastsim import lowering_problems
from repro.sim.faults import FaultSchedule
from repro.sim.simulator import run_synthetic
from repro.verify import verify_spec

REPO_ROOT = Path(__file__).resolve().parents[2]
PLUGIN_PATH = REPO_ROOT / "examples" / "plugin_topology.py"


def _load_plugin():
    """Import the example once per process, by file path."""
    name = "plugin_topology_example"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, PLUGIN_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def plugin():
    return _load_plugin()


class TestRegistration:
    def test_registers_through_public_registry(self, plugin):
        assert "express-mesh" in TOPOLOGIES
        provider = resolve_topology("express-mesh")
        assert provider.has_custom_components
        assert provider.topology_factory is plugin.ExpressMeshTopology
        assert provider.routing_factory is plugin.ExpressMeshRouting

    def test_config_factory_validates_span(self, plugin):
        with pytest.raises(ConfigError, match="span"):
            plugin.express_mesh_config("express-mesh", 8, 8, span=1)

    def test_express_channels_only_at_stations(self, plugin):
        config = plugin.express_mesh_config("express-mesh", 16, 8)
        custom = plugin.ExpressMeshTopology(config)
        express = [
            (src, d, dst) for src, d, dst in custom.channels if d.is_ruche
        ]
        assert express, "express channels must exist"
        span = config.ruche_factor
        for src, direction, dst in express:
            assert src.x % span == 0
            assert dst.x % span == 0
            assert direction in (Direction.RE, Direction.RW)
        # Strictly fewer long-range channels than the builtin Half
        # Ruche wiring the same config would get.
        builtin = sum(
            1 for _, d, _ in Topology(config).channels if d.is_ruche
        )
        assert len(express) < builtin


class TestVerification:
    def test_static_verifier_passes(self, plugin):
        report = verify_spec(plugin.demo_spec())
        assert report.ok, report.problems()
        assert report.cdg_acyclic
        assert not report.illegal_turns
        assert not report.unreached
        assert report.pairs_checked == (16 * 8) ** 2

    def test_express_channels_shorten_worst_case_paths(self, plugin):
        report = verify_spec(plugin.demo_spec())
        mesh_diameter = (16 - 1) + (8 - 1)
        assert report.max_hops < mesh_diameter


class TestSimulation:
    def test_simulates_under_build_run(self, plugin):
        spec = NetworkSpec.for_network(
            "express-mesh", 8, 4,
            rate=0.05, warmup=100, measure=200, drain_limit=600, seed=1,
        )
        result = build_run(spec)
        assert result.avg_latency > 0
        assert result.accepted_throughput > 0

    def test_main_smoke_exits_zero(self, plugin, capsys):
        assert plugin.main() == 0
        out = capsys.readouterr().out
        assert "simulated express-mesh" in out


class TestTransientFaults:
    """A plugin spec's transient faults sit on the plugin's channels."""

    def test_faults_are_drawn_on_the_plugin_graph(self, plugin):
        spec = NetworkSpec.for_network(
            "express-mesh", 16, 8, fault_transient=6
        )
        config = spec.config()
        graph = plugin.ExpressMeshTopology(config).port_graph()
        off_graph = [
            (seed, fault)
            for seed in range(20)
            for fault in build_faults(
                spec.replace(fault_seed=seed), config
            ).transient
            if not graph.has_output(fault.src, fault.direction)
        ]
        assert off_graph == []

    def test_engines_agree_and_flits_drop(self, plugin):
        spec = plugin.demo_spec().replace(
            fault_transient=6, fault_drop_prob=0.2
        )
        results = [
            build_run(spec.replace(engine=engine))
            for engine in ("reference", "compiled")
        ]
        metrics = [
            dataclasses.asdict(
                dataclasses.replace(result, metrics=None, engine="")
            )
            for result in results
        ]
        assert metrics[0] == metrics[1]
        assert results[0].dropped_measured > 0
        lowers = not lowering_problems(spec, engine="compiled")
        assert results[1].engine == ("compiled" if lowers else "reference")

    def test_a_builtin_schedule_is_refused(self, plugin):
        """Faults drawn on the builtin graph of the plugin's config name
        channels the plugin does not wire: both engines refuse them,
        the compiled one also once the plugin's model is cached."""
        spec = plugin.demo_spec()
        builtin = FaultSchedule.random_transient(spec.config(), 6)
        build_run(spec.replace(engine="compiled"))
        for engine in ("reference", "compiled"):
            with pytest.raises(ConfigError, match="drawn on"):
                run_synthetic(spec.replace(engine=engine), faults=builtin)


class TestNoCoreChanges:
    def test_core_never_mentions_the_plugin(self):
        """The plugin rides entirely on public extension points."""
        src = REPO_ROOT / "src" / "repro"
        offenders = [
            str(path.relative_to(REPO_ROOT))
            for path in sorted(src.rglob("*.py"))
            if "express-mesh" in path.read_text(encoding="utf-8")
            or "ExpressMesh" in path.read_text(encoding="utf-8")
        ]
        assert offenders == []
