"""Unit tests for NetworkSpec and the declarative construction path."""

import pytest

from repro.core.params import NetworkConfig, TopologyKind
from repro.core.routing import MeshDOR, TorusDOR
from repro.core.spec import (
    NetworkSpec,
    build_config,
    build_network,
    build_pattern,
    build_routing,
    build_run,
    default_router_kind,
    network_components,
    resolve_topology,
)
from repro.errors import ConfigError
from repro.sim.simulator import run_synthetic


class TestNetworkSpec:
    def test_for_network_sorts_unknown_kwargs_into_options(self):
        spec = NetworkSpec.for_network(
            "ruche2-depop", 16, 8,
            half=True, pattern="tile_to_memory", edge_memory=True,
        )
        assert spec.pattern == "tile_to_memory"
        assert spec.options == (("edge_memory", True), ("half", True))

    def test_options_dict_is_frozen_sorted(self):
        spec = NetworkSpec("mesh", 8, 8, options={"b": 2, "a": 1})
        assert spec.options == (("a", 1), ("b", 2))

    def test_spec_is_hashable(self):
        a = NetworkSpec.for_network("mesh", 8, 8, rate=0.2)
        b = NetworkSpec.for_network("mesh", 8, 8, rate=0.2)
        assert a == b
        assert len({a, b}) == 1

    def test_to_dict_round_trips(self):
        spec = NetworkSpec.for_network(
            "ruche2-depop", 16, 8, half=True, rate=0.15, seed=7,
            stall_window=500,
        )
        data = spec.to_dict()
        assert data["options"] == {"half": True}
        assert NetworkSpec.from_dict(data) == spec

    def test_replace_and_with_options(self):
        spec = NetworkSpec("mesh", 8, 8)
        assert spec.replace(rate=0.3).rate == 0.3
        merged = spec.with_options(edge_memory=True)
        assert merged.options == (("edge_memory", True),)
        assert spec.options == ()

    def test_config_shortcut(self):
        spec = NetworkSpec.for_network("ruche2-depop", 16, 8, half=True)
        config = spec.config()
        assert config.kind is TopologyKind.HALF_RUCHE
        assert config.ruche_factor == 2


class TestResolveTopology:
    def test_exact_names(self):
        assert resolve_topology("mesh").name == "mesh"
        assert resolve_topology("half_torus").name == "half-torus"

    def test_ruche_grammar_falls_back_to_family(self):
        assert resolve_topology("ruche3-pop").name == "ruche"
        assert resolve_topology("ruche2-depop").name == "ruche"

    def test_fbfc_suffix_resolves_base_family(self):
        assert resolve_topology("torus-fbfc").name == "torus"

    def test_miss_lists_available_topologies(self):
        with pytest.raises(ConfigError) as excinfo:
            resolve_topology("hypercube")
        message = str(excinfo.value)
        assert "mesh" in message and "torus" in message

    def test_build_config_matches_from_name(self):
        spec = NetworkSpec.for_network("ruche2-depop", 16, 8, half=True)
        assert build_config(spec) == NetworkConfig.from_name(
            "ruche2-depop", 16, 8, half=True
        )
        fbfc = NetworkSpec("torus-fbfc", 8, 8)
        assert build_config(fbfc).fbfc


class TestComponentBuilders:
    def test_default_router_kind(self):
        assert default_router_kind(
            NetworkConfig.from_name("mesh", 8, 8)
        ) == "wormhole"
        assert default_router_kind(
            NetworkConfig.from_name("torus", 8, 8)
        ) == "vc"
        assert default_router_kind(
            NetworkConfig.from_name("torus-fbfc", 8, 8)
        ) == "fbfc"

    def test_build_routing_default_and_named(self):
        config = NetworkConfig.from_name("mesh", 8, 8)
        assert isinstance(build_routing(config), MeshDOR)
        assert isinstance(
            build_routing(config, name="torus-dor"), TorusDOR
        )

    def test_build_routing_unknown_name(self):
        config = NetworkConfig.from_name("mesh", 8, 8)
        with pytest.raises(ConfigError, match="mesh-dor"):
            build_routing(config, name="no-such-routing")

    def test_build_pattern_unknown_name(self):
        config = NetworkConfig.from_name("mesh", 8, 8)
        with pytest.raises(ConfigError, match="uniform_random"):
            build_pattern("no-such-pattern", config)

    def test_network_components_bundle(self):
        config = NetworkConfig.from_name("mesh", 8, 8)
        components = network_components(config)
        assert components.topology.config is config
        assert isinstance(components.routing, MeshDOR)
        assert components.matrix


class TestBuildNetwork:
    def test_config_passthrough(self):
        config = NetworkConfig.from_name("mesh", 4, 4)
        net = build_network(config)
        assert net.config is config

    def test_spec_resolves_overrides(self):
        spec = NetworkSpec.for_network("mesh", 4, 4, routing="mesh-dor")
        net = build_network(spec)
        assert isinstance(net.routing, MeshDOR)

    def test_spec_rejects_unknown_router_kind(self):
        spec = NetworkSpec.for_network("mesh", 4, 4, router="optical")
        with pytest.raises(ConfigError, match="wormhole"):
            build_network(spec)


class TestSpecRunEquivalence:
    def test_build_run_matches_config_run(self):
        """A spec-driven run is bit-identical to the config call."""
        config = NetworkConfig.from_name("mesh", 4, 4)
        direct = run_synthetic(
            config, "uniform_random", 0.1,
            warmup=50, measure=100, drain_limit=300, seed=3,
        )
        spec = NetworkSpec.for_network(
            "mesh", 4, 4,
            pattern="uniform_random", rate=0.1,
            warmup=50, measure=100, drain_limit=300, seed=3,
        )
        via_spec = build_run(spec)
        assert via_spec.avg_latency == direct.avg_latency
        assert via_spec.accepted_throughput == direct.accepted_throughput
        assert via_spec.total_cycles == direct.total_cycles
        assert via_spec.avg_hops == direct.avg_hops

    def test_run_synthetic_accepts_spec_directly(self):
        """run_synthetic resolves a spec as ``build_run`` does: every
        field applies (``tests/sim/test_every_door.py`` is the
        property)."""
        spec = NetworkSpec.for_network(
            "mesh", 4, 4, rate=0.1,
            warmup=50, measure=100, drain_limit=300, seed=3,
        )
        result = run_synthetic(spec)
        assert result.total_cycles == build_run(spec).total_cycles < 450
        assert result.avg_latency == build_run(spec).avg_latency


class TestSpecForConfig:
    NAMES = (
        "mesh", "torus", "half-torus", "torus-fbfc", "half-torus-fbfc",
        "multimesh", "ruche1", "ruche2-depop", "ruche2-pop",
        "ruche3-depop",
    )

    def test_round_trips_builtin_families(self):
        from repro.core.spec import spec_for_config

        for name in self.NAMES:
            config = NetworkConfig.from_name(name, 16, 8)
            spec = spec_for_config(config)
            assert build_config(spec) == config, name

    def test_round_trips_variants(self):
        from repro.core.params import DorOrder
        from repro.core.spec import spec_for_config

        variants = [
            NetworkConfig.from_name("mesh", 8, 8, dor_order=DorOrder.YX),
            NetworkConfig.from_name("ruche2-depop", 16, 8, half=True),
            NetworkConfig.from_name(
                "ruche2-depop", 16, 8, half=True, dor_order=DorOrder.YX
            ),
            NetworkConfig.from_name("mesh", 8, 8, edge_memory=True),
            NetworkConfig.from_name("mesh", 8, 8, channel_latency=2),
        ]
        for config in variants:
            spec = spec_for_config(config)
            assert build_config(spec) == config, config.name

    def test_extra_spec_fields_pass_through(self):
        from repro.core.spec import spec_for_config

        config = NetworkConfig.from_name("mesh", 8, 8)
        spec = spec_for_config(config, pattern="bit_complement", seed=3)
        assert spec.pattern == "bit_complement"
        assert spec.seed == 3

    def test_spec_is_json_serializable(self):
        import json

        from repro.core.params import DorOrder
        from repro.core.spec import spec_for_config

        config = NetworkConfig.from_name(
            "mesh", 8, 8, dor_order=DorOrder.YX
        )
        spec = spec_for_config(config)
        payload = json.dumps(spec.to_dict())
        rebuilt = NetworkSpec.from_dict(json.loads(payload))
        assert build_config(rebuilt) == config


class TestContentHash:
    def test_stable_across_identical_specs(self):
        a = NetworkSpec.for_network("mesh", 8, 8, half=False, seed=1)
        b = NetworkSpec.for_network("mesh", 8, 8, half=False, seed=1)
        assert a.content_hash() == b.content_hash()

    def test_differs_on_any_field(self):
        base = NetworkSpec.for_network("mesh", 8, 8)
        assert (
            base.content_hash()
            != NetworkSpec.for_network("mesh", 8, 8, seed=2).content_hash()
        )
        assert (
            base.content_hash()
            != NetworkSpec.for_network("torus", 8, 8).content_hash()
        )

    def test_is_hex_sha256(self):
        digest = NetworkSpec.for_network("mesh", 4, 4).content_hash()
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex
