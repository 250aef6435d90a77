"""Static verifier tests: acceptance of every paper config, rejection of
deliberately broken routing/crossbars with concrete witnesses."""

import pytest

from repro.core.connectivity import connectivity_matrix
from repro.core.coords import Coord, Direction
from repro.core.params import DorOrder, NetworkConfig
from repro.core.routing import MeshDOR, TorusDOR, make_fault_aware_routing
from repro.core.spec import NetworkSpec
from repro.verify import paper_spec_matrix, verify_config, verify_spec

#: ``paper_spec_matrix()``'s default grid, one ``name WxH[xD] [flags]``
#: line per entry, in order: ``half`` / ``yx`` are spec options and a
#: ``field=value`` flag is an integer spec field (the seeded faults).
PAPER_GRID = """
    mesh 8x8
    torus 8x8
    half-torus 8x8
    torus-fbfc 8x8
    half-torus-fbfc 8x8
    multimesh 8x8
    ruche1 8x8
    mesh 8x8 yx
    ruche2-depop 8x8
    ruche2-depop 8x8 half
    ruche2-pop 8x8
    ruche2-pop 8x8 half
    ruche2-depop 8x8 half yx
    ruche3-depop 8x8
    ruche3-depop 8x8 half
    ruche3-pop 8x8
    ruche3-pop 8x8 half
    ruche3-depop 8x8 half yx
    ruche4-depop 8x8
    ruche4-depop 8x8 half
    ruche4-pop 8x8
    ruche4-pop 8x8 half
    ruche4-depop 8x8 half yx
    mesh 16x8
    torus 16x8
    half-torus 16x8
    torus-fbfc 16x8
    half-torus-fbfc 16x8
    multimesh 16x8
    ruche1 16x8
    mesh 16x8 yx
    ruche2-depop 16x8
    ruche2-depop 16x8 half
    ruche2-pop 16x8
    ruche2-pop 16x8 half
    ruche2-depop 16x8 half yx
    ruche3-depop 16x8
    ruche3-depop 16x8 half
    ruche3-pop 16x8
    ruche3-pop 16x8 half
    ruche3-depop 16x8 half yx
    ruche4-depop 16x8
    ruche4-depop 16x8 half
    ruche4-pop 16x8
    ruche4-pop 16x8 half
    ruche4-depop 16x8 half yx
    mesh 64x8
    torus 64x8
    half-torus 64x8
    torus-fbfc 64x8
    half-torus-fbfc 64x8
    multimesh 64x8
    ruche1 64x8
    mesh 64x8 yx
    ruche2-depop 64x8
    ruche2-depop 64x8 half
    ruche2-pop 64x8
    ruche2-pop 64x8 half
    ruche2-depop 64x8 half yx
    ruche3-depop 64x8
    ruche3-depop 64x8 half
    ruche3-pop 64x8
    ruche3-pop 64x8 half
    ruche3-depop 64x8 half yx
    ruche4-depop 64x8
    ruche4-depop 64x8 half
    ruche4-pop 64x8
    ruche4-pop 64x8 half
    ruche4-depop 64x8 half yx
    mesh 8x8 fault_links=4 fault_routers=1 fault_seed=7
    ruche2-depop 8x8 fault_links=3 fault_seed=7
    mesh3d 4x4x4
    torus3d 8x8x4
"""


def _pinned_entry(line):
    name, size, *flags = line.split()
    dims = [int(v) for v in size.split("x")]
    fields = {"depth": dims[2]} if len(dims) == 3 else {}
    for flag in flags:
        if flag == "half":
            fields["half"] = True
        elif flag == "yx":
            fields["dor_order"] = "yx"
        else:
            field, _, value = flag.partition("=")
            fields[field] = int(value)
    return NetworkSpec.for_network(name, dims[0], dims[1], **fields)


ALL_NAMES = (
    "mesh", "torus", "half-torus", "torus-fbfc", "multimesh",
    "ruche1", "ruche2-depop", "ruche2-pop", "ruche3-depop", "ruche3-pop",
)


class TestAcceptsHealthyConfigs:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_8x8_ok(self, name):
        report = verify_config(NetworkConfig.from_name(name, 8, 8))
        assert report.ok, report.problems()
        assert report.pairs_checked == 64 * 64

    @pytest.mark.parametrize("name", ("ruche2-depop", "ruche3-pop"))
    def test_half_ruche_ok(self, name):
        config = NetworkConfig.from_name(name, 8, 8, half=True)
        report = verify_config(config)
        assert report.ok, report.problems()

    def test_yx_mesh_ok(self):
        config = NetworkConfig.from_name(
            "mesh", 8, 8, dor_order=DorOrder.YX
        )
        report = verify_config(config)
        assert report.ok, report.problems()

    def test_rectangular_ok(self):
        report = verify_config(NetworkConfig.from_name("ruche2-depop", 16, 8))
        assert report.ok, report.problems()

    def test_paper_matrix_all_ok_at_8x8(self):
        reports = [
            verify_spec(spec) for spec in paper_spec_matrix(sizes=[(8, 8)])
        ]
        bad = [r for r in reports if not r.ok]
        assert not bad, [(r.config, r.problems()) for r in bad]
        # The matrix spans every routing algorithm the paper evaluates,
        # plus the beyond-2-D pack's fixed design points.
        assert {r.algorithm for r in reports} == {
            "MeshDOR", "TorusDOR", "MultiMeshRouting",
            "RucheOneRouting", "RucheDOR", "FaultAwareTableRouting",
            "Mesh3dDOR", "Torus3dDOR",
        }

    def test_paper_matrix_is_pinned(self):
        """``paper_spec_matrix``'s entries and their order: the CLI and
        CI certify it in this order."""
        assert paper_spec_matrix() == [
            _pinned_entry(line) for line in PAPER_GRID.split("\n") if line
        ]

    def test_torus_cdg_is_vc_extended(self):
        report = verify_config(NetworkConfig.from_name("torus", 8, 8))
        assert report.cdg_required and report.cdg_acyclic
        # Two VCs double the channel vertices relative to the wormhole case.
        assert report.cdg_vertices > 0 and report.cdg_edges > 0

    def test_fbfc_waives_cdg_with_warning(self):
        report = verify_config(NetworkConfig.from_name("torus-fbfc", 8, 8))
        assert not report.cdg_required
        assert report.ok
        assert any("bubble" in w for w in report.warnings)


class TestMinimalityAudit:
    def test_depopulated_ruche_non_minimal_is_expected(self):
        report = verify_config(NetworkConfig.from_name("ruche3-depop", 12, 12))
        assert report.non_minimal_expected
        assert report.non_minimal_pairs > 0
        assert report.ok, report.problems()

    def test_populated_ruche_is_minimal(self):
        report = verify_config(NetworkConfig.from_name("ruche3-pop", 12, 12))
        assert not report.non_minimal_expected
        assert report.non_minimal_pairs == 0
        assert report.ok, report.problems()


class TestRejectsBrokenCrossbar:
    def test_missing_turn_named_in_report(self):
        config = NetworkConfig.from_name("mesh", 8, 8)
        matrix = dict(connectivity_matrix(config))
        # Remove the W -> N turn: X-Y DOR needs it for every NE-bound pair.
        matrix[Direction.W] = matrix[Direction.W] - {Direction.N}
        report = verify_config(config, matrix=matrix)
        assert not report.ok
        assert any("W -> N" in turn for turn in report.illegal_turns)
        assert any("illegal turn" in p for p in report.problems())


class _NoDateline(TorusDOR):
    """Torus DOR with the dateline VC promotion removed: each ring's
    channel dependencies close into a cycle."""

    def route_vc(self, node, in_dir, in_vc, dest):
        out, _vc = super().route_vc(node, in_dir, in_vc, dest)
        return out, 0


class _PingPong(MeshDOR):
    """Bounces east/west forever between two columns: a routing livelock."""

    def route(self, node, in_dir, dest, subnet=0):
        if node == dest:
            return Direction.P
        return Direction.W if node.x >= 2 else Direction.E


class TestRejectsBrokenRouting:
    def test_dateline_removal_yields_concrete_cycle(self):
        config = NetworkConfig.from_name("torus", 8, 8)
        report = verify_config(config, _NoDateline(config))
        assert not report.cdg_acyclic
        assert not report.ok
        assert report.cycle, "expected a rendered cyclic channel chain"
        assert any("channel dependency cycle" in p for p in report.problems())

    def test_livelock_detected_with_state_cycle(self):
        config = NetworkConfig.from_name("mesh", 8, 8)
        report = verify_config(config, _PingPong(config))
        assert not report.ok
        assert any("state cycle" in entry for entry in report.unreached)


class TestFaultAware:
    def test_healthy_tables_verify(self):
        config = NetworkConfig.from_name("ruche2-depop", 8, 8)
        report = verify_config(config, make_fault_aware_routing(config))
        assert report.cdg_required and report.cdg_acyclic
        assert not report.minimality_checked
        assert report.ok, report.problems()

    def test_faulted_tables_waive_cdg_and_count_partitions(self):
        config = NetworkConfig.from_name("mesh", 4, 4)
        routing = make_fault_aware_routing(
            config, dead_nodes=[Coord(1, 1)]
        )
        report = verify_config(config, routing)
        assert not report.cdg_required
        assert report.ok, report.problems()
        assert any("watchdog" in w for w in report.warnings)


class TestReportShape:
    def test_to_dict_is_json_ready(self):
        import json

        report = verify_config(NetworkConfig.from_name("mesh", 4, 4))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["config"] == "mesh"
        assert payload["problems"] == []

    def test_summary_one_line(self):
        report = verify_config(NetworkConfig.from_name("mesh", 4, 4))
        assert "\n" not in report.summary()
        assert "ok" in report.summary()
