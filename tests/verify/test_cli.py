"""CLI tests for ``python -m repro.verify``."""

import json

from repro.verify.__main__ import main


class TestSingleConfig:
    def test_ok_config_exits_zero(self, capsys):
        assert main(["--config", "mesh", "--size", "4x4"]) == 0
        out = capsys.readouterr().out
        assert "mesh" in out and "ok" in out

    def test_json_payload(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(
            ["--config", "ruche2-depop", "--size", "4x4",
             "--json", str(target)]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["ok"] is True
        assert payload["verified"] == 1
        assert payload["failed"] == 0
        (report,) = payload["reports"]
        assert report["config"] == "ruche2-depop"
        assert report["problems"] == []

    def test_bad_size_is_config_error(self):
        assert main(["--config", "mesh", "--size", "nonsense"]) == 2

    def test_unknown_config_is_config_error(self):
        assert main(["--config", "zorp", "--size", "4x4"]) == 2


class TestMatrixMode:
    def test_small_matrix_all_ok(self, capsys):
        code = main(["--sizes", "4x4", "--rf", "2", "--skip-lint"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out

    def test_lint_only_mode(self, capsys):
        assert main(["--lint-only"]) == 0


PLUGIN_ARGS = [
    "--load", "examples/plugin_topology.py",
    "--spec", '{"topology": "express-mesh", "width": 8, "height": 8}',
]


class TestCertifyMode:
    def test_single_config_certifies(self, capsys):
        code = main(
            ["--config", "mesh", "--size", "4x4",
             "--skip-lint"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "basis=monotone-dor" in out
        assert "0 enumerator disagreement(s)" in out

    def test_json_payload_has_hash_and_provenance(self, tmp_path):
        target = tmp_path / "certify.json"
        code = main(
            ["--config", "ruche2-depop", "--size", "4x4",
             "--skip-lint", "--json", str(target)]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["ok"] is True
        assert payload["disagreements"] == 0
        provenance = payload["provenance"]
        assert provenance["mode"] == "certify"
        assert "reference" in provenance["engines"]
        assert provenance["repro_version"]
        (report,) = payload["reports"]
        assert len(report["spec_hash"]) == 64
        assert report["enumerator_agrees"] is True
        assert report["compiles"] is True

    def test_small_matrix_certifies(self, capsys):
        code = main(
            ["--sizes", "4x4", "--rf", "2", "--no-fault-aware",
             "--skip-lint"]
        )
        assert code == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_plugin_load_and_spec(self, tmp_path):
        # Subprocess: the test process may already have the example
        # registered (tests/examples loads it), and a fresh process is
        # exactly how CI invokes --load.
        import subprocess
        import sys

        target = tmp_path / "certify.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.verify", "--config", "mesh",
             "--size", "4x4", "--skip-lint", "--json", str(target),
             *PLUGIN_ARGS],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(target.read_text())
        assert payload["verified"] == 2
        express = payload["reports"][1]
        assert express["topology"] == "express-mesh"
        assert express["minimality_basis"] == "graph-bfs"
        # Plugin components lower through the generic port-graph route
        # tabulation, so the express mesh compiles clean.
        assert express["lowering"] == []
        assert express["compiles"] is True

    def test_no_matrix_certifies_only_the_specs(self, capsys):
        code = main(
            ["--skip-lint", "--no-matrix",
             "--spec", '{"topology": "mesh3d", "width": 4, '
             '"height": 4, "depth": 2}',
             "--spec", '{"topology": "torus3d", "width": 4, '
             '"height": 4, "depth": 2}']
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 design point(s), 0 failure(s)" in out
        assert "basis=declared-minimal" in out
        assert "monotone-dor" not in out  # no matrix entries ran

    def test_no_matrix_without_spec_is_config_error(self):
        assert main(
            ["--skip-lint", "--no-matrix"]
        ) == 2

    def test_missing_plugin_file_is_config_error(self):
        assert main(
            ["--skip-lint", "--load", "no/such/file.py"]
        ) == 2

    def test_bad_spec_json_is_config_error(self):
        assert main(
            ["--skip-lint", "--spec", "{not json"]
        ) == 2

    def test_spec_missing_key_is_config_error(self):
        assert main(
            ["--skip-lint", "--spec", '{"topology": "mesh"}']
        ) == 2
