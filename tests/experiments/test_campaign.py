"""Tests for hardened campaigns: checkpointing and seed retries."""

import json

import pytest

from repro.errors import DeadlockError, SimulationTimeout
from repro.experiments.campaign import (
    CheckpointStore,
    row_key,
    run_campaign,
)

GRID = [
    {"config": "mesh", "fault_count": n, "seed": 1} for n in (0, 1, 2)
]


def ok_runner(params):
    return dict(params, value=params["fault_count"] * 10)


class TestRowKey:
    def test_insertion_order_irrelevant(self):
        a = row_key({"x": 1, "y": 2})
        b = row_key({"y": 2, "x": 1})
        assert a == b

    def test_distinct_params_distinct_keys(self):
        assert row_key({"x": 1}) != row_key({"x": 2})


class TestCheckpointResume:
    def test_completed_rows_not_recomputed(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        calls = []

        def runner(params):
            calls.append(params["fault_count"])
            return ok_runner(params)

        first = run_campaign(GRID, runner,
                             checkpoint=CheckpointStore(path))
        assert first.computed == 3 and first.reused == 0
        assert calls == [0, 1, 2]

        calls.clear()
        second = run_campaign(GRID, runner,
                              checkpoint=CheckpointStore(path))
        assert second.computed == 0 and second.reused == 3
        assert calls == []
        assert second.rows == first.rows

    def test_partial_checkpoint_resumes_midway(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        store = CheckpointStore(path)
        # Simulate a campaign killed after its first row.
        store.put(row_key(GRID[0]), ok_runner(GRID[0]))

        calls = []

        def runner(params):
            calls.append(params["fault_count"])
            return ok_runner(params)

        result = run_campaign(GRID, runner,
                              checkpoint=CheckpointStore(path))
        assert calls == [1, 2]
        assert result.reused == 1 and result.computed == 2
        assert [r["value"] for r in result.rows] == [0, 10, 20]

    def test_checkpoint_file_is_valid_json(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        run_campaign(GRID, ok_runner, checkpoint=CheckpointStore(path))
        with open(path) as fh:
            data = json.load(fh)
        assert len(data) == 3


class TestRetries:
    def test_deadlock_retried_with_fresh_seed(self):
        seeds = []

        def runner(params):
            seeds.append(params["seed"])
            if len(seeds) < 3:
                raise DeadlockError("wedged")
            return dict(params, value=1)

        result = run_campaign([{"config": "mesh", "seed": 7}], runner,
                              max_retries=2, retry_seed_stride=1000)
        assert seeds == [7, 1007, 2007]
        assert result.ok and result.retried == 2
        # The surviving row records the seed that actually worked.
        assert result.rows[0]["seed"] == 2007

    def test_exhausted_retries_record_failed_row(self, tmp_path):
        path = str(tmp_path / "ckpt.json")

        def runner(params):
            raise SimulationTimeout("budget blown")

        result = run_campaign([{"config": "mesh", "seed": 1}], runner,
                              checkpoint=CheckpointStore(path),
                              max_retries=1)
        assert not result.ok
        row = result.rows[0]
        assert row["failed"] and "SimulationTimeout" in row["error"]
        assert row["attempts"] == 2
        # Failed rows are not checkpointed: a rerun tries them again.
        assert len(CheckpointStore(path)) == 0

    def test_programming_errors_propagate(self):
        def runner(params):
            raise TypeError("bug, not a sim failure")

        with pytest.raises(TypeError):
            run_campaign([{"seed": 1}], runner)


class TestDegradationAnalysis:
    def test_fractions_relative_to_zero_fault_row(self):
        from repro.analysis.degradation import (
            degradation_curves,
            worst_case_retention,
        )

        rows = [
            {"config": "mesh", "fault_count": 0,
             "saturation_throughput": 0.4, "zero_load_latency": 5.0},
            {"config": "mesh", "fault_count": 2,
             "saturation_throughput": 0.2, "zero_load_latency": 6.0},
            {"config": "mesh", "fault_count": 1, "failed": True},
        ]
        curves = degradation_curves(rows)
        points = curves["mesh"]
        assert len(points) == 2  # failed row skipped
        assert points[1]["throughput_frac"] == pytest.approx(0.5)
        assert points[1]["latency_frac"] == pytest.approx(1.2)
        assert worst_case_retention(curves) == {"mesh": pytest.approx(0.5)}

    def test_missing_baseline_raises(self):
        from repro.analysis.degradation import degradation_curves

        with pytest.raises(ValueError):
            degradation_curves([
                {"config": "mesh", "fault_count": 1,
                 "saturation_throughput": 0.2, "zero_load_latency": 6.0},
            ])


class TestCheckpointCorruption:
    @pytest.mark.parametrize("content, match", [
        (b"{broken json", "not valid JSON"),
        (b"[1, 2]", "not a JSON object"),
        (b'{"\xff": 1}', "not valid JSON"),
    ], ids=["invalid-json", "not-an-object", "not-utf8"])
    def test_corrupt_file_raises_clear_error(self, tmp_path, content, match):
        path = tmp_path / "ckpt.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=match) as info:
            CheckpointStore(str(path))
        assert "delete it to restart the campaign" in str(info.value)


class TestPreflight:
    def test_clean_preflight_runs_campaign(self):
        seen = []

        def preflight():
            seen.append(True)
            return []

        result = run_campaign(GRID, ok_runner, preflight=preflight)
        assert seen == [True]
        assert result.ok and result.computed == len(GRID)

    def test_failing_preflight_aborts_before_any_row(self):
        from repro.errors import ConfigError

        calls = []

        def runner(params):
            calls.append(params)
            return dict(params)

        with pytest.raises(ConfigError, match="preflight failed"):
            run_campaign(
                GRID, runner,
                preflight=lambda: ["mesh 8x8: channel dependency cycle"],
            )
        assert calls == []

    def test_campaign_preflight_verifies_real_configs(self):
        from repro.core.params import NetworkConfig
        from repro.verify import campaign_preflight

        check = campaign_preflight(
            NetworkConfig.from_name(name, 4, 4)
            for name in ("mesh", "ruche2-depop")
        )
        assert check() == []

    def test_campaign_preflight_names_broken_config(self, monkeypatch):
        from repro.core.params import NetworkConfig
        from repro.verify import preflight as preflight_mod
        from repro.verify.report import VerificationReport

        def broken_verify(config, routing=None, **kwargs):
            report = VerificationReport(
                config=config.name, width=config.width,
                height=config.height, algorithm="MeshDOR", dor_order="xy",
            )
            report.illegal_turns.append("(1, 1): W -> N")
            return report

        monkeypatch.setattr(preflight_mod, "verify_config", broken_verify)
        config = NetworkConfig.from_name("mesh", 4, 4)
        problems = preflight_mod.campaign_preflight([config])()
        assert len(problems) == 1
        assert "mesh" in problems[0] and "W -> N" in problems[0]

    def test_preflight_dedups_repeated_design_points(self, monkeypatch):
        from repro.core.params import NetworkConfig
        from repro.verify import preflight as preflight_mod

        calls = []
        real = preflight_mod.verify_config

        def counting_verify(config, routing=None, **kwargs):
            calls.append(config.name)
            return real(config, routing, **kwargs)

        monkeypatch.setattr(preflight_mod, "verify_config", counting_verify)
        config = NetworkConfig.from_name("mesh", 4, 4)
        assert preflight_mod.campaign_preflight([config, config])() == []
        assert calls == ["mesh"]
