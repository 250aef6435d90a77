"""Chaos/soak harness (`repro.chaos`): seeded reproducibility, the
degradation math, and an end-to-end smoke campaign.

The harness's contract is that a whole campaign is a pure function of
``(scale, seed)`` and that every row runs on the compiled engine (the
point of compiling fault schedules).  The expensive probe-ladder rows
are exercised once at smoke scale; the pure-math helpers are pinned
directly.
"""

import pytest

from repro import chaos
from repro.experiments.registry import experiment_ids, run_experiment


class TestHelpers:
    def test_scaled_counts_preserve_density(self):
        # At the reference 64-tile size the counts pass through…
        assert chaos._scaled(2, 64) == 2
        # …larger fabrics scale proportionally…
        assert chaos._scaled(2, 256) == 8
        # …smaller fabrics never round a nonzero tier down to zero…
        assert chaos._scaled(1, 16) == 1
        # …and a healthy tier stays healthy at every size.
        assert chaos._scaled(0, 1024) == 0

    def test_build_schedule_is_seed_deterministic(self):
        row = dict(scale="smoke", config="mesh", tier="mauled")
        one = chaos.build_schedule(dict(row, fault_seed=4))
        two = chaos.build_schedule(dict(row, fault_seed=4))
        other = chaos.build_schedule(dict(row, fault_seed=5))
        assert one.killed_channels == two.killed_channels
        assert one.dead_routers == two.dead_routers
        assert one.transient == two.transient
        assert one.degraded_model and two.degraded_model
        assert (
            one.killed_channels,
            one.dead_routers,
            one.transient,
        ) != (
            other.killed_channels,
            other.dead_routers,
            other.transient,
        )

    def test_attach_degradation_joins_against_baseline(self):
        rows = [
            dict(config="mesh", tier="baseline", p99_latency=10.0,
                 p999_latency=20.0, fairness_max_over_mean=1.25),
            dict(config="mesh", tier="mauled", p99_latency=30.0,
                 p999_latency=80.0, fairness_max_over_mean=2.5),
            dict(config="mesh", tier="wounded", deadlock=True),
        ]
        chaos._attach_degradation(rows)
        assert rows[1]["p99_latency_x"] == pytest.approx(3.0)
        assert rows[1]["p999_latency_x"] == pytest.approx(4.0)
        assert rows[1]["fairness_max_over_mean_x"] == pytest.approx(2.0)
        # The baseline is not joined against itself and a deadlocked
        # row has no tail metrics to ratio.
        assert "p99_latency_x" not in rows[0]
        assert "p99_latency_x" not in rows[2]

    def test_attach_degradation_without_baseline_is_noop(self):
        rows = [dict(config="mesh", tier="mauled", p99_latency=30.0,
                     p999_latency=80.0, fairness_max_over_mean=2.5)]
        chaos._attach_degradation(rows)
        assert "p99_latency_x" not in rows[0]


class TestRows:
    def test_row_is_reproducible_and_compiled(self):
        params = dict(
            config="mesh", scale="smoke", tier="baseline",
            fault_seed=0, seed=1,
        )
        first = chaos._run_row(dict(params))
        second = chaos._run_row(dict(params))
        assert first == second
        assert first["engine"] == "compiled"
        assert not first["deadlock"]
        # The healthy baseline carries the top of the probe ladder.
        assert first["sustained_rate"] == max(
            chaos._PRESETS["smoke"]["probe_rates"]
        )
        assert first["deadlock_load"] is None
        for column in ("p50_latency", "p99_latency", "p999_latency",
                       "fairness_max_over_mean", "fairness_cv"):
            assert first[column] > 0


class TestCampaign:
    def test_registered_as_experiment(self):
        assert "chaos" in experiment_ids()

    def test_smoke_campaign_end_to_end(self):
        result = run_experiment("chaos", scale="smoke", seed=0)
        assert result.experiment_id == "chaos"
        preset = chaos._PRESETS["smoke"]
        expected_rows = (
            len(preset["configs"])
            * len(chaos.TIERS)
            * len(preset["fault_seeds"])
        )
        assert len(result.rows) == expected_rows
        assert all(row["engine"] == "compiled" for row in result.rows)
        assert "FAILED ROWS" not in result.notes
        # Rows are sorted config-major, tier severity within.
        tier_order = [t["tier"] for t in chaos.TIERS]
        assert [row["tier"] for row in result.rows] == tier_order
        # Every completed faulted row carries degradation ratios
        # against its healthy baseline tier.
        faulted = [
            row for row in result.rows
            if row["tier"] != "baseline" and not row.get("deadlock")
        ]
        assert faulted
        for row in faulted:
            assert row["p99_latency_x"] > 0
            assert row["p999_latency_x"] > 0
        # Severity monotonicity of the probe ladder: a mauled fabric
        # never sustains more load than the healthy baseline.
        by_tier = {row["tier"]: row for row in result.rows}
        baseline = by_tier["baseline"]["sustained_rate"]
        mauled = by_tier["mauled"]["sustained_rate"]
        assert mauled is None or mauled <= baseline
