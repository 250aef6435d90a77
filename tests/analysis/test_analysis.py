"""Tests for sweeps, bandwidth, fairness and table rendering."""

import pytest

from repro.analysis.bandwidth import (
    bandwidth_row,
    minimum_rf_to_match_memory,
    table4,
)
from repro.analysis.fairness import FairnessSummary, summarize_per_tile
from repro.analysis.sweeps import (
    compare_saturation,
    curve_summary,
    saturation_offered_load,
    saturation_throughput,
    zero_load_point,
)
from repro.analysis.tables import format_value, render_table
from repro.core.coords import Coord
from repro.core.params import NetworkConfig
from repro.sim.metrics import fairness_stats
from repro.sim.simulator import RunResult


def fake_point(rate, accepted, latency, drained=True):
    return RunResult(
        config_name="mesh",
        pattern="uniform_random",
        offered_load=rate,
        accepted_throughput=accepted,
        avg_latency=latency,
        stddev_latency=0.0,
        max_latency=latency,
        delivered_measured=100,
        injected_measured=100,
        drained=drained,
        measure_cycles=100,
        avg_hops=5.0,
    )


CURVE = [
    fake_point(0.05, 0.05, 6.0),
    fake_point(0.15, 0.15, 7.0),
    fake_point(0.30, 0.28, 25.0),
    fake_point(0.45, 0.29, 80.0, drained=False),
    fake_point(0.60, 0.26, 200.0, drained=False),
]


class TestSweeps:
    def test_saturation_is_max_accepted(self):
        assert saturation_throughput(CURVE) == 0.29

    def test_zero_load_point(self):
        assert zero_load_point(CURVE).offered_load == 0.05

    def test_knee_detection(self):
        assert saturation_offered_load(CURVE) == 0.30

    def test_knee_none_when_never_saturating(self):
        flat = [fake_point(r, r, 6.0 + r) for r in (0.05, 0.1, 0.15)]
        assert saturation_offered_load(flat) is None

    def test_curve_summary_fields(self):
        summary = curve_summary(CURVE)
        assert summary["zero_load_latency"] == 6.0
        assert summary["saturation_throughput"] == 0.29
        assert len(summary["points"]) == 5

    def test_compare_saturation(self):
        rows = compare_saturation({"mesh": CURVE, "other": CURVE}, "mesh")
        assert all(r["vs_baseline"] == 1.0 for r in rows)

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            saturation_throughput([])


class TestBandwidth:
    def test_row_fields_for_paper_case(self):
        cfg = NetworkConfig.from_name("ruche2", 16, 8, half=True)
        row = bandwidth_row(cfg)
        assert row.bisection_bw == 48
        assert row.memory_tile_bw == 32
        assert row.meets_guideline
        assert row.compute_memory_ratio == "4:1"
        assert row.aspect_ratio == "2:1"

    def test_table4_shape(self):
        rows = table4()
        assert len(rows) == 12
        assert {r.network_size for r in rows} == {
            "16x8", "32x16", "64x8", "32x8"
        }

    def test_minimum_rf_paper_observations(self):
        assert minimum_rf_to_match_memory(32, 8) == 3
        assert minimum_rf_to_match_memory(64, 8) == 7
        # 16x8: even RF=1 doubles the 16-channel bisection to 32, which
        # already matches the 32-port memory bandwidth.
        assert minimum_rf_to_match_memory(16, 8) == 1

    def test_minimum_rf_none_when_unreachable(self):
        assert minimum_rf_to_match_memory(64, 8, max_rf=3) is None


class TestFairness:
    def test_summary_statistics(self):
        means = {Coord(0, 0): 10.0, Coord(1, 0): 12.0, Coord(2, 0): 14.0}
        summary = summarize_per_tile("mesh", means)
        assert summary.mean == 12.0
        assert summary.min_tile == 10.0 and summary.max_tile == 14.0
        assert summary.spread == 4.0
        assert summary.stddev == pytest.approx((8 / 3) ** 0.5)

    def test_tiles_that_delivered_nothing_are_excluded(self):
        means = {
            Coord(0, 0): 10.0, Coord(1, 0): float("nan"),
            Coord(2, 0): 12.0, Coord(3, 0): 14.0,
        }
        summary = summarize_per_tile("mesh", means)
        assert summary.mean == 12.0
        assert summary.min_tile == 10.0 and summary.max_tile == 14.0
        assert summary.stddev == pytest.approx((8 / 3) ** 0.5)
        stats = fairness_stats(means)
        assert stats["fairness_cv"] == summary.stddev / summary.mean
        assert stats["fairness_max_over_mean"] == 14.0 / 12.0

    def test_summary_is_frozen_dataclass(self):
        s = FairnessSummary("mesh", 1.0, 0.1, 0.9, 1.1)
        with pytest.raises(Exception):
            s.mean = 2.0


class TestTables:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(None) == "-"
        assert format_value(float("nan")) == "-"
        assert format_value(1234.5) == "1,234"
        assert format_value(0.1234) == "0.123"
        assert format_value(12.34) == "12.3"

    def test_render_table_alignment(self):
        text = render_table(
            [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_render_empty(self):
        assert "(no rows)" in render_table([], title="T")

    def test_column_subset(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]
