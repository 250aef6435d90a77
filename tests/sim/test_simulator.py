"""Tests for the synthetic-traffic harness and its measurement semantics."""

import math

import pytest

from repro.core.coords import Direction
from repro.core.params import NetworkConfig
from repro.sim.metrics import LatencyStats
from repro.sim.simulator import (
    average_hops_by_direction,
    run_synthetic,
    sweep_injection_rates,
    zero_load_latency,
)


class TestLatencyStats:
    def test_streaming_moments(self):
        s = LatencyStats()
        for v in (2, 4, 6):
            s.add(v)
        assert s.mean == 4
        assert s.min == 2 and s.max == 6
        assert math.isclose(s.stddev, math.sqrt(8 / 3))

    def test_percentiles_require_samples(self):
        s = LatencyStats()
        s.add(1)
        with pytest.raises(ValueError):
            s.percentile(0.5)
        s2 = LatencyStats(keep_samples=True)
        for v in range(100):
            s2.add(v)
        assert s2.percentile(0.99) >= 98

    def test_merge(self):
        a, b = LatencyStats(), LatencyStats()
        a.add(1)
        b.add(9)
        a.merge(b)
        assert a.count == 2 and a.max == 9 and a.min == 1

    def test_percentile_nearest_rank(self):
        s = LatencyStats(keep_samples=True)
        for v in (10, 20, 30, 40):
            s.add(v)
        # Nearest rank: smallest sample covering >= q of the mass.
        assert s.percentile(0.25) == 10
        assert s.percentile(0.50) == 20
        assert s.percentile(0.75) == 30
        assert s.percentile(1.00) == 40

    def test_p999_on_short_runs_is_the_maximum(self):
        # Fewer than 1000 samples: p999 must be the max, not an
        # arbitrary interior sample from index truncation.
        s = LatencyStats(keep_samples=True)
        for v in range(50):
            s.add(v)
        assert s.percentile(0.999) == 49
        one = LatencyStats(keep_samples=True)
        one.add(7)
        assert one.percentile(0.999) == 7
        assert one.percentile(0.5) == 7

    def test_percentile_of_empty_is_nan(self):
        s = LatencyStats(keep_samples=True)
        assert math.isnan(s.percentile(0.5))


class TestTailAndFairness:
    def test_fairness_stats_math(self):
        from repro.sim.metrics import fairness_stats

        stats = fairness_stats({"a": 10.0, "b": 20.0, "c": 30.0})
        assert stats["fairness_max_over_mean"] == pytest.approx(1.5)
        assert stats["fairness_cv"] == pytest.approx(
            math.sqrt(200 / 3) / 20
        )

    def test_fairness_stats_of_nothing_is_nan(self):
        from repro.sim.metrics import fairness_stats

        for sources in ({}, {"a": float("nan")}):
            stats = fairness_stats(sources)
            assert math.isnan(stats["fairness_max_over_mean"])
            assert math.isnan(stats["fairness_cv"])

    def test_tail_latency_stats_from_a_run(self):
        from repro.core.spec import NetworkSpec, build_run
        from repro.sim.metrics import tail_latency_stats

        spec = NetworkSpec.for_network(
            "mesh", 8, 8, pattern="uniform_random", rate=0.10,
            warmup=100, measure=300, drain_limit=2000, seed=3,
            engine="compiled",
        )
        result = build_run(
            spec, track_per_source=True, keep_samples=True
        )
        tail = tail_latency_stats(result.metrics)
        assert set(tail) == {
            "p50_latency", "p99_latency", "p999_latency",
            "fairness_max_over_mean", "fairness_cv",
        }
        assert (
            tail["p50_latency"]
            <= tail["p99_latency"]
            <= tail["p999_latency"]
        )
        assert tail["fairness_max_over_mean"] >= 1.0

    def test_tail_latency_stats_without_per_source(self):
        from repro.sim.metrics import RunMetrics, tail_latency_stats

        metrics = RunMetrics(keep_samples=True)
        metrics.measured.add(5)
        tail = tail_latency_stats(metrics)
        assert "fairness_cv" not in tail
        assert tail["p50_latency"] == 5.0


class TestRunSynthetic:
    def test_low_load_accepted_matches_offered(self):
        cfg = NetworkConfig.from_name("mesh", 8, 8)
        r = run_synthetic(cfg, "uniform_random", 0.05,
                          warmup=200, measure=600, drain_limit=2000)
        assert r.drained
        assert abs(r.accepted_throughput - 0.05) < 0.01

    def test_low_load_latency_matches_zero_load(self):
        cfg = NetworkConfig.from_name("mesh", 8, 8)
        r = run_synthetic(cfg, "uniform_random", 0.02,
                          warmup=200, measure=600)
        zl = zero_load_latency(cfg, samples=2000)
        assert abs(r.avg_latency - zl) < 0.8

    def test_oversaturation_reports_undrained(self):
        cfg = NetworkConfig.from_name("mesh", 8, 8)
        r = run_synthetic(cfg, "uniform_random", 0.9,
                          warmup=100, measure=300, drain_limit=100)
        assert r.saturated
        assert r.accepted_throughput < 0.9

    def test_deterministic_given_seed(self):
        cfg = NetworkConfig.from_name("ruche2-depop", 8, 8)
        a = run_synthetic(cfg, "uniform_random", 0.1, warmup=100,
                          measure=200, seed=42)
        b = run_synthetic(cfg, "uniform_random", 0.1, warmup=100,
                          measure=200, seed=42)
        assert a.avg_latency == b.avg_latency
        assert a.delivered_measured == b.delivered_measured

    def test_different_seeds_differ(self):
        cfg = NetworkConfig.from_name("mesh", 8, 8)
        a = run_synthetic(cfg, "uniform_random", 0.1, warmup=100,
                          measure=200, seed=1)
        b = run_synthetic(cfg, "uniform_random", 0.1, warmup=100,
                          measure=200, seed=2)
        assert a.delivered_measured != b.delivered_measured

    def test_per_source_tracking(self):
        cfg = NetworkConfig.from_name("mesh", 6, 6)
        r = run_synthetic(cfg, "uniform_random", 0.05, warmup=100,
                          measure=500, track_per_source=True)
        means = r.metrics.per_source_means()
        assert len(means) == 36
        # Corner tiles see longer average paths than the center.
        from repro.core.coords import Coord
        assert means[Coord(0, 0)] > means[Coord(3, 3)]


class TestSweep:
    def test_latency_monotone_under_load(self):
        cfg = NetworkConfig.from_name("mesh", 8, 8)
        curve = sweep_injection_rates(
            cfg, "uniform_random", [0.02, 0.1, 0.2],
            warmup=150, measure=400, drain_limit=1500,
        )
        lats = [p.avg_latency for p in curve]
        assert lats[0] < lats[1] < lats[2]

    def test_stop_when_saturated(self):
        cfg = NetworkConfig.from_name("mesh", 8, 8)
        curve = sweep_injection_rates(
            cfg, "uniform_random", [0.02, 0.8, 0.9],
            warmup=100, measure=200, drain_limit=50,
            stop_when_saturated=True,
        )
        assert len(curve) == 2
        assert curve[-1].saturated


class TestZeroLoad:
    def test_mesh_16x16_uniform_is_about_ten_point_six(self):
        """Figure 8 anchor: 2-D mesh 16x16 UR mean latency ~= 10.6."""
        cfg = NetworkConfig.from_name("mesh", 16, 16)
        zl = zero_load_latency(cfg, samples=4000)
        assert 10.1 < zl < 11.1

    def test_ruche_reduces_zero_load(self):
        mesh = zero_load_latency(NetworkConfig.from_name("mesh", 16, 16),
                                 samples=1500)
        r3 = zero_load_latency(
            NetworkConfig.from_name("ruche3-pop", 16, 16), samples=1500
        )
        assert r3 < 0.6 * mesh

    @pytest.mark.parametrize("name, expected", [
        # Per axis, uniform random over k=4 tiles travels 5/4 hops on
        # a line and 1 on a ring; self-pairs are redrawn (x 64/63).
        ("mesh3d", 3 * 5 / 4 * 64 / 63),
        ("torus3d", 3 * 1 * 64 / 63),
    ])
    def test_3d_uniform_matches_the_closed_form(self, name, expected):
        cfg = NetworkConfig.from_name(name, 4, 4, depth=4)
        assert abs(zero_load_latency(cfg, samples=2000) - expected) < 0.15

    def test_direction_histogram_consistent(self):
        _assert_histogram_matches_hops(
            NetworkConfig.from_name("ruche2-pop", 8, 8)
        )

    @pytest.mark.parametrize("name", ["mesh3d", "torus3d"])
    def test_3d_direction_histogram_consistent(self, name):
        _assert_histogram_matches_hops(
            NetworkConfig.from_name(name, 4, 4, depth=4)
        )


def _assert_histogram_matches_hops(cfg):
    hops = average_hops_by_direction(cfg, samples=800)
    zl = zero_load_latency(cfg, samples=800)
    # Total per-direction hops (minus the P ejection) == hop count.
    total = sum(v for d, v in hops.items() if d != int(Direction.P))
    assert abs(total - zl) < 0.05


class TestSaturationAndDrain:
    def test_undrained_run_is_saturated_and_respects_drain_limit(self):
        cfg = NetworkConfig.from_name("mesh", 8, 8)
        warmup, measure, drain = 100, 300, 120
        r = run_synthetic(cfg, "uniform_random", 0.9,
                          warmup=warmup, measure=measure,
                          drain_limit=drain)
        assert r.saturated and not r.drained
        # The drain loop ran its full budget and then stopped.
        assert r.total_cycles == warmup + measure + drain
        assert r.delivered_measured < r.injected_measured

    def test_drained_run_stops_before_drain_limit(self):
        cfg = NetworkConfig.from_name("mesh", 8, 8)
        warmup, measure, drain = 100, 300, 5000
        r = run_synthetic(cfg, "uniform_random", 0.05,
                          warmup=warmup, measure=measure,
                          drain_limit=drain)
        assert r.drained
        assert warmup + measure <= r.total_cycles < warmup + measure + drain

    def test_zero_drain_limit_reports_undrained(self):
        cfg = NetworkConfig.from_name("mesh", 8, 8)
        r = run_synthetic(cfg, "uniform_random", 0.3,
                          warmup=50, measure=100, drain_limit=0)
        assert r.total_cycles == 150
        assert r.saturated


class TestMultiSeed:
    def test_multi_seed_run_deterministic(self):
        from repro.sim.simulator import multi_seed_run

        cfg = NetworkConfig.from_name("mesh", 8, 8)
        a = multi_seed_run(cfg, "uniform_random", 0.1,
                           seeds=(1, 2, 3), warmup=100, measure=200)
        b = multi_seed_run(cfg, "uniform_random", 0.1,
                           seeds=(1, 2, 3), warmup=100, measure=200)
        assert a == b
        assert a["seeds"] == 3

    def test_multi_seed_spread_nonnegative(self):
        from repro.sim.simulator import multi_seed_run

        cfg = NetworkConfig.from_name("mesh", 8, 8)
        stats = multi_seed_run(cfg, "uniform_random", 0.1,
                               seeds=(4, 5), warmup=100, measure=200)
        assert stats["latency_spread"] >= 0
        assert stats["throughput_spread"] >= 0
