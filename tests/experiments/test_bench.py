"""Unit tests for the repro.bench microbenchmark harness."""

from pathlib import Path

import pytest

import repro.bench
from repro.bench import (
    CASES,
    LOWERING_POINTS,
    SCHEMA,
    SPEEDUP_FLOORS,
    compare_to_baseline,
    load_report,
    measure_case,
    measure_lowering,
    render_markdown,
    write_report,
)


REPO_ROOT = Path(__file__).resolve().parents[2]


def _report(cases):
    return {
        "schema": SCHEMA,
        "mode": "quick",
        "cases": [
            {"name": name, "engine": "reference", "cycles_per_sec": cps}
            for name, cps in cases.items()
        ],
    }


class TestCompareToBaseline:
    def setup_method(self):
        self.base = _report({"mesh": 1000.0, "torus": 500.0})

    def test_cycles_per_sec_alone_never_gates(self):
        """Raw speed against another host's baseline is reported, not
        judged (floors, ceilings and missing cases are the gate)."""
        for cps in (500.0, 900.0, 1500.0):
            report = _report({"mesh": cps, "torus": 500.0})
            assert compare_to_baseline(report, self.base) == []

    def test_missing_case_is_regression(self):
        report = _report({"mesh": 1000.0})
        regressions = compare_to_baseline(report, self.base)
        assert regressions == ["torus[reference]: missing from report"]

    def test_extra_report_case_ignored(self):
        report = _report(
            {"mesh": 1000.0, "torus": 500.0, "newcase": 1.0}
        )
        assert compare_to_baseline(report, self.base) == []


class TestReportIO:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "bench.json")
        report = _report({"mesh": 1234.5})
        write_report(report, path)
        assert load_report(path) == report

    def test_unknown_schema_rejected(self, tmp_path):
        path = str(tmp_path / "bad.json")
        write_report(dict(_report({}), schema="something-else"), path)
        with pytest.raises(ValueError, match="unknown bench schema"):
            load_report(path)


class TestMeasureCase:
    def test_smallest_case_reports_sane_numbers(self):
        case = measure_case("mesh-8x8-ur", repeats=1)
        assert case["name"] == "mesh-8x8-ur"
        assert case["total_cycles"] > 0
        assert case["best_seconds"] > 0
        assert case["cycles_per_sec"] == pytest.approx(
            case["total_cycles"] / case["best_seconds"], rel=1e-3
        )

    def test_all_canonical_cases_are_well_formed(self):
        for name, case in CASES.items():
            if "trace" in case:
                # Replay cases carry a run key instead of a window;
                # the rate is pinned at 1.0 by the replay contract.
                assert len(case["trace"]) == 5
                assert case["rate"] == 1.0
                continue
            assert case["measure"] > 0 and case["warmup"] >= 0
            assert case["drain_limit"] >= case["measure"]
            assert 0.0 < case["rate"] <= 1.0


def _case(name, cps, engine=None, **extra):
    case = {"name": name, "cycles_per_sec": cps}
    if engine is not None:
        case["engine"] = engine
    case.update(extra)
    return case


class TestEngineAwareGate:
    """Schema-v2 behaviour: cases keyed by (name, engine)."""

    def setup_method(self):
        self.base = {
            "schema": SCHEMA,
            "cases": [
                _case("mesh", 1000.0, engine="reference"),
                _case("mesh", 5000.0, engine="compiled"),
            ],
        }

    def test_missing_engine_entry_is_regression(self):
        report = {
            "schema": SCHEMA,
            "cases": [_case("mesh", 1000.0, engine="reference")],
        }
        regressions = compare_to_baseline(report, self.base)
        assert regressions == ["mesh[compiled]: missing from report"]


class TestSpeedupFloors:
    """Pinned engine-level wins gate on speedup_vs_reference."""

    def setup_method(self):
        self.base = {
            "schema": SCHEMA,
            "cases": [
                _case("torus-64x8-ur", 250.0, engine="reference"),
                _case("torus-64x8-ur", 5000.0, engine="compiled",
                      speedup_vs_reference=20.0),
            ],
        }

    def test_floor_is_pinned_for_vc_case(self):
        assert SPEEDUP_FLOORS[("torus-64x8-ur", "compiled")] == 5.0

    def test_committed_baseline_clears_every_floor(self):
        """``BENCH_noc.json`` carries every floored case and passes its
        own gate — the three serial floors (mesh, Half Ruche, 3-D) sit
        above what host injection measured (7x, 8x, 15x)."""
        baseline = load_report(str(REPO_ROOT / "BENCH_noc.json"))
        speedups = {
            (case["name"], case["engine"]): case.get("speedup_vs_reference")
            for case in baseline["cases"]
        }
        for key, floor in SPEEDUP_FLOORS.items():
            assert speedups[key] >= 1.5 * floor, key
        assert compare_to_baseline(baseline, baseline) == []
        assert SPEEDUP_FLOORS[("mesh-8x8-ur", "compiled")] == 13.0
        assert SPEEDUP_FLOORS[("halfruche2-16x8-ur", "compiled")] == 15.0
        assert SPEEDUP_FLOORS[("torus3d-8x8x4-ur", "compiled")] == 30.0

    def test_speedup_above_floor_passes(self):
        regressions = compare_to_baseline(self.base, self.base)
        assert regressions == []

    def test_speedup_below_floor_is_regression(self):
        report = {
            "schema": SCHEMA,
            "cases": [
                _case("torus-64x8-ur", 250.0, engine="reference"),
                _case("torus-64x8-ur", 5000.0, engine="compiled",
                      speedup_vs_reference=3.1),
            ],
        }
        regressions = compare_to_baseline(report, self.base)
        assert any("pinned floor 5.0x" in r for r in regressions)

    def test_missing_speedup_not_gated(self):
        """A compiled-only run carries no speedup; the floor cannot
        apply without a same-run reference measurement."""
        report = {
            "schema": SCHEMA,
            "cases": [
                _case("torus-64x8-ur", 250.0, engine="reference"),
                _case("torus-64x8-ur", 5000.0, engine="compiled"),
            ],
        }
        regressions = compare_to_baseline(report, self.base)
        assert regressions == []


def _lowering_entry(name, us, problems=()):
    return {
        "name": name, "node_pairs": 1 << 20, "best_seconds": us * 1.05,
        "us_per_node_pair": us, "problems": list(problems),
    }


class TestLoweringGate:
    def setup_method(self):
        self.base = _report({"mesh": 1000.0})
        self.base["lowering"] = [_lowering_entry("mesh-32x32", 0.02)]

    def _compare(self, *entries):
        report = _report({"mesh": 1000.0})
        report["lowering"] = list(entries)
        return compare_to_baseline(report, self.base)

    def test_under_the_ceiling_passes(self):
        ceiling = LOWERING_POINTS["torus-64x8"]["ceiling_us"]
        assert self._compare(
            _lowering_entry("mesh-32x32", 0.02),
            _lowering_entry("torus-64x8", ceiling),
        ) == []

    def test_ceiling_is_absolute_not_relative_to_the_baseline(self):
        ceiling = LOWERING_POINTS["mesh-32x32"]["ceiling_us"]
        # Three times the baseline entry, still under the ceiling.
        assert self._compare(_lowering_entry("mesh-32x32", 0.06)) == []
        (regression,) = self._compare(
            _lowering_entry("mesh-32x32", ceiling * 1.01)
        )
        assert f"above the ceiling {ceiling}" in regression

    def test_a_point_that_did_not_lower_is_a_regression(self):
        (regression,) = self._compare(
            _lowering_entry("mesh-32x32", 0.001, ["no-native-kernel"])
        )
        assert "did not lower (no-native-kernel)" in regression

    def test_dropped_lowering_section_is_regression(self):
        regressions = compare_to_baseline(
            _report({"mesh": 1000.0}), self.base
        )
        assert any("lowering section missing" in r for r in regressions)

    def test_baseline_without_lowering_section_tolerated(self):
        report = _report({"mesh": 1000.0})
        report["lowering"] = [_lowering_entry("mesh-32x32", 0.02)]
        regressions = compare_to_baseline(
            report, _report({"mesh": 1000.0})
        )
        assert regressions == []

    def test_every_timed_repeat_lowers_from_cold(self, monkeypatch):
        from repro.sim import fastsim

        if fastsim._native_kernel() is None:
            pytest.skip("no native kernel: nothing lowers on this host")
        built = []
        build_model = fastsim._build_model

        def counting(target, *args):
            built.append(target.topology)
            return build_model(target, *args)

        monkeypatch.setattr(fastsim, "_build_model", counting)
        # The property is per repeat, not per point: the two that lower
        # in tens of milliseconds show it.
        monkeypatch.setattr(
            repro.bench,
            "LOWERING_POINTS",
            {
                name: LOWERING_POINTS[name]
                for name in ("torus-64x8", "torus3d-8x8x2")
            },
        )
        fastsim.clear_compile_caches()
        entries = measure_lowering(repeats=2)
        # One untimed verdict, then two timed lowerings, per point.
        assert built == [
            point["config"][0]
            for point in repro.bench.LOWERING_POINTS.values()
            for _ in range(3)
        ]
        assert [entry["name"] for entry in entries] == list(
            repro.bench.LOWERING_POINTS
        )
        for entry in entries:
            _, width, height, options = LOWERING_POINTS[entry["name"]][
                "config"
            ]
            assert entry["problems"] == []
            assert entry["node_pairs"] == (
                width * height * options.get("depth", 1)
            ) ** 2
            assert entry["us_per_node_pair"] > 0


class TestRenderMarkdown:
    def test_renders_cases_and_lowering_section(self):
        report = {
            "schema": SCHEMA,
            "mode": "full",
            "cases": [
                dict(_case("mesh-8x8-ur", 4500.0, engine="reference"),
                     total_cycles=617, best_seconds=0.137),
                dict(_case("mesh-8x8-ur", 27000.0, engine="compiled",
                           speedup_vs_reference=6.0),
                     total_cycles=617, best_seconds=0.023),
            ],
            "lowering": [
                _lowering_entry("mesh-32x32", 0.044),
                _lowering_entry("torus-64x8", 0.34, ["edge-memory"]),
            ],
        }
        text = render_markdown(report)
        assert "| mesh-8x8-ur | compiled |" in text
        assert "6.00x" in text
        assert (
            "**Cold lowering**: mesh-32x32: 0.044 us per node pair (0.046s); "
            "torus-64x8: 0.340 us per node pair (0.357s, edge-memory)"
        ) in text

    def test_minimal_report_renders(self):
        text = render_markdown({"mode": "quick", "cases": []})
        assert text.startswith("### Bench (quick mode)")


class TestSchemaCompatibility:
    def test_measure_case_records_engine(self):
        case = measure_case("mesh-8x8-ur", repeats=1, engine="compiled")
        assert case["engine"] == "compiled"
        assert case["cycles_per_sec"] > 0
