"""Unit tests for the shared manycore run cache and presets."""

from repro.experiments.manycore_runs import (
    FABRICS,
    KERNEL_PRESETS,
    kernel_params,
    machine_config,
    run_cached,
    size_for,
    suite_for,
)


class TestPresets:
    def test_fabrics_match_paper_order(self):
        assert FABRICS[0] == "mesh"
        assert "half-torus" in FABRICS
        assert sum(1 for f in FABRICS if f.startswith("ruche")) == 4

    def test_kernel_params_resolve_by_prefix(self):
        assert kernel_params("bfs-HW", "quick") == (
            KERNEL_PRESETS["quick"]["bfs"]
        )
        assert kernel_params("spgemm-CA", "smoke") == (
            KERNEL_PRESETS["smoke"]["spgemm"]
        )

    def test_kernel_params_returns_copy(self):
        a = kernel_params("jacobi", "quick")
        a["block"] = 999
        assert kernel_params("jacobi", "quick")["block"] != 999

    def test_scales_grow_problem_sizes(self):
        for kernel in ("jacobi", "sgemm", "bh"):
            smoke = KERNEL_PRESETS["smoke"][kernel]
            full = KERNEL_PRESETS["full"][kernel]
            assert all(
                full[k] >= smoke[k] for k in smoke if k in full
            )

    def test_suites(self):
        assert len(suite_for("smoke")) < len(suite_for("quick")) < len(
            suite_for("full")
        )
        assert suite_for("full") == __import__(
            "repro.manycore.kernels", fromlist=["benchmark_names"]
        ).benchmark_names()

    def test_sizes(self):
        assert size_for("smoke") == (8, 4)
        assert size_for("quick") == (16, 8)
        assert size_for("full") == (32, 16)


class TestCache:
    def test_run_cached_memoizes(self):
        a = run_cached("jacobi", "mesh", 8, 4, "smoke")
        b = run_cached("jacobi", "mesh", 8, 4, "smoke")
        assert a is b

    def test_machine_config_builder(self):
        cfg = machine_config("ruche2-depop", 16, 8)
        assert cfg.width == 16 and cfg.network == "ruche2-depop"


class TestTraceCapture:
    KEY = ("jacobi", "mesh", 8, 4, "smoke")

    def test_entries_carry_traces_and_provenance(self):
        from repro.experiments.manycore_runs import (
            PROVENANCE,
            run_entry,
        )

        entry = run_entry(*self.KEY)
        assert set(entry.traces) == {"fwd", "rev"}
        fwd = entry.traces["fwd"]
        assert fwd.records > 0
        assert fwd.provenance["schema"] == PROVENANCE
        assert fwd.options["dor_order"] == "xy"
        assert entry.traces["rev"].options["dor_order"] == "yx"

    def test_run_cached_returns_the_entry_stats(self):
        from repro.experiments.manycore_runs import run_entry

        entry = run_entry(*self.KEY)
        assert run_cached(*self.KEY) is entry.stats

    def test_write_traces_is_idempotent(self):
        from repro.experiments.manycore_runs import write_traces

        first = write_traces(self.KEY)
        second = write_traces(self.KEY)
        assert first == second
        assert set(first) == {"fwd", "rev"}

    def test_replay_result_matches_reference_replay(self):
        from repro.experiments.manycore_runs import replay_result

        ref = replay_result(*self.KEY, engine="reference")
        comp = replay_result(*self.KEY, engine="compiled")
        assert ref.engine == "reference"
        assert comp.engine == "compiled"
        assert comp.avg_latency == ref.avg_latency
        assert comp.metrics.delivered_total == (
            ref.metrics.delivered_total
        )
        assert comp.metrics.injected_total == (
            ref.metrics.injected_total
        )


class TestBudget:
    def test_a_capture_that_hits_its_cycle_budget_is_not_cached(
        self, monkeypatch
    ):
        """A truncated run must not feed speedups or replays: it raises,
        naming the run, and leaves no cache entry behind."""
        import pytest

        from repro.errors import SimulationError
        from repro.experiments import manycore_runs

        key = ("jacobi", "mesh", 8, 4, "smoke")
        manycore_runs.clear_cache()
        run = manycore_runs.Machine.run
        monkeypatch.setattr(
            manycore_runs.Machine,
            "run",
            lambda self, max_cycles: run(self, max_cycles=40),
        )
        with pytest.raises(SimulationError, match="jacobi.*mesh.*cycle 40"):
            manycore_runs.run_entry(*key)
        assert key not in manycore_runs._CACHE
        monkeypatch.undo()
        assert manycore_runs.run_entry(*key).stats.completed
