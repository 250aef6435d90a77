"""Experiment-layer tests: registry, result helpers, smoke runs."""

import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro.experiments import describe, experiment_ids, run_experiment
from repro.experiments.base import ExperimentResult, resolve_scale

#: Runs the CLI on its arguments, then reports what the process loaded.
_CLI_PROBE = """
import json, sys
from repro.experiments.__main__ import main
code = main(sys.argv[1:])
from repro.experiments import registry
drivers = {
    name if name[0] != "." else registry.__package__ + name
    for name, _ in registry._REGISTRY.values()
}
print(json.dumps({
    "code": code,
    "drivers": sorted(drivers & set(sys.modules)),
    "heavy": sorted(
        m for m in sys.modules
        if m.startswith(("repro.manycore", "repro.chaos"))
    ),
    "kernel": getattr(
        sys.modules.get("repro.sim._ckernel"), "origin", None
    ),
}))
"""


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = set(experiment_ids())
        assert ids == {
            "table1", "fig5", "fig6", "fig7", "table2", "table3",
            "fig8", "fig9", "table4", "fig10", "fig11", "fig12",
            "fig13", "table6", "sweep3d", "tail", "faults", "chaos",
        }

    def test_describe(self):
        assert "Ruche" in describe("fig6") or "synthetic" in describe("fig6")

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_every_driver_module_exists(self):
        """Drivers are named, not imported, so a typo would otherwise
        surface only when that experiment runs."""
        from repro.experiments import registry

        for module, _description in registry._REGISTRY.values():
            found = importlib.util.find_spec(module, registry.__package__)
            assert found is not None, module

    @pytest.mark.parametrize(
        "argv, drivers",
        [
            (["--list"], []),
            (
                ["table1", "--scale", "smoke"],
                ["repro.experiments.table1_properties"],
            ),
        ],
    )
    def test_cli_loads_only_the_driver_it_runs(self, argv, drivers):
        """A fresh process: the listing imports no driver, one
        experiment imports its own, and neither pulls in the manycore
        stack or the chaos harness — nor obtains a kernel."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, env.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [sys.executable, "-c", _CLI_PROBE, *argv], env=env, check=True,
            capture_output=True, text=True, timeout=300,
        )
        report = json.loads(done.stdout.splitlines()[-1])
        assert report == {
            "code": 0, "drivers": drivers, "heavy": [], "kernel": None,
        }


class TestResultHelpers:
    def make(self):
        return ExperimentResult(
            experiment_id="x",
            title="t",
            rows=[{"a": 1, "b": 2}, {"a": 1, "b": 3}, {"a": 2, "b": 4}],
            scale="smoke",
        )

    def test_lookup_and_single(self):
        result = self.make()
        assert len(result.lookup(a=1)) == 2
        assert result.single(a=2)["b"] == 4
        with pytest.raises(KeyError):
            result.single(a=1)

    def test_column(self):
        assert self.make().column("b") == [2, 3, 4]

    def test_report_contains_id_and_rows(self):
        text = self.make().report()
        assert "[x]" in text and "scale=smoke" in text

    def test_resolve_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert resolve_scale(None) == "quick"
        assert resolve_scale("full") == "full"
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert resolve_scale(None) == "smoke"
        with pytest.raises(ValueError):
            resolve_scale("huge")


class TestAnalyticExperiments:
    """The cheap drivers run at full fidelity in unit tests."""

    def test_table1(self):
        result = run_experiment("table1")
        assert len(result.rows) == 7

    def test_fig5_counts(self):
        result = run_experiment("fig5")
        assert result.single(output="TOTAL")["removed_by_depop"] == 16

    def test_table2_ordering(self):
        result = run_experiment("table2")
        totals = {r["config"]: r["total_um2"] for r in result.rows}
        assert totals["ruche2-depop"] < totals["ruche2-pop"]

    def test_table3_rows(self):
        result = run_experiment("table3")
        assert len(result.rows) == 10  # 4 + 4 + 2 directions

    def test_table4_guideline(self):
        result = run_experiment("table4")
        assert result.single(
            network_size="32x8", noc="ruche3-depop"
        )["meets_guideline"]

    def test_fig7(self):
        result = run_experiment("fig7", scale="smoke")
        row = {r["config"]: r for r in result.rows}
        assert row["torus"]["min_cycle_fo4"] > row["mesh"]["min_cycle_fo4"]


class TestSimulationExperimentsSmoke:
    """Each simulation-backed driver completes at smoke scale."""

    def test_fig6_smoke(self):
        result = run_experiment("fig6", scale="smoke")
        assert {r["config"] for r in result.rows} >= {"mesh", "torus"}
        sats = {r["config"]: r["saturation_throughput"] for r in result.rows}
        assert sats["mesh"] < sats["ruche1"]

    def test_fig9_smoke(self):
        result = run_experiment("fig9", scale="smoke")
        assert all(r["saturation_throughput"] > 0 for r in result.rows)

    def test_fig8_smoke(self):
        result = run_experiment("fig8", scale="smoke")
        rows = {r["config"]: r for r in result.rows}
        assert rows["mesh"]["stddev"] > rows["torus"]["stddev"]

    def test_manycore_chain_smoke(self):
        fig10 = run_experiment("fig10", scale="smoke")
        geo = fig10.lookup(benchmark="GEOMEAN")
        assert len(geo) == 6
        fig12 = run_experiment("fig12", scale="smoke")
        assert all(r["total"] >= r["intrinsic"] for r in fig12.rows)
        fig13 = run_experiment("fig13", scale="smoke")
        assert all(r["total_vs_mesh"] > 0 for r in fig13.rows)
        table6 = run_experiment("table6", scale="smoke")
        assert table6.single(config="mesh")["speedup_vs_mesh"] == 1.0

    def test_fig11_smoke(self):
        result = run_experiment("fig11", scale="smoke")
        assert all(0 < r["scalability"] < 5 for r in result.rows)


class TestCli:
    def test_main_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "table6" in out

    def test_main_list_topologies(self, capsys):
        # Registry menus print from registration metadata alone — no
        # config or topology construction — with aliases inline.
        from repro.experiments.__main__ import main

        assert main(["--list-topologies"]) == 0
        out = capsys.readouterr().out
        for family in ("mesh", "torus", "ruche", "mesh3d", "torus3d"):
            assert family in out
        assert "[aliases: mesh-3d]" in out
        assert "depth option sets layers" in out

    def test_main_list_other_registries(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list-routings", "--list-engines"]) == 0
        out = capsys.readouterr().out
        assert "mesh3d-dor" in out and "torus3d-dor" in out
        assert "compiled" in out and "reference" in out

    def test_main_list_patterns_routers_allocators(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list-patterns"]) == 0
        assert "uniform_random" in capsys.readouterr().out
        assert main(["--list-routers"]) == 0
        assert "fbfc" in capsys.readouterr().out
        assert main(["--list-allocators"]) == 0
        assert capsys.readouterr().out.strip()

    def test_main_runs_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table1"]) == 0
        assert "Physical scalability" in capsys.readouterr().out

    def test_report_file(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out_file = tmp_path / "report.md"
        assert main(["table1", "--output", str(out_file)]) == 0
        text = out_file.read_text()
        assert "# Ruche Networks reproduction report" in text
        assert "table1" in text and "```" in text

    def test_report_file_honours_campaign_options(
        self, tmp_path, monkeypatch
    ):
        """``--output`` used to drop ``--engine`` / ``--jobs`` /
        ``--preflight`` / ``--watchdog-cycles``: ``--engine compiled
        --output r.md`` swept on the reference engine."""
        from repro.experiments import report
        from repro.experiments.__main__ import main
        from repro.sim import fastsim

        options, engines = {}, []
        run_experiment, run_batch = (
            report.run_experiment, fastsim.run_compiled_batch
        )

        def recording_experiment(exp_id, scale=None, seed=0, **given):
            options.update(given)
            return run_experiment(exp_id, scale=scale, seed=seed, **given)

        def recording_batch(specs, **trackers):
            results = run_batch(specs, **trackers)
            engines.extend(result.engine for result in results)
            return results

        monkeypatch.setattr(report, "run_experiment", recording_experiment)
        monkeypatch.setattr(fastsim, "run_compiled_batch", recording_batch)
        out_file = tmp_path / "report.md"
        assert main([
            "fig6", "--scale", "smoke", "--engine", "compiled",
            "--jobs", "1", "--preflight", "--watchdog-cycles", "900",
            "--output", str(out_file),
        ]) == 0
        assert options == dict(
            engine="compiled", jobs=1, preflight=True, watchdog_cycles=900
        )
        assert engines and set(engines) == {"compiled-batch"}
        assert "## fig6" in out_file.read_text()

    def test_write_report_multiple(self, tmp_path):
        from repro.experiments.report import write_report

        path = write_report(
            tmp_path / "r.md", ids=["table1", "fig5"], scale="smoke"
        )
        text = path.read_text()
        assert "## table1" in text and "## fig5" in text


class TestWatchdogOption:
    """``--watchdog-cycles`` threads end-to-end: CLI -> registry ->
    campaign drivers -> ``WatchdogConfig(stall_window=...)``."""

    def test_campaign_drivers_accept_watchdog_cycles(self):
        import inspect

        from repro import chaos
        from repro.experiments import fault_degradation

        for driver in (fault_degradation.run, chaos.run):
            parameters = inspect.signature(driver).parameters
            assert "watchdog_cycles" in parameters
            assert "engine" in parameters

    def test_option_skipped_for_drivers_without_it(self):
        # table1 has no watchdog; the registry filters the option out
        # instead of crashing an `--watchdog-cycles` all-run.
        result = run_experiment("table1", watchdog_cycles=123)
        assert result.experiment_id == "table1"

    def test_cli_flag_reaches_the_driver(self, capsys, monkeypatch):
        """The two seams, without a campaign: the CLI hands the flag to
        the driver (through the registry's signature filter), and the
        driver's row hands it to the run as its watchdog."""
        import functools

        from repro.experiments import fault_degradation
        from repro.experiments.__main__ import main
        from repro.sim.simulator import RunResult

        seen = {}

        @functools.wraps(fault_degradation.run)
        def driver(**options):
            seen.update(options)
            return ExperimentResult("faults", "stub", [], options["scale"])

        monkeypatch.setattr(fault_degradation, "run", driver)
        assert main([
            "faults", "--scale", "smoke", "--watchdog-cycles", "400",
        ]) == 0
        assert seen["watchdog_cycles"] == 400
        assert seen["scale"] == "smoke"
        capsys.readouterr()

        def run_synthetic(config, pattern, rate, **given):
            seen.update(given)
            return RunResult(
                config.name, pattern, rate, 0.0, 0.0, 0.0, 0.0, 0, 0,
                drained=False, measure_cycles=1, avg_hops=0.0,
            )

        monkeypatch.setattr(fault_degradation, "run_synthetic", run_synthetic)
        fault_degradation._run_row(dict(
            config="mesh", scale="smoke", fault_count=0, fault_seed=0,
            seed=1, watchdog_cycles=400,
        ))
        assert seen["watchdog"].stall_window == 400


class TestMainFailurePath:
    def test_failing_driver_exits_nonzero(self, capsys):
        from repro.experiments.__main__ import main

        code = main(["fig99", "--scale", "smoke"])
        assert code == 1
        err = capsys.readouterr().err
        assert "fig99" in err and "FAILED" in err

    def test_unknown_experiment_prints_menu(self, capsys):
        """A typo'd id fails with every available id + description."""
        from repro.experiments.__main__ import main
        from repro.experiments.registry import describe, experiment_ids

        code = main(["nosuch"])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown experiment 'nosuch'" in err
        for exp_id in experiment_ids():
            assert exp_id in err
            assert describe(exp_id) in err

    def test_report_file_survives_failures(
        self, tmp_path, capsys, monkeypatch
    ):
        """``--output`` used to let an unknown or failing experiment
        escape as a raw traceback, losing every finished section."""
        from repro.experiments import __main__ as cli
        from repro.experiments import registry

        def boom(scale=None, seed=0):
            raise ValueError("driver exploded")

        monkeypatch.setitem(
            sys.modules, "boom_driver", types.SimpleNamespace(run=boom)
        )
        monkeypatch.setitem(
            registry._REGISTRY, "boom", ("boom_driver", "fails")
        )
        monkeypatch.setattr(
            cli, "experiment_ids",
            lambda: ["table1", "nosuch", "boom", "fig5"],
        )
        out_file = tmp_path / "r.md"
        code = cli.main(
            ["all", "--scale", "smoke", "--output", str(out_file)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert f"wrote {out_file}" in captured.out
        err = captured.err
        # The registry's menu verbatim, not KeyError's escaped repr.
        assert "[nosuch] FAILED: unknown experiment 'nosuch'" in err
        assert "\\n" not in err
        assert "[boom] FAILED: ValueError: driver exploded" in err
        assert "2 experiment(s) failed: nosuch, boom" in err
        text = out_file.read_text()
        assert "## table1" in text and "## fig5" in text
        assert "## boom" not in text

    def test_successful_driver_exits_zero(self, capsys):
        from repro.experiments.__main__ import main

        code = main(["fig5", "--scale", "smoke"])
        assert code == 0
        assert "[fig5]" in capsys.readouterr().out


@pytest.mark.parametrize("experiment", ["faults", "chaos"])
def test_fault_campaign_preflight_rejects_unknown_engine(
    experiment, monkeypatch
):
    """A typo'd ``--engine`` dies in the preflight, before the first
    row, as it does for the sweep drivers; it used to fail from a row."""
    from repro import chaos
    from repro.errors import ConfigError
    from repro.experiments import fault_degradation

    rows = []
    for module in (fault_degradation, chaos):
        monkeypatch.setattr(module, "_run_row", rows.append)
    with pytest.raises(
        ConfigError,
        match=r"campaign preflight failed:\s+unknown simulation engine "
        r"'compield'",
    ):
        run_experiment(
            experiment, scale="smoke", preflight=True, engine="compield"
        )
    assert rows == []


@pytest.mark.parametrize("experiment", ["faults", "chaos"])
def test_fault_campaign_preflight_certifies_each_rows_faults(
    experiment, monkeypatch
):
    """``--preflight`` certifies the design point every row routes on —
    its fault draw and the detour tables around it — and no bare
    healthy config; it used to certify only the healthy configs.  A row
    draws its schedule from the same spec (``_row_spec``), so the
    certified spec is the one the row runs."""
    from repro import chaos
    from repro.core.spec import NetworkSpec
    from repro.experiments import fault_degradation
    from repro.verify import preflight as preflight_mod

    certified = []
    real_certify = preflight_mod.certify_problems

    def spy(targets):
        certified.extend(targets)
        return real_certify(targets)

    monkeypatch.setattr(preflight_mod, "certify_problems", spy)

    class Stop(Exception):
        pass

    grid = []

    def campaign(rows, runner, *, preflight=None, **options):
        assert preflight() == []
        grid.extend(rows)
        raise Stop

    for module in (fault_degradation, chaos):
        monkeypatch.setattr(module, "run_campaign", campaign)
    with pytest.raises(Stop):
        run_experiment(experiment, scale="smoke", preflight=True)
    module = fault_degradation if experiment == "faults" else chaos
    assert certified == [module._row_spec(row) for row in grid]
    assert all(
        isinstance(spec, NetworkSpec) and spec.degraded_model
        for spec in certified
    )
    assert any(spec.fault_links for spec in certified)


class TestTailEngine:
    def test_engine_option_picks_the_engine(self, monkeypatch):
        """``tail`` used to ignore ``--engine``: every row said
        ``compiled`` whatever was asked for."""
        from repro.experiments import tail_latency

        monkeypatch.setitem(
            tail_latency._PRESETS, "smoke",
            dict(size=(8, 8), warmup=40, measure=120, drain=600),
        )
        compiled = run_experiment("tail", scale="smoke")
        reference = run_experiment("tail", scale="smoke", engine="reference")
        assert {row["engine"] for row in compiled.rows} == {"compiled"}
        assert {row["engine"] for row in reference.rows} == {"reference"}
        for fast, slow in zip(compiled.rows, reference.rows):
            assert dict(fast, engine=None) == dict(slow, engine=None)

    def test_cli_without_engine_keeps_the_default(self, capsys, monkeypatch):
        from repro.experiments import tail_latency
        from repro.experiments.__main__ import main

        monkeypatch.setitem(
            tail_latency._PRESETS, "smoke",
            dict(size=(8, 8), warmup=40, measure=120, drain=600),
        )
        assert main(["tail", "--scale", "smoke", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "compiled" in out and "reference" not in out
        assert main(["tail", "--scale", "smoke", "--engine", "reference"]) == 0
        out = capsys.readouterr().out
        assert "reference" in out and "compiled" not in out
