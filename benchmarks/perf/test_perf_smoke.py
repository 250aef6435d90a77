"""Smoke test of the benchmark harness (not a tier-1 test).

Run with ``python -m pytest benchmarks/perf -q``: every workload at
``--smoke`` scale, traced and untraced, in well under a minute.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf import harness
from benchmarks.perf.compare import verdict
from benchmarks.perf.hostspeed import HostSpeed
from benchmarks.perf.metrics import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}


def _cli(*args):
    return subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke --trace`` pass over all six workloads."""
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = _cli("--smoke", "--seconds", "0", "--trace", "--json", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as fh:
        return done.stdout, json.load(fh)


def test_benchmark_json_matches_the_harness():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(
        harness.WORKLOAD_NAMES
    )
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in doc["end_to_end"]
    ] == [tuple(m) for m in END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in doc["per_layer"]
    ] == [tuple(m)[:3] for m in PER_LAYER]
    for name in BY_NAME:
        assert NAME.fullmatch(name), name


def test_every_metric_is_reported_with_its_unit(smoke):
    stdout, report = smoke
    assert report["host"]["nproc"] and report["host"]["python"]
    by_pass = {False: END_TO_END, True: PER_LAYER}
    seen = set()
    for visit in report["visits"]:
        seen.add((visit["workload"], visit["traced"]))
        assert visit["correct"], visit["problems"]
        assert visit["failed"] == 0 and visit["attempted"] >= 1
        assert visit["digest_pinned"]  # seed 1 is pinned, and it matched
        assert len(visit["load_before"]) == 3
        for metric in by_pass[visit["traced"]]:
            entry = visit["metrics"][metric.name]
            assert entry["unit"] == metric.unit
            assert f"{metric.name} = " in stdout
    assert seen == {
        (name, traced)
        for name in harness.WORKLOAD_NAMES
        for traced in (False, True)
    }
    for name in harness.WORKLOAD_NAMES:
        assert (harness.OUT / f"trace-{name}.json").exists()
    assert not list(harness.OUT.glob("run-*"))  # temp dirs are removed


def test_contract_line_and_perturbed_digest():
    pinned = harness._pinned()
    key = harness.digest_key("scale_cold", 1, True)
    visit = harness.run_visit(
        "scale_cold", seed=1, seconds=0, trace=False, smoke=True,
        pinned={**pinned, key: "0" * 64},
    )
    assert not visit["correct"]
    assert visit["failed"] == visit["attempted"]  # failed_frac = 1.0
    line = json.loads(harness.contract_line(visit))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m.name for m in END_TO_END}
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_no_native_kernel_is_a_hard_failure(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    visit = harness.run_visit(
        "scale_cold", seed=1, seconds=0, trace=False, smoke=True
    )
    assert not visit["correct"]
    assert visit["failed"] == visit["attempted"] == 1


def test_compare_verdicts():
    wall = BY_NAME["wall_s"]  # lower is better, bound 0.25
    assert verdict(wall, [1.0, 1.01, 0.99], [1.02, 1.0, 1.01]) == "unchanged"
    assert verdict(wall, [1.0, 1.01, 0.99], [1.3, 1.31, 1.29]) == "regressed"
    assert verdict(wall, [1.0, 1.01, 0.99], [0.7, 0.71, 0.69]) == "improved"
    assert verdict(wall, [1.0, 1.4, 0.8], [1.2, 0.9, 1.5]) == "unresolved"
    rate = BY_NAME["sim_cycles_per_s"]  # higher is better
    assert verdict(rate, [100, 101, 99], [70, 71, 69]) == "regressed"


def test_host_speed_settles_against_the_floor():
    speed = HostSpeed()
    speed.floor = 1.0
    assert speed.settle([], 5.0) == (5.0, 1.0)  # too short to sample
    # 4 spins averaging 1.5x the floor, 6 s of them inside 16 s elapsed.
    assert speed.settle([1.0, 2.0, 1.0, 2.0], 16.0) == (10.0 / 1.5, 1.5)
    # A descheduled spin counts as 3x, and is subtracted in full.
    assert speed.settle([1.0, 9.0], 20.0) == (10.0 / 2.0, 2.0)
