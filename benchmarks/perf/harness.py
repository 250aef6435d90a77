"""Parent side: spawn fresh children, judge correctness, report.

Closed loop, one client: one workload at a time from this single
process, ``jobs=1`` (the only wider thing is the traced run's ``jobs=2``
probe, which is ``nproc`` on the reference host).  A *visit* is what the
driver contract calls one run: :data:`SETUP_SAMPLES` fresh processes
that only set up (import, ``cc`` kernel build, grid build) and report
how long that took, the last of which carries on to run the body — see
:mod:`.child`.  Temp files (kernel build dir, traces, checkpoints) live
in a harness-owned directory under ``out/`` that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.perf.metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
SCHEMA = "repro-perf-v1"

#: Names are normative (ISSUE 11); order is the round-robin order.
WORKLOAD_NAMES = (
    "sweep_small",
    "scale_cold",
    "saturate_long",
    "faults_serial",
    "reference_bound",
    "manycore_chain",
)
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


# ----------------------------------------------------------------------
# Host honesty
# ----------------------------------------------------------------------
def _first_line(cmd: Sequence[str]) -> Optional[str]:
    try:
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip().splitlines()[0] if done.stdout.strip() else None


def host_info() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cc": _first_line([os.environ.get("CC", "cc"), "--version"]),
        "git_sha": _first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"]),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# One visit
# ----------------------------------------------------------------------
def _spawn(args: List[str], env: Dict[str, str]) -> Dict[str, Any]:
    """Run one child to completion and return its JSON result."""
    cmd = [
        sys.executable, "-m", "benchmarks.perf.child",
        *args, "--spawned-at", repr(time.monotonic()),
    ]
    # Own session, so a timeout can take the jobs=2 probe's workers too.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(
            f"benchmark child exited with {proc.returncode}: {' '.join(cmd)}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def _pinned() -> Dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def digest_key(name: str, seed: int, smoke: bool) -> str:
    return f"{name}/{'smoke' if smoke else 'full'}/{seed}"


def _problems(
    name: str, body: Dict[str, Any], seed: int, smoke: bool,
    pinned: Dict[str, str],
) -> List[str]:
    """Why this visit's outputs are wrong (empty = correct)."""
    if not body["kernel"]:
        return [
            "native kernel unavailable (no cc, or REPRO_NO_CKERNEL set): "
            "the pure-Python fallback is a different program"
        ]
    problems = []
    if body["failed"]:
        problems.append(f"{body['failed']} of {body['attempted']} rows failed")
    if not body["digests_agree"]:
        problems.append("stats_digest differs between runs of one process")
    want = pinned.get(digest_key(name, seed, smoke))
    if want is not None and want != body["digest"]:
        problems.append(
            f"stats_digest {body['digest'][:12]} != pinned {want[:12]}"
        )
    if body["stray_engines"]:
        problems.append(
            f"rows ran on unexpected engines: {body['stray_engines']}"
        )
    return problems


def run_visit(
    name: str, *, seed: int, seconds: float, trace: bool, smoke: bool,
    pinned: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """One workload, one fresh body process; returns the visit record."""
    if pinned is None:
        pinned = _pinned()
    OUT.mkdir(exist_ok=True)
    rundir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = rundir
    env["REPRO_TRACE_DIR"] = os.path.join(rundir, "traces")
    args = [
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--smoke", str(int(smoke)), "--tmpdir", rundir,
    ]
    span_file = OUT / f"trace-{name}.json"
    load_before = os.getloadavg()
    try:
        samples = 1 if smoke else SETUP_SAMPLES
        setups = [
            _spawn(args + ["--setup-only", "1"], env)["setup_s"]
            for _ in range(samples - 1)
        ]
        body = _spawn(
            args + ["--trace", str(int(trace)), "--span-file", str(span_file)],
            env,
        )
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    setups.append(body["setup_s"])
    load_after = os.getloadavg()
    problems = _problems(name, body, seed, smoke, pinned)
    visit: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "correct": not problems,
        "problems": problems,
        "setup_samples": setups,
        "load_before": load_before,
        "load_after": load_after,
        "host_busy": load_before[0] >= (os.cpu_count() or 1),
    }
    if not body["kernel"]:
        return {**visit, "attempted": 1, "failed": 1, "metrics": {}}
    attempted = body["attempted"]
    visit.update(
        attempted=attempted,
        failed=attempted if problems else 0,
        digest=body["digest"],
        digest_pinned=digest_key(name, seed, smoke) in pinned,
        sim_cycles=body["sim_cycles"],
        engines=body["engines"],
        first_run_s=body["first_run_s"],
        runs={"wall_s": body["wall_runs"], "cpu_s": body["cpu_runs"]},
    )
    if not trace:
        visit["wall_runs_raw"] = body["wall_runs_raw"]
        visit["host_slowdown"] = body["host_slowdown"]
    if trace:
        values = body["layers"]
        visit["span_file"] = str(span_file.relative_to(ROOT))
        specs = PER_LAYER
    else:
        # The runs are quiet-host estimates: child.py has divided out
        # the host slowdown sampled during each (README, *Host noise*).
        wall = statistics.median(body["wall_runs"])
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(body["cpu_runs"]),
            "sim_cycles_per_s": body["sim_cycles"] / wall,
            "peak_rss_mb": body["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        specs = END_TO_END
    visit["metrics"] = {
        m.name: {"value": values[m.name], "unit": m.unit} for m in specs
    }
    return visit


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_visit(visit: Dict[str, Any]) -> None:
    name = visit["workload"]
    flags = " host_busy" if visit["host_busy"] else ""
    print(
        f"[{name}] seed={visit['seed']} traced={int(visit['traced'])} "
        f"correct={visit['correct']} attempted={visit['attempted']} "
        f"failed_frac={visit['failed'] / visit['attempted']:.1f} "
        f"load={visit['load_before'][0]:.2f}->{visit['load_after'][0]:.2f}"
        f"{flags}"
    )
    for problem in visit["problems"]:
        print(f"[{name}]   PROBLEM: {problem}")
    if "digest" in visit:
        pinned = "pinned" if visit["digest_pinned"] else "unpinned seed"
        print(
            f"[{name}]   stats_digest={visit['digest'][:16]} ({pinned}) "
            f"sim_cycles={visit['sim_cycles']} engines={visit['engines']}"
        )
    runs = visit.get("runs", {})
    for metric, entry in visit["metrics"].items():
        line = f"[{name}]   {metric} = {entry['value']:.6g} {entry['unit']}"
        samples = runs.get(metric)
        if samples:
            # n is 3-9: no percentile has ten samples beyond it, so
            # median, min and max are all that is reported.
            line += (
                f"  (median of n={len(samples)}, min {min(samples):.4g}, "
                f"max {max(samples):.4g})"
            )
        print(line)
    if "host_slowdown" in visit:
        slow, raw = visit["host_slowdown"], visit["wall_runs_raw"]
        print(
            f"[{name}]   host slowdown during the runs "
            f"{min(slow):.2f}-{max(slow):.2f}x; raw wall median "
            f"{statistics.median(raw):.4g} s, min {min(raw):.4g} s"
        )


def contract_line(visit: Dict[str, Any]) -> str:
    """The driver contract's last stdout line for one visit."""
    return json.dumps(
        {
            "correct": visit["correct"],
            "attempted": visit["attempted"],
            "failed": visit["failed"],
            "metrics": visit["metrics"],
        }
    )


def run(args: argparse.Namespace) -> int:
    names = args.workload or list(WORKLOAD_NAMES)
    pinned = _pinned()
    passes = {"0": [False], "1": [True], "both": [False, True]}[args.trace]
    visits: List[Dict[str, Any]] = []
    for traced in passes:
        for _round in range(1 if traced else args.rounds):
            for name in names:  # round-robin: drift hits all equally
                visit = run_visit(
                    name, seed=args.seed, seconds=args.seconds,
                    trace=traced, smoke=args.smoke,
                    pinned={} if args.pin else pinned,
                )
                print_visit(visit)
                visits.append(visit)
    if args.pin:
        for visit in visits:
            pinned[
                digest_key(visit["workload"], args.seed, args.smoke)
            ] = visit["digest"]
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(pinned, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.json:
        report = {
            "schema": SCHEMA,
            "host": host_info(),
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "visits": visits,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    if len(visits) == 1:
        print(contract_line(visits[0]))
    return 0 if all(v["correct"] for v in visits) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from benchmarks.perf.compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="End-to-end and per-layer benchmark of the simulator "
        "(see benchmarks/perf/README.md); `compare A.json B.json` "
        "compares two result files.",
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOAD_NAMES,
        help="workload to run (repeatable; default: all six)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="how long each visit keeps timing body runs",
    )
    parser.add_argument(
        "--rounds", type=int, default=1,
        help="untraced visits per workload, round-robin",
    )
    parser.add_argument(
        "--trace", nargs="?", const="both", default="0",
        choices=("0", "1", "both"),
        help="0: end-to-end metrics; 1: per-layer metrics from a traced "
        "run; bare --trace: both",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny grids, one timed run (the smoke test's scale)",
    )
    parser.add_argument("--json", help="write every visit to this file")
    parser.add_argument(
        "--pin", action="store_true",
        help="record this run's stats_digests in digests.json instead of "
        "checking them (after an intended model change)",
    )
    return run(parser.parse_args(argv))
