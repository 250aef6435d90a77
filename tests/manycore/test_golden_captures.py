"""Manycore captures against digests committed before the loop changed.

``golden_captures.json`` holds, per run key, the sha256 of the run —
``MachineStats`` plus the ``fwd`` / ``rev`` ``Trace.to_bytes()`` — and of
the per-core ``CoreStats`` tuples (``finish_cycle`` included).  It was
written by the machine that stepped every core and every endpoint every
cycle; whatever schedules the machine since must reproduce it byte for
byte, on both engines.

Tier-1 checks the smoke suite on the six paper fabrics at 8x4 and the
three ``manycore_chain`` benchmark keys at 16x8, each compiled and
reference; ``REPRO_TEST_INTENSITY=full`` adds the 36 quick-scale 16x8
captures behind Figures 10-13.  Regenerate (only when the *model* is
meant to change) with ``python tests/manycore/test_golden_captures.py``.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
from property.settings import intensity

from repro.experiments.manycore_runs import (
    FABRICS,
    kernel_params,
    suite_keys,
)
from repro.manycore import Machine, MachineConfig, build_workload
from repro.manycore.core_model import CoreStats
from repro.sim import fastsim
from repro.sim.trace import TraceRecorder

GOLDEN_PATH = Path(__file__).with_name("golden_captures.json")

#: The ``manycore_chain`` workload of ``benchmarks/perf`` (its inputs
#: are not importable from the test tree; its pinned digest covers the
#: stats only).
CHAIN_KEYS = [
    ("jacobi", "mesh", 16, 8, "smoke"),
    ("fft", "half-torus", 16, 8, "smoke"),
    ("spgemm-CA", "ruche2-depop", 16, 8, "smoke"),
]
SMOKE_KEYS = suite_keys("smoke", 8, 4, FABRICS)
QUICK_KEYS = suite_keys("quick", 16, 8)


def key_id(key):
    benchmark, network, width, height, scale = key
    return f"{benchmark}/{network}/{width}x{height}/{scale}"


def build_machine(key, engine):
    """The machine ``manycore_runs._simulate`` builds, on ``engine``."""
    benchmark, network, width, height, scale = key
    mcfg = MachineConfig(network=network, width=width, height=height)
    workload = build_workload(
        benchmark, mcfg, **kernel_params(benchmark, scale)
    )
    return Machine(
        mcfg, workload, recorder=TraceRecorder(), engine=engine
    )


def core_rows(machine):
    """Every core's ``CoreStats``, as tuples in core order."""
    return [
        tuple(getattr(core.stats, name) for name in CoreStats.__slots__)
        for core in machine.cores.values()
    ]


def digests(machine, stats):
    """``{"run": sha256, "cores": sha256}`` of a machine that ran."""
    traces = machine.finalize_traces()
    run = hashlib.sha256()
    run.update(
        json.dumps(dataclasses.asdict(stats), sort_keys=True).encode()
    )
    run.update(traces["fwd"].to_bytes())
    run.update(traces["rev"].to_bytes())
    cores = hashlib.sha256(repr(core_rows(machine)).encode())
    return {"run": run.hexdigest(), "cores": cores.hexdigest()}


def capture(key, engine):
    machine = build_machine(key, engine)
    stats = machine.run(max_cycles=3_000_000)
    assert stats.completed and machine.engine == engine
    return digests(machine, stats)


def golden():
    return json.loads(GOLDEN_PATH.read_text())


needs_kernel = pytest.mark.skipif(
    fastsim._native_kernel() is None,
    reason="no native kernel: every machine runs on reference",
)


@pytest.mark.parametrize(
    "engine", [pytest.param("compiled", marks=needs_kernel), "reference"]
)
@pytest.mark.parametrize("key", SMOKE_KEYS + CHAIN_KEYS, ids=key_id)
def test_capture_equals_golden(key, engine):
    assert capture(key, engine) == golden()[key_id(key)]


def test_golden_file_names_exactly_the_checked_keys():
    assert sorted(golden()) == sorted(
        map(key_id, SMOKE_KEYS + CHAIN_KEYS + QUICK_KEYS)
    )


@needs_kernel
@pytest.mark.skipif(
    intensity() != "full",
    reason="REPRO_TEST_INTENSITY=full runs the quick suite",
)
@pytest.mark.parametrize("key", QUICK_KEYS, ids=key_id)
def test_quick_capture_equals_golden(key):
    """The 36 captures Figures 10-13 aggregate at ``--scale quick``."""
    assert capture(key, "compiled") == golden()[key_id(key)]


if __name__ == "__main__":
    assert fastsim._native_kernel() is not None, "needs the native kernel"
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                key_id(key): capture(key, "compiled")
                for key in SMOKE_KEYS + CHAIN_KEYS + QUICK_KEYS
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
