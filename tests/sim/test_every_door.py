"""Every door, same run: one spec means one run however it is entered.

``build_run(spec)``, ``run_synthetic(spec)``, ``run_compiled(spec)`` and
``run_compiled_batch([spec])`` all resolve their arguments through
:func:`repro.core.spec.resolve_run` and execute the record it returns,
so every field of the spec — window, seed, faults, ``audit_every``,
budgets, engine — applies through each of them, an explicit keyword
overrides the field of the same name, and the analyzer
(``lowering_problems``) judges the record the executor runs.
"""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from property.settings import tiered_settings

from repro.core.spec import NetworkSpec, build_run
from repro.errors import SimulationError
from repro.experiments.campaign import run_campaign
from repro.experiments.sweeps import run_rate_sweep_row
from repro.sim.fastsim import (
    lowering_problems,
    run_compiled,
    run_compiled_batch,
)
from repro.sim.simulator import (
    multi_seed_run,
    run_synthetic,
    sweep_injection_rates,
)


def _batch_of_one(spec, **given):
    (outcome,) = run_compiled_batch([spec], **given)
    return outcome


DOORS = {
    "build_run": build_run,
    "run_synthetic": run_synthetic,
    "run_compiled": run_compiled,
    "run_compiled_batch": _batch_of_one,
}


def fingerprint(result):
    """Every metric of a run, excluding provenance (``engine``); NaN-safe
    (a window with no measured delivery has NaN latencies)."""
    fields = dataclasses.asdict(result)
    fields.pop("metrics")
    fields.pop("engine")
    measured = result.metrics.measured
    return repr((
        sorted(fields.items()),
        measured.count,
        measured.total,
        measured.total_sq,
        measured.min,
        measured.max,
        result.metrics.hop_counts,
        result.metrics.delivered_total,
        result.metrics.injected_total,
        result.metrics.dropped_total,
    ))


def _outcome(door, spec, **given):
    """``(what the run measured or raised, the engine that ran it)``."""
    try:
        result = DOORS[door](spec, **given)
    except SimulationError as exc:
        result = exc
    if isinstance(result, Exception):
        return (type(result).__name__, str(result)), None
    return fingerprint(result), result.engine


def _same(a, b):
    return a == b or (a != a and b != b)


#: The spec of ISSUE 22's Motivation: at the parent commit it ran 154
#: cycles on ``reference`` through two doors and 1503 on ``compiled``
#: through the other two.
MOTIVATION = NetworkSpec.for_network(
    "mesh", 4, 4, rate=0.2, warmup=50, measure=100, drain_limit=200,
    seed=7, audit_every=10, engine="compiled",
)


class TestPinnedExample:
    def test_motivation_spec_is_one_run(self):
        results = [DOORS[door](MOTIVATION) for door in DOORS]
        assert {r.total_cycles for r in results} == {154}
        assert {r.engine for r in results} == {"reference"}
        assert len({fingerprint(r) for r in results}) == 1
        assert [d.code for d in lowering_problems(MOTIVATION)] == [
            "audit-every"
        ]

    def test_without_the_audit_it_is_one_compiled_run(self):
        spec = MOTIVATION.replace(audit_every=None)
        results = [DOORS[door](spec) for door in DOORS]
        assert lowering_problems(spec) == []
        assert [r.engine for r in results] == [
            "compiled", "compiled", "compiled", "compiled-batch",
        ]
        assert {fingerprint(r) for r in results} == {
            fingerprint(build_run(MOTIVATION))
        }

    def test_sweeps_resolve_the_same_way(self):
        """The two multi-run helpers are doors too: a spec's window and
        seed apply, and their own keywords override them."""
        want = build_run(MOTIVATION)
        (point,) = sweep_injection_rates(MOTIVATION, None, [0.2])
        assert fingerprint(point) == fingerprint(want)
        stats = multi_seed_run(MOTIVATION, None, None, seeds=(7,))
        assert _same(stats["latency_mean"], want.avg_latency)
        assert stats["throughput_mean"] == want.accepted_throughput


class TestKeywords:
    @pytest.mark.parametrize("door", sorted(DOORS))
    def test_unknown_keyword_names_the_valid_ones(self, door):
        with pytest.raises(TypeError) as caught:
            DOORS[door](MOTIVATION, drain=5)
        message = str(caught.value)
        assert message.startswith(f"{door}() got unexpected keyword(s) drain")
        for name in ("drain_limit", "max_wall_seconds", "track_links"):
            assert name in message

    @pytest.mark.parametrize("door", ["run_synthetic", "run_compiled"])
    def test_bare_config_needs_pattern_and_rate(self, door):
        """One message, naming the function the caller used."""
        config = MOTIVATION.config()
        for args in ((), ("uniform_random",)):
            with pytest.raises(TypeError) as caught:
                DOORS[door](config, *args)
            assert str(caught.value).startswith(
                f"{door}(config, ...) requires explicit pattern and rate"
            )

    def test_bare_config_runs_on_the_spec_field_defaults(self):
        config = MOTIVATION.config()
        default = NetworkSpec.for_network("mesh", 4, 4, rate=0.2)
        assert (default.warmup, default.measure) == (500, 1000)
        want = fingerprint(build_run(default))
        for door in ("run_synthetic", "run_compiled"):
            got = DOORS[door](config, "uniform_random", 0.2)
            assert fingerprint(got) == want


_DESIGNS = (
    # (topology, width, height, permanent faults reroute there)
    ("mesh", 4, 4, True),
    ("ruche2-depop", 6, 4, True),
    ("torus", 4, 4, False),
)


@st.composite
def _specs(draw):
    name, width, height, reroutes = draw(st.sampled_from(_DESIGNS))
    return NetworkSpec.for_network(
        name, width, height,
        pattern=draw(
            st.sampled_from(["uniform_random", "tornado", "hotspot"])
        ),
        rate=draw(st.sampled_from([0.05, 0.2, 0.45])),
        warmup=draw(st.integers(0, 40)),
        measure=draw(st.integers(5, 60)),
        drain_limit=draw(st.integers(20, 150)),
        seed=draw(st.integers(0, 2**16)),
        audit_every=draw(st.sampled_from([None, 7])),
        max_cycles=draw(st.sampled_from([None, 30, 10_000])),
        fault_links=draw(st.integers(0, 2)) if reroutes else 0,
        fault_transient=draw(st.integers(0, 2)),
        fault_drop_prob=0.05,
        fault_seed=draw(st.integers(0, 7)),
        engine=draw(st.sampled_from([None, "reference", "compiled"])),
    )


class TestEveryDoorSameRun:
    @given(spec=_specs(), bump=st.integers(1, 9))
    @tiered_settings(20, deadline=None)
    def test_property_one_spec_one_run(self, spec, bump):
        outcomes = {door: _outcome(door, spec) for door in DOORS}
        measured = {what for what, _engine in outcomes.values()}
        assert len(measured) == 1, outcomes
        (what,) = measured
        ran = not isinstance(what, tuple)

        if ran and spec.engine == "compiled":
            # The analyzer judges the record the executor ran.
            lowers = not lowering_problems(spec)
            for door, (_what, engine) in outcomes.items():
                assert engine.startswith("compiled") == lowers, door
        elif ran:
            for door in ("build_run", "run_synthetic", "run_compiled_batch"):
                assert outcomes[door][1] == "reference", door

        # An explicit keyword beats the spec's field, through every door.
        override = dict(seed=spec.seed + bump, warmup=spec.warmup + bump)
        want = _outcome("build_run", spec.replace(**override))[0]
        for door in DOORS:
            assert _outcome(door, spec, **override)[0] == want, door

        # A campaign row built from the same fields is the same run (a
        # row carries no faults; a budget that did not trip is no field).
        if ran and not (spec.fault_links or spec.fault_transient):
            result = build_run(spec)
            (row,) = run_campaign(
                [dict(
                    config=spec.topology, width=spec.width,
                    height=spec.height, pattern=spec.pattern,
                    rates=[spec.rate], warmup=spec.warmup,
                    measure=spec.measure, drain=spec.drain_limit,
                    seed=spec.seed, engine=spec.engine,
                )],
                run_rate_sweep_row,
            ).rows
            assert _same(row["zero_load_latency"], result.avg_latency)
            assert row["saturation_throughput"] == result.accepted_throughput
