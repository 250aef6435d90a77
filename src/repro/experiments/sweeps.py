"""Shared open-loop sweep harness for the figure drivers.

fig6 (Full Ruche), fig9 (Half Ruche), and fig8 (fairness) are all the
same experiment shape: a campaign grid of declarative design points, one
:class:`~repro.core.spec.NetworkSpec` per row, measured through
:func:`~repro.core.spec.build_run`.  This module owns the two row
functions (a load–latency rate sweep and a per-tile fairness
measurement) plus the grid builder, so each driver shrinks to its preset
table and its result framing.

Row functions are module-level and parameterized purely by a picklable
``params`` dict, so ``run_campaign(..., jobs=N)`` can ship rows to
worker processes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.fairness import summarize_per_tile
from repro.analysis.sweeps import saturation_throughput, zero_load_point
from repro.core.spec import NetworkSpec, build_run

#: ``options_for(config, width, height, pattern) -> config options``.
OptionsFn = Callable[[str, int, int, str], Dict[str, Any]]


def _row_spec(params: Dict[str, Any], rate: float) -> NetworkSpec:
    return NetworkSpec.for_network(
        params["config"],
        params["width"],
        params["height"],
        pattern=params["pattern"],
        rate=rate,
        warmup=params["warmup"],
        measure=params["measure"],
        drain_limit=params["drain"],
        seed=params["seed"],
        engine=params.get("engine"),
        **params.get("options", {}),
    )


def _rate_sweep_row_from_curve(
    params: Dict[str, Any], curve: Sequence[Any]
) -> Dict[str, Any]:
    size = f"{params['width']}x{params['height']}"
    depth = params.get("options", {}).get("depth")
    if depth and depth > 1:
        size += f"x{depth}"
    return {
        "size": size,
        "pattern": params["pattern"],
        "config": params["config"],
        "zero_load_latency": zero_load_point(curve).avg_latency,
        "saturation_throughput": saturation_throughput(curve),
    }


def run_rate_sweep_row(params: Dict[str, Any]) -> Dict[str, Any]:
    """One campaign row: a full load–latency sweep for one design point.

    ``params`` carries the design point (``config``, ``width``,
    ``height``, ``pattern``, optional config ``options``) and the
    measurement recipe (``rates``, ``warmup``, ``measure``, ``drain``,
    ``seed``); the row reports the curve's zero-load latency and
    saturation throughput.
    """
    curve = [
        build_run(_row_spec(params, rate)) for rate in params["rates"]
    ]
    return _rate_sweep_row_from_curve(params, curve)


def run_rate_sweep_rows(
    params_list: Sequence[Dict[str, Any]],
) -> List[Tuple[Optional[Dict[str, Any]], Optional[Exception]]]:
    """Many rate-sweep rows through one compiled batch.

    The batch ``runner`` counterpart of :func:`run_rate_sweep_row`: the
    specs of every row's every rate point are stacked into a single
    :func:`~repro.sim.fastsim.run_compiled_batch` invocation (rows the
    batch gate rejects transparently run per-spec inside it), and the
    outcomes are re-sliced into per-row curves.  Returns one
    ``(row, error)`` pair per entry of ``params_list``, in order: a row
    dict equal to what :func:`run_rate_sweep_row` would have produced,
    or the first exception (in rate order) the row's specs raised —
    exactly the error a serial run would have surfaced first.
    """
    from repro.sim.fastsim import run_compiled_batch

    specs: List[NetworkSpec] = []
    spans: List[Tuple[int, int]] = []
    for params in params_list:
        start = len(specs)
        specs.extend(
            _row_spec(params, rate) for rate in params["rates"]
        )
        spans.append((start, len(specs)))
    outcomes = run_compiled_batch(specs)
    out: List[Tuple[Optional[Dict[str, Any]], Optional[Exception]]] = []
    for params, (start, end) in zip(params_list, spans):
        slice_ = outcomes[start:end]
        error = next(
            (o for o in slice_ if isinstance(o, Exception)), None
        )
        if error is not None:
            out.append((None, error))
        else:
            out.append((_rate_sweep_row_from_curve(params, slice_), None))
    return out


def _fairness_spec(params: Dict[str, Any]) -> NetworkSpec:
    return NetworkSpec.for_network(
        params["config"],
        params["width"],
        params["height"],
        pattern="uniform_random",
        rate=params.get("rate", 0.02),
        warmup=params.get("warmup", 300),
        measure=params["measure"],
        drain_limit=params.get("drain", 5000),
        seed=params["seed"],
        engine=params.get("engine"),
    )


def _fairness_row_from_result(
    params: Dict[str, Any], result: Any
) -> Dict[str, Any]:
    summary = summarize_per_tile(
        result.config_name, result.metrics.per_source_means()
    )
    return {
        "config": params["config"],
        "mean_latency": summary.mean,
        "stddev": summary.stddev,
        "min_tile": summary.min_tile,
        "max_tile": summary.max_tile,
    }


def run_fairness_row(params: Dict[str, Any]) -> Dict[str, Any]:
    """One campaign row: per-tile latency statistics at low load."""
    result = build_run(_fairness_spec(params), track_per_source=True)
    return _fairness_row_from_result(params, result)


def run_fairness_rows(
    params_list: Sequence[Dict[str, Any]],
) -> List[Tuple[Optional[Dict[str, Any]], Optional[Exception]]]:
    """Many fairness rows through one compiled batch.

    Batch counterpart of :func:`run_fairness_row`; see
    :func:`run_rate_sweep_rows` for the outcome contract.
    """
    from repro.sim.fastsim import run_compiled_batch

    specs = [_fairness_spec(params) for params in params_list]
    outcomes = run_compiled_batch(specs, track_per_source=True)
    return [
        (None, o)
        if isinstance(o, Exception)
        else (_fairness_row_from_result(params, o), None)
        for params, o in zip(params_list, outcomes)
    ]


def rate_sweep_grid(
    *,
    scale: str,
    sizes: Sequence[Tuple[int, int]],
    patterns: Sequence[str],
    configs: Sequence[str],
    rates: Sequence[float],
    warmup: int,
    measure: int,
    drain: int,
    seed: int,
    configs_for: Optional[
        Callable[[Tuple[int, int]], Sequence[str]]
    ] = None,
    options_for: Optional[OptionsFn] = None,
    engine: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """A campaign grid of rate-sweep rows (sizes × patterns × configs).

    ``configs_for`` lets a driver vary the config list per array size
    (fig9 adds ruche4 on 64×8); ``options_for`` injects per-row config
    options (fig9's ``half`` / ``edge_memory``).  ``engine`` names the
    simulation engine every row runs on; ``None`` (the default) leaves
    the key out entirely, so pre-engine grids — and the checkpoint keys
    derived from them — are byte-identical to before.  Iteration order
    is sizes → patterns → configs, matching the historical drivers so
    row order — and with it every checkpoint and result file — is
    stable.
    """
    grid: List[Dict[str, Any]] = []
    for width, height in sizes:
        for pattern in patterns:
            names = (
                configs_for((width, height))
                if configs_for is not None
                else configs
            )
            for name in names:
                row: Dict[str, Any] = {
                    "scale": scale,
                    "width": width,
                    "height": height,
                    "pattern": pattern,
                    "config": name,
                    "seed": seed,
                    "rates": list(rates),
                    "warmup": warmup,
                    "measure": measure,
                    "drain": drain,
                }
                if engine is not None:
                    row["engine"] = engine
                if options_for is not None:
                    options = options_for(name, width, height, pattern)
                    if options:
                        row["options"] = options
                grid.append(row)
    return grid


def grid_preflight(
    grid: Sequence[Dict[str, Any]],
) -> Callable[[], List[str]]:
    """A campaign ``preflight`` thunk for one sweep grid.

    Certifies every distinct design point in the grid with the table
    certifier (:mod:`repro.verify.certify`) and checks every named
    simulation engine against the
    :data:`~repro.core.registry.ENGINES` registry, so a typo'd
    ``--engine`` or an illegal config aborts the campaign before the
    first row simulates.
    """
    from repro.core.params import NetworkConfig
    from repro.verify import campaign_preflight

    configs = [
        NetworkConfig.from_name(
            row["config"],
            row["width"],
            row["height"],
            **row.get("options", {}),
        )
        for row in grid
    ]
    return campaign_preflight(
        configs, engines=[row.get("engine") for row in grid]
    )
