"""Declarative network specs and the single construction path.

A :class:`NetworkSpec` is a frozen, JSON-serializable description of one
simulation design point: topology name and dimensions, config options,
routing/router/allocator overrides, traffic pattern and rate, the
three-phase measurement window, and the fault/watchdog knobs.  Specs are
hashable (options are stored as a sorted tuple of pairs), so they can
key caches and campaign checkpoints directly.

Construction of simulator objects goes through this module and nowhere
else:

* :func:`build_network` — a wired :class:`~repro.sim.network.Network`
  from a spec or a bare :class:`~repro.core.params.NetworkConfig`;
* :func:`resolve_run` — one open-loop measurement, resolved: the
  :class:`ResolvedRun` record every simulation entry point builds first
  and every engine executes;
* :func:`build_run` — that record for a spec, run;
* :func:`build_routing` / :func:`build_pattern` — the named component
  lookups behind the network;
* :func:`network_components` — the (topology, routing, matrix, port
  graph) bundle both engines consume.

Topology names resolve through :data:`repro.core.registry.TOPOLOGIES`,
so a plugin registered with
:func:`~repro.core.registry.register_topology` is constructible,
simulable, and statically verifiable with zero core changes.

Layering: this module lives in ``core`` and therefore never imports
``repro.sim`` at module level — simulator classes are imported lazily
inside the build functions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core.connectivity import (
    Matrix,
    connectivity_matrix,
    fault_tolerant_matrix,
)
from repro.core.params import DorOrder, NetworkConfig, TopologyKind
from repro.core.portgraph import PortGraph
from repro.core.registry import (
    ENGINES,
    ROUTINGS,
    TOPOLOGIES,
    TopologyProvider,
    register_topology,
)
from repro.core.routing import (
    FaultAwareTableRouting,
    RoutingAlgorithm,
    make_routing,
)
from repro.core.topology import Topology, make_topology
from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.sim.network import Network
    from repro.sim.simulator import RunResult

#: Config overrides frozen as a sorted tuple of pairs (hashable).
Options = Tuple[Tuple[str, Any], ...]


def _freeze_options(options: Mapping[str, Any]) -> Options:
    return tuple(sorted(options.items()))


# ----------------------------------------------------------------------
# The spec
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class NetworkSpec:
    """One simulation design point, declaratively.

    Only ``topology``, ``width``, and ``height`` are required; the
    defaults are the open-loop methodology every run starts from
    (:func:`resolve_run` reads them for bare configs too).  ``options``
    are keyword overrides forwarded to the topology's config factory
    (for the builtin families:
    :meth:`~repro.core.params.NetworkConfig.from_name` keywords such as
    ``half`` or ``edge_memory``).
    """

    #: Registered topology name (``"mesh"``, ``"ruche2-depop"``, a
    #: plugin name, ...).
    topology: str
    width: int
    height: int
    options: Options = ()
    #: Optional named overrides; ``None`` means the topology's default.
    routing: Optional[str] = None
    router: Optional[str] = None
    allocator: Optional[str] = None
    #: Traffic.
    pattern: str = "uniform_random"
    rate: float = 0.1
    #: Three-phase measurement window.
    warmup: int = 500
    measure: int = 1000
    drain_limit: int = 3000
    seed: int = 1
    #: Fault injection (``FaultSchedule.random_mixed`` arguments); all
    #: counts zero without ``degraded_model`` means no faults.
    fault_links: int = 0
    fault_routers: int = 0
    fault_transient: int = 0
    fault_drop_prob: float = 0.01
    fault_seed: int = 0
    degraded_model: bool = False
    #: Watchdog thresholds; ``None`` keeps the simulator defaults.
    stall_window: Optional[int] = None
    starvation_window: Optional[int] = None
    #: Tripwires and budgets (see :func:`~repro.sim.simulator.run_synthetic`).
    audit_every: Optional[int] = None
    max_cycles: Optional[int] = None
    max_wall_seconds: Optional[float] = None
    #: Simulation engine (a :data:`repro.core.registry.ENGINES` name;
    #: :func:`engine_name` says what ``None`` means).  Engines are
    #: equivalent by contract, so this is a performance knob, not a
    #: semantic one.
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.options, tuple):
            object.__setattr__(
                self, "options", _freeze_options(dict(self.options))
            )

    # -- construction helpers ------------------------------------------
    @classmethod
    def for_network(
        cls, topology: str, width: int, height: int, **kwargs: Any
    ) -> "NetworkSpec":
        """Build a spec, sorting unknown keywords into ``options``.

        ``NetworkSpec.for_network("ruche2-depop", 16, 8, half=True,
        pattern="tile_to_memory", edge_memory=True)`` puts ``half`` and
        ``edge_memory`` into ``options`` and ``pattern`` into the spec
        field of that name.
        """
        field_names = frozenset(
            f.name for f in dataclasses.fields(cls)
        )
        spec_kwargs: Dict[str, Any] = {}
        options: Dict[str, Any] = {}
        for key, value in kwargs.items():
            if key in field_names:
                spec_kwargs[key] = value
            else:
                options[key] = value
        return cls(
            topology=topology,
            width=width,
            height=height,
            options=_freeze_options(options),
            **spec_kwargs,
        )

    def replace(self, **changes: Any) -> "NetworkSpec":
        """A copy with ``changes`` applied; ``options`` may be a dict."""
        if "options" in changes and not isinstance(
            changes["options"], tuple
        ):
            changes["options"] = _freeze_options(dict(changes["options"]))
        return dataclasses.replace(self, **changes)

    def with_options(self, **options: Any) -> "NetworkSpec":
        """A copy with ``options`` merged over the existing ones."""
        merged = dict(self.options)
        merged.update(options)
        return dataclasses.replace(
            self, options=_freeze_options(merged)
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict; round-trips through :meth:`from_dict`."""
        data: Dict[str, Any] = dataclasses.asdict(self)
        data["options"] = dict(self.options)
        return data

    def content_hash(self) -> str:
        """Stable content address of this design point (sha256 hex).

        Computed over the canonical JSON rendering (sorted keys, no
        whitespace), so — unlike ``hash()``, which is salted per process
        for strings — two processes, or two runs years apart, derive the
        same digest for the same spec.  This is the join key between
        certification reports, campaign checkpoints, and the planned
        content-addressed result store.
        """
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NetworkSpec":
        payload = dict(data)
        raw_options = payload.pop("options", {})
        if isinstance(raw_options, Mapping):
            options = _freeze_options(raw_options)
        else:
            options = tuple(
                (str(key), value) for key, value in raw_options
            )
        return cls(options=options, **payload)

    # -- resolution ------------------------------------------------------
    def provider(self) -> TopologyProvider:
        return resolve_topology(self.topology)

    def config(self) -> NetworkConfig:
        """The :class:`NetworkConfig` this spec materializes."""
        return build_config(self)


# ----------------------------------------------------------------------
# Builtin topology families
# ----------------------------------------------------------------------
def _from_name(
    name: str, width: int, height: int, **options: Any
) -> NetworkConfig:
    # Specs keep options JSON-serializable (content_hash canonicalizes
    # them), so ``dor_order`` arrives as "xy"/"yx" and is coerced here.
    dor = options.get("dor_order")
    if isinstance(dor, str):
        options["dor_order"] = DorOrder(dor)
    return NetworkConfig.from_name(name, width, height, **options)


register_topology(
    "mesh", description="2D mesh (Figure 1a)"
)(_from_name)
register_topology(
    "torus", description="folded torus, 2 VCs or FBFC (Figure 1b)"
)(_from_name)
register_topology(
    "half-torus",
    description="horizontal rings only (Figure 1c)",
    aliases=("halftorus", "half_torus"),
)(_from_name)
register_topology(
    "multimesh",
    description="two parallel meshes, parity-balanced (Figure 3a)",
    aliases=("multi-mesh", "multi_mesh"),
)(_from_name)
register_topology(
    "ruche",
    description=(
        "Ruche family: ruche<RF>[-pop|-depop], Full or Half "
        "(Figures 1d-1f)"
    ),
)(_from_name)


def resolve_topology(name: str) -> TopologyProvider:
    """The provider for a topology name.

    Exact registrations win (so a plugin can claim any name); otherwise
    paper-style ``ruche<RF>[-pop|-depop]`` names fall back to the
    builtin Ruche family, whose config factory parses the grammar.  A
    miss raises :class:`~repro.errors.ConfigError` listing every
    registered topology.
    """
    lowered = name.strip().lower()
    if lowered in TOPOLOGIES:
        return TOPOLOGIES.get(lowered)
    base = lowered
    if base.endswith("-fbfc"):
        base = base[: -len("-fbfc")]
    if base in TOPOLOGIES:
        return TOPOLOGIES.get(base)
    if base.startswith("ruche"):
        return TOPOLOGIES.get("ruche")
    return TOPOLOGIES.get(lowered)  # raises with the available names


def build_config(spec: NetworkSpec) -> NetworkConfig:
    """The :class:`NetworkConfig` for a spec, via its provider."""
    provider = resolve_topology(spec.topology)
    config = provider.config_factory(
        spec.topology, spec.width, spec.height, **dict(spec.options)
    )
    if not isinstance(config, NetworkConfig):
        raise ConfigError(
            f"topology {spec.topology!r}: config factory returned "
            f"{type(config).__name__}, expected NetworkConfig"
        )
    return config


#: NetworkConfig field defaults, for :func:`spec_for_config` to elide.
_CONFIG_FIELD_DEFAULTS: Dict[str, Any] = {
    f.name: f.default
    for f in dataclasses.fields(NetworkConfig)
    if f.default is not dataclasses.MISSING
}


def spec_for_config(
    config: NetworkConfig, **spec_fields: Any
) -> NetworkSpec:
    """The :class:`NetworkSpec` that rebuilds ``config``.

    The inverse of :func:`build_config` for the builtin families:
    ``build_config(spec_for_config(c)) == c`` for every design point
    :meth:`NetworkConfig.from_name` can express.  This lets reports
    produced from bare configs (the verifier's paper matrix) carry the
    same :meth:`NetworkSpec.content_hash` join key as spec-driven runs.
    ``spec_fields`` forwards additional spec fields (``pattern``,
    ``rate``, ``seed``, ...).
    """
    options: Dict[str, Any] = {}
    if config.kind is TopologyKind.HALF_RUCHE:
        options["half"] = True
    if config.dor_order is not DorOrder.XY:
        # Stored as the enum's string value: options must stay
        # JSON-serializable for content_hash (coerced in _from_name).
        options["dor_order"] = config.dor_order.value
    if not config.depopulated and config.kind in (
        TopologyKind.MESH,
        TopologyKind.FOLDED_TORUS,
        TopologyKind.HALF_TORUS,
    ):
        # Ruche population is encoded in the name (-pop/-depop);
        # Ruche-One and multi-mesh force fully-populated anyway.
        options["depopulated"] = False
    for field in (
        "channel_width_bits",
        "fifo_depth",
        "num_vcs",
        "edge_memory",
        "channel_latency",
        "ruche_channel_latency",
        "depth",
    ):
        value = getattr(config, field)
        if value != _CONFIG_FIELD_DEFAULTS[field]:
            options[field] = value
    return NetworkSpec.for_network(
        config.name, config.width, config.height, **options, **spec_fields
    )


def default_router_kind(config: NetworkConfig) -> str:
    """The registered router kind a config's routers default to."""
    if config.uses_vcs:
        return "vc"
    if config.fbfc:
        return "fbfc"
    return "wormhole"


# ----------------------------------------------------------------------
# Component resolution
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class NetworkComponents:
    """The construction bundle one :class:`Network` consumes.

    ``graph`` is the run's port graph, emitted once: both engines wire
    it and the fault-aware routing is tabulated on it.  Nothing keeps
    the bundle, so a healthy run's graph goes once it is wired.
    """

    topology: Topology
    routing: RoutingAlgorithm
    matrix: Matrix
    graph: PortGraph


def build_routing(
    config: NetworkConfig,
    *,
    name: Optional[str] = None,
    faults: Optional[Any] = None,
) -> RoutingAlgorithm:
    """The routing algorithm for a design point.

    ``name`` selects a registered algorithm; ``faults`` (a
    :class:`~repro.sim.faults.FaultSchedule` whose ``affects_routing``
    is true) switches to BFS detour tables computed around the dead
    links/routers.  With neither, the config's builtin algorithm is
    used (memoized per config).
    """
    if faults is not None and faults.affects_routing:
        return FaultAwareTableRouting(
            config, faults.graph, faults.killed_channels, faults.dead_routers
        )
    if name is not None:
        factory = ROUTINGS.get(name)
        named = factory(config)
        if not isinstance(named, RoutingAlgorithm):
            raise ConfigError(
                f"routing {name!r} built {type(named).__name__}, "
                f"expected a RoutingAlgorithm"
            )
        return named
    return make_routing(config)


def build_pattern(name: str, config: NetworkConfig) -> Any:
    """The destination function for a registered traffic pattern.

    Pattern names may carry a colon-separated argument (e.g.
    ``"trace_replay:<path>"``): the base name resolves through the
    registry, the argument reaches the factory verbatim.
    """
    from repro.core.registry import PATTERNS

    import repro.sim.traffic  # noqa: F401 - registers builtin patterns

    base, sep, arg = name.strip().partition(":")
    factory = PATTERNS.get(base.strip().lower())
    if sep:
        return factory(config, arg)
    return factory(config)


def network_components(
    config: NetworkConfig,
    *,
    faults: Optional[Any] = None,
    provider: Optional[TopologyProvider] = None,
    routing_name: Optional[str] = None,
) -> NetworkComponents:
    """Resolve the (topology, routing, matrix, graph) bundle for a network.

    The provider's factories (when given) override the builtin
    components.  The port graph is emitted once here, or, under a fault
    schedule, is the graph the faults were drawn on (a schedule drawn
    for another design point is a :class:`ConfigError`).  Fault
    schedules that affect routing force the builtin topology, the
    fault-aware tables on that graph, and the fully-connected crossbar
    — degraded detours need turns the DOR crossbars lack.
    """
    reroute = faults is not None and faults.affects_routing
    if reroute and provider is not None and provider.has_custom_components:
        raise ConfigError(
            f"topology {provider.name!r}: fault-aware routing is "
            f"not supported for plugin topologies"
        )
    emitter = getattr(provider, "topology_factory", None) or make_topology
    topology = emitter(config)
    if faults is None:
        graph = topology.port_graph()
    elif faults.config == config and faults.emitter is emitter:
        graph = faults.graph
    else:
        raise ConfigError(
            "a fault schedule runs only on the topology it was drawn "
            "on; draw it for this design point (build_faults)"
        )
    if reroute:
        routing = build_routing(config, faults=faults)
        return NetworkComponents(
            topology, routing, fault_tolerant_matrix(config), graph
        )
    routing_factory = getattr(provider, "routing_factory", None)
    if routing_name is None and routing_factory is not None:
        routing = routing_factory(config)
    else:
        routing = build_routing(config, name=routing_name)
    matrix = getattr(provider, "matrix_factory", None) or connectivity_matrix
    return NetworkComponents(topology, routing, matrix(config), graph)


def resolve_components(
    target: "Any", config: NetworkConfig, faults: Optional[Any]
) -> Tuple[NetworkComponents, str, Optional[str]]:
    """What a network of ``target`` is made of, resolved by name.

    Returns ``(components, router kind, allocator name)`` for a
    :class:`NetworkSpec` or a bare :class:`NetworkConfig` whose config
    is ``config``: the provider's components under the spec's routing
    override (or the fault-aware variants under ``faults``), the named
    router kind or the config's default, and the named allocator.  The
    one resolution shared by :func:`build_network` and the compiled
    engine's lowering, so both wire the same parts.
    """
    if isinstance(target, NetworkSpec):
        provider: Optional[TopologyProvider] = resolve_topology(
            target.topology
        )
        routing_name, router, allocator = (
            target.routing, target.router, target.allocator,
        )
    else:
        provider = routing_name = router = allocator = None
    components = network_components(
        config, faults=faults, provider=provider, routing_name=routing_name
    )
    if router is None:
        router = default_router_kind(config)
    return components, router, allocator


# ----------------------------------------------------------------------
# Fault / watchdog materialization
# ----------------------------------------------------------------------
def build_faults(spec: NetworkSpec, config: NetworkConfig) -> Optional[Any]:
    """The spec's :class:`~repro.sim.faults.FaultSchedule` (or None).

    Drawn on the channels the spec's runs wire: a plugin topology's own
    graph, not the builtin one of its config.
    """
    if (
        spec.fault_links <= 0
        and spec.fault_routers <= 0
        and spec.fault_transient <= 0
        and not spec.degraded_model
    ):
        return None
    from repro.sim.faults import FaultSchedule

    return FaultSchedule._drawn(
        resolve_topology(spec.topology).topology_factory or make_topology,
        config,
        spec.fault_links,
        spec.fault_routers,
        spec.fault_transient,
        spec.fault_drop_prob,
        spec.fault_seed,
        spec.degraded_model,
    )


def build_watchdog(spec: NetworkSpec) -> Optional[Any]:
    """The spec's :class:`~repro.sim.watchdog.WatchdogConfig` (or None)."""
    if spec.stall_window is None and spec.starvation_window is None:
        return None
    from repro.sim.watchdog import WatchdogConfig

    kwargs: Dict[str, Any] = {}
    if spec.stall_window is not None:
        kwargs["stall_window"] = spec.stall_window
    if spec.starvation_window is not None:
        kwargs["starvation_window"] = spec.starvation_window
    return WatchdogConfig(**kwargs)


def engine_name(engine: Optional[str]) -> str:
    """The :data:`~repro.core.registry.ENGINES` name ``engine`` selects.

    ``None`` (a spec's default, an unset ``--engine``) means
    ``"reference"`` — written here and nowhere else.
    """
    return (engine or "reference").strip().lower()


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _wire_network(
    target: Union[NetworkSpec, NetworkConfig],
    config: NetworkConfig,
    faults: Optional[Any],
    watchdog: Optional[Any],
    **endpoints: Any,
) -> "Network":
    """A :class:`Network` of ``target``'s parts, already resolved."""
    from repro.sim.network import Network

    components, router, allocator = resolve_components(target, config, faults)
    return Network(
        config,
        components,
        router,
        allocator,
        faults=faults,
        watchdog=watchdog,
        **endpoints,
    )


def build_network(
    target: "Any",
    *,
    metrics: Optional[Any] = None,
    sink_factory: Optional[Any] = None,
    memory_sink_factory: Optional[Any] = None,
    faults: Optional[Any] = None,
    watchdog: Optional[Any] = None,
) -> "Network":
    """Materialize a :class:`~repro.sim.network.Network`.

    ``target`` is a :class:`NetworkSpec` or a bare
    :class:`NetworkConfig`.  For a spec, the topology provider's
    components, the named routing/router/allocator overrides, and the
    spec's fault/watchdog options (unless explicitly overridden here)
    are all resolved through the registries.  This (or
    :meth:`ResolvedRun.network`) is the only way to get a network:
    :class:`~repro.sim.network.Network` resolves no parts of its own.
    """
    if isinstance(target, NetworkConfig):
        config = target
    else:
        config = build_config(target)
        if faults is None:
            faults = build_faults(target, config)
        if watchdog is None:
            watchdog = build_watchdog(target)
    return _wire_network(
        target,
        config,
        faults,
        watchdog,
        metrics=metrics,
        sink_factory=sink_factory,
        memory_sink_factory=memory_sink_factory,
    )


@dataclasses.dataclass(frozen=True)
class ResolvedRun:
    """One open-loop run with nothing left to decide.

    What :func:`resolve_run` returns and every simulation engine takes:
    the design point (``target`` as the caller named it — a spec keeps
    its provider and named overrides — and the ``config`` it builds),
    the traffic, the three-phase window, the materialized fault schedule
    and watchdog, the tripwires and budgets, the registered ``engine``
    asked for, and the three metric trackers.  Every field after
    ``config`` is a keyword of the entry points that build one.
    """

    target: Union[NetworkSpec, NetworkConfig]
    config: NetworkConfig
    pattern: str
    rate: float
    warmup: int
    measure: int
    drain_limit: int
    seed: int
    faults: Optional[Any]
    watchdog: Optional[Any]
    audit_every: Optional[int]
    max_cycles: Optional[int]
    max_wall_seconds: Optional[float]
    engine: str
    track_per_source: bool = False
    keep_samples: bool = False
    track_links: bool = False

    def network(self, metrics: Optional[Any] = None) -> "Network":
        """A fresh reference network of this run's design point."""
        return _wire_network(
            self.target,
            self.config,
            self.faults,
            self.watchdog,
            metrics=metrics,
        )

    def execute(self) -> "RunResult":
        """Run on the registered engine this record names."""
        result: "RunResult" = ENGINES.get(self.engine)(self)
        return result


def resolve_run(
    door: str,
    target: Union[NetworkSpec, NetworkConfig],
    pattern: Optional[str] = None,
    rate: Optional[float] = None,
    **given: Any,
) -> ResolvedRun:
    """Resolve one run's parameters, once, for every entry point.

    ``door`` names the public function the caller used (for error
    messages); ``given`` are that call's keywords, which may be any
    :class:`ResolvedRun` field after ``config``.  A keyword that is
    passed (and not ``None``) wins; whatever is left comes from the
    spec's field of the same name — ``faults`` and ``watchdog`` from
    :func:`build_faults` / :func:`build_watchdog` — and the trackers
    default to off.  A bare :class:`NetworkConfig` carries no such
    fields: it must name its ``pattern`` and ``rate``, and runs on the
    :class:`NetworkSpec` field defaults for the rest.  ``engine`` is
    normalised by :func:`engine_name`.
    """
    names = [f.name for f in dataclasses.fields(ResolvedRun)[2:]]
    unknown = sorted(set(given).difference(names))
    if unknown:
        raise TypeError(
            f"{door}() got unexpected keyword(s) {', '.join(unknown)}; "
            f"a run takes {', '.join(names)}"
        )
    if isinstance(target, NetworkSpec):
        source, config = target, build_config(target)
    elif pattern is None or rate is None:
        raise TypeError(
            f"{door}(config, ...) requires explicit pattern and rate "
            f"(only NetworkSpec carries defaults)"
        )
    else:
        # Only its field defaults are read.
        source = NetworkSpec(target.name, target.width, target.height)
        config = target
    run = {
        name: value
        for name, value in dict(given, pattern=pattern, rate=rate).items()
        if value is not None
    }
    for name in names:
        if name not in run and hasattr(source, name):
            run[name] = getattr(source, name)
    if "faults" not in run:
        run["faults"] = build_faults(source, config)
    if "watchdog" not in run:
        run["watchdog"] = build_watchdog(source)
    run["engine"] = engine_name(run["engine"])
    return ResolvedRun(target, config, **run)


def build_run(spec: NetworkSpec, **trackers: Any) -> "RunResult":
    """One open-loop measurement of a spec.

    Every field of the spec applies — traffic, window, seed, faults,
    watchdog, tripwires, budgets, engine — through :func:`resolve_run`;
    ``trackers`` (``track_per_source``, ``keep_samples``,
    ``track_links``) are that resolver's keywords.  The network itself
    is built from the resolved parts, so plugin topologies and named
    overrides apply.
    """
    return resolve_run("build_run", spec, **trackers).execute()


# The 3-D topology pack registers its families (mesh3d / torus3d) on
# import; pulled in here so any spec-layer consumer sees them without a
# separate import, exactly like the builtin 2-D registrations above.
import repro.core.topo3d  # noqa: E402,F401  isort:skip
