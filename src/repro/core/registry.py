"""Named component registries for the network construction path.

The paper's whole evaluation is a sweep over design points — topology
family x dimensions x Ruche Factor x population x routing x traffic —
so every axis that varies is registered here under a stable name:
topologies, routing algorithms, router microarchitectures, traffic
patterns, and switch allocators.  :mod:`repro.core.spec` resolves names
through these registries when it builds a network, which makes each
axis pluggable: an out-of-tree module can register a new topology (see
``examples/plugin_topology.py``) and every consumer — simulator, static
verifier, benchmarks, experiment drivers — picks it up without a core
change.

Builtin components self-register when their defining module is imported
(:mod:`repro.core.routing` for routing algorithms,
:mod:`repro.sim.router` for router kinds, :mod:`repro.sim.traffic` for
patterns, :mod:`repro.sim.allocator` for allocators, and
:mod:`repro.core.spec` for the paper's topology families).

A miss never fails silently: :meth:`Registry.get` raises
:class:`~repro.errors.ConfigError` listing every known name.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Generic, Optional, Tuple, TypeVar

from repro.errors import ConfigError

T = TypeVar("T")

__all__ = [
    "ALLOCATORS",
    "ENGINES",
    "PATTERNS",
    "ROUTERS",
    "ROUTINGS",
    "TOPOLOGIES",
    "Registry",
    "TopologyProvider",
    "register_allocator",
    "register_engine",
    "register_pattern",
    "register_router",
    "register_routing",
    "register_topology",
]


class Registry(Generic[T]):
    """A named collection of factories for one component kind.

    Names are case-preserving but matched as given; register lowercase
    names and normalize at the call site.  ``aliases`` resolve to the
    same item but are not listed by :meth:`available` (which reports
    canonical names only, sorted).
    """

    def __init__(
        self,
        kind: str,
        *,
        populate: Optional[Callable[[], None]] = None,
    ) -> None:
        self.kind = kind
        self._items: Dict[str, T] = {}
        self._descriptions: Dict[str, str] = {}
        self._aliases: Dict[str, str] = {}
        #: Lazy self-population hook: registries whose builtin entries
        #: live in modules nobody has imported yet (the engines register
        #: at ``repro.sim.simulator`` import) run it once, before the
        #: first lookup, so a miss always reports the real menu instead
        #: of "(none registered)".
        self._populate = populate
        self._populated = populate is None

    def _ensure_populated(self) -> None:
        if not self._populated:
            # Flip the flag first: the populate hook imports the module
            # whose registrations land right back here.
            self._populated = True
            assert self._populate is not None
            self._populate()

    def register(
        self,
        name: str,
        item: T,
        *,
        description: str = "",
        aliases: Tuple[str, ...] = (),
        replace: bool = False,
    ) -> T:
        """Register ``item`` under ``name`` (and ``aliases``)."""
        if not replace and name in self:
            raise ConfigError(
                f"{self.kind} {name!r} is already registered; pass "
                f"replace=True to override"
            )
        self._items[name] = item
        self._descriptions[name] = description
        for alias in aliases:
            if not replace and alias in self:
                raise ConfigError(
                    f"{self.kind} alias {alias!r} is already registered"
                )
            self._aliases[alias] = name
        return item

    def add(
        self,
        name: str,
        *,
        description: str = "",
        aliases: Tuple[str, ...] = (),
        replace: bool = False,
    ) -> Callable[[T], T]:
        """Decorator form of :meth:`register`."""

        def decorate(item: T) -> T:
            return self.register(
                name,
                item,
                description=description,
                aliases=aliases,
                replace=replace,
            )

        return decorate

    def get(self, name: str) -> T:
        """The item registered under ``name`` (or an alias of it).

        Raises :class:`~repro.errors.ConfigError` naming every known
        component on a miss, so a typo in a sweep fails with the menu in
        hand instead of a bare KeyError hours in.
        """
        self._ensure_populated()
        canonical = self._aliases.get(name, name)
        item = self._items.get(canonical)
        if item is None:
            known = ", ".join(self.available())
            raise ConfigError(
                f"unknown {self.kind} {name!r}; known {self.kind}s: "
                f"{known or '(none registered)'}"
            )
        return item

    def describe(self, name: str) -> str:
        """One-line description recorded at registration time."""
        self.get(name)  # raise the canonical miss error
        return self._descriptions[self._aliases.get(name, name)]

    def available(self) -> Tuple[str, ...]:
        """All canonical names, sorted."""
        self._ensure_populated()
        return tuple(sorted(self._items))

    def aliases_of(self, name: str) -> Tuple[str, ...]:
        """The aliases resolving to canonical ``name``, sorted."""
        self._ensure_populated()
        return tuple(
            sorted(a for a, c in self._aliases.items() if c == name)
        )

    def menu(self) -> Tuple[Tuple[str, Tuple[str, ...], str], ...]:
        """``(name, aliases, description)`` rows, sorted by name.

        The registry's printable catalogue — assembled purely from
        registration metadata, so listing a menu never constructs a
        component (a registered factory with a heavy import or a
        validation-time failure still lists cleanly).
        """
        self._ensure_populated()
        return tuple(
            (name, self.aliases_of(name), self._descriptions[name])
            for name in self.available()
        )

    def __contains__(self, name: object) -> bool:
        self._ensure_populated()
        return name in self._items or name in self._aliases

    def __len__(self) -> int:
        self._ensure_populated()
        return len(self._items)

    def unregister(self, name: str) -> None:
        """Remove a registration (test hygiene for plugin round-trips)."""
        self._items.pop(name, None)
        self._descriptions.pop(name, None)
        stale = [a for a, c in sorted(self._aliases.items()) if c == name]
        for alias in stale:
            del self._aliases[alias]


@dataclasses.dataclass(frozen=True)
class TopologyProvider:
    """Everything needed to materialize one named topology family.

    ``config_factory(name, width, height, **options)`` must return a
    :class:`~repro.core.params.NetworkConfig`.  The remaining factories
    are optional overrides, each taking the built config; when ``None``
    the builtin components are used
    (:class:`~repro.core.topology.Topology`,
    :func:`~repro.core.routing.make_routing`, and
    :func:`~repro.core.connectivity.connectivity_matrix`).
    """

    name: str
    description: str
    config_factory: Callable[..., Any]
    topology_factory: Optional[Callable[..., Any]] = None
    routing_factory: Optional[Callable[..., Any]] = None
    matrix_factory: Optional[Callable[..., Any]] = None

    @property
    def has_custom_components(self) -> bool:
        return (
            self.topology_factory is not None
            or self.routing_factory is not None
            or self.matrix_factory is not None
        )


#: Topology families, e.g. ``"mesh"``, ``"ruche"``, plugin topologies.
TOPOLOGIES: Registry[TopologyProvider] = Registry("topology")
#: Routing algorithm classes/factories taking a config.
ROUTINGS: Registry[Callable[..., Any]] = Registry("routing algorithm")
#: Router microarchitecture builders (``wormhole`` / ``vc`` / ``fbfc``).
ROUTERS: Registry[Callable[..., Any]] = Registry("router kind")
#: Traffic pattern factories taking a config.
PATTERNS: Registry[Callable[..., Any]] = Registry("traffic pattern")
#: Switch allocator factories ``(num_inputs, num_outputs) -> allocator``.
ALLOCATORS: Registry[Callable[..., Any]] = Registry("allocator")
def _populate_engines() -> None:
    import repro.sim.simulator  # noqa: F401


#: Simulation engines, each a callable of one
#: :class:`~repro.core.spec.ResolvedRun` record: ``"reference"``
#: (the object-per-flit Network) and ``"compiled"`` (the flat-array
#: engine of :mod:`repro.sim.fastsim`); both register on import of
#: :mod:`repro.sim.simulator`, which the registry imports on first
#: lookup so a miss in a fresh process still prints the engine menu.
ENGINES: Registry[Callable[..., Any]] = Registry(
    "simulation engine", populate=_populate_engines
)


def register_topology(
    name: str,
    *,
    description: str = "",
    aliases: Tuple[str, ...] = (),
    topology: Optional[Callable[..., Any]] = None,
    routing: Optional[Callable[..., Any]] = None,
    matrix: Optional[Callable[..., Any]] = None,
    replace: bool = False,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a topology family; decorates its config factory.

    The decorated function receives ``(name, width, height, **options)``
    and returns a :class:`~repro.core.params.NetworkConfig`.  Optional
    ``topology`` / ``routing`` / ``matrix`` factories plug in custom
    channel construction, route computation, and crossbar connectivity —
    the full recipe an out-of-tree topology needs (see
    ``docs/architecture.md``, "Writing a plugin topology").
    """

    def decorate(config_factory: Callable[..., Any]) -> Callable[..., Any]:
        provider = TopologyProvider(
            name=name,
            description=description,
            config_factory=config_factory,
            topology_factory=topology,
            routing_factory=routing,
            matrix_factory=matrix,
        )
        TOPOLOGIES.register(
            name,
            provider,
            description=description,
            aliases=aliases,
            replace=replace,
        )
        return config_factory

    return decorate


def register_routing(
    name: str,
    *,
    description: str = "",
    aliases: Tuple[str, ...] = (),
    replace: bool = False,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a routing algorithm factory ``(config) -> routing``."""
    return ROUTINGS.add(
        name, description=description, aliases=aliases, replace=replace
    )


def register_router(
    name: str,
    *,
    description: str = "",
    aliases: Tuple[str, ...] = (),
    replace: bool = False,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a router builder (see :mod:`repro.sim.router`)."""
    return ROUTERS.add(
        name, description=description, aliases=aliases, replace=replace
    )


def register_pattern(
    name: str,
    *,
    description: str = "",
    aliases: Tuple[str, ...] = (),
    replace: bool = False,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a traffic pattern factory ``(config) -> PatternFn``."""
    return PATTERNS.add(
        name, description=description, aliases=aliases, replace=replace
    )


def register_allocator(
    name: str,
    *,
    description: str = "",
    aliases: Tuple[str, ...] = (),
    replace: bool = False,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a switch allocator factory ``(inputs, outputs) -> alloc``."""
    return ALLOCATORS.add(
        name, description=description, aliases=aliases, replace=replace
    )


def register_engine(
    name: str,
    *,
    description: str = "",
    aliases: Tuple[str, ...] = (),
    replace: bool = False,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a simulation engine.

    The registered callable takes one argument, the
    :class:`~repro.core.spec.ResolvedRun` record
    :func:`~repro.core.spec.resolve_run` built from the caller's spec
    and keywords (design point, traffic, window, materialized faults
    and watchdog, budgets, trackers), and returns a ``RunResult``; it
    resolves nothing itself.  Engines are interchangeable
    per the cross-engine equivalence contract (identical metric
    fingerprints for identical inputs).
    """
    return ENGINES.add(
        name, description=description, aliases=aliases, replace=replace
    )
