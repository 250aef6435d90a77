"""Network configuration parameters.

A :class:`NetworkConfig` fully describes one network design point of the
paper: topology family, array dimensions, Ruche Factor, crossbar population,
channel width and buffering.  Every other layer (simulator, physical models,
manycore) consumes a ``NetworkConfig``.

The canonical short names used throughout the paper's figures are supported
by :meth:`NetworkConfig.from_name`, e.g. ``"mesh"``, ``"torus"``,
``"half-torus"``, ``"multimesh"``, ``"ruche1-pop"``, ``"ruche3-depop"``.
"""

from __future__ import annotations

import dataclasses
import enum
import re
from typing import TYPE_CHECKING, Any, Optional, Tuple

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.core.coords import Direction


class TopologyKind(enum.Enum):
    """The topology families evaluated in the paper (Figures 1, 6, 9)."""

    MESH = "mesh"
    FOLDED_TORUS = "torus"
    HALF_TORUS = "half-torus"
    FULL_RUCHE = "ruche"
    HALF_RUCHE = "half-ruche"
    RUCHE_ONE = "ruche-one"
    MULTI_MESH = "multimesh"
    MESH3D = "mesh3d"
    TORUS3D = "torus3d"

    @property
    def is_ruche(self) -> bool:
        return self in (
            TopologyKind.FULL_RUCHE,
            TopologyKind.HALF_RUCHE,
            TopologyKind.RUCHE_ONE,
            TopologyKind.MULTI_MESH,
        )

    @property
    def is_torus(self) -> bool:
        """The 2-D torus family (VC or FBFC rings).

        Deliberately excludes :data:`TORUS3D`, whose deadlock freedom is
        always bubble flow control — the 5-port VC router does not apply.
        """
        return self in (TopologyKind.FOLDED_TORUS, TopologyKind.HALF_TORUS)

    @property
    def is_3d(self) -> bool:
        return self in (TopologyKind.MESH3D, TopologyKind.TORUS3D)


class DorOrder(enum.Enum):
    """Dimension-ordered routing order.

    The paper routes request traffic X-Y and response traffic Y-X
    (Section 4, citing Abts et al. [2]).
    """

    XY = "xy"
    YX = "yx"


_NAME_RE = re.compile(r"^ruche(?P<rf>\d+)(?:-(?P<pop>pop|depop))?$")


@dataclasses.dataclass(frozen=True)
class NetworkConfig:
    """A complete description of one network design point.

    Parameters
    ----------
    kind:
        Topology family.
    width, height:
        Array dimensions in tiles.  ``width`` is the X (east-west) extent.
    ruche_factor:
        Skip distance of the Ruche channels.  Ignored (forced to 0/1) for
        non-Ruche topologies; must be 1 for ``RUCHE_ONE`` and
        ``MULTI_MESH``.
    depopulated:
        Use the depopulated crossbar variant (Figure 5).  Ruche-One and
        multi-mesh require fully-populated routers (Section 3.2).
    channel_width_bits:
        Flit/channel width; the paper's physical studies use 128 bits.
    fifo_depth:
        Input FIFO depth in flits.  The paper's routers are "minimally
        buffered by two-element FIFOs".
    num_vcs:
        Virtual channels per input (torus only; the paper uses two).
    edge_memory:
        Attach memory ports on the northern and southern edges
        (the cellular-manycore arrangement of Section 4.5+).
    dor_order:
        Dimension order for routing.
    """

    kind: TopologyKind
    width: int
    height: int
    ruche_factor: int = 0
    depopulated: bool = True
    channel_width_bits: int = 128
    fifo_depth: int = 2
    num_vcs: int = 2
    edge_memory: bool = False
    dor_order: DorOrder = DorOrder.XY
    #: Use Flit Bubble Flow Control instead of virtual channels for torus
    #: deadlock freedom (Ma et al., discussed in the paper's Section 5):
    #: packets may enter a ring only while the receiving FIFO keeps one
    #: slot free beyond the packet, so each ring always holds a bubble.
    fbfc: bool = False
    #: Cycles per channel traversal.  1 (the paper's dense-tile setting)
    #: uses direct wiring; >1 enables pipelined channels with
    #: credit-based flow control (Section 3.2).
    channel_latency: int = 1
    #: Latency of the long-range Ruche channels, when their wire delay
    #: exceeds a cycle; defaults to ``channel_latency``.
    ruche_channel_latency: Optional[int] = None
    #: Z extent (layers) for the 3-D topology pack; must be >= 2 for
    #: ``MESH3D`` / ``TORUS3D`` and exactly 1 for every 2-D family.
    depth: int = 1

    def __post_init__(self) -> None:
        if self.channel_latency < 1:
            raise ConfigError("channel_latency must be >= 1")
        if (
            self.ruche_channel_latency is not None
            and self.ruche_channel_latency < 1
        ):
            raise ConfigError("ruche_channel_latency must be >= 1")
        if self.width < 2 or self.height < 1:
            raise ConfigError(
                f"array must be at least 2x1, got {self.width}x{self.height}"
            )
        if self.fifo_depth < 1:
            raise ConfigError("fifo_depth must be >= 1")
        if self.kind in (TopologyKind.RUCHE_ONE, TopologyKind.MULTI_MESH):
            if self.ruche_factor not in (0, 1):
                raise ConfigError(
                    f"{self.kind.value} has an implicit Ruche Factor of 1"
                )
            object.__setattr__(self, "ruche_factor", 1)
            if self.depopulated:
                raise ConfigError(
                    f"{self.kind.value} works only on fully-populated routers"
                )
        elif self.kind in (TopologyKind.FULL_RUCHE, TopologyKind.HALF_RUCHE):
            if self.ruche_factor < 1:
                raise ConfigError("Ruche topologies need ruche_factor >= 1")
            if self.ruche_factor >= max(self.width, self.height):
                raise ConfigError(
                    "ruche_factor must be smaller than the array extent"
                )
        else:
            object.__setattr__(self, "ruche_factor", 0)
        if self.kind.is_3d:
            if self.depth < 2:
                raise ConfigError(
                    f"{self.kind.value} needs depth >= 2 layers, got "
                    f"{self.depth} (pass depth=<layers>)"
                )
        elif self.depth != 1:
            raise ConfigError(
                f"depth applies only to 3-D topologies, got depth="
                f"{self.depth} for {self.kind.value}"
            )
        if self.fbfc and not (self.kind.is_torus or self.kind.is_3d):
            raise ConfigError("fbfc applies only to torus networks")
        if self.kind is TopologyKind.TORUS3D and not self.fbfc:
            raise ConfigError(
                "torus3d requires fbfc=True: its rings span all three "
                "axes, beyond the 5-port VC router"
            )
        if self.kind is TopologyKind.MESH3D and self.fbfc:
            raise ConfigError("fbfc applies only to torus networks")
        if self.kind.is_torus and not self.fbfc and self.num_vcs < 2:
            raise ConfigError(
                "torus networks need >= 2 VCs for deadlock freedom "
                "(or fbfc=True for bubble flow control)"
            )
        if self.edge_memory and self.kind.is_3d:
            raise ConfigError(
                "edge_memory is not supported for 3-D topologies"
            )
        if self.edge_memory and (
            self.has_vertical_ruche or self.kind is TopologyKind.FOLDED_TORUS
        ):
            # The manycore scenario attaches memory through plain vertical
            # edge channels; vertical long-range links (or a vertical ring)
            # have no edge to terminate on.  The paper pairs edge memory
            # only with mesh / half-torus / Half Ruche (Section 4.5).
            raise ConfigError(
                "edge_memory requires a topology without vertical "
                "long-range links (mesh, half-torus, or Half Ruche)"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_name(
        cls,
        name: str,
        width: int,
        height: int,
        *,
        half: bool = False,
        **overrides: Any,
    ) -> "NetworkConfig":
        """Build a config from a paper-style short name.

        ``name`` is one of ``mesh``, ``torus``, ``half-torus``,
        ``multimesh``, or ``ruche<RF>[-pop|-depop]`` (``-depop`` is the
        default, matching the paper's guidance).  When ``half`` is true,
        ``ruche*`` names build Half Ruche networks (horizontal Ruche
        channels only), as used in the Section 4.5+ evaluation.
        """
        lowered = name.strip().lower()
        if lowered.endswith("-fbfc"):
            overrides.setdefault("fbfc", True)
            lowered = lowered[: -len("-fbfc")]
        if lowered == "mesh":
            return cls(TopologyKind.MESH, width, height, **overrides)
        if lowered == "torus":
            return cls(TopologyKind.FOLDED_TORUS, width, height, **overrides)
        if lowered in ("half-torus", "halftorus", "half_torus"):
            return cls(TopologyKind.HALF_TORUS, width, height, **overrides)
        if lowered == "mesh3d":
            return cls(TopologyKind.MESH3D, width, height, **overrides)
        if lowered == "torus3d":
            overrides.setdefault("fbfc", True)
            return cls(TopologyKind.TORUS3D, width, height, **overrides)
        if lowered in ("multimesh", "multi-mesh", "multi_mesh"):
            overrides.setdefault("depopulated", False)
            return cls(TopologyKind.MULTI_MESH, width, height, **overrides)
        match = _NAME_RE.match(lowered)
        if match is None:
            if lowered.startswith("ruche"):
                # Name the bad token: ruche<RF> must be digits and the
                # optional suffix must be -pop or -depop.
                stem, _, suffix = lowered.partition("-")
                if not stem[len("ruche"):].isdigit():
                    raise ConfigError(
                        f"unrecognized network name: {name!r} "
                        f"(bad Ruche Factor in {stem!r}; expected "
                        f"ruche<RF> with RF a positive integer)"
                    )
                raise ConfigError(
                    f"unrecognized network name: {name!r} (bad "
                    f"population suffix {suffix!r}; expected 'pop' "
                    f"or 'depop')"
                )
            raise ConfigError(f"unrecognized network name: {name!r}")
        rf = int(match.group("rf"))
        if rf == 0:
            raise ConfigError(
                f"unrecognized network name: {name!r} (bad Ruche "
                f"Factor 'ruche0'; RF must be >= 1)"
            )
        depop = match.group("pop") != "pop"
        if rf == 1 and not half:
            # ruche1 is Ruche-One: fully-populated by definition.
            overrides.setdefault("depopulated", False)
            if overrides["depopulated"]:
                raise ConfigError("ruche1 (Ruche-One) cannot be depopulated")
            return cls(TopologyKind.RUCHE_ONE, width, height, **overrides)
        kind = TopologyKind.HALF_RUCHE if half else TopologyKind.FULL_RUCHE
        return cls(
            kind, width, height, ruche_factor=rf, depopulated=depop, **overrides
        )

    # ------------------------------------------------------------------
    # Descriptive properties
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Paper-style short name of this design point."""
        if self.kind is TopologyKind.MESH:
            return "mesh"
        if self.kind is TopologyKind.MESH3D:
            return "mesh3d"
        if self.kind is TopologyKind.TORUS3D:
            # fbfc is mandatory for torus3d, so the name needs no suffix.
            return "torus3d"
        suffix = "-fbfc" if self.fbfc else ""
        if self.kind is TopologyKind.FOLDED_TORUS:
            return "torus" + suffix
        if self.kind is TopologyKind.HALF_TORUS:
            return "half-torus" + suffix
        if self.kind is TopologyKind.MULTI_MESH:
            return "multimesh"
        if self.kind is TopologyKind.RUCHE_ONE:
            return "ruche1-pop"
        pop = "depop" if self.depopulated else "pop"
        return f"ruche{self.ruche_factor}-{pop}"

    @property
    def num_nodes(self) -> int:
        return self.width * self.height * self.depth

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.width, self.height)

    @property
    def has_horizontal_ruche(self) -> bool:
        return self.kind.is_ruche

    @property
    def has_vertical_ruche(self) -> bool:
        return self.kind in (
            TopologyKind.FULL_RUCHE,
            TopologyKind.RUCHE_ONE,
            TopologyKind.MULTI_MESH,
        )

    @property
    def uses_vcs(self) -> bool:
        """True if the routers need virtual channels (torus family,
        unless bubble flow control supplies the deadlock freedom)."""
        return self.kind.is_torus and not self.fbfc

    def latency_for(self, direction: Direction) -> int:
        """Channel latency in cycles for a given output direction."""
        if direction.is_ruche and self.ruche_channel_latency is not None:
            return self.ruche_channel_latency
        return self.channel_latency

    def replace(self, **changes: Any) -> "NetworkConfig":
        """A copy with ``changes`` applied (dataclass ``replace``)."""
        return dataclasses.replace(self, **changes)
