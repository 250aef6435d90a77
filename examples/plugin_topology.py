"""An out-of-tree *express mesh* registered through the public registry.

This is the payoff demo for the declarative construction path
(:mod:`repro.core.spec` + :mod:`repro.core.registry`): a topology the
core has never heard of — a 2-D mesh augmented with horizontal express
channels that hop ``span`` tiles between *station* columns — becomes
constructible, simulable (``build_run``), and statically certifiable
(``repro.verify.certify_spec``) by importing this module.  No core file
changes; the test suite proves that.

Design
------
* **Channels** — a plain mesh, plus ``RE``/``RW`` express channels of
  length ``span`` *only* where the source column is a station
  (``x % span == 0``).  This differs from Half Ruche, which wires
  Ruche channels at every column; reusing the ``HALF_RUCHE`` config
  kind gives us the paper's physical bookkeeping (link spans, router
  radix) for free while the plugin narrows the channel set.
* **Routing** — X-first dimension order.  A packet travels local
  ``E``/``W`` links toward its destination and boards an express
  channel whenever it sits at a station with at least ``span`` columns
  still to cover; the remainder is walked locally, then Y finishes on
  ``N``/``S``.  Movement is monotone per axis and X strictly precedes
  Y, so the channel dependency graph is acyclic (deadlock-free), which
  the static verifier proves exhaustively.
* **Crossbar** — a depopulated matrix admitting exactly the turns the
  routing emits: express channels are boarded from same-direction
  local inputs (or injection) and exited onto same-direction local
  outputs; vertical inputs only continue vertically or eject.

Smoke check (used by CI)::

    PYTHONPATH=src python examples/plugin_topology.py
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.connectivity import Matrix
from repro.core.coords import Coord, Direction
from repro.core.params import NetworkConfig, TopologyKind
from repro.core.registry import register_topology
from repro.core.routing import RoutingAlgorithm
from repro.core.spec import NetworkSpec, build_run
from repro.core.topology import Channel, Topology
from repro.errors import ConfigError

#: Default express-channel skip distance (tiles between stations).
SPAN = 4


class ExpressMeshTopology(Topology):
    """Mesh plus horizontal express channels between station columns."""

    def _build_channels(self) -> Iterable[Channel]:
        span = self.config.ruche_factor
        for src, direction, dst in super()._build_channels():
            # Keep the inherited Half Ruche express channels only where
            # the source column is a station; both endpoints then are
            # (station + span is again a multiple of span).
            if direction.is_ruche and src.x % span != 0:
                continue
            yield (src, direction, dst)


class ExpressMeshRouting(RoutingAlgorithm):
    """X-first DOR that boards express channels at station columns."""

    def __init__(self, config: NetworkConfig) -> None:
        super().__init__(config)
        self.span = config.ruche_factor

    def route(
        self, node: Coord, in_dir: Direction, dest: Coord, subnet: int = 0
    ) -> Direction:
        dx = dest.x - node.x
        if dx:
            at_station = node.x % self.span == 0
            if at_station and abs(dx) >= self.span:
                return Direction.RE if dx > 0 else Direction.RW
            return Direction.E if dx > 0 else Direction.W
        dy = dest.y - node.y
        if dy:
            return Direction.S if dy > 0 else Direction.N
        return Direction.P


def express_mesh_matrix(config: NetworkConfig) -> Matrix:
    """Depopulated crossbar: exactly the turns the routing emits."""
    d = Direction
    return {
        d.P: frozenset((d.P, d.W, d.E, d.N, d.S, d.RW, d.RE)),
        d.W: frozenset((d.E, d.RE, d.N, d.S, d.P)),
        d.E: frozenset((d.W, d.RW, d.N, d.S, d.P)),
        d.RW: frozenset((d.RE, d.E, d.N, d.S, d.P)),
        d.RE: frozenset((d.RW, d.W, d.N, d.S, d.P)),
        d.N: frozenset((d.S, d.P)),
        d.S: frozenset((d.N, d.P)),
    }


@register_topology(
    "express-mesh",
    description=(
        "mesh + span-length express channels between station columns "
        "(plugin example)"
    ),
    topology=ExpressMeshTopology,
    routing=ExpressMeshRouting,
    matrix=express_mesh_matrix,
)
def express_mesh_config(
    name: str, width: int, height: int, span: int = SPAN, **overrides: Any
) -> NetworkConfig:
    """Config factory: ``span`` rides in the Ruche Factor field."""
    if span < 2:
        raise ConfigError(
            f"express-mesh span must be >= 2, got {span} "
            f"(span 1 is just a mesh)"
        )
    return NetworkConfig(
        TopologyKind.HALF_RUCHE,
        width,
        height,
        ruche_factor=span,
        depopulated=True,
        **overrides,
    )


def demo_spec(
    width: int = 16, height: int = 8, rate: float = 0.05
) -> NetworkSpec:
    """The design point the smoke check verifies and simulates."""
    return NetworkSpec.for_network(
        "express-mesh",
        width,
        height,
        pattern="uniform_random",
        rate=rate,
        warmup=200,
        measure=400,
        drain_limit=1200,
        seed=1,
    )


def main() -> int:
    from repro.verify import cross_validate_spec

    spec = demo_spec()
    # The table certifier proves deadlock freedom, turn legality and
    # reachability with no 2-D coordinate assumptions; the exhaustive
    # enumerator cross-checks its verdict.
    certified, agrees = cross_validate_spec(spec)
    print(certified.summary())
    if not certified.ok:
        for problem in certified.problems():
            print(f"  {problem}")
        return 1
    if not agrees:
        print("  certifier and enumerator disagree")
        return 1
    for diagnostic in certified.lowering:
        print(
            f"  falls back to reference engine: "
            f"{diagnostic['code']}: {diagnostic['detail']}"
        )
    result = build_run(spec)
    print(
        f"simulated express-mesh {spec.width}x{spec.height}: "
        f"avg latency {result.avg_latency:.2f} cycles, accepted "
        f"{result.accepted_throughput:.4f} flits/node/cycle"
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
