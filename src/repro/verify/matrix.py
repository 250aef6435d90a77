"""The paper's topology / Ruche-Factor verification grid.

:func:`paper_matrix` enumerates every routing variant the paper's
evaluation exercises — mesh X-Y and Y-X DOR, the VC and FBFC torus
flavours, multi-mesh, Ruche-One, and the Full/Half Ruche family in
fully-populated and depopulated forms across Ruche Factors — at the
array sizes the figures use.  :func:`verify_matrix` runs the static
verifier over a grid and returns every report; CI's ``certify`` job
runs that enumerator over the same grid to cross-validate each
certificate (:func:`~repro.verify.certify.cross_validate_spec`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.params import NetworkConfig
from repro.core.routing import RoutingAlgorithm, make_fault_aware_routing
from repro.core.spec import NetworkSpec, build_config
from repro.verify.certify import certify_spec
from repro.verify.engine import verify_config
from repro.verify.report import CertificationReport, VerificationReport

#: Array sizes the paper's figures evaluate (Figures 6, 9, 11).
DEFAULT_SIZES: Tuple[Tuple[int, int], ...] = ((8, 8), (16, 8), (64, 8))

#: Ruche Factors swept by the paper (Figures 6–7).
DEFAULT_RUCHE_FACTORS: Tuple[int, ...] = (2, 3, 4)


#: The beyond-2-D pack's representative design points: the small 3-D
#: mesh CI certifies for CDG acyclicity and the paper-scale 8x8x4
#: torus (256 nodes, three FBFC rings per router).
TOPOLOGY_PACK_3D: Tuple[Tuple[str, int, int, int], ...] = (
    ("mesh3d", 4, 4, 4),
    ("torus3d", 8, 8, 4),
)


def paper_matrix(
    sizes: Sequence[Tuple[int, int]] = DEFAULT_SIZES,
    ruche_factors: Sequence[int] = DEFAULT_RUCHE_FACTORS,
    *,
    include_fault_aware: bool = True,
    include_3d: bool = True,
) -> List[Tuple[NetworkConfig, Optional[RoutingAlgorithm]]]:
    """Every (config, routing) pair of the paper's evaluation grid.

    The topology x size x Ruche-Factor sweep is
    :func:`paper_spec_matrix`'s, built into configs.  ``routing`` is
    ``None`` for the deterministic DOR algorithms (the verifier builds
    them via :func:`~repro.core.routing.make_routing`)
    and an explicit healthy :class:`FaultAwareTableRouting` for the
    table-routed entries — included only at the smallest size, where
    table construction stays cheap (``include_fault_aware=False`` drops
    them entirely).  ``include_3d`` appends the 3-D topology pack's
    fixed design points (:data:`TOPOLOGY_PACK_3D`), independent of
    ``sizes``.
    """
    grid: List[Tuple[NetworkConfig, Optional[RoutingAlgorithm]]] = [
        (build_config(spec), None)
        for spec in paper_spec_matrix(
            sizes,
            ruche_factors,
            include_fault_aware=False,
            include_3d=False,
        )
    ]
    if include_fault_aware:
        width, height = min(sizes, key=lambda wh: wh[0] * wh[1])
        for name in ("mesh", "ruche2-depop"):
            config = NetworkConfig.from_name(name, width, height)
            grid.append((config, make_fault_aware_routing(config)))
    if include_3d:
        for name, width, height, depth in TOPOLOGY_PACK_3D:
            grid.append(
                (
                    NetworkConfig.from_name(
                        name, width, height, depth=depth
                    ),
                    None,
                )
            )
    return grid


def paper_spec_matrix(
    sizes: Sequence[Tuple[int, int]] = DEFAULT_SIZES,
    ruche_factors: Sequence[int] = DEFAULT_RUCHE_FACTORS,
    *,
    include_fault_aware: bool = True,
    include_3d: bool = True,
) -> List[NetworkSpec]:
    """The paper's evaluation grid as :class:`NetworkSpec` entries.

    The one place the topology x size x Ruche-Factor sweep is written
    (:func:`paper_matrix` builds its configs from it), expressed as
    specs so each entry carries a content hash and an engine-lowering
    analysis.  ``include_fault_aware`` adds seeded fault-injection
    entries at the smallest size — unlike :func:`paper_matrix`'s
    healthy table-routing rows, these materialize a live
    :class:`~repro.sim.faults.FaultSchedule`, so the certifier proves
    the actual masked detour tables a degraded campaign would route on.
    """
    specs: List[NetworkSpec] = []
    for width, height in sizes:
        for name in (
            "mesh",
            "torus",
            "half-torus",
            "torus-fbfc",
            "half-torus-fbfc",
            "multimesh",
            "ruche1",
        ):
            specs.append(NetworkSpec.for_network(name, width, height))
        specs.append(
            NetworkSpec.for_network("mesh", width, height, dor_order="yx")
        )
        for rf in ruche_factors:
            if rf >= max(width, height):
                continue
            for pop in ("depop", "pop"):
                specs.append(
                    NetworkSpec.for_network(
                        f"ruche{rf}-{pop}", width, height
                    )
                )
                specs.append(
                    NetworkSpec.for_network(
                        f"ruche{rf}-{pop}", width, height, half=True
                    )
                )
            specs.append(
                NetworkSpec.for_network(
                    f"ruche{rf}-depop",
                    width,
                    height,
                    half=True,
                    dor_order="yx",
                )
            )
    if include_fault_aware:
        width, height = min(sizes, key=lambda wh: wh[0] * wh[1])
        specs.append(
            NetworkSpec.for_network(
                "mesh",
                width,
                height,
                fault_links=4,
                fault_routers=1,
                fault_seed=7,
            )
        )
        specs.append(
            NetworkSpec.for_network(
                "ruche2-depop", width, height, fault_links=3, fault_seed=7
            )
        )
    if include_3d:
        # Certified natively on the port-graph IR: route soundness and
        # CDG acyclicity with the declared-minimal basis (the 3-D DORs
        # export their own minimal_hops bound), no 2-D closed form.
        for name, width, height, depth in TOPOLOGY_PACK_3D:
            specs.append(
                NetworkSpec.for_network(name, width, height, depth=depth)
            )
    return specs


def verify_matrix(
    grid: Optional[
        Iterable[Tuple[NetworkConfig, Optional[RoutingAlgorithm]]]
    ] = None,
) -> List[VerificationReport]:
    """Run :func:`verify_config` over a grid (default: paper matrix)."""
    if grid is None:
        grid = paper_matrix()
    return [
        verify_config(config, routing) for config, routing in grid
    ]


def certify_matrix(
    specs: Optional[Iterable[NetworkSpec]] = None,
) -> List[CertificationReport]:
    """Run :func:`certify_spec` over specs (default: spec matrix)."""
    if specs is None:
        specs = paper_spec_matrix()
    return [certify_spec(spec) for spec in specs]
