"""The assembled route rows are the all-pairs rows, byte for byte.

``fastsim._row_assembler`` fills the builtin dimension-ordered route
tables from axis-aligned route calls only, which is exact because every
``_SUPPORTED_ROUTINGS`` decision is axis + parity separable.  Nothing at
run time re-checks that property: this module is what pins it.  The
all-pairs comprehensions below — one ``route`` / ``route_vc`` call per
``(node, dest)``, the form the lowering used before — are the oracle,
and exist only here.  Destinations include the endpoint columns of the
edge-memory design points (what a manycore network lowers): off the
grid, under the same two rules.

The second half ties the rows the kernel reads to the next-hop tables
the certifier proves (``core.routing.tabulate_next_hops``), state by
state.
"""

from array import array

import pytest
from property.settings import intensity

from repro.core.coords import Direction
from repro.core.params import TopologyKind
from repro.core.routing import RucheDOR, tabulate_next_hops
from repro.core.spec import NetworkSpec, resolve_components
from repro.errors import ConfigError
from repro.sim import fastsim
from repro.sim.router import NUM_DIRS, P_IDX, VCRouter
from repro.verify.matrix import paper_spec_matrix

#: One name per routing type x router kind (wormhole, FBFC, VC), with
#: populated and depopulated Ruche at two factors.
FAMILIES = (
    "mesh",
    "torus",
    "half-torus",
    "torus-fbfc",
    "half-torus-fbfc",
    "multimesh",
    "ruche1",
    "ruche2-depop",
    "ruche2-pop",
    "ruche3-depop",
    "ruche3-pop",
)

#: Odd x odd, even x odd and odd x even rings (half-ring ties exist on
#: even rings only), and the legal one-row array.
ODD_SIZES = ((7, 5), (6, 9), (9, 4), (8, 1))

#: The families that admit edge memory (as Half networks, for Ruche).
EDGE_FAMILIES = (
    "mesh",
    "half-torus",
    "half-torus-fbfc",
    "ruche2-depop",
    "ruche2-pop",
    "ruche3-depop",
    "ruche3-pop",
)


def _design_points():
    """Every family x size x ``dor_order``, each config once."""
    specs = list(
        paper_spec_matrix(
            sizes=((8, 8), (16, 8)),
            include_fault_aware=False,
            include_3d=False,
        )
    )
    sizes = ODD_SIZES
    if intensity() == "full":
        sizes += tuple((w, h) for w in range(2, 12) for h in range(1, 11))
    for width, height in sizes:
        for name in FAMILIES:
            specs.append(NetworkSpec.for_network(name, width, height))
            if name.startswith("ruche") and name != "ruche1":
                specs.append(
                    NetworkSpec.for_network(name, width, height, half=True)
                )
        for name in EDGE_FAMILIES:
            specs.append(
                NetworkSpec.for_network(
                    name, width, height, edge_memory=True,
                    half=name.startswith("ruche"),
                )
            )
    points = {}
    for spec in specs:
        for order in ("xy", "yx"):
            point = spec.with_options(dor_order=order)
            try:
                config = point.config()
            except ConfigError:
                continue  # a Ruche Factor that does not fit the array
            points.setdefault((point.topology, config), point)
    return list(points.values())


def _point_id(spec):
    options = dict(spec.options)
    return "-".join(
        [spec.topology, f"{spec.width}x{spec.height}"]
        + (["half"] if options.get("half") else [])
        + (["edge"] if options.get("edge_memory") else [])
        + [options["dor_order"]]
    )


DESIGN_POINTS = _design_points()


def _lowered(spec):
    """``(model, components)`` of a design point that must compile.

    Straight through ``_compile``: the spec-run gates (the
    ``edge-memory`` provenance pin among them) say nothing about rows.
    """
    model = fastsim._compile(spec, spec.config())
    components = resolve_components(spec, model.config, None)[0]
    assert type(components.routing) in fastsim._SUPPORTED_ROUTINGS
    return model, components


# ---------------------------------------------------------------------------
# The oracle: one Python route call per (node, dest)
# ---------------------------------------------------------------------------
def all_pairs_wormhole_rows(model, routing):
    """``(rows, rowof, rowlen)`` by brute force over every pair."""
    if type(routing) is RucheDOR:
        cls_of_in = (0, 1, 1, 2, 2, 1, 1, 2, 2)  # P | x-axis | y-axis
        reps = (Direction.P, Direction.W, Direction.N)
    else:
        cls_of_in = (0,) * NUM_DIRS
        reps = (Direction.P,)
    nsub = 1 if model.subnet_tab is None else 2
    dests = (*model.nodes, *model.endpoints)
    rows = array("i")
    rowof = array("i")
    for r, coord in enumerate(model.nodes):
        for rep in reps:
            for sub in range(nsub):
                rows.extend(
                    [int(routing.route(coord, rep, dest, sub))
                     for dest in dests]
                )
        rowof.extend(r * len(reps) + cls for cls in cls_of_in)
    return rows, rowof, nsub * len(dests)


def all_pairs_vc_tables(model, routing):
    """``(out, vcn, dl)`` by brute force over every pair."""
    config = model.config
    y_ring = config.kind is TopologyKind.FOLDED_TORUS
    east, south = int(Direction.E), int(Direction.S)
    out_tab, vcn_tab, dl_tab = array("i"), array("i"), array("i")
    for coord in model.nodes:
        for dest in (*model.nodes, *model.endpoints):
            out = vcn = dateline = 0  # (P, 0) at the destination
            if dest != coord:
                out = int(routing.route_vc(coord, Direction.P, 0, dest)[0])
                along_x = out in (1, 2)  # W, E
                cur = coord.x if along_x else coord.y
                tgt = dest.x if along_x else dest.y
                k = config.width if along_x else config.height
                is_ring = along_x or y_ring
                if out in (east, south):
                    ahead = tgt < cur
                    dateline = is_ring and cur == k - 1
                else:
                    ahead = tgt > cur
                    dateline = is_ring and cur == 0
                if is_ring and not ahead:
                    vcn = (dest.x + dest.y) & 1
            out_tab.append(out)
            vcn_tab.append(vcn)
            dl_tab.append(dateline)
    return out_tab, vcn_tab, dl_tab


def test_design_points_cover_every_supported_routing():
    lowered = [
        (*_lowered(spec), dict(spec.options)["dor_order"])
        for spec in DESIGN_POINTS
        if (spec.width, spec.height) == (9, 4)
        and not dict(spec.options).get("edge_memory")
    ]
    assert {(type(parts.routing), order) for _, parts, order in lowered} == {
        (routing, order)
        for routing in fastsim._SUPPORTED_ROUTINGS
        for order in ("xy", "yx")
    }
    assert {(model.kind, order) for model, _, order in lowered} == {
        (kind, order)
        for kind in ("wormhole", "fbfc", "vc")
        for order in ("xy", "yx")
    }


@pytest.mark.parametrize("spec", DESIGN_POINTS, ids=_point_id)
def test_assembled_rows_equal_all_pairs_rows(spec):
    model, components = _lowered(spec)
    routing, tables = components.routing, model.tables
    if model.kind == "vc":
        out, vcn, dl = all_pairs_vc_tables(model, routing)
        assert tables["out"].tobytes() == out.tobytes()
        assert tables["vcn"].tobytes() == vcn.tobytes()
        assert tables["dl"].tobytes() == dl.tobytes()
    else:
        rows, rowof, rowlen = all_pairs_wormhole_rows(model, routing)
        assert tables["rowlen"] == rowlen
        assert tables["rowof"].tobytes() == rowof.tobytes()
        assert tables["rows"].tobytes() == rows.tobytes()


# ---------------------------------------------------------------------------
# The rows the kernel reads == the tables the certifier proves
# ---------------------------------------------------------------------------
#: One design point per builtin family, one of them routed Y-X, plus a
#: Y-X VC point (every manycore ``rev`` network lowers Y-X).
CERTIFIED_POINTS = [
    NetworkSpec.for_network("mesh", 8, 8),
    NetworkSpec.for_network("multimesh", 8, 8),
    NetworkSpec.for_network("ruche1", 8, 8),
    NetworkSpec.for_network("ruche2-depop", 8, 8),
    NetworkSpec.for_network("ruche3-pop", 16, 8, half=True),
    NetworkSpec.for_network("torus-fbfc", 8, 8),
    NetworkSpec.for_network("half-torus-fbfc", 16, 8),
    NetworkSpec.for_network("torus", 8, 8),
    NetworkSpec.for_network("half-torus", 16, 8),
    NetworkSpec.for_network(
        "ruche2-depop", 16, 8, half=True, dor_order="yx"
    ),
    NetworkSpec.for_network("half-torus", 16, 8, dor_order="yx"),
    # A manycore request (X-Y) and two response (Y-X) networks: the
    # endpoint columns, and the rows memory arrivals route by.
    NetworkSpec.for_network("mesh", 8, 4, edge_memory=True),
    NetworkSpec.for_network(
        "ruche2-depop", 8, 4, half=True, edge_memory=True, dor_order="yx"
    ),
    NetworkSpec.for_network(
        "half-torus", 8, 4, edge_memory=True, dor_order="yx"
    ),
]


@pytest.mark.parametrize(
    "spec",
    CERTIFIED_POINTS,
    ids=lambda s: _point_id(
        s.with_options(dor_order=dict(s.options).get("dor_order", "xy"))
    ),
)
def test_kernel_rows_equal_certifier_tables(spec):
    """Every state of ``tabulate_next_hops`` reads back from the arrays
    through the kernel's own index arithmetic."""
    model, components = _lowered(spec)
    routing, graph = components.routing, components.topology.port_graph()
    tables, n, nd = model.tables, model.n, model.nd
    # Memory arrivals enter on a channel port, lane 0, subnet 0.
    entries = [
        (ch.dst, ch.in_port, 0, 0)
        for ch in graph.channels
        if ch.src in model.endpoints
    ]
    assert len(entries) == len(model.endpoints)
    states = 0
    for d, dest in enumerate((*model.nodes, *model.endpoints)):
        table = tabulate_next_hops(routing, graph, dest, entries=entries)
        for (node, in_port, in_vc, subnet), (out, vc) in table.items():
            r = model.node_index[node]
            if r >= n:
                continue  # the walk's last state: on the endpoint itself
            if model.kind == "vc":
                row = r * nd + d
                assert tables["out"][row] == out
                # step_vc's accept-time VC reconstruction.
                if tables["dl"][row]:
                    lowered_vc = 1
                elif tables["sd"][in_port * VCRouter.NUM_PORTS + out]:
                    lowered_vc = in_vc
                else:
                    lowered_vc = tables["vcn"][row]
                assert lowered_vc == vc, (node, in_port, in_vc, dest)
            else:
                assert (in_vc, vc) == (0, 0)
                row = tables["rowof"][r * NUM_DIRS + in_port]
                at = row * tables["rowlen"] + subnet * nd + d
                assert tables["rows"][at] == out, (
                    node, in_port, subnet, dest,
                )
            states += 1
    # At least the injection and ejection state of every pair.
    assert states >= n * nd
    assert P_IDX == graph.ejection_port
