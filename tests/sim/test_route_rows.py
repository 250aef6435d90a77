"""The axis tables read back as the all-pairs rows, byte for byte.

``fastsim._axis_tables`` stores, for the builtin dimension-ordered
routings, one small table per routed axis, filled from axis-aligned
route calls only — exact because every ``_SUPPORTED_ROUTINGS`` decision
is axis + parity separable.  Nothing at run time re-checks that
property: this module is what pins it.  The all-pairs comprehensions
below — one ``route`` / ``route_vc`` call per ``(node, dest)``, the
form the lowering stored before — are the oracle, and exist only here;
:func:`route_lookup` mirrors the index arithmetic of the kernel's
``route_lookup()`` and expands the axis tables into that form.
Destinations include the endpoints of the edge-memory design points
(what a manycore network lowers): off the grid, under the same rule.

The second half ties what the kernel reads to the next-hop tables the
certifier proves (``core.routing.tabulate_next_hops``), state by state,
and the last part asks the kernel itself: its ``hop_count`` export, over
every pair of ids, against ``routing.hop_count``.
"""

from array import array

import pytest
from property.settings import intensity

from repro.core.coords import Direction
from repro.core.params import TopologyKind
from repro.core.routing import RucheDOR, tabulate_next_hops
from repro.core.spec import NetworkSpec, resolve_components, resolve_run
from repro.errors import ConfigError
from repro.sim import _ckernel, fastsim
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

#: The 3-D packs: cubic, every axis a different size, a one-row plane,
#: three layers — rings of 1, 2 (even, every hop a half-ring tie), 3, 5
#: (odd), 4 and 6 (even) — and, once, a ``dor_order`` they must ignore.
SIZES_3D = ((4, 4, 4), (5, 3, 2), (4, 1, 2), (6, 5, 3))

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
    for name in ("mesh3d", "torus3d"):
        for width, height, depth in SIZES_3D:
            point = NetworkSpec.for_network(
                name, width, height, depth=depth, dor_order="xy"
            )
            points[name, point.config()] = point
        point = NetworkSpec.for_network(
            name, 3, 4, depth=2, dor_order="yx"
        )
        points[name, point.config()] = point
    return list(points.values())


def _point_id(spec):
    options = dict(spec.options)
    depth = options.get("depth")
    return "-".join(
        [spec.topology, f"{spec.width}x{spec.height}"
         + (f"x{depth}" if depth else "")]
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
# The reader: the kernel's route_lookup(), mirrored
# ---------------------------------------------------------------------------
def route_lookup(model, r, in_port, sub, d):
    """The table entry ``route_lookup(c, r, in, sub, d)`` returns in C,
    by the same index arithmetic over the same arrays."""
    tables = model.tables
    nax = tables.get("nax", 0)
    if not nax:
        row = tables["rowof"][r * model.nports + in_port]
        return tables["rows"][row * tables["rowlen"] + sub + d]
    dkey, rkey = tables["dkey"], tables["rkey"]
    j = nax - 1
    for k in reversed(range(nax - 1)):
        if (dkey[r * nax + k] ^ dkey[d * nax + k]) >> 1:
            j = k
    return tables["axtab"][
        tables["cls"][in_port] + sub + rkey[r * nax + j] + dkey[d * nax + j]
    ]


def subnet_of(model, s, d):
    """``route_base()``'s parity subnet of a packet ``s -> d``."""
    tables = model.tables
    return tables["spar"][s] ^ tables["par"][d] if "spar" in tables else 0


def expanded_wormhole_rows(model, reps):
    """The axis tables as ``all_pairs_wormhole_rows`` lays rows out."""
    tables = model.tables
    nsub = 2 if "spar" in tables else 1
    classes = sorted(set(tables["cls"]))
    assert len(classes) == len(reps)
    rows = array("i")
    rowof = array("i")
    for r in range(model.n):
        for rep in reps:
            for sub in range(nsub):
                rows.extend(
                    route_lookup(model, r, int(rep), sub * tables["sublen"], d)
                    for d in range(model.nd)
                )
        rowof.extend(r * len(reps) + classes.index(c) for c in tables["cls"])
    return rows, rowof, nsub * model.nd


def expanded_vc_tables(model):
    """The packed axis entries as the ``(out, vcn, dl)`` planes; every
    input port reads the one class."""
    assert set(model.tables["cls"]) == {0}
    out_tab, vcn_tab, dl_tab = array("i"), array("i"), array("i")
    for r in range(model.n):
        for d in range(model.nd):
            entry = route_lookup(model, r, P_IDX, 0, d)
            out_tab.append(entry & 7)
            vcn_tab.append(entry >> 3 & 1)
            dl_tab.append(entry >> 4)
    return out_tab, vcn_tab, dl_tab


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
    dests = (*model.nodes, *model.endpoints)
    nsub = 1 + max(
        routing.injection_subnet(src, dest)
        for src in model.nodes
        for dest in dests
    )
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
    return rows, rowof, nsub * len(dests), reps


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
        if (spec.width, spec.height) in ((9, 4), (3, 4))
        and not dict(spec.options).get("edge_memory")
    ]
    assert {(type(parts.routing), order) for _, parts, order in lowered} == {
        (routing, order)
        for routing in fastsim._SUPPORTED_ROUTINGS
        for order in ("xy", "yx")
        # The 3-D packs route X-Y-Z whatever dor_order says; they meet
        # "xy" at the other sizes.
        if order == "yx" or not routing.__module__.endswith("topo3d")
    }
    assert {(model.kind, order) for model, _, order in lowered} == {
        (kind, order)
        for kind in ("wormhole", "fbfc", "vc")
        for order in ("xy", "yx")
    }


@pytest.mark.parametrize("spec", DESIGN_POINTS, ids=_point_id)
def test_assembled_rows_equal_all_pairs_rows(spec):
    model, components = _lowered(spec)
    routing = components.routing
    assert model.tables["nax"] == len(model.nodes[0])
    assert "rows" not in model.tables
    if model.kind == "vc":
        out, vcn, dl = all_pairs_vc_tables(model, routing)
        got_out, got_vcn, got_dl = expanded_vc_tables(model)
        assert got_out.tobytes() == out.tobytes()
        assert got_vcn.tobytes() == vcn.tobytes()
        assert got_dl.tobytes() == dl.tobytes()
    else:
        rows, rowof, rowlen, reps = all_pairs_wormhole_rows(model, routing)
        got_rows, got_rowof, got_rowlen = expanded_wormhole_rows(model, reps)
        assert got_rowlen == rowlen
        assert got_rowof.tobytes() == rowof.tobytes()
        assert got_rows.tobytes() == rows.tobytes()
    # The injection subnet of every pair is the XOR of two per-id bits.
    dests = (*model.nodes, *model.endpoints)
    for s, src in enumerate(model.nodes):
        assert [subnet_of(model, s, d) for d in range(model.nd)] == [
            routing.injection_subnet(src, dest) for dest in dests
        ], src


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
    NetworkSpec.for_network("mesh3d", 4, 3, depth=2),
    NetworkSpec.for_network("torus3d", 4, 4, depth=3),
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
    routing, graph = components.routing, components.graph
    tables, n, nd = model.tables, model.n, model.nd
    sublen = tables["sublen"]
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
            entry = route_lookup(model, r, in_port, subnet * sublen, d)
            if model.kind == "vc":
                assert entry & 7 == out
                # step_vc's accept-time VC reconstruction.
                if entry >> 4:
                    lowered_vc = 1
                elif tables["sd"][in_port * VCRouter.NUM_PORTS + out]:
                    lowered_vc = in_vc
                else:
                    lowered_vc = entry >> 3 & 1
                assert lowered_vc == vc, (node, in_port, in_vc, dest)
            else:
                assert (in_vc, vc) == (0, 0)
                assert entry == out, (node, in_port, subnet, dest)
            states += 1
    # At least the injection and ejection state of every pair.
    assert states >= n * nd
    assert P_IDX == graph.ejection_port


# ---------------------------------------------------------------------------
# The C lookup itself: hop_count over every pair of ids
# ---------------------------------------------------------------------------
#: One point per builtin family and table form: small tables indexed by
#: computed coordinates are where an out-of-bounds read would hide from
#: a bit-identity test, so CI runs this under the sanitizers.
HOP_POINTS = [
    NetworkSpec.for_network("mesh", 7, 5, dor_order="yx"),
    NetworkSpec.for_network("ruche3-pop", 16, 8, half=True),
    NetworkSpec.for_network("ruche2-depop", 9, 4),
    NetworkSpec.for_network("ruche1", 6, 5),
    NetworkSpec.for_network("multimesh", 6, 9),
    NetworkSpec.for_network("torus-fbfc", 8, 5),
    NetworkSpec.for_network("torus", 8, 6),
    NetworkSpec.for_network("half-torus", 9, 4, dor_order="yx"),
    NetworkSpec.for_network("mesh", 16, 8, edge_memory=True),
    NetworkSpec.for_network(
        "ruche2-depop", 16, 8, half=True, edge_memory=True, dor_order="yx"
    ),
    NetworkSpec.for_network(
        "half-torus", 16, 8, edge_memory=True, dor_order="yx"
    ),
    NetworkSpec.for_network("mesh3d", 5, 3, depth=2),
    NetworkSpec.for_network("torus3d", 4, 4, depth=3),
    # Flat rows: fault-aware BFS tables (some pairs partitioned).
    NetworkSpec.for_network(
        "mesh", 8, 8, fault_links=6, fault_routers=2, fault_seed=4
    ),
]


@pytest.mark.skipif(
    _ckernel.get_kernel() is None, reason="no native kernel"
)
@pytest.mark.parametrize(
    "spec",
    HOP_POINTS,
    ids=lambda s: _point_id(
        s.with_options(dor_order=dict(s.options).get("dor_order", "xy"))
    )
    + ("-faulted" if s.fault_links else ""),
)
def test_kernel_hop_counts_equal_the_routing_walk(spec):
    """``hop_count(ctx, s, d)`` walks ``route_lookup()`` and ``dn`` in C;
    ``routing.hop_count`` walks the algorithm.  Every source id x every
    destination id — endpoints as a manycore network meets them: as
    destinations of an X-Y (request) network and as sources of a Y-X
    (response) one, the directions in which the first routed hop of
    the algorithm's walk is the endpoint's one channel."""
    from repro.errors import RoutingError

    run = resolve_run("lowering_problems", spec)
    model = fastsim._compile(spec, run.config, run.faults)
    routing = resolve_components(spec, run.config, run.faults)[0].routing
    assert ("rows" in model.tables) == bool(spec.fault_links)
    state = fastsim._RunState(model, None)
    hop_count = _ckernel.get_kernel().hop_count
    ids = (*model.nodes, *model.endpoints)
    dead = run.faults.dead_routers if run.faults is not None else ()
    yx = dict(spec.options).get("dor_order") == "yx"
    for s, src in enumerate(ids[: None if yx else model.n]):
        for d, dest in enumerate(ids[: model.n if yx else None]):
            if src in dead:
                continue
            try:
                expected = routing.hop_count(src, dest)
            except RoutingError:
                expected = -1
            assert hop_count(state.cref, s, d) == expected, (src, dest)
