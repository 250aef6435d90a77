"""The native step kernel of the compiled engine.

:mod:`repro.sim.fastsim` lowers a design point into flat integer arrays;
this module steps them.  It compiles a single-file C translation of the
reference router microarchitecture with the system C compiler, once per
machine, and loads it through :mod:`ctypes`.  The kernel performs exactly the
reference engine's two-phase step (arbitrate every router against
cycle-start state, then commit every grant in discovery order) for all
three router kinds, and it is the *only* stepping implementation outside
the reference oracle — the cross-engine differential tests pin
kernel == reference.

The exported surface is ``run_block(Ctx*)``, ``hop_count(const Ctx*, s,
d)`` and ``ctx_size``.  ``run_block`` runs up to ``count`` cycles of one
phase entirely in C: injection
(drawn in the kernel, replicating CPython's Mersenne Twister so the
timing/destination streams are consumed bit-identically — see
``mt_next``; or read off a host-supplied ``(cycle, source, dest)``
schedule, ``MODE_SCHEDULE`` — either way through the one ``enqueue``),
the router step (``step_noc`` for wormhole/FBFC, ``step_vc`` for the
dateline-VC torus routers — both ``static``, picked by ``Ctx.kind``),
the transient-fault drop
decision (the ``faults:drops`` stream, drawn from the same C twister at
the reference's draw point), ejection scoring (the measured-latency
moments, accumulated in ``st[]``; a per-packet ejection log only for
runs that ask for per-packet data), and the stall/starvation
watchdogs.  Run state is sized by the packets alive, not by those
injected: a packet's fields are one record, a *slot* of the one
array ``Ctx.pk`` (``PK_LEN`` int32 fields, named by the ``PK_*``
constants), taken at enqueue and freed at ejection or a transient drop
onto a free list threaded through the records' link field — the field
that also threads a source's waiting packets into its injection list.
A slot is an index and nothing else: the packet's identity is its
*serial*, the monotonic count ``st[ST_NPK]`` at its enqueue, kept in the
record for reports.  A block that might run out of slots (or of log)
stops *before* the injection round with ``STOP_CAPACITY`` so the host
can double the records and re-enter.

A caller that is itself the traffic steps the same driver one cycle
per call (``count = 1``; :class:`repro.sim.fastsim.CompiledFabric`):
its offers are that cycle's schedule, and a source id at or past the
router count is an endpoint, whose packet the one ``enqueue`` pushes
onto the endpoint's *entry queue* (``entry[]``: the router input FIFO
its channel arrives on) or refuses when that is full.  Outputs wired to
a sink — the ejection port, a channel into an endpoint — carry a
negative ``dn``: ``-1`` is always ready, ``-2 - k`` is gated by the
host-written word ``ready[k]``, and a not-ready sink blocks its output
exactly where a full downstream queue would.  Every route is read by
one function, ``route_lookup()`` — per-axis tables indexed by compared
coordinates for the builtin dimension-ordered routings, flat rows where
the information is per pair — which ``enqueue``, both steps and
``hop_count`` (a pair's zero-load hop count, walked over the same
tables) call.

Both steps and every helper around them take the one run context,
:class:`Ctx`, whose layout is declared once (:data:`_CTX_TYPEDEF`: the
C ``typedef`` text, parsed into the ctypes ``_fields_``).  ``ctx_size``
reports the C ``sizeof`` so :func:`get_kernel` can refuse a library
whose ABI padding disagrees with the ctypes mirror.

The kernel is the compiled engine: when no C compiler is available, the
compile or the layout self-check fails, or ``REPRO_NO_CKERNEL`` is set
in the environment, :func:`get_kernel` returns ``None`` and compiled
requests run on the reference engine (``no-native-kernel``).

The shared object lives in a content-addressed on-disk cache, one
self-verifying file per (source, ``$CC`` command line, flags, machine):
``step_noc-<key>-<sha256 of its bytes>.so`` in the first of
``$REPRO_CACHE_DIR``, ``$XDG_CACHE_HOME/repro``, ``~/.cache/repro`` and
``<tmp>/repro-cache-<uid>`` that this user owns and nobody else can
write (:func:`_cache_dir`).  A process that finds its entry checks the
bytes against the name, loads it and runs the layout check —
no compiler; an entry that fails any of the three is unlinked and
rebuilt once.  With no usable directory the build goes to a private
temporary directory that is removed as soon as the library is loaded.
Deleting the cache is always safe; :data:`origin` records which of
these happened.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import warnings
from typing import Any, Iterator, List, NamedTuple, Optional, Tuple

__all__ = ["Ctx", "get_kernel"]

#: The run context's one declaration.  This text is compiled as the C
#: ``typedef`` *and* parsed into ``Ctx._fields_`` (:func:`_ctx_fields`),
#: so a member's position, width and name are written exactly once.
_CTX_TYPEDEF = r"""
/* One run: everything the kernel reads or writes, filled once by the
 * host (fastsim._RunState) and passed as a single pointer, so the
 * per-call ctypes marshalling cost is constant instead of linear in the
 * argument count.  Both steps read it; a pointer only one router kind
 * uses stays NULL for the other. */
typedef struct {
    /* The design point.  kind (KIND_*) picks the step: step_noc for the
     * wormhole / FBFC routers, step_vc for the dateline-VC router.  n
     * counts the routers — the sources the kernel draws for — and nd the
     * destination ids, routers then endpoints: the length of every
     * per-id vector and flat route row's subnet share, and the most
     * packets or ejections one cycle can add.  Source ids n .. nd-1 are
     * endpoints, offered only through a schedule.  np is a router's
     * port count (9; 5 on the VC router) and nvc the lanes of an input
     * port (1 off the VC router); depth is the slots of one lane's
     * FIFO. */
    int32_t kind, n, nd, np, nvc, depth, track_links;

    /* Route tables, read through route_lookup() and nowhere else: what
     * a packet bound for id d requests on input in of router r.  An
     * entry is an output port — on the VC router packed with the VC
     * taken on a change of dimension and the dateline flag, out | vcn
     * << 3 | dl << 4.  The builtin dimension-ordered routings, on the
     * grid they were written for, decide from coordinates, so their
     * models carry one small table per axis (nax > 0 axes, in routing
     * order), [router coordinate][destination coordinate][destination
     * parity].  dkey[id * nax + j] is id's column in axis j's table, 2
     * * its coordinate on j (shifted so that the least over all ids is
     * 0) + the parity of its coordinate sum, and rkey[r * nax + j] the
     * offset of router r's row in it; with j the first axis r and d
     * differ on (the last when none), the entry is axtab[cls[in] + sub
     * + rkey[r * nax + j] + dkey[d * nax + j]], cls[in] being the
     * offset of input in's class (inputs that route alike share one).
     * Where the information really is per pair (fault-aware BFS tables,
     * the generic walk: nax == 0) input port q = r * np + in routes by
     * row rowof[q] of rows, each rowlen long: rows[rowof[q] * rowlen +
     * sub + d].  sub is the packet's subnet offset, subnet * sublen —
     * one subnet's share of a row, or of a class's axis tables — and
     * the parity subnet of a packet s -> d is spar[s] ^ par[d] (NULL:
     * one subnet). */
    const int32_t *dkey, *rkey, *cls, *axtab, *rowof, *rows, *spar, *par;
    int32_t nax, sublen, rowlen;

    /* Static tables, shared by every run of a compiled model.
     * dn[r * np + o] is the downstream down_r * np + down_in of a
     * router-to-router output, -1 for a free sink or -2 - k for one
     * gated by ready[k] (NULL unless a fabric gates a sink; it then
     * installs its own copy of dn).  entry[s - n] is the flat (router,
     * input) port whose lane 0 a packet from endpoint s enters on. */
    const int32_t *dn, *ready, *entry;
    /* step_noc only, flat (router, port) ids of stride 9: output ro
     * arbitrates among its ncv[ro] candidate inputs cands[ro * 9 ..],
     * input i sitting at position pm[r * 81 + o * 9 + i] of output o's
     * list (-1: not admitted); needs[ro * 9 + pos] is the FBFC slot
     * requirement of a candidate (2 to enter a ring, else 1). */
    const int32_t *ncv, *cands, *pm, *needs;
    /* step_vc only, flat (router, port) ids of stride 5: router r's
     * wired inputs are plist[pofs[r] .. + pcnt[r]], feed[r * 5 + i] the
     * router upstream of input i (-1: none, or an endpoint), sd the 5x5
     * same-dimension predicate. */
    const int32_t *plist, *pofs, *pcnt, *feed, *sd;

    /* Per-run queue state, flattened over (router, input, lane) with
     * lane stride nvc: queue q = (r * np + i) * nvc + lane is the ring
     * buf[qoff[q] .. + qcap[q]], holding qlen[q] packet slots from
     * position qhead[q].  The P injection port owns a single lane of
     * qcap 0: its qlen[q] packets wait on the source's list phead[s] ->
     * link ... -> ptail[s] — the reference's unbounded injection deque.
     * occ[r] counts the packets router r holds.  rr holds the
     * round-robin pointers: the per-(router, output) arbiters of
     * step_noc, the per-(router, input) VC muxes of step_vc. */
    int32_t *buf;
    const int32_t *qoff, *qcap;
    int32_t *qhead, *qlen, *occ, *rr, *phead, *ptail;
    /* step_vc only: prio[r] is the wavefront allocator's rotating
     * priority.  dirty[r] must be raised by whoever changes what router
     * r could grant: the kernel on every queue change, the host when it
     * turns a gated sink ready. */
    int32_t *prio, *dirty;

    /* Packet records: pk holds pk_cap slots of PK_LEN int32 fields, slot
     * p's field F at pk[p * PK_LEN + F] — source, inject cycle, measured
     * bit, link, destination, the output it requests where it now
     * waits, the one field the router kinds do not share (the subnet
     * offset subnet * sublen on step_noc, the assigned VC on step_vc)
     * and the serial: the low 32 bits of st[ST_NPK] at its enqueue, the
     * packet's id in reports.  Queues, the ejection list and the grant
     * lists name slots.  A slot is held from enqueue to ejection or a
     * transient drop, then pushed on the free list pk_free -> link ->
     * ... (-1 ends it), which enqueue pops before it takes the fresh
     * slot pk_top (the high-water mark).  Freeing writes the link only.
     * The held slots are the packets the network holds, st[ST_OCC]; the
     * host doubles pk_cap on STOP_CAPACITY until nd more fit. */
    int32_t *pk;
    int32_t pk_cap, pk_top, pk_free, ej_cap;

    /* Counters and per-cycle outputs.  st is the ST_LEN-slot counter
     * block shared with the host (the ST_* indices): cycle, occupancy,
     * injected total/measured, delivered total/measured, idle cycles,
     * starved cycles, packet count, ejection-log length, stop code,
     * cycles ran this block, dropped total/measured, and the measured-
     * latency moments — sum, sum of squares as two unsigned 64-bit
     * limbs, min, max (meaningful once ST_DEL_MEAS is non-zero).
     * hop[o] counts channel traversals per output direction and link[r
     * * 9 + o] per link (stride 9 on both kinds; only if track_links).
     * A step lists its grants in gsq / gro (source queue, flat router
     * output) and the slots it ejected in ej[0 .. *nej).  ejlog takes
     * (source, latency) per measured ejection — the source, not the
     * slot, which a later cycle of the block may reuse — ej_cap
     * entries; NULL for runs that keep no per-packet data. */
    int64_t *st, *hop, *link;
    int32_t *gsq, *gro, *ej, *nej, *ejlog;

    /* The block: up to count cycles of one phase (blocks never span
     * phases, so measured and drain are per-block constants), ended
     * early by stall_window idle cycles, starve_window cycles without
     * an ejection (-1: off) or, draining, target measured packets
     * resolved. */
    int32_t count, measured, drain, stall_window, starve_window;
    int64_t target;

    /* Injection: mode (MODE_*) says who chooses each cycle's packets.
     * The kernel draws at rate from t_mt / d_mt, CPython Mersenne
     * Twister states (624 words + the output index, exactly
     * random.Random.getstate()[1]) of the timing and destination
     * streams — NULL under MODE_SCHEDULE, where the host draws — with
     * dtab[s] the destination of source s (MODE_TABLE; -1: none) or
     * perm the ubits-bit node permutation (MODE_UNIFORM).
     * MODE_SCHEDULE: sched_len (cycle, source, dest) triples sorted by
     * (cycle, source); the kernel injects those of the current cycle
     * and advances sched_cur past them, so the cursor survives block
     * boundaries and capacity re-entry.  Under a fault schedule the
     * kernel's draw is the host's, filtered alike: live[s] is 0 for a
     * dead router, which never injects nor takes a timing draw (NULL:
     * every source is live), and when reach is set a drawn destination
     * whose route entry on the source's injection port is -1 (no
     * surviving path) is discarded after the pattern's draws. */
    double rate;
    uint32_t *t_mt, *d_mt;
    const int32_t *dtab, *perm, *sched, *live;
    int32_t mode, ubits, sched_len, sched_cur, reach;

    /* Transient faults: fmap[router * 9 + out] is the fault index on
     * that link (-1 = healthy; NULL = no transient faults at all),
     * fprob[k] its drop probability and fwin[2k .. 2k+1] its active
     * [start, end) cycle window; x_mt is the faults:drops twister. */
    const int32_t *fmap, *fwin;
    const double *fprob;
    uint32_t *x_mt;
} Ctx;
"""

_C_TYPES = {
    "int32_t": ctypes.c_int32,
    "int64_t": ctypes.c_int64,
    "uint32_t": ctypes.c_uint32,
    "double": ctypes.c_double,
}


def _ctx_fields(typedef: str) -> List[Tuple[str, Any]]:
    """The ctypes ``_fields_`` of a C ``typedef struct { ... }`` text.

    Understands what :data:`_CTX_TYPEDEF` uses and nothing more:
    comments, ``[const] <type> [*]name, [*]name...;`` over the
    fixed-width types of :data:`_C_TYPES`.  Anything else raises here,
    at import.
    """
    body = re.sub(r"/\*.*?\*/", "", typedef, flags=re.S)
    fields: List[Tuple[str, Any]] = []
    for decl in body[body.index("{") + 1 : body.rindex("}")].split(";"):
        words = [word for word in decl.split() if word != "const"]
        if not words:
            continue
        ctype = _C_TYPES[words[0]]
        for name in "".join(words[1:]).split(","):
            pointer = name.startswith("*")
            fields.append(
                (name.lstrip("*"), ctypes.POINTER(ctype) if pointer else ctype)
            )
    return fields


class Ctx(ctypes.Structure):
    """The ctypes mirror of the kernel's ``Ctx``: one per simulation run.

    Its layout and the meaning of every member are :data:`_CTX_TYPEDEF`;
    nothing is declared here.
    """

    _fields_ = _ctx_fields(_CTX_TYPEDEF)


# st[] slot indices shared between the C drivers and the Python side.
ST_CYCLE = 0
ST_OCC = 1
ST_INJ_TOTAL = 2
ST_INJ_MEAS = 3
ST_DEL_TOTAL = 4
ST_DEL_MEAS = 5
ST_IDLE = 6
ST_STARVED = 7
ST_NPK = 8
ST_NEJLOG = 9
ST_STOP = 10
ST_RAN = 11
ST_DROP_TOTAL = 12
ST_DROP_MEAS = 13
ST_LAT_SUM = 14
ST_LAT_SQ_LO = 15  # sum of squared latencies, low / high unsigned limb
ST_LAT_SQ_HI = 16
ST_LAT_MIN = 17
ST_LAT_MAX = 18
ST_LEN = 19

# Packet record fields (Ctx.pk): slot p's field F is pk[p * PK_LEN + F].
PK_SRC = 0
PK_INJ = 1  # inject cycle
PK_MEAS = 2  # injected while measuring
PK_NEXT = 3  # the injection list's link, or the free list's
PK_DEST = 4
PK_OUT = 5  # the output it requests where it now waits
PK_AUX = 6  # subnet offset (step_noc) or assigned VC (step_vc)
PK_SERIAL = 7  # low 32 bits of st[ST_NPK] at its enqueue
PK_LEN = 8

# Ctx.kind: the router microarchitecture, which picks the step.
KIND_WORMHOLE = 0
KIND_FBFC = 1
KIND_VC = 2

# Ctx.mode: who chooses each cycle's packets.
MODE_TABLE = 0  # per-source destination table (deterministic patterns)
MODE_UNIFORM = 1  # builtin uniform-random, drawn from d_mt
MODE_SCHEDULE = 2  # the host: host-drawn patterns and trace replay

# Stop codes written to st[ST_STOP] by the block drivers.
STOP_BUDGET = 0  # ran `count` cycles
STOP_STALL = 1
STOP_STARVE = 2
STOP_DRAINED = 3
STOP_CAPACITY = 4  # the next injection round might not fit; grow, re-enter


def _defines() -> str:
    """The C source's ``#define`` prelude: every constant above, by name.

    The kernel indexes ``st[]`` and compares kinds, modes and stop codes
    through these names only, so the two sides cannot number one
    differently.
    Checked once, here, at import: the ``ST_*`` slots tile
    ``0..ST_LEN-1`` (``ST_LEN`` itself closing the range).
    """
    consts = {
        name: value
        for name, value in globals().items()
        if name.startswith(("ST_", "PK_", "KIND_", "MODE_", "STOP_"))
    }
    slots = sorted(v for k, v in consts.items() if k.startswith("ST_"))
    if slots != list(range(ST_LEN + 1)):
        raise AssertionError("the ST_* slots must tile range(ST_LEN)")
    return "".join(f"#define {k} {v}\n" for k, v in consts.items())


_SOURCE = (
    _defines()
    + "#include <stdint.h>\n"
    + _CTX_TYPEDEF
    + r"""
/* CPython's Mersenne Twister (_randommodule.c genrand_uint32), operating
 * on the 625-word state random.Random.getstate()[1] hands out: 624 state
 * words followed by the output index.  Replicating the generator rather
 * than calling back into Python lets a whole injection phase run in C
 * while consuming the timing/destination streams bit-identically.
 */
#define MT_N 624
#define MT_M 397

/* Regenerate all 624 words once the output index has used them up. */
static void mt_regen(uint32_t *mt)
{
    static const uint32_t mag[2] = {0u, 0x9908b0dfu};
    uint32_t y;
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (mt[kk] & 0x80000000u) | (mt[kk + 1] & 0x7fffffffu);
        mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag[y & 1u];
    }
    for (; kk < MT_N - 1; kk++) {
        y = (mt[kk] & 0x80000000u) | (mt[kk + 1] & 0x7fffffffu);
        mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag[y & 1u];
    }
    y = (mt[MT_N - 1] & 0x80000000u) | (mt[0] & 0x7fffffffu);
    mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag[y & 1u];
}

/* The next output of mt, its index held by the caller in *idx: a loop
 * that draws from one stream keeps the index in a register and stores
 * it back to mt[MT_N] once. */
static inline uint32_t mt_take(uint32_t *mt, uint32_t *idx)
{
    if (*idx >= MT_N) {
        mt_regen(mt);
        *idx = 0;
    }
    uint32_t y = mt[(*idx)++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    y ^= y >> 18;
    return y;
}

static uint32_t mt_next(uint32_t *mt)
{
    uint32_t idx = mt[MT_N];
    const uint32_t y = mt_take(mt, &idx);
    mt[MT_N] = idx;
    return y;
}

/* random.Random.random(): 53-bit double in [0, 1), index held as in
 * mt_take. */
static inline double mt_random_at(uint32_t *mt, uint32_t *idx)
{
    const uint32_t a = mt_take(mt, idx) >> 5;
    const uint32_t b = mt_take(mt, idx) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

static double mt_random(uint32_t *mt)
{
    uint32_t idx = mt[MT_N];
    const double u = mt_random_at(mt, &idx);
    mt[MT_N] = idx;
    return u;
}

/* random.Random._randbelow(nmax) for nmax < 2**31: draw kbits
 * (= nmax.bit_length()) top bits, rejecting draws >= nmax. */
static int32_t mt_below(uint32_t *mt, int32_t nmax, int32_t kbits)
{
    uint32_t r = mt_next(mt) >> (32 - kbits);
    while (r >= (uint32_t)nmax)
        r = mt_next(mt) >> (32 - kbits);
    return (int32_t)r;
}

/* Slot `pid`'s record, and its return to the free list (the link is the
 * only field that changes, so a caller may read the others after). */
#define REC(c, pid) ((c)->pk + (pid) * PK_LEN)

static inline void pk_release(Ctx *c, int pid)
{
    REC(c, pid)[PK_NEXT] = c->pk_free;
    c->pk_free = pid;
}

/* The transient-fault drop decision for packet slot `pid`, just popped
 * toward link `lk` (= router * 9 + output).  Drawn exactly where the
 * reference engine draws it — after the pop, before the link count and
 * the sink/forward — so both engines consume the faults:drops stream in
 * the same (commit) order; an active fault draws even at probability 0.
 * Returns 1, with the loss accounted in st[] and the slot freed, when
 * the packet dies on the wires.
 */
static int drop_flit(Ctx *c, int lk, int pid)
{
    if (!c->fmap)
        return 0;
    const int k = c->fmap[lk];
    if (k < 0)
        return 0;
    const int64_t cycle = c->st[ST_CYCLE];
    if (cycle < c->fwin[2 * k] || cycle >= c->fwin[2 * k + 1])
        return 0;
    if (!(mt_random(c->x_mt) < c->fprob[k]))
        return 0;
    c->st[ST_OCC]--;
    c->st[ST_DROP_TOTAL]++;
    if (REC(c, pid)[PK_MEAS])
        c->st[ST_DROP_MEAS]++;
    pk_release(c, pid);
    return 1;
}

/* An output's downstream code dn: >= 0 is the flat (router, input)
 * queue it feeds; -1 is a free sink (the P ejection port, or a channel
 * into an endpoint) that always takes the packet; -2 - k is a sink gated
 * by the host-written word ready[k].  A not-ready sink blocks the output
 * exactly where a full downstream queue does. */
#define SINK_BLOCKED(d, ready) ((d) < -1 && !(ready)[-2 - (d)])

/* The round-robin pick: the first set bit of the non-zero mask m at or
 * after position ptr, cyclically. */
static inline int rr_pick(int m, int ptr)
{
    const int hi = m >> ptr;
    return hi ? ptr + __builtin_ctz(hi) : __builtin_ctz(m);
}

/* The one route lookup: the table entry of a packet bound for id d, of
 * subnet offset sub, on input in of router r (the layouts are Ctx's
 * route-table comment).  Axis form compares coordinates (keys, less the
 * parity bit) in routing order and indexes the table of the first axis
 * that differs; the last axis's table holds the ejection where none
 * does. */
static inline int route_lookup(const Ctx *c, int r, int in, int sub, int d)
{
    const int nax = c->nax;
    if (!nax)
        return c->rows[c->rowof[r * c->np + in] * c->rowlen + sub + d];
    const int32_t *a = c->dkey + r * nax, *b = c->dkey + d * nax;
    int j = nax - 1;  /* selects, not branches: the answer is a coin toss */
    for (int k = j; k-- > 0;)
        j = (a[k] ^ b[k]) >> 1 ? k : j;
    return c->axtab[c->cls[in] + sub + c->rkey[r * nax + j] + b[j]];
}

/* One network cycle for the wormhole / FBFC router kinds.
 *
 * Phase 1 arbitrates every output of every occupied router against
 * cycle-start queue state: the heads of the non-empty inputs set bits
 * of a request mask over candidate positions per requested output,
 * and each requested output picks its rotating round-robin winner,
 * gated on downstream space — a free slot for wormhole, the candidate's
 * bubble need for FBFC.  Both walk bitmasks with ctz, so the work is
 * per request, not per port.  Phase 2 commits the grants in discovery
 * order: router ascending, output ascending — the reference engine's
 * arbitrate-all-then-commit-all step, so the pointer trajectories and
 * commit order are identical by construction.  Returns the number of
 * grants (dropped ones included); ejected packet slots are written to
 * ej/nej for the caller to score.
 */
static int step_noc(Ctx *c)
{
    const int32_t R = c->n, depth = c->depth, fbfc = c->kind == KIND_FBFC;
    const int32_t *qoff = c->qoff, *qcap = c->qcap;
    int32_t *qhead = c->qhead, *qlen = c->qlen;
    int ng = 0, nej = 0;
    for (int r = 0; r < R; r++) {
        if (!c->occ[r])
            continue;
        const int rb = r * 9;
        int inm = 0;  /* the non-empty inputs */
        for (int i = 0; i < 9; i++)
            inm |= (qlen[rb + i] != 0) << i;
        const int32_t *pmr = c->pm + r * 81;
        int reqm[9];  /* valid where outm has the output's bit */
        int outm = 0;
        while (inm) {
            const int i = __builtin_ctz(inm);
            inm &= inm - 1;
            const int qi = rb + i;
            const int pid = i ? c->buf[qoff[qi] + qhead[qi]] : c->phead[r];
            const int o = REC(c, pid)[PK_OUT];
            const int pos = pmr[o * 9 + i];
            if (pos < 0)
                continue;
            if (outm >> o & 1) {
                reqm[o] |= 1 << pos;
            } else {
                outm |= 1 << o;
                reqm[o] = 1 << pos;
            }
        }
        while (outm) {
            const int o = __builtin_ctz(outm);
            outm &= outm - 1;
            const int ro = rb + o;
            const int nc = c->ncv[ro];
            if (nc <= 0)
                continue;
            const int d = c->dn[ro];
            int m = reqm[o];
            if (!fbfc) {
                if (d >= 0 ? qlen[d] >= depth : SINK_BLOCKED(d, c->ready))
                    continue;
            } else {
                const int avail = d >= 0 ? depth - qlen[d]
                    : SINK_BLOCKED(d, c->ready) ? 0 : depth;
                if (avail <= 0)
                    continue;
                if (avail == 1) {
                    /* needs <= 2: only one free slot takes a need-2
                     * candidate (a ring entry) off the list */
                    const int32_t *nd = c->needs + ro * 9;
                    for (int b = m; b; b &= b - 1)
                        if (nd[__builtin_ctz(b)] > 1)
                            m &= ~(b & -b);
                    if (!m)
                        continue;
                }
            }
            const int pos = rr_pick(m, c->rr[ro]);
            c->rr[ro] = pos + 1 < nc ? pos + 1 : 0;
            c->gsq[ng] = rb + c->cands[ro * 9 + pos];
            c->gro[ng] = ro;
            ng++;
        }
    }
    for (int g = 0; g < ng; g++) {
        const int sq = c->gsq[g], ro = c->gro[g];
        const int r = ro / 9, o = ro % 9;
        int pid;
        if (sq == r * 9) {
            /* the P port: pop the source's injection list */
            pid = c->phead[r];
            c->phead[r] = REC(c, pid)[PK_NEXT];
        } else {
            int h = qhead[sq];
            pid = c->buf[qoff[sq] + h];
            h++;
            if (h >= qcap[sq])
                h = 0;
            qhead[sq] = h;
        }
        qlen[sq]--;
        c->occ[r]--;
        if (o && drop_flit(c, ro, pid))
            continue;
        if (c->track_links && o)
            c->link[ro]++;
        const int d = c->dn[ro];
        if (o)
            c->hop[o]++;  /* a sink output is a channel; P is not */
        if (d < 0) {
            c->ej[nej++] = pid;
        } else {
            int32_t *p = REC(c, pid);
            p[PK_OUT] = route_lookup(c, d / 9, d % 9, p[PK_AUX], p[PK_DEST]);
            int t = qhead[d] + qlen[d];
            if (t >= qcap[d])
                t -= qcap[d];
            c->buf[qoff[d] + t] = pid;
            qlen[d]++;
            c->occ[d / 9]++;
        }
    }
    *c->nej = nej;
    return ng;
}

/* One network cycle for the dateline-VC (torus) router kind.
 *
 * Per dirty router: collect the requesting (input, output) pairs with a
 * per-pair lane candidate mask (queue heads only, gated on downstream
 * lane space), visit them in the wavefront allocator's diagonal order
 * (rotating priority, input ascending within a diagonal), grant
 * greedily against the input/output free masks with round-robin VC
 * muxing, then commit all grants in discovery order applying the
 * dateline / same-dimension / new-dimension VC transition.  A pair's
 * place in that order, key = ((i + o - priority) mod 5) * 5 + i, is one
 * of 25 and tells the pair back (o = (key / 5 + 4i + priority) mod 5),
 * so the pairs are one bitmask over keys, visited by ctz.
 */
static int step_vc(Ctx *c)
{
    const int32_t R = c->n, depth = c->depth, nvc = c->nvc;
    const int32_t *qoff = c->qoff, *qcap = c->qcap;
    int32_t *qhead = c->qhead, *qlen = c->qlen;
    int ng = 0, nej = 0;
    for (int r = 0; r < R; r++) {
        if (!c->dirty[r])
            continue;
        c->dirty[r] = 0;
        if (!c->occ[r])
            continue;
        int cm[25];  /* lane mask of the pair at key: valid where keys is */
        int keys = 0;
        const int rb5 = r * 5;
        const int pc = c->pcnt[r];
        const int po = c->pofs[r];
        const int base_p = c->prio[r];
        for (int pi = 0; pi < pc; pi++) {
            const int i = c->plist[po + pi];
            const int nlanes = i == 0 ? 1 : nvc;
            const int lb = (rb5 + i) * nvc;
            for (int lane = 0; lane < nlanes; lane++) {
                const int q = lb + lane;
                if (!qlen[q])
                    continue;
                const int pid = i ? c->buf[qoff[q] + qhead[q]] : c->phead[r];
                const int32_t *p = REC(c, pid);
                const int o = p[PK_OUT];
                const int code = c->dn[rb5 + o];
                if (code >= 0
                        ? qlen[code * nvc + p[PK_AUX]] >= depth
                        : SINK_BLOCKED(code, c->ready))
                    continue;
                const int key = (i + o + 5 - base_p) % 5 * 5 + i;
                if (keys >> key & 1) {
                    cm[key] |= 1 << lane;
                } else {
                    keys |= 1 << key;
                    cm[key] = 1 << lane;
                }
            }
        }
        if (!keys)
            continue;
        c->prio[r] = base_p < 4 ? base_p + 1 : 0;
        int in_free = 31, out_free = 31;
        while (keys) {
            const int key = __builtin_ctz(keys);
            keys &= keys - 1;
            const int i = key % 5;
            if (!((in_free >> i) & 1))
                continue;
            const int o = (key / 5 + 4 * i + base_p) % 5;
            if (!((out_free >> o) & 1))
                continue;
            in_free &= ~(1 << i);
            out_free &= ~(1 << o);
            const int best = rr_pick(cm[key], c->rr[rb5 + i]);
            c->rr[rb5 + i] = best + 1 < nvc ? best + 1 : 0;
            c->gsq[ng] = (rb5 + i) * nvc + best;
            c->gro[ng] = rb5 + o;
            ng++;
        }
    }
    for (int g = 0; g < ng; g++) {
        const int sq = c->gsq[g], ro = c->gro[g];
        const int r = ro / 5, o = ro % 5;
        const int i = sq / nvc % 5;
        int pid;
        if (!i) {
            /* the P port: pop the source's injection list */
            pid = c->phead[r];
            c->phead[r] = REC(c, pid)[PK_NEXT];
        } else {
            int h = qhead[sq];
            pid = c->buf[qoff[sq] + h];
            h++;
            if (h >= qcap[sq])
                h = 0;
            qhead[sq] = h;
        }
        qlen[sq]--;
        c->occ[r]--;
        c->dirty[r] = 1;
        const int f = c->feed[r * 5 + i];
        if (f >= 0 && qlen[sq] >= depth - 1)
            c->dirty[f] = 1;
        if (o && drop_flit(c, r * 9 + o, pid))
            continue;
        if (c->track_links && o)
            c->link[r * 9 + o]++;
        const int code = c->dn[ro];
        if (o)
            c->hop[o]++;  /* a sink output is a channel; P is not */
        if (code < 0) {
            c->ej[nej++] = pid;
        } else {
            int32_t *p = REC(c, pid);
            const int down_r = code / 5;
            const int e = route_lookup(c, down_r, code % 5, 0, p[PK_DEST]);
            const int out2 = e & 7;
            const int avc = p[PK_AUX];
            p[PK_OUT] = out2;
            p[PK_AUX] = e >> 4 ? 1
                : c->sd[(code % 5) * 5 + out2] ? avc : e >> 3 & 1;
            const int dq = code * nvc + avc;
            int t = qhead[dq] + qlen[dq];
            if (t >= qcap[dq])
                t -= qcap[dq];
            c->buf[qoff[dq] + t] = pid;
            qlen[dq]++;
            c->occ[down_r]++;
            c->dirty[down_r] = 1;
        }
    }
    *c->nej = nej;
    return ng;
}

/* Subnet offset of a packet s -> d: the parity subnet a router source
 * picks at injection, times one subnet's share of the tables.  Endpoint
 * sources (s >= n) ride subnet 0, as the reference's memory injection
 * does. */
static inline int route_base(const Ctx *c, int s, int d)
{
    return c->spar && s < c->n ? (c->spar[s] ^ c->par[d]) * c->sublen : 0;
}

/* The one enqueue: a new packet s -> d, whoever chose it, in a free
 * slot (the free list's head, else the high-water mark) under the next
 * serial.  A router source (s < n) appends to its unbounded injection
 * list; an endpoint source (s >= n, offered only by the host) pushes
 * onto its entry queue — the (router, input) FIFO its channel arrives
 * on, lane 0 — routed by that input's row class / same-dimension
 * predicate, and is refused (nothing happens, no serial is taken) when
 * the queue is full. */
static inline void enqueue(Ctx *c, int s, int d)
{
    const int n = c->n;
    const int port = s < n ? s * c->np : c->entry[s - n];
    const int r = port / c->np;
    const int q = port * c->nvc;
    int32_t *qlen = c->qlen;
    const int32_t *qcap = c->qcap;
    if (s >= n && qlen[q] >= qcap[q])
        return;
    int pid = c->pk_free;
    if (pid >= 0)
        c->pk_free = REC(c, pid)[PK_NEXT];
    else
        pid = c->pk_top++;
    int32_t *p = REC(c, pid);
    p[PK_SERIAL] = (int32_t)(uint32_t)c->st[ST_NPK]++;
    p[PK_SRC] = s;
    p[PK_INJ] = (int32_t)c->st[ST_CYCLE];
    p[PK_MEAS] = c->measured;
    p[PK_DEST] = d;
    const int in = port - r * c->np, sub = route_base(c, s, d);
    const int e = route_lookup(c, r, in, sub, d);
    if (c->kind == KIND_VC) {
        const int o = e & 7;
        p[PK_OUT] = o;
        /* sd[] is never set for the P input, so an injection takes the
         * destination's VC; an entry holds lane 0. */
        p[PK_AUX] = e >> 4 ? 1 : c->sd[in * 5 + o] ? 0 : e >> 3 & 1;
        c->dirty[r] = 1;
    } else {
        p[PK_AUX] = sub;
        p[PK_OUT] = e;
    }
    c->occ[r]++;
    if (s >= n) {
        int t = c->qhead[q] + qlen[q];
        if (t >= qcap[q])
            t -= qcap[q];
        c->buf[c->qoff[q] + t] = pid;
    } else {
        if (qlen[q])
            REC(c, c->ptail[s])[PK_NEXT] = pid;
        else
            c->phead[s] = pid;
        c->ptail[s] = pid;
    }
    qlen[q]++;
    c->st[ST_OCC]++;
    c->st[ST_INJ_TOTAL]++;
    if (c->measured)
        c->st[ST_INJ_MEAS]++;
}

/* One cycle's injection round.  MODE_SCHEDULE: the host chose the
 * packets (and consumed whatever RNG streams choosing took); enqueue
 * this cycle's entries.  Otherwise draw them here in the reference's
 * order: live sources ascending, one timing draw each, then the
 * destination (table lookup, or the uniform pattern's rejection loop on
 * d_mt), discarded under reach when no path leads there.  Nothing else
 * reads t_mt, so its index stays in a local for the round. */
static void inject_block(Ctx *c)
{
    const int n = c->n;
    const int32_t *live = c->live;
    if (c->mode == MODE_SCHEDULE) {
        const int32_t cycle = (int32_t)c->st[ST_CYCLE];
        while (c->sched_cur < c->sched_len
               && c->sched[3 * c->sched_cur] == cycle) {
            const int32_t *rec = c->sched + 3 * c->sched_cur++;
            enqueue(c, rec[1], rec[2]);
        }
        return;
    }
    uint32_t *t_mt = c->t_mt;
    uint32_t t_idx = t_mt[MT_N];
    const double rate = c->rate;
    for (int s = 0; s < n; s++) {
        if (live && !live[s])
            continue;
        if (!(mt_random_at(t_mt, &t_idx) < rate))
            continue;
        int d;
        if (c->mode == MODE_TABLE) {
            d = c->dtab[s];
            if (d < 0)
                continue;
        } else {
            int idx = mt_below(c->d_mt, n, c->ubits);
            while (c->perm[idx] == s)
                idx = mt_below(c->d_mt, n, c->ubits);
            d = c->perm[idx];
        }
        if (c->reach && route_lookup(c, s, 0, route_base(c, s, d), d) < 0)
            continue;
        enqueue(c, s, d);
    }
    t_mt[MT_N] = t_idx;
}

/* The block stepper.
 *
 * Each call runs up to c->count cycles of one phase (warmup, measure,
 * or drain — blocks never span phases, so c->measured and c->drain are
 * per-block constants): the injection round (inject_block), the router
 * step, ejection scoring (the measured-latency moments, plus a log
 * entry when the run keeps per-packet data), and the stall/starvation
 * watchdogs — all in the exact order of the reference cycle.  Budgets
 * are the host's: its phase driver ends a block where one is due.
 * Counters live in the ST_LEN-slot int64 st[] block and the STOP_* code
 * tells the caller why the block ended (both #defined from the
 * Python-side constants).  On a watchdog trip the loop breaks BEFORE
 * the cycle counter increments, matching the reference raise points.
 * A capacity stop breaks before the injection round of a cycle whose
 * packets (one per source at most) or ejections (one per sink at most;
 * sources and sinks both number nd, routers and endpoints) might not
 * fit the free record slots (pk_cap less the st[ST_OCC] in use) or the
 * log — never mid-round, so no twister is half consumed, no schedule
 * entry half read and no watchdog counter moves.
 */
int run_block(Ctx *c)
{
    int64_t *st = c->st;
    const int32_t *ej = c->ej;
    int32_t ran = 0;
    int stop = STOP_BUDGET;
    while (ran < c->count) {
        if (st[ST_OCC] + c->nd > c->pk_cap
            || (c->ejlog && st[ST_NEJLOG] + c->nd > c->ej_cap)) {
            stop = STOP_CAPACITY;
            break;
        }
        inject_block(c);
        const int moved = c->kind == KIND_VC ? step_vc(c) : step_noc(c);
        const int ne = *c->nej;
        for (int k = 0; k < ne; k++) {
            const int pid = ej[k];
            const int32_t *p = REC(c, pid);
            pk_release(c, pid);
            st[ST_OCC]--;
            st[ST_DEL_TOTAL]++;
            if (!p[PK_MEAS])
                continue;
            const int64_t lat = st[ST_CYCLE] - p[PK_INJ];
            const uint64_t sq = (uint64_t)lat * (uint64_t)lat;
            const uint64_t lo = (uint64_t)st[ST_LAT_SQ_LO] + sq;
            st[ST_LAT_SQ_LO] = (int64_t)lo;
            st[ST_LAT_SQ_HI] += lo < sq;
            st[ST_LAT_SUM] += lat;
            if (!st[ST_DEL_MEAS] || lat < st[ST_LAT_MIN])
                st[ST_LAT_MIN] = lat;
            if (!st[ST_DEL_MEAS] || lat > st[ST_LAT_MAX])
                st[ST_LAT_MAX] = lat;
            st[ST_DEL_MEAS]++;
            if (c->ejlog) {
                c->ejlog[2 * st[ST_NEJLOG]] = p[PK_SRC];
                c->ejlog[2 * st[ST_NEJLOG] + 1] = (int32_t)lat;
                st[ST_NEJLOG]++;
            }
        }
        if (moved) {
            st[ST_IDLE] = 0;
        } else if (st[ST_OCC]) {
            st[ST_IDLE]++;
            if (st[ST_IDLE] >= c->stall_window) {
                stop = STOP_STALL;
                break;
            }
        }
        if (c->starve_window >= 0) {
            if (ne || !st[ST_OCC]) {
                st[ST_STARVED] = 0;
            } else {
                st[ST_STARVED]++;
                if (st[ST_STARVED] >= c->starve_window) {
                    stop = STOP_STARVE;
                    break;
                }
            }
        }
        st[ST_CYCLE]++;
        ran++;
        if (c->drain && st[ST_DEL_MEAS] + st[ST_DROP_MEAS] >= c->target) {
            stop = STOP_DRAINED;
            break;
        }
    }
    st[ST_STOP] = stop;
    st[ST_RAN] = ran;
    return stop;
}

/* Channel traversals of a packet s -> d at zero load, walked over the
 * tables the steps route by (what routing.hop_count computes from the
 * algorithm): every output taken but the final P, the channel into a
 * destination endpoint and the channel out of a source endpoint
 * included.  -1 when the walk does not end at d. */
int hop_count(const Ctx *c, int s, int d)
{
    const int n = c->n, np = c->np;
    const int sub = route_base(c, s, d);
    int port = s < n ? s * np : c->entry[s - n];
    int hops = s >= n;
    for (int limit = n * np; port >= 0 && limit > 0; limit--) {
        const int r = port / np;
        int o = route_lookup(c, r, port % np, sub, d);
        if (c->kind == KIND_VC)
            o &= 7;  /* the output of a packed entry */
        if (o <= 0)
            return o ? -1 : hops;
        hops++;
        port = c->dn[r * np + o];
        if (port < 0)
            return hops;  /* a sink output: the endpoint d */
    }
    return -1;
}

/* sizeof(Ctx) and the st[] length this library was compiled with, for
 * the loader's self-check against the ctypes mirror: the layout is
 * declared once, but the padding is the compiler's. */
void ctx_size(int32_t out[2])
{
    out[0] = (int32_t)sizeof(Ctx);
    out[1] = ST_LEN;
}
"""
)

class KernelOrigin(NamedTuple):
    """Where this process's kernel came from (:data:`origin`)."""

    #: The cache entry the library was loaded from; ``None`` for a temp
    #: build (its directory is gone once loaded) or no kernel.
    path: Optional[str]
    #: ``cache-hit``; ``built`` (no entry for the key); ``rebuilt`` (the
    #: entry failed its digest, ``dlopen`` or the layout check and was
    #: replaced); ``temp-build`` (no usable cache directory); or
    #: ``unavailable``.
    how: str


#: Fixed compiler arguments; the source arrives on stdin so the bytes of
#: the output do not depend on a temporary file name.
_FLAGS = ("-O2", "-fPIC", "-shared", "-x", "c", "-")

_lib: Optional[ctypes.CDLL] = None
_tried = False
#: Set by :func:`get_kernel` (``None`` until it has run); read it as
#: ``_ckernel.origin``.  It carries no timings.
origin: Optional[KernelOrigin] = None


def _cache_candidates() -> Iterator[str]:
    env = os.environ
    yield env.get("REPRO_CACHE_DIR", "")
    yield os.path.join(env.get("XDG_CACHE_HOME", ""), "repro")
    yield os.path.join(os.path.expanduser("~"), ".cache", "repro")
    import tempfile

    yield os.path.join(tempfile.gettempdir(), f"repro-cache-{os.getuid()}")


def _cache_dir() -> Optional[str]:
    """The first candidate directory it is safe to ``dlopen`` from.

    That is: an absolute path that exists or can be created (mode
    0700), is owned by this user, grants the owner write and search,
    grants group and other no write, and is writable in fact.  ``None``
    when no candidate qualifies.
    """
    for path in _cache_candidates():
        if not os.path.isabs(path):
            continue  # unset, or $HOME unresolvable
        try:
            os.makedirs(path, mode=0o700, exist_ok=True)
            status = os.stat(path)
        except OSError:
            continue
        if (
            status.st_uid == os.getuid()
            and status.st_mode & 0o322 == 0o300
            and os.access(path, os.W_OK | os.X_OK)
        ):
            return path
    return None


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _build(
    directory: str, key: str, compiler: List[str], text: str
) -> str:
    """Compile ``text`` into ``directory``; the published entry's path.

    The compiler writes under a unique temporary name and the finished
    file is renamed onto ``step_noc-<key>-<sha256 of its bytes>.so``, so
    a reader never sees a partial entry and racing builders each
    publish a whole one (the same one, unless ``$CC`` makes the bytes
    depend on the builder, as ``-g`` does through its working
    directory).
    """
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix="step_noc-", suffix=".tmp"
    )
    os.close(fd)
    try:
        done = subprocess.run(
            [*compiler, *_FLAGS, "-o", tmp],
            input=text.encode(),
            capture_output=True,
            timeout=120,
        )
        if done.returncode:
            said = done.stderr.decode(errors="replace").strip().splitlines()
            raise RuntimeError(
                f"{' '.join(compiler)} exited with status "
                f"{done.returncode}: " + "\n".join(said[-5:])
            )
        with open(tmp, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        entry = os.path.join(directory, f"step_noc-{key}-{digest}.so")
        os.replace(tmp, entry)
    except BaseException:
        _unlink(tmp)
        raise
    return entry


def _load(entry: str) -> ctypes.CDLL:
    """``dlopen`` one entry after checking its bytes against its name,
    then check its layout against the ctypes mirror; raises on any
    disagreement."""
    with open(entry, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    if not entry.endswith(f"-{digest}.so"):
        raise RuntimeError(f"{entry} does not hash to the digest it names")
    lib = ctypes.CDLL(entry)
    lib.ctx_size.argtypes = [ctypes.POINTER(ctypes.c_int32)]
    lib.ctx_size.restype = None
    theirs = (ctypes.c_int32 * 2)()
    lib.ctx_size(theirs)
    ours = [ctypes.sizeof(Ctx), ST_LEN]
    if list(theirs) != ours:
        raise RuntimeError(
            f"struct layout mismatch: C sizeof(Ctx), ST_LEN = "
            f"{list(theirs)}, ctypes mirror = {ours}"
        )
    lib.run_block.argtypes = [ctypes.POINTER(Ctx)]
    lib.run_block.restype = ctypes.c_int
    lib.hop_count.argtypes = [
        ctypes.POINTER(Ctx),
        ctypes.c_int,
        ctypes.c_int,
    ]
    lib.hop_count.restype = ctypes.c_int
    return lib


def _obtain() -> Tuple[ctypes.CDLL, KernelOrigin]:
    """Load the kernel from the cache, building what is missing.

    The key names everything the bytes depend on: the source, the
    compiler command line, the flags and the machine.  An entry that
    fails :func:`_load` is unlinked and rebuilt once; a fresh build
    that fails it is unlinked and the failure raised.
    """
    import shlex

    # $CC may carry arguments ("ccache cc", "cc -fsanitize=address").
    compiler = shlex.split(os.environ.get("CC", "cc"))
    # Diagnostics and sanitizer reports name the file CI's lint writes.
    text = '#line 1 "step_noc.c"\n' + _SOURCE
    key = hashlib.sha256(
        "\0".join([text, *compiler, *_FLAGS, os.uname().machine]).encode()
    ).hexdigest()
    directory = _cache_dir()
    if directory is None:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-ckernel-") as tmp:
            # The mapping outlives the file.
            lib = _load(_build(tmp, key, compiler, text))
        return lib, KernelOrigin(None, "temp-build")
    prefix = f"step_noc-{key}-"
    found = sorted(
        name
        for name in os.listdir(directory)
        if name.startswith(prefix) and name.endswith(".so")
    )
    if found:
        stale = os.path.join(directory, found[0])
        try:
            return _load(stale), KernelOrigin(stale, "cache-hit")
        except Exception:
            _unlink(stale)
    entry = _build(directory, key, compiler, text)
    try:
        lib = _load(entry)
    except Exception:
        _unlink(entry)
        raise
    return lib, KernelOrigin(entry, "rebuilt" if found else "built")


def get_kernel() -> Optional[ctypes.CDLL]:
    """The loaded step kernel, obtained on first call.

    Returns ``None`` when ``REPRO_NO_CKERNEL`` is set (nothing touches
    the disk), no working C compiler is on ``PATH``, the build/load
    fails for any reason, or the library's ``sizeof(Ctx)`` disagrees
    with the ctypes mirror — compiled requests then run on the
    reference engine.  A failure is cached as a negative result (one
    :class:`RuntimeWarning`, never a rebuild attempt per run), so a
    broken toolchain costs one compiler invocation per process, not
    one per simulation.  :data:`origin` says which way it went.
    """
    global _lib, _tried, origin
    if _tried:
        return _lib
    _tried = True
    origin = KernelOrigin(None, "unavailable")
    if os.environ.get("REPRO_NO_CKERNEL"):
        return None
    try:
        _lib, origin = _obtain()
    except Exception as exc:
        warnings.warn(
            f"native step kernel unavailable ({type(exc).__name__}: "
            f"{exc}); compiled-engine requests will run on the "
            f"reference engine for this process",
            RuntimeWarning,
            stacklevel=2,
        )
    return _lib
