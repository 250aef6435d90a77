"""The native step kernel of the compiled engine.

:mod:`repro.sim.fastsim` lowers a design point into flat integer arrays;
this module steps them.  It compiles a single-file C translation of the
reference router microarchitecture with the system C compiler at first
use and loads it through :mod:`ctypes`.  The kernel performs exactly the
reference engine's two-phase step (arbitrate every router against
cycle-start state, then commit every grant in discovery order) for all
three router kinds, and it is the *only* stepping implementation outside
the reference oracle — the cross-engine differential tests pin
kernel == reference.

The exported surface is the pair of whole-phase block drivers,

``run_block_noc(StepCtx*, BlockCtx*)`` / ``run_block_vc(VcCtx*, BlockCtx*)``

which run up to ``count`` cycles of one phase entirely in C: injection
(drawn in the kernel, replicating CPython's Mersenne Twister so the
timing/destination streams are consumed bit-identically — see
``mt_next``; or read off a host-supplied ``(cycle, source, dest)``
schedule, ``MODE_SCHEDULE`` — either way through the one ``enqueue``),
the router step (``step_noc`` for wormhole/FBFC, ``step_vc`` for the
dateline-VC torus routers — both ``static``), the transient-fault drop
decision (the ``faults:drops`` stream, drawn from the same C twister at
the reference's draw point), ejection scoring (the measured-latency
moments, accumulated in ``st[]``; a per-packet ejection log only for
runs that ask for per-packet data), and the stall/starvation/
cycle-budget watchdogs.  Run state is sized by traffic: a source's
waiting packets are an intrusive list threaded through the per-packet
``pnext`` array, and a block that might outgrow the packet records (or
the log) stops *before* the injection round with ``STOP_CAPACITY`` so
the host can double them and re-enter.

A caller that is itself the traffic steps the same drivers one cycle
per call (``count = 1``; :class:`repro.sim.fastsim.CompiledFabric`):
its offers are that cycle's schedule, and a source id at or past the
router count is an endpoint, whose packet the one ``enqueue`` pushes
onto the endpoint's *entry queue* (``entry[]``: the router input FIFO
its channel arrives on) or refuses when that is full.  Outputs wired to
a sink — the ejection port, a channel into an endpoint — carry a
negative ``dn``: ``-1`` is always ready, ``-2 - k`` is gated by the
host-written word ``ready[k]``, and a not-ready sink blocks its output
exactly where a full downstream queue would.  ``hop_count_noc`` /
``hop_count_vc`` walk the same route tables for a pair's zero-load hop
count.
``ctx_sizes`` reports the C struct sizes so :func:`get_kernel` can
refuse a library whose layout drifted from the ctypes mirrors below.

The kernel is the compiled engine: when no C compiler is available, the
compile or the layout self-check fails, or ``REPRO_NO_CKERNEL`` is set
in the environment, :func:`get_kernel` returns ``None`` and compiled
requests run on the reference engine (``no-native-kernel``).  The
shared object lives in a process-lifetime temporary directory; nothing
is installed.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import tempfile
import warnings
from typing import Optional

__all__ = ["BlockCtx", "StepCtx", "VcCtx", "get_kernel"]

_I32P = ctypes.POINTER(ctypes.c_int32)
_I64P = ctypes.POINTER(ctypes.c_int64)
_U32P = ctypes.POINTER(ctypes.c_uint32)


class StepCtx(ctypes.Structure):
    """Mirror of the C ``StepCtx``: one pointer block per simulation run.

    Filling the struct once and passing a single pointer per cycle keeps
    the per-call ctypes marshalling cost constant instead of linear in
    the argument count.  ``dn[r*9+o]`` is the downstream ``down_r*9 +
    down_in`` of a router-to-router output, ``-1`` for a free sink or
    ``-2 - k`` for one gated by ``ready[k]`` (NULL unless a fabric gates
    a sink); route rows are ``rowlen`` = subnets x destinations long,
    destinations being routers then endpoints.
    """

    _fields_ = [
        ("R", ctypes.c_int32),
        ("depth", ctypes.c_int32),
        ("fbfc", ctypes.c_int32),
        ("track_links", ctypes.c_int32),
        ("rowlen", ctypes.c_int32),
        # static tables (per compiled model)
        ("dn", _I32P),
        ("ncv", _I32P),
        ("cands", _I32P),
        ("pm", _I32P),
        ("needs", _I32P),
        ("rowof", _I32P),
        ("rows", _I32P),
        ("ready", _I32P),
        # per-run queue state
        ("buf", _I32P),
        ("qoff", _I32P),
        ("qcap", _I32P),
        ("qhead", _I32P),
        ("qlen", _I32P),
        ("arb", _I32P),
        ("occ", _I32P),
        # per-packet records (doubled by the host on STOP_CAPACITY)
        ("pout", _I32P),
        ("pbase", _I32P),
        ("pdest", _I32P),
        # counters and per-cycle outputs
        ("hop", _I64P),
        ("link", _I64P),
        ("gsq", _I32P),
        ("gro", _I32P),
        ("ej", _I32P),
        ("nej", _I32P),
    ]


class VcCtx(ctypes.Structure):
    """Mirror of the C ``VcCtx``: the dateline-VC router state block.

    Queue state is flattened over ``(router, input, lane)`` with lane
    stride ``nvc`` (the P injection port owns a single lane, whose
    packets wait on the ``BlockCtx`` injection list, not in ``buf``).
    Static tables mirror the compiled model: ``dn[r*5+o]`` is the
    downstream ``down_r*5+down_in`` (or ``-1`` for a free sink, ``-2 -
    k`` for one gated by ``ready[k]``), ``out_tab`` / ``vcn_tab`` /
    ``dl_tab`` are the per-destination route/VC/dateline rows (stride
    ``nd``: routers, then endpoints), and ``sd`` is the 5x5
    same-dimension predicate.  ``dirty[r]`` must be raised by whoever
    changes what router ``r`` could grant: the kernel on every queue
    change, the host when it turns a gated sink ready.
    """

    _fields_ = [
        ("R", ctypes.c_int32),
        ("depth", ctypes.c_int32),
        ("nvc", ctypes.c_int32),
        ("track_links", ctypes.c_int32),
        ("nd", ctypes.c_int32),
        # static tables (per compiled model)
        ("plist", _I32P),
        ("pofs", _I32P),
        ("pcnt", _I32P),
        ("dn", _I32P),
        ("feed", _I32P),
        ("out_tab", _I32P),
        ("vcn_tab", _I32P),
        ("dl_tab", _I32P),
        ("sd", _I32P),
        ("ready", _I32P),
        # per-run queue state
        ("buf", _I32P),
        ("qoff", _I32P),
        ("qcap", _I32P),
        ("qhead", _I32P),
        ("qlen", _I32P),
        ("vc_rr", _I32P),
        ("prio", _I32P),
        ("occ", _I32P),
        ("dirty", _I32P),
        # per-packet records (doubled by the host on STOP_CAPACITY)
        ("pout", _I32P),
        ("povc", _I32P),
        ("pdest", _I32P),
        # counters and per-cycle outputs
        ("hop", _I64P),
        ("link", _I64P),
        ("gsq", _I32P),
        ("gro", _I32P),
        ("ej", _I32P),
        ("nej", _I32P),
    ]


class BlockCtx(ctypes.Structure):
    """Mirror of the C ``BlockCtx``: one run's phase driver.

    ``t_mt``/``d_mt``/``x_mt`` are CPython Mersenne Twister states (624
    words + the output index, exactly ``random.Random.getstate()[1]``)
    for the timing, destination and ``faults:drops`` streams (the first
    two NULL under ``MODE_SCHEDULE``, where the host draws).  ``st`` is
    the ``ST_LEN``-slot ``int64`` counter block shared with the Python
    side (the ``ST_*`` indices below): cycle, occupancy, injected
    total/measured, delivered total/measured, idle cycles, starved
    cycles, packet count, ejection-log length, stop code, cycles ran
    this block, dropped total/measured, and the measured-latency
    moments — sum, sum of squares as two unsigned 64-bit limbs, min, max
    (min/max are meaningful once ``ST_DEL_MEAS`` is non-zero).

    ``n`` counts the routers — the sources the kernel draws for — and
    ``nd`` the destination ids, routers then endpoints: the stride of
    ``subnet`` and of every route row, and the most packets or ejections
    one cycle can add.  Source ids ``n .. nd-1`` are endpoints, offered
    only through a schedule; ``entry[s - n]`` is the flat ``(router,
    input)`` queue such a packet enters on.

    ``pk_cap`` is the length of every per-packet array (here and in the
    step context) and ``ej_cap`` the ejection log's, in entries;
    ``ejlog`` is NULL for runs that keep no per-packet data.  A source's
    waiting packets are the list ``phead[s]`` -> ``pnext[...]`` ->
    ``ptail[s]`` of ``qlen[P queue of s]`` packet ids — the reference's
    unbounded injection deque.
    """

    _fields_ = [
        ("t_mt", _U32P),
        ("d_mt", _U32P),
        ("x_mt", _U32P),
        ("rate", ctypes.c_double),
        ("n", ctypes.c_int32),
        ("nd", ctypes.c_int32),
        ("mode", ctypes.c_int32),
        ("ubits", ctypes.c_int32),
        ("count", ctypes.c_int32),
        ("measured", ctypes.c_int32),
        ("drain", ctypes.c_int32),
        ("stall_window", ctypes.c_int32),
        ("starve_window", ctypes.c_int32),
        ("target", ctypes.c_int64),
        ("maxc", ctypes.c_int64),
        ("dtab", _I32P),
        ("perm", _I32P),
        ("subnet", _I32P),
        ("entry", _I32P),
        # per-packet records (doubled by the host on STOP_CAPACITY)
        ("pk_cap", ctypes.c_int32),
        ("ej_cap", ctypes.c_int32),
        ("psrc", _I32P),
        ("pinj", _I32P),
        ("pmeas", _I32P),
        ("pnext", _I32P),
        # per-source injection lists
        ("phead", _I32P),
        ("ptail", _I32P),
        ("st", _I64P),
        ("ejlog", _I32P),
        # MODE_SCHEDULE: `sched_len` (cycle, source, dest) triples
        # sorted by (cycle, source); the kernel injects those of the
        # current cycle and advances `sched_cur` past them, so the
        # cursor survives block boundaries and capacity re-entry.
        ("sched", _I32P),
        ("sched_len", ctypes.c_int32),
        ("sched_cur", ctypes.c_int32),
        # transient faults: `fmap[router * 9 + out]` is the fault index
        # on that link (-1 = healthy; NULL = no transient faults at
        # all), `fprob[k]` its drop probability and `fwin[2k..2k+1]`
        # its active `[start, end)` cycle window.
        ("fmap", _I32P),
        ("fwin", _I32P),
        ("fprob", ctypes.POINTER(ctypes.c_double)),
    ]


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

# BlockCtx.mode: who chooses each cycle's packets.
MODE_TABLE = 0  # per-source destination table (deterministic patterns)
MODE_UNIFORM = 1  # builtin uniform-random, drawn from d_mt
MODE_SCHEDULE = 2  # the host: host-drawn patterns and trace replay

# Stop codes written to st[ST_STOP] by the block drivers.
STOP_BUDGET = 0  # ran `count` cycles
STOP_STALL = 1
STOP_STARVE = 2
STOP_DRAINED = 3
STOP_CAPACITY = 4  # the next injection round might not fit; grow, re-enter
STOP_MAX_CYCLES = 6


def _defines() -> str:
    """The C source's ``#define`` prelude: every constant above, by name.

    The kernel indexes ``st[]`` and compares modes and stop codes through
    these names only, so the two sides cannot number a slot differently.
    Checked once, here, at import: the ``ST_*`` slots tile
    ``0..ST_LEN-1`` (``ST_LEN`` itself closing the range).
    """
    consts = {
        name: value
        for name, value in globals().items()
        if name.startswith(("ST_", "MODE_", "STOP_"))
    }
    slots = sorted(v for k, v in consts.items() if k.startswith("ST_"))
    if slots != list(range(ST_LEN + 1)):
        raise AssertionError("the ST_* slots must tile range(ST_LEN)")
    return "".join(f"#define {k} {v}\n" for k, v in consts.items())


_SOURCE = _defines() + r"""
#include <stdint.h>

typedef struct {
    int32_t R, depth, fbfc, track_links, rowlen;
    const int32_t *dn, *ncv, *cands, *pm, *needs, *rowof, *rows, *ready;
    int32_t *buf;
    const int32_t *qoff, *qcap;
    int32_t *qhead, *qlen, *arb, *occ;
    int32_t *pout, *pbase, *pdest;
    int64_t *hop, *link;
    int32_t *gsq, *gro, *ej, *nej;
} StepCtx;

typedef struct {
    int32_t R, depth, nvc, track_links, nd;
    const int32_t *plist, *pofs, *pcnt;
    const int32_t *dn, *feed;
    const int32_t *out_tab, *vcn_tab, *dl_tab, *sd, *ready;
    int32_t *buf;
    const int32_t *qoff, *qcap;
    int32_t *qhead, *qlen, *vc_rr, *prio, *occ, *dirty;
    int32_t *pout, *povc, *pdest;
    int64_t *hop, *link;
    int32_t *gsq, *gro, *ej, *nej;
} VcCtx;

typedef struct {
    uint32_t *t_mt, *d_mt, *x_mt;
    double rate;
    int32_t n, nd, mode, ubits, count, measured, drain;
    int32_t stall_window, starve_window;
    int64_t target, maxc;
    const int32_t *dtab, *perm, *subnet, *entry;
    int32_t pk_cap, ej_cap;
    int32_t *psrc, *pinj, *pmeas, *pnext;
    int32_t *phead, *ptail;
    int64_t *st;
    int32_t *ejlog;
    const int32_t *sched;
    int32_t sched_len, sched_cur;
    const int32_t *fmap, *fwin;
    const double *fprob;
} BlockCtx;

/* CPython's Mersenne Twister (_randommodule.c genrand_uint32), operating
 * on the 625-word state random.Random.getstate()[1] hands out: 624 state
 * words followed by the output index.  Replicating the generator rather
 * than calling back into Python lets a whole injection phase run in C
 * while consuming the timing/destination streams bit-identically.
 */
#define MT_N 624
#define MT_M 397

static uint32_t mt_next(uint32_t *mt)
{
    uint32_t idx = mt[MT_N];
    uint32_t y;
    if (idx >= MT_N) {
        static const uint32_t mag[2] = {0u, 0x9908b0dfu};
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
        idx = 0;
    }
    y = mt[idx];
    mt[MT_N] = idx + 1;
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    y ^= y >> 18;
    return y;
}

/* random.Random.random(): 53-bit double in [0, 1). */
static double mt_random(uint32_t *mt)
{
    const uint32_t a = mt_next(mt) >> 5;
    const uint32_t b = mt_next(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
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

/* The transient-fault drop decision for packet `pid`, just popped
 * toward link `lk` (= router * 9 + output).  Drawn exactly where the
 * reference engine draws it — after the pop, before the link count and
 * the sink/forward — so both engines consume the faults:drops stream in
 * the same (commit) order; an active fault draws even at probability 0.
 * Returns 1, with the loss accounted in st[], when the packet dies on
 * the wires.
 */
static int drop_flit(BlockCtx *b, int lk, int pid)
{
    if (!b->fmap)
        return 0;
    const int k = b->fmap[lk];
    if (k < 0)
        return 0;
    const int64_t cycle = b->st[ST_CYCLE];
    if (cycle < b->fwin[2 * k] || cycle >= b->fwin[2 * k + 1])
        return 0;
    if (!(mt_random(b->x_mt) < b->fprob[k]))
        return 0;
    b->st[ST_OCC]--;
    b->st[ST_DROP_TOTAL]++;
    if (b->pmeas[pid])
        b->st[ST_DROP_MEAS]++;
    return 1;
}

/* An output's downstream code dn: >= 0 is the flat (router, input)
 * queue it feeds; -1 is a free sink (the P ejection port, or a channel
 * into an endpoint) that always takes the packet; -2 - k is a sink gated
 * by the host-written word ready[k].  A not-ready sink blocks the output
 * exactly where a full downstream queue does. */
#define SINK_BLOCKED(d, ready) ((d) < -1 && !(ready)[-2 - (d)])

/* One network cycle for the wormhole / FBFC router kinds.
 *
 * Phase 1 arbitrates every output of every occupied router against
 * cycle-start queue state (request masks over candidate positions,
 * rotating round-robin winner, downstream space gate — free slot for
 * wormhole, per-entry bubble need for FBFC).  Phase 2 commits the
 * grants in discovery order: router ascending, output ascending —
 * the reference engine's arbitrate-all-then-commit-all step, so the
 * pointer trajectories and commit order are identical by construction.
 * Returns the number of grants (dropped ones included); ejected packet
 * ids are written to ej/nej for the caller to score.
 */
static int step_noc(StepCtx *c, BlockCtx *b)
{
    const int32_t R = c->R, depth = c->depth, fbfc = c->fbfc;
    const int32_t *qoff = c->qoff, *qcap = c->qcap;
    int32_t *qhead = c->qhead, *qlen = c->qlen;
    int ng = 0, nej = 0;
    for (int r = 0; r < R; r++) {
        if (!c->occ[r])
            continue;
        int reqm[9] = {0, 0, 0, 0, 0, 0, 0, 0, 0};
        const int rb = r * 9;
        const int32_t *pmr = c->pm + r * 81;
        int anyreq = 0;
        for (int i = 0; i < 9; i++) {
            const int qi = rb + i;
            if (!qlen[qi])
                continue;
            const int pid = i ? c->buf[qoff[qi] + qhead[qi]] : b->phead[r];
            const int o = c->pout[pid];
            const int pos = pmr[o * 9 + i];
            if (pos < 0)
                continue;
            reqm[o] |= 1 << pos;
            anyreq = 1;
        }
        if (!anyreq)
            continue;
        for (int o = 0; o < 9; o++) {
            const int m = reqm[o];
            if (!m)
                continue;
            const int ro = rb + o;
            const int nc = c->ncv[ro];
            if (nc <= 0)
                continue;
            const int d = c->dn[ro];
            int pos;
            if (!fbfc) {
                if (d >= 0 ? qlen[d] >= depth : SINK_BLOCKED(d, c->ready))
                    continue;
                pos = c->arb[ro];
                while (!((m >> pos) & 1)) {
                    pos++;
                    if (pos >= nc)
                        pos = 0;
                }
            } else {
                const int avail = d >= 0 ? depth - qlen[d]
                    : SINK_BLOCKED(d, c->ready) ? 0 : depth;
                if (avail <= 0)
                    continue;
                const int ptr = c->arb[ro];
                const int32_t *nd = c->needs + ro * 9;
                pos = -1;
                for (int k = 0; k < nc; k++) {
                    int p = ptr + k;
                    if (p >= nc)
                        p -= nc;
                    if (((m >> p) & 1) && avail >= nd[p]) {
                        pos = p;
                        break;
                    }
                }
                if (pos < 0)
                    continue;
            }
            c->arb[ro] = pos + 1 < nc ? pos + 1 : 0;
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
            pid = b->phead[r];
            b->phead[r] = b->pnext[pid];
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
        if (o && drop_flit(b, ro, pid))
            continue;
        if (c->track_links && o)
            c->link[ro]++;
        const int d = c->dn[ro];
        if (o)
            c->hop[o]++;  /* a sink output is a channel; P is not */
        if (d < 0) {
            c->ej[nej++] = pid;
        } else {
            c->pout[pid] = c->rows[c->rowof[d] * c->rowlen
                                   + c->pbase[pid] + c->pdest[pid]];
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
 * dateline / same-dimension / new-dimension VC transition.
 */
static int step_vc(VcCtx *c, BlockCtx *b)
{
    const int32_t R = c->R, depth = c->depth, nvc = c->nvc, nd = c->nd;
    const int32_t *qoff = c->qoff, *qcap = c->qcap;
    int32_t *qhead = c->qhead, *qlen = c->qlen;
    int ng = 0, nej = 0;
    for (int r = 0; r < R; r++) {
        if (!c->dirty[r])
            continue;
        c->dirty[r] = 0;
        if (!c->occ[r])
            continue;
        int cm[25] = {0};
        int touched[25];
        int ntouched = 0;
        const int rb5 = r * 5;
        const int pc = c->pcnt[r];
        const int po = c->pofs[r];
        for (int pi = 0; pi < pc; pi++) {
            const int i = c->plist[po + pi];
            const int nlanes = i == 0 ? 1 : nvc;
            const int lb = (rb5 + i) * nvc;
            for (int lane = 0; lane < nlanes; lane++) {
                const int q = lb + lane;
                if (!qlen[q])
                    continue;
                const int pid = i ? c->buf[qoff[q] + qhead[q]] : b->phead[r];
                const int o = c->pout[pid];
                const int code = c->dn[rb5 + o];
                if (code >= 0
                        ? qlen[code * nvc + c->povc[pid]] >= depth
                        : SINK_BLOCKED(code, c->ready))
                    continue;
                const int idx = i * 5 + o;
                if (!cm[idx])
                    touched[ntouched++] = idx;
                cm[idx] |= 1 << lane;
            }
        }
        if (!ntouched)
            continue;
        const int base_p = c->prio[r];
        c->prio[r] = base_p < 4 ? base_p + 1 : 0;
        /* insertion sort by the wavefront visit key
         * ((input + output - priority) mod 5, input); keys are unique
         * per pair so stability is moot. */
        for (int a = 1; a < ntouched; a++) {
            const int idx = touched[a];
            const int key =
                ((idx / 5 + idx % 5 - base_p + 5) % 5) * 5 + idx / 5;
            int b = a - 1;
            while (b >= 0) {
                const int jdx = touched[b];
                const int jkey =
                    ((jdx / 5 + jdx % 5 - base_p + 5) % 5) * 5 + jdx / 5;
                if (jkey <= key)
                    break;
                touched[b + 1] = jdx;
                b--;
            }
            touched[b + 1] = idx;
        }
        int in_free = 31, out_free = 31;
        for (int t = 0; t < ntouched; t++) {
            const int idx = touched[t];
            int mask = cm[idx];
            cm[idx] = 0;
            const int i = idx / 5;
            if (!((in_free >> i) & 1))
                continue;
            const int o = idx % 5;
            if (!((out_free >> o) & 1))
                continue;
            in_free &= ~(1 << i);
            out_free &= ~(1 << o);
            int best;
            if (mask & (mask - 1)) {
                const int ptr = c->vc_rr[rb5 + i];
                int best_key = nvc;
                int lane = 0;
                best = 0;
                while (mask) {
                    if (mask & 1) {
                        int key = lane - ptr;
                        if (key < 0)
                            key += nvc;
                        if (key < best_key) {
                            best_key = key;
                            best = lane;
                        }
                    }
                    mask >>= 1;
                    lane++;
                }
            } else {
                best = 0;
                while (!((mask >> best) & 1))
                    best++;
            }
            c->vc_rr[rb5 + i] = best + 1 < nvc ? best + 1 : 0;
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
            pid = b->phead[r];
            b->phead[r] = b->pnext[pid];
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
        if (o && drop_flit(b, r * 9 + o, pid))
            continue;
        if (c->track_links && o)
            c->link[r * 9 + o]++;
        const int code = c->dn[ro];
        if (o)
            c->hop[o]++;  /* a sink output is a channel; P is not */
        if (code < 0) {
            c->ej[nej++] = pid;
        } else {
            const int down_r = code / 5;
            const int row = down_r * nd + c->pdest[pid];
            const int out2 = c->out_tab[row];
            const int avc = c->povc[pid];
            int v2;
            if (c->dl_tab[row])
                v2 = 1;
            else if (c->sd[(code % 5) * 5 + out2])
                v2 = avc;
            else
                v2 = c->vcn_tab[row];
            c->pout[pid] = out2;
            c->povc[pid] = v2;
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

/* Whole-phase block drivers.
 *
 * Each call runs up to b->count cycles of one phase (warmup, measure,
 * or drain — blocks never span phases, so b->measured and b->drain are
 * per-block constants): the injection round (inject_block), the router
 * step, ejection scoring (the measured-latency moments, plus a log
 * entry when the run keeps per-packet data), and the stall/starvation/
 * cycle-budget watchdogs — all in the exact order of the reference run
 * loop.  Counters live in the ST_LEN-slot int64 st[] block and the
 * STOP_* code tells the caller why the block ended (both #defined from
 * the Python-side constants).  On a watchdog/budget trip the loop
 * breaks BEFORE the cycle counter increments, matching the reference
 * raise points.  A capacity stop breaks before the injection round of a
 * cycle whose packets (one per source at most) or ejections (one per
 * sink at most; sources and sinks both number nd, routers and endpoints)
 * might not fit the records or the log — never
 * mid-round, so no twister is half consumed, no schedule entry half
 * read and no watchdog counter moves.
 */

/* Route-row offset of a packet s -> d: the parity subnet a router
 * source picks at injection, times the destination stride.  Endpoint
 * sources (s >= n) ride subnet 0, as the reference's memory injection
 * does. */
static inline int route_base(const BlockCtx *b, int s, int d)
{
    return b->subnet && s < b->n ? b->subnet[s * b->nd + d] * b->nd : 0;
}

/* The one enqueue: a new packet s -> d, whoever chose it.  A router
 * source (s < n) appends to its unbounded injection list; an endpoint
 * source (s >= n, offered only by the host) pushes onto its entry queue
 * — the (router, input) FIFO its channel arrives on, lane 0 — routed by
 * that input's row class / same-dimension predicate, and is refused
 * (nothing happens) when the queue is full. */
static inline void enqueue(StepCtx *sc, VcCtx *vc, BlockCtx *b, int s, int d)
{
    /* sc is NULL when vc is set, and vice versa. */
    const int n = b->n;
    const int port = s < n ? s * (vc ? 5 : 9) : b->entry[s - n];
    const int q = vc ? port * vc->nvc : port;
    int32_t *qlen = vc ? vc->qlen : sc->qlen;
    const int32_t *qcap = vc ? vc->qcap : sc->qcap;
    if (s >= n && qlen[q] >= qcap[q])
        return;
    const int pid = (int)b->st[ST_NPK];
    b->st[ST_NPK] = pid + 1;
    b->psrc[pid] = s;
    b->pinj[pid] = (int32_t)b->st[ST_CYCLE];
    b->pmeas[pid] = b->measured;
    if (vc) {
        const int r = port / 5;
        const int row = r * vc->nd + d;
        const int out = vc->out_tab[row];
        vc->pdest[pid] = d;
        vc->pout[pid] = out;
        /* sd[] is never set for the P input, so an injection takes the
         * destination's VC; an entry holds lane 0. */
        vc->povc[pid] = vc->dl_tab[row] ? 1
            : vc->sd[port % 5 * 5 + out] ? 0 : vc->vcn_tab[row];
        vc->occ[r]++;
        vc->dirty[r] = 1;
    } else {
        const int base = route_base(b, s, d);
        sc->pdest[pid] = d;
        sc->pbase[pid] = base;
        sc->pout[pid] = sc->rows[sc->rowof[port] * sc->rowlen + base + d];
        sc->occ[port / 9]++;
    }
    if (s >= n) {
        int32_t *buf = vc ? vc->buf : sc->buf;
        const int32_t *qoff = vc ? vc->qoff : sc->qoff;
        int t = (vc ? vc->qhead : sc->qhead)[q] + qlen[q];
        if (t >= qcap[q])
            t -= qcap[q];
        buf[qoff[q] + t] = pid;
    } else {
        if (qlen[q])
            b->pnext[b->ptail[s]] = pid;
        else
            b->phead[s] = pid;
        b->ptail[s] = pid;
    }
    qlen[q]++;
    b->st[ST_OCC]++;
    b->st[ST_INJ_TOTAL]++;
    if (b->measured)
        b->st[ST_INJ_MEAS]++;
}

/* One cycle's injection round.  MODE_SCHEDULE: the host chose the
 * packets (and consumed whatever RNG streams choosing took); enqueue
 * this cycle's entries.  Otherwise draw them here in the reference's
 * order: sources ascending, one timing draw each, then the destination
 * (table lookup, or the uniform pattern's rejection loop on d_mt). */
static void inject_block(StepCtx *sc, VcCtx *vc, BlockCtx *b)
{
    const int n = b->n;
    if (b->mode == MODE_SCHEDULE) {
        const int32_t cycle = (int32_t)b->st[ST_CYCLE];
        while (b->sched_cur < b->sched_len
               && b->sched[3 * b->sched_cur] == cycle) {
            const int32_t *rec = b->sched + 3 * b->sched_cur++;
            enqueue(sc, vc, b, rec[1], rec[2]);
        }
        return;
    }
    for (int s = 0; s < n; s++) {
        if (!(mt_random(b->t_mt) < b->rate))
            continue;
        int d;
        if (b->mode == MODE_TABLE) {
            d = b->dtab[s];
            if (d < 0)
                continue;
        } else {
            int idx = mt_below(b->d_mt, n, b->ubits);
            while (b->perm[idx] == s)
                idx = mt_below(b->d_mt, n, b->ubits);
            d = b->perm[idx];
        }
        enqueue(sc, vc, b, s, d);
    }
}

static int run_block(StepCtx *sc, VcCtx *vc, BlockCtx *b)
{
    int64_t *st = b->st;
    const int32_t *ej = vc ? vc->ej : sc->ej;
    const int32_t *nejp = vc ? vc->nej : sc->nej;
    int32_t ran = 0;
    int stop = STOP_BUDGET;
    while (ran < b->count) {
        if (st[ST_NPK] + b->nd > b->pk_cap
            || (b->ejlog && st[ST_NEJLOG] + b->nd > b->ej_cap)) {
            stop = STOP_CAPACITY;
            break;
        }
        inject_block(sc, vc, b);
        const int moved = vc ? step_vc(vc, b) : step_noc(sc, b);
        const int ne = *nejp;
        for (int k = 0; k < ne; k++) {
            const int pid = ej[k];
            st[ST_OCC]--;
            st[ST_DEL_TOTAL]++;
            if (!b->pmeas[pid])
                continue;
            const int64_t lat = st[ST_CYCLE] - b->pinj[pid];
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
            if (b->ejlog) {
                b->ejlog[2 * st[ST_NEJLOG]] = pid;
                b->ejlog[2 * st[ST_NEJLOG] + 1] = (int32_t)lat;
                st[ST_NEJLOG]++;
            }
        }
        if (moved) {
            st[ST_IDLE] = 0;
        } else if (st[ST_OCC]) {
            st[ST_IDLE]++;
            if (st[ST_IDLE] >= b->stall_window) {
                stop = STOP_STALL;
                break;
            }
        }
        if (b->starve_window >= 0) {
            if (ne || !st[ST_OCC]) {
                st[ST_STARVED] = 0;
            } else {
                st[ST_STARVED]++;
                if (st[ST_STARVED] >= b->starve_window) {
                    stop = STOP_STARVE;
                    break;
                }
            }
        }
        st[ST_CYCLE]++;
        ran++;
        if (b->maxc >= 0 && st[ST_CYCLE] >= b->maxc) {
            stop = STOP_MAX_CYCLES;
            break;
        }
        if (b->drain && st[ST_DEL_MEAS] + st[ST_DROP_MEAS] >= b->target) {
            stop = STOP_DRAINED;
            break;
        }
    }
    st[ST_STOP] = stop;
    st[ST_RAN] = ran;
    return stop;
}

int run_block_noc(StepCtx *sc, BlockCtx *b)
{
    return run_block(sc, (VcCtx *)0, b);
}

int run_block_vc(VcCtx *vc, BlockCtx *b)
{
    return run_block((StepCtx *)0, vc, b);
}

/* Channel traversals of a packet s -> d at zero load, walked over the
 * tables the steps route by (what routing.hop_count computes from the
 * algorithm): every output taken but the final P, the channel into a
 * destination endpoint and the channel out of a source endpoint
 * included.  -1 when the walk does not end at d. */
static int hop_count(const StepCtx *sc, const VcCtx *vc, const BlockCtx *b,
                     int s, int d)
{
    const int np = vc ? 5 : 9;
    const int32_t *dn = vc ? vc->dn : sc->dn;
    const int base = route_base(b, s, d) + d;
    int port = s < b->n ? s * np : b->entry[s - b->n];
    int hops = s >= b->n;
    for (int limit = b->n * np; port >= 0 && limit > 0; limit--) {
        const int r = port / np;
        const int o = vc ? vc->out_tab[r * vc->nd + d]
                         : sc->rows[sc->rowof[port] * sc->rowlen + base];
        if (o <= 0)
            return o ? -1 : hops;
        hops++;
        port = dn[r * np + o];
        if (port < 0)
            return hops;  /* a sink output: the endpoint d */
    }
    return -1;
}

int hop_count_noc(const StepCtx *sc, const BlockCtx *b, int s, int d)
{
    return hop_count(sc, (const VcCtx *)0, b, s, d);
}

int hop_count_vc(const VcCtx *vc, const BlockCtx *b, int s, int d)
{
    return hop_count((const StepCtx *)0, vc, b, s, d);
}

/* Struct sizes and the st[] length this library was compiled with, for
 * the loader's layout self-check against the ctypes mirrors. */
void ctx_sizes(int32_t out[4])
{
    out[0] = (int32_t)sizeof(StepCtx);
    out[1] = (int32_t)sizeof(VcCtx);
    out[2] = (int32_t)sizeof(BlockCtx);
    out[3] = ST_LEN;
}
"""

_lib: Optional[ctypes.CDLL] = None
_tried = False
# Keeps the build directory (and its .so) alive for the process.
_tmpdir: Optional[tempfile.TemporaryDirectory] = None


def get_kernel() -> Optional[ctypes.CDLL]:
    """The loaded step kernel, building it on first call.

    Returns ``None`` when ``REPRO_NO_CKERNEL`` is set, no working C
    compiler is on ``PATH``, the build/load fails for any reason, or
    the library's struct layout disagrees with the ctypes mirrors —
    compiled requests then run on the reference engine.  A failure is
    cached as a negative result (one :class:`RuntimeWarning`, never a
    rebuild attempt per run), so a broken toolchain costs one compiler
    invocation per process, not one per simulation.
    """
    global _lib, _tried, _tmpdir
    if _tried:
        return _lib
    _tried = True
    if os.environ.get("REPRO_NO_CKERNEL"):
        return None
    try:
        _tmpdir = tempfile.TemporaryDirectory(prefix="repro-ckernel-")
        src = os.path.join(_tmpdir.name, "step_noc.c")
        out = os.path.join(_tmpdir.name, "step_noc.so")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(_SOURCE)
        compiler = os.environ.get("CC", "cc")
        subprocess.run(
            [compiler, "-O2", "-fPIC", "-shared", "-o", out, src],
            check=True,
            capture_output=True,
            timeout=120,
        )
        lib = ctypes.CDLL(out)
        lib.ctx_sizes.argtypes = [ctypes.POINTER(ctypes.c_int32)]
        lib.ctx_sizes.restype = None
        theirs = (ctypes.c_int32 * 4)()
        lib.ctx_sizes(theirs)
        ours = [ctypes.sizeof(t) for t in (StepCtx, VcCtx, BlockCtx)]
        ours.append(ST_LEN)
        if list(theirs) != ours:
            raise RuntimeError(
                f"struct layout mismatch: C sizeof(StepCtx, VcCtx, "
                f"BlockCtx), ST_LEN = {list(theirs)}, ctypes mirrors = "
                f"{ours}"
            )
        lib.run_block_noc.argtypes = [
            ctypes.POINTER(StepCtx),
            ctypes.POINTER(BlockCtx),
        ]
        lib.run_block_noc.restype = ctypes.c_int
        lib.run_block_vc.argtypes = [
            ctypes.POINTER(VcCtx),
            ctypes.POINTER(BlockCtx),
        ]
        lib.run_block_vc.restype = ctypes.c_int
        for hops, ctx in (
            (lib.hop_count_noc, StepCtx),
            (lib.hop_count_vc, VcCtx),
        ):
            hops.argtypes = [
                ctypes.POINTER(ctx),
                ctypes.POINTER(BlockCtx),
                ctypes.c_int,
                ctypes.c_int,
            ]
            hops.restype = ctypes.c_int
        _lib = lib
    except Exception as exc:
        _lib = None
        warnings.warn(
            f"native step kernel unavailable ({type(exc).__name__}: "
            f"{exc}); compiled-engine requests will run on the "
            f"reference engine for this process",
            RuntimeWarning,
            stacklevel=2,
        )
    return _lib
