"""Injection-trace capture and replay (the trace-driven fast path).

The execution-driven manycore model (:mod:`repro.manycore`) is the last
workload class pinned to the reference engine: its per-core injection
decisions come from a closed-loop cache/memory model that cannot lower
to flat arrays.  What *can* lower is the traffic it produces.  This
module records the per-core injection stream of one reference run into
a compact, deterministic on-disk trace, and replays it as a registered
traffic pattern (``trace_replay:<path>``) that the compiled engine
steps natively, its C kernel injecting straight from the trace.

File format (version 1, little-endian throughout)::

    offset 0   8 bytes   magic ``b"NOCTRACE"``
    offset 8   u32       format version
    offset 12  u32       header length in bytes
    offset 16  header    canonical JSON (sorted keys, no whitespace)
    ...        payload   ``records`` packed ``(cycle, src, dest, size)``
                         int32 quadruples

The header carries the replay geometry (``topology``, ``width``,
``height``, ``options``), the measurement ``duration``, the record
count, a sha256 over the payload bytes, and a free-form ``provenance``
dict naming the producing run.  Node ids are row-major (``y * width +
x``).  Everything is content-derived — no timestamps, no hostnames — so
re-capturing the same run yields byte-identical files (diff-stable).

Replay semantics: a replay spec uses ``rate=1.0`` and ``warmup=0``, so
the pattern's per-source call index equals the cycle number;
per-source record cycles are strictly increasing, so each call matches
at most one record.  The destination RNG stream is never touched.  At
``rate == 1.0`` the compiled engine hands its kernel the whole trace as
one ``(cycle, source, dest)`` injection schedule
(:meth:`Trace.batch_table`) and draws nothing; at any other rate the
call index no longer tracks the cycle, so the host draws the schedule
through this module's Python pattern, a block at a time, and
:func:`repro.sim.fastsim.batching_problems` reports ``trace-rate``.

Truncated, corrupt, or mismatched files are rejected with a
:class:`TraceError` naming the file and the first violated invariant.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import struct
import sys
from array import array
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.coords import Coord
from repro.core.params import NetworkConfig
from repro.errors import ConfigError

__all__ = [
    "TRACE_MAGIC",
    "TRACE_VERSION",
    "Trace",
    "TraceError",
    "TraceRecorder",
    "load_trace",
    "replay_pattern",
    "replay_spec",
    "write_trace",
]

TRACE_MAGIC = b"NOCTRACE"
TRACE_VERSION = 1

_FIXED = struct.Struct("<II")  # version, header length
_REC_BYTES = 16  # four little-endian int32s per record


class TraceError(ConfigError):
    """A trace file is missing, truncated, corrupt, or mismatched."""


def _le(values: array) -> bytes:
    """``values`` as little-endian bytes regardless of host order."""
    if sys.byteorder != "little":
        values = array(values.typecode, values)
        values.byteswap()
    return values.tobytes()


def _from_le(raw: bytes) -> array:
    values = array("i")
    values.frombytes(raw)
    if sys.byteorder != "little":
        values.byteswap()
    return values


@dataclass
class Trace:
    """One captured injection stream plus its replay geometry.

    ``cycles`` / ``srcs`` / ``dests`` / ``sizes`` are parallel int32
    arrays sorted by ``(cycle, src)`` with strictly increasing cycles
    per source.  ``options`` are the ``NetworkConfig.from_name`` keyword
    overrides a replay network needs (``dor_order``, ``half``, FIFO
    depth, ...) — deliberately *excluding* ``edge_memory``: memory
    endpoints are remapped onto their adjacent edge tiles at capture
    time so the trace replays on a compilable fabric.
    """

    topology: str
    width: int
    height: int
    duration: int
    options: Dict[str, Any] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)
    cycles: array = field(default_factory=lambda: array("i"))
    srcs: array = field(default_factory=lambda: array("i"))
    dests: array = field(default_factory=lambda: array("i"))
    sizes: array = field(default_factory=lambda: array("i"))
    #: ``(abspath, mtime_ns, size)`` stamped by :func:`load_trace`;
    #: ``None`` for traces born in memory.  Cache keys derive from it.
    source_key: Optional[Tuple[str, int, int]] = None
    _schedule: Optional[Tuple[array, array, array]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def records(self) -> int:
        return len(self.cycles)

    @property
    def nodes(self) -> int:
        return self.width * self.height

    def node_id(self, coord: Coord) -> int:
        return coord.y * self.width + coord.x

    def coord_of(self, idx: int) -> Coord:
        return Coord(idx % self.width, idx // self.width)

    def header(self, payload_sha256: str) -> Dict[str, Any]:
        return {
            "topology": self.topology,
            "width": self.width,
            "height": self.height,
            "duration": self.duration,
            "records": self.records,
            "options": dict(self.options),
            "provenance": dict(self.provenance),
            "payload_sha256": payload_sha256,
        }

    def payload(self) -> bytes:
        flat = array("i", bytes(4 * 4 * self.records))
        flat[0::4] = self.cycles
        flat[1::4] = self.srcs
        flat[2::4] = self.dests
        flat[3::4] = self.sizes
        return _le(flat)

    def to_bytes(self) -> bytes:
        payload = self.payload()
        digest = hashlib.sha256(payload).hexdigest()
        header = json.dumps(
            self.header(digest), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return (
            TRACE_MAGIC
            + _FIXED.pack(TRACE_VERSION, len(header))
            + header
            + payload
        )

    def write(self, path: str) -> str:
        """Write the trace to ``path`` atomically; returns ``path``."""
        blob = self.to_bytes()
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
        return path

    def check_config(self, config: NetworkConfig) -> None:
        """Reject replay on a network the trace was not captured for."""
        if getattr(config, "depth", 1) > 1:
            raise TraceError(
                "trace replay supports 2-D fabrics only "
                f"(config has depth={config.depth})"
            )
        if (config.width, config.height) != (self.width, self.height):
            raise TraceError(
                f"trace was captured on a {self.width}x{self.height} "
                f"array but the replay network is "
                f"{config.width}x{config.height}"
            )

    def schedule(self) -> Tuple[array, array, array]:
        """Per-source replay schedule ``(starts, cycles, dests)``.

        ``starts`` has ``nodes + 1`` entries; source ``s`` owns the
        half-open record range ``starts[s]:starts[s+1]`` of the
        source-grouped, cycle-sorted ``cycles``/``dests`` arrays.
        Memoized: replaying the same loaded trace N times builds it
        once.
        """
        if self._schedule is not None:
            return self._schedule
        n = self.nodes
        counts = [0] * (n + 1)
        for s in self.srcs:
            counts[s + 1] += 1
        begins = array("i", bytes(4 * (n + 1)))
        acc = 0
        for i in range(n + 1):
            acc += counts[i]
            begins[i] = acc
        cursor = list(begins[:n])
        out_cycles = array("i", bytes(4 * self.records))
        out_dests = array("i", bytes(4 * self.records))
        for k in range(self.records):
            s = self.srcs[k]
            at = cursor[s]
            cursor[s] = at + 1
            out_cycles[at] = self.cycles[k]
            out_dests[at] = self.dests[k]
        self._schedule = (begins, out_cycles, out_dests)
        return self._schedule

    def batch_table(
        self,
        model_nodes: Sequence[Coord],
        node_index: Mapping[Coord, int],
    ) -> array:
        """The flat int32 injection schedule the C kernel consumes.

        ``(cycle, source, dest)`` triples in the *model's* node indices,
        sorted by ``(cycle, source)`` — the order the reference engine
        injects in, which the file's ``(cycle, src)`` order already is
        for a row-major model.
        """
        n = len(model_nodes)
        if n != self.nodes:
            raise TraceError(
                f"compiled model has {n} nodes but the trace covers "
                f"{self.nodes}"
            )
        index = [node_index[self.coord_of(i)] for i in range(n)].__getitem__
        triples = sorted(
            zip(self.cycles, map(index, self.srcs), map(index, self.dests))
        )
        return array("i", itertools.chain.from_iterable(triples))


def write_trace(trace: Trace, path: str) -> str:
    """Module-level alias for :meth:`Trace.write`."""
    return trace.write(path)


def _fail(path: str, why: str) -> "TraceError":
    return TraceError(f"trace file {path!r}: {why}")


def _parse(path: str, blob: bytes) -> Trace:
    if len(blob) < len(TRACE_MAGIC) + _FIXED.size:
        raise _fail(
            path,
            f"truncated: {len(blob)} bytes is shorter than the "
            f"fixed header",
        )
    if blob[: len(TRACE_MAGIC)] != TRACE_MAGIC:
        raise _fail(
            path,
            f"bad magic {blob[:len(TRACE_MAGIC)]!r} (expected "
            f"{TRACE_MAGIC!r}); not a trace file",
        )
    version, hlen = _FIXED.unpack_from(blob, len(TRACE_MAGIC))
    if version != TRACE_VERSION:
        raise _fail(
            path,
            f"unsupported format version {version} (this build reads "
            f"version {TRACE_VERSION})",
        )
    body = len(TRACE_MAGIC) + _FIXED.size
    if body + hlen > len(blob):
        raise _fail(
            path,
            f"truncated: header claims {hlen} bytes but only "
            f"{len(blob) - body} remain",
        )
    try:
        header = json.loads(blob[body: body + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _fail(path, f"corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise _fail(path, "corrupt header: not a JSON object")
    required = (
        "topology", "width", "height", "duration", "records",
        "payload_sha256",
    )
    for key in required:
        if key not in header:
            raise _fail(path, f"header is missing {key!r}")
    width = header["width"]
    height = header["height"]
    duration = header["duration"]
    records = header["records"]
    for name, value in (
        ("width", width), ("height", height),
        ("duration", duration), ("records", records),
    ):
        if not isinstance(value, int) or value < 0:
            raise _fail(
                path, f"header field {name!r} must be a non-negative "
                f"integer, got {value!r}"
            )
    if width == 0 or height == 0:
        raise _fail(path, "header declares an empty array")
    payload = blob[body + hlen:]
    if len(payload) != records * _REC_BYTES:
        raise _fail(
            path,
            f"truncated payload: {records} records need "
            f"{records * _REC_BYTES} bytes, found {len(payload)}",
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header["payload_sha256"]:
        raise _fail(
            path,
            f"payload sha256 mismatch (header {header['payload_sha256']}"
            f", actual {digest}); the file is corrupt",
        )
    flat = _from_le(payload)
    trace = Trace(
        topology=str(header["topology"]),
        width=width,
        height=height,
        duration=duration,
        options=dict(header.get("options", {})),
        provenance=dict(header.get("provenance", {})),
        cycles=flat[0::4],
        srcs=flat[1::4],
        dests=flat[2::4],
        sizes=flat[3::4],
    )
    n = trace.nodes
    last: Dict[int, int] = {}
    prev_key = (-1, -1)
    for k in range(records):
        cyc, s, d, size = (
            trace.cycles[k], trace.srcs[k], trace.dests[k],
            trace.sizes[k],
        )
        if not 0 <= s < n or not 0 <= d < n:
            raise _fail(
                path,
                f"record {k} endpoints ({s} -> {d}) fall outside the "
                f"{width}x{height} array",
            )
        if s == d:
            raise _fail(path, f"record {k} is self-addressed (node {s})")
        if size < 1:
            raise _fail(path, f"record {k} has non-positive size {size}")
        if not 0 <= cyc < duration:
            raise _fail(
                path,
                f"record {k} cycle {cyc} falls outside the declared "
                f"duration {duration}",
            )
        if (cyc, s) < prev_key:
            raise _fail(
                path, f"record {k} breaks the (cycle, src) sort order"
            )
        prev_key = (cyc, s)
        if s in last and cyc <= last[s]:
            raise _fail(
                path,
                f"record {k}: source {s} injects twice at cycle {cyc}",
            )
        last[s] = cyc
    return trace


#: abspath -> ((mtime_ns, size), Trace); invalidated when the file's
#: stat signature changes, so an overwritten trace is re-read.
_TRACE_CACHE: Dict[str, Tuple[Tuple[int, int], Trace]] = {}


def load_trace(path: str) -> Trace:
    """Read and fully validate a trace file (cached per stat signature)."""
    full = os.path.abspath(path)
    try:
        st = os.stat(full)
    except OSError as exc:
        raise _fail(path, f"cannot stat: {exc}") from exc
    sig = (st.st_mtime_ns, st.st_size)
    cached = _TRACE_CACHE.get(full)
    if cached is not None and cached[0] == sig:
        return cached[1]
    try:
        with open(full, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise _fail(path, f"cannot read: {exc}") from exc
    trace = _parse(path, blob)
    trace.source_key = (full, st.st_mtime_ns, st.st_size)
    _TRACE_CACHE[full] = (sig, trace)
    return trace


def replay_pattern(config: NetworkConfig, arg: Optional[str]) -> Any:
    """The ``trace_replay:<path>`` pattern factory body.

    Stateful by construction: each built pattern keeps a per-source
    call counter and record cursor, so one pattern instance replays the
    trace exactly once.  With ``rate=1.0`` and ``warmup=0`` the call
    index equals the cycle number on every engine.
    """
    if not arg:
        raise TraceError(
            "the trace_replay pattern needs a file argument: use "
            "pattern='trace_replay:<path>'"
        )
    trace = load_trace(arg)
    trace.check_config(config)
    width = trace.width
    begins, cycles, dests = trace.schedule()
    n = trace.nodes
    calls = array("i", bytes(4 * n))
    cursor = array("i", begins[:n])
    coords = [trace.coord_of(i) for i in range(n)]

    def replay(src: Coord, rng: Any) -> Optional[Coord]:
        s = src.y * width + src.x
        call = calls[s]
        calls[s] = call + 1
        at = cursor[s]
        if at < begins[s + 1] and cycles[at] == call:
            cursor[s] = at + 1
            return coords[dests[at]]
        return None

    return replay


def replay_spec(
    path: str,
    *,
    engine: str = "compiled",
    seed: int = 1,
    drain_limit: Optional[int] = None,
) -> Any:
    """A :class:`~repro.core.spec.NetworkSpec` replaying ``path``.

    Geometry, topology, and network options come from the trace header;
    the measurement window covers the full capture (``warmup=0``,
    ``measure=duration``) at ``rate=1.0`` so the replay pattern's call
    index tracks the cycle counter on every engine.
    """
    from repro.core.spec import NetworkSpec

    trace = load_trace(path)
    if drain_limit is None:
        drain_limit = max(2000, 8 * (trace.width + trace.height))
    return NetworkSpec.for_network(
        trace.topology,
        trace.width,
        trace.height,
        pattern=f"trace_replay:{path}",
        rate=1.0,
        warmup=0,
        measure=trace.duration,
        drain_limit=drain_limit,
        seed=seed,
        engine=engine,
        **dict(trace.options),
    )


class TraceRecorder:
    """Collects injection events from a manycore run into traces.

    The machine calls :meth:`record` once per accepted injection (cycle
    order); :meth:`finalize` turns each named stream into a validated
    :class:`Trace`.  Finalization remaps the off-array memory endpoints
    (``y == -1`` / ``y == height``) onto their adjacent edge tiles,
    drops events the remap makes self-addressed, and resolves the
    resulting same-cycle collisions by deterministically spilling the
    later event to the next free cycle — per-source cycles end up
    strictly increasing, as the format requires.
    """

    def __init__(self) -> None:
        #: Per stream, ``cycle, src, dest`` of every event, flat: three
        #: list slots an event, holding the caller's own objects (a
        #: capture keeps tens of thousands of events until finalized).
        self._events: Dict[str, List[Any]] = {}

    def record(
        self, stream: str, cycle: int, src: Coord, dest: Coord
    ) -> None:
        events = self._events.get(stream)
        if events is None:
            events = self._events[stream] = []
        events += (cycle, src, dest)

    def finalize(
        self,
        *,
        width: int,
        height: int,
        duration: int,
        networks: Mapping[str, Tuple[str, Mapping[str, Any]]],
        provenance: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Trace]:
        """Build one :class:`Trace` per stream named in ``networks``.

        ``networks`` maps the stream name to its replay ``(topology,
        options)``; streams with no recorded events yield empty traces.
        """

        nodes = width * height

        class ClampedId(dict):
            """``coord -> node id`` of the tile it replays at, memoised
            per distinct coordinate (a few hundred, for any trace)."""

            def __missing__(self, coord: Coord) -> int:
                y = min(max(coord.y, 0), height - 1)
                node = self[coord] = y * width + coord.x
                return node

        node_of = ClampedId()
        out: Dict[str, Trace] = {}
        for stream, (topology, options) in networks.items():
            last: Dict[int, int] = {}
            # One int per row, (cycle, src, dest) most significant
            # first: sorting them is sorting by (cycle, src), which no
            # two rows share.
            rows: List[int] = []
            top = duration
            flat = iter(self._events.get(stream, ()))
            for cycle, src, dest in zip(flat, flat, flat):
                s = node_of[src]
                d = node_of[dest]
                if s == d:
                    continue
                spilled = max(cycle, last.get(s, -1) + 1)
                last[s] = spilled
                rows.append((spilled * nodes + s) * nodes + d)
                if spilled >= top:
                    top = spilled + 1
            rows.sort()
            out[stream] = Trace(
                topology=topology,
                width=width,
                height=height,
                duration=top,
                options=dict(options),
                provenance=dict(provenance or {}),
                cycles=array("i", [r // (nodes * nodes) for r in rows]),
                srcs=array("i", [r // nodes % nodes for r in rows]),
                dests=array("i", [r % nodes for r in rows]),
                sizes=array("i", [1]) * len(rows),
            )
        return out
