"""Hardened sweep campaigns: checkpointing and retry-with-fresh-seed.

Long fault-injection sweeps multiply every axis of an experiment by a
fault count and a fault seed, so a single campaign can run for hours and
individual rows can die in ways healthy sweeps never do — a watchdog
trip (:class:`~repro.errors.DeadlockError`), a blown cycle or wall-clock
budget (:class:`~repro.errors.SimulationTimeout`), or an invariant audit
failure.  This module wraps a row-at-a-time runner with two protections:

* **Checkpointing** — every *successful* row is written to a JSON file
  (atomically: temp file + rename) keyed by its parameter dict, so a
  killed campaign resumes where it left off instead of recomputing
  finished rows.  Failed rows are deliberately *not* checkpointed; a
  rerun retries them.
* **Retry with a fresh seed** — a row that trips the watchdog is retried
  with ``seed + retry_seed_stride`` up to ``max_retries`` times before
  being recorded as failed.  The checkpoint key stays the *original*
  parameters, so resumption is insensitive to which retry succeeded.
* **Pre-flight verification** (opt-in) — a ``preflight`` callable runs
  before the first row; any problems it returns abort the campaign with
  :class:`~repro.errors.ConfigError` so a misconfigured network fails in
  seconds, not after hours of checkpointed simulation.  Pair it with
  :func:`repro.verify.campaign_preflight`, which statically proves
  deadlock freedom, turn legality, and reachability for every design
  point in the sweep (and, with ``certify=True``, route-table soundness
  via the table certifier).
* **Parallel sharding** (``jobs > 1``) — rows are embarrassingly
  parallel (each seeds its own RNGs from its parameter dict), so
  :func:`run_campaign` shards them across a process pool with results
  bit-identical to a serial run; see the function docstring for the
  determinism argument and the worker-crash retry policy.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, SimulationError
from repro.sim.rng import derive_rng

#: Exception types a campaign converts into retries / failed rows.
#: Everything else (programming errors) propagates.
RECOVERABLE = (SimulationError,)

#: Worker-crash pool-rebuild backoff: first rebuild waits ``_BACKOFF_BASE``
#: seconds (scaled by jitter), doubling per rebuild wave up to
#: ``_BACKOFF_CAP``.
_BACKOFF_BASE = 0.5
_BACKOFF_CAP = 8.0


def _crash_backoff_seconds(
    wave: int, base: float = _BACKOFF_BASE, cap: float = _BACKOFF_CAP
) -> float:
    """Capped exponential backoff before rebuild ``wave`` (1-based).

    A crashed worker is often a symptom of transient pressure (OOM
    killer, container throttling); hammering a fresh pool straight back
    into the same conditions re-crashes it.  The delay doubles per wave
    and is scaled by a deterministic jitter in [0.5, 1.0] drawn from the
    wave number's own ``campaign:crash-backoff`` stream — reproducible
    (no wall-clock or PID entropy) yet desynchronized across waves.
    """
    delay = min(cap, base * (2.0 ** (wave - 1)))
    jitter = 0.5 + 0.5 * derive_rng(wave, "campaign:crash-backoff").random()
    return delay * jitter


def row_key(params: Dict[str, Any]) -> str:
    """Stable string identity for one row's parameters.

    Sorted-key JSON, so dict insertion order never changes the key and
    the same parameters always resume the same checkpoint entry.
    """
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


class CheckpointStore:
    """Completed campaign rows persisted as one JSON file.

    The file maps :func:`row_key` strings to row dicts.  Writes go
    through a temp file in the same directory followed by ``os.replace``
    so a kill mid-write can never corrupt previously saved rows.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._rows: Dict[str, Dict[str, Any]] = {}
        if os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    rows = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ValueError(
                    f"checkpoint file {path!r} is not valid JSON "
                    f"({exc}); delete it to restart the campaign"
                ) from exc
            if not isinstance(rows, dict):
                raise ValueError(
                    f"checkpoint file {path!r} is not a JSON object of "
                    f"rows (found {type(rows).__name__}); delete it to "
                    f"restart the campaign"
                )
            self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        return self._rows.get(key)

    def put(self, key: str, row: Dict[str, Any]) -> None:
        """Record a completed row and flush the store to disk."""
        self._rows[key] = row
        self._flush()

    def _flush(self) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=".campaign-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(self._rows, fh, indent=1, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


@dataclasses.dataclass
class CampaignResult:
    """Outcome of :func:`run_campaign` with provenance counters."""

    #: One entry per grid point, in grid order.  Failed rows carry
    #: ``"failed": True`` plus ``"error"`` and ``"attempts"`` fields.
    rows: List[Dict[str, Any]]
    #: Rows actually computed by the runner this invocation.
    computed: int = 0
    #: Rows served from the checkpoint without recomputation.
    reused: int = 0
    #: Rows that exhausted their retries (subset of ``rows``).
    failures: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    #: Recoverable errors that were absorbed by a successful retry.
    retried: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def _attempt_row(
    runner: Callable[[Dict[str, Any]], Dict[str, Any]],
    params: Dict[str, Any],
    max_retries: int,
    retry_seed_stride: int,
    *,
    first_attempt: int = 0,
    prior_error: Optional[str] = None,
) -> Tuple[Optional[Dict[str, Any]], Optional[str], int]:
    """One row, with the retry-with-fresh-seed loop.

    Module-level (and taking only picklable arguments) so the parallel
    path can ship it to worker processes; the serial path calls it
    directly.  ``first_attempt``/``prior_error`` let the batched path
    resume the loop after its own attempt 0 failed (the retry seeds and
    attempt counts stay identical to a purely serial run).  Returns
    ``(row or None, error string, attempts)``.
    """
    row, error, attempts = None, prior_error, first_attempt
    for attempt in range(first_attempt, max_retries + 1):
        attempts = attempt + 1
        trial = dict(params)
        if attempt and "seed" in trial:
            trial["seed"] = trial["seed"] + attempt * retry_seed_stride
        try:
            row = runner(trial)
            return row, None, attempts
        except RECOVERABLE as exc:
            error = f"{type(exc).__name__}: {exc}"
    return None, error, attempts


def _attempt_chunk(
    runner: Callable[[Dict[str, Any]], Dict[str, Any]],
    chunk: List[Tuple[int, Dict[str, Any], str]],
    max_retries: int,
    retry_seed_stride: int,
    batch_runner: Optional[
        Callable[[List[Dict[str, Any]]], List[Tuple[Any, Any]]]
    ] = None,
) -> List[Tuple[int, Optional[Dict[str, Any]], Optional[str], int]]:
    """A worker's whole share of the grid, one pool task.

    Submitting one chunk per worker instead of one future per row pays
    the pool's pickle/IPC round-trip once per worker, so short rows (the
    compiled engine makes most rows short) are not dominated by
    scheduling overhead.  With a ``batch_runner`` the whole chunk is
    additionally *batched*: attempt 0 of every row runs in one
    structure-of-arrays kernel invocation (``batch_runner(params_list)``
    returns an in-order ``(row, exception)`` pair per row), and only
    rows whose batched attempt failed re-enter the serial
    retry-with-fresh-seed loop from attempt 1 — the batched attempt is
    bit-identical to serial attempt 0, so retry seeds, attempt counts,
    and error strings are unchanged.  Returns ``(idx, row, error,
    attempts)`` per entry; a worker crash mid-chunk loses only this
    chunk, which the parent then retries row-at-a-time.
    """
    out: List[Tuple[int, Optional[Dict[str, Any]], Optional[str], int]] = []
    if batch_runner is not None and chunk:
        outcomes = batch_runner([params for _idx, params, _key in chunk])
        for (idx, params, _key), (row, exc) in zip(chunk, outcomes):
            if row is not None:
                out.append((idx, row, None, 1))
                continue
            prior = f"{type(exc).__name__}: {exc}"
            row, error, attempts = _attempt_row(
                runner,
                params,
                max_retries,
                retry_seed_stride,
                first_attempt=1,
                prior_error=prior,
            )
            out.append((idx, row, error, attempts))
        return out
    for idx, params, _key in chunk:
        row, error, attempts = _attempt_row(
            runner, params, max_retries, retry_seed_stride
        )
        out.append((idx, row, error, attempts))
    return out


def _usable_cpus() -> int:
    """CPUs this process is actually allowed to schedule on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _worker_init() -> None:
    """Worker-process initializer: pay one-time setup before row one.

    Importing the simulator stack and obtaining the native step kernel
    (a load from the on-disk cache, a build only when that has no valid
    entry) are the first-row surprises; doing them here keeps
    every row's wall-clock representative.  Fork-inherited routing
    caches are deliberately kept warm: each memo entry is a pure
    function of its design point (the determinism contract), so an
    inherited entry changes wall-clock, never results, and the memo is
    bounded so it cannot accumulate across pool rebuilds.
    """
    import repro.core.routing  # noqa: F401
    import repro.core.spec  # noqa: F401
    import repro.sim.simulator  # noqa: F401
    from repro.sim import _ckernel

    _ckernel.get_kernel()


def _run_parallel(
    pending: List[Tuple[int, Dict[str, Any], str]],
    runner: Callable[[Dict[str, Any]], Dict[str, Any]],
    jobs: int,
    max_retries: int,
    retry_seed_stride: int,
    record: Callable[..., None],
    batch_runner: Optional[
        Callable[[List[Dict[str, Any]]], List[Tuple[Any, Any]]]
    ] = None,
) -> None:
    """Shard pending rows across a pool, one chunk per worker.

    Rows are dealt round-robin (``pending[w::jobs]``) so each worker
    gets an interleaved — hence load-balanced — slice of the grid and
    the whole campaign costs ``jobs`` futures instead of ``len(grid)``.
    With a ``batch_runner`` each worker additionally runs its chunk as
    one batched kernel invocation (see :func:`_attempt_chunk`).  A chunk
    whose worker dies falls back to the row-at-a-time wave
    (:func:`_run_parallel_rows`), where the per-row crash budget
    isolates the poisoned row and the healthy remainder completes.
    """
    chunks = [c for c in (pending[w::jobs] for w in range(jobs)) if c]
    # Warm the parent first: it builds the kernel if the on-disk cache
    # has no entry yet.  A forked worker then inherits the imported
    # stack and the loaded kernel and its initializer is a no-op; a
    # spawn / forkserver worker's initializer re-imports and loads the
    # cached entry (milliseconds), it does not compile.
    _worker_init()
    executor = ProcessPoolExecutor(
        max_workers=len(chunks), initializer=_worker_init
    )
    crashed: List[Tuple[int, Dict[str, Any], str]] = []
    broken = False
    try:
        futures = {
            executor.submit(
                _attempt_chunk, runner, chunk,
                max_retries, retry_seed_stride, batch_runner,
            ): chunk
            for chunk in chunks
        }
        waiting = set(futures)
        while waiting:
            done, waiting = wait(waiting, return_when=FIRST_COMPLETED)
            for fut in done:
                chunk = futures[fut]
                try:
                    outcomes = fut.result()
                except BrokenProcessPool:
                    broken = True
                    crashed.extend(chunk)
                    continue
                by_idx = {idx: (params, key) for idx, params, key in chunk}
                for idx, row, error, attempts in outcomes:
                    params, key = by_idx[idx]
                    record(idx, params, key, row, error, attempts)
    finally:
        executor.shutdown(wait=not broken, cancel_futures=True)
    if crashed:
        crashed.sort(key=lambda entry: entry[0])
        _run_parallel_rows(
            crashed, runner, jobs, max_retries, retry_seed_stride, record
        )


def _run_parallel_rows(
    pending: List[Tuple[int, Dict[str, Any], str]],
    runner: Callable[[Dict[str, Any]], Dict[str, Any]],
    jobs: int,
    max_retries: int,
    retry_seed_stride: int,
    record: Callable[..., None],
) -> None:
    """Row-at-a-time pool wave, surviving worker death.

    The crash-recovery path behind :func:`_run_parallel`: a crashed
    worker breaks the whole :class:`ProcessPoolExecutor`; the pool is
    rebuilt and every unfinished row is resubmitted with its crash
    budget decremented, so one poisoned row cannot take down the
    campaign — after ``max_retries + 1`` pool rebuilds it is recorded as
    failed and the rest of the grid completes.  Each rebuild waits
    :func:`_crash_backoff_seconds` first (capped exponential with
    deterministic jitter), giving transient host pressure room to clear
    instead of immediately re-crashing the fresh pool.
    """
    remaining = pending
    crashes: Dict[int, int] = {}
    wave = 0
    while remaining:
        wave += 1
        time.sleep(_crash_backoff_seconds(wave))
        executor = ProcessPoolExecutor(
            max_workers=jobs, initializer=_worker_init
        )
        unfinished: List[Tuple[int, Dict[str, Any], str]] = []
        broken = False
        try:
            futures = {
                executor.submit(
                    _attempt_row, runner, params,
                    max_retries, retry_seed_stride,
                ): (idx, params, key)
                for idx, params, key in remaining
            }
            waiting = set(futures)
            while waiting:
                done, waiting = wait(waiting, return_when=FIRST_COMPLETED)
                for fut in done:
                    idx, params, key = futures[fut]
                    try:
                        row, error, attempts = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        crashes[idx] = crashes.get(idx, 0) + 1
                        if crashes[idx] > max_retries:
                            record(idx, params, key, None,
                                   "worker process crashed",
                                   crashes[idx])
                        else:
                            unfinished.append((idx, params, key))
                        continue
                    record(idx, params, key, row, error, attempts)
        finally:
            # A broken pool cannot run pending work; don't block on it.
            executor.shutdown(wait=not broken, cancel_futures=True)
        remaining = unfinished


def run_campaign(
    grid: Sequence[Dict[str, Any]],
    runner: Callable[[Dict[str, Any]], Dict[str, Any]],
    *,
    checkpoint: Optional[CheckpointStore] = None,
    max_retries: int = 2,
    retry_seed_stride: int = 1000,
    preflight: Optional[Callable[[], Sequence[str]]] = None,
    jobs: int = 1,
    batch_runner: Optional[
        Callable[[List[Dict[str, Any]]], List[Tuple[Any, Any]]]
    ] = None,
) -> CampaignResult:
    """Run ``runner`` over every parameter dict in ``grid``, hardened.

    ``runner(params)`` must return a JSON-serialisable row dict.  Rows
    already present in ``checkpoint`` are reused verbatim.  A runner
    call that raises one of :data:`RECOVERABLE` is retried with the
    ``"seed"`` entry advanced by ``retry_seed_stride`` (when the params
    carry a seed); after ``max_retries`` retries the row is recorded as
    failed — with the error string — but *not* checkpointed, so the next
    invocation tries it again.

    ``jobs > 1`` shards the uncached rows across a
    :class:`~concurrent.futures.ProcessPoolExecutor`, one round-robin
    chunk of the grid per worker (heavy imports and the native-kernel
    build happen once per worker, in the pool initializer).  Results are
    **bit-identical to a serial run**: every row's outcome is a pure
    function of its own parameter dict (each simulation seeds its own
    RNGs from ``params["seed"]``), ``result.rows`` is assembled in grid
    order regardless of completion order, and the checkpoint file is
    dumped with sorted keys so its bytes never depend on scheduling
    (rows land in the checkpoint when their worker's chunk completes,
    so a killed parallel campaign may recompute up to one in-flight
    chunk per worker on resume).
    ``runner`` must be picklable (a module-level function or a
    :func:`functools.partial` over one).  A worker crash (e.g. the OOM
    killer) drops its chunk to a row-at-a-time wave, where the crashing
    row is retried on a rebuilt pool with a budget of ``max_retries``
    before being recorded as failed.  On a host with a single
    schedulable CPU the rows run inline instead — same results, none of
    the pool overhead.

    ``preflight``, when given, runs first and must return a sequence of
    problem strings (empty = verified); any problem raises
    :class:`~repro.errors.ConfigError` before a single row is computed.

    ``batch_runner``, when given, is the batched counterpart of
    ``runner``: ``batch_runner(params_list)`` returns one ``(row,
    exception)`` pair per entry, in order, with each row bit-identical
    to ``runner(params)``.  Attempt 0 of every pending chunk then runs
    through it as a single structure-of-arrays kernel invocation
    (serially: the whole pending list is one chunk; in parallel: one
    chunk per worker), and only rows whose batched attempt failed
    re-enter the serial retry-with-fresh-seed loop — so row results,
    retry accounting, and checkpoint bytes are all identical with or
    without batching.  Like ``runner`` it must be picklable for
    ``jobs > 1``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if preflight is not None:
        problems = list(preflight())
        if problems:
            raise ConfigError(
                "campaign preflight failed:\n  " + "\n  ".join(problems)
            )
    result = CampaignResult(rows=[])
    slots: List[Optional[Dict[str, Any]]] = [None] * len(grid)
    failed_idx: set = set()
    pending: List[Tuple[int, Dict[str, Any], str]] = []
    for idx, params in enumerate(grid):
        key = row_key(params)
        if checkpoint is not None:
            cached = checkpoint.get(key)
            if cached is not None:
                slots[idx] = cached
                result.reused += 1
                continue
        pending.append((idx, params, key))

    def record(idx, params, key, row, error, attempts):
        if row is not None:
            if attempts > 1:
                result.retried += attempts - 1
            slots[idx] = row
            result.computed += 1
            if checkpoint is not None:
                checkpoint.put(key, row)
        else:
            failed = dict(params)
            failed.update(failed=True, error=error, attempts=attempts)
            slots[idx] = failed
            failed_idx.add(idx)

    if jobs > 1 and pending and _usable_cpus() > 1:
        _run_parallel(
            pending, runner, jobs, max_retries, retry_seed_stride,
            record, batch_runner,
        )
    elif batch_runner is not None and pending:
        # Includes requested jobs > 1 on a single schedulable CPU (see
        # below); the batched kernel still amortizes interpreter
        # overhead across the whole pending list there.
        by_idx = {idx: (params, key) for idx, params, key in pending}
        for idx, row, error, attempts in _attempt_chunk(
            runner, pending, max_retries, retry_seed_stride, batch_runner
        ):
            params, key = by_idx[idx]
            record(idx, params, key, row, error, attempts)
    else:
        # Includes requested jobs > 1 on a single schedulable CPU:
        # worker processes cannot overlap row computation there, so the
        # pool would only add fork/IPC overhead on top of the same
        # serial work.  Results are identical either way.
        for idx, params, key in pending:
            row, error, attempts = _attempt_row(
                runner, params, max_retries, retry_seed_stride
            )
            record(idx, params, key, row, error, attempts)

    for idx, row in enumerate(slots):
        result.rows.append(row)
        if idx in failed_idx:
            result.failures.append(row)
    return result
