"""The sharded recognition service: queue in, batched verdicts out.

:class:`RecognitionService` turns the in-process
:meth:`~repro.sax.database.SignDatabase.classify_batch` into a shared
*service*: clients submit classification requests onto an input queue
(:meth:`RecognitionService.submit` returns a future), a dispatcher
thread coalesces them into batches — flushing when the batch fills
(``batch_size``), when the oldest request has waited ``flush_interval_s``
(deadline flush), or on drain — and dispatches each batch to a pool of
worker processes.  Every worker holds one shard of the sign database
(:func:`~repro.service.sharding.build_shards`; shard by sign, all views
of a label together); the dispatcher broadcasts the batch to all
workers, collects their per-label score lists, merges them back into
global label order and decides — bit-identical to the single-process
path (the contract spelled out in :mod:`repro.service.sharding`).

Flow control:

* ``max_pending`` is a hard backpressure cap on the input queue —
  :meth:`~RecognitionService.submit` blocks until there is room (or
  raises :class:`ServiceOverloadedError` when its timeout expires).
* :meth:`~RecognitionService.hold` / :meth:`~RecognitionService.release`
  pause and resume dispatch (maintenance / deterministic tests).
* A dead worker process fails the in-flight and queued requests with a
  :class:`ShardWorkerError` naming the shard, and the service refuses
  further work — fail fast and loud, never silently degrade to partial
  (non-parity) verdicts.

``workers=0`` runs the same queue/coalescing machinery with no worker
processes (the dispatcher classifies in process) — the drop-in mode for
single-core hosts and the reference the service benchmark compares
against.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.sax.database import MatchResult, SignDatabase
from repro.service.sharding import DatabaseShard, build_shards, merge_scored

__all__ = [
    "RecognitionService",
    "ServiceOverloadedError",
    "ServiceStats",
    "ServiceTimeoutError",
    "ShardStats",
    "ShardWorkerError",
]


class ServiceOverloadedError(RuntimeError):
    """Queue-full timeout: the input queue stayed at its backpressure
    cap for the whole submit wait — the request was never accepted."""


class ServiceTimeoutError(TimeoutError):
    """Result-wait timeout: the request *was* accepted (queued or
    dispatched) but its verdict did not resolve in time."""


class ShardWorkerError(RuntimeError):
    """A shard worker process died or reported an internal failure."""


@dataclass(frozen=True, slots=True)
class ShardStats:
    """Per-shard observability counters."""

    index: int
    labels: tuple[str, ...]
    views: int
    batches: int
    frames: int
    busy_s: float
    max_batch_s: float

    @property
    def mean_batch_s(self) -> float:
        """Mean in-worker scoring latency per dispatched batch."""
        if self.batches == 0:
            return 0.0
        return self.busy_s / self.batches


@dataclass(frozen=True)
class ServiceStats:
    """Snapshot of the service's queue, batching and shard counters."""

    queue_depth: int
    submitted: int
    completed: int
    failed: int
    cancelled: int
    batches: int
    flushes: dict[str, int] = field(default_factory=dict)
    batch_fill: dict[int, int] = field(default_factory=dict)
    shards: tuple[ShardStats, ...] = ()
    by_tag: dict[str, int] = field(default_factory=dict)

    @property
    def mean_batch_fill(self) -> float:
        """Mean number of requests per dispatched batch."""
        total = sum(self.batch_fill.values())
        if total == 0:
            return 0.0
        return sum(fill * count for fill, count in self.batch_fill.items()) / total


@dataclass
class _Request:
    """One queued classification request."""

    series: np.ndarray
    future: Future
    enqueued_at: float
    tag: str | None = None


def _shard_payload(shard: DatabaseShard) -> tuple:
    """A picklable description of *shard* (rebuilt inside the worker)."""
    database = shard.database
    views = [
        (entry.label, entry.view, np.asarray(entry.series))
        for label in database.labels
        for entry in database.entries(label)
    ]
    return (
        database.encoder.parameters,
        database.acceptance_threshold,
        database.margin_threshold,
        views,
    )


def _shard_worker_main(payload: tuple, conn) -> None:
    """Worker-process loop: rebuild the shard, score batches until told to stop."""
    parameters, acceptance, margin, views = payload
    database = SignDatabase(
        parameters=parameters,
        acceptance_threshold=acceptance,
        margin_threshold=margin,
    )
    for label, view, series in views:
        database.add(label, series, view=view)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message[0] == "stop":
            return
        _, batch_id, batch = message
        started = time.perf_counter()
        try:
            scored = database.score_batch(batch)
        except Exception:
            conn.send(("error", batch_id, traceback.format_exc()))
        else:
            conn.send(("ok", batch_id, scored, time.perf_counter() - started))


class RecognitionService:
    """Queue-fed, batch-coalescing, process-sharded sign classification.

    Parameters
    ----------
    database:
        The enrolled :class:`~repro.sax.database.SignDatabase` to serve.
        Must be non-empty with homogeneous reference lengths (the view
        stack must be shardable).
    workers:
        Worker processes, each holding one database shard; capped at the
        label count (a shard is never empty).  ``0`` classifies in
        process on the dispatcher thread (same queue semantics, no IPC).
    batch_size:
        Flush a batch as soon as this many requests are pending.
    flush_interval_s:
        Deadline flush: dispatch whatever is pending once the oldest
        request has waited this long.
    max_pending:
        Backpressure cap on the input queue; ``submit`` blocks (or
        times out) while the queue is full.
    worker_timeout_s:
        How long the dispatcher waits for a shard worker's reply to one
        batch before declaring it unresponsive (a hung worker must not
        block ``stop()`` forever); generous — real batches score in
        milliseconds.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (workers inherit nothing mutable — the shard payload
        is explicit) and ``spawn`` elsewhere.
    observer:
        Optional ``observer(event, data)`` callback invoked from the
        dispatcher thread on ``batch_flush`` (reason + size) and
        ``shard_dispatch`` (fan-out shape) — the flight recorder's ops
        tap.  Exceptions it raises are swallowed: observability must
        never affect service behaviour.

    The worker pool snapshots the database at :meth:`start`; mutating
    the database afterwards (``add``/``remove``) is detected via its
    ``version`` counter and fails the next :meth:`submit` loudly —
    stale shards must never silently break the parity contract.
    """

    def __init__(
        self,
        database: SignDatabase,
        workers: int = 4,
        batch_size: int = 64,
        flush_interval_s: float = 0.005,
        max_pending: int = 1024,
        worker_timeout_s: float = 60.0,
        start_method: str | None = None,
        observer=None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if flush_interval_s < 0:
            raise ValueError("flush_interval_s must be non-negative")
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        if worker_timeout_s <= 0:
            raise ValueError("worker_timeout_s must be positive")
        # Raises RuntimeError for an empty or heterogeneous database —
        # exactly the configurations that cannot be sharded.
        self._series_length = database.reference_matrix().shape[1]
        self.database = database
        self.workers = workers
        self.batch_size = batch_size
        self.flush_interval_s = flush_interval_s
        self.max_pending = max_pending
        self.worker_timeout_s = worker_timeout_s
        self._observer = observer
        self._db_version = database.version
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._context = multiprocessing.get_context(start_method)
        self._shards: list[DatabaseShard] = []
        self._connections: list = []
        self._processes: list = []
        self._lock = threading.Lock()
        self._state_changed = threading.Condition(self._lock)
        self._queue: list[_Request] = []
        self._held = False
        self._force_flush = False
        self._stopping = False
        self._started = False
        self._failure: ShardWorkerError | None = None
        self._dispatcher: threading.Thread | None = None
        self._batch_id = 0
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._cancelled = 0
        self._batches = 0
        self._by_tag: dict[str, int] = {}
        self._flushes: dict[str, int] = {}
        self._batch_fill: dict[int, int] = {}
        self._shard_batches: list[int] = []
        self._shard_frames: list[int] = []
        self._shard_busy_s: list[float] = []
        self._shard_max_s: list[float] = []

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> "RecognitionService":
        """Build shards, launch worker processes, start the dispatcher."""
        with self._lock:
            if self._started:
                raise RuntimeError("service already started")
            self._started = True
        self._shards = build_shards(self.database, self.workers) if self.workers else []
        self._shard_batches = [0] * len(self._shards)
        self._shard_frames = [0] * len(self._shards)
        self._shard_busy_s = [0.0] * len(self._shards)
        self._shard_max_s = [0.0] * len(self._shards)
        # Workers fork/spawn *before* the dispatcher thread exists, so
        # no thread state is ever duplicated into a child process.
        for shard in self._shards:
            parent_conn, child_conn = self._context.Pipe()
            process = self._context.Process(
                target=_shard_worker_main,
                args=(_shard_payload(shard), child_conn),
                name=f"recognition-shard-{shard.index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._connections.append(parent_conn)
            self._processes.append(process)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="recognition-dispatcher", daemon=True
        )
        self._dispatcher.start()
        return self

    def stop(self) -> None:
        """Drain the queue, stop workers and the dispatcher. Idempotent."""
        with self._state_changed:
            if not self._started or self._stopping:
                return
            self._stopping = True
            self._held = False
            self._state_changed.notify_all()
        if self._dispatcher is not None:
            self._dispatcher.join()
        for conn in self._connections:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        for conn in self._connections:
            conn.close()

    def __enter__(self) -> "RecognitionService":
        """Start the service on context entry."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Stop the service on context exit."""
        self.stop()

    @property
    def running(self) -> bool:
        """``True`` between :meth:`start` and :meth:`stop` with no failure."""
        return self._started and not self._stopping and self._failure is None

    @property
    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of the live shard worker processes."""
        return tuple(p.pid for p in self._processes if p.pid is not None)

    @property
    def shard_labels(self) -> tuple[tuple[str, ...], ...]:
        """Labels held by each shard, in shard order."""
        return tuple(shard.labels for shard in self._shards)

    # -- flow control -----------------------------------------------------------------

    def hold(self) -> None:
        """Pause dispatch: requests queue up (to the backpressure cap)."""
        with self._state_changed:
            self._held = True

    def release(self) -> None:
        """Resume dispatch after :meth:`hold`."""
        with self._state_changed:
            self._held = False
            self._state_changed.notify_all()

    def flush(self, timeout_s: float = 10.0) -> None:
        """Force dispatch now and block until the input queue is empty.

        A no-op when the queue is already empty.  A held service
        (:meth:`hold`) does not dispatch, so flushing it times out.

        Raises
        ------
        TimeoutError
            If the queue has not drained within *timeout_s*.
        """
        deadline = time.monotonic() + timeout_s
        with self._state_changed:
            if not self._queue:
                return
            self._force_flush = True
            self._state_changed.notify_all()
            while self._queue:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("service queue did not drain in time")
                self._state_changed.wait(remaining)

    # -- submission -------------------------------------------------------------------

    def _validate(self, series) -> np.ndarray:
        """Coerce and validate one query (same errors as ``classify_batch``)."""
        query = np.asarray(series, dtype=np.float64)
        if query.ndim != 1:
            raise ValueError("expected a 1-D series per query")
        word_length = self.database.encoder.parameters.word_length
        if len(query) < word_length:
            raise ValueError(
                f"series of length {len(query)} shorter than word length {word_length}"
            )
        if len(query) != self._series_length:
            raise ValueError(
                f"query length {len(query)} != reference length {self._series_length} "
                f"for {self.database.labels[0]!r}"
            )
        return query

    def submit(
        self, series, timeout_s: float | None = None, tag: str | None = None
    ) -> Future:
        """Queue one series for classification; returns a future.

        Blocks while the queue is at ``max_pending`` (the backpressure
        cap).  The future resolves to a
        :class:`~repro.sax.database.MatchResult` bit-identical to the
        single-process path, or raises :class:`ShardWorkerError` if the
        shard pool failed.

        Parameters
        ----------
        timeout_s:
            Bound on the *queue-full* wait only (``0`` means fail
            immediately when full).  Waiting for the verdict itself is
            the caller's business (``future.result(timeout=...)``) —
            :meth:`classify_batch` raises the distinct
            :class:`ServiceTimeoutError` for that phase.
        tag:
            Attribution tag (e.g. the calling fleet); counted in
            :attr:`ServiceStats.by_tag`.

        Raises
        ------
        ServiceOverloadedError
            Queue-full timeout: the input queue stayed at the
            backpressure cap past *timeout_s* and the request was
            **never accepted** — safe to retry elsewhere.
        RuntimeError
            If the service is not running, or the database was
            modified after :meth:`start` (stale worker shards).
        ShardWorkerError
            If the shard pool has already failed.
        ValueError
            If the series is not a valid query for the database.
        """
        if self.database.version != self._db_version:
            raise RuntimeError(
                "sign database was modified after the service started; the "
                "worker shards are stale — build a new RecognitionService"
            )
        query = self._validate(series)
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._state_changed:
            if self._failure is not None:
                raise self._failure
            if not self._started or self._stopping:
                raise RuntimeError("service is not running; call start() first")
            while len(self._queue) >= self.max_pending:
                # A queue at the cap should dispatch *now*, not sit out
                # the coalescing deadline while producers block.
                self._force_flush = True
                self._state_changed.notify_all()
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise ServiceOverloadedError(
                        f"queue-full timeout: input queue still at the "
                        f"backpressure cap ({self.max_pending}) after "
                        f"{timeout_s} s — request was not accepted"
                    )
                self._state_changed.wait(remaining)
                if self._failure is not None:
                    raise self._failure
                if self._stopping:
                    raise RuntimeError("service stopped while waiting for queue room")
            future: Future = Future()
            self._queue.append(_Request(query, future, time.monotonic(), tag))
            self._submitted += 1
            if tag is not None:
                self._by_tag[tag] = self._by_tag.get(tag, 0) + 1
            self._state_changed.notify_all()
        return future

    def classify_batch(
        self,
        queries: Sequence[np.ndarray] | np.ndarray,
        timeout_s: float = 300.0,
        tag: str | None = None,
    ) -> list[MatchResult]:
        """Submit *queries* and wait for all verdicts, in order.

        The synchronous convenience wrapper around :meth:`submit` —
        drop-in for :meth:`~repro.sax.database.SignDatabase.classify_batch`
        with bit-identical results.  The request set is complete once
        submitted, so a trailing partial batch is flushed immediately
        rather than waiting out the coalescing deadline.

        *timeout_s* bounds the whole call and the two waiting phases
        raise **distinct** errors: :class:`ServiceOverloadedError` when
        a submission never got queue room (queue-full timeout — nothing
        was accepted for that series), :class:`ServiceTimeoutError`
        when an accepted request's verdict failed to resolve in time
        (result-wait timeout).
        """
        if isinstance(queries, np.ndarray) and queries.ndim == 1:
            raise ValueError("expected a batch of series, got a single 1-D series")
        deadline = time.monotonic() + timeout_s
        futures = [
            self.submit(series, timeout_s=deadline - time.monotonic(), tag=tag)
            for series in queries
        ]
        self.flush_pending()
        results = []
        for index, future in enumerate(futures):
            try:
                results.append(
                    future.result(timeout=max(0.0, deadline - time.monotonic()))
                )
            except FuturesTimeoutError:
                raise ServiceTimeoutError(
                    f"result-wait timeout: request {index + 1}/{len(futures)} was "
                    f"accepted but its verdict did not resolve within {timeout_s} s"
                ) from None
        return results

    def flush_pending(self) -> None:
        """Force-dispatch whatever is queued right now (non-blocking).

        Paired with :meth:`submit`: after a caller's last submission of
        a burst there is nothing to coalesce *for*, so the trailing
        partial batch should go out immediately instead of waiting out
        the deadline (:meth:`classify_batch` does this).  A no-op on an
        empty queue.
        """
        with self._state_changed:
            if self._queue:
                self._force_flush = True
                self._state_changed.notify_all()

    # -- stats ------------------------------------------------------------------------

    @property
    def stats(self) -> ServiceStats:
        """Snapshot the queue/batching/shard counters."""
        with self._lock:
            shards = tuple(
                ShardStats(
                    index=shard.index,
                    labels=shard.labels,
                    views=shard.view_count,
                    batches=self._shard_batches[i],
                    frames=self._shard_frames[i],
                    busy_s=self._shard_busy_s[i],
                    max_batch_s=self._shard_max_s[i],
                )
                for i, shard in enumerate(self._shards)
            )
            return ServiceStats(
                queue_depth=len(self._queue),
                submitted=self._submitted,
                completed=self._completed,
                failed=self._failed,
                cancelled=self._cancelled,
                batches=self._batches,
                flushes=dict(self._flushes),
                batch_fill=dict(self._batch_fill),
                shards=shards,
                by_tag=dict(self._by_tag),
            )

    # -- dispatcher internals ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        """Coalesce queued requests into batches and resolve them."""
        while True:
            with self._state_changed:
                while not self._queue and not self._stopping:
                    self._state_changed.wait()
                while self._held and not self._stopping:
                    self._state_changed.wait()
                if self._stopping and not self._queue:
                    return
                # Coalesce: wait for a full batch until the oldest
                # request's flush deadline, then take what is there.
                reason = "size"
                while len(self._queue) < self.batch_size and not self._stopping:
                    if self._force_flush:
                        reason = "forced"
                        break
                    oldest = self._queue[0].enqueued_at
                    remaining = oldest + self.flush_interval_s - time.monotonic()
                    if remaining <= 0:
                        reason = "deadline"
                        break
                    self._state_changed.wait(remaining)
                    if self._held:
                        break
                if self._held and not self._stopping:
                    continue
                if self._stopping and len(self._queue) < self.batch_size:
                    reason = "drain"
                popped = self._queue[: self.batch_size]
                del self._queue[: self.batch_size]
                if not self._queue:
                    self._force_flush = False
                # Claim each future for execution; a client that
                # cancelled while queued simply drops out of the batch
                # (and can never be cancelled mid-resolve after this).
                batch = [
                    request
                    for request in popped
                    if request.future.set_running_or_notify_cancel()
                ]
                self._cancelled += len(popped) - len(batch)
                # Queue room opened up: wake backpressure waiters.
                self._state_changed.notify_all()
                if not batch:
                    continue
                self._flushes[reason] = self._flushes.get(reason, 0) + 1
                self._batch_fill[len(batch)] = self._batch_fill.get(len(batch), 0) + 1
                self._batches += 1
            # Outside the lock: the observer must never hold up (or
            # deadlock against) submitters waiting on the condition.
            self._notify("batch_flush", {"reason": reason, "size": len(batch)})
            try:
                self._resolve(batch)
            except Exception as failure:  # noqa: BLE001 — anything kills the pool
                if not isinstance(failure, ShardWorkerError):
                    failure = ShardWorkerError(
                        "recognition service dispatcher failed:\n"
                        + "".join(traceback.format_exception(failure))
                    )
                self._fail(failure, batch)
                return

    def _notify(self, event: str, data: dict) -> None:
        """Report *event* to the observer; observer errors are swallowed."""
        if self._observer is None:
            return
        try:
            self._observer(event, data)
        except Exception:  # noqa: BLE001 — observability must not fail the pool
            pass

    def _resolve(self, batch: list[_Request]) -> None:
        """Classify one coalesced batch and fulfil its futures."""
        series = [request.series for request in batch]
        if not self._shards:
            results = self.database.classify_batch(series)
        else:
            self._batch_id += 1
            batch_id = self._batch_id
            for index, conn in enumerate(self._connections):
                try:
                    conn.send(("batch", batch_id, series))
                except (BrokenPipeError, OSError) as exc:
                    raise self._worker_death(index) from exc
            self._notify(
                "shard_dispatch",
                {
                    "batch_id": batch_id,
                    "frames": len(series),
                    "shards": len(self._connections),
                },
            )
            shard_scored = []
            for index, conn in enumerate(self._connections):
                try:
                    # Bounded wait: a hung (not dead) worker must fail
                    # the pool, not block the dispatcher — and stop() —
                    # forever.
                    if not conn.poll(self.worker_timeout_s):
                        raise ShardWorkerError(
                            f"shard worker {index} "
                            f"({', '.join(self._shards[index].labels)}) "
                            f"unresponsive for {self.worker_timeout_s} s"
                        )
                    reply = conn.recv()
                except (EOFError, OSError) as exc:
                    raise self._worker_death(index) from exc
                if reply[0] == "error":
                    raise ShardWorkerError(
                        f"shard worker {index} ({', '.join(self._shards[index].labels)}) "
                        f"failed:\n{reply[2]}"
                    )
                _, _, scored, elapsed = reply
                shard_scored.append(scored)
                with self._lock:
                    self._shard_batches[index] += 1
                    self._shard_frames[index] += len(series)
                    self._shard_busy_s[index] += elapsed
                    self._shard_max_s[index] = max(self._shard_max_s[index], elapsed)
            merged = merge_scored(
                shard_scored,
                [shard.label_indices for shard in self._shards],
                len(self.database.labels),
            )
            results = [self.database.decide_scored(scored) for scored in merged]
        with self._lock:
            self._completed += len(batch)
        for request, result in zip(batch, results):
            request.future.set_result(result)

    def _worker_death(self, index: int) -> ShardWorkerError:
        """Describe a dead shard worker as a :class:`ShardWorkerError`."""
        process = self._processes[index]
        process.join(timeout=0.5)
        return ShardWorkerError(
            f"shard worker {index} ({', '.join(self._shards[index].labels)}) died "
            f"unexpectedly (exit code {process.exitcode})"
        )

    def _fail(self, failure: ShardWorkerError, batch: list[_Request]) -> None:
        """Fail the in-flight batch and everything still queued."""
        with self._state_changed:
            self._failure = failure
            abandoned = batch + self._queue
            self._queue.clear()
            self._failed += len(abandoned)
            self._state_changed.notify_all()
        for request in abandoned:
            if not request.future.done():
                request.future.set_exception(failure)
