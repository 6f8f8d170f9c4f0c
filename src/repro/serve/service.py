"""`LinkageService`: the asyncio online serving loop over a streaming linker.

Architecture (one writer, many readers, bounded everything):

* **Ingestion** — :meth:`LinkageService.submit` (add records) and
  :meth:`LinkageService.retire` (delete entities) enqueue events on one
  bounded :class:`asyncio.Queue`.  A full queue engages the configured
  backpressure policy: ``"block"`` awaits capacity, ``"reject"`` raises
  :class:`BackpressureError` immediately (and counts the rejection).  An
  optional per-source in-flight cap bounds any single producer
  independently of the global queue depth.
* **Continuous batching** — a single pump coroutine owns the
  :class:`~repro.core.streaming.StreamingLinker`.  Whenever that writer is
  free and the queue holds events, it drains all of them, applies them as
  one batch, relinks, publishes and persists, then loops; events that
  arrive meanwhile ride the next batch.  An event waits only for the
  writer, never for a batch to fill.  The batch runs in a dedicated
  worker thread — off the event loop, which keeps ingesting — and the
  relink's sharded scoring fans out through the config's
  :mod:`repro.exec` backend (``executor`` / ``workers``) inside that
  thread.
* **Versioned reads** — every completed relink publishes an immutable
  :class:`~repro.serve.snapshot.LinkSnapshot` by swapping one reference;
  :meth:`links_for` / :meth:`match` / :meth:`stats` answer from the
  published snapshot and never block on the writer.  Every answer carries
  the snapshot version and event-time watermark.
* **Durability** (with ``state_dir``) — every applied batch is persisted
  after its publish: appended to the event log of the newest snapshot
  (:mod:`repro.store.eventlog`; one ``write`` and one fsync), or, when a
  snapshot is due, written as a full
  :meth:`~repro.core.streaming.StreamingLinker.save`.  A snapshot is due
  on the first persist of each service life (never appending to a log
  it inherited), every ``_SNAPSHOT_EVERY`` persists, after a failed
  persist (the log has no gap), and at :meth:`~LinkageService.stop`
  unless the life's last persist was a snapshot.  A restart restores the
  snapshot and replays its log.

Because a delta relink is bit-identical to a cold relink over the same
state, the final published snapshot equals an
offline :class:`~repro.core.streaming.StreamingLinker` replay of the same
events regardless of how the pump batched them — the parity anchor
``tests/serve/`` pins per executor backend.

>>> import asyncio
>>> from repro.data import Record
>>> async def demo():
...     service = LinkageService(origin=0.0)
...     async with service:
...         await service.submit("left", [Record("u", 37.77, -122.42, 100.0),
...                                       Record("w", 37.90, -122.40, 100.0)])
...         await service.submit("right", [Record("v", 37.77, -122.42, 130.0),
...                                        Record("x", 37.90, -122.40, 130.0)])
...         snapshot = await service.flush()
...         again = await service.flush()  # nothing new: no relink
...         answer = await service.links_for("u")
...         return snapshot.version, again.version, answer.linked
>>> asyncio.run(demo())
(1, 1, 'v')
"""

from __future__ import annotations

import asyncio
# repro-lint: timing-module -- staleness/latency metrics are this service's contract
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.streaming import StreamingLinker
from ..data.records import Record
from ..pipeline.config import SERVE_BACKPRESSURE_POLICIES, LinkageConfig
from ..pipeline.report import LinkageReport
from ..store.eventlog import Checkpointer, batch_entry
from .snapshot import LinkAnswer, LinkSnapshot, MatchAnswer

__all__ = ["LinkageService", "BackpressureError", "SERVE_BACKPRESSURE_POLICIES"]

#: How many recent query and relink latencies the service retains for
#: percentiles.
_LATENCY_WINDOW = 8192
#: Persists per full snapshot: a restore replays at most this many minus
#: one logged batches.
_SNAPSHOT_EVERY = 32


class BackpressureError(RuntimeError):
    """An ingest was refused because a bound was hit under the
    ``"reject"`` policy — the global queue depth or a per-source cap.
    The caller owns the retry decision (back off, shed load, ...)."""


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; NaN on empty input (renders as ``nan``)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class _Event:
    """One queued ingestion event (internal)."""

    kind: str  # "observe" | "retire" | "flush" | "stop"
    side: str = ""
    records: Tuple[Record, ...] = ()
    entity_ids: Tuple[str, ...] = ()
    source: Optional[str] = None
    future: Optional[asyncio.Future] = None


@dataclass
class _Counters:
    """Mutable serving counters behind :meth:`LinkageService.metrics`."""

    events_in: int = 0
    records_in: int = 0
    records_retired: int = 0
    rejected: int = 0
    blocked: int = 0
    queue_peak: int = 0
    relinks: int = 0
    relink_failures: int = 0
    checkpoint_failures: int = 0
    queries: int = 0
    relink_seconds: Deque[float] = field(
        default_factory=lambda: deque(maxlen=_LATENCY_WINDOW)
    )
    query_seconds: Deque[float] = field(
        default_factory=lambda: deque(maxlen=_LATENCY_WINDOW)
    )


class LinkageService:
    """Online linkage: event ingestion, continuous relinks, snapshot reads.

    Parameters
    ----------
    origin:
        The windowing origin handed to the underlying
        :class:`~repro.core.streaming.StreamingLinker` — fix it at or
        before the stream's earliest timestamp.
    config:
        The :class:`~repro.pipeline.config.LinkageConfig` (its
        ``serve_*`` fields configure the ingest queue; its
        ``executor`` / ``workers`` drive the relink's scoring fan-out).
    max_pending_per_source:
        At most this many queued-but-unapplied events per ``source``
        label (0 = unbounded).  A producer at its cap blocks or rejects
        according to the backpressure policy while the global queue may
        still have room — one chatty source cannot starve the rest.
    linker:
        An existing linker to serve (defaults to a fresh one built from
        ``origin`` and ``config``).
    state_dir:
        Optional snapshot directory (see
        :meth:`~repro.core.streaming.StreamingLinker.save`).  On
        construction the service restores the linker from the newest
        snapshot there plus a replay of its event log (cold start if no
        snapshot is readable — corrupt snapshots and logs warn by name).
        Every applied batch is then persisted after its publish — one
        log append, or a full snapshot when one is due — so a killed
        service resumes from its last persisted batch.  A failed persist
        is counted in ``checkpoint_failures`` and never fatal; the next
        persist is a full snapshot.  The restore is skipped when an
        explicit ``linker`` is passed.

    The service must be started before use — ``async with service:`` or
    an explicit :meth:`start` / :meth:`stop` pair.  :meth:`stop` drains
    the queue and folds every accepted event into a final relink, so no
    accepted event is ever dropped.
    """

    def __init__(
        self,
        origin: float,
        config: Optional[LinkageConfig] = None,
        *,
        max_pending_per_source: int = 0,
        linker: Optional[StreamingLinker] = None,
        state_dir: Optional[object] = None,
    ) -> None:
        self.config = config if config is not None else LinkageConfig()
        if max_pending_per_source < 0:
            raise ValueError(
                "max_pending_per_source must be >= 0 (0 = unbounded), "
                f"got {max_pending_per_source!r}"
            )
        self.max_pending_per_source = max_pending_per_source
        self._state_dir = None if state_dir is None else Path(state_dir)
        restored: Optional[StreamingLinker] = None
        if linker is None and self._state_dir is not None:
            restored = StreamingLinker.restore(self._state_dir)
            linker = restored
        self.linker = (
            linker if linker is not None else StreamingLinker(origin, self.config)
        )
        self.counters = _Counters()
        self.last_error: Optional[BaseException] = None
        self._queue: Optional[asyncio.Queue] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._checkpointer: Optional[Checkpointer] = None
        self._pending_by_source: Dict[str, int] = {}
        self._source_waiters: Optional[asyncio.Condition] = None
        # Event time accepted so far; a restored linker already holds
        # events up to its snapshot watermark.
        self._watermark = (
            restored.watermark if restored is not None else float("-inf")
        )
        # Event time accepted since the writer last drained the queue.
        self._pending_watermark = float("-inf")
        self._started_at: Optional[float] = None
        # Whether the linker holds events no published snapshot shows (a
        # flush with nothing queued relinks only then): version 0 shows
        # nothing, not even a restored linker's state.
        self._unpublished = True
        self._snapshot = LinkSnapshot(
            version=0, watermark=float("-inf"), published_at=time.time()
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the pump; idempotent start is an error (stop first)."""
        if self._pump_task is not None:
            raise RuntimeError("service already started")
        self._queue = asyncio.Queue(maxsize=self.config.serve_queue_depth)
        self._source_waiters = asyncio.Condition()
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="slim-link-serve"
        )
        self._started_at = time.monotonic()
        if self._state_dir is not None:
            # A new life: its first persist is a snapshot, so it never
            # appends to a log it inherited.
            self._checkpointer = Checkpointer(self._state_dir, _SNAPSHOT_EVERY)
        self._pump_task = asyncio.create_task(self._pump())

    async def stop(self) -> None:
        """Drain the queue, fold pending events into a final relink,
        snapshot unless the last persist was one, stop."""
        if self._pump_task is None:
            return
        assert self._queue is not None
        await self._queue.put(_Event("stop"))
        try:
            await self._pump_task
        finally:
            self._pump_task = None
            self._queue = None
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    async def __aenter__(self) -> "LinkageService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def running(self) -> bool:
        return self._pump_task is not None

    # ------------------------------------------------------------------
    # ingestion front end
    # ------------------------------------------------------------------
    async def submit(
        self,
        side: str,
        records: Iterable[Record],
        source: Optional[str] = None,
    ) -> int:
        """Enqueue an add-records event; returns the record count.

        Under ``"reject"`` backpressure a full queue (or a source at its
        cap) raises :class:`BackpressureError` without enqueueing
        anything; under ``"block"`` the call awaits capacity.
        """
        batch = tuple(records)
        if side not in ("left", "right"):
            raise ValueError(f"side must be left or right, got {side!r}")
        if not batch:
            return 0
        await self._enqueue(
            _Event("observe", side=side, records=batch, source=source)
        )
        self.counters.records_in += len(batch)
        latest = max(record.timestamp for record in batch)
        self._watermark = max(self._watermark, latest)
        self._pending_watermark = max(self._pending_watermark, latest)
        return len(batch)

    async def retire(
        self,
        side: str,
        entity_ids: Iterable[str],
        source: Optional[str] = None,
    ) -> int:
        """Enqueue a retire-entities event; returns the entity count.  A
        bare string raises :class:`TypeError` (it would retire its
        characters)."""
        if isinstance(entity_ids, str):
            raise TypeError(f"entity_ids must be ids, not the string {entity_ids!r}")
        ids = tuple(str(entity_id) for entity_id in entity_ids)
        if side not in ("left", "right"):
            raise ValueError(f"side must be left or right, got {side!r}")
        if not ids:
            return 0
        await self._enqueue(
            _Event("retire", side=side, entity_ids=ids, source=source)
        )
        self.counters.records_retired += len(ids)
        return len(ids)

    async def flush(self) -> LinkSnapshot:
        """Await a published snapshot that covers everything accepted so
        far: a relink's when events were pending or applied since the last
        publish, else the current one (two flushes in a row return the
        same version and relink once)."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        await self._enqueue(_Event("flush", future=future), force=True)
        return await future

    async def _enqueue(self, event: _Event, force: bool = False) -> None:
        if self._queue is None:
            raise RuntimeError("service is not running (call start())")
        await self._acquire_source_slot(event)
        try:
            if force or self.config.serve_backpressure == "block":
                if self._queue.full():
                    self.counters.blocked += 1
                await self._queue.put(event)
            else:
                try:
                    self._queue.put_nowait(event)
                except asyncio.QueueFull:
                    self.counters.rejected += 1
                    raise BackpressureError(
                        f"ingest queue full ({self.config.serve_queue_depth} "
                        "events) and serve_backpressure='reject'"
                    ) from None
        except BaseException:
            self._release_source_slot(event)
            raise
        if event.kind in ("observe", "retire"):
            self.counters.events_in += 1
        self.counters.queue_peak = max(
            self.counters.queue_peak, self._queue.qsize()
        )

    async def _acquire_source_slot(self, event: _Event) -> None:
        if not self.max_pending_per_source or event.source is None:
            return
        assert self._source_waiters is not None
        pending = self._pending_by_source
        if self.config.serve_backpressure == "reject":
            if pending.get(event.source, 0) >= self.max_pending_per_source:
                self.counters.rejected += 1
                raise BackpressureError(
                    f"source {event.source!r} has "
                    f"{self.max_pending_per_source} events in flight and "
                    "serve_backpressure='reject'"
                )
        else:
            async with self._source_waiters:
                while (
                    pending.get(event.source, 0) >= self.max_pending_per_source
                ):
                    self.counters.blocked += 1
                    await self._source_waiters.wait()
        pending[event.source] = pending.get(event.source, 0) + 1

    def _release_source_slot(self, event: _Event) -> None:
        if not self.max_pending_per_source or event.source is None:
            return
        pending = self._pending_by_source
        left = pending.get(event.source, 0) - 1
        if left <= 0:
            pending.pop(event.source, None)
        else:
            pending[event.source] = left

    async def _notify_source_waiters(self) -> None:
        if self._source_waiters is not None:
            async with self._source_waiters:
                self._source_waiters.notify_all()

    # ------------------------------------------------------------------
    # the single writer
    # ------------------------------------------------------------------
    async def _pump(self) -> None:
        """Single writer: whenever it is free, drain every queued event and
        apply them as one batch; events arriving meanwhile ride the next.
        After a stop it keeps draining until the queue is empty."""
        assert self._queue is not None
        stopping = False
        while not (stopping and self._queue.empty()):
            events = [] if stopping else [await self._queue.get()]
            while not self._queue.empty():
                events.append(self._queue.get_nowait())
            # The queue is empty now, so the record tally covers exactly
            # the events drained so far.
            records_ingested = self.counters.records_in
            self._pending_watermark = float("-inf")
            batch: List[_Event] = []
            flush_futures: List[asyncio.Future] = []
            for event in events:
                self._release_source_slot(event)
                if event.kind == "stop":
                    stopping = True
                elif event.kind == "flush":
                    flush_futures.append(event.future)
                else:
                    batch.append(event)
            await self._notify_source_waiters()
            if batch or (flush_futures and self._unpublished):
                await self._apply(batch, flush_futures, records_ingested)
            for future in flush_futures:
                if not future.done():
                    future.set_result(self._snapshot)
        checkpointer = self._checkpointer
        if checkpointer is not None and checkpointer.dirty:
            await self._checkpoint(checkpointer.snapshot, self.linker)

    async def _apply(
        self,
        batch: List[_Event],
        flush_futures: List[asyncio.Future],
        records_ingested: int,
    ) -> None:
        """Fold one batch in and relink in the worker thread, then publish
        and persist.  ``records_ingested`` counts the records of every
        event drained so far; the published snapshot shows it, less the
        refused ones, and the linker's own watermark after the apply.

        An event the linker refuses (a retire of an unknown id, records
        before the origin) is rejected alone: it leaves the ingest tallies,
        the front end's watermark and the published snapshot, the rest of
        the batch is applied, relinked, published and persisted, and then
        the flush callers get the first such error.  Every failure — each
        rejected event and a failed relink — counts in
        ``relink_failures``, and the last one is ``last_error``; the pump
        itself survives."""
        assert self._pool is not None
        loop = asyncio.get_running_loop()
        applied: List[_Event] = []
        failures: List[Exception] = []
        report, relink_seconds, watermark = await loop.run_in_executor(
            self._pool, self._apply_batch, batch, applied, failures, self._unpublished
        )
        # What the linker holds plus what was accepted since the drain: a
        # refused event's time is in neither.
        self._watermark = max(watermark, self._pending_watermark)
        if failures:
            self.counters.relink_failures += len(failures)
            self.last_error = failures[-1]
        held = {id(event) for event in applied}
        for event in batch:
            if id(event) not in held:  # never folded in
                self.counters.records_in -= len(event.records)
                self.counters.records_retired -= len(event.entity_ids)
                records_ingested -= len(event.records)
        if applied:
            self._unpublished = True
        if report is not None:
            self._publish(report, relink_seconds, watermark, records_ingested)
        if self._checkpointer is not None and (applied or report is not None):
            # Every applied batch is persisted — a one-sided or rolled-back
            # one too, its events stay folded in — so the log has no gap.
            # Same single worker thread as the batch apply, so the persist
            # reads a quiescent linker; the event loop keeps ingesting.
            entry = batch_entry(
                ((e.kind, e.side, e.records or e.entity_ids) for e in applied),
                relinked=report is not None,
            )
            await self._checkpoint(self._checkpointer.persist, self.linker, entry)
        if failures:
            for future in flush_futures:
                if not future.done():
                    future.set_exception(failures[0])

    async def _checkpoint(self, write, *args) -> None:
        """Run one durable write in the worker thread.  A failure (disk
        full) is not fatal: it is counted, the published snapshot keeps
        serving, and the checkpointer takes a snapshot next."""
        try:
            await asyncio.get_running_loop().run_in_executor(self._pool, write, *args)
        except Exception as error:
            self.counters.checkpoint_failures += 1
            self.last_error = error

    def _apply_batch(
        self, batch: List[_Event], applied: List[_Event],
        failures: List[Exception], unpublished: bool,
    ) -> Tuple[Optional[LinkageReport], float, float]:
        """Worker-thread body: observe/retire the batch, then relink.
        Returns the relink's report (``None`` when nothing was relinked),
        its seconds, and the linker's watermark after the apply.

        The linker is only ever mutated here (the pump awaits this call
        before dispatching the next batch; persists run on the same
        worker thread), so the single-writer contract holds without
        locks.  Each event joins ``applied`` once the linker holds it,
        or its validation error (:class:`KeyError`, :class:`ValueError`)
        joins ``failures``: observe and retire validate before they
        mutate, so a refused event leaves the linker as it was and the
        rest of the batch still applies.  Nothing is relinked when every
        event was refused and the published snapshot already shows the
        linker (``unpublished`` false), nor while one side is empty (the
        events are folded in and the current snapshot keeps serving).
        Any other error joins ``failures`` too; a relink that raises rolls
        the linker back to its pre-relink state (its own transaction) — the
        observed events stay folded in and ride along with the next
        attempt, and the previous snapshot keeps serving.
        """
        linker = self.linker
        try:
            for event in batch:
                try:
                    if event.kind == "observe":
                        linker.observe(event.side, list(event.records))
                    else:
                        linker.retire(event.side, event.entity_ids)
                except (KeyError, ValueError) as error:
                    failures.append(error)
                else:
                    applied.append(event)
            if (applied or unpublished) and (
                linker.num_left_entities and linker.num_right_entities
            ):
                clock = time.perf_counter()
                report = linker.relink()
                return report, time.perf_counter() - clock, linker.watermark
        except Exception as error:
            failures.append(error)
        return None, 0.0, linker.watermark

    def _publish(
        self,
        report: LinkageReport,
        relink_seconds: float,
        watermark: float,
        records_ingested: int,
    ) -> None:
        snapshot = LinkSnapshot(
            version=self._snapshot.version + 1,
            watermark=watermark,
            published_at=time.time(),
            links=report.links,
            link_scores=report.link_scores,
            threshold=report.threshold.threshold,
            threshold_method=report.threshold.method,
            relink=report.extras.get("relink"),
            relink_seconds=relink_seconds,
            records_ingested=records_ingested,
        )
        self.counters.relinks += 1
        self.counters.relink_seconds.append(relink_seconds)
        self._unpublished = False
        self._snapshot = snapshot  # atomic reference swap: the publish

    # ------------------------------------------------------------------
    # versioned reads (never block on the writer)
    # ------------------------------------------------------------------
    def snapshot(self) -> LinkSnapshot:
        """The currently published snapshot (synchronous, non-blocking)."""
        return self._snapshot

    async def links_for(self, entity: str, side: str = "left") -> LinkAnswer:
        """The entity's link in the published snapshot."""
        clock = time.perf_counter()
        answer = self._snapshot.links_for(entity, side)
        self._record_query(time.perf_counter() - clock)
        return answer

    async def match(self, left: str, right: str) -> MatchAnswer:
        """Whether ``(left, right)`` is a link in the published snapshot."""
        clock = time.perf_counter()
        answer = self._snapshot.match(left, right)
        self._record_query(time.perf_counter() - clock)
        return answer

    async def stats(self) -> Dict[str, object]:
        """Snapshot-level statistics (version, watermark, link count, stop
        threshold, the producing relink's reuse diagnostics)."""
        clock = time.perf_counter()
        snapshot = self._snapshot
        answer: Dict[str, object] = {
            "version": snapshot.version,
            "watermark": snapshot.watermark,
            "links": len(snapshot.links),
            "threshold": snapshot.threshold,
            "threshold_method": snapshot.threshold_method,
            "records_ingested": snapshot.records_ingested,
            "relink": snapshot.relink,
            "relink_seconds": snapshot.relink_seconds,
        }
        self._record_query(time.perf_counter() - clock)
        return answer

    def _record_query(self, seconds: float) -> None:
        self.counters.queries += 1
        self.counters.query_seconds.append(seconds)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, object]:
        """One flat serving-counter sample — a
        :func:`repro.eval.reporting.serving_table` row."""
        counters = self.counters
        snapshot = self._snapshot
        now = time.monotonic()
        elapsed = (
            now - self._started_at
            if self._started_at is not None
            else float("nan")
        )
        query_ms = [s * 1e3 for s in counters.query_seconds]
        staleness = (
            self._watermark - snapshot.watermark
            if snapshot.watermark != float("-inf")
            and self._watermark != float("-inf")
            else float("nan")
        )
        return {
            "events_in": counters.events_in,
            "records_in": counters.records_in,
            "records_retired": counters.records_retired,
            "rejected": counters.rejected,
            "blocked": counters.blocked,
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "queue_peak": counters.queue_peak,
            "relinks": counters.relinks,
            "relink_failures": counters.relink_failures,
            "checkpoint_failures": counters.checkpoint_failures,
            "relink_p50_s": _percentile(counters.relink_seconds, 0.50),
            "relink_p99_s": _percentile(counters.relink_seconds, 0.99),
            "snapshot_version": snapshot.version,
            "snapshot_age_s": snapshot.age(),
            "staleness_s": staleness,
            "ingest_rate": (
                counters.records_in / elapsed if elapsed and elapsed > 0
                else float("nan")
            ),
            "queries": counters.queries,
            "query_p50_ms": _percentile(query_ms, 0.50),
            "query_p99_ms": _percentile(query_ms, 0.99),
        }
