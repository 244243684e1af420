"""Span scheduling: shard a work list across the pool, keep order.

Every pool run — shared-memory arenas and pickled payloads alike — is a
set of half-open item ranges (*spans*) planned by :func:`plan_spans`
and driven by one dispatch loop.  The transport is only the caller's
``payload(start, stop)`` / ``collect(start, stop, reply)`` pair: a
pickled span carries its items in the task payload, a shared-memory
span names a range of an arena.  Idle workers steal half of the
largest remaining span (:class:`SpanDeque`), so the tail of a ragged
batch self-balances.

The scheduler owns the recovery policy (:class:`RetryPolicy`):

* A **task exception** aborts the whole run immediately by default
  (re-running the same deterministic span would fail again) as
  :class:`TaskError`; with ``retry_task_errors`` it is retried on
  another worker instead, which is what makes quarantine meaningful.
* A **worker crash** (process died mid-span) requeues the span on a
  fresh worker after an exponential-backoff-with-jitter delay, up to
  ``max_retries`` extra attempts.
* A **per-span timeout** kills the worker holding the span and
  requeues it the same way.
* A span that fails on ``quarantine_threshold`` *distinct* workers is
  **poisoned**: the input, not a worker, is at fault.  With
  ``policy.quarantine`` it is pulled from rotation and reported
  (:class:`QuarantinedChunk`) while the rest of the batch completes;
  without it, the run raises.
* A worker that fails ``breaker_threshold`` spans consecutively trips
  its **circuit breaker** and is retired/respawned even if alive.
* Idle workers answer **heartbeat pings**; one that stays silent past
  ``heartbeat_timeout`` is declared wedged and replaced.

One span is in flight per worker, so the timeout clock starts at
dispatch, not at submission.  Completed spans land in a
:class:`~repro.parallel_exec.results.SpanAssembler`, which restores item
order regardless of completion order — and, when a ``checkpoint``
manifest path is given, are persisted as they finish so a killed run
resumes without redoing them.  ``workers=1`` runs the same spans in the
calling process with no pool.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..observability import metrics as _metrics
from ..observability import timeline as _timeline
from .checkpoint import SpanCheckpoint
from .hardening import (
    PoolStats,
    QuarantineLog,
    QuarantinedChunk,
    RetryPolicy,
    WorkerLedger,
)
from .pool import (
    METRICS_CHUNK_INDEX,
    PING_CHUNK_INDEX,
    WorkerPool,
    _TASK_KINDS,
)
from .results import (
    ChunkQuarantinedError,
    ChunkTimeoutError,
    SpanAssembler,
    TaskError,
    WorkerCrashError,
)

#: How long one poll of the result queue blocks while spans are in
#: flight; bounds how stale a timeout/crash/heartbeat check can be.
_POLL_INTERVAL = 0.05

#: How long the scheduler waits for workers to answer the end-of-run
#: metrics-snapshot request before giving up (a wedged worker must not
#: hang the batch on account of observability).
_METRICS_COLLECT_TIMEOUT = 5.0

# Parent-side pool metrics.  Span latency is dispatch → result as the
# scheduler sees it; pool_events_total mirrors PoolStats so one armed
# run lands retries/quarantines/heartbeats in the shared registry.
_CHUNK_LATENCY = _metrics.registry().histogram(
    "pool_chunk_latency_seconds",
    "Chunk latency from dispatch to result (parent view)",
    ("kind", "transport"))
_POOL_EVENTS = _metrics.registry().counter(
    "pool_events_total", "Pool lifecycle events, mirroring PoolStats",
    ("event",))
_STEALS = _metrics.registry().counter(
    "pool_steal_total",
    "Spans split because idle workers outnumbered remaining spans")


def run_chunks(kind: str, payloads: Sequence[Any], *,
               workers: int,
               timeout: Optional[float] = None,
               max_retries: int = 2,
               policy: Optional[RetryPolicy] = None,
               checkpoint: Optional[str] = None) -> List[Any]:
    """Run every payload through task ``kind``; flat ordered results.

    The list front end of :func:`run_spans_report`: one span per
    payload, pickled to the worker as is.  Each task must return a
    list; the result is the concatenation in payload order.
    ``workers=1`` runs everything in this process.  Quarantined
    payloads (only possible with ``policy.quarantine``) raise
    :class:`ChunkQuarantinedError`.
    """
    fingerprint = ""
    if checkpoint is not None:
        fingerprint = hashlib.sha256(
            repr((kind, list(payloads))).encode()).hexdigest()
    report = run_spans_report(
        kind, len(payloads), workers=workers,
        payload=lambda start, _stop: payloads[start],
        collect=lambda _start, _stop, values: [values],
        spans=[(i, i + 1) for i in range(len(payloads))],
        timeout=timeout, max_retries=max_retries, policy=policy,
        checkpoint=checkpoint, fingerprint=fingerprint, transport="pickle")
    return [value for values in report.flat() for value in values]


def _record_pool_stats(stats: PoolStats) -> None:
    """Mirror one run's :class:`PoolStats` into the metrics registry."""
    for event, value in vars(stats).items():
        if value:
            _POOL_EVENTS.inc(value, event=event)


def _collect_worker_metrics(pool: WorkerPool) -> None:
    """Merge every live worker's metrics snapshot into the parent.

    Runs after the last span completes and before shutdown.  Workers
    reset their (fork-inherited) registry at startup, so each snapshot
    is a pure per-worker delta and the commutative merge rules make the
    parent totals independent of arrival order.  A worker that fails to
    answer within :data:`_METRICS_COLLECT_TIMEOUT` just drops its
    snapshot — observability never hangs a finished batch.
    """
    expected = 0
    for worker in pool.workers.values():
        if worker.alive and not worker.busy:
            worker.request_metrics()
            expected += 1
    registry = _metrics.registry()
    deadline = time.monotonic() + _METRICS_COLLECT_TIMEOUT
    while expected > 0 and time.monotonic() < deadline:
        message = pool.poll_result(_POLL_INTERVAL)
        if message is None:
            continue
        _, chunk_index, ok, payload = message
        if chunk_index == METRICS_CHUNK_INDEX and ok:
            registry.merge(payload)
            expected -= 1


def _heartbeat(pool: WorkerPool, policy: RetryPolicy, stats: PoolStats,
               retire, now: float) -> None:
    """Ping idle workers; replace any that stay silent too long.

    Busy workers are intentionally exempt: their liveness is covered by
    the crash check and the per-span timeout, and a ping would sit
    behind the running span in the task queue anyway.
    """
    for worker in list(pool.workers.values()):
        if worker.busy or not worker.alive:
            continue
        if worker.ping_sent is not None:
            if now - worker.ping_sent > policy.heartbeat_timeout:
                # Graceful first: if the silence was a false positive
                # the sentinel lets it exit cleanly instead of risking
                # a kill mid-write on the shared result queue.
                stats.workers_retired += 1
                retire(worker, graceful=True)
        elif now - worker.last_seen >= policy.heartbeat_interval:
            worker.send_ping(now)
            stats.pings_sent += 1


#: One work unit: the half-open item range ``[start, stop)``.
Span = Tuple[int, int]


def plan_spans(sizes: Sequence[int], workers: int, *,
               lane_width: int = 1,
               base_cost: int = 4096,
               spans_per_worker: int = 4) -> List[Span]:
    """Cut ``len(sizes)`` items into cost-balanced initial spans.

    Each item's cost is estimated as ``base_cost + sizes[i]`` (a fixed
    per-message overhead plus its payload bytes); spans aim for
    ``workers * spans_per_worker`` roughly equal cost shares, and every
    boundary except the last lands on a multiple of ``lane_width`` so a
    span always dispatches whole lock-step lane groups (the SoA engine's
    ``soa_width()`` batch, or SN states for per-call engines).
    """
    total = len(sizes)
    if total == 0:
        return []
    if lane_width < 1:
        raise ValueError(f"lane width must be positive: {lane_width}")
    target_cost = (sum(sizes) + base_cost * total) \
        / max(1, workers * spans_per_worker)
    spans: List[Span] = []
    start = 0
    acc = 0
    for i, size in enumerate(sizes):
        acc += base_cost + size
        at_lane = (i + 1) % lane_width == 0
        if acc >= target_cost and (at_lane or i + 1 == total):
            spans.append((start, i + 1))
            start = i + 1
            acc = 0
    if start < total:
        spans.append((start, total))
    return spans


class SpanDeque:
    """The parent-owned deque of undispatched spans, with steal-half.

    Dispatch normally pops the leftmost span (keeping items roughly in
    order, which keeps checkpoint manifests compact).  When idle workers
    outnumber the remaining spans — the tail of a ragged batch — the
    *largest* remaining span is split in half on a lane-group boundary:
    the caller gets the left half, the right half stays stealable.  One
    straggler span therefore keeps getting halved until every worker is
    busy or spans reach one lane group.
    """

    def __init__(self, spans: Sequence[Span], lane_width: int = 1) -> None:
        self._spans = deque(spans)
        self.lane_width = max(1, lane_width)
        self.steals = 0

    def __len__(self) -> int:
        return len(self._spans)

    def push(self, span: Span) -> None:
        self._spans.append(span)

    def take(self, idle_workers: int = 1) -> Optional[Span]:
        """The next span to dispatch, splitting under scarcity."""
        if not self._spans:
            return None
        if len(self._spans) >= max(1, idle_workers):
            return self._spans.popleft()
        index = max(range(len(self._spans)),
                    key=lambda i: self._spans[i][1] - self._spans[i][0])
        start, stop = self._spans[index]
        lanes = -(-(stop - start) // self.lane_width)
        if lanes <= 1:  # one lane group cannot split further
            del self._spans[index]
            return (start, stop)
        mid = start + (lanes // 2) * self.lane_width
        self._spans[index] = (mid, stop)
        self.steals += 1
        if _metrics.ARMED:
            _STEALS.inc()
        return (start, mid)


@dataclass
class SpanRunReport:
    """Everything one span-scheduled run produced."""

    #: Per-*item* results in submission order; None where the covering
    #: span was quarantined.
    results: List[Optional[Any]]
    #: Quarantine records whose ``chunk_index`` is the span tuple.
    quarantined: List[QuarantinedChunk] = field(default_factory=list)
    stats: PoolStats = field(default_factory=PoolStats)

    @property
    def ok(self) -> bool:
        return not self.quarantined

    def flat(self) -> List[Any]:
        """All item results; raises if any span was quarantined."""
        if self.quarantined:
            raise ChunkQuarantinedError(
                [q.chunk_index for q in self.quarantined])
        return list(self.results)

    def summary(self) -> str:
        lines = [self.stats.summary()]
        if self.quarantined:
            lines.append(f"{len(self.quarantined)} chunk(s) quarantined:")
            lines.extend(f"  {q}" for q in self.quarantined)
        else:
            lines.append("no chunks quarantined")
        return "\n".join(lines)


def run_spans_report(kind: str, total: int, *,
                     workers: int,
                     payload: Callable[[int, int], Any],
                     collect: Callable[[int, int, Any], List[Any]],
                     spans: Sequence[Span],
                     lane_width: int = 1,
                     timeout: Optional[float] = None,
                     max_retries: int = 2,
                     policy: Optional[RetryPolicy] = None,
                     checkpoint: Optional[str] = None,
                     fingerprint: str = "",
                     transport: str = "shm") -> SpanRunReport:
    """Run ``total`` items as work-stealing spans through task ``kind``.

    The scheduler never touches item payloads: ``payload(start, stop)``
    builds the task payload a worker receives for one span, and
    ``collect(start, stop, result)`` turns a worker's reply into the
    per-item values.  On the pickle transport the payload carries the
    span's items and the reply is the values; on the shared-memory
    transport the payload names an arena range and ``collect`` reads
    the digests the worker wrote in place.  ``transport`` only labels
    the run's latency metrics and timeline.  A ``checkpoint`` manifest
    needs a ``fingerprint`` naming the batch, so a resume against a
    different batch starts fresh — and a caller whose transports differ
    only in how bytes travel can resume a manifest across them.  On a
    resume, the given spans are clipped to the items still unresolved.
    """
    if kind not in _TASK_KINDS:
        raise KeyError(f"unknown task kind: {kind!r}")
    if checkpoint is not None and not fingerprint:
        raise ValueError("a checkpoint manifest needs a batch fingerprint")
    if policy is None:
        # Legacy-compatible policy: no backoff, fail fast, and never let
        # the quarantine threshold cut a caller's retry budget short.
        policy = RetryPolicy(max_retries=max_retries,
                             quarantine_threshold=max(3, max_retries + 1))
    spans = list(spans)
    stats = PoolStats(chunks=len(spans))
    quarantine = QuarantineLog(policy.quarantine_threshold)
    assembler = SpanAssembler(total)
    if total == 0:
        return SpanRunReport(results=[], stats=stats)

    manifest: Optional[SpanCheckpoint] = None
    if checkpoint is not None:
        manifest = SpanCheckpoint(checkpoint)
        for start, stop, values in manifest.begin(fingerprint, total):
            if assembler.add(start, stop, values):
                stats.checkpoint_hits += 1
                stats.completed += 1
        if stats.checkpoint_hits:
            # Never merge across the caller's span boundaries: a
            # run_chunks span is one payload, so a merged gap would
            # hand the task one payload for several items.
            spans = assembler.uncovered(spans)
            stats.chunks = stats.checkpoint_hits + len(spans)

    if workers <= 1:
        _run_serial_spans(kind, spans, payload, collect, policy, assembler,
                          quarantine, stats, manifest)
    elif not assembler.complete:
        pool = WorkerPool(min(workers, len(spans)) or 1)
        try:
            _drive_spans(pool, kind, payload, collect, spans, lane_width,
                         timeout, policy, assembler, quarantine, stats,
                         manifest, transport)
        finally:
            pool.shutdown()

    if _metrics.ARMED:
        _record_pool_stats(stats)
    return SpanRunReport(results=assembler.values(),
                         quarantined=quarantine.quarantined(),
                         stats=stats)



def _run_serial_spans(kind: str, spans: Sequence[Span], payload, collect,
                      policy: RetryPolicy, assembler: SpanAssembler,
                      quarantine: QuarantineLog, stats: PoolStats,
                      manifest: Optional[SpanCheckpoint]) -> None:
    """In-process span execution: same recording, no pool."""
    fn = _TASK_KINDS[kind]
    for start, stop in spans:
        if assembler.covered(start, stop):
            continue
        try:
            result = fn(payload(start, stop))
        except Exception as exc:
            stats.task_failures += 1
            message = f"{type(exc).__name__}: {exc}"
            if policy.quarantine:
                quarantine.force((start, stop), 0, message)
                assembler.add_failed(start, stop)
                continue
            raise TaskError((start, stop), message) from exc
        values = collect(start, stop, result)
        if assembler.add(start, stop, values):
            stats.completed += 1
            if manifest is not None:
                manifest.record(start, stop, values)


def _resolve_failed_span(span: Span, policy: RetryPolicy,
                         assembler: SpanAssembler,
                         quarantine: QuarantineLog, error) -> None:
    """A span is out of attempts or poisoned: quarantine or raise."""
    quarantine.force(span)
    if not policy.quarantine:
        raise error
    assembler.add_failed(*span)


def _drive_spans(pool: WorkerPool, kind: str, payload, collect,
                 spans: Sequence[Span], lane_width: int,
                 timeout: Optional[float], policy: RetryPolicy,
                 assembler: SpanAssembler, quarantine: QuarantineLog,
                 stats: PoolStats, manifest: Optional[SpanCheckpoint],
                 transport: str) -> None:
    rng = policy.make_rng()
    ledger = WorkerLedger(policy.breaker_threshold)
    labeled_lanes: set = set()
    work = SpanDeque(spans, lane_width)
    #: dispatch id -> span; ids are fresh per dispatch so a late result
    #: from a replaced worker still names the right span.
    span_of: Dict[int, Span] = {}
    next_id = 0
    #: (ready_at, span, attempts) awaiting re-dispatch after a failure.
    pending: List[Tuple[float, Span, int]] = []

    def retire(worker, graceful: bool = False) -> None:
        ledger.forget(worker.worker_id)
        pool.replace(worker, graceful=graceful)

    def requeue(span: Span, attempts: int, now: float) -> None:
        delay = policy.delay(attempts + 1, rng)
        stats.retries += 1
        stats.backoff_seconds += delay
        pending.append((now + delay, span, attempts + 1))

    while not assembler.complete:
        now = time.monotonic()
        for worker in list(pool.workers.values()):
            if not worker.busy and not worker.alive:
                # Died between spans (e.g. OOM-killed while idle):
                # replace it so the pool keeps its size.
                retire(worker)

        idle = pool.idle_workers()
        ready = sorted(e for e in pending if e[0] <= now)
        for slot, worker in enumerate(idle):
            if ready:
                entry = ready.pop(0)
                pending.remove(entry)
                _, span, attempts = entry
            else:
                span = work.take(len(idle) - slot)
                if span is None:
                    break
                attempts = 1
            sid = next_id
            next_id += 1
            span_of[sid] = span
            worker.dispatch(sid, kind, payload(*span), attempts, timeout)

        if policy.heartbeat_interval is not None:
            _heartbeat(pool, policy, stats, retire, now)

        message = pool.poll_result(_POLL_INTERVAL)
        if message is not None:
            worker_id, sid, ok, result = message
            now = time.monotonic()
            worker = pool.workers.get(worker_id)
            if worker is not None:
                worker.heard_from(now)
            if sid == PING_CHUNK_INDEX:
                stats.pongs_received += 1
                continue
            if sid == METRICS_CHUNK_INDEX:
                if ok:
                    _metrics.registry().merge(result)
                continue
            span = span_of.get(sid)
            task = worker.task if worker is not None else None
            held = task is not None and task[0] == sid
            duration = (now - worker.dispatched_at
                        if held and worker.dispatched_at is not None
                        else None)
            if held:
                worker.finish()
            if span is None:
                continue  # dispatch record lost with a replaced worker
            if ok:
                ledger.record_success(worker_id)
                if duration is not None:
                    if _metrics.ARMED:
                        _CHUNK_LATENCY.observe(duration, kind=kind,
                                               transport=transport)
                    tl = _timeline.ACTIVE
                    if tl is not None:
                        tid = 1 + worker_id
                        if tid not in labeled_lanes:
                            labeled_lanes.add(tid)
                            tl.label_lane(tid, f"worker {worker_id}")
                        tl.complete(f"span {span[0]}:{span[1]}",
                                    tl.now() - duration, duration, tid=tid,
                                    args={"kind": kind,
                                          "transport": transport,
                                          "attempts": task[3]})
                if not assembler.covered(*span):
                    values = collect(span[0], span[1], result)
                    if assembler.add(*span, values):
                        stats.completed += 1
                        if manifest is not None:
                            manifest.record(span[0], span[1], values)
                continue
            # A task exception, reported by a surviving worker.
            stats.task_failures += 1
            if not policy.retry_task_errors:
                raise TaskError(span, result)
            if not held or assembler.covered(*span):
                continue  # stale report: already requeued or resolved
            attempts = task[3]
            if ledger.record_failure(worker_id):
                # Breaker trip: the worker is alive and idle (we just
                # took its failure report), so retire it gracefully — a
                # SIGKILL here can catch its queue feeder thread still
                # holding the shared result queue's write lock and
                # deadlock every other worker's put().
                stats.workers_retired += 1
                retire(worker, graceful=True)
            poisoned = quarantine.record(span, worker_id, result)
            if poisoned or attempts > policy.max_retries:
                _resolve_failed_span(span, policy, assembler, quarantine,
                                     TaskError(span, result))
            else:
                requeue(span, attempts, now)
            continue

        now = time.monotonic()
        for worker in pool.busy_workers():
            sid, _, _, attempts = worker.task
            span = span_of.get(sid)
            if span is None or assembler.covered(*span):
                # A duplicate dispatch already resolved this span; let
                # the worker finish its stale copy (identical bytes land
                # in the arena's slots, so in-place writes stay safe).
                worker.finish()
                continue
            crashed = not worker.alive
            if not crashed and not worker.timed_out(now):
                continue
            worker_id = worker.worker_id
            if crashed:
                stats.crashes += 1
                reason = "worker crashed"
                error = WorkerCrashError(span, attempts)
            else:
                stats.timeouts += 1
                reason = f"timed out after {timeout:g}s"
                error = ChunkTimeoutError(span, timeout or 0.0, attempts)
            retire(worker)
            poisoned = quarantine.record(span, worker_id, reason)
            if poisoned or attempts > policy.max_retries:
                _resolve_failed_span(span, policy, assembler, quarantine,
                                     error)
            else:
                requeue(span, attempts, now)

    stats.steals = work.steals
    stats.chunks += work.steals  # every split adds one span to the run
    if _metrics.ARMED:
        _collect_worker_metrics(pool)
