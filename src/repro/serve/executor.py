"""Batch executors: coalesced requests → lock-step simulator groups.

The daemon's batcher hands an executor one coalesced batch of
``(message, deadline)`` items per algorithm.  The executor owns the
step from *requests* to *multi-state simulator work*:

* Items are sorted by deadline and cut into lock-step groups of the
  engine's width (SN states for the cycle-accurate engines, the SoA
  batch width for ``soa``, a fixed group for whole-message engines) so
  the most urgent work dispatches first.
* **Deadlines propagate into dispatch**: a group whose items have all
  expired is shed before it reaches a worker, and already-expired
  items are dropped from a group at the moment it dispatches — a
  saturated pool therefore sheds exactly the work that can no longer
  meet its SLO instead of burning workers on it.
* The :class:`PooledExecutor` drives the persistent
  :class:`~repro.parallel_exec.pool.WorkerPool` directly (one dispatch
  loop per batch, many groups in flight at once) and reuses the PR 3
  hardening: a worker that fails ``breaker_threshold`` groups
  consecutively trips its circuit breaker and is **rolling-restarted**
  (gracefully replaced, one worker at a time) instead of collapsing
  the pool; crashes and timeouts retry the group on another worker.
  Large batches ride the PR 7 zero-copy shm arenas; small ones take
  the pickle queues.

Results are ``(outcome, digest)`` pairs aligned with the input items:
``("ok", digest)``, ``("deadline_exceeded", None)`` for shed work, or
``("error", None)`` when retries are exhausted.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from ..observability import metrics as _metrics
from ..parallel_exec import shm as _shm
from ..parallel_exec.hardening import WorkerLedger
from ..parallel_exec.pool import WorkerPool
from ..parallel_exec.scheduler import _collect_worker_metrics
from ..programs.batch_driver import (
    _HASH_SHM_TASK_KIND,
    _HASH_TASK_KIND,
    _TREE_ALGORITHMS,
    _cached_permutation,
    digest_size as _digest_size,
    hash_messages,
)
from ..sim import engines as _engines

#: Per-item outcomes (mirrored by the daemon's HTTP status mapping).
OK = "ok"
DEADLINE_EXCEEDED = "deadline_exceeded"
ERROR = "error"

#: One batch item: the message and its absolute monotonic deadline
#: (None = no deadline).
Item = Tuple[bytes, Optional[float]]

#: One per-item result: (outcome, digest-or-None).
ItemResult = Tuple[str, Optional[bytes]]

#: Lock-step group size for whole-message engines (``reference``): they
#: have no architectural width, so groups just amortize dispatch IPC.
_DIGEST_BATCH_GROUP = 32

#: How long one poll of the pool's result queue blocks.
_POLL_INTERVAL = 0.02

_RESTARTS = _metrics.registry().counter(
    "serve_worker_restarts_total",
    "Pool workers replaced by the serving executor", ("reason",))
_SHED = _metrics.registry().counter(
    "serve_shed_items_total",
    "Items shed before dispatch because their deadline expired")


def _lane_width(arch: Tuple[int, int, int], engine: str,
                algorithm: str = "sha3_256") -> int:
    """The engine's lock-step group size for this architecture.

    Tree algorithms (``k12``, ``parallelhash128/256``) are whole-message
    work units — their leaf batching happens inside the worker — so
    their groups only amortize dispatch IPC, like digest-batch engines.
    """
    if algorithm in _TREE_ALGORITHMS:
        return _DIGEST_BATCH_GROUP
    spec = _engines.maybe_get(engine)
    if spec is not None and spec.digest_batch is not None:
        return _DIGEST_BATCH_GROUP
    return _cached_permutation(arch, engine).max_states


def _plan_groups(items: Sequence[Item], width: int) -> List[List[int]]:
    """Item indices cut into lock-step groups, most urgent first."""
    order = sorted(
        range(len(items)),
        key=lambda i: (items[i][1] is None,
                       items[i][1] if items[i][1] is not None else 0.0, i))
    return [order[k:k + width] for k in range(0, len(order), width)]


def _split_expired(items: Sequence[Item], group: Sequence[int],
                   now: float) -> Tuple[List[int], List[int]]:
    """Partition a group into (live, expired) at dispatch time."""
    live: List[int] = []
    expired: List[int] = []
    for index in group:
        deadline = items[index][1]
        (expired if deadline is not None and deadline <= now
         else live).append(index)
    return live, expired


class InlineExecutor:
    """Serial in-process execution: the reference the pool is tested
    against, and the right choice for single-core deployments."""

    def __init__(self, engine: str = "auto",
                 arch: Tuple[int, int, int] = (64, 8, 30)) -> None:
        self.engine = _engines.validate(engine)
        self.arch = tuple(arch)
        self.workers = 0
        self._width = _lane_width(self.arch, self.engine)

    def hash_batch(self, algorithm: str, length: int,
                   items: Sequence[Item]) -> List[ItemResult]:
        width = _lane_width(self.arch, self.engine, algorithm)
        results: List[Optional[ItemResult]] = [None] * len(items)
        for group in _plan_groups(items, width):
            live, expired = _split_expired(items, group, time.monotonic())
            for index in expired:
                results[index] = (DEADLINE_EXCEEDED, None)
            if expired and _metrics.ARMED:
                _SHED.inc(len(expired))
            if not live:
                continue
            try:
                digests = hash_messages(
                    algorithm, length, self.arch, self.engine,
                    [items[i][0] for i in live])
            except Exception:
                for index in live:
                    results[index] = (ERROR, None)
                continue
            for index, digest in zip(live, digests):
                results[index] = (OK, digest)
        return [r if r is not None else (ERROR, None) for r in results]

    def restart_workers(self, reason: str = "rolling") -> int:
        return 0

    def close(self) -> None:
        pass


class _Group:
    """One dispatchable unit: original item indices + its shm span."""

    __slots__ = ("indices", "pos_start", "pos_stop", "attempts")

    def __init__(self, indices: List[int], pos_start: int,
                 pos_stop: int) -> None:
        self.indices = indices
        self.pos_start = pos_start
        self.pos_stop = pos_stop
        self.attempts = 1


class PooledExecutor:
    """Batch execution over a *persistent* worker pool.

    Unlike :func:`repro.run_many` (which builds a pool per call), the
    serving executor keeps its workers alive across batches — warm
    Sessions, predecoded programs and compiled kernels survive — and
    recovers in place: crashes/timeouts retry on another worker,
    breaker trips rolling-restart the offending worker, and
    :meth:`restart_workers` cycles the whole pool one worker at a time
    without dropping a batch (the batch lock serializes with it).
    """

    def __init__(self, workers: int, engine: str = "auto",
                 arch: Tuple[int, int, int] = (64, 8, 30),
                 max_retries: int = 2,
                 breaker_threshold: int = 3,
                 group_timeout: float = 30.0,
                 transport: str = "auto") -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker: {workers}")
        if transport not in ("auto", "shm", "pickle"):
            raise ValueError(f"unknown transport: {transport!r}")
        self.engine = _engines.validate(engine)
        self.arch = tuple(arch)
        self.workers = workers
        self.max_retries = max_retries
        self.group_timeout = group_timeout
        self.transport = transport
        self.restarts = 0
        self._width = _lane_width(self.arch, self.engine)
        # Pre-compile in the parent so forked workers warm-start from
        # the shared on-disk kernel cache (same as run_many's parents).
        spec = _engines.maybe_get(self.engine)
        if spec is None or spec.digest_batch is None:
            _cached_permutation(self.arch, self.engine).precompile()
        self._ledger = WorkerLedger(breaker_threshold)
        self._lock = threading.Lock()
        self._pool: Optional[WorkerPool] = WorkerPool(workers)

    # -- lifecycle -----------------------------------------------------------

    def restart_workers(self, reason: str = "rolling") -> int:
        """Gracefully replace every worker, one at a time.

        Serialized against :meth:`hash_batch`, so a restart never races
        a dispatch loop; each replacement drains the worker via the
        sentinel before a fresh one takes its slot (pool size is
        constant throughout — no collapse window).
        """
        with self._lock:
            if self._pool is None:
                return 0
            for worker_id in list(self._pool.workers):
                self._ledger.forget(worker_id)
            replaced = self._pool.rolling_restart()
            self.restarts += replaced
            if replaced and _metrics.ARMED:
                _RESTARTS.inc(replaced, reason=reason)
            return replaced

    def close(self) -> None:
        with self._lock:
            if self._pool is None:
                return
            if _metrics.ARMED:
                _collect_worker_metrics(self._pool)
            self._pool.shutdown()
            self._pool = None

    # -- batch execution -----------------------------------------------------

    def hash_batch(self, algorithm: str, length: int,
                   items: Sequence[Item]) -> List[ItemResult]:
        with self._lock:
            if self._pool is None:
                raise RuntimeError("executor is closed")
            if not items:
                return []
            return self._run_batch(algorithm, length, items)

    def _run_batch(self, algorithm: str, length: int,
                   items: Sequence[Item]) -> List[ItemResult]:
        digest_size = _digest_size(algorithm, length)
        total_bytes = sum(len(message) for message, _ in items)
        mode = _shm.choose_transport(self.transport, total_bytes,
                                     self.workers)
        groups = _plan_groups(items, _lane_width(self.arch, self.engine,
                                                 algorithm))
        # The shm arena holds messages in deadline order, so a group is
        # a contiguous span of packed positions.
        order = [index for group in groups for index in group]
        arena = None
        if mode == "shm":
            sizes = [len(items[i][0]) for i in order]
            arena = _shm.arena_pool().acquire(
                _shm.required_size(sizes, digest_size))
            arena.pack([items[i][0] for i in order], digest_size)
        try:
            return self._run_groups(algorithm, length, items, groups,
                                    arena, digest_size)
        finally:
            if arena is not None:
                _shm.arena_pool().release(arena)

    def _dispatch_payload(self, algorithm: str, length: int,
                          items: Sequence[Item], group: _Group,
                          live: List[int], arena) -> Tuple[str, object]:
        if arena is not None:
            return (_HASH_SHM_TASK_KIND,
                    (arena.name, group.pos_start, group.pos_stop,
                     algorithm, length, self.arch, self.engine))
        # Pickle transport dispatches only the still-live messages.
        return (_HASH_TASK_KIND,
                (algorithm, length, self.arch,
                 [items[i][0] for i in live], self.engine))

    def _collect(self, group: _Group, live: List[int], arena,
                 payload) -> List[bytes]:
        if arena is not None:
            digests = arena.read_digests(group.pos_start, group.pos_stop)
            by_index = dict(zip(group.indices, digests))
            return [by_index[i] for i in live]
        return list(payload)

    def _replace_worker(self, worker, reason: str,
                        graceful: bool) -> None:
        self._ledger.forget(worker.worker_id)
        self._pool.replace(worker, graceful=graceful)
        self.restarts += 1
        if _metrics.ARMED:
            _RESTARTS.inc(reason=reason)

    def _run_groups(self, algorithm: str, length: int,
                    items: Sequence[Item], planned: List[List[int]],
                    arena, digest_size: int) -> List[ItemResult]:
        pool = self._pool
        results: List[Optional[ItemResult]] = [None] * len(items)
        pending: deque = deque()
        position = 0
        for group_indices in planned:
            pending.append(_Group(group_indices, position,
                                  position + len(group_indices)))
            position += len(group_indices)
        #: dispatch id -> (_Group, live indices); fresh per dispatch so
        #: a late result from a replaced worker still resolves.
        in_flight: Dict[int, Tuple[_Group, List[int]]] = {}
        next_id = 0

        def shed(indices: List[int]) -> None:
            for index in indices:
                results[index] = (DEADLINE_EXCEEDED, None)
            if indices and _metrics.ARMED:
                _SHED.inc(len(indices))

        def fail(indices: List[int]) -> None:
            for index in indices:
                results[index] = (ERROR, None)

        while pending or in_flight:
            now = time.monotonic()
            for worker in list(pool.workers.values()):
                if not worker.busy and not worker.alive:
                    # Died idle (e.g. OOM): keep the pool at size.
                    self._replace_worker(worker, "crashed", graceful=False)

            for worker in pool.idle_workers():
                if not pending:
                    break
                group = pending.popleft()
                now = time.monotonic()
                live, expired = _split_expired(items, group.indices, now)
                shed(expired)
                if not live:
                    continue  # fully shed before reaching a worker
                deadlines = [items[i][1] for i in live
                             if items[i][1] is not None]
                timeout = self.group_timeout
                if deadlines:
                    timeout = min(timeout, max(deadlines) - now)
                kind, payload = self._dispatch_payload(
                    algorithm, length, items, group, live, arena)
                sid = next_id
                next_id += 1
                in_flight[sid] = (group, live)
                worker.dispatch(sid, kind, payload, group.attempts,
                                max(timeout, _POLL_INTERVAL))

            message = pool.poll_result(_POLL_INTERVAL)
            if message is not None:
                worker_id, sid, ok, payload = message
                now = time.monotonic()
                worker = pool.workers.get(worker_id)
                if worker is not None:
                    worker.heard_from(now)
                    if worker.task is not None and worker.task[0] == sid:
                        worker.finish()
                entry = in_flight.pop(sid, None)
                if entry is None:
                    continue  # stale: already requeued or resolved
                group, live = entry
                if ok:
                    self._ledger.record_success(worker_id)
                    for index, digest in zip(
                            live, self._collect(group, live, arena,
                                                payload)):
                        results[index] = (OK, digest)
                    continue
                # Task exception reported by a surviving worker.
                if self._ledger.record_failure(worker_id) \
                        and worker is not None:
                    # Breaker trip: rolling restart of this one worker,
                    # not the pool (it is idle — graceful is safe).
                    self._replace_worker(worker, "breaker", graceful=True)
                group.attempts += 1
                if group.attempts > self.max_retries + 1:
                    fail(live)
                else:
                    pending.appendleft(group)
                continue

            now = time.monotonic()
            for worker in pool.busy_workers():
                sid = worker.task[0]
                entry = in_flight.get(sid)
                if entry is None:
                    worker.finish()
                    continue
                crashed = not worker.alive
                if not crashed and not worker.timed_out(now):
                    continue
                group, live = entry
                del in_flight[sid]
                self._replace_worker(
                    worker, "crashed" if crashed else "timeout",
                    graceful=False)
                group.attempts += 1
                if group.attempts > self.max_retries + 1:
                    fail(live)
                else:
                    pending.appendleft(group)

        return [r if r is not None else (ERROR, None) for r in results]
