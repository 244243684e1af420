"""Process-parallel batch execution for the simulator.

The simulator is pure Python, so one process is pinned to one core by the
GIL; production-scale batch hashing (the ROADMAP north star) needs the
other cores.  This package shards large work lists across a pool of
persistent worker processes:

* :mod:`~repro.parallel_exec.pool` — worker lifecycle, task-kind
  registry, per-worker task queues, shared result queue, heartbeat
  pings.
* :mod:`~repro.parallel_exec.scheduler` — one span scheduler for every
  transport: lane-aligned spans, work stealing, one span in flight per
  worker, crash/timeout retry with exponential backoff + jitter,
  per-worker circuit breaker, poisoned-span quarantine, task errors
  fail fast by default.
* :mod:`~repro.parallel_exec.shm` — the zero-copy shared-memory arena
  transport; the other transport pickles each span's items into its
  task payload.
* :mod:`~repro.parallel_exec.hardening` — the :class:`RetryPolicy`
  knobs, quarantine log and pool statistics backing the above.
* :mod:`~repro.parallel_exec.checkpoint` — the span-keyed JSON manifest
  behind checkpoint/resume, shared by both transports.
* :mod:`~repro.parallel_exec.results` — per-item reassembly in
  submission order, and the structured error taxonomy
  (:class:`ParallelExecError` and subclasses).

Workers are *persistent*: each keeps its warm
:class:`~repro.programs.session.Session` (predecoded programs and
compiled kernels survive across spans), so the per-span cost is the
simulation itself, not setup.  The high-level front ends live in
:func:`repro.run_many` and ``batch_sha3_256(..., workers=N)``.
"""

from .checkpoint import ManifestVersionError, SpanCheckpoint
from .hardening import (
    PoolStats,
    QuarantinedChunk,
    QuarantineLog,
    RetryPolicy,
)
from .pool import WorkerPool, default_worker_count, register_task_kind
from .results import (
    ChunkQuarantinedError,
    ChunkTimeoutError,
    ParallelExecError,
    SpanAssembler,
    TaskError,
    WorkerCrashError,
)
from .scheduler import (
    SpanDeque,
    SpanRunReport,
    plan_spans,
    run_chunks,
    run_spans_report,
)
from .shm import ArenaPool, ShmArena, arena_pool, choose_transport

__all__ = [
    "WorkerPool",
    "default_worker_count",
    "register_task_kind",
    "SpanAssembler",
    "ParallelExecError",
    "TaskError",
    "WorkerCrashError",
    "ChunkTimeoutError",
    "ChunkQuarantinedError",
    "RetryPolicy",
    "PoolStats",
    "QuarantineLog",
    "QuarantinedChunk",
    "ManifestVersionError",
    "SpanCheckpoint",
    "SpanDeque",
    "SpanRunReport",
    "plan_spans",
    "run_chunks",
    "run_spans_report",
    "ArenaPool",
    "ShmArena",
    "arena_pool",
    "choose_transport",
]
