"""Worker-pool engine tests: ordering, retry policy, digest correctness.

The pool's scaling claims only hold on multicore machines, so nothing
here asserts wall-clock speedups — these tests pin the *semantics*: the
parallel path returns exactly what the serial path returns (in order),
task exceptions fail fast, and crashed/hung workers are replaced with
their spans retried.

Crash/timeout tasks signal attempt state through flag files because the
task runs in a child process; ``fork`` inherits the registry, so kinds
registered at this module's import are visible in workers.
"""

import hashlib
import os
import time

import pytest

from repro.parallel_exec import (
    ChunkTimeoutError,
    TaskError,
    WorkerCrashError,
    register_task_kind,
    run_chunks,
)
from repro.parallel_exec.results import ParallelExecError, SpanAssembler
from repro.programs import batch_sha3_256, run_many, run_many_report


def _echo(payload):
    return [(os.getpid(), item) for item in payload]


def _double(payload):
    return [2 * item for item in payload]


def _fail_on_13(payload):
    if 13 in payload:
        raise ValueError("unlucky chunk")
    return list(payload)


def _crash_once(payload):
    flag, items = payload
    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os._exit(17)  # hard crash: no result, no exception report
    return list(items)


def _hang_forever(payload):
    time.sleep(600)
    return list(payload)  # pragma: no cover - always killed first


def _big_result(payload):
    return b"x" * payload


register_task_kind("test.echo", _echo)
register_task_kind("test.double", _double)
register_task_kind("test.fail13", _fail_on_13)
register_task_kind("test.crash_once", _crash_once)
register_task_kind("test.hang", _hang_forever)
register_task_kind("test.big_result", _big_result)


def _chunks(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


class TestChunking:
    def test_chunked_splits_and_preserves_order(self):
        # A chunk size cuts the batch into consecutive initial spans.
        messages = [bytes([i]) * 9 for i in range(7)]
        outcome = run_many_report(messages, workers=1, chunk_size=3)
        assert outcome.stats.chunks == 3
        assert outcome.digests == [hashlib.sha3_256(m).digest()
                                   for m in messages]
        assert run_many_report([], workers=1, chunk_size=3).stats.chunks \
            == 0

    def test_chunked_rejects_bad_size(self):
        with pytest.raises(ValueError, match="chunk size"):
            run_many([b"x"], chunk_size=0)

    def test_assembler_requires_all_chunks(self):
        assembler = SpanAssembler(2)
        assembler.add(1, 2, ["b"])
        with pytest.raises(ParallelExecError):
            assembler.values()
        assembler.add(0, 1, ["a"])
        assert assembler.values() == ["a", "b"]

    def test_assembler_ignores_duplicate_delivery(self):
        assembler = SpanAssembler(1)
        assert assembler.add(0, 1, ["first"])
        assert not assembler.add(0, 1, ["late duplicate"])
        assert assembler.values() == ["first"]


class TestScheduler:
    def test_serial_and_parallel_agree(self):
        items = list(range(40))
        serial = run_chunks("test.double", _chunks(items, 7), workers=1)
        parallel = run_chunks("test.double", _chunks(items, 7), workers=3)
        assert serial == [2 * i for i in items]
        assert parallel == serial

    def test_parallel_uses_multiple_processes(self):
        results = run_chunks("test.echo", _chunks(list(range(12)), 2),
                             workers=3)
        assert [item for _, item in results] == list(range(12))
        assert all(pid != os.getpid() for pid, _ in results)

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            run_chunks("test.no_such_kind", [[1]], workers=1)

    def test_task_error_fails_fast_serial(self):
        with pytest.raises(TaskError, match=r"chunk \(1, 2\)"):
            run_chunks("test.fail13", [[1, 2], [13, 4]], workers=1)

    def test_task_error_fails_fast_parallel(self):
        with pytest.raises(TaskError, match="unlucky"):
            run_chunks("test.fail13", [[1, 2], [13, 4]], workers=2)

    def test_worker_crash_retried_then_succeeds(self, tmp_path):
        flag = str(tmp_path / "crashed")
        chunks = [(flag, [1, 2, 3])]
        assert run_chunks("test.crash_once", chunks, workers=2) == [1, 2, 3]
        assert os.path.exists(flag)  # first attempt really did crash

    def test_worker_crash_exhausts_retries(self, tmp_path):
        def crash_always(payload):
            os._exit(23)

        register_task_kind("test.crash_always", crash_always)
        with pytest.raises(WorkerCrashError, match=r"chunk \(0, 1\)"):
            run_chunks("test.crash_always", [[1]], workers=2, max_retries=1)

    def test_timeout_kills_and_exhausts_retries(self):
        start = time.monotonic()
        with pytest.raises(ChunkTimeoutError, match=r"chunk \(0, 1\)"):
            run_chunks("test.hang", [[1]], workers=2, timeout=0.3,
                       max_retries=1)
        assert time.monotonic() - start < 60  # killed, not waited out


class TestHashingFrontEnd:
    MESSAGES = [bytes([i]) * (7 * i % 90) for i in range(30)]

    def test_run_many_matches_hashlib_serial(self):
        digests = run_many(self.MESSAGES, workers=1)
        assert digests == [hashlib.sha3_256(m).digest()
                           for m in self.MESSAGES]

    def test_run_many_matches_hashlib_parallel(self):
        digests = run_many(self.MESSAGES, workers=2, chunk_size=8)
        assert digests == [hashlib.sha3_256(m).digest()
                           for m in self.MESSAGES]

    def test_run_many_shake(self):
        digests = run_many(self.MESSAGES[:8], algorithm="shake128",
                           length=48, workers=2, chunk_size=3)
        assert digests == [hashlib.shake_128(m).digest(48)
                           for m in self.MESSAGES[:8]]

    def test_run_many_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            run_many([b"x"], algorithm="md5")

    def test_batch_sha3_256_workers_parameter(self):
        digests = batch_sha3_256(self.MESSAGES, workers=2)
        assert digests == [hashlib.sha3_256(m).digest()
                           for m in self.MESSAGES]

    def test_batch_sha3_256_without_workers_keeps_sn_limit(self):
        too_many = [b"m"] * 100
        with pytest.raises(ValueError):
            batch_sha3_256(too_many)  # legacy path: bounded by SN
        assert len(batch_sha3_256(too_many, workers=1)) == 100

    def test_empty_batch(self):
        assert run_many([], workers=2) == []


class TestShutdownDrain:
    """Shutdown must drain-then-close, not stall behind blocked feeders.

    A worker whose result is still sitting in its queue feeder thread
    cannot exit until the parent reads the result queue; the old
    serial ``stop()`` loop burned its join timeout per worker and then
    SIGKILLed them mid-write.  The drained shutdown lets every worker
    flush and exit cleanly within one bounded deadline.
    """

    def test_shutdown_with_undrained_results_is_bounded_and_clean(self):
        from repro.parallel_exec.pool import WorkerPool

        pool = WorkerPool(2)
        procs = [w.process for w in pool.workers.values()]
        # Park one multi-MB undrained result in each worker's feeder —
        # far beyond the pipe buffer, so the feeders block mid-put.
        for worker in pool.workers.values():
            worker.dispatch(0, "test.big_result", 4 << 20, 1, None)
        deadline = time.monotonic() + 30
        while any(w.task_queue.qsize() for w in pool.workers.values()) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(0.5)  # let the workers reach the blocking put
        start = time.monotonic()
        pool.shutdown(deadline=10.0)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"shutdown hit the deadline ({elapsed:.1f}s)"
        for proc in procs:
            assert not proc.is_alive()
            assert proc.exitcode == 0, (
                f"worker force-killed instead of drained: {proc.exitcode}")

    def test_sigterm_ends_a_worker_quietly(self):
        # `repro batch` routes SIGTERM to KeyboardInterrupt before it
        # forks its pool.  If it exits mid-shutdown, multiprocessing's
        # exit hook SIGTERMs the surviving workers: they must die of the
        # signal, not raise the inherited KeyboardInterrupt and print a
        # traceback onto the shared stderr.
        import signal

        from repro.parallel_exec.pool import WorkerPool

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGTERM, interrupt)
        try:
            pool = WorkerPool(1)
        finally:
            signal.signal(signal.SIGTERM, previous)
        try:
            worker = next(iter(pool.workers.values()))
            # One round trip proves the worker is past its start-up.
            worker.dispatch(0, "test.double", [1], 1, None)
            assert pool.poll_result(30) == (worker.worker_id, 0, True, [2])
            worker.process.terminate()
            worker.process.join(30)
            assert worker.process.exitcode == -signal.SIGTERM
        finally:
            pool.shutdown()
