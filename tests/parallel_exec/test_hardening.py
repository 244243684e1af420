"""Hardened-pool semantics: backoff, circuit breaker, quarantine,
heartbeats.

Like the base pool tests these pin behaviour, not wall-clock: the policy
math is tested directly, and the scheduler scenarios use deterministic
failing task kinds so every assertion is about *what happened* (stats,
quarantine records, result alignment) rather than how fast.
"""

import hashlib
import json
import math
import os
import random
import signal
import time

import pytest

from repro.parallel_exec import (
    ChunkQuarantinedError,
    RetryPolicy,
    SpanAssembler,
    SpanRunReport,
    register_task_kind,
    run_chunks,
    run_spans_report,
)
from repro.parallel_exec.hardening import (
    PoolStats,
    QuarantinedChunk,
    QuarantineLog,
    WorkerLedger,
)
from repro.parallel_exec import shm
from repro.programs import run_many_report


def _poison(payload):
    raise ValueError(f"poisoned payload {payload!r}")


def _ok(payload):
    return [2 * item for item in payload]


def _flaky(payload):
    flag, items = payload
    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        raise RuntimeError("transient failure")
    return list(items)


def _mixed(payload):
    if payload and payload[0] == "bad":
        raise ValueError("bad chunk")
    return list(payload)


def _sleep_chunk(payload):
    time.sleep(payload[0])
    return list(payload)


register_task_kind("test.h_poison", _poison)
register_task_kind("test.h_ok", _ok)
register_task_kind("test.h_flaky", _flaky)
register_task_kind("test.h_mixed", _mixed)
register_task_kind("test.h_sleep", _sleep_chunk)


def _run_report(kind, chunks, **kwargs):
    """One span per chunk payload; each span's value is the task's list."""
    return run_spans_report(
        kind, len(chunks), payload=lambda start, _stop: chunks[start],
        collect=lambda _start, _stop, values: [values],
        spans=[(i, i + 1) for i in range(len(chunks))], **kwargs)


class TestRetryPolicy:
    def test_defaults_match_legacy(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert not policy.retry_task_errors
        assert not policy.quarantine
        assert policy.heartbeat_interval is None
        assert policy.delay(2, random.Random(0)) == 0.0  # no backoff

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="quarantine_threshold"):
            RetryPolicy(quarantine_threshold=0)
        with pytest.raises(ValueError, match="heartbeat_interval"):
            RetryPolicy(heartbeat_interval=0.0)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_max=0.5, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(attempt, rng) for attempt in (2, 3, 4, 5, 9)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_bounded_and_seeded(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=0.5, seed=42)
        delays = [policy.delay(2, policy.make_rng()) for _ in range(5)]
        assert all(0.1 <= d <= 0.15 for d in delays)
        assert len(set(delays)) == 1  # same seed, same jitter

    def test_hardened_preset(self):
        policy = RetryPolicy.hardened()
        assert policy.retry_task_errors
        assert policy.quarantine
        assert policy.backoff_base > 0
        assert policy.heartbeat_interval is not None
        tightened = RetryPolicy.hardened(max_retries=1)
        assert tightened.max_retries == 1


class TestLedgersAndLogs:
    def test_breaker_trips_on_consecutive_failures(self):
        ledger = WorkerLedger(threshold=3)
        assert not ledger.record_failure(7)
        assert not ledger.record_failure(7)
        ledger.record_success(7)  # success resets the streak
        assert not ledger.record_failure(7)
        assert not ledger.record_failure(7)
        assert ledger.record_failure(7)

    def test_quarantine_counts_distinct_workers(self):
        log = QuarantineLog(threshold=2)
        assert not log.record(5, worker_id=1, reason="crash")
        assert not log.record(5, worker_id=1, reason="crash")  # same worker
        assert log.record(5, worker_id=2, reason="timeout")
        [chunk] = log.quarantined()
        assert chunk.chunk_index == 5
        assert chunk.workers == (1, 1, 2)
        assert "timeout" in str(chunk)

    def test_assembler_failed_slots(self):
        assembler = SpanAssembler(2)
        assembler.add(0, 1, ["a"])
        assembler.add_failed(1, 2)
        assert assembler.complete
        assert assembler.values() == ["a", None]
        report = SpanRunReport(
            results=assembler.values(),
            quarantined=[QuarantinedChunk((1, 2), (0,), ("poisoned",))])
        with pytest.raises(ChunkQuarantinedError, match=r"\(1, 2\)"):
            report.flat()

    def test_stats_summary_mentions_everything(self):
        stats = PoolStats(chunks=4, completed=3, retries=2, crashes=1,
                          checkpoint_hits=1)
        text = stats.summary()
        assert "3/4 chunk(s)" in text
        assert "1 crash(es)" in text
        assert "1 from checkpoint" in text


class TestQuarantineScheduling:
    POLICY = RetryPolicy(max_retries=10, retry_task_errors=True,
                         quarantine=True, quarantine_threshold=2,
                         backoff_base=0.0)

    def test_poisoned_chunk_quarantined_not_retried_forever(self):
        chunks = [["bad"], [1, 2], [3, 4]]
        report = _run_report("test.h_mixed", chunks, workers=2,
                                   policy=self.POLICY)
        assert report.results == [None, [1, 2], [3, 4]]
        [chunk] = report.quarantined
        assert chunk.chunk_index == (0, 1)
        assert len(set(chunk.workers)) >= self.POLICY.quarantine_threshold
        assert all("bad chunk" in reason for reason in chunk.reasons)
        with pytest.raises(ChunkQuarantinedError):
            report.flat()

    def test_run_chunks_raises_on_quarantine(self):
        with pytest.raises(ChunkQuarantinedError, match=r"\(0, 1\)"):
            run_chunks("test.h_mixed", [["bad"], [1]], workers=2,
                       policy=self.POLICY)

    def test_serial_quarantine_completes_batch(self):
        report = _run_report("test.h_mixed", [[1], ["bad"], [2]],
                                   workers=1, policy=self.POLICY)
        assert report.results == [[1], None, [2]]
        assert [q.chunk_index for q in report.quarantined] == [(1, 2)]
        assert report.stats.task_failures == 1

    def test_breaker_retires_repeat_offenders(self):
        policy = RetryPolicy(max_retries=10, retry_task_errors=True,
                             quarantine=True, quarantine_threshold=2,
                             breaker_threshold=2, backoff_base=0.0)
        chunks = [["bad"], ["bad"], ["bad"], ["bad"]]
        report = _run_report("test.h_poison", chunks, workers=2,
                                   policy=policy)
        assert len(report.quarantined) == 4
        # Every result was a failure, so some worker must have hit two
        # consecutive failures and tripped its breaker.
        assert report.stats.workers_retired >= 1
        assert report.stats.task_failures >= 4

    def test_transient_task_error_retried_to_success(self, tmp_path):
        flag = str(tmp_path / "flaky")
        policy = RetryPolicy(max_retries=3, retry_task_errors=True,
                             backoff_base=0.0)
        report = _run_report("test.h_flaky", [(flag, [1, 2])],
                                   workers=2, policy=policy)
        assert report.results == [[1, 2]]
        assert report.ok
        assert report.stats.task_failures == 1
        assert report.stats.retries == 1

    def test_backoff_recorded_on_retry(self, tmp_path):
        flag = str(tmp_path / "flaky_backoff")
        policy = RetryPolicy(max_retries=3, retry_task_errors=True,
                             backoff_base=0.05, jitter=0.5, seed=1)
        start = time.monotonic()
        report = _run_report("test.h_flaky", [(flag, [7])],
                                   workers=2, policy=policy)
        elapsed = time.monotonic() - start
        assert report.results == [[7]]
        assert report.stats.backoff_seconds > 0
        assert elapsed >= report.stats.backoff_seconds

    def test_seeded_jitter_is_deterministic_across_runs(self, tmp_path):
        # Two runs with the same RetryPolicy seed draw the identical
        # jittered backoff sequence — total backoff matches to the bit —
        # while a different seed draws a different one.  This is what
        # makes a flaky-retry incident replayable.
        def run_once(seed, tag):
            flags = [str(tmp_path / f"flaky_{tag}_{i}") for i in range(3)]
            policy = RetryPolicy(max_retries=3, retry_task_errors=True,
                                 backoff_base=0.02, jitter=0.9, seed=seed)
            chunks = [(flag, [i]) for i, flag in enumerate(flags)]
            # Two workers may interleave the failures, but the three
            # jitter draws come off one seeded rng and all retries are
            # attempt #1, so the backoff *sum* is order-independent.
            report = _run_report("test.h_flaky", chunks,
                                       workers=2, policy=policy)
            assert report.ok
            assert report.stats.retries == 3  # one retry per chunk
            return report.stats.backoff_seconds

        first = run_once(42, "a")
        second = run_once(42, "b")
        other = run_once(7, "c")
        assert first > 0
        assert first == second
        assert other != first

    def test_exhausted_retries_quarantine_instead_of_raise(self, tmp_path):
        # One worker, so the distinct-worker threshold (2) can never be
        # met: the chunk must still resolve via the attempts budget.
        policy = RetryPolicy(max_retries=1, retry_task_errors=True,
                             quarantine=True, quarantine_threshold=2,
                             backoff_base=0.0)
        report = _run_report("test.h_poison", [["x"], None],
                                   workers=2, policy=policy)
        assert report.results == [None, None]
        assert {q.chunk_index for q in report.quarantined} \
            == {(0, 1), (1, 2)}


class TestHeartbeat:
    def test_idle_workers_answer_pings(self):
        policy = RetryPolicy(heartbeat_interval=0.05,
                             heartbeat_timeout=10.0)
        # Two workers, two chunks: one sleeps while the other's worker
        # sits idle long enough to be pinged.
        chunks = [[0.6], [0.0]]
        report = _run_report("test.h_sleep", chunks, workers=2,
                                   policy=policy)
        assert report.results == [[0.6], [0.0]]
        assert report.stats.pings_sent >= 1
        assert report.stats.pongs_received >= 1

    def test_healthy_run_retires_no_workers(self):
        policy = RetryPolicy(heartbeat_interval=0.05,
                             heartbeat_timeout=10.0)
        report = _run_report("test.h_ok", [[1], [2], [3]], workers=2,
                                   policy=policy)
        assert report.flat() == [[2], [4], [6]]
        assert report.stats.workers_retired == 0


class TestBatchFrontEnd:
    def test_run_many_report_clean(self):
        messages = [bytes([i]) * 20 for i in range(12)]
        outcome = run_many_report(messages, workers=2, chunk_size=4)
        import hashlib
        assert outcome.ok
        assert outcome.digests == [hashlib.sha3_256(m).digest()
                                   for m in messages]
        assert "no chunks quarantined" in outcome.summary()

    def test_quarantined_chunks_leave_aligned_holes(self, monkeypatch):
        # Poison the hash task for one chunk's messages via a length no
        # real message uses, exercising the None-alignment contract.
        from repro.programs import batch_driver

        original = batch_driver._hash_chunk

        def sabotaged(payload):
            if any(len(m) == 99 for m in payload[3]):
                raise ValueError("sabotaged")
            return original(payload)

        register_task_kind("test.h_sabotaged_hash", sabotaged)
        monkeypatch.setattr(batch_driver, "_HASH_TASK_KIND",
                            "test.h_sabotaged_hash")
        messages = [b"a" * 10] * 4 + [b"b" * 99] * 4 + [b"c" * 10] * 4
        policy = RetryPolicy(max_retries=2, retry_task_errors=True,
                             quarantine=True, quarantine_threshold=2,
                             backoff_base=0.0)
        outcome = run_many_report(messages, workers=2, chunk_size=4,
                                  policy=policy)
        import hashlib
        assert not outcome.ok
        assert outcome.digests[4:8] == [None] * 4
        assert outcome.digests[:4] == [hashlib.sha3_256(b"a" * 10).digest()] * 4
        assert outcome.digests[8:] == [hashlib.sha3_256(b"c" * 10).digest()] * 4
        assert "quarantined" in outcome.summary()


TRANSPORTS = [
    "pickle",
    pytest.param("shm", marks=pytest.mark.skipif(
        not shm.HAVE_SHM, reason="no multiprocessing.shared_memory")),
]

#: Messages of this length trigger the injected fault; every other
#: message hashes normally.
MARKER = 99


def _fault_batch():
    return [b"a" * 10] * 4 + [b"m" * MARKER] * 4 + [b"c" * 10] * 4


def _inject(monkeypatch, fault):
    """Route the hashing body of *both* transports through ``fault``.

    Workers fork after the patch, so they inherit it.  ``fault`` runs
    only for spans holding a marker message.
    """
    from repro.programs import batch_driver

    original = batch_driver._hash_messages

    def sabotaged(algorithm, length, arch, engine, messages):
        if any(len(m) == MARKER for m in messages):
            fault()
        return original(algorithm, length, arch, engine, messages)

    monkeypatch.setattr(batch_driver, "_hash_messages", sabotaged)


def _once(flag, action):
    def fault():
        if not os.path.exists(flag):
            with open(flag, "w"):
                pass
            action()
    return fault


def _raise():
    raise ValueError("poisoned span")


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestFaultLifecycleMatrix:
    """The run_many-level recovery semantics, once per transport."""

    def _run(self, transport, **kwargs):
        return run_many_report(_fault_batch(), workers=2, chunk_size=4,
                               engine="reference", transport=transport,
                               **kwargs)

    def _expected(self):
        return [hashlib.sha3_256(m).digest() for m in _fault_batch()]

    def test_sigkill_mid_span_is_retried(self, transport, tmp_path,
                                         monkeypatch):
        flag = str(tmp_path / "killed")
        _inject(monkeypatch, _once(
            flag, lambda: os.kill(os.getpid(), signal.SIGKILL)))
        outcome = self._run(transport)
        assert os.path.exists(flag)  # the first attempt really died
        assert outcome.ok
        assert outcome.stats.crashes >= 1
        assert outcome.digests == self._expected()

    def test_per_span_timeout_is_retried(self, transport, tmp_path,
                                         monkeypatch):
        flag = str(tmp_path / "hung")
        _inject(monkeypatch, _once(flag, lambda: time.sleep(60)))
        start = time.monotonic()
        outcome = self._run(transport, timeout=2.0)
        assert time.monotonic() - start < 30  # killed, not waited out
        assert outcome.ok
        assert outcome.stats.timeouts >= 1
        assert outcome.digests == self._expected()

    def test_quarantine_keeps_partial_results(self, transport,
                                              monkeypatch):
        _inject(monkeypatch, _raise)
        policy = RetryPolicy(max_retries=2, retry_task_errors=True,
                             quarantine=True, quarantine_threshold=2,
                             backoff_base=0.0)
        outcome = self._run(transport, policy=policy)
        expected = self._expected()
        assert not outcome.ok
        assert outcome.digests[4:8] == [None] * 4
        assert outcome.digests[:4] == expected[:4]
        assert outcome.digests[8:] == expected[8:]
        poisoned = sorted(i for q in outcome.quarantined
                          for i in range(*q.chunk_index))
        assert poisoned == [4, 5, 6, 7]
        with pytest.raises(ChunkQuarantinedError):
            outcome.flat()

    def test_breaker_trips_on_repeat_failures(self, transport,
                                              monkeypatch):
        _inject(monkeypatch, _raise)
        policy = RetryPolicy(max_retries=10, retry_task_errors=True,
                             quarantine=True, quarantine_threshold=2,
                             breaker_threshold=2, backoff_base=0.0)
        outcome = run_many_report([b"m" * MARKER] * 4, workers=2,
                                  chunk_size=1, engine="reference",
                                  transport=transport, policy=policy)
        assert outcome.digests == [None] * 4
        assert len(outcome.quarantined) == 4
        assert outcome.stats.workers_retired >= 1

    def test_checkpoint_resume(self, transport, tmp_path):
        path = str(tmp_path / "manifest.json")
        first = self._run(transport, checkpoint=path)
        assert first.digests == self._expected()
        with open(path) as handle:
            recorded = len(json.load(handle)["completed"])
        second = self._run(transport, checkpoint=path)
        assert second.digests == self._expected()
        assert second.stats.checkpoint_hits == recorded
        assert second.stats.completed == recorded  # nothing recomputed

    def test_chunk_size_sets_the_initial_spans(self, transport):
        # A given chunk_size used to be ignored whenever the transport
        # resolved to shm.
        messages = [bytes([n % 251]) * 4096 for n in range(48)]
        outcome = run_many_report(messages, workers=2, chunk_size=4,
                                  engine="reference", transport=transport)
        assert outcome.stats.chunks >= math.ceil(len(messages) / 4)
        assert outcome.digests == [hashlib.sha3_256(m).digest()
                                   for m in messages]
