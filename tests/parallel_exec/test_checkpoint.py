"""Checkpoint/resume: manifest round-trips, fingerprint guards, and a
real kill-and-resume of a batch run.

The kill test launches ``repro batch --resume`` in its own process
group, SIGKILLs the whole group once the manifest shows progress, and
then resumes in-process — the resumed digests must be byte-identical to
``hashlib`` in the original message order, with at least one span
served from the manifest instead of recomputed.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.parallel_exec import (
    ManifestVersionError,
    SpanCheckpoint,
    register_task_kind,
    run_chunks,
    run_spans_report,
    shm,
)
from repro.programs import batch_driver, run_many, run_many_report

#: Payloads the in-process triple task saw, in call order.
CALLS = []


def _triple(payload):
    CALLS.append(payload)
    return [3 * item for item in payload]


def _double(payload):
    return [2 * item for item in payload]


register_task_kind("test.cp_triple", _triple)
register_task_kind("test.cp_double", _double)


def _chunk_manifest(path, completed=None):
    """A version-1 chunk-keyed manifest, as older builds wrote them."""
    with open(path, "w") as handle:
        json.dump({"version": 1, "kind": "test.cp_triple",
                   "num_chunks": 1, "fingerprints": ["f" * 64],
                   "completed": completed or {}}, handle)


class TestManifest:
    def test_begin_creates_and_resume_returns_completed(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        manifest = SpanCheckpoint(path)
        assert manifest.begin("fp", 3) == []
        manifest.record(1, 3, [b"\x00\xff", [b"\x01", 2]])

        resumed = SpanCheckpoint(path)
        # bytes, lists of bytes and JSON values survive exactly
        assert resumed.begin("fp", 3) == [(1, 3, [b"\x00\xff", [b"\x01", 2]])]

    def test_fingerprint_mismatch_starts_fresh(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        manifest = SpanCheckpoint(path)
        manifest.begin("fp-a", 2)
        manifest.record(0, 2, [3, 6])

        other = SpanCheckpoint(path)
        assert other.begin("fp-b", 2) == []
        # ... and the stale completion was dropped from disk.
        fresh = SpanCheckpoint(path)
        assert fresh.begin("fp-a", 2) == []

    def test_kind_mismatch_starts_fresh(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        assert run_chunks("test.cp_triple", [[1]], workers=1,
                          checkpoint=path) == [3]
        assert run_chunks("test.cp_double", [[1]], workers=1,
                          checkpoint=path) == [2]

    def test_corrupt_manifest_starts_fresh(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        with open(path, "w") as handle:
            handle.write("{ torn write")
        assert SpanCheckpoint(path).begin("fp", 1) == []

    def test_record_before_begin_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="begin"):
            SpanCheckpoint(str(tmp_path / "m.json")).record(0, 1, [])

    def test_fingerprint_is_content_sensitive(self):
        def fingerprint(messages, engine="auto"):
            return batch_driver._batch_fingerprint(
                "sha3_256", 32, (64, 8, 30), engine, messages)

        assert fingerprint([b"ab", b"c"]) != fingerprint([b"a", b"bc"])
        assert fingerprint([b"ab", b"c"]) != fingerprint([b"ab", b"c"],
                                                          "reference")
        assert fingerprint([b"ab", b"c"]) == fingerprint([b"ab", b"c"])


class TestManifestVersion:
    """Version mismatches refuse to run rather than discard real work."""

    def test_chunk_manifest_rejected_by_span_run(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        _chunk_manifest(path)
        with pytest.raises(ManifestVersionError,
                           match="chunk-keyed") as excinfo:
            SpanCheckpoint(path).begin("fp", 4)
        assert "\n" not in str(excinfo.value)  # one-line CLI diagnostic

    def test_unknown_future_version_rejected(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        with open(path, "w") as handle:
            json.dump({"version": 99, "kind": "test.cp_triple"}, handle)
        with pytest.raises(ManifestVersionError, match="version 99"):
            SpanCheckpoint(path).begin("fp", 1)

    def test_mismatch_leaves_manifest_untouched(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        _chunk_manifest(path, completed={"0": [{"j": 3}]})
        with open(path) as handle:
            before = handle.read()

        with pytest.raises(ManifestVersionError):
            run_chunks("test.cp_triple", [[1]], workers=1, checkpoint=path)
        with open(path) as handle:
            assert handle.read() == before  # completed work preserved

    def test_versionless_manifest_still_starts_fresh(self, tmp_path):
        # Pre-versioning garbage has no int version field: keep the old
        # lenient behavior instead of inventing an incompatibility.
        path = str(tmp_path / "manifest.json")
        with open(path, "w") as handle:
            json.dump({"kind": "test.cp_triple"}, handle)
        assert SpanCheckpoint(path).begin("fp", 1) == []


class TestSchedulerCheckpointing:
    def test_serial_run_records_and_resumes(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        chunks = [[1], [2], [3]]
        assert run_chunks("test.cp_triple", chunks, workers=1,
                          checkpoint=path) == [3, 6, 9]
        with open(path) as handle:
            saved = json.load(handle)
        assert len(saved["completed"]) == 3

        del CALLS[:]
        assert run_chunks("test.cp_triple", chunks, workers=1,
                          checkpoint=path) == [3, 6, 9]
        assert CALLS == []  # nothing recomputed

    @staticmethod
    def _leave_only_first_payload(path, chunks):
        """A manifest under run_chunks' own fingerprint in which only
        payload 0 finished, with a deliberately wrong value."""
        assert run_chunks("test.cp_triple", chunks, workers=1,
                          checkpoint=path) == [3 * c[0] for c in chunks]
        with open(path) as handle:
            saved = json.load(handle)
        saved["completed"] = {"0:1": [{"l": [{"j": 999}]}]}
        with open(path, "w") as handle:
            json.dump(saved, handle)

    def test_parallel_resume_skips_completed_chunks(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        chunks = [[i] for i in range(6)]
        self._leave_only_first_payload(path, chunks)

        # The checkpointed (wrong) value is trusted, which proves
        # payload 0 was not re-executed; the other five ran on the pool.
        assert run_chunks("test.cp_triple", chunks, workers=2,
                          checkpoint=path) == [999, 3, 6, 9, 12, 15]
        with open(path) as handle:
            assert len(json.load(handle)["completed"]) == 6

    def test_serial_resume_skips_completed_chunks(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        chunks = [[i] for i in range(6)]
        self._leave_only_first_payload(path, chunks)

        del CALLS[:]
        assert run_chunks("test.cp_triple", chunks, workers=1,
                          checkpoint=path) == [999, 3, 6, 9, 12, 15]
        assert CALLS == chunks[1:]  # one call per remaining payload

    def test_span_resume_keeps_planned_boundaries(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        chunks = [[i] for i in range(6)]
        manifest = SpanCheckpoint(path)
        manifest.begin("fp", 6)
        manifest.record(0, 1, [999])  # pretend item 0 already finished

        planned = []

        def payload(start, stop):
            planned.append((start, stop))
            return [i for c in chunks[start:stop] for i in c]

        report = run_spans_report(
            "test.cp_triple", 6, workers=1, payload=payload,
            collect=lambda _start, _stop, values: values,
            spans=[(0, 3), (3, 6)], checkpoint=path, fingerprint="fp",
            transport="pickle")
        assert report.flat() == [999, 3, 6, 9, 12, 15]
        assert report.stats.checkpoint_hits == 1
        # The resumed run clips (0, 3) instead of merging it with (3, 6).
        assert planned == [(1, 3), (3, 6)]

    def test_checkpoint_without_fingerprint_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fingerprint"):
            run_spans_report(
                "test.cp_triple", 1, workers=1,
                payload=lambda start, stop: [1],
                collect=lambda _start, _stop, values: values,
                spans=[(0, 1)], checkpoint=str(tmp_path / "m.json"))

    def test_run_many_checkpoint_round_trip(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        messages = [bytes([i]) * 25 for i in range(10)]
        expected = [hashlib.sha3_256(m).digest() for m in messages]
        assert run_many(messages, workers=1, chunk_size=3,
                        checkpoint=path) == expected
        outcome = run_many_report(messages, workers=1, chunk_size=3,
                                  checkpoint=path)
        assert outcome.digests == expected
        assert outcome.stats.checkpoint_hits == 4

    @pytest.mark.skipif(not shm.HAVE_SHM,
                        reason="no multiprocessing.shared_memory")
    @pytest.mark.parametrize("first, second",
                             [("pickle", "shm"), ("shm", "pickle")])
    def test_manifest_resumes_across_transports(self, tmp_path, first,
                                                second):
        path = str(tmp_path / "manifest.json")
        messages = [bytes([n % 251]) * (13 + n % 89) for n in range(48)]
        expected = [hashlib.sha3_256(m).digest() for m in messages]
        written = run_many_report(messages, workers=2, engine="reference",
                                  transport=first, checkpoint=path)
        assert written.digests == expected
        with open(path) as handle:
            recorded = len(json.load(handle)["completed"])

        resumed = run_many_report(messages, workers=2, engine="reference",
                                  transport=second, checkpoint=path)
        assert resumed.digests == expected
        # Every span came from the manifest; none was hashed again.
        assert resumed.stats.checkpoint_hits == recorded
        assert resumed.stats.completed == recorded


class TestKillAndResume:
    COUNT, SIZE, SEED, CHUNK = 96, 48, 11, 8
    #: The SIGTERM test must signal while spans are still running.  At
    #: COUNT the batch finishes ~60 ms after the manifest shows two
    #: spans on a 2-vCPU VM, so a stall of the polling test on a busy
    #: host let the signal land after the run (exit -15); twenty times
    #: the spans leave about a second.
    TERM_COUNT = 20 * COUNT

    def _batch_argv(self, manifest, count=COUNT):
        return [sys.executable, "-m", "repro", "batch",
                "--count", str(count), "--size", str(self.SIZE),
                "--seed", str(self.SEED), "--chunk-size", str(self.CHUNK),
                "--workers", "2", "--verify", "--resume", manifest]

    def test_killed_batch_resumes_byte_identical(self, tmp_path):
        manifest = str(tmp_path / "batch.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.path.dirname(__file__),
                                       "..", "..", "src"),
                          env.get("PYTHONPATH", "")]))
        child = subprocess.Popen(self._batch_argv(manifest), env=env,
                                 stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL,
                                 start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            progressed = False
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    break  # finished before we could kill it
                try:
                    with open(manifest) as handle:
                        saved = json.load(handle)
                    if len(saved.get("completed", {})) >= 2:
                        progressed = True
                        break
                except (OSError, json.JSONDecodeError):
                    pass  # not written yet / mid-replace
                time.sleep(0.01)
            if progressed:
                os.killpg(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup path
                os.killpg(child.pid, signal.SIGKILL)
                child.wait(timeout=30)

        with open(manifest) as handle:
            saved = json.load(handle)
        completed_before_resume = len(saved["completed"])
        assert completed_before_resume >= 1

        # Resume in-process with the identical batch (same seed/shape →
        # same batch fingerprint as the CLI run).
        import random
        rng = random.Random(self.SEED)
        messages = [rng.randbytes(self.SIZE) for _ in range(self.COUNT)]
        outcome = run_many_report(messages, workers=2,
                                  chunk_size=self.CHUNK,
                                  checkpoint=manifest)
        assert outcome.ok
        assert outcome.stats.checkpoint_hits == completed_before_resume
        assert outcome.digests == [hashlib.sha3_256(m).digest()
                                   for m in messages]

    def test_sigterm_exits_130_and_leaves_resumable_manifest(
            self, tmp_path):
        # SIGTERM (systemd stop, ^C via the terminal) must not leave a
        # torn manifest or a traceback: exit 130, a one-line pointer at
        # --resume, and a manifest the next run can pick up.
        manifest = str(tmp_path / "batch.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.path.dirname(__file__),
                                       "..", "..", "src"),
                          env.get("PYTHONPATH", "")]))
        child = subprocess.Popen(self._batch_argv(manifest,
                                                  self.TERM_COUNT),
                                 env=env, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE, text=True,
                                 start_new_session=True)
        interrupted = False
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    break  # finished before the signal could land
                try:
                    with open(manifest) as handle:
                        saved = json.load(handle)
                    if len(saved.get("completed", {})) >= 2:
                        os.kill(child.pid, signal.SIGTERM)
                        interrupted = True
                        break
                except (OSError, json.JSONDecodeError):
                    pass
                time.sleep(0.01)
            _, stderr = child.communicate(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup path
                os.killpg(child.pid, signal.SIGKILL)
                child.wait(timeout=30)
        if not interrupted:  # pragma: no cover - tiny-machine fallback
            pytest.skip("batch finished before SIGTERM could land")

        assert child.returncode == 130
        assert "interrupted" in stderr
        assert "--resume" in stderr
        assert "Traceback" not in stderr

        with open(manifest) as handle:
            saved = json.load(handle)  # consistent, not torn
        completed_before_resume = len(saved["completed"])
        assert completed_before_resume >= 2

        import random
        rng = random.Random(self.SEED)
        messages = [rng.randbytes(self.SIZE)
                    for _ in range(self.TERM_COUNT)]
        outcome = run_many_report(messages, workers=2,
                                  chunk_size=self.CHUNK,
                                  checkpoint=manifest)
        assert outcome.ok
        assert outcome.stats.checkpoint_hits >= completed_before_resume
        assert outcome.digests == [hashlib.sha3_256(m).digest()
                                   for m in messages]
