"""Checkpoint/resume for span-scheduled runs (JSON manifest on disk).

A killed batch run (OOM, preemption, ^C) should not redo finished work.
The scheduler records each completed span as a ``"start:stop"`` key; a
rerun over the *same* batch loads the manifest, pre-fills the finished
item ranges and only dispatches the rest — producing byte-identical,
order-preserving results.  The manifest does not depend on the
transport or on how the run cut its spans, so a run interrupted on one
transport resumes on the other.

Safety properties:

* **Atomic writes** — the manifest is rewritten to a temp file and
  ``os.replace``-d into place, so a kill mid-write leaves the previous
  consistent manifest, never a torn one.
* **Fingerprinted inputs** — the caller fingerprints the whole batch
  once (for hashing: algorithm, geometry and every message byte); a
  resume whose fingerprint or item count differs starts fresh instead
  of silently splicing stale results into a different batch.
* **Typed values** — per-item results are ``bytes`` (digests), lists
  of them, or JSON-native values; each element is tagged on disk
  (``{"b": hex}``, ``{"l": [...]}`` or ``{"j": value}``) so round-trips
  are exact.

The manifest is written by the parent process only — workers never see
it — so there is no write concurrency to manage.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

#: Bumped on any incompatible manifest change.  Version 1 was the
#: retired chunk-keyed format (one fingerprint per fixed chunk).
MANIFEST_VERSION = 2

_FORMATS = {1: "chunk-keyed", 2: "span-keyed"}


class ManifestVersionError(ValueError):
    """The on-disk manifest has an incompatible format version.

    Distinct from a fingerprint mismatch (different *inputs*, safely
    restarted from scratch): a version mismatch means the manifest was
    written by an incompatible build — such as a chunk-keyed version 1
    manifest — and silently discarding it would throw away real
    completed work.  Surfaces to the CLI as a one-line exit-2
    diagnostic.
    """


def _encode_values(values: List[Any]) -> List[Dict[str, Any]]:
    encoded = []
    for value in values:
        if isinstance(value, bytes):
            encoded.append({"b": value.hex()})
        elif isinstance(value, list):
            encoded.append({"l": _encode_values(value)})
        else:
            encoded.append({"j": value})
    return encoded


def _decode_values(entries: List[Dict[str, Any]]) -> List[Any]:
    values: List[Any] = []
    for entry in entries:
        if "b" in entry:
            values.append(bytes.fromhex(entry["b"]))
        elif "l" in entry:
            values.append(_decode_values(entry["l"]))
        else:
            values.append(entry["j"])
    return values


class SpanCheckpoint:
    """One run's resumable manifest at ``path``, keyed by item ranges."""

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._manifest: Optional[Dict[str, Any]] = None

    def _check_version(self, existing: Optional[Dict[str, Any]]) -> None:
        if existing is None:
            return
        version = existing.get("version")
        if isinstance(version, int) and version != MANIFEST_VERSION:
            found = _FORMATS.get(version, f"unknown (version {version})")
            raise ManifestVersionError(
                f"checkpoint manifest {self.path} is "
                f"{found} format version {version}, but this run needs "
                f"version {MANIFEST_VERSION} — finish it with the build "
                f"that created it, or remove the file to start over")

    def begin(self, fingerprint: str,
              total: int) -> List[Tuple[int, int, List[Any]]]:
        """Open (or create) the manifest for one batch of ``total`` items.

        Returns every recorded span as ``(start, stop, values)`` when the
        on-disk manifest matches ``fingerprint`` and ``total``; otherwise
        the manifest is reset and the list is empty.  A manifest from an
        *incompatible format version* raises
        :class:`ManifestVersionError` instead of silently discarding
        completed work.
        """
        existing = self._read()
        self._check_version(existing)
        if (existing is not None
                and existing.get("version") == MANIFEST_VERSION
                and existing.get("fingerprint") == fingerprint
                and existing.get("total") == total):
            self._manifest = existing
            completed = []
            for key, values in existing.get("completed", {}).items():
                start, stop = (int(part) for part in key.split(":"))
                if 0 <= start <= stop <= total:
                    completed.append((start, stop, _decode_values(values)))
            return completed
        self._manifest = {
            "version": MANIFEST_VERSION,
            "fingerprint": fingerprint,
            "total": total,
            "completed": {},
        }
        self._write()
        return []

    def record(self, start: int, stop: int, values: List[Any]) -> None:
        """Persist one finished span (atomic rewrite)."""
        if self._manifest is None:
            raise RuntimeError("record() before begin()")
        self._manifest["completed"][f"{start}:{stop}"] = \
            _encode_values(values)
        self._write()

    @property
    def completed_count(self) -> int:
        if self._manifest is None:
            return 0
        return len(self._manifest["completed"])

    def _read(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.path) as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return manifest if isinstance(manifest, dict) else None

    def _write(self) -> None:
        tmp = f"{self.path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self._manifest, handle, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
