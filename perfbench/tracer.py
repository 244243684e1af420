"""Span tracing around the public functions of each layer.

The benchmark does not edit the program: it wraps the functions each
layer exposes (module functions and class methods) for the length of a
traced call and restores them afterwards.  Every wrapped call records
one span ``(name, start, end, parent)`` in memory; spans are written out
only when the run ends.  A span's *self time* is its duration minus the
durations of its child spans, so the self times of all spans plus the
time outside any span add up to the traced wall time exactly.

Span names are the per-layer metric names they feed (for example
``batch_driver.sponge_self_s``), so aggregation is a sum by name.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, float, float, int]


class Tracer:
    """An in-memory span recorder with reversible function wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        #: Lists that ``observe`` callbacks append to, by topic.
        self.seen: Dict[str, list] = defaultdict(list)
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def wrap(self, owner: Any, attr: str, name: str, *,
             count: Optional[str] = None,
             rename: Optional[Tuple[Callable[[], Any], str]] = None,
             observe: Optional[Callable[..., None]] = None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr`` until :meth:`restore`.

        ``count`` names a counter bumped per call.  ``rename`` is
        ``(probe, other_name)``: when ``probe()`` reads differently
        after the call than before it, the span is filed under
        ``other_name`` instead (a kernel lookup that compiled).
        ``observe(result, *args, **kwargs)`` sees each call's result.
        """
        original = getattr(owner, attr)
        name_id = self._name_id(name)
        other_id = self._name_id(rename[1]) if rename else name_id
        probe = rename[0] if rename else None
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            before = probe() if probe is not None else None
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                ident = name_id
                if probe is not None and probe() != before:
                    ident = other_id
                spans[index] = (ident, started, ended, parent)
            if count is not None:
                counts[count] += 1
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        child: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        totals: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span is not None:
                totals[self.names[span[0]]] += \
                    (span[2] - span[1]) - child.get(index, 0.0)
        return dict(totals)

    def dump(self, path: str) -> None:
        """Write every span to ``path`` as JSON (names + tuples)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names,
                       "spans": [list(s) for s in self.spans
                                 if s is not None],
                       "counts": dict(self.counts)}, handle)
