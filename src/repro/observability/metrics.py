"""A dependency-free metrics registry: counters, gauges, histograms.

The simulator's performance story (Tables 7/8 cycles, the engine
speedups, the pool's recovery behaviour) was previously observable only
through ad-hoc module counters (``codegen.COMPILE_STATS``) and the
scheduler's :class:`~repro.parallel_exec.hardening.PoolStats`.  This
module gives every layer one shared vocabulary — the same
counter/gauge/histogram trio coreblocks wires through its pipeline via
``transactron.lib.metrics`` — without pulling in a client library:

* :class:`Counter` — monotonically increasing totals (runs per engine,
  cache hits, retries).
* :class:`Gauge` — last/maximum observed value (serve queue depth,
  live shm segments).
* :class:`Histogram` — fixed-bucket distributions (compile seconds,
  chunk latency, serve batch sizes).

Every metric is a *family* of labeled series: ``SIM_RUNS.inc(engine=
"predecoded")`` and ``SIM_RUNS.inc(engine="compiled")`` are two series of one
counter.  Families are created once at import time by the modules they
instrument; creation is idempotent (get-or-create by name), so several
modules can share a family.

Arming rule — near-zero disarmed overhead
-----------------------------------------

Instrumentation follows the same wrap-on-arm discipline as the fault
injector (:mod:`repro.resilience.inject`): with metrics *disarmed* (the
default) every instrumented site pays exactly one module-attribute load
and branch (``if metrics.ARMED:``), placed only at *coarse* boundaries —
per run, per compile, per pool chunk — never inside the per-instruction
hot loops.  Arming flips one flag; nothing is wrapped, re-decoded or
re-compiled, so simulated cycle counts are bit-identical armed or
disarmed (metrics observe the simulation, they never touch architectural
state).  ``benchmarks/bench_metrics.py`` guards both properties.

Snapshots
---------

:meth:`MetricsRegistry.snapshot` returns a plain-dict, JSON/pickle-able
view; :meth:`MetricsRegistry.merge` folds another snapshot in using
commutative per-type rules (counters and histograms add, gauges take the
maximum), so parent processes can merge forked workers' snapshots in any
arrival order and still get a deterministic result.  :func:`delta`
subtracts two snapshots, giving the activity between them.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "ARMED",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "arm",
    "armed",
    "delta",
    "disarm",
    "registry",
    "render_prometheus",
    "render_snapshot",
]

#: Default histogram buckets for durations in seconds (upper bounds; an
#: implicit +Inf bucket catches the tail).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)

#: Buckets for small integer counts (batch sizes and the like).
COUNT_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 512)


def _label_key(labelnames: Tuple[str, ...], labels: Dict[str, object]
               ) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Metric:
    """Common family machinery: name, labels, series table."""

    kind = "metric"

    def __init__(self, name: str, help: str,
                 labelnames: Iterable[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._series: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _zero(self):
        return 0

    def _slot(self, labels: Dict[str, object]):
        key = _label_key(self.labelnames, labels)
        series = self._series
        if key not in series:
            with self._lock:
                series.setdefault(key, self._zero())
        return key

    def clear(self) -> None:
        with self._lock:
            self._series.clear()

    # -- snapshot support ---------------------------------------------------------

    def _series_value(self, value) -> object:
        return value

    def snapshot(self) -> dict:
        with self._lock:
            series = [
                {"labels": dict(zip(self.labelnames, key)),
                 "value": self._series_value(value)}
                for key, value in sorted(self._series.items())
            ]
        return {
            "type": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "series": series,
        }


class Counter(_Metric):
    """A monotonically increasing labeled counter."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up: {amount}")
        key = self._slot(labels)
        with self._lock:
            self._series[key] += amount

    def value(self, **labels) -> float:
        return self._series.get(_label_key(self.labelnames, labels), 0)


class Gauge(_Metric):
    """A labeled gauge: remembers the last value set (merge takes max)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._slot(labels)
        with self._lock:
            self._series[key] = value

    def value(self, **labels) -> float:
        return self._series.get(_label_key(self.labelnames, labels), 0)


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, num_buckets: int) -> None:
        self.counts = [0] * (num_buckets + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """A fixed-bucket labeled histogram of observed values."""

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 labelnames: Iterable[str] = (),
                 buckets: Tuple[float, ...] = LATENCY_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"buckets must be sorted and non-empty: "
                             f"{buckets}")
        super().__init__(name, help, labelnames)
        self.buckets: Tuple[float, ...] = tuple(buckets)

    def _zero(self):
        return _HistogramSeries(len(self.buckets))

    def observe(self, value: float, **labels) -> None:
        key = self._slot(labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            series: _HistogramSeries = self._series[key]  # type: ignore
            series.counts[index] += 1
            series.sum += value
            series.count += 1

    def _series_value(self, value) -> object:
        return {"counts": list(value.counts), "sum": value.sum,
                "count": value.count}

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["buckets"] = list(self.buckets)
        return snap


class MetricsRegistry:
    """Holds metric families by name; the snapshot/merge/reset surface."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, labelnames,
                       **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) \
                        or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{existing.labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labelnames: Iterable[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Iterable[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: Tuple[float, ...] = LATENCY_BUCKETS
                  ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def reset(self) -> None:
        """Zero every series, keeping the families (and references to
        them) valid — what a forked worker does before its first task."""
        for metric in self._metrics.values():
            metric.clear()

    def snapshot(self) -> dict:
        """A plain-dict (JSON/pickle-able) view of every series."""
        return {name: metric.snapshot()
                for name, metric in sorted(self._metrics.items())}

    def merge(self, snapshot: dict) -> None:
        """Fold ``snapshot`` (from :meth:`snapshot`, possibly another
        process's) into this registry.

        Merge rules are commutative per type — counters and histogram
        buckets add, gauges keep the maximum — so merging N worker
        snapshots yields the same totals in any arrival order.
        """
        for name, data in snapshot.items():
            kind = data.get("type")
            labelnames = tuple(data.get("labelnames", ()))
            if kind == "counter":
                metric = self.counter(name, data.get("help", ""),
                                      labelnames)
                for entry in data["series"]:
                    value = entry["value"]
                    if value:
                        metric.inc(value, **entry["labels"])
            elif kind == "gauge":
                metric = self.gauge(name, data.get("help", ""), labelnames)
                for entry in data["series"]:
                    current = metric.value(**entry["labels"])
                    metric.set(max(current, entry["value"]),
                               **entry["labels"])
            elif kind == "histogram":
                metric = self.histogram(name, data.get("help", ""),
                                        labelnames,
                                        buckets=tuple(data["buckets"]))
                if tuple(data["buckets"]) != metric.buckets:
                    raise ValueError(
                        f"histogram {name!r} bucket mismatch on merge")
                for entry in data["series"]:
                    key = metric._slot(entry["labels"])
                    value = entry["value"]
                    with metric._lock:
                        series: _HistogramSeries = \
                            metric._series[key]  # type: ignore
                        for i, c in enumerate(value["counts"]):
                            series.counts[i] += c
                        series.sum += value["sum"]
                        series.count += value["count"]
            else:
                raise ValueError(f"unknown metric type in snapshot: "
                                 f"{kind!r} ({name})")


def delta(before: dict, after: dict) -> dict:
    """The activity between two snapshots of the same registry.

    Counters and histograms subtract (series missing from ``before``
    count from zero); gauges take the ``after`` value.  Series whose
    delta is zero are dropped, so the result shows only what happened.
    """
    out: dict = {}
    for name, data in after.items():
        base = before.get(name, {})
        base_series = {
            tuple(sorted(e["labels"].items())): e["value"]
            for e in base.get("series", [])
        }
        kind = data["type"]
        series = []
        for entry in data["series"]:
            key = tuple(sorted(entry["labels"].items()))
            value = entry["value"]
            if kind == "counter":
                changed = value - base_series.get(key, 0)
                if changed:
                    series.append({"labels": entry["labels"],
                                   "value": changed})
            elif kind == "gauge":
                series.append({"labels": entry["labels"], "value": value})
            else:  # histogram
                prev = base_series.get(key)
                if prev is None:
                    prev = {"counts": [0] * len(value["counts"]),
                            "sum": 0.0, "count": 0}
                counts = [c - p for c, p in zip(value["counts"],
                                                prev["counts"])]
                count = value["count"] - prev["count"]
                if count:
                    series.append({
                        "labels": entry["labels"],
                        "value": {"counts": counts,
                                  "sum": value["sum"] - prev["sum"],
                                  "count": count},
                    })
        if series:
            slim = dict(data)
            slim["series"] = series
            out[name] = slim
    return out


def render_snapshot(snapshot: dict) -> str:
    """A compact human-readable report of a snapshot (``repro profile``)."""
    lines: List[str] = []
    for name, data in sorted(snapshot.items()):
        kind = data["type"]
        if not data["series"]:
            continue
        lines.append(f"{name} ({kind})")
        for entry in data["series"]:
            labels = entry["labels"]
            label_text = ", ".join(f"{k}={v}" for k, v in
                                   sorted(labels.items())) or "-"
            value = entry["value"]
            if kind == "histogram":
                count = value["count"]
                mean = value["sum"] / count if count else 0.0
                lines.append(f"  {label_text:40s} count={count:<8d} "
                             f"sum={value['sum']:.6g} mean={mean:.6g}")
            elif isinstance(value, float):
                lines.append(f"  {label_text:40s} {value:.6g}")
            else:
                lines.append(f"  {label_text:40s} {value}")
    return "\n".join(lines) if lines else "(no metrics recorded)"


def _prom_escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _prom_labels(labels: Dict[str, object], extra: str = "") -> str:
    parts = [f'{k}="{_prom_escape(str(v))}"'
             for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _prom_number(value) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_prometheus(snapshot: dict) -> str:
    """A snapshot in the Prometheus text exposition format (v0.0.4).

    Counters and gauges render one sample per labeled series;
    histograms render the standard cumulative ``_bucket`` samples
    (including ``+Inf``) plus ``_sum`` and ``_count``, so any
    Prometheus scraper can compute quantiles from the daemon's
    ``/metrics`` endpoint without a client library on our side.
    """
    lines: List[str] = []
    for name, data in sorted(snapshot.items()):
        if not data["series"]:
            continue
        kind = data["type"]
        if data.get("help"):
            lines.append(f"# HELP {name} {data['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for entry in data["series"]:
            labels = entry["labels"]
            value = entry["value"]
            if kind != "histogram":
                lines.append(
                    f"{name}{_prom_labels(labels)} {_prom_number(value)}")
                continue
            cumulative = 0
            bounds = [_prom_number(b) for b in data["buckets"]] + ["+Inf"]
            for bound, count in zip(bounds, value["counts"]):
                cumulative += count
                le = 'le="' + bound + '"'
                lines.append(f"{name}_bucket{_prom_labels(labels, le)} "
                             f"{cumulative}")
            lines.append(f"{name}_sum{_prom_labels(labels)} "
                         f"{_prom_number(value['sum'])}")
            lines.append(f"{name}_count{_prom_labels(labels)} "
                         f"{cumulative}")
    return "\n".join(lines) + "\n" if lines else ""


# -- the process-wide registry and arming flag ----------------------------------

_REGISTRY = MetricsRegistry()

#: The arming flag instrumented sites check (one attribute load + branch
#: per coarse event when disarmed).  Flip via :func:`arm`/:func:`disarm`.
ARMED = False


def registry() -> MetricsRegistry:
    """The process-wide registry (workers inherit a copy on fork)."""
    return _REGISTRY


def arm() -> None:
    """Start recording: instrumented sites begin feeding the registry."""
    global ARMED
    ARMED = True


def disarm() -> None:
    """Stop recording; already-collected series stay readable."""
    global ARMED
    ARMED = False


def armed() -> bool:
    return ARMED
