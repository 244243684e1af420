"""The metrics registry: families, labels, snapshot/merge/delta."""

import pickle

import pytest

from repro.observability.metrics import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    delta,
    render_prometheus,
    render_snapshot,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        runs = registry.counter("runs", "total runs", ("engine",))
        runs.inc(engine="predecoded")
        runs.inc(2, engine="predecoded")
        runs.inc(engine="compiled")
        assert runs.value(engine="predecoded") == 3
        assert runs.value(engine="compiled") == 1
        assert runs.value(engine="stepped") == 0

    def test_rejects_negative(self, registry):
        runs = registry.counter("runs")
        with pytest.raises(ValueError):
            runs.inc(-1)

    def test_rejects_wrong_labels(self, registry):
        runs = registry.counter("runs", "", ("engine",))
        with pytest.raises(ValueError):
            runs.inc(program="x")
        with pytest.raises(ValueError):
            runs.inc()  # missing the engine label


class TestGauge:
    def test_set_remembers_last(self, registry):
        g = registry.gauge("occupancy")
        g.set(0.5)
        g.set(0.25)
        assert g.value() == 0.25


class TestHistogram:
    def test_bucketing(self, registry):
        h = registry.histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()
        [series] = snap["series"]
        assert series["value"]["counts"] == [1, 1, 1, 1]  # incl. +Inf
        assert series["value"]["count"] == 4
        assert series["value"]["sum"] == pytest.approx(5.555)

    def test_boundary_lands_in_its_bucket(self, registry):
        # bisect_left: an observation equal to an upper bound counts in
        # that bucket (Prometheus "le" semantics).
        h = registry.histogram("lat", buckets=(1.0, 2.0))
        h.observe(1.0)
        [series] = h.snapshot()["series"]
        assert series["value"]["counts"] == [1, 0, 0]

    def test_rejects_unsorted_buckets(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(2.0, 1.0))

    def test_count_buckets_cover_batch_sizes(self):
        assert COUNT_BUCKETS[0] == 1 and COUNT_BUCKETS[-1] >= 256


class TestRegistry:
    def test_get_or_create_is_idempotent(self, registry):
        a = registry.counter("runs", "help", ("engine",))
        b = registry.counter("runs", "help", ("engine",))
        assert a is b

    def test_type_mismatch_raises(self, registry):
        registry.counter("runs")
        with pytest.raises(ValueError):
            registry.gauge("runs")

    def test_label_mismatch_raises(self, registry):
        registry.counter("runs", "", ("engine",))
        with pytest.raises(ValueError):
            registry.counter("runs", "", ("program",))

    def test_reset_keeps_family_references_valid(self, registry):
        runs = registry.counter("runs", "", ("engine",))
        runs.inc(engine="predecoded")
        registry.reset()
        assert runs.value(engine="predecoded") == 0
        runs.inc(engine="predecoded")  # the old reference still records
        assert registry.get("runs").value(engine="predecoded") == 1

    def test_snapshot_is_plain_data(self, registry):
        registry.counter("runs", "", ("engine",)).inc(engine="predecoded")
        registry.histogram("lat").observe(0.2)
        registry.gauge("g").set(7)
        snap = registry.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap
        assert snap["runs"]["series"] == [
            {"labels": {"engine": "predecoded"}, "value": 1}
        ]


class TestMerge:
    def _worker_snapshot(self, inc_by):
        worker = MetricsRegistry()
        worker.counter("runs", "", ("engine",)).inc(
            inc_by, engine="predecoded")
        worker.gauge("peak").set(inc_by)
        h = worker.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(inc_by)
        return worker.snapshot()

    def test_merge_is_commutative(self):
        snaps = [self._worker_snapshot(n) for n in (1, 2, 3)]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for snap in snaps:
            forward.merge(snap)
        for snap in reversed(snaps):
            backward.merge(snap)
        assert forward.snapshot() == backward.snapshot()
        assert forward.get("runs").value(engine="predecoded") == 6
        assert forward.get("peak").value() == 3  # gauges take the max
        [series] = forward.get("lat").snapshot()["series"]
        assert series["value"]["count"] == 6

    def test_merge_into_populated_registry_adds(self):
        parent = MetricsRegistry()
        parent.counter("runs", "", ("engine",)).inc(5, engine="predecoded")
        parent.merge(self._worker_snapshot(2))
        assert parent.get("runs").value(engine="predecoded") == 7

    def test_merge_bucket_mismatch_raises(self):
        parent = MetricsRegistry()
        parent.histogram("lat", buckets=(0.5,)).observe(0.1)
        with pytest.raises(ValueError):
            parent.merge(self._worker_snapshot(1))

    def test_merge_unknown_type_raises(self):
        with pytest.raises(ValueError):
            MetricsRegistry().merge(
                {"x": {"type": "summary", "series": []}})


class TestDelta:
    def test_counter_and_histogram_delta(self, registry):
        c = registry.counter("runs", "", ("engine",))
        h = registry.histogram("lat", buckets=(1.0,))
        c.inc(2, engine="predecoded")
        h.observe(0.5)
        before = registry.snapshot()
        c.inc(3, engine="predecoded")
        c.inc(engine="compiled")
        h.observe(2.0)
        after = registry.snapshot()
        d = delta(before, after)
        values = {tuple(e["labels"].items()): e["value"]
                  for e in d["runs"]["series"]}
        assert values[(("engine", "predecoded"),)] == 3
        assert values[(("engine", "compiled"),)] == 1
        [series] = d["lat"]["series"]
        assert series["value"]["counts"] == [0, 1]
        assert series["value"]["count"] == 1

    def test_unchanged_series_are_dropped(self, registry):
        c = registry.counter("runs")
        c.inc()
        snap = registry.snapshot()
        assert delta(snap, snap) == {}


def test_render_snapshot_mentions_series():
    registry = MetricsRegistry()
    registry.counter("runs", "", ("engine",)).inc(4, engine="predecoded")
    registry.histogram("lat").observe(0.25)
    text = render_snapshot(registry.snapshot())
    assert "runs" in text and "engine=predecoded" in text and "4" in text
    assert "count=1" in text
    assert render_snapshot(MetricsRegistry().snapshot()) \
        == "(no metrics recorded)"


class TestRenderPrometheus:
    def test_counter_and_gauge_samples(self, registry):
        registry.counter("runs_total", "total runs",
                         ("engine",)).inc(4, engine="predecoded")
        registry.gauge("depth", "queue depth").set(3)
        text = render_prometheus(registry.snapshot())
        assert "# HELP runs_total total runs" in text
        assert "# TYPE runs_total counter" in text
        assert 'runs_total{engine="predecoded"} 4' in text
        assert "# TYPE depth gauge" in text
        assert "depth 3" in text.splitlines()

    def test_histogram_buckets_are_cumulative(self, registry):
        h = registry.histogram("lat", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = render_prometheus(registry.snapshot())
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 5.55" in text
        assert "lat_count 3" in text

    def test_label_values_are_escaped(self, registry):
        registry.counter("c", "", ("path",)).inc(path='a"b\\c\nd')
        text = render_prometheus(registry.snapshot())
        assert r'c{path="a\"b\\c\nd"} 1' in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry().snapshot()) == ""

    def test_every_sample_line_parses(self, registry):
        import re
        registry.counter("runs_total", "", ("engine",)).inc(engine="x")
        registry.histogram("lat", "l").observe(0.2)
        registry.gauge("g", "g").set(1.5)
        sample = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
                            r"(\{[^{}]*\})? \S+$")
        for line in render_prometheus(registry.snapshot()).splitlines():
            if line and not line.startswith("#"):
                assert sample.match(line), line


class TestServeFamilies:
    """The serving daemon's families obey the registry merge rules —
    what makes worker-side serve metrics safe to fold into the parent."""

    def _serve_snapshot(self, ok, depth, latency):
        worker = MetricsRegistry()
        worker.counter("serve_requests_total", "", ("outcome",)).inc(
            ok, outcome="ok")
        worker.gauge("serve_queue_depth", "").set(depth)
        worker.histogram("serve_request_latency_seconds", "",
                         ("algorithm",),
                         buckets=(0.01, 0.1, 1.0)).observe(
            latency, algorithm="sha3_256")
        return worker.snapshot()

    def test_outcome_counts_add_and_depth_takes_max(self):
        parent = MetricsRegistry()
        parent.merge(self._serve_snapshot(3, 5, 0.05))
        parent.merge(self._serve_snapshot(2, 1, 0.5))
        assert parent.get("serve_requests_total").value(outcome="ok") == 5
        assert parent.get("serve_queue_depth").value() == 5  # max, not sum
        [series] = parent.get(
            "serve_request_latency_seconds").snapshot()["series"]
        assert series["value"]["count"] == 2
        assert series["value"]["counts"] == [0, 1, 1, 0]

    def test_merged_serve_snapshot_still_renders(self):
        parent = MetricsRegistry()
        parent.merge(self._serve_snapshot(1, 2, 0.02))
        text = render_prometheus(parent.snapshot())
        assert 'serve_requests_total{outcome="ok"} 1' in text
        assert 'serve_request_latency_seconds_bucket' \
            '{algorithm="sha3_256",le="+Inf"} 1' in text


def test_families_are_typed():
    registry = MetricsRegistry()
    assert isinstance(registry.counter("a"), Counter)
    assert isinstance(registry.gauge("b"), Gauge)
    assert isinstance(registry.histogram("c"), Histogram)
