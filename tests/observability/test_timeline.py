"""Chrome trace_event timelines: format, lanes, export, arming."""

import json

import pytest

from repro.observability import timeline


@pytest.fixture(autouse=True)
def _no_active_timeline():
    timeline.stop()
    yield
    timeline.stop()


def test_complete_event_format():
    tl = timeline.Timeline()
    tl.complete("run", start=0.001, duration=0.002, tid=3,
                args={"engine": "predecoded"})
    [event] = tl.events
    assert event["ph"] == "X"
    assert event["name"] == "run"
    assert event["ts"] == pytest.approx(1000.0)   # µs
    assert event["dur"] == pytest.approx(2000.0)
    assert event["tid"] == 3
    assert event["args"] == {"engine": "predecoded"}


def test_instant_and_lane_labels():
    tl = timeline.Timeline()
    tl.label_lane(1, "worker 0")
    tl.instant("quarantine", tid=1)
    meta, instant = tl.events
    assert meta["ph"] == "M" and meta["args"] == {"name": "worker 0"}
    assert instant["ph"] == "i" and instant["tid"] == 1


def test_now_is_monotonic_from_origin():
    tl = timeline.Timeline()
    a = tl.now()
    b = tl.now()
    assert 0 <= a <= b


def test_export_round_trips(tmp_path):
    tl = timeline.Timeline()
    tl.complete("span", 0.0, 0.5)
    path = tl.export(str(tmp_path / "trace.json"))
    with open(path) as handle:
        data = json.load(handle)
    assert data["displayTimeUnit"] == "ms"
    assert data["traceEvents"] == tl.events


def test_start_stop_toggle_active():
    assert timeline.active() is None
    tl = timeline.start()
    assert timeline.active() is tl
    # The session lane is pre-labeled.
    assert tl.events[0]["ph"] == "M"
    assert tl.events[0]["tid"] == timeline.MAIN_LANE
    stopped = timeline.stop()
    assert stopped is tl
    assert timeline.active() is None
    assert timeline.stop() is None  # idempotent


def test_session_run_records_span():
    from repro.programs import Session, build_program

    session = Session()
    program = build_program(64, 8, 5)
    tl = timeline.start()
    session.run(program)
    timeline.stop()
    spans = [e for e in tl.events if e["ph"] == "X"]
    assert len(spans) == 1
    assert spans[0]["name"] == program.name
    assert spans[0]["tid"] == timeline.MAIN_LANE
    assert spans[0]["dur"] > 0
    assert spans[0]["args"]["geometry"] == "64x5"


def test_no_events_recorded_without_active_timeline():
    from repro.programs import Session, build_program

    tl = timeline.Timeline()  # constructed but never started
    Session().run(build_program(64, 8, 5))
    assert tl.events == []
