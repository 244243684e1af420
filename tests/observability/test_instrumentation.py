"""End-to-end instrumentation: counters record, cycles never move.

The arming rule under test (see ``repro.observability.metrics``): armed
metrics observe the simulation without touching it — every paper cycle
pin must be bit-identical armed or disarmed — and worker registries merge
deterministically into the parent after a pool run.
"""

import hashlib

import pytest

import repro
from repro.keccak import keccak_f1600
from repro.observability import metrics
from repro.programs import Session, build_program


@pytest.fixture(autouse=True)
def _clean_registry():
    metrics.disarm()
    metrics.registry().reset()
    yield
    metrics.disarm()
    metrics.registry().reset()


@pytest.fixture
def armed():
    metrics.arm()
    yield metrics.registry()
    metrics.disarm()


#: (ELEN, LMUL) -> (cycles/round, permutation cycles) — paper Tables 5-8.
PIN_TABLE = {
    (64, 1): (103.0, 2564),
    (64, 8): (75.0, 1892),
    (32, 8): (147.0, 3620),
}


class TestArmedPins:
    @pytest.mark.parametrize("elen,lmul", sorted(PIN_TABLE))
    def test_paper_pins_hold_while_armed(self, elen, lmul, random_state,
                                         armed):
        program = build_program(elen, lmul, 5)
        result = Session().run(program, [random_state], trace=True)
        cpr, perm = PIN_TABLE[(elen, lmul)]
        assert result.cycles_per_round == cpr
        assert result.permutation_cycles == perm
        assert result.states == [keccak_f1600(random_state)]

    @pytest.mark.parametrize("elen,lmul", sorted(PIN_TABLE))
    def test_armed_equals_disarmed_exactly(self, elen, lmul, random_state):
        program = build_program(elen, lmul, 5)
        session = Session()
        for trace in (False, True):
            disarmed = session.run(program, [random_state], trace=trace)
            metrics.arm()
            try:
                armed = session.run(program, [random_state], trace=trace)
            finally:
                metrics.disarm()
            assert armed.states == disarmed.states
            assert armed.stats.cycles == disarmed.stats.cycles
            assert armed.stats.instructions == disarmed.stats.instructions
            assert armed.permutation_cycles == disarmed.permutation_cycles


class TestSimCounters:
    def test_session_runs_and_engine_are_recorded(self, armed):
        program = build_program(64, 8, 5)
        session = Session()
        session.run(program, [])
        session.run(program, [])
        assert armed.get("session_runs_total").value(
            program=program.name, geometry="64x5") == 2
        engines = armed.get("sim_runs_total").snapshot()["series"]
        assert sum(e["value"] for e in engines) == 2

    def test_predecode_cache_hit_and_miss(self, armed):
        program = build_program(64, 8, 5)
        session = Session()
        cache = armed.get("sim_predecode_cache_total")
        session.run(program, [])  # fresh processor: predecode miss
        assert cache.value(event="miss") == 1
        assert cache.value(event="hit") == 0
        session.run(program, [])  # same assembled program: hit
        assert cache.value(event="hit") == 1
        assert cache.value(event="miss") == 1
        [series] = armed.get("sim_predecode_seconds").snapshot()["series"]
        assert series["value"]["count"] == 1  # only the miss was timed

    def test_traced_run_records_compiled_fallback(self, armed):
        program = build_program(64, 8, 5)
        Session(engine="compiled").run(program, [], trace=True)
        fallbacks = armed.get("sim_compiled_fallbacks_total")
        assert fallbacks.value(reason="traced") == 1
        assert armed.get("sim_runs_total").value(engine="compiled") == 0

    def test_codegen_events_are_mirrored(self, armed):
        from repro.sim.codegen import COMPILE_STATS

        before = dict(COMPILE_STATS)
        program = build_program(64, 8, 30)  # the compilable batch shape
        Session(engine="compiled").run(program, [])
        events = armed.get("sim_codegen_total")
        total = sum(e["value"]
                    for e in events.snapshot()["series"])
        mirrored = sum(COMPILE_STATS[k] - before.get(k, 0)
                       for k in COMPILE_STATS)
        assert total == mirrored > 0


class TestWorkerMerge:
    def test_pool_run_merges_worker_snapshots(self, armed):
        messages = [bytes([n]) * 17 for n in range(12)]
        digests = repro.run_many(messages, workers=2, chunk_size=3)
        assert digests == [hashlib.sha3_256(m).digest() for m in messages]

        # Parent-side pool accounting.
        events = armed.get("pool_events_total")
        assert events.value(event="chunks") == 4
        assert events.value(event="completed") == 4
        latency = armed.get("pool_chunk_latency_seconds")
        total = sum(s["value"]["count"]
                    for s in latency.snapshot()["series"])
        assert total == 4

        # Worker-side metrics arrived via snapshot merge: every chunk's
        # Session.run landed in the parent registry even though it ran
        # in a forked process, and per-worker series stay separate.
        runs = armed.get("session_runs_total").snapshot()["series"]
        assert sum(s["value"] for s in runs) >= 4
        task_seconds = armed.get("pool_worker_task_seconds")
        workers = {s["labels"]["worker"]
                   for s in task_seconds.snapshot()["series"]}
        assert workers  # at least one worker reported
        assert all(w in ("0", "1", 0, 1) for w in workers)

    def test_disarmed_pool_run_records_nothing(self):
        messages = [bytes([n]) * 9 for n in range(4)]
        repro.run_many(messages, workers=2, chunk_size=2)
        snap = metrics.registry().snapshot()
        assert all(not family["series"] for family in snap.values()), [
            name for name, family in snap.items() if family["series"]]
