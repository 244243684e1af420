"""The SoA mega-batch engine: bit-exact digests, caching, observability.

The ``soa`` engine is a *functional* fast path: N messages per generated
kernel call with the 25-lane Keccak state interleaved across packed
giant-int columns.  Its contract is digest equality — bit-identical to
the compiled/predecoded engines (and hashlib) on every program, batch
size and ragged tail — while all cycle metrics stay owned by the per-state
engines (an SoA result reports zero cycles, never a wrong pin).
"""

import hashlib

import pytest

from repro.keccak import KeccakState, keccak_f1600
from repro.keccak.permutation import keccak_p1600
from repro.observability import metrics
from repro.programs import build_program
from repro.programs.batch_driver import (
    BatchPermutation,
    batch_sha3_256,
    batch_shake128,
    run_many,
)
from repro.programs.session import Session
from repro.sim import codegen

#: The three paper programs: (ELEN, LMUL).
ARCHS = [(64, 1), (64, 8), (32, 8)]


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path, monkeypatch):
    """Every test gets an empty disk cache and an empty memory cache."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen"))
    codegen.clear_memory_cache()
    yield
    codegen.clear_memory_cache()


@pytest.fixture
def clean_metrics():
    metrics.disarm()
    metrics.registry().reset()
    yield metrics.registry()
    metrics.disarm()
    metrics.registry().reset()


class TestDifferentialMatrix:
    """SoA vs compiled vs predecoded digests across the full matrix."""

    @pytest.mark.parametrize("elen,lmul", ARCHS)
    @pytest.mark.parametrize("sn", (1, 3, 6))
    def test_soa_matches_compiled_and_predecoded(self, elen, lmul, sn,
                                                 random_states):
        program = build_program(elen, lmul, 5 * sn,
                                include_memory_io=True)
        states = random_states(sn)
        soa = Session(engine="soa").run(program, states)
        compiled = Session(engine="compiled").run(program, states)
        predecoded = Session(engine="predecoded").run(program, states)
        assert soa.states == compiled.states == predecoded.states
        assert soa.states == [keccak_f1600(s) for s in states]

    @pytest.mark.parametrize("elen,lmul", ARCHS)
    def test_memory_io_and_regfile_variants_agree(self, elen, lmul,
                                                  random_states):
        states = random_states(3)
        results = []
        for memory_io in (False, True):
            program = build_program(elen, lmul, 30,
                                    include_memory_io=memory_io)
            results.append(Session(engine="soa").run(program, states))
        assert results[0].states == results[1].states
        assert results[0].states == [keccak_f1600(s) for s in states]

    @pytest.mark.parametrize("batch", (1, 7, 64, 1000))
    def test_batch_sizes_match_compiled_and_hashlib(self, batch):
        messages = [bytes([n % 256]) * (11 + n % 67) for n in range(batch)]
        soa = run_many(messages, engine="soa")
        compiled = run_many(messages, engine="compiled")
        assert soa == compiled
        assert soa == [hashlib.sha3_256(m).digest() for m in messages]

    def test_ragged_final_lanes(self, random_states):
        # 45 states on 64-lane kernels: one full-width call would waste
        # 19 lanes, so the tail buckets down to a smaller size class —
        # and padded lanes must never leak into real results.
        program = build_program(64, 8, 30, include_memory_io=True)
        for count in (5, 45, 100):
            states = random_states(count)
            result = Session(engine="soa").run(program, states)
            assert result.states == [keccak_f1600(s) for s in states]

    @pytest.mark.parametrize("num_rounds", (1, 12))
    def test_reduced_round_programs(self, num_rounds, random_states):
        # Keccak-p[1600, nr] runs the LAST nr rounds; the SoA kernel is
        # keyed on (lanes, rounds) and must pick the same constants.
        program = build_program(64, 8, 30, include_memory_io=True,
                                num_rounds=num_rounds)
        states = random_states(4)
        soa = Session(engine="soa").run(program, states)
        compiled = Session(engine="compiled").run(program, states)
        assert soa.states == compiled.states
        assert soa.states == [keccak_p1600(s, num_rounds) for s in states]

    def test_shake_and_sha3_batch_api(self):
        messages = [bytes([n]) * (n + 1) for n in range(40)]
        assert batch_sha3_256(messages, engine="soa") == [
            hashlib.sha3_256(m).digest() for m in messages]
        assert batch_shake128(messages, 48, engine="soa") == [
            hashlib.shake_128(m).digest(48) for m in messages]

    def test_pool_workers_round_trip(self):
        messages = [bytes([n]) * 21 for n in range(48)]
        digests = run_many(messages, engine="soa", workers=2,
                           chunk_size=16)
        assert digests == [hashlib.sha3_256(m).digest() for m in messages]


class TestFunctionalSemantics:
    """What a functional engine does and does not promise."""

    def test_capacity_is_negotiated_by_the_engine(self, random_states):
        # program.max_states (6 here) does not bound a batching engine.
        program = build_program(64, 8, 30, include_memory_io=True)
        states = random_states(50)
        result = Session(engine="soa").run(program, states)
        assert result.states == [keccak_f1600(s) for s in states]

    def test_cycle_metrics_are_zero_not_wrong(self, random_state):
        program = build_program(64, 8, 5)
        result = Session(engine="soa").run(program, [random_state])
        assert result.permutation_cycles == 0
        assert result.cycles_per_round == 0.0
        assert result.stats.cycles == 0
        assert result.throughput_bits_per_cycle == 0.0  # no ZeroDivision

    def test_traced_run_cascades_to_cycle_accurate_engines(self,
                                                           random_state):
        # trace=True needs per-instruction records, which the SoA path
        # cannot produce: the run cascades down the fallback chain and
        # still lands on the paper's pinned cycle counts.
        program = build_program(64, 8, 5)
        result = Session(engine="soa").run(program, [random_state],
                                           trace=True)
        assert result.states == [keccak_f1600(random_state)]
        assert result.permutation_cycles == 1892
        assert result.cycles_per_round == 75.0

    def test_batch_permutation_width_is_the_engine_budget(self):
        perm = BatchPermutation(engine="soa")
        assert perm.max_states == codegen.soa_width()
        assert BatchPermutation(engine="auto").max_states == 6

    def test_soa_width_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOA_LANES", "16")
        assert codegen.soa_width() == 16
        assert BatchPermutation(engine="soa").max_states == 16
        monkeypatch.setenv("REPRO_SOA_LANES", "bogus")
        assert codegen.soa_width() == codegen.SOA_DEFAULT_LANES


class TestPacking:
    def test_pack_unpack_round_trip(self, random_states):
        states = random_states(7)
        cols = codegen.pack_states(states, 8)
        assert codegen.unpack_states(cols, 7) == states

    def test_pack_rejects_overflow(self, random_states):
        with pytest.raises(ValueError):
            codegen.pack_states(random_states(9), 8)

    def test_bucketing_is_power_of_two(self):
        assert [codegen.soa_bucket(n) for n in (0, 1, 2, 3, 7, 8, 9, 64)] \
            == [1, 1, 2, 4, 8, 8, 16, 64]

    def test_kernel_against_reference_permutation(self, random_states):
        states = random_states(3)
        cols = codegen.run_soa(codegen.pack_states(states, 3), 3,
                               num_rounds=24)
        out = codegen.unpack_states(cols, 3)
        assert out == [keccak_f1600(s) for s in states]

    def test_lanes_above_count_are_ignored_and_come_back_zero(
            self, random_states):
        states = random_states(5)
        cols = codegen.run_soa(codegen.pack_states(states, 5), 3)
        assert all(col >> (64 * 3) == 0 for col in cols)
        assert codegen.unpack_states(cols, 3) == \
            [keccak_f1600(s) for s in states[:3]]

    def test_count_beyond_the_lane_budget_rejected(self):
        with pytest.raises(ValueError, match="lanes"):
            codegen.run_soa([0] * 25, 5, lanes=4)


class TestCaching:
    def test_compile_then_memory_hit(self):
        before = dict(codegen.SOA_STATS)
        codegen.get_or_compile_soa(8)
        codegen.get_or_compile_soa(8)
        assert codegen.SOA_STATS["compiles"] == before["compiles"] + 1
        assert codegen.SOA_STATS["memory_hits"] \
            == before["memory_hits"] + 1

    def test_disk_warm_start(self):
        # warm_soa in a "parent", clear the in-process cache to emulate
        # a forked worker: the next lookup must load from disk.
        codegen.warm_soa(8)
        before = dict(codegen.SOA_STATS)
        codegen.clear_memory_cache()
        codegen.get_or_compile_soa(8)
        assert codegen.SOA_STATS["disk_hits"] == before["disk_hits"] + 1
        assert codegen.SOA_STATS["compiles"] == before["compiles"]

    def test_corrupted_disk_entry_recompiles(self):
        codegen.warm_soa(4)
        path = codegen._disk_path(codegen.soa_fingerprint(4, 24))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# garbage\n")
        codegen.clear_memory_cache()
        before = dict(codegen.SOA_STATS)
        kernel = codegen.get_or_compile_soa(4)
        assert kernel is not None
        assert codegen.SOA_STATS["compiles"] == before["compiles"] + 1

    def test_round_count_keys_the_cache(self):
        full = codegen.get_or_compile_soa(4, 24)
        reduced = codegen.get_or_compile_soa(4, 12)
        assert full is not reduced
        assert full.meta["rounds"] == 24
        assert reduced.meta["rounds"] == 12


class TestObservability:
    def test_armed_counters_record(self, clean_metrics, random_states):
        program = build_program(64, 8, 30, include_memory_io=True)
        states = random_states(5)
        metrics.arm()
        try:
            Session(engine="soa").run(program, states)
        finally:
            metrics.disarm()
        registry = clean_metrics
        calls = registry.get("sim_soa_kernel_calls_total")
        assert calls.value(lanes="8") == 1
        [series] = registry.get("sim_soa_lane_occupancy") \
            .snapshot()["series"]
        assert series["value"]["count"] == 1
        events = registry.get("sim_soa_codegen_total")
        assert events.value(event="compile") == 1
        assert registry.get("session_runs_total").value(
            program=program.name, geometry="64x30") == 1

    def test_armed_equals_disarmed_exactly(self, clean_metrics,
                                           random_states):
        program = build_program(64, 8, 30, include_memory_io=True)
        states = random_states(6)
        session = Session(engine="soa")
        disarmed = session.run(program, states)
        metrics.arm()
        try:
            armed = session.run(program, states)
        finally:
            metrics.disarm()
        assert armed.states == disarmed.states

    def test_traced_fallback_is_metered(self, clean_metrics,
                                        random_state):
        program = build_program(64, 8, 5)
        metrics.arm()
        try:
            Session(engine="soa").run(program, [random_state],
                                      trace=True)
        finally:
            metrics.disarm()
        fallbacks = clean_metrics.get("sim_functional_fallbacks_total")
        assert fallbacks.value(engine="soa", reason="traced") == 1

    def test_disarmed_records_nothing(self, clean_metrics,
                                      random_states):
        program = build_program(64, 8, 30, include_memory_io=True)
        Session(engine="soa").run(program, random_states(3))
        snap = clean_metrics.snapshot()
        assert all(not family["series"] for family in snap.values())
