"""Compiled-engine speedup guard: >= 2x over the predecoded engine.

The AOT code generator exists to make per-permutation wall-clock cheap:
one flat specialized function instead of a per-instruction dispatch
loop.  This module pins the claim against the predecoded engine on the
bench_table7 workloads (the three paper programs at their Table 7/8
EleNum=30 operating points):

* architectural equivalence first — the compiled run must match the
  predecoded run's states and cycle counters bit-for-bit (a
  deterministic guard that cannot flake);
* warm-cache per-permutation wall-clock must be at least
  ``SPEEDUP_FLOOR``x faster than predecoded, interleaved best-of-N so
  frequency drift hits both legs;
* both legs are recorded to ``BENCH_*codegen*.json`` via
  ``--bench-json`` so the perf trajectory across PRs is diffable.
"""

import time

import pytest

from repro.keccak import keccak_f1600
from repro.programs import build_program
from repro.programs.session import Session

from conftest import make_states

#: The acceptance floor: compiled must halve predecoded's
#: per-permutation wall-clock (measured: 5-9x, so 2x has headroom).
SPEEDUP_FLOOR = 2.0

#: (ELEN, LMUL, EleNum, SN) — the Table 7/8 EleNum=30 operating points.
CONFIGS = [
    (64, 1, 30, 6),
    (64, 8, 30, 6),
    (32, 8, 30, 6),
]

_IDS = [f"{elen}bit-lmul{lmul}" for elen, lmul, _, _ in CONFIGS]


def _legs(elen, lmul, elenum):
    program = build_program(elen, lmul, elenum)
    return program, Session(engine="predecoded"), Session(engine="compiled")


@pytest.mark.parametrize("elen,lmul,elenum,sn", CONFIGS, ids=_IDS)
def test_compiled_matches_predecoded_exactly(elen, lmul, elenum, sn):
    program, predecoded, compiled = _legs(elen, lmul, elenum)
    states = make_states(sn)
    a = predecoded.run(program, states)
    b = compiled.run(program, states)
    assert b.states == a.states
    assert b.states == [keccak_f1600(s) for s in states]
    assert b.stats.cycles == a.stats.cycles
    assert b.stats.instructions == a.stats.instructions
    assert b.stats.mnemonic_counts == a.stats.mnemonic_counts


@pytest.mark.parametrize("elen,lmul,elenum,sn", CONFIGS, ids=_IDS)
def test_compiled_speedup_over_predecoded(elen, lmul, elenum, sn):
    program, predecoded, compiled = _legs(elen, lmul, elenum)
    states = make_states(sn)
    # Warm both legs: predecode caches, and kernel caches for compiled.
    predecoded.run(program, states)
    compiled.run(program, states)

    def best_of(session, rounds):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            session.run(program, states)
            best = min(best, time.perf_counter() - start)
        return best

    def measure_speedup():
        # Interleave the legs in small groups so scheduler contention
        # and clock-frequency drift hit both sides equally.
        predecoded_best = float("inf")
        compiled_best = float("inf")
        for _ in range(4):
            predecoded_best = min(predecoded_best, best_of(predecoded, 2))
            compiled_best = min(compiled_best, best_of(compiled, 3))
        return predecoded_best / compiled_best

    # Measured headroom is ~3-4x the floor, so a failing session means a
    # real regression — but retry twice anyway so one noisy measurement
    # session cannot fail the build.
    speedups = []
    for _ in range(3):
        speedups.append(measure_speedup())
        if speedups[-1] >= SPEEDUP_FLOOR:
            break
    assert speedups[-1] >= SPEEDUP_FLOOR, (
        f"compiled engine consistently under {SPEEDUP_FLOOR}x vs "
        f"predecoded "
        f"in {len(speedups)} sessions: "
        + ", ".join(f"{s:.2f}x" for s in speedups)
    )


@pytest.mark.parametrize("leg", ["predecoded", "compiled"])
def test_bench_codegen(benchmark, leg):
    elen, lmul, elenum, sn = CONFIGS[1]  # the 64-bit LMUL=8 flagship
    program = build_program(elen, lmul, elenum)
    session = Session(engine=leg)
    states = make_states(sn)
    session.run(program, states)  # warm caches outside the timed region
    result = benchmark(lambda: session.run(program, states))
    assert result.states == [keccak_f1600(s) for s in states]
    benchmark.extra_info["cycles"] = result.stats.cycles
    benchmark.extra_info["engine"] = leg
