"""Fault-instrumentation overhead guard: an unarmed injector is free.

The injector instruments by wrapping decoded entries; ``disarm``
restores the original executors, so after an arm/disarm cycle the
predecoded hot loop runs exactly the code it ran before — no hook
check, no wrapper frames.  This module pins that claim three ways, on
a processor pinned to the predecoded engine (the engine the injector
instruments):

* cycle counts after arm/disarm are *identical* to a pristine run (a
  deterministic guard that cannot flake);
* wall-clock overhead of the predecoded path after arm/disarm stays
  under 3% (interleaved best-of-N so frequency drift hits both legs);
* both legs are recorded to ``BENCH_*faulthooks*.json`` via
  ``--bench-json`` so the trajectory across PRs is diffable.
"""

import time

import pytest

from repro.keccak import keccak_f1600
from repro.programs import keccak64_lmul8, layout
from repro.resilience import FaultInjector, FaultSpec
from repro.sim import SIMDProcessor

from conftest import make_states

PROGRAM = keccak64_lmul8.build(5)
ASSEMBLED = PROGRAM.assemble()
[STATE] = make_states(1)
EXPECTED = keccak_f1600(STATE)

#: Wall-clock guard threshold: predecoded-path overhead with hooks
#: disarmed must stay under 3%.
OVERHEAD_LIMIT = 0.03


def _processor():
    proc = SIMDProcessor(elen=PROGRAM.elen, elenum=PROGRAM.elenum,
                         engine="predecoded")
    proc.load_program(ASSEMBLED)
    return proc


def _arm_disarm(proc):
    """One arm/disarm cycle: what a self-checked deployment pays once."""
    with FaultInjector(proc) as injector:
        injector.arm(FaultSpec("raise",
                               pc=ASSEMBLED.symbols["round_body"]))
    # Context exit disarmed the fault and restored the original
    # executors.


def _permute(proc):
    proc.reset(trace=False)
    layout.load_states_regfile64(proc.vector.regfile, [STATE])
    proc.run()
    return layout.read_states_regfile64(proc.vector.regfile, 1)[0]


def test_arm_disarm_leaves_cycles_identical():
    pristine = _processor()
    assert _permute(pristine) == EXPECTED
    baseline_cycles = pristine.stats.cycles

    restored = _processor()
    _arm_disarm(restored)
    assert _permute(restored) == EXPECTED
    assert restored.stats.cycles == baseline_cycles
    assert restored.stats.instructions == pristine.stats.instructions


def test_predecoded_overhead_after_disarm_under_3pct():
    pristine = _processor()
    restored = _processor()
    _arm_disarm(restored)
    # Warm-up: fill the caches of both processors.
    assert _permute(pristine) == EXPECTED
    assert _permute(restored) == EXPECTED

    def best_of(proc, rounds):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            _permute(proc)
            best = min(best, time.perf_counter() - start)
        return best

    def measure_overhead():
        # Interleave the legs in small groups so scheduler contention
        # and clock-frequency drift hit both sides; the min over all
        # groups approximates each leg's true floor.
        base_best = float("inf")
        restored_best = float("inf")
        for _ in range(8):
            base_best = min(base_best, best_of(pristine, 3))
            restored_best = min(restored_best, best_of(restored, 3))
        return restored_best / base_best - 1.0

    # The two legs execute identical code objects (disarm restored the
    # original executors, verified cycle-exact above), so any measured
    # difference is machine noise — but the guard must still catch a
    # real regression.  A systematic >3% overhead fails every session;
    # noise does not, so retry up to three measurement sessions.
    overheads = []
    for _ in range(3):
        overheads.append(measure_overhead())
        if overheads[-1] < OVERHEAD_LIMIT:
            break
    assert overheads[-1] < OVERHEAD_LIMIT, (
        f"predecoded path consistently slower after arm/disarm in "
        f"{len(overheads)} sessions: "
        + ", ".join(f"{o:+.1%}" for o in overheads)
        + f" (limit {OVERHEAD_LIMIT:.0%})"
    )


@pytest.mark.parametrize("leg", ["pristine", "after_disarm"])
def test_bench_faulthooks(benchmark, leg):
    proc = _processor()
    if leg == "after_disarm":
        _arm_disarm(proc)
    _permute(proc)  # warm caches outside the timed region
    out = benchmark(lambda: _permute(proc))
    assert out == EXPECTED
    benchmark.extra_info["cycles"] = proc.stats.cycles
    benchmark.extra_info["leg"] = leg
