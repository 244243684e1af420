"""Tree-hashing speedup guard: SoA-batched leaves vs the sequential path.

The tree planner's reason to exist is that leaf chunks are independent
sponges, so a 64-leaf input can ride one SoA mega-batch kernel call per
permutation step instead of 64 sequential pure-Python sponge runs.
This module pins that claim on the acceptance workload — 64 leaf chunks
of 8 KiB (the K12 chunk size), hashed with the 12-round K12 leaf spec:

* digest equivalence first — sequential, batched and pooled leaf paths
  must produce bit-identical chaining values, and the end-to-end
  KangarooTwelve digest must not depend on the engine (deterministic,
  cannot flake);
* warm wall-clock for the 64-leaf batch must be at least
  ``SPEEDUP_FLOOR``x faster on the SoA engine than on the sequential
  reference path (the paper-level target is 4x and the measured ratio
  is far above it; the guard is set where scheduler noise cannot
  produce a false failure);
* both legs are recorded to ``BENCH_*treehash*.json`` via
  ``--bench-json`` so the perf trajectory across PRs is diffable.

The floor derates on a single hardware thread: the speedup is
engine-bound (64 lanes per kernel call, not threads), but a saturated
one-core machine timeslices the interpreter against the OS, so the
guard allows the extra jitter.
"""

import os
import time

import pytest

from repro.keccak.kangarootwelve import K12_CHUNK_BYTES, k12_pattern, \
    kangarootwelve
from repro.keccak.treehash import K12_LEAF, hash_leaves, plan_tree

try:
    EFFECTIVE_CORES = len(os.sched_getaffinity(0))
except AttributeError:  # pragma: no cover - no affinity API
    EFFECTIVE_CORES = os.cpu_count() or 1

#: CI guard for the batched-vs-sequential ratio (the observed warm
#: ratio is an order of magnitude higher; see the module docstring).
SPEEDUP_FLOOR = 2.0 if EFFECTIVE_CORES >= 2 else 1.5

#: The acceptance workload: 64 full leaf chunks.
LEAVES = [k12_pattern(K12_CHUNK_BYTES) for _ in range(64)]

#: A 64-leaf end-to-end K12 message (head chunk + 64 full leaves).
MESSAGE = k12_pattern(65 * K12_CHUNK_BYTES - 1)


def _sequential():
    return [K12_LEAF.reference_cv(leaf) for leaf in LEAVES]


def _batched():
    return hash_leaves(LEAVES, K12_LEAF, engine="soa")


def test_all_leaf_paths_bit_identical():
    expected = _sequential()
    assert _batched() == expected
    assert hash_leaves(LEAVES, K12_LEAF, engine="reference",
                       workers=2) == expected  # pooled


def test_k12_end_to_end_engine_independent():
    assert kangarootwelve(MESSAGE, 32) == \
        kangarootwelve(MESSAGE, 32, engine="reference")


def test_planner_picks_batched_soa_for_the_workload():
    plan = plan_tree(len(LEAVES))
    assert plan.mode == "batched"
    assert plan.engine == "soa"


def test_batched_speedup_over_sequential():
    _batched()  # warm the SoA kernel cache outside the timing

    def once(runner):
        start = time.perf_counter()
        runner()
        return time.perf_counter() - start

    # The sequential leg is ~20x slower (~0.4 s against ~20 ms on a
    # 2-vCPU x86 VM), so one round per session is plenty; retry whole
    # sessions so a noisy one cannot fail the build.
    speedups = []
    for _ in range(3):
        speedups.append(once(_sequential) / min(once(_batched),
                                                once(_batched)))
        if speedups[-1] >= SPEEDUP_FLOOR:
            break
    assert speedups[-1] >= SPEEDUP_FLOOR, (
        f"SoA-batched leaves consistently under {SPEEDUP_FLOOR}x vs the "
        f"sequential path in {len(speedups)} sessions: "
        + ", ".join(f"{s:.2f}x" for s in speedups)
    )


@pytest.mark.parametrize("mode", ["sequential", "batched"])
def test_bench_treehash(benchmark, mode):
    runner = _sequential if mode == "sequential" else _batched
    expected = _sequential()
    if mode == "batched":
        _batched()  # warm the kernel cache outside the timing

    cvs = benchmark.pedantic(runner, rounds=10, iterations=1)
    assert cvs == expected
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["leaves"] = len(LEAVES)
    benchmark.extra_info["leaf_bytes"] = K12_CHUNK_BYTES
    benchmark.extra_info["num_rounds"] = K12_LEAF.num_rounds


def test_bench_k12_tree_soa(benchmark):
    kangarootwelve(MESSAGE, 32)  # warm the kernel cache

    digest = benchmark.pedantic(lambda: kangarootwelve(MESSAGE, 32),
                                rounds=3, iterations=1)
    assert digest == kangarootwelve(MESSAGE, 32, engine="reference")
    benchmark.extra_info["message_mb"] = round(len(MESSAGE) / 1e6, 2)
    benchmark.extra_info["engine"] = "soa"
