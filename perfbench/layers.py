"""Which public functions of which layer the traced pass wraps, the
per-layer metric catalogue, and the always-on path watch.

The layers are named after the repository's modules:
``programs.batch_driver``, ``programs.session``, ``sim.codegen``,
``keccak.treehash``, ``parallel_exec``, ``serve``, the cycle-accurate
``sim`` engines and ``eval.explore``.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

from tracer import Tracer

#: Every per-layer metric: (name, unit).  Times and counts are per
#: iteration of the workload's traced pass (per request on serve_open).
#: A workload that does not reach a layer reports 0 for it.
PER_LAYER: List[Tuple[str, str]] = [
    # accounting of the traced pass itself
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unexplained_s", "s"),
    ("trace.unexplained_frac", "ratio"),
    ("trace.spans", "count"),
    # programs.batch_driver
    ("batch_driver.sponge_self_s", "s"),
    ("batch_driver.driver_self_s", "s"),
    ("batch_driver.permute_calls", "count"),
    # programs.session
    ("session.run_self_s", "s"),
    ("session.runs", "count"),
    # sim.codegen
    ("codegen.pack_s", "s"),
    ("codegen.unpack_s", "s"),
    ("codegen.kernel_s", "s"),
    ("codegen.lookup_s", "s"),
    ("codegen.compile_s", "s"),
    ("codegen.compiles", "count"),
    ("codegen.kernel_calls", "count"),
    ("codegen.lane_occupancy", "ratio"),
    # keccak.treehash
    ("treehash.plan_s", "s"),
    ("treehash.hash_leaves_s", "s"),
    ("treehash.root_s", "s"),
    ("treehash.leaves", "count"),
    ("treehash.batched_leaf_frac", "ratio"),
    # parallel_exec
    ("parallel_exec.plan_s", "s"),
    ("parallel_exec.pack_s", "s"),
    ("parallel_exec.run_spans_s", "s"),
    ("parallel_exec.collect_s", "s"),
    ("parallel_exec.chunks_s", "s"),
    ("parallel_exec.spans", "count"),
    ("parallel_exec.steals", "count"),
    ("parallel_exec.retries", "count"),
    # serve (daemon /metrics plus client-side timing)
    ("serve.server_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.pool_task_ms", "ms"),
    ("serve.rejected_429", "count"),
    ("serve.rejected_504", "count"),
    ("serve.errors_500", "count"),
    ("serve.connection_errors", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    # cycle-accurate sim engines and eval.explore
    ("sim.engine_s", "s"),
    ("session.run_ms.keccak64_lmul1.e5", "ms"),
    ("session.run_ms.keccak64_lmul1.e30", "ms"),
    ("session.run_ms.keccak64_lmul8.e5", "ms"),
    ("session.run_ms.keccak64_lmul8.e30", "ms"),
    ("session.run_ms.keccak32_lmul8.e5", "ms"),
    ("session.run_ms.keccak32_lmul8.e30", "ms"),
    ("sim.instructions.keccak64_lmul1", "count"),
    ("sim.instructions.keccak64_lmul8", "count"),
    ("sim.instructions.keccak32_lmul8", "count"),
    ("sim.cycles.keccak64_lmul1", "count"),
    ("sim.cycles.keccak64_lmul8", "count"),
    ("sim.cycles.keccak32_lmul8", "count"),
    ("explore.point_ms", "ms"),
    ("explore.self_s", "s"),
    ("sim.traced_runs.fused", "count"),
    ("sim.traced_runs.predecoded", "count"),
    ("sim.traced_runs.stepped", "count"),
    # raw headline rates and latencies of the untraced pass
    ("digests_per_s", "1/s"),
    ("input_mb_per_s", "MB/s"),
    ("serve_rps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("sim_kinstr_per_s", "kinstr/s"),
    ("explore_points_per_s", "1/s"),
]

#: The raw figures above, printed on untraced runs too.
HEADLINE = ["digests_per_s", "input_mb_per_s", "serve_rps", "p50_ms",
            "p99_ms", "sim_kinstr_per_s", "explore_points_per_s"]

#: Spans whose self time is a per-layer metric of the same name.
SELF_TIME_METRICS = [name for name, unit in PER_LAYER
                     if unit == "s" and not name.startswith("trace.")]


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points until ``tracer.restore``.

    The leaf planner's choices land in ``tracer.seen["plans"]`` as
    ``(mode, leaves)``.
    """
    bd = importlib.import_module("repro.programs.batch_driver")
    session = importlib.import_module("repro.programs.session")
    codegen = importlib.import_module("repro.sim.codegen")
    processor = importlib.import_module("repro.sim.processor")
    treehash = importlib.import_module("repro.keccak.treehash")
    k12 = importlib.import_module("repro.keccak.kangarootwelve")
    shm = importlib.import_module("repro.parallel_exec.shm")
    explore = importlib.import_module("repro.eval.explore")

    def on_plan(plan, num_leaves, **_kwargs) -> None:
        tracer.seen["plans"].append((plan.mode, num_leaves))
        tracer.counts["treehash.leaves"] += num_leaves
        if plan.mode != "sequential":
            tracer.counts["treehash.batched_leaves"] += num_leaves

    def soa_compiles() -> int:
        return codegen.SOA_STATS["compiles"]

    def program_compiles() -> int:
        return codegen.COMPILE_STATS["compiles"]

    wrap = tracer.wrap
    # programs.batch_driver
    for name in ("run_many", "run_many_report", "hash_messages"):
        wrap(bd, name, "batch_driver.driver_self_s")
    wrap(bd.BatchPermutation, "__call__", "batch_driver.driver_self_s",
         count="batch_driver.permute_calls")
    wrap(bd.BatchSponge, "absorb", "batch_driver.sponge_self_s")
    wrap(bd.BatchSponge, "squeeze", "batch_driver.sponge_self_s")
    # parallel_exec, as the batch driver calls it
    wrap(bd, "run_chunks", "parallel_exec.chunks_s")
    wrap(bd, "plan_spans", "parallel_exec.plan_s")
    wrap(bd, "run_spans_report", "parallel_exec.run_spans_s")
    wrap(shm.ShmArena, "pack", "parallel_exec.pack_s")
    wrap(shm.ShmArena, "read_digests", "parallel_exec.collect_s")
    # programs.session and the processor engines below it
    wrap(session.Session, "run", "session.run_self_s",
         count="session.runs")
    wrap(processor.SIMDProcessor, "run", "sim.engine_s")
    # sim.codegen
    wrap(codegen, "run_soa", "codegen.kernel_s")
    wrap(codegen, "pack_states", "codegen.pack_s")
    wrap(codegen, "unpack_states", "codegen.unpack_s")
    wrap(codegen, "get_or_compile_soa", "codegen.lookup_s",
         rename=(soa_compiles, "codegen.compile_s"))
    wrap(codegen, "get_or_compile", "codegen.lookup_s",
         rename=(program_compiles, "codegen.compile_s"))
    # keccak.treehash: the tree calls, the leaf planner and leaf hashing
    wrap(k12, "kangarootwelve", "treehash.root_s")
    wrap(treehash, "parallelhash256", "treehash.root_s")
    wrap(treehash, "hash_leaves", "treehash.hash_leaves_s")
    wrap(treehash, "plan_tree", "treehash.plan_s", observe=on_plan)
    # eval.explore
    wrap(explore, "measure_point", "explore.self_s")


class PathWatch:
    """Always-on record of the path a run took.

    Wraps only functions called once per batch (the transport choice)
    or never on the declared path (a functional engine falling back),
    so it costs nothing measurable in untraced runs.
    """

    def __init__(self) -> None:
        self.transports: List[str] = []
        self.fallbacks: List[Tuple[str, str]] = []
        self._tracer = Tracer()

    def __enter__(self) -> "PathWatch":
        shm = importlib.import_module("repro.parallel_exec.shm")
        engines = importlib.import_module("repro.sim.engines")
        self._tracer.wrap(
            shm, "choose_transport", "path.transport",
            observe=lambda mode, *_a, **_k: self.transports.append(mode))
        self._tracer.wrap(
            engines, "note_functional_fallback", "path.fallback",
            observe=lambda _r, spec, reason: self.fallbacks.append(
                (spec.name, reason)))
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.restore()


def summarize(tracer: Tracer, wall: float, untraced_wall: float,
              iterations: int) -> Dict[str, float]:
    """Per-iteration layer metrics of one traced pass.

    ``wall`` is the traced pass's wall time and ``untraced_wall`` that
    of the same work untraced; their difference is the tracing
    overhead.  The self times of all spans plus the unexplained
    remainder add up to ``wall``.
    """
    per = 1.0 / max(1, iterations)
    selfs = tracer.self_times()
    metrics = {name: selfs.get(name, 0.0) * per
               for name in SELF_TIME_METRICS}
    explained = sum(selfs.values())
    metrics["trace.wall_s"] = wall * per
    metrics["trace.untraced_wall_s"] = untraced_wall * per
    metrics["trace.overhead_s"] = (wall - untraced_wall) * per
    metrics["trace.overhead_frac"] = \
        (wall - untraced_wall) / untraced_wall if untraced_wall else 0.0
    metrics["trace.unexplained_s"] = (wall - explained) * per
    metrics["trace.unexplained_frac"] = \
        (wall - explained) / wall if wall else 0.0
    metrics["trace.spans"] = len(tracer.spans) * per
    counts = tracer.counts
    metrics["batch_driver.permute_calls"] = \
        counts["batch_driver.permute_calls"] * per
    metrics["session.runs"] = counts["session.runs"] * per
    metrics["treehash.leaves"] = counts["treehash.leaves"] * per
    metrics["treehash.batched_leaf_frac"] = (
        counts["treehash.batched_leaves"] / counts["treehash.leaves"]
        if counts["treehash.leaves"] else 0.0)
    return metrics


def layer_table(metrics: Dict[str, float]) -> List[str]:
    """Lines giving each layer's self time as a share of the wall."""
    wall = metrics.get("trace.wall_s", 0.0)
    lines = ["  self time per iteration, by layer:"]
    for name in SELF_TIME_METRICS + ["trace.unexplained_s"]:
        value = metrics.get(name, 0.0)
        if value:
            share = value / wall if wall else 0.0
            lines.append(f"    {name:<32} {value * 1e3:10.3f} ms "
                         f"{share:7.1%}")
    lines.append(f"    {'trace.wall_s':<32} {wall * 1e3:10.3f} ms")
    lines.append(
        f"    tracing overhead {metrics['trace.overhead_s'] * 1e3:.3f} ms "
        f"per iteration ({metrics['trace.overhead_frac']:+.1%} of the "
        "untraced wall time on the same seed)")
    return lines
