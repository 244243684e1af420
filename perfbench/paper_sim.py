"""``paper_sim``: the paper's three programs on the cycle-accurate engines.

Each iteration makes ``ROUNDS`` rounds of untraced one-permutation
``Session.run`` calls of the three paper programs (64-bit LMUL=1,
64-bit LMUL=8, 32-bit LMUL=8) at EleNum 5 and 30 on the default engine,
then one traced ``eval.explore.measure_point`` sweep over a fixed grid:
default timing, two register banks and dual issue for each program.
The permuted states are checked against ``keccak_f1600``; the
default-timing points must reproduce the paper's 2564/1892/3620
permutation cycles and 103/75/147 cycles per round exactly.  No sponge,
pool or daemon is involved.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from typing import Dict, List, Tuple

import common
from common import Context, Outcome

VARIANTS = ((64, 1), (64, 8), (32, 8))
ELENUMS = (5, 30)
#: Session rounds (one run of each of the six programs) per iteration.
ROUNDS = 10
#: Paper pins: (ELEN, LMUL) -> (permutation cycles, cycles per round).
PINS = {(64, 1): (2564, 103.0), (64, 8): (1892, 75.0),
        (32, 8): (3620, 147.0)}
ENGINES = ("fused", "predecoded", "stepped")


def _programs():
    from repro.programs.factory import build_program

    return [build_program(elen, lmul, elenum)
            for elen, lmul in VARIANTS for elenum in ELENUMS]


def _grid():
    from repro.eval.explore import ExplorePoint

    points = []
    for elen, lmul in VARIANTS:
        for banks, issue in ((1, 1), (2, 1), (1, 2)):
            points.append(ExplorePoint(elen=elen, lmul=lmul, elenum=5,
                                       num_states=1, register_banks=banks,
                                       issue_width=issue))
    return points


def warm() -> None:
    """Set-up: build and compile the six programs, warm the sweep's
    per-timing-model sessions."""
    from repro.eval.explore import measure_point
    from repro.programs.session import Session

    session = Session()
    for program in _programs():
        session.run(program, [])
    for point in _grid():
        measure_point(point)


def _label(program) -> str:
    return f"{program.name}.e{program.elenum}"


def run(ctx: Context) -> Outcome:
    from repro.eval import explore
    from repro.keccak.permutation import keccak_f1600
    from repro.keccak.state import KeccakState
    from repro.observability import metrics as obs
    from repro.programs.session import Session
    from repro.sim import codegen

    import layers
    import tracer as tracing

    out = Outcome()
    setup = common.probe_setup(ctx)
    rng = random.Random(ctx.seed)
    programs = _programs()
    states = [[KeccakState([rng.getrandbits(64) for _ in range(25)])
               for _ in range(p.max_states)] for p in programs]
    expected = [[keccak_f1600(s) for s in group] for group in states]
    grid = _grid()
    session = Session()
    warm()
    for program, group in zip(programs, states):
        session.run(program, group)

    run_times: Dict[str, List[float]] = {_label(p): [] for p in programs}
    counts: Dict[str, Tuple[int, int]] = {}
    round_times: List[float] = []
    point_times: List[float] = []
    tracing_now = [False]
    # Untraced iterations pair each round and each design point with a
    # hashlib probe right after it: the iteration's hashlib time is its
    # permutation count times the probes' time per permutation.
    paired: List[Tuple[float, float]] = []
    round_permutations = sum(p.max_states for p in programs)

    def step(k: int):
        results = []
        ours = theirs = 0.0
        for _ in range(ROUNDS):
            round_started = time.perf_counter()
            for program, group in zip(programs, states):
                started = time.perf_counter()
                result = session.run(program, group)
                if not tracing_now[0]:
                    run_times[_label(program)].append(
                        time.perf_counter() - started)
                results.append(result)
            if not tracing_now[0]:
                round_times.append(time.perf_counter() - round_started)
                ours += round_times[-1]
                theirs += round_permutations * _probe()
        points = []
        for point in grid:
            started = time.perf_counter()
            points.append((point, explore.measure_point(point)))
            if not tracing_now[0]:
                point_times.append(time.perf_counter() - started)
                ours += point_times[-1]
                theirs += _probe()  # one permutation per point
        if not tracing_now[0]:
            paired.append((ours, theirs))
        return results, points

    def check(k: int, outcome) -> None:
        results, points = outcome
        for i, result in enumerate(results):
            j = i % len(programs)
            program = programs[j]
            out.check(result.states == expected[j],
                      f"{_label(program)} states, iteration {k}")
            seen = (result.stats.instructions, result.stats.cycles)
            out.check(counts.setdefault(program.name, seen) == seen,
                      f"{program.name} counts {seen} differ from "
                      f"{counts[program.name]}")
        for point, result in points:
            got = (result.permutation_cycles, result.cycles_per_round)
            pinned = point.is_default_timing
            out.check(not pinned or got == PINS[(point.elen, point.lmul)],
                      f"pin {point.label}: {got}, paper "
                      f"{PINS[(point.elen, point.lmul)]}")

    stats0 = dict(codegen.COMPILE_STATS)
    tracer = tracing.Tracer()
    runs_metric = obs.registry().counter("sim_runs_total", "", ("engine",))
    engine_runs0 = {e: runs_metric.value(engine=e) for e in ENGINES}

    def trace_on() -> None:
        # Metrics are armed too: the processor counts which engine ran.
        tracing_now[0] = True
        layers.install(tracer)
        obs.arm()

    def trace_off() -> None:
        obs.disarm()
        tracer.restore()
        tracing_now[0] = False

    if ctx.trace:
        times, traced = common.run_traced(ctx.budget(0.5), step, check,
                                          trace_on, trace_off)
    else:
        times, _ = common.run_for(ctx.seconds, step, check)
    iterations = len(times)
    delta = {key: codegen.COMPILE_STATS[key] - stats0[key]
             for key in stats0}
    session_runs = len(programs) * ROUNDS * iterations \
        * (2 if ctx.trace else 1)
    out.check(delta["memory_hits"] >= session_runs and
              not delta["bailouts"] and not delta["compiles"],
              f"path: compiled-kernel lookups {delta}, declared a compiled "
              f"run for each of {session_runs} untraced Session.run calls")

    session_wall = sum(round_times)
    instructions = sum(counts[p.name][0] for p in programs) \
        * ROUNDS * iterations
    m = out.metrics
    m["setup_s"] = common.median(setup)
    m["peak_rss_mb"] = common.peak_rss_mb()
    m["p50_ms"] = common.median(round_times) * 1e3
    m["p99_ms"] = common.quantile(round_times, 0.99) * 1e3
    m["sim_kinstr_per_s"] = instructions / session_wall / 1e3
    m["explore_points_per_s"] = len(point_times) / sum(point_times)
    out.notes.append(
        f"  {iterations} iterations of {ROUNDS} rounds of "
        f"{len(programs)} Session.run calls plus {len(grid)} traced "
        f"design points; set-up samples {common.fmt_list(setup)} s")
    if not ctx.trace:
        m["hashlib_x"] = common.ratio([t for t, _ in paired],
                                      [r for _, r in paired])
        return out

    tracer.dump(os.path.join(ctx.run_dir, "spans.json"))
    m.update(layers.summarize(tracer, sum(traced), sum(times), iterations))
    for label, values in run_times.items():
        m[f"session.run_ms.{label}"] = common.median(values) * 1e3
    for name, (instr, cycles) in counts.items():
        m[f"sim.instructions.{name}"] = instr
        m[f"sim.cycles.{name}"] = cycles
    m["explore.point_ms"] = common.median(point_times) * 1e3
    engine_runs = {e: runs_metric.value(engine=e) - engine_runs0[e]
                   for e in ENGINES}
    for engine, value in engine_runs.items():
        m[f"sim.traced_runs.{engine}"] = value / iterations
    out.notes.append(f"  traced engine: "
                     f"{max(engine_runs, key=engine_runs.get)} "
                     f"(runs by engine {engine_runs})")
    out.notes.extend(layers.layer_table(m))
    return out


#: The hashlib probe: SHA3-256 over a message of PROBE_PERMUTATIONS rate
#: blocks less one byte, which costs exactly that many Keccak-f[1600].
PROBE_PERMUTATIONS = 32
_PROBE = bytes(PROBE_PERMUTATIONS * 136 - 1)


def _probe() -> float:
    """hashlib's time per Keccak-f[1600] now (fastest of three)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        hashlib.sha3_256(_PROBE).digest()
        best = min(best, time.perf_counter() - started)
    return best / PROBE_PERMUTATIONS
