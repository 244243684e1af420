"""Shared plumbing of the benchmark: the run context, statistics, set-up
probes and the result record every workload returns."""

from __future__ import annotations

import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The benchmark's own directory and the checkout root above it.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Everything a run writes (kernel caches, span dumps, daemon logs).
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_SAMPLES = 5

#: Processors the workloads are sized for: pool workers and requests
#: in flight never exceed this.
NPROC = 2


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing program, bad arguments)."""


@dataclass
class Context:
    """One invocation: its seed, time budget and private directories."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    run_dir: str

    def budget(self, share: float) -> float:
        """``share`` of the run's measuring time, in seconds."""
        return self.seconds * share

    def fresh_cache(self, tag: str) -> str:
        """A new, empty kernel-cache directory inside this run."""
        return tempfile.mkdtemp(prefix=f"{tag}-", dir=self.run_dir)


@dataclass
class Outcome:
    """What a workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Human-readable lines printed above the JSON result.
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        """Count ``count`` checked outputs; note and fail them unless ok.

        Path checks go through here too: a run that took another path
        than its workload declares measured a different program, so it
        fails even when every digest is right.
        """
        self.attempted += count
        if not ok:
            self.failed += count
            self.notes.append(f"FAILED: {what}")


def new_context(workload: str, seed: int, seconds: float,
                trace: bool) -> Context:
    """Create the run's private directory and an empty kernel cache.

    Every run compiles its kernels from an empty cache of its own: the
    on-disk fingerprints key on the generator version and shape, not on
    the generator's source, so a cache shared between two commits could
    serve one commit's kernels to the other.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(
        prefix=f"{workload}-s{seed}-t{int(trace)}-", dir=OUT_DIR)
    cache_dir = os.path.join(run_dir, "codegen-cache")
    os.makedirs(cache_dir)
    os.environ["REPRO_CODEGEN_CACHE"] = cache_dir
    os.environ.pop("REPRO_SOA_LANES", None)
    os.environ["PYTHONPATH"] = SRC
    return Context(workload, seed, seconds, trace, run_dir)


def cleanup(ctx: Context) -> None:
    """Remove the run's kernel caches; keep span dumps and logs."""
    for name in os.listdir(ctx.run_dir):
        path = os.path.join(ctx.run_dir, name)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)


# -- child processes ------------------------------------------------------------


#: ``prctl`` option that makes orphaned descendants our children.
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the subreaper of everything it starts.

    A grandchild whose parent exits first (the resource tracker of a
    stopped daemon, say) is then re-parented here rather than to init,
    so :func:`stop_children` can still stop and reap it.  Linux only; a
    no-op elsewhere.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    """Process ids whose parent is this process (zombies included)."""
    me = str(os.getpid())
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if len(fields) > 1 and fields[1] == me:
            pids.append(int(entry))
    return pids


def stop_children(grace: float = 5.0) -> None:
    """Stop every process this run started and wait until each ended.

    Shared-memory segments are unlinked and the multiprocessing resource
    tracker -- started by the first segment and otherwise left to exit
    on its own after this process -- is stopped and waited for.  Any
    other child still alive gets SIGTERM, then SIGKILL once ``grace``
    seconds have passed; every one is reaped.
    """
    shm = sys.modules.get("repro.parallel_exec.shm")
    if shm is not None:
        shm.close_all()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    deadline = time.monotonic() + grace
    while True:
        pids = _children()
        if not pids:
            return
        sig = signal.SIGTERM if time.monotonic() < deadline \
            else signal.SIGKILL
        for pid in pids:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.02)


# -- statistics -----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (the smallest sample with rank >= q*n)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


#: A hashlib reference is repeated at least this often and for at least
#: this long; its time is the fastest repeat.
REFERENCE_REPEATS = 3
REFERENCE_SECONDS = 0.005


def run_for(seconds: float, step: Callable[[int], Any],
            check: Callable[[int, Any], None],
            reference: Optional[Callable[[int], Any]] = None
            ) -> Tuple[List[float], List[float]]:
    """Call ``step(k)`` for k = 0, 1, ... until ``seconds`` have passed.

    Returns the wall time of each call and, when ``reference`` is given,
    the time of ``reference(k)`` -- hashlib doing the same work -- as
    the mean of one measurement right before and one right after the
    call (see :func:`reference_time`).  The machine's speed drifts by tens of
    percent over seconds, so only a reference timed beside each call
    makes a ratio that stays put.  ``check(k, result)`` verifies each
    result outside the timing.
    """
    times: List[float] = []
    refs: List[float] = []
    deadline = time.perf_counter() + seconds
    k = 0
    while not times or time.perf_counter() < deadline:
        if reference is not None:
            before = reference_time(lambda: reference(k))
        started = time.perf_counter()
        result = step(k)
        times.append(time.perf_counter() - started)
        if reference is not None:
            refs.append((before + reference_time(lambda: reference(k))) / 2)
        check(k, result)
        k += 1
    return times, refs


def run_traced(seconds: float, step: Callable[[int], Any],
               check: Callable[[int, Any], None],
               trace_on: Callable[[], None], trace_off: Callable[[], None],
               count: Optional[int] = None
               ) -> Tuple[List[float], List[float]]:
    """Time each ``step(k)`` twice, untraced and then traced.

    ``trace_on``/``trace_off`` install and remove the tracing around the
    second call.  Alternating call by call exposes both passes to the
    same drift in the machine's speed, so their difference is the
    tracing overhead.  Runs until ``seconds`` have passed (or ``count``
    pairs); returns the untraced and the traced times.
    """
    untraced: List[float] = []
    traced: List[float] = []
    deadline = time.perf_counter() + seconds
    k = 0
    while (k < count) if count is not None else \
            (not traced or time.perf_counter() < deadline):
        for times in (untraced, traced):
            if times is traced:
                trace_on()
            try:
                started = time.perf_counter()
                result = step(k)
                times.append(time.perf_counter() - started)
            finally:
                if times is traced:
                    trace_off()
            check(k, result)
        k += 1
    return untraced, traced


def reference_time(fn: Callable[[], Any]) -> float:
    """The fastest of at least :data:`REFERENCE_REPEATS` calls of ``fn``
    spanning at least :data:`REFERENCE_SECONDS`."""
    samples: List[float] = []
    while len(samples) < REFERENCE_REPEATS or \
            sum(samples) < REFERENCE_SECONDS:
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return min(samples)


def ratio(times: Sequence[float], refs: Sequence[float],
          kinds: Optional[Sequence[Any]] = None) -> float:
    """Our time over hashlib's, from paired samples.

    Each kind of unit (``kinds[i]``, default all alike) gets the median
    of its paired ratios times[i] / refs[i]; kinds are weighted by
    their median reference time, so the result reads as our total time
    over hashlib's for one unit of each kind.
    """
    kinds = kinds if kinds is not None else [0] * len(times)
    groups: Dict[Any, List[Tuple[float, float]]] = {}
    for kind, t, r in zip(kinds, times, refs):
        groups.setdefault(kind, []).append((t, r))
    ours = theirs = 0.0
    for pairs in groups.values():
        ref = median([r for _, r in pairs])
        ours += median([t / r for t, r in pairs]) * ref
        theirs += ref
    return ours / theirs


# -- set-up ---------------------------------------------------------------------


#: A fixed job of the kind set-up does -- compile generated Python
#: source, then run it -- timed in a fresh interpreter from launch to
#: done, beside the set-up probes.  It depends on nothing in the repo.
REFERENCE_JOB = r"""
import sys, time
source = "\n".join(
    f"def f{i}(a, b={i % 7}):\n"
    f"    x = [j * a + b for j in range({i % 50 + 10})]\n"
    f"    return sum({{k: k ^ b for k in x}}.values())\n"
    for i in range(1000))
namespace = {}
exec(compile(source, "reference", "exec"), namespace)
total = sum(namespace[f"f{i}"](i) for i in range(1000) for _ in range(4))
print("ready", time.time() - float(sys.argv[1]), total)
"""
#: The reference job's time on the machine ``setup_s`` is expressed for.
NOMINAL_REFERENCE_S = 0.3


def _launch_to_ready(argv: List[str], env: Dict[str, str]) -> float:
    """Run ``argv`` with the launch time appended; return the seconds
    of the ``ready <seconds>`` line it prints."""
    try:
        done = subprocess.run(argv + [repr(time.time())], env=env,
                              capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1]} timed out") from exc
    words = done.stdout.split()
    if done.returncode != 0 or len(words) < 2 or words[0] != "ready":
        raise BenchError(f"{argv[1]} failed ({done.returncode}): "
                         f"{done.stderr.strip()[-500:]}")
    return float(words[1])


def reference_job() -> float:
    """Seconds from launch to done of :data:`REFERENCE_JOB`."""
    return _launch_to_ready([sys.executable, "-c", REFERENCE_JOB],
                            dict(os.environ))


def at_nominal_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two :func:`reference_job` times,
    rescaled to the speed at which the job takes
    :data:`NOMINAL_REFERENCE_S`."""
    return seconds * NOMINAL_REFERENCE_S / ((before + after) / 2)


def probe_setup(ctx: Context, samples: int = SETUP_SAMPLES) -> List[float]:
    """Launch-to-ready times of fresh processes doing this workload's
    set-up (imports, kernel compiles from an empty cache, warm-up),
    at the nominal machine speed.

    Each probe gets its own empty kernel cache and reports the seconds
    from the launch time it is given until it is ready, so interpreter
    start-up counts too.  The machine's speed drifts by tens of percent
    over minutes, so the raw times of two sets of runs would not agree;
    each probe is bracketed by runs of :data:`REFERENCE_JOB` and
    rescaled by :func:`at_nominal_speed`.  (A hashlib reading does not
    serve: its speed flips between two levels within milliseconds and
    does not track the probe's.)
    """
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    times = []
    before = reference_job()
    for _ in range(samples):
        env = dict(os.environ, REPRO_CODEGEN_CACHE=ctx.fresh_cache("probe"))
        ready = _launch_to_ready(
            [sys.executable, probe, "--workload", ctx.workload,
             "--launched"], env)
        after = reference_job()
        times.append(at_nominal_speed(ready, before, after))
        before = after
    return times


def fmt(value: float) -> str:
    return f"{value:.6g}"


def fmt_list(values: Sequence[float]) -> str:
    return ", ".join(f"{value:.3f}" for value in values)
