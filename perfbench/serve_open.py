"""``serve_open``: the ``repro serve`` daemon under open- and closed-loop
traffic.

The daemon runs in its own process (``--workers 1 --engine reference``,
so hashing costs what hashlib costs and admission, coalescing, the
executor hand-off over the pickle queues and the reply dominate).  The
open-loop phase sends seeded Poisson arrivals at a fixed nominal rate
well below the knee, with at most ``NPROC`` requests in flight, and
times each request from its due time.  The closed-loop phase follows
with ``NPROC`` clients that each send the next request when the last
one returns.  Requests mix ``sha3_256`` and ``shake128?length=64`` with
bodies of 16 B to 4 KiB; every reply is checked against hashlib, and a
429, 504, 500 or connection error counts as failed.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import os
import random
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import common
from common import NPROC, ROOT, BenchError, Context, Outcome

#: Open-loop arrival rate, requests per second (the knee is ~250/s).
RATE = 80.0
SHAKE_BYTES = 64
BODY_BYTES = (16, 4096)
HOST = "127.0.0.1"

Request = Tuple[str, bytes, str]  # (path, body, expected hex digest)


def make_requests(rng: random.Random, count: int) -> List[Request]:
    requests = []
    for _ in range(count):
        body = rng.randbytes(rng.randint(*BODY_BYTES))
        if rng.random() < 0.5:
            requests.append(("/hash/sha3_256", body,
                             hashlib.sha3_256(body).hexdigest()))
        else:
            requests.append((f"/hash/shake128?length={SHAKE_BYTES}", body,
                             hashlib.shake_128(body).hexdigest(SHAKE_BYTES)))
    return requests


def poisson_schedule(rng: random.Random, seconds: float) -> List[float]:
    """Seeded Poisson arrival offsets (seconds from the phase start)."""
    offsets, now = [], 0.0
    while True:
        now += rng.expovariate(RATE)
        if now >= seconds:
            return offsets
        offsets.append(now)


# -- the daemon -------------------------------------------------------------------


class Daemon:
    """One ``python -m repro serve`` process on an ephemeral TCP port."""

    def __init__(self, ctx: Context, index: int) -> None:
        self.log_path = os.path.join(ctx.run_dir, f"daemon-{index}.log")
        env = dict(os.environ, REPRO_CODEGEN_CACHE=ctx.fresh_cache("daemon"))
        self.started = time.perf_counter()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", HOST,
                 "--port", "0", "--workers", "1", "--engine", "reference"],
                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
        self.port: Optional[int] = None

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from launch until ``/healthz`` answers 200."""
        from repro.serve.loadgen import request

        deadline = self.started + timeout
        while self.port is None:
            with open(self.log_path, encoding="utf-8") as log:
                found = re.search(r"http://[\d.]+:(\d+)", log.read())
            if found:
                self.port = int(found.group(1))
            elif self.proc.poll() is not None or \
                    time.perf_counter() > deadline:
                raise BenchError(f"daemon did not start: {self._tail()}")
            else:
                time.sleep(0.002)
        while True:
            try:
                status, _ = asyncio.run(request(
                    "/healthz", method="GET", host=HOST, port=self.port,
                    timeout=5.0))
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - self.started
            if time.perf_counter() > deadline:
                raise BenchError(f"daemon never healthy: {self._tail()}")
            time.sleep(0.002)

    def _tail(self) -> str:
        with open(self.log_path, encoding="utf-8") as log:
            return log.read()[-500:]

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill the whole process group."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()


# -- traffic ----------------------------------------------------------------------


class Sample:
    """One request's outcome."""

    __slots__ = ("request", "status", "payload", "latency", "lag",
                 "service")

    def __init__(self, request: Request, status: Optional[int],
                 payload: bytes, latency: float, lag: float,
                 service: float) -> None:
        self.request = request
        self.status = status
        self.payload = payload
        self.latency = latency   # from the due time (open loop)
        self.lag = lag           # how late it was sent
        self.service = service   # from the send

    @property
    def ok(self) -> bool:
        return self.status == 200 and \
            self.payload.decode("latin-1", "replace") == self.request[2]


async def _send(port: int, req: Request):
    from repro.serve.loadgen import request

    try:
        return await request(req[0], req[1], host=HOST, port=port,
                             timeout=30.0)
    except (ConnectionError, OSError, asyncio.TimeoutError):
        return None, b""


async def open_loop(port: int, offsets: List[float],
                    requests: List[Request]) -> List[Sample]:
    """Send request i at its due time; at most NPROC in flight."""
    loop = asyncio.get_running_loop()
    limit = asyncio.Semaphore(NPROC)
    samples: List[Optional[Sample]] = [None] * len(offsets)
    start = loop.time() + 0.02

    async def one(i: int, due: float) -> None:
        async with limit:
            sent = loop.time()
            status, payload = await _send(port, requests[i])
            done = loop.time()
        samples[i] = Sample(requests[i], status, payload, done - due,
                            sent - due, done - sent)

    tasks = []
    for i, offset in enumerate(offsets):
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(i, due)))
    await asyncio.gather(*tasks)
    return samples  # type: ignore[return-value]


async def closed_loop(port: int, seconds: float, requests: List[Request]
                      ) -> Tuple[List[Sample], float]:
    """NPROC clients, each sending its next request on the last reply."""
    loop = asyncio.get_running_loop()
    cursor = itertools.count()
    samples: List[Sample] = []
    started = loop.time()
    end = started + seconds

    async def client() -> None:
        while loop.time() < end:
            req = requests[next(cursor) % len(requests)]
            sent = loop.time()
            status, payload = await _send(port, req)
            elapsed = loop.time() - sent
            samples.append(Sample(req, status, payload, elapsed, 0.0,
                                  elapsed))

    await asyncio.gather(*(client() for _ in range(NPROC)))
    return samples, loop.time() - started


def scrape(port: int) -> Dict[str, float]:
    """The daemon's ``/metrics`` as {sample name with labels: value}."""
    from repro.serve.loadgen import request

    status, body = asyncio.run(request("/metrics", method="GET", host=HOST,
                                       port=port, timeout=10.0))
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    values: Dict[str, float] = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


def _delta(before: Dict[str, float], after: Dict[str, float],
           prefix: str) -> float:
    """Summed change of every series whose sample name starts so."""
    return sum(value - before.get(name, 0.0)
               for name, value in after.items() if name.startswith(prefix))


# -- the workload -----------------------------------------------------------------


def _count_outcomes(out: Outcome, samples: List[Sample], phase: str) -> None:
    ok = sum(1 for s in samples if s.ok)
    out.check(True, phase, ok)
    for s in samples:
        if not s.ok:
            what = "connection error" if s.status is None else \
                f"HTTP {s.status}" if s.status != 200 else "digest mismatch"
            out.check(False, f"{phase}: {what} on {s.request[0]}")
    out.notes.append(f"  {phase}: sent {len(samples)}, succeeded {ok}, "
                     f"failed {len(samples) - ok}")


def _latencies(samples: List[Sample]) -> List[float]:
    """Open-loop latencies; a failed request misses every limit."""
    return [s.latency if s.ok else float("inf") for s in samples]


def _hashlib(requests: List[Request]) -> None:
    """hashlib doing what the daemon does for ``requests``."""
    for path, body, _ in requests:
        if "shake" in path:
            hashlib.shake_128(body).hexdigest(SHAKE_BYTES)
        else:
            hashlib.sha3_256(body).hexdigest()


def run(ctx: Context) -> Outcome:
    out = Outcome()
    rng = random.Random(ctx.seed)
    setup: List[float] = []
    daemons: List[Daemon] = []
    try:
        before = common.reference_job()
        for index in range(common.SETUP_SAMPLES):
            if daemons:
                daemons[-1].stop()
            daemons.append(Daemon(ctx, index))
            ready = daemons[-1].wait_ready()
            after = common.reference_job()
            setup.append(common.at_nominal_speed(ready, before, after))
            before = after
        daemon = daemons[-1]
        port = daemon.port
        offsets = poisson_schedule(
            rng, ctx.budget(0.35))
        open_requests = make_requests(rng, len(offsets))
        closed_requests = make_requests(rng, 2000)
        # One short closed-loop burst first, so the pool worker and
        # the connection path are warm when timing starts.
        asyncio.run(closed_loop(port, 0.2, closed_requests))
        before = common.reference_time(lambda: _hashlib(open_requests))
        opened = asyncio.run(open_loop(port, offsets, open_requests))
        hashlib_time = min(before, common.reference_time(
            lambda: _hashlib(open_requests))) / len(open_requests)
        if ctx.trace:
            # The same arrivals again, between two /metrics scrapes.
            scraped = scrape(port)
            traced = asyncio.run(open_loop(port, offsets, open_requests))
            scraped_after = scrape(port)
        closed, closed_wall = asyncio.run(closed_loop(
            port, ctx.budget(0.3 if ctx.trace else 0.65), closed_requests))
        final = scrape(port)
    finally:
        for d in daemons:
            d.stop()

    _count_outcomes(out, opened, "open loop")
    fallbacks = _delta({}, final, "sim_functional_fallbacks_total")
    shm_bytes = _delta({}, final, "pool_shm_bytes_total")
    out.check(fallbacks == 0, f"path: {fallbacks} functional-engine "
              "fallbacks in the daemon")
    out.check(shm_bytes == 0,
              f"path: {shm_bytes} bytes through shm, declared pickle")
    lat = _latencies(opened)
    m = out.metrics
    m["setup_s"] = common.median(setup)
    m["p50_ms"] = common.quantile(lat, 0.5) * 1e3
    m["p99_ms"] = common.quantile(lat, 0.99) * 1e3
    m["peak_rss_mb"] = common.peak_rss_mb()
    out.notes.append(
        f"  open loop: {len(lat)} requests at {RATE:g}/s timed from their "
        f"due time; generator lag p99 "
        f"{common.quantile([s.lag for s in opened], 0.99) * 1e3:.3f} ms")
    out.notes.append("  set-up (daemon launch to /healthz 200) samples "
                     f"{common.fmt_list(setup)} s")
    _count_outcomes(out, closed, f"closed loop ({NPROC} clients)")
    good = [s for s in closed if s.ok]
    m["serve_rps"] = len(good) / closed_wall
    m["input_mb_per_s"] = \
        sum(len(s.request[1]) for s in good) / closed_wall / 1e6
    # The open loop's median latency over hashlib's time for one of its
    # requests (the faster of a measurement before and one after it).
    # Not the closed loop: its two clients can fall into step with the
    # coalescing window, which halved throughput in some runs.
    m["hashlib_x"] = m["p50_ms"] / 1e3 / hashlib_time
    if not ctx.trace:
        return out

    _count_outcomes(out, traced, "traced open loop")
    m.update(_layers(traced, opened, scraped, scraped_after))
    out.notes += [
        "  per request, traced open loop (from send to reply):",
        f"    serve.server_ms (daemon accept to answer) "
        f"{m['serve.server_ms']:.3f} ms",
        f"    serve.wire_ms (unexplained: connect, parse, write) "
        f"{m['serve.wire_ms']:.3f} ms",
        f"    serve.pool_task_ms (task body, replayed in-process) "
        f"{m['serve.pool_task_ms']:.3f} ms",
        f"    requests per dispatch {m['serve.batch_size_mean']:.2f}",
        f"    tracing overhead {m['trace.overhead_s'] * 1e3:.3f} ms per "
        f"request ({m['trace.overhead_frac']:+.1%})"]
    return out


def _layers(traced: List[Sample], untraced: List[Sample],
            before: Dict[str, float], after: Dict[str, float]
            ) -> Dict[str, float]:
    """Per-request layer split of the traced open-loop phase."""
    from repro.programs.batch_driver import hash_messages

    count = _delta(before, after, "serve_request_latency_seconds_count")
    server = _delta(before, after, "serve_request_latency_seconds_sum")
    batches = _delta(before, after, "serve_batch_size_count")
    batched = _delta(before, after, "serve_batch_size_sum")
    mean_client = sum(s.service for s in traced) / len(traced)
    mean_untraced = sum(s.service for s in untraced) / len(untraced)
    server_mean = server / count if count else 0.0
    # The worker-side task body, replayed in this process per request.
    started = time.perf_counter()
    for s in traced:
        algorithm = "shake128" if "shake" in s.request[0] else "sha3_256"
        hash_messages(algorithm, SHAKE_BYTES, (64, 8, 30), "reference",
                      [s.request[1]])
    task = (time.perf_counter() - started) / len(traced)
    statuses = [s.status for s in traced]
    m = {
        "trace.wall_s": mean_client,
        "trace.untraced_wall_s": mean_untraced,
        "trace.overhead_s": mean_client - mean_untraced,
        "trace.overhead_frac": (mean_client - mean_untraced) / mean_untraced,
        "trace.unexplained_s": mean_client - server_mean,
        "trace.unexplained_frac": (mean_client - server_mean) / mean_client,
        "serve.server_ms": server_mean * 1e3,
        "serve.wire_ms": (mean_client - server_mean) * 1e3,
        "serve.batch_size_mean": batched / batches if batches else 0.0,
        "serve.pool_task_ms": task * 1e3,
        "serve.rejected_429": statuses.count(429),
        "serve.rejected_504": statuses.count(504),
        "serve.errors_500": statuses.count(500),
        "serve.connection_errors": statuses.count(None),
        "loadgen.lag_p99_ms":
            common.quantile([s.lag for s in traced], 0.99) * 1e3,
    }
    return m
