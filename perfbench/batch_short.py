"""``batch_short``: serial SoA batch hashing of ragged short messages.

Each iteration hashes one ``sha3_256`` batch and one ``shake128`` batch
with a multi-block (512 B) output through ``run_many(engine="soa")`` in
this process: no pool, no daemon.  Message lengths run from 0 to about
three rate blocks and cluster at rate-1, rate and rate+1, where the
padding rule changes the block count.  Every digest is checked against
hashlib.
"""

from __future__ import annotations

import hashlib
import os
import random
from typing import List, Tuple

import common
from common import Context, Outcome

#: Messages per batch: two full 64-lane SoA kernel groups.
BATCH = 128
#: SHAKE128 output bytes: four squeeze blocks.
XOF_BYTES = 512
#: Distinct batch pairs per seed; iterations cycle through them.
POOL = 8
RATE = {"sha3_256": 136, "shake128": 168}


def _lengths(rng: random.Random, rate: int) -> List[int]:
    """Three in four lengths at k*rate + {-1, 0, +1} for k = 1..3 (the
    block count changes there), the rest uniform in [0, 3*rate + 1]."""
    lengths = []
    for i in range(BATCH):
        if i % 4 == 3:
            lengths.append(rng.randint(0, 3 * rate + 1))
        else:
            lengths.append((i % 4 + 1) * rate + rng.choice((-1, 0, 1)))
    rng.shuffle(lengths)
    return lengths


def make_inputs(seed: int) -> List[Tuple[List[bytes], List[bytes]]]:
    rng = random.Random(seed)
    return [tuple([rng.randbytes(n) for n in _lengths(rng, RATE[alg])]
                  for alg in ("sha3_256", "shake128"))
            for _ in range(POOL)]


def _reference(entry) -> Tuple[List[bytes], List[bytes]]:
    sha, shake = entry
    return ([hashlib.sha3_256(m).digest() for m in sha],
            [hashlib.shake_128(m).digest(XOF_BYTES) for m in shake])


def warm() -> None:
    """Set-up: compile every SoA kernel width the batches use.

    Lanes whose message ends drop out of the lock-step group, so the
    ragged groups reach every power-of-two bucket up to 64 lanes.
    """
    from repro.sim import codegen

    width = codegen.soa_width()
    while width >= 1:
        codegen.warm_soa(width)
        width //= 2


def run(ctx: Context) -> Outcome:
    from repro.programs import batch_driver
    from repro.sim import codegen

    import layers
    import tracer as tracing

    out = Outcome()
    setup = common.probe_setup(ctx)
    pool = make_inputs(ctx.seed)
    expected = [_reference(entry) for entry in pool]
    warm()

    def step(k: int):
        sha, shake = pool[k % POOL]
        return (batch_driver.run_many(sha, algorithm="sha3_256",
                                      engine="soa"),
                batch_driver.run_many(shake, algorithm="shake128",
                                      length=XOF_BYTES, engine="soa"))

    def check(k: int, result) -> None:
        want = expected[k % POOL]
        out.check(result[0] == want[0], f"sha3_256 batch {k}", BATCH)
        out.check(result[1] == want[1], f"shake128 batch {k}", BATCH)

    def reference(k: int) -> None:
        _reference(pool[k % POOL])

    stats0 = dict(codegen.SOA_STATS)
    tracer = tracing.Tracer()
    with layers.PathWatch() as watch:
        if ctx.trace:
            times, traced = common.run_traced(
                ctx.budget(0.5), step, check,
                lambda: layers.install(tracer), tracer.restore)
        else:
            times, refs = common.run_for(ctx.seconds, step, check,
                                         reference)
    delta = {key: codegen.SOA_STATS[key] - stats0[key] for key in stats0}

    out.check(delta["kernel_calls"] > 0, "path: no SoA kernel calls")
    out.check(delta["compiles"] == 0,
              f"path: {delta['compiles']} kernel compiles after warm-up")
    out.check(not watch.fallbacks,
              f"path: functional engine fell back {watch.fallbacks}")
    out.check(set(watch.transports) == {"pickle"},
              f"path: transports {sorted(set(watch.transports))}, "
              "declared the serial pickle path")

    iterations = len(times)
    wall = sum(times)
    in_bytes = sum(len(m) for k in range(iterations)
                   for batch in pool[k % POOL] for m in batch)
    m = out.metrics
    m["setup_s"] = common.median(setup)
    m["peak_rss_mb"] = common.peak_rss_mb()
    m["digests_per_s"] = 2 * BATCH * iterations / wall
    m["input_mb_per_s"] = in_bytes / wall / 1e6
    m["p50_ms"] = common.median(times) * 1e3
    m["p99_ms"] = common.quantile(times, 0.99) * 1e3
    out.notes.append(f"  {iterations} iterations of {2 * BATCH} digests; "
                     f"set-up samples {common.fmt_list(setup)} s")
    if not ctx.trace:
        m["hashlib_x"] = common.ratio(times, refs)
        return out
    tracer.dump(os.path.join(ctx.run_dir, "spans.json"))
    m.update(layers.summarize(tracer, sum(traced), wall, iterations))
    # Both passes did the same work: the counters moved twice per
    # iteration.
    runs = 2 * iterations
    m["codegen.kernel_calls"] = delta["kernel_calls"] / runs
    m["codegen.compiles"] = delta["compiles"] / runs
    m["codegen.lane_occupancy"] = delta["lanes_hashed"] / (
        delta["lanes_hashed"] + delta["lanes_padded"])
    out.notes.extend(layers.layer_table(m))
    return out
