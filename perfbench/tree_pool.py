"""``tree_pool``: K12 and ParallelHash256 tree hashing across 2 workers.

Each iteration makes four ``run_many_report`` calls with ``workers=2``,
``engine="soa"`` and transport ``auto``: K12 and ParallelHash256 over a
batch of one large message, and over a batch of four smaller ones.  The
sizes straddle the tree planner's choices: one message fits in a single
8 KiB chunk, one has a single leaf (K12 hashes it sequentially), and the
rest have from a few to over 64 leaves (batched on SoA lanes, two lane
groups for the largest).  Every batch holds more than the
shared-memory threshold, so the shm arena and span scheduler carry it.
The largest message is ~640 KB rather than 1 MiB because the
pure-Python K12 reference, computed for every seed, costs ~12 s per MiB.

Digests are checked against the reference path, computed once per seed
outside the timed region: K12 with ``engine="reference"``, and
ParallelHash256 from hashlib SHAKE256 leaves plus the reference
cSHAKE256 node (cross-checked against ``engine="reference"`` on the
smaller messages).
"""

from __future__ import annotations

import hashlib
import os
import random
from typing import Dict, List, Tuple

import common
from common import Context, Outcome

ALGORITHMS = ("k12", "parallelhash256")
DIGEST_BYTES = 32
CHUNK = 8192
#: (class, lowest size, highest size) of the messages of one seed.
SIZE_CLASSES = [
    ("chunk", 6_000, 6_400),             # below one K12 chunk
    ("one_leaf", 11_000, 12_000),        # K12: one leaf, sequential
    ("few_leaves", 40_000, 42_000),      # a few leaves, batched
    ("many_leaves", 228_000, 232_000),   # ~28 leaves, batched
    ("two_groups", 630_000, 640_000),    # >64 leaves: two SoA lane groups
]
#: The calls of one iteration: algorithm x batch of message classes.
BATCHES = [("two_groups",), ("chunk", "one_leaf", "few_leaves",
                             "many_leaves")]
#: The planner mode each class declares, per algorithm ("none": the
#: message fits the root node and no leaves are planned).
DECLARED = {
    "k12": {"chunk": "none", "one_leaf": "sequential",
            "few_leaves": "batched", "many_leaves": "batched",
            "two_groups": "batched"},
    "parallelhash256": {"chunk": "sequential", "one_leaf": "batched",
                        "few_leaves": "batched", "many_leaves": "batched",
                        "two_groups": "batched"},
}
WORKERS = common.NPROC


def make_messages(seed: int) -> Dict[str, bytes]:
    rng = random.Random(seed)
    return {name: rng.randbytes(rng.randint(low, high))
            for name, low, high in SIZE_CLASSES}


def _calls(messages: Dict[str, bytes]) -> List[Tuple[str, List[bytes]]]:
    return [(alg, [messages[name] for name in batch])
            for alg in ALGORITHMS for batch in BATCHES]


def _leaf_count(algorithm: str, message: bytes) -> int:
    if algorithm == "k12":
        stream = len(message) + 1  # empty customization: one length byte
        return 0 if stream <= CHUNK else -(-(stream - CHUNK) // CHUNK)
    return max(1, -(-len(message) // CHUNK))


def _parallelhash256(message: bytes, length: int) -> bytes:
    """ParallelHash256 with hashlib SHAKE256 leaves (SP 800-185 §6)."""
    from repro.keccak.cshake import cshake256, left_encode, right_encode

    blocks = [message[i:i + CHUNK] for i in range(0, len(message), CHUNK)]
    node = left_encode(CHUNK) + b"".join(
        hashlib.shake_256(block).digest(64) for block in blocks)
    node += right_encode(len(blocks)) + right_encode(8 * length)
    return cshake256(node, length, b"ParallelHash", b"")


def expected_digests(messages: Dict[str, bytes]
                     ) -> Dict[Tuple[str, str], bytes]:
    from repro.keccak import kangarootwelve

    out = {}
    for name, message in messages.items():
        out[("k12", name)] = kangarootwelve(message, DIGEST_BYTES,
                                            engine="reference")
        out[("parallelhash256", name)] = _parallelhash256(message,
                                                          DIGEST_BYTES)
    return out


def warm() -> None:
    """Set-up: compile every SoA kernel width for 12 and 24 rounds.

    Leaf counts are ragged, so every power-of-two bucket up to 64 lanes
    is reached; pool workers fork from this process and inherit them.
    """
    from repro.programs import batch_driver  # noqa: F401 - task kinds
    from repro.sim import codegen

    for rounds in (12, 24):
        width = codegen.soa_width()
        while width >= 1:
            codegen.warm_soa(width, num_rounds=rounds)
            width //= 2


def run(ctx: Context) -> Outcome:
    from repro.keccak import parallelhash256
    from repro.keccak.treehash import plan_tree
    from repro.programs import batch_driver
    from repro.sim import codegen

    import layers
    import tracer as tracing

    out = Outcome()
    setup = common.probe_setup(ctx)
    messages = make_messages(ctx.seed)
    expected = expected_digests(messages)
    for name in ("chunk", "one_leaf"):
        out.check(_parallelhash256(messages[name], DIGEST_BYTES)
                  == parallelhash256(messages[name], DIGEST_BYTES,
                                     engine="reference"),
                  f"hashlib-leaf ParallelHash256 reference on {name}")
    calls = _calls(messages)
    wanted = [[expected[(alg, name)] for name in batch]
              for alg in ALGORITHMS for batch in BATCHES]
    warm()

    # The planner runs inside the workers; ask it here, with the
    # arguments a worker passes, which mode each message declares.
    for alg in ALGORITHMS:
        rounds = 12 if alg == "k12" else 24
        for name, message in messages.items():
            leaves = _leaf_count(alg, message)
            mode = "none" if leaves == 0 else plan_tree(
                leaves, engine="soa", num_rounds=rounds).mode
            out.check(mode == DECLARED[alg][name],
                      f"path: {alg} {name} planned {mode}, declared "
                      f"{DECLARED[alg][name]}")

    reports: List = []

    def step(k: int):
        alg, batch = calls[k % len(calls)]
        return batch_driver.run_many_report(
            batch, algorithm=alg, length=DIGEST_BYTES, workers=WORKERS,
            engine="soa")

    def check(k: int, outcome) -> None:
        reports.append(outcome.stats)
        want = wanted[k % len(calls)]
        out.check(outcome.ok and outcome.digests == want,
                  f"{calls[k % len(calls)][0]} batch {k % len(calls)}, "
                  f"call {k}", len(want))

    def reference(k: int) -> None:
        alg, batch = calls[k % len(calls)]
        shake = hashlib.shake_128 if alg == "k12" else hashlib.shake_256
        for message in batch:
            shake(message).digest(DIGEST_BYTES)

    # Worker-side split: one iteration's messages replayed in this
    # process through the public batch driver.
    def replay(_k: int):
        return [batch_driver.hash_messages(alg, DIGEST_BYTES, (64, 8, 30),
                                           "soa", batch)
                for alg, batch in calls]

    def check_replay(_k: int, digests) -> None:
        out.check(digests == wanted, "in-process replay digests",
                  sum(len(want) for want in wanted))

    tracer = tracing.Tracer()
    with layers.PathWatch() as watch:
        if ctx.trace:
            on = lambda: layers.install(tracer)  # noqa: E731
            times, traced = common.run_traced(0, step, check, on,
                                              tracer.restore,
                                              count=len(calls))
            replay_stats = dict(codegen.SOA_STATS)
            replay_times, replay_traced = common.run_traced(
                0, replay, check_replay, on, tracer.restore, count=1)
        else:
            times, refs = common.run_for(ctx.seconds, step, check,
                                         reference)

    out.check(set(watch.transports) == {"shm"},
              f"path: transports {sorted(set(watch.transports))}, "
              "declared shm")
    out.check(not watch.fallbacks,
              f"path: functional engine fell back {watch.fallbacks}")

    # An iteration is one call of each kind, in order.
    iterations = [sum(times[i:i + len(calls)])
                  for i in range(0, len(times) - len(calls) + 1, len(calls))]
    in_bytes = sum(len(m) for k in range(len(times))
                   for m in calls[k % len(calls)][1])
    m = out.metrics
    m["setup_s"] = common.median(setup)
    m["peak_rss_mb"] = common.peak_rss_mb()
    m["input_mb_per_s"] = in_bytes / sum(times) / 1e6
    m["p50_ms"] = common.median(iterations) * 1e3
    m["p99_ms"] = common.quantile(iterations, 0.99) * 1e3
    out.notes.append(f"  {len(times)} pool calls ({len(iterations)} "
                     f"iterations of {len(calls)}); set-up samples "
                     f"{common.fmt_list(setup)} s")
    if not ctx.trace:
        m["hashlib_x"] = common.ratio(
            times, refs, [k % len(calls) for k in range(len(times))])
        return out

    tracer.dump(os.path.join(ctx.run_dir, "spans.json"))
    # Both replays moved the counters; the traced one planned the leaves.
    delta = {key: (codegen.SOA_STATS[key] - replay_stats[key]) / 2
             for key in replay_stats}
    out.check(delta["kernel_calls"] > 0,
              "path: the replay made no SoA kernel calls")
    modes = [mode for mode, _leaves in tracer.seen["plans"]]
    declared = [DECLARED[alg][name] for alg in ALGORITHMS
                for batch in BATCHES for name in batch
                if DECLARED[alg][name] != "none"]
    out.check(modes == declared,
              f"path: replay planner modes {modes}, declared {declared}")
    # One iteration through the pool (parent side) plus its replay.
    m.update(layers.summarize(tracer, sum(traced) + replay_traced[0],
                              sum(times) + replay_times[0], 1))
    m["codegen.kernel_calls"] = delta["kernel_calls"]
    m["codegen.compiles"] = delta["compiles"]
    m["codegen.lane_occupancy"] = delta["lanes_hashed"] / (
        delta["lanes_hashed"] + delta["lanes_padded"])
    # Untraced and traced calls did the same work: half of each total.
    for metric, field in (("spans", "chunks"), ("steals", "steals"),
                          ("retries", "retries")):
        m[f"parallel_exec.{metric}"] = \
            sum(getattr(stats, field) for stats in reports) / 2
    out.notes.append("  traced = the pool calls of one iteration (parent "
                     "side) + an in-process replay of its messages")
    out.notes.extend(layers.layer_table(m))
    return out
