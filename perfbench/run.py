"""The repository benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload batch_short --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same work untraced and then traced, and reports
the per-layer metrics, the unexplained remainder and the tracing
overhead.  Every output is checked; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
import time

from common import (SRC, BenchError, adopt_orphans, cleanup, fmt,
                    new_context, stop_children)
from layers import HEADLINE, PER_LAYER

WORKLOADS = ("batch_short", "tree_pool", "serve_open", "paper_sim")

#: End-to-end metrics, reported by every workload: (name, unit).
#: Raw rates and latencies (digests/s, MB/s, p50/p99 ms, ...) drift with
#: the machine's speed; they are printed on every run and recorded as
#: per-layer figures, while ``hashlib_x`` pairs each timed unit with
#: hashlib doing the same work right after it.
END_TO_END = [
    ("setup_s", "s"),
    ("hashlib_x", "ratio"),
    ("peak_rss_mb", "MB"),
]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    adopt_orphans()
    started = time.perf_counter()
    ctx = new_context(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    workload = importlib.import_module(args.workload)
    try:
        out = workload.run(ctx)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        stop_children()
        cleanup(ctx)

    catalogue = PER_LAYER if ctx.trace else END_TO_END
    metrics = {}
    for name, unit in catalogue:
        value = float(out.metrics.get(name, 0.0))
        if not math.isfinite(value):
            print(f"metric {name} is not finite: {value}", file=sys.stderr)
            return 2
        metrics[name] = {"value": value, "unit": unit}
    if not ctx.trace:
        missing = [name for name, _ in END_TO_END if name not in out.metrics]
        if missing:
            print(f"workload reported no {missing}", file=sys.stderr)
            return 2

    print(f"workload {ctx.workload}  seed {ctx.seed}  "
          f"trace {int(ctx.trace)}  ({time.perf_counter() - started:.1f} s)")
    for line in out.notes:
        print(line)
    if not ctx.trace:
        print("  raw figures (drift with the machine's speed):")
        units = dict(PER_LAYER)
        for name in HEADLINE:
            if name in out.metrics:
                print(f"    {name:<36} {fmt(out.metrics[name]):>14} "
                      f"{units[name]}")
    print("  metrics:")
    for name, entry in metrics.items():
        print(f"    {name:<36} {fmt(entry['value']):>14} {entry['unit']}")
    fail_frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"    {'fail_frac':<36} {fmt(fail_frac):>14} ratio  "
          f"({out.failed} failed of {out.attempted} checked)")
    correct = out.failed == 0 and out.attempted > 0
    print(json.dumps({"correct": correct,
                      "attempted": max(1, out.attempted),
                      "failed": out.failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
