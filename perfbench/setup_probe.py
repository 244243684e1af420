"""One set-up sample: import the program and warm it for a workload.

Started by the benchmark as a fresh process with an empty kernel cache;
prints ``ready <seconds since --launched>`` once the workload's first
timed operation could run.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from common import SRC


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.time() when the parent launched us")
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    importlib.import_module(args.workload).warm()
    print("ready", time.time() - args.launched, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
