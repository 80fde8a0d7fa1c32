"""One benchmark process: a single measured run, result as JSON on stdout.

Launched by :mod:`perfbench.run`, one fresh process per run, so peak RSS
and the garbage collector's frozen generation never leak between runs::

    PYTHONPATH=src:. python3 perfbench/worker.py --workload fanout_hot \
        --seed 1 --trace 0 --launched <time.monotonic() before launch>
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="test-sized workload")
    parser.add_argument(
        "--launched",
        type=float,
        default=None,
        help="time.monotonic() when the parent launched this process",
    )
    parser.add_argument("--spans-dir", type=Path, default=None)
    args = parser.parse_args(argv)

    from perfbench.bench import run_workload

    result = run_workload(
        args.workload,
        args.seed,
        tiny=args.tiny,
        traced=bool(args.trace),
        process_start=args.launched if args.launched is not None else time.monotonic(),
        spans_dir=args.spans_dir,
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
