#!/usr/bin/env python3
"""Time one benchmark workload's passes on two trees, round by round.

    python3 scripts/ab_passes.py --parent DIR --change DIR \\
        --workload refine-relaxed --rounds 300

Each tree is a checkout root (src/wmtr, corpus, perfbench).  One
long-lived worker process per tree, started with PYTHONHASHSEED=0,
imports that tree's `src` and `perfbench/workloads.py`, loads the
workload and runs two warm-up passes.  Each round then runs one pass on
each side, in the same case order on both, the side that goes first
alternating from round to round, so a drift in machine speed biases
neither.  A round's ratio is the change's pass time over the parent's:
below 1 the change was faster.  Prints one JSON line: the median ratio,
the rounds where the change was faster and each side's median pass time.
A failed case on either side ends the run with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

WARM_UP = 2
SEED = 0  # the case order of each pass, the same on both sides


def worker(tree: Path, workload: str) -> int:
    """Serve passes: one line in, "seconds failed" out, until stdin ends.
    The first line out is the warm-up's failure count."""
    proto = os.fdopen(os.dup(1), "w")
    sys.stdout = sys.stderr  # the protocol alone goes to the parent
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads
    import wmtr
    if Path(wmtr.__file__).resolve().parent != tree / "src" / "wmtr":
        print(f"error: imported wmtr from {wmtr.__file__}", file=sys.stderr)
        return 2
    cases = workloads.load(workload)
    rng = random.Random(SEED)
    failed = sum(workloads.run_pass(cases, rng)[1] for _ in range(WARM_UP))
    print(failed, file=proto, flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        _, failed = workloads.run_pass(cases, rng)
        print(time.perf_counter() - t0, failed, file=proto, flush=True)
    return 0


class Side:
    def __init__(self, tree: Path, workload: str):
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(tree),
             "--workload", workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=tree, env=env)
        self.times = []

    def ready(self) -> int:
        """The warm-up passes' failed cases."""
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("error: a worker ended before its warm-up")
        return int(line)

    def run(self) -> int:
        """Run one pass; its failed cases."""
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("error: a worker ended in a pass")
        seconds, failed = line.split()
        self.times.append(float(seconds))
        return int(failed)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rounds", type=int, default=100)
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker is not None:
        return worker(args.worker.resolve(), args.workload)
    if args.parent is None or args.change is None or args.rounds < 1:
        ap.error("--parent, --change and a positive --rounds are needed")

    parent = Side(args.parent.resolve(), args.workload)
    change = Side(args.change.resolve(), args.workload)
    try:
        failed = parent.ready() + change.ready()
        for r in range(args.rounds):
            if failed:
                break
            for side in (parent, change) if r % 2 == 0 else (change, parent):
                failed += side.run()
    finally:
        parent.close()
        change.close()
    if failed:
        print(f"error: {failed} failed case(s); see the workers' messages",
              file=sys.stderr)
        return 1
    ratios = [c / p for p, c in zip(parent.times, change.times)]
    print(json.dumps({
        "workload": args.workload,
        "rounds": args.rounds,
        "ratio_median": round(statistics.median(ratios), 4),
        "change_faster_rounds": sum(x < 1 for x in ratios),
        "parent_median_s": round(statistics.median(parent.times), 6),
        "change_median_s": round(statistics.median(change.times), 6),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
