"""Print the peak of the memory a benchmark workload's pass allocates.

Loads the workload's cases as `perfbench/run.py` does, runs one
warm-up pass, then one more pass under `tracemalloc`, and prints that
pass's peak of traced allocations in MB of 2^20 bytes, the unit of the
benchmark's `peak_rss_mb`.  Unlike that metric, the figure does not
move with where the allocator happens to place the heap, so it tells
an allocation change from heap layout.  Run from anywhere:

    python3 scripts/alloc_peak.py --workload order-relaxed

Exits 1 if a case of either pass fails its correctness gate.
"""

import argparse
import random
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("order-relaxed", "refine-relaxed", "cli-sc-tso")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="permutes the order of the cases in each pass")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    cases = workloads.load(args.workload)
    rng = random.Random(args.seed)
    _, failed = workloads.run_pass(cases, rng)  # warm-up
    tracemalloc.start()
    try:
        _, failed_traced = workloads.run_pass(cases, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"{args.workload}  seed {args.seed}  pass peak "
          f"{peak / 2**20:.2f} MB (tracemalloc)")
    return 1 if failed or failed_traced else 0


if __name__ == "__main__":
    sys.exit(main())
