#!/usr/bin/env python3
"""wmtr benchmark: one workload, end-to-end metrics or a traced per-layer
split.  Run from the root of a checkout:

    python3 perfbench/run.py --workload order-relaxed --seed 1 --seconds 15 --trace 0

Prints the run's context and every metric by name and unit, then, as
the last line, one JSON object with the keys correct, attempted, failed
and metrics.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 11
WORKLOADS = ("order-relaxed", "refine-relaxed", "cli-sc-tso")


def commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(workload: str) -> float:
    """Median set-up time over fresh processes; the first is a warm-up."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, str(HERE / "probe.py"), workload],
                             capture_output=True, text=True, timeout=120,
                             check=True, cwd=ROOT)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times[1:])


def timed_passes(workloads, cases, rng, seconds, tracer=None):
    """Run passes until `seconds` of pass time have elapsed (at least one);
    return (traced pass times, untraced pass times, attempted, failed).
    With a tracer, passes alternate between traced and untraced, starting
    traced, so that a drift in machine speed biases neither side."""
    traced, untraced = [], []
    attempted = failed = 0
    while (sum(traced) + sum(untraced) < seconds or not untraced
           or (tracer is not None and not traced)):
        t0 = time.perf_counter()
        if tracer is not None and len(traced) <= len(untraced):
            tracer.install()
            try:
                with tracer.span("bench.pass"):
                    a, f = workloads.run_pass(cases, rng)
            finally:
                tracer.uninstall()
            traced.append(time.perf_counter() - t0)
        else:
            a, f = workloads.run_pass(cases, rng)
            untraced.append(time.perf_counter() - t0)
        attempted, failed = attempted + a, failed + f
    return traced, untraced, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True,
                    help="permutes the order of the cases in each pass")
    ap.add_argument("--seconds", type=float, required=True,
                    help="pass time to measure (at least one pass runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "wmtr" / "__init__.py").is_file() \
            or not (ROOT / "corpus").is_dir():
        print(f"error: no wmtr sources (src/wmtr, corpus) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    import workloads
    import wmtr
    if Path(wmtr.__file__).resolve().parent != ROOT / "src" / "wmtr":
        print(f"error: imported wmtr from {wmtr.__file__}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
        try:
            with tr.span("bench.setup"):
                cases = workloads.load(args.workload)
        finally:
            tr.uninstall()
        traced, untraced, attempted, failed = timed_passes(
            workloads, cases, rng, args.seconds, tr)
        values = tr.per_layer(statistics.median(untraced))
        units = tracing.UNITS
        if tr.missing_counts:
            print("warning: graph counts unavailable (TraceSet adapter)",
                  file=sys.stderr)
        passes = f"{len(traced)} traced + {len(untraced)} untraced"
    else:
        setup_s = setup_seconds(args.workload)
        cases = workloads.load(args.workload)
        _, times, attempted, failed = timed_passes(workloads, cases, rng,
                                                   args.seconds)
        values = {
            "setup_s": setup_s,
            "pass_s": statistics.median(times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_share": (attempted - failed) / attempted,
        }
        units = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB",
                 "ok_share": "ratio"}
        passes = f"{len(times)} (min {min(times):.4f} s, max {max(times):.4f} s)"

    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"python {platform.python_version()}  nproc {nproc}  "
          f"platform {platform.platform()}  commit {commit()}")
    print(f"passes {passes}  cases attempted {attempted}  failed {failed}  "
          f"failed_share {failed / attempted}")
    for name, value in values.items():
        print(f"  {name:32s} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
