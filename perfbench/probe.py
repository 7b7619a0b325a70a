"""Set-up probe: time, in this fresh process, importing wmtr and parsing
and validating one workload's inputs.  Prints the seconds taken.

    python3 perfbench/probe.py <workload>
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (imports wmtr)

workloads.load(sys.argv[1])
print(time.perf_counter() - t0)
