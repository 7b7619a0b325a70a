"""Record expected.json: the contract digest of every case of every
workload, taken from the checked-out program.  Refuses to record a case
that violates a known answer.

    python3 perfbench/record_expected.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    digests = {}
    for name in run.WORKLOADS:
        for case in workloads.load(name, check_digests=False):
            digest, problems = workloads.execute(case)
            if problems:
                print(f"{case.id}: " + "; ".join(problems), file=sys.stderr)
                return 1
            digests[case.id] = digest
    workloads.EXPECTED.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {workloads.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
