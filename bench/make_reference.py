"""Write bench/reference_seed0.json: the seed-0 numbers the oracle compares against.

Usage (from the repository root): python3 bench/make_reference.py

Runs one op of every workload at seed 0 in this process and keeps the
numbers, verdicts and counts of ``workloads.reference_view``.  Each output
must first pass the seed-independent invariants of ``workloads.check``.
Regenerate only when a change to gmtlab is meant to move reported numbers.
"""

import json
import os
import shutil
import sys

from run import REFERENCE, REPO, WORK_ROOT

sys.path.insert(0, str(REPO / "src"))

import gmtlab.cli as cli  # noqa: E402

import workloads  # noqa: E402
from child import run_op  # noqa: E402


def main() -> int:
    reference = {}
    for name in workloads.NAMES:
        work_dir = WORK_ROOT / f"reference-{name}"
        try:
            plan = workloads.make_plan(name, 0, REPO, work_dir)
            os.environ["GMT_SEED"] = plan["gmt_seed"]
            out = workloads.normalize(plan, run_op(cli, plan))
            problems = workloads.check(plan, out, None)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        reference[name] = workloads.reference_view(name, out)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
