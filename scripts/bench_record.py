"""Record one point of the benchmark trajectory.

    python3 scripts/bench_record.py <n>

Runs perfbench/run.py at seed 0 on every workload in BENCHMARK.json,
once with --trace 0 (end-to-end metrics) and once with --trace 1
(per-layer metrics), and writes BENCH_<n>.json at the root of the checkout: one
JSON object per line, per run, holding the workload, the trace mode and
the two JSON lines run.py prints (its environment line records the
Python and numpy versions, nproc and the src/ line count).  A last line
holds the wall seconds and the passed and failed test counts (errors
count as failed) of the tier-1 suite, TIER1 run from the checkout.
Exits 1 if a run reports a failed op or a test fails.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The tier-1 command of ROADMAP.md, with PYTHONPATH=src prepended.
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def tier1_record() -> dict:
    """Wall seconds and passed and failed counts of one tier-1 run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    run = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=False)
    wall_s = time.perf_counter() - start
    summary = (run.stdout.strip().splitlines() or [""])[-1]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"workload": "tier1", "command": " ".join(["python", *TIER1]),
            "wall_s": round(wall_s, 3), "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("n", help="names the output file BENCH_<n>.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    records = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                    "--seed", "0", "--seconds", str(spec["run_seconds"]),
                    "--trace", str(trace)]
            run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = run.stdout.strip().splitlines()[-2:]
            if len(lines) != 2:
                sys.exit(f"{workload} trace={trace}: no result from run.py\n{run.stderr}")
            info, result = map(json.loads, lines)
            records.append({"workload": workload, "trace": trace, **info, **result})
            print(f"{workload} trace={trace}: correct={result['correct']}", file=sys.stderr)
    tier1 = tier1_record()
    print(f"tier1: {tier1['passed']} passed, {tier1['failed']} failed "
          f"in {tier1['wall_s']} s", file=sys.stderr)
    with open(os.path.join(ROOT, f"BENCH_{args.n}.json"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(record) + "\n" for record in [*records, tier1])
    ok = all(r["correct"] for r in records) and tier1["failed"] == 0 and tier1["passed"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
