"""Record one point of the benchmark trajectory.

    python3 scripts/bench_record.py <n>

Runs perfbench/run.py at seed 0 on every workload in BENCHMARK.json,
once with --trace 0 (end-to-end metrics) and once with --trace 1
(per-layer metrics), and writes BENCH_<n>.json at the root of the checkout: one
JSON object per line, per run, holding the workload, the trace mode and
the two JSON lines run.py prints (its environment line records the
Python and numpy versions, nproc and the src/ line count).  Exits 1 if a
run reports a failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    with open(os.path.join(ROOT, f"BENCH_{args.n}.json"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(record) + "\n" for record in records)
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
