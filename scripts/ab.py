"""Compare the benchmark of two revisions in alternating pairs of runs.

    python3 scripts/ab.py REV_A REV_B --workload W --pairs N [--seed S]

Each revision is extracted with `git archive` into a temporary directory
(nothing is written into .git).  Pair i runs
`perfbench/run.py --workload W --seed S+i --trace 0` on both sides, A first
in even pairs and B first in odd ones, each run from its own checkout.
For every end-to-end metric of BENCHMARK.json it prints the median and
the quartiles on each side, the ratio of the B median to the A median,
and in how many pairs B was better.  Exits 1 if any run failed or gave no
result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def checkout(rev: str, tmp: str) -> tuple[str, str]:
    """(directory, label) of the revision, extracted under tmp."""
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", commit],
                         capture_output=True, check=True).stdout
    path = os.path.join(tmp, commit)
    if not os.path.isdir(path):
        # extraction filters exist from Python 3.10.12 and 3.11.4 on
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(path, **safe)
    return path, f"{rev} ({commit[:12]})"


def run(path: str, workload: str, seed: int, seconds: int) -> dict | None:
    """The end-to-end metric values of one run, or None if it failed."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=path, capture_output=True, text=True, check=False)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None
    if proc.returncode or not result.get("correct"):
        return None
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summarize(a: list[float], b: list[float], lower_is_better: bool = True) -> dict:
    """Medians and quartiles of paired runs a[i], b[i], the ratio of the
    medians (B over A) and the number of pairs where b[i] beats a[i]."""
    def quartiles(xs):
        return tuple(statistics.quantiles(xs, n=4, method="inclusive")) if len(xs) > 1 else (xs[0],) * 3
    wins = sum((y < x) if lower_is_better else (y > x) for x, y in zip(a, b))
    qa, qb = quartiles(a), quartiles(b)
    return {"a": qa, "b": qb, "ratio": qb[1] / qa[1] if qa[1] else float("nan"),
            "wins": wins, "pairs": len(a)}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = parser.parse_args(argv)
    metrics = spec["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        try:
            (path_a, label_a), (path_b, label_b) = (checkout(r, tmp)
                                                    for r in (args.rev_a, args.rev_b))
        except subprocess.CalledProcessError as exc:
            parser.error(f"cannot extract a revision: {exc.stderr.strip() or exc}")
        print(f"A = {label_a}\nB = {label_b}\nworkload {args.workload}, seeds "
              f"{args.seed}..{args.seed + args.pairs - 1}, pair i at seed {args.seed} + i")
        runs = {"A": [], "B": []}
        failed = 0
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            pair = {}
            for side in order:
                pair[side] = run(path_a if side == "A" else path_b, args.workload, seed,
                                 spec["run_seconds"])
            if None in pair.values():
                failed += 1
                print(f"seed {seed}: a run failed: "
                      + ", ".join(side for side in "AB" if pair[side] is None))
                continue
            for side in "AB":
                runs[side].append(pair[side])
            print(f"seed {seed}: " + "  ".join(
                f"{m['name']} {pair['A'][m['name']]:.4g} -> {pair['B'][m['name']]:.4g}"
                for m in metrics), flush=True)
    if runs["A"]:
        print(f"{'metric':14s} {'A median [q1-q3]':>28s} {'B median [q1-q3]':>28s}"
              f" {'B/A':>6s} {'B better':>9s}")
        for m in metrics:
            name = m["name"]
            s = summarize([r[name] for r in runs["A"]], [r[name] for r in runs["B"]],
                          m["better"] == "lower")
            a, b = (f"{q[1]:.4g} [{q[0]:.4g}-{q[2]:.4g}]" for q in (s["a"], s["b"]))
            print(f"{name:14s} {a:>28s} {b:>28s} {s['ratio']:6.3f}"
                  f" {s['wins']:>4d}/{s['pairs']}")
    if failed:
        print(f"{failed} of {args.pairs} pairs had a failed run", file=sys.stderr)
    return 1 if failed or not runs["A"] else 0


if __name__ == "__main__":
    sys.exit(main())
