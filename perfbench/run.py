"""grigtree benchmark: one workload per run, in a fresh pinned process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source checkout; grigtree is imported from its
`src/`.  The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1); the line before it
records the environment and details such as the tail percentile and
fail_frac (= failed / attempted).  The exit code is 0 only when every op
produced its expected output.

Workloads, and the ROADMAP items each is meant to show:
  quotient5     the level-5 cross-check; items 1-2 (dedupe, packed keys)
  closure-deep  deep closure checks of every element family; item 3
  verify-words  thousands of shallow scans and long words; item 3
Each item should leave the workloads it does not name unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import PASSES, WORKLOADS, selftest_ops, workload_ops  # noqa: E402

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER = {
    "oracle.enumerate_quotient.s": "s", "oracle.admissible5.s": "s",
    "oracle.admissible4.s": "s", "oracle.load.s": "s", "oracle.save.s": "s",
    "oracle.portrait_set.s": "s", "oracle.witness.s": "s",
    "oracle.sample_words.s": "s", "oracle.cosets": "count",
    "tree.portrait_of.auto.s": "s", "tree.portrait_of.kbar.s": "s",
    "tree.portrait_of.portrait.s": "s", "tree.portrait_of.word.s": "s",
    "tree.bits": "count",
    "closure.verdict.s": "s", "closure.windows": "count",
    "closure.ns_per_window": "ns", "closure.sample.s": "s",
    "closure.beta_profile.s": "s",
    "words.section_words.s": "s", "words.reduce.s": "s",
    "words.beta_from_counts.s": "s", "words.word_element.s": "s",
    "words.section_letters": "count", "words.reduced_letters": "count",
    "automata.parse_element.s": "s",
    "cli.self.s": "s",
    "trace.overhead_frac": "ratio",
}
SETUP_SAMPLES = 4  # half before the ops and half after
RUN_LIMIT_S = 170  # every child must end within this many seconds of the start
READY = "import grigtree.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


class BenchError(Exception):
    """The benchmark could not run (no checkout, a child died or hung)."""


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    return env


def _communicate(proc, deadline):
    try:
        return proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a benchmark child ran past the time limit") from None


def setup_seconds(samples: int, deadline) -> list[float]:
    """Times from interpreter start until grigtree.cli is imported."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", READY], cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        _communicate(proc, deadline)
        if line != "ready\n" or proc.returncode != 0:
            raise BenchError("grigtree.cli does not import from src/")
        proc.stdout.close()
    return times


def run_worker(ops, trace: bool, tmp: str, deadline) -> dict:
    ops_path = os.path.join(tmp, f"ops{int(trace)}.json")
    with open(ops_path, "w", encoding="utf-8") as fh:
        json.dump(ops, fh)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), os.path.join(ROOT, "src"),
         ops_path, "1" if trace else "0"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    out, _ = _communicate(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail(latencies_ms):
    """The highest percentile with at least 10 ops beyond it, with that
    percentile; the slowest op (percentile 100) when fewer than 11 ran."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def failures(results) -> list:
    return [(i, kind, problem) for result in results
            for i, (kind, _, problem) in enumerate(result["ops"]) if problem]


def fastest(ops, results) -> list[float]:
    """Each op's fastest time over the passes; ops that share a `key`
    are one op run several times."""
    best: dict = {}
    for result in results:
        for i, (_, t, _) in enumerate(result["ops"]):
            key = ops[i].get("key", i)
            best[key] = min(t, best.get(key, t))
    return list(best.values())


def measure(ops, passes: int, trace: bool, tmp: str, deadline):
    """Run the ops `passes` times, each pass in a fresh process, and take
    each op's fastest pass.  Other tenants of a shared 2-CPU VM slow a
    process by 10-80% for spells of a second to a minute; the fastest of
    spaced passes drops the short spells, while a real slowdown of the
    code shows in every pass.  Returns (metrics, attempted, failed ops,
    info)."""
    if not trace:
        spawns = setup_seconds(SETUP_SAMPLES // 2, deadline)
        results = [run_worker(ops, False, tmp, deadline) for _ in range(passes)]
        spawns += setup_seconds(SETUP_SAMPLES - SETUP_SAMPLES // 2, deadline)
        setup = statistics.median(spawns)
        latencies = [1000.0 * t for t in fastest(ops, results)]
        tail_ms, tail_pct = tail(latencies)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        values = {"wall_s": sum(latencies) / 1000.0, "op_p50_ms": statistics.median(latencies),
                  "op_tail_ms": tail_ms, "peak_rss_mib": peak, "setup_s": setup}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        info = {"ops": len(latencies), "passes": passes,
                "op_tail_percentile": round(tail_pct, 2)}
        return metrics, passes * len(ops), failures(results), info
    # Traced passes alternate with untraced reference passes (fresh
    # processes both) for trace.overhead_frac.  An op marked
    # reference=False (the level-5 BFS) is too long to run a second time
    # within one run, so the ratio covers the other ops.
    kept = [op for op in ops if op.get("reference", True)]
    traced, reference = [], []
    for _ in range(passes):
        traced.append(run_worker(ops, True, tmp, deadline))
        reference.append(run_worker(kept, False, tmp, deadline))
    traced_kept = [{"ops": [r["ops"][i] for i, op in enumerate(ops) if op.get("reference", True)]}
                   for r in traced]
    traced_s = sum(fastest(kept, traced_kept))
    plain_s = sum(fastest(kept, reference))
    counts = traced[0]["counts"]
    if any(r["counts"] != counts for r in traced):
        raise BenchError("layer counts differ between passes of the same ops")
    values = {name: min(r["layers"].get(name[:-2], 0.0) for r in traced)
              for name in PER_LAYER if name.endswith(".s")}
    values.update(counts)
    windows = counts["closure.windows"]
    values["closure.ns_per_window"] = 1e9 * values["closure.verdict.s"] / windows if windows else 0.0
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    info = {"ops": len(ops), "passes": passes, "spans": traced[0]["spans"],
            "reference_ops": len(kept)}
    return metrics, passes * len(ops), failures(traced + reference), info


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = os.path.join(ROOT, "src", "grigtree")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "src_lines": lines}


def check_checkout():
    if not os.path.isfile(os.path.join(ROOT, "src", "grigtree", "cli.py")):
        raise BenchError(f"no grigtree sources under {os.path.join(ROOT, 'src')}")


def make_tmp() -> str:
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    return tmp


def remove_tmp(tmp: str):
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(tmp))
    except OSError:  # another run still uses it
        pass


def run_once(args) -> int:
    check_checkout()
    deadline = time.monotonic() + RUN_LIMIT_S
    tmp = make_tmp()
    try:
        ops = workload_ops(args.workload, args.seed, args.seconds, tmp)
        metrics, attempted, failed, info = measure(ops, PASSES[args.workload],
                                                   args.trace == 1, tmp, deadline)
    finally:
        remove_tmp(tmp)
    for i, kind, problem in failed:
        print(f"FAILED op {i} ({kind}): {problem}", file=sys.stderr)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                fail_frac=len(failed) / attempted, environment=environment())
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


def selftest() -> int:
    """Small runs of every workload, both modes: every metric is emitted
    with the unit BENCHMARK.json gives it, and a planted wrong expectation
    (a wrong violation vertex) turns a run into a failure."""
    check_checkout()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}, \
        {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if declared != (END_TO_END, PER_LAYER):
        problems.append("BENCHMARK.json metrics differ from the ones run.py emits")
    if tuple(w["name"] for w in spec["workloads"]) != WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    deadline = time.monotonic() + RUN_LIMIT_S
    tmp = make_tmp()
    try:
        for name in WORKLOADS:
            for trace in (False, True):
                ops = selftest_ops(name, 1, tmp)
                metrics, attempted, failed, _ = measure(ops, PASSES[name], trace, tmp, deadline)
                want = PER_LAYER if trace else END_TO_END
                got = {k: v["unit"] for k, v in metrics.items()}
                if got != want or failed:
                    problems.append(f"{name} trace={int(trace)}: units {got == want}, "
                                    f"failures {failed}")
        ops = selftest_ops("closure-deep", 1, tmp)
        flipped = next(op for op in ops if "flip" in op)
        flipped["out"] = "VIOLATION vertex=" + flipped["flip"][1] + "\n"  # planted
        _, _, failed, _ = measure(ops, 1, False, tmp, deadline)
        if [op_kind for _, op_kind, _ in failed] != ["closure"]:
            problems.append(f"planted wrong vertex was not caught: {failed}")
    finally:
        remove_tmp(tmp)
    for problem in problems:
        print("selftest:", problem, file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    try:
        return selftest() if args.selftest else run_once(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
