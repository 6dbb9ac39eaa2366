"""Run one workload's ops in this process and print one JSON result line.

Usage (run.py starts it): worker.py <src-dir> <ops.json> <trace 0|1>

Untraced, each op is the user-level call itself: `grigtree.cli.main(argv)`
with stdout captured, or a public grigtree function where the CLI has no
command.  Traced, each op is replayed as its public layer calls (for a
closure check: parse_element, then portrait_of, then
portrait_closure_verdict), one span per call.  Spans stay in memory until
the run ends; a span's self time is its duration minus its children's.
Probes after an op time extra layer calls on the op's data (witness
lookups, section words); they belong to no op span.

Op timings exclude input preparation and the expectation checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import struct
import sys
import time

import numpy as np

import grigtree as gt
from grigtree import cli

from workloads import cache_key_width, coset_count

WITNESS_PROBES = 256
SECTION_DEPTH = 7  # a depth-8 portrait reads the sections of levels 0..7


class Tracer:
    """Spans (name, op id, parent span, start, end), kept until the end.
    A span's parent is the op span open when it starts, if any."""

    def __init__(self):
        self.spans: list = []
        self.parent: int | None = None
        self.op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self.parent
        start = time.perf_counter()
        try:
            yield index
        finally:
            self.spans[index] = (name, self.op, parent, start, time.perf_counter())

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, _, _, start, end) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out


class Runner:
    def __init__(self, trace: bool):
        self.tracer = Tracer() if trace else None
        self.counts = {"oracle.cosets": 0, "tree.bits": 0, "closure.windows": 0,
                       "words.section_letters": 0, "words.reduced_letters": 0}
        self.loaded = None  # the PortraitSet read back by a load op
        self.quotient = None  # the traced BFS result, for its probes
        self.ops: list = []

    # -- untraced ops: the user-level call itself -------------------------

    def plain(self, op):
        kind = op["kind"]
        rc = None
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            if kind == "load":
                result = gt.load_portrait_set(op["path"])
            elif kind == "admissible":
                result = gt.enumerate_admissible_decorations(op["level"])
            else:
                rc = cli.main(op["argv"])
                if kind == "word":
                    counts = gt.beta_from_counts(op["word"])
                    profile = gt.beta_profile(gt.portrait_of(gt.word_element(op["word"]), 4))
            elapsed = time.perf_counter() - start
        if kind == "word":
            result = (buf.getvalue(), counts, profile.as_tuple()[2:])
        elif rc is not None:
            result = buf.getvalue()
        return result, rc, elapsed

    # -- traced ops: replayed as public layer calls -----------------------

    def traced(self, op):
        tr = self.tracer
        buf = io.StringIO()
        # The op span's self time (the op minus its layer calls) is cli.self.
        with tr.span("cli.self") as op_span:
            tr.parent = op_span
            try:
                with contextlib.redirect_stdout(buf):
                    result, rc = getattr(self, "replay_" + op["kind"])(op)
            finally:
                tr.parent = None
        _, _, _, start, end = tr.spans[op_span]
        if result is None:
            result = buf.getvalue()
        return result, rc, end - start

    def _portrait(self, g, kind, depth):
        with self.tracer.span(f"tree.portrait_of.{kind}"):
            p = gt.portrait_of(g, depth)
        self.counts["tree.bits"] += 2 ** depth - 1
        return p

    def _verdict(self, p):
        with self.tracer.span("closure.verdict"):
            v = gt.portrait_closure_verdict(p)
        if v:
            self.counts["closure.windows"] += 2 ** (p.depth - 3) - 1
        else:
            u = v.violation
            self.counts["closure.windows"] += 2 ** len(u) + (int(u, 2) if u else 0)
        return v

    def _check_element(self, argv):
        args = cli.build_parser().parse_args(argv)
        with self.tracer.span("automata.parse_element"):
            g, _ = cli.parse_element(args.elem)
        v = self._verdict(self._portrait(g, args.elem.partition(":")[0], args.depth))
        print(v.format())
        return 0 if v else 1

    def replay_closure(self, op):
        return None, self._check_element(op["argv"])

    def replay_word(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self._check_element(op["argv"])
        with self.tracer.span("words.beta_from_counts"):
            counts = gt.beta_from_counts(op["word"])
        g = gt.word_element(op["word"])
        p = self._portrait(g, "word", 4)
        with self.tracer.span("closure.beta_profile"):
            profile = gt.beta_profile(p)
        return (buf.getvalue(), counts, profile.as_tuple()[2:]), rc

    def replay_verify(self, op):
        # verify_window_constraints, as its docstring specifies it
        args = cli.build_parser().parse_args(op["argv"])
        rng = random.Random(args.seed)
        bad = 0
        for _ in range(args.samples):
            with self.tracer.span("oracle.sample_words"):
                length = rng.randint(0, args.max_len)
                word = "".join(rng.choice(gt.ALPHABET) for _ in range(length))
            with self.tracer.span("words.word_element"):
                g = gt.word_element(word)
            bad += not self._verdict(self._portrait(g, "word", 8))
        print(f"seed={args.seed} samples={args.samples} max_len={args.max_len} "
              f"violations={bad}")
        return None, 0 if bad == 0 else 1

    def replay_sample(self, op):
        args = cli.build_parser().parse_args(op["argv"])
        with self.tracer.span("closure.sample"):
            p = gt.sample_closure_element(args.seed, args.depth)
        print(f"# seed={args.seed} depth={args.depth}")
        print(p.to_text(), end="")
        return None, 0

    def replay_enumerate(self, op):
        args = cli.build_parser().parse_args(op["argv"])
        with self.tracer.span("oracle.enumerate_quotient"):
            q = gt.enumerate_quotient(args.level)
        print(f"level={q.level} count={len(q)}")
        with self.tracer.span("oracle.save"):
            gt.save_portrait_set(args.out, q)
        self.quotient = q
        return None, 0

    def replay_load(self, op):
        with self.tracer.span("oracle.load"):
            return gt.load_portrait_set(op["path"]), None

    def replay_admissible(self, op):
        with self.tracer.span(f"oracle.admissible{op['level']}"):
            return gt.enumerate_admissible_decorations(op["level"]), None

    # -- probes: extra layer calls on an op's data, outside its span ------

    def probe(self, op, result) -> str | None:
        tr = self.tracer
        if op["kind"] == "enumerate":
            q, self.quotient = self.quotient, None
            self.counts["oracle.cosets"] += len(q)
            rng = np.random.default_rng(op["seed"])
            keys = [int(k) for k in rng.choice(q.keys, WITNESS_PROBES, replace=False)]
            with tr.span("oracle.witness"):
                words = [q.witness(k) for k in keys]
            for key, word in zip(keys, words):
                if gt.portrait_of(gt.word_element(word), q.level).pack() != key:
                    return f"witness {word!r} does not reach key {key}"
            shuffled = rng.permutation(q.keys)
            with tr.span("oracle.portrait_set"):
                pset = gt.PortraitSet(q.level, shuffled)
            if not np.array_equal(pset.keys, q.keys):
                return "PortraitSet of shuffled keys differs from the quotient keys"
            level = q.level - 1
            with tr.span(f"oracle.admissible{level}"):
                sub = gt.enumerate_admissible_decorations(level)
            if len(sub) != coset_count(level):
                return f"admissible level-{level} set has {len(sub)} keys"
        elif op["kind"] == "word":
            with tr.span("words.section_words"):
                sections = gt.section_words(op["word"], SECTION_DEPTH)
            with tr.span("words.reduce"):
                reduced = [gt.reduce(w) for w in sections.values()]
            self.counts["words.section_letters"] += sum(map(len, sections.values()))
            self.counts["words.reduced_letters"] += sum(map(len, reduced))
        return None

    # -- checks against the expectations in the op -----------------------

    def check(self, op, result, rc) -> str | None:
        kind = op["kind"]
        if kind == "load":
            self.loaded = result
            if result.level != op["level"] or len(result) != op["count"]:
                return f"loaded level {result.level} with {len(result)} keys"
            if not np.all(result.keys[1:] > result.keys[:-1]):
                return "loaded keys are not strictly ascending"
            return None
        if kind == "admissible":
            if len(result) != op["count"]:
                return f"admissible set has {len(result)} keys, expected {op['count']}"
            if op.get("compare") and (self.loaded is None
                                      or not np.array_equal(result.keys, self.loaded.keys)):
                return "admissible keys differ from the enumerated quotient keys"
            return None
        if kind == "word":
            out, counts, profile = result
            if tuple(counts) != tuple(profile):
                return f"beta_from_counts {counts} != beta_profile {profile}"
            result = out
        if (result, rc) != (op.get("out", result), op["rc"]):
            return f"rc={rc} out={result[:80]!r}, expected rc={op['rc']} out={op['out']!r}"
        if kind == "enumerate":
            return check_cache(op)
        if kind == "sample":
            return check_sample(op, result)
        return None

    def run(self, index, op):
        problem = None
        elapsed = 0.0
        try:
            prepare(op)
            if self.tracer is None:
                result, rc, elapsed = self.plain(op)
            else:
                self.tracer.op = index
                result, rc, elapsed = self.traced(op)
            problem = self.check(op, result, rc)
            if problem is None and op["kind"] == "sample":
                with open(op["path"], "w", encoding="utf-8") as fh:
                    fh.write(result)
            if problem is None and self.tracer is not None:
                problem = self.probe(op, result)
        except Exception as exc:  # an op that raises is a failed op
            problem = f"raised {type(exc).__name__}: {exc}"
        self.ops.append([op["kind"], elapsed, problem])


def prepare(op):
    """Untimed input preparation: flip one bit of a sampled portrait."""
    if "flip" not in op:
        return
    src, vertex = op["flip"]
    with open(src, encoding="utf-8") as fh:
        rows = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    row = list(rows[len(vertex)])
    i = int(vertex, 2)
    row[i] = "1" if row[i] == "0" else "0"
    rows[len(vertex)] = "".join(row)
    with open(op["argv"][1].partition(":")[2], "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


def check_sample(op, out) -> str | None:
    lines = out.splitlines()
    if lines[:1] != [f"# seed={op['seed']} depth={op['depth']}"]:
        return f"sample header {lines[:1]!r}"
    rows = lines[1:]
    if [len(r) for r in rows] != [2 ** i for i in range(op["depth"])] or \
            any(set(r) - {"0", "1"} for r in rows):
        return "sample rows do not form a portrait of the requested depth"
    return None


def check_cache(op) -> str | None:
    """The cache header and size, read from the documented file format."""
    width = cache_key_width(op["level"])
    with open(op["path"], "rb") as fh:
        level, count = struct.unpack("<II", fh.read(8))
    size = os.path.getsize(op["path"])
    if (level, count, size) != (op["level"], op["count"], 8 + width * op["count"]):
        return f"cache header level={level} count={count} size={size}"
    return None


def main(argv) -> int:
    src, ops_path, trace = argv[1], argv[2], argv[3] == "1"
    if not os.path.abspath(gt.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"grigtree imported from {gt.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    runner = Runner(trace)
    for index, op in enumerate(ops):
        runner.run(index, op)
    result = {"ops": runner.ops}
    if trace:
        result["layers"] = runner.tracer.self_times()
        result["counts"] = runner.counts
        result["spans"] = len(runner.tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
