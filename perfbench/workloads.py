"""Seeded inputs and independently derived expected outputs.

An op is one user-level call into grigtree, described by a JSON-ready
dict that worker.py executes.  Every expected output here comes from
mathematics stated in the paper or the README, never from grigtree:

* |G/St(n)| = 2^(5 * 2^(n-3) + 2) for n >= 3 (Bartholdi, Grigorchuk and
  Sunic, "Branch groups", 2003) gives the coset count;
* group elements, the element f and every kbar = (k, kbar) lie in the
  closure, so their checks print "OK depth=d";
* sampled portraits satisfy every window constraint by construction;
* flipping the bit at a vertex v with |v| >= 3 changes exactly one beta
  of the shallowest window containing v, the one rooted at v[:-3].  The
  two admissible rows of each (alpha0, alpha1) differ in every beta, so
  that window fails and the check prints "VIOLATION vertex=<v[:-3]>".
"""

from __future__ import annotations

import os
import random

ALPHABET = "abcd"


def coset_count(level: int) -> int:
    """|G/St(level)| from the closed formula (valid for level >= 3)."""
    return 2 ** (5 * 2 ** (level - 3) + 2)


def cache_key_width(level: int) -> int:
    """Bytes per key in the README's cache format: 1, 2 or 4, the first
    that holds 2^level - 1 bits."""
    bits = 2 ** level - 1
    return next(w for w in (1, 2, 4) if bits <= 8 * w)


def quotient_ops(level: int, seed: int, tmp: str) -> list[dict]:
    """The level-n cross-check: BFS the quotient through the CLI, load its
    cache back, and compare it with the constraint-based enumeration.
    That enumeration also runs once before the BFS: ops sharing a `key`
    count once, at their fastest, and the two runs lie a BFS apart."""
    cache = os.path.join(tmp, f"quotient{level}.bin")
    count = coset_count(level)
    admissible = {"kind": "admissible", "key": "admissible", "level": level, "count": count}
    return [
        admissible,
        {"kind": "enumerate", "level": level, "count": count, "path": cache,
         "seed": seed,  # picks the keys the traced run probes
         "argv": ["enumerate", "--level", str(level), "--large", "--out", cache],
         "out": f"level={level} count={count}\n", "rc": 0,
         # Too long to run twice within one traced run (see run.py).
         "reference": False},
        {"kind": "load", "level": level, "count": count, "path": cache},
        dict(admissible, compare=True),
    ]


def _check(elem: str, depth: int, **extra) -> dict:
    op = {"kind": "closure", "argv": ["check-closure", elem, "--depth", str(depth)],
          "out": f"OK depth={depth}\n", "rc": 0}
    op.update(extra)
    return op


def _k_word(rng: random.Random) -> str:
    """A product of 1-3 conjugates reverse(w) + "abab" + w."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        w = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 5)))
        parts.append(w[::-1] + "abab" + w)
    return "".join(parts)


def _flip_vertex(rng: random.Random, depth: int) -> str:
    """A vertex on the deepest checked level, so every level above it is
    scanned and the work varies little between seeds."""
    return format(rng.randrange(2 ** (depth - 1)), f"0{depth - 1}b")


def closure_ops(seed: int, rounds: int, depth: int, tmp: str) -> list[dict]:
    """Deep closure checks over all three element families: Mealy
    (auto:f, auto:grig#s), recursion (kbar) and truncation (sampled
    portraits, clean and with one flipped bit)."""
    ops = []
    for r in range(rounds):
        rng = random.Random(f"closure-deep/{seed}/{r}")
        ops.append(_check("auto:f", depth))
        ops.append(_check(f"auto:grig#{rng.choice(ALPHABET)}", depth))
        ops.append(_check("kbar:" + _k_word(rng), depth))
        sample_seed = rng.randrange(2 ** 31)
        clean = os.path.join(tmp, f"sample{r}.txt")
        flipped = os.path.join(tmp, f"flipped{r}.txt")
        ops.append({"kind": "sample", "seed": sample_seed, "depth": depth, "path": clean,
                    "argv": ["sample", "--seed", str(sample_seed), "--depth", str(depth)],
                    "rc": 0})
        ops.append(_check("portrait:" + clean, depth))
        v = _flip_vertex(rng, depth)
        ops.append(_check("portrait:" + flipped, depth, flip=[clean, v],
                          out=f"VIOLATION vertex={v[:-3] or '-'}\n", rc=1))
    return ops


def words_ops(seed: int, rounds: int, samples: int, words_per_round: int,
              min_len: int, max_len: int) -> list[dict]:
    """Many shallow checks: verify ops (each `samples` random words at
    depth 8) and long-word checks at depth 8, each followed by the
    pair-count betas compared with the portrait betas."""
    ops = []
    for r in range(rounds):
        rng = random.Random(f"verify-words/{seed}/{r}")
        s = rng.randrange(2 ** 31)
        ops.append({"kind": "verify",
                    "argv": ["verify", "--samples", str(samples), "--max-len", "100",
                             "--seed", str(s)],
                    "out": f"seed={s} samples={samples} max_len=100 violations=0\n",
                    "rc": 0})
        for i in range(words_per_round):
            # stratified lengths: the length mix is the same in every round
            n = min_len + int((max_len - min_len) * (i + rng.random()) / words_per_round)
            word = "".join(rng.choice(ALPHABET) for _ in range(n))
            ops.append({"kind": "word", "word": word,
                        "argv": ["check-closure", "word:" + word, "--depth", "8"],
                        "out": "OK depth=8\n", "rc": 0})
    return ops


# Work per run is fixed by --seconds (never by measured speed), so wall_s
# compares across commits: PASSES passes of about seconds / PASSES each.
# The round sizes are the seconds one round took at the parent commit
# (2-CPU Xeon VM, Python 3.11, numpy 2.4).  quotient5 is one pass of the
# level-5 cross-check whatever --seconds says: its size is set by the
# level, and it takes about 90 s there.
PASSES = {"quotient5": 1, "closure-deep": 4, "verify-words": 4}
CLOSURE_ROUND_S = 2.5
WORDS_ROUND_S = 0.12


def workload_ops(name: str, seed: int, seconds: int, tmp: str) -> list[dict]:
    if name == "quotient5":
        return quotient_ops(5, seed, tmp)
    if name == "closure-deep":
        rounds = max(1, round(seconds / PASSES[name] / CLOSURE_ROUND_S))
        return closure_ops(seed, rounds, depth=16, tmp=tmp)
    if name == "verify-words":
        rounds = max(1, round(seconds / PASSES[name] / WORDS_ROUND_S))
        return words_ops(seed, rounds, samples=50, words_per_round=4,
                         min_len=2000, max_len=5000)
    raise ValueError(f"unknown workload {name!r}")


def selftest_ops(name: str, seed: int, tmp: str) -> list[dict]:
    """Small versions of each workload for run.py --selftest."""
    if name == "quotient5":
        return quotient_ops(4, seed, tmp)
    if name == "closure-deep":
        return closure_ops(seed, 1, depth=12, tmp=tmp)
    if name == "verify-words":
        return words_ops(seed, 2, samples=5, words_per_round=2, min_len=200, max_len=400)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify-words", "closure-deep", "quotient5")
