"""Digest the output of every CLI command, to show that a change keeps it byte for byte.

    python3 scripts/cli_digest.py

Runs a fixed list of argvs in-process through `grigtree.cli.main` of the
`src/` next to this script, with COLUMNS=80, and hashes each one's exit
code (a usage error's SystemExit code too), stdout and stderr.  The
`enumerate --level n --large --out` cases also hash the cache they write.
The portrait and automaton files the cases read are written to a
temporary directory first, and its path shows in no output.  Prints one
line per case, its digest and its argv, then the digest of all of them.
Run it in two checkouts and compare the totals.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from grigtree import cli  # noqa: E402

#: Files the cases read, written to {dir}: a depth-7 portrait of fixed
#: random bits, an automaton with a comment and a blank line, one whose
#: windows first fail below vertex 01 (at depth 6 and deeper), and one
#: whose state points at a state it does not define.
_BITS = random.Random(51).getrandbits
FILES = {
    "portrait.txt": "# fixed bits\n" + "".join(
        format(_BITS(1 << n), f"0{1 << n}b") + "\n" for n in range(7)),
    "machine.txt": "# three states\ns: 1 t u\nt: 0 u s\n\nu: 0 t u\n",
    "late.txt": "a: 1 b b\nb: 0 b e\nc: 1 d d\nd: 0 c c\ne: 0 d e\n",
    "dangling.txt": "s: 1 t s\n",
}

CASES = [
    "reduce abacabadbbcd", "reduce -",
    "decompose abdabac", "decompose abdabacdcb --depth 4",
    "act word:abacabad 0110101", "act auto:grig#b 0011", "act kbar:abab 0000110",
    "act auto:f 10110", "act portrait:{dir}/portrait.txt 010", "act auto:{dir}/machine.txt#s 0110",
    "portrait word:abacabad --depth 10", "portrait kbar:abab --depth 7 --format dot",
    "portrait auto:f --depth 12", "portrait auto:grig#b --depth 9",
    "portrait portrait:{dir}/portrait.txt --depth 9", "portrait auto:{dir}/machine.txt --depth 8",
    "check-closure auto:f --depth 20", "check-closure kbar:abab --depth 16",
    "check-closure kbar:baababab --depth 12", "check-closure word:abacabad --depth 12",
    "check-closure portrait:{dir}/portrait.txt --depth 7",
    "check-closure auto:{dir}/machine.txt --depth 10",
    "check-closure auto:{dir}/late.txt --depth 5", "check-closure auto:{dir}/late.txt --depth 6",
    *(f"enumerate --level {n} --large --out {{dir}}/level{n}.bin" for n in range(1, 6)),
    "hausdorff --max-level 70",
    "sample --depth 12", "sample --seed 18446744073709551615 --depth 9",
    "bounded auto:f --levels 12", "bounded auto:grig#b --levels 10", "bounded word:abacabad",
    "bounded auto:{dir}/machine.txt",
    "verify", "verify --samples 300 --max-len 40 --seed 9",
    # errors: a bad designator, refused --large, a dangling automaton, usage
    "act word:abx -", "act nope:x -", "portrait word:a --depth 23", "enumerate --level 5",
    "verify --samples 100000", "act auto:{dir}/dangling.txt -", "sample --depth 3",
    "frobnicate", "reduce --help",
]


def run_case(case: str, directory: str) -> str:
    """The hex digest of one case: its exit code, stdout, stderr and the
    cache it wrote, if any."""
    argv = case.replace("{dir}", directory).split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    digest = hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode())
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1], "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def digests() -> list[tuple[str, str]]:
    """(digest, case) for every case, in order."""
    with tempfile.TemporaryDirectory(prefix="cli-digest-") as directory:
        for name, text in FILES.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        return [(run_case(case, directory), case) for case in CASES]


def total(lines: list[tuple[str, str]]) -> str:
    return hashlib.sha256("".join(digest for digest, _ in lines).encode()).hexdigest()


def main() -> None:
    os.environ["COLUMNS"] = "80"  # the width argparse wraps usage and help at
    lines = digests()
    for digest, case in lines:
        print(f"{digest[:16]}  {case}")
    print(f"total {total(lines)}")


if __name__ == "__main__":
    main()
