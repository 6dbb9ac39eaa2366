"""Command-line surface.

Every subcommand prints deterministic text given its arguments (seeds
are explicit and echoed).  Exit codes: 0 for success or a positive
verdict, 1 for a negative verdict (closure violation, unbounded,
verification counterexample), 2 for usage or parse errors.

Element designators:
  word:<abcd-string>     product of generators ("-" for the empty word)
  auto:f                 the built-in unbounded closure element
  auto:grig[#<state>]    the Grigorchuk generator automaton (default
                         state: its root, a)
  auto:<file>[#<state>]  automaton from a text file
  kbar:<word>            the self-similar element (k, kbar) for a
                         conjugate-product word k
  portrait:<file>        truncation read from a portrait text file
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys

from .automata import (activity_profile, element_of, f_automaton,
                       grigorchuk_automaton, is_bounded_automaton,
                       kbar_element, parse_automaton)
from .closure import (free_bit_count, hausdorff_estimate, in_closure_up_to,
                      sample_closure_element, verify_window_constraints)
from .oracle import enumerate_quotient, save_portrait_set
from .tree import (Automorphism, Portrait, TruncationAutomorphism, _check_level, apply,
                   check_vertex, portrait_of, vertex_label)
from .words import _word_element, check_word, decompose_word, reduce, section_words


class DesignatorError(ValueError):
    """Malformed element designator or input file."""


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DesignatorError(f"cannot read {path}: {exc.strerror}") from exc


def _word_arg(word: str) -> str:
    """A word argument, with "-" for the empty word (as _print_word prints it)."""
    return check_word("" if word == "-" else word)


def parse_element(spec: str):
    """Resolve an element designator to (automorphism, automaton-or-None)."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise DesignatorError(f"element designator {spec!r} needs a '<kind>:' prefix")
    if kind == "word":
        return _word_element(_word_arg(rest)), None
    if kind == "kbar":
        word = "" if rest == "-" else rest
        return kbar_element(word), None
    if kind == "auto":
        name, hash_sep, state = rest.partition("#")
        if name == "f":
            automaton = f_automaton()
        elif name == "grig":
            automaton = grigorchuk_automaton()
        else:
            automaton = parse_automaton(_read_file(name))
        if not hash_sep:
            state = automaton.root
        return element_of(automaton, state), automaton
    if kind == "portrait":
        portrait = Portrait.from_text(_read_file(rest))
        return TruncationAutomorphism(portrait), None
    raise DesignatorError(f"unknown element kind {kind!r} in {spec!r}")


def _element(spec: str) -> Automorphism:
    return parse_element(spec)[0]


#: Depth of the deepest portrait built without --large: sampling 2^22
#: vertices takes seconds, and every further level doubles time and memory.
MAX_DEPTH = 22
#: Deepest `decompose --depth` without --large: depth 18 prints 2^19 - 1
#: section words (about 2 s and 160 MiB), and each level doubles both.
MAX_SECTION_DEPTH = 18
#: Highest `hausdorff --max-level` without --large: line n holds 2^n - 1 in
#: decimal, so the output grows as the square of the level; level 4000
#: prints 9.7 MB in about 0.6 s, level 8000 39 MB in 2.3 s.
MAX_HAUSDORFF_LEVEL = 4000
#: Most `verify` work without --large, in letters: samples x (max_len +
#: WORD_LETTERS), a word being charged as 8 letters.  With the letters
#: drawn in bulk and each level of new sections decomposed and reduced in
#: one batch, a letter costs about 0.055 us and a word about 0.9 us before
#: its letters (some 16 letters' worth), so the charge is low, but it
#: keeps the bound well below a second (in-process, on a 2-CPU Xeon VM):
#: one word of 1,803,425 letters (seed 5) takes about 0.1 s, 18,500 words
#: of up to 100 about 0.11 s and 250,000 empty words about 0.22 s; the
#: default 1000 x 100 is 20 times below.
VERIFY_LETTERS = 2_000_000
WORD_LETTERS = 8
_VERIFY_WORK = f"--samples x (--max-len + {WORD_LETTERS})"


def _require_large(args, flag: str, value: int, limit: int,
                   why: str = "each level doubles the work") -> None:
    """Refuse work beyond `limit` unless --large was passed (before any
    work starts)."""
    if value > limit and not args.large:
        raise DesignatorError(
            f"{flag} {value} is above {limit}, and {why}; pass --large to allow it")


def _print_word(word: str) -> None:
    print(word if word else "-")


def cmd_reduce(args) -> int:
    _print_word(reduce(_word_arg(args.word)))
    return 0


def cmd_decompose(args) -> int:
    word = _word_arg(args.word)
    if args.depth is None:
        w0, w1, parity = decompose_word(word)
        print(f"0: {w0 or '-'}  1: {w1 or '-'}  sigma: {parity}")
        return 0
    _require_large(args, "--depth", args.depth, MAX_SECTION_DEPTH)
    for u, w in section_words(word, args.depth).items():
        print(f"{u or '-'}: {w or '-'}")
    return 0


def cmd_act(args) -> int:
    vertex = "" if args.vertex == "-" else args.vertex
    check_vertex(vertex)
    _print_word(apply(_element(args.elem), vertex))
    return 0


def _portrait_dot(p: Portrait) -> str:
    lines = ["digraph portrait {", '  node [shape=circle];']
    for v, bit in enumerate(p.bits.tolist()):
        u = vertex_label(v)
        name = u or "-"
        lines.append(f'  "{name}" [label="{name} {bit}"];')
        if u:
            lines.append(f'  "{u[:-1] or "-"}" -> "{name}";')
    lines.append("}")
    return "\n".join(lines)


def cmd_portrait(args) -> int:
    _require_large(args, "--depth", args.depth, MAX_DEPTH)
    p = portrait_of(_element(args.elem), args.depth)
    if args.format == "dot":
        print(_portrait_dot(p))
    else:
        print(p.to_text(), end="")
    return 0


def cmd_check_closure(args) -> int:
    _require_large(args, "--depth", args.depth, MAX_DEPTH)
    verdict = in_closure_up_to(_element(args.elem), args.depth)
    print(verdict.format())
    return 0 if verdict else 1


def cmd_enumerate(args) -> int:
    _check_level(args.level)  # an out-of-range level gets no --large hint
    _require_large(args, "--level", args.level, 4, "level 5 holds ~4.2M portraits")
    qs = enumerate_quotient(args.level)
    if args.out:  # before any output, so that a failed write prints nothing
        save_portrait_set(args.out, qs)
    print(f"level={qs.level} count={len(qs)}")
    return 0


def cmd_hausdorff(args) -> int:
    if args.max_level < 1:
        raise DesignatorError("--max-level must be at least 1")
    digits = sys.get_int_max_str_digits()  # 0: no limit
    top = (10 ** digits).bit_length() - 1  # the last n with 2^n - 1 < 10^digits
    if digits and args.max_level > top:
        raise DesignatorError(f"--max-level above {top} exceeds the {digits}-digit "
                              "limit for printing integers")
    _require_large(args, "--max-level", args.max_level, MAX_HAUSDORFF_LEVEL,
                   "the output grows as its square")
    for n in range(1, args.max_level + 1):
        free = free_bit_count(n)
        total = (1 << n) - 1
        ratio = hausdorff_estimate(n)
        print(f"{n}\t{free}\t{total}\t{ratio}\t{float(ratio):.6f}")
    return 0


def cmd_sample(args) -> int:
    _require_large(args, "--depth", args.depth, MAX_DEPTH)
    p = sample_closure_element(args.seed, args.depth)
    print(f"# seed={args.seed} depth={args.depth}")
    print(p.to_text(), end="")
    return 0


def cmd_bounded(args) -> int:
    _require_large(args, "--levels", args.levels, MAX_DEPTH - 1)
    g, automaton = parse_element(args.elem)
    profile = activity_profile(g, args.levels)
    print("profile: " + " ".join(str(c) for c in profile))
    if automaton is None:
        return 0
    bounded = is_bounded_automaton(automaton)
    print(f"bounded: {'yes' if bounded else 'no'}")
    return 0 if bounded else 1


def cmd_verify(args) -> int:
    if args.samples >= 0 and args.max_len >= 0:  # else verify says which is negative
        _require_large(args, _VERIFY_WORK, args.samples * (args.max_len + WORD_LETTERS),
                       VERIFY_LETTERS, "the time grows with it")
    report = verify_window_constraints(args.samples, args.max_len, args.seed)
    print(report.summary())
    for word in report.violations:
        print(f"violation: {word or '-'}")
    return 0 if report.ok else 1


def _arg(*flags, **options):
    return flags, options


def _large(what: str = f"portraits deeper than {MAX_DEPTH} levels"):
    return _arg("--large", action="store_true", help=f"allow {what}")


_DEPTH = _arg("--depth", type=int, required=True)
_SEED = _arg("--seed", type=int, default=0, help="0 <= seed < 2^64 (default 0)")
_WORD = _arg("word", help="word over abcd, '-' for the empty word")

#: name: (help, handler, arguments as (flags, add_argument options)).
COMMANDS = {
    "reduce": ("reduce a generator word", cmd_reduce, [_WORD]),
    "decompose": ("section words of a generator word", cmd_decompose, [
        _WORD,
        _arg("--depth", type=int, default=None,
             help="print raw section words for all vertices up to this depth"),
        _large(f"--depth beyond {MAX_SECTION_DEPTH}")]),
    "act": ("image of a vertex under an element", cmd_act, [
        _arg("elem"), _arg("vertex", help="0/1 string, '-' for the root")]),
    "portrait": ("print a depth-d portrait", cmd_portrait, [
        _arg("elem"), _DEPTH, _arg("--format", choices=("text", "dot"), default="text"),
        _large()]),
    "check-closure": ("finite-depth closure membership verdict", cmd_check_closure,
                      [_arg("elem"), _DEPTH, _large()]),
    "enumerate": ("BFS the group modulo the level-n stabilizer", cmd_enumerate, [
        _arg("--level", type=int, required=True),
        _arg("--out", help="write the portrait-key cache to this file"),
        _large("the 4.2M-element level-5 enumeration")]),
    "hausdorff": ("free-bit counts and dimension estimates per level", cmd_hausdorff,
                  [_arg("--max-level", type=int, required=True),
                   _large(f"--max-level beyond {MAX_HAUSDORFF_LEVEL}")]),
    "sample": ("sample a closure-element portrait", cmd_sample,
               [_SEED, _DEPTH, _large()]),
    "bounded": ("activity profile and boundedness", cmd_bounded,
                [_arg("elem"), _arg("--levels", type=int, default=8), _large()]),
    "verify": ("sample random words against the window constraints", cmd_verify, [
        _arg("--samples", type=int, default=1000),
        _arg("--max-len", type=int, default=100),
        _SEED,
        _large(f"{_VERIFY_WORK} beyond {VERIFY_LETTERS}")]),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser for every command, or for the named one only,
    built once per process and reused by every main call.  A one-command
    parser's usage still lists every command, so its top-level errors
    print what the full parser's would."""
    parser = argparse.ArgumentParser(
        prog="grigtree",
        description="Exact computation with binary-tree automorphisms and "
                    "the closure of the Grigorchuk group.")
    metavar = None if command is None else "{%s}" % ",".join(COMMANDS)  # as the full usage
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        help_, func, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # help, no arguments and unknown commands go to the full parser
    parser = build_parser(argv[0]) if argv and argv[0] in COMMANDS else build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DesignatorError, ValueError, RecursionError, MemoryError, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


# What the imports built lives as long as the process.  Frozen, it leaves
# the collector's generations, so the first collections after import do
# not scan it inside whichever command happens to cross their thresholds.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
