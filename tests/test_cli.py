import contextlib
import cProfile
import gc
import hashlib
import io
import os
import pstats
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import grigtree as gt
from grigtree.cli import COMMANDS, build_parser, main
from grigtree.tree import vertex_label


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce(capsys):
    assert run(capsys, "reduce", "aabd") == (0, "c\n", "")
    assert run(capsys, "reduce", "abab") == (0, "abab\n", "")
    assert run(capsys, "reduce", "abba") == (0, "-\n", "")
    assert run(capsys, "reduce", "dc") == (0, "b\n", "")
    assert run(capsys, "reduce", "") == (0, "-\n", "")


def test_reduce_reads_dash_as_the_empty_word(capsys):
    # reduce prints "-" for the empty word and reads it back, as decompose does
    assert run(capsys, "reduce", "-") == run(capsys, "reduce", "") == (0, "-\n", "")
    for word in ("abba", "aabd", "abab", "dc", "abacabad"):  # abba reduces to "-"
        code, out, _ = run(capsys, "reduce", word)
        assert run(capsys, "reduce", out.strip()) == (code, out, "")


def test_decompose_single_level(capsys):
    code, out, err = run(capsys, "decompose", "abdabac")
    assert (code, err) == (0, "")
    assert out == "0: cbad  1: aca  sigma: 1\n"


def test_decompose_empty_word(capsys):
    code, out, _ = run(capsys, "decompose", "-")
    assert code == 0
    assert out == "0: -  1: -  sigma: 0\n"


def test_decompose_with_depth(capsys):
    code, out, _ = run(capsys, "decompose", "abdabac", "--depth", "1")
    assert code == 0
    assert out.splitlines() == ["-: abdabac", "0: cbad", "1: aca"]
    code, out, _ = run(capsys, "decompose", "abdabac", "--depth", "2")
    lines = out.splitlines()
    assert lines[0] == "-: abdabac"
    assert [ln.split(":")[0] for ln in lines] == ["-", "0", "1", "00", "01", "10", "11"]
    code, out, _ = run(capsys, "decompose", "abdabac", "--depth", "4")
    assert code == 0
    assert [ln.split(":")[0] for ln in out.splitlines()] == \
        [vertex_label(v) or "-" for v in range(31)]


def test_act(capsys):
    assert run(capsys, "act", "word:a", "011") == (0, "111\n", "")
    assert run(capsys, "act", "word:a", "-") == (0, "-\n", "")
    assert run(capsys, "act", "word:-", "0101") == (0, "0101\n", "")


def test_act_odometer_automaton(capsys, tmp_path):
    path = tmp_path / "odometer.txt"
    path.write_text("# binary adding machine\no: 1 e o\ne: 0 e e\n")
    assert run(capsys, "act", f"auto:{path}", "111") == (0, "000\n", "")
    assert run(capsys, "act", f"auto:{path}", "0101") == (0, "1101\n", "")
    assert run(capsys, "act", f"auto:{path}#e", "0101") == (0, "0101\n", "")


def test_portrait_text(capsys):
    code, out, _ = run(capsys, "portrait", "word:d", "--depth", "3")
    assert code == 0
    assert out == "0\n00\n0010\n"


def test_portrait_dot(capsys):
    code, out, _ = run(capsys, "portrait", "word:a", "--depth", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph portrait {")
    assert '"-" [label="- 1"];' in out
    assert '"-" -> "0";' in out
    assert out.rstrip().endswith("}")


def test_portrait_file_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "portrait", "word:dacab", "--depth", "4")
    assert code == 0
    path = tmp_path / "p.txt"
    path.write_text(out)
    for vertex in ("0000", "0101", "1110", "1011"):
        _, via_portrait, _ = run(capsys, "act", f"portrait:{path}", vertex)
        _, via_word, _ = run(capsys, "act", "word:dacab", vertex)
        assert via_portrait == via_word


def test_check_closure_ok(capsys):
    code, out, _ = run(capsys, "check-closure", "word:abab", "--depth", "6")
    assert code == 0
    assert out == "OK depth=6\n"
    code, out, _ = run(capsys, "check-closure", "auto:f", "--depth", "8")
    assert (code, out) == (0, "OK depth=8\n")


def test_check_closure_violation(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0\n00\n0000\n10000000\n")
    code, out, _ = run(capsys, "check-closure", f"portrait:{path}", "--depth", "4")
    assert code == 1
    assert out == "VIOLATION vertex=-\n"


def test_check_closure_depth_too_small(capsys):
    code, out, err = run(capsys, "check-closure", "word:a", "--depth", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_enumerate(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate", "--level", "3")
    assert (code, out) == (0, "level=3 count=128\n")
    path = tmp_path / "level3.bin"
    code, out, _ = run(capsys, "enumerate", "--level", "3", "--out", str(path))
    assert code == 0
    cached = gt.load_portrait_set(path)
    assert cached.level == 3 and len(cached) == 128
    # a cache that cannot be written fails before any output
    code, out, err = run(capsys, "enumerate", "--level", "3", "--out", str(tmp_path))
    assert (code, out) == (2, "") and err.startswith("error:")


def test_enumerate_guard_rails(capsys):
    assert run(capsys, "enumerate", "--level", "5") == (2, "", (
        "error: --level 5 is above 4, and level 5 holds ~4.2M portraits; "
        "pass --large to allow it\n"))
    for level in ("0", "6"):  # out of range: no --large hint, with or without it
        for large in ([], ["--large"]):
            assert run(capsys, "enumerate", "--level", level, *large) == (
                2, "", f"error: level must be between 1 and 5, got {level}\n")


def test_hausdorff_table(capsys):
    code, out, _ = run(capsys, "hausdorff", "--max-level", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1\t1\t1\t1\t1.000000"
    assert lines[3] == "4\t12\t15\t4/5\t0.800000"
    code, _, err = run(capsys, "hausdorff", "--max-level", "0")
    assert code == 2 and err.startswith("error:")


def test_hausdorff_refuses_levels_past_the_int_string_limit(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        # 2^14285 - 1 has 4301 digits: refused before any line is printed
        assert run(capsys, "hausdorff", "--max-level", "14285") == (
            2, "", "error: --max-level above 14284 exceeds the 4300-digit "
                   "limit for printing integers\n")
        sys.set_int_max_str_digits(640)  # the smallest limit; 2^2126 - 1 has 640 digits
        code, out, err = run(capsys, "hausdorff", "--max-level", "2126")
        total = str((1 << 2126) - 1)
        assert (code, err, len(total)) == (0, "", 640)
        assert out.splitlines()[-1].startswith(f"2126\t{gt.free_bit_count(2126)}\t{total}\t")
        assert run(capsys, "hausdorff", "--max-level", "2127")[:2] == (2, "")
    finally:
        sys.set_int_max_str_digits(limit)


def test_sample_is_deterministic(capsys):
    code, out1, _ = run(capsys, "sample", "--seed", "5", "--depth", "4")
    assert code == 0
    lines = out1.splitlines()
    assert lines[0] == "# seed=5 depth=4"
    body = "\n".join(lines[1:]) + "\n"
    assert body == gt.sample_closure_element(5, 4).to_text()
    _, out2, _ = run(capsys, "sample", "--seed", "5", "--depth", "4")
    assert out2 == out1
    code, _, err = run(capsys, "sample", "--seed", "5", "--depth", "3")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("seed", ["-1", str(1 << 64), str(10 ** 30)])
def test_sample_rejects_seeds_outside_64_bits(capsys, seed):
    # verify draws its words from the same seed domain
    for argv in (["sample", "--depth", "4"], ["verify", "--samples", "1"]):
        code, out, err = run(capsys, *argv, "--seed", seed)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "2^64" in err


def test_cli_import_loads_no_hashlib_numpy_random_or_fractions():
    # each would cost every process start; fractions is imported on use,
    # and verify draws its words without numpy.random
    code = ("import sys, grigtree.cli; grigtree.cli.main(['verify', '--samples', '3']); "
            "print(*(m in sys.modules for m in "
            "('hashlib', 'numpy.random', 'fractions', 'decimal')))")
    env = dict(os.environ, PYTHONPATH=str(Path(gt.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[0] == "seed=0 samples=3 max_len=100 violations=0"
    assert out.stdout.splitlines()[1].split() == ["False"] * 4


#: Output of `sample`, whose bits come from the SplitMix64 counter hash (`closure._drawn_bits`).
SAMPLE_SHA256 = {
    (0, 4): "8e55ec28247270f9390604bf658ce8b04d9f5fb31cc50dbbd2f70e063d1a98e0",
    (0, 9): "99d5436b2329772a09b81789295cab69c01be1d3b64941d05171ffb18ed6d534",
    (0, 16): "c472b75a94df6a7580c3f575b80fdfd94c711ef3c3fb64654d211cfe2c6ca59c",
    (5, 4): "5c7480f5b19b3dee9576fce847c06bdcffcfda38dcd6de7abe5371956cad4cc0",
    (5, 9): "25ce14fb2bd12302571a6ef0344eaef9db2d5a2d31cec320ce2acdeb77e5a466",
    (5, 16): "205431fdc74b25409f04748f1835476630be1b37b808fe71615840819f1d34ae",
    (12345, 4): "7c65eb08927085c374c8a66fbe14bc02bd691fa65a5c6ff42feacddf6da4cb9a",
    (12345, 9): "26c0fddc400f3fcf4ed6671c353719fe5f61325eb61326e0b151208de52fa91a",
    (12345, 16): "8a84582508a2a2665e5fdbc3cefcdaa259bf6e59c8a85f03ce8f621e5dfaf405",
}


@pytest.mark.parametrize("seed,depth", sorted(SAMPLE_SHA256))
def test_sample_output_bytes_are_pinned(capsys, seed, depth):
    code, out, _ = run(capsys, "sample", "--seed", str(seed), "--depth", str(depth))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_SHA256[seed, depth]


PORTRAIT_KBAR_WORD = gt.k_word(["b", "cab"])

PORTRAIT_SHA256 = {
    ("auto:f", 10, "text"): "7092a0a7eef233331d0d8f1e0231b32b67dbc40d37bee03deb5aef08f5118360",
    ("auto:f", 10, "dot"): "c2207475a38451132bb6239ace909dc374ca456549ec822fbde072505026dbbf",
    ("word:abacabad", 9, "text"): "bf53f20c7bae5b5a0bcfc5f42a16c829850eb1e409028f8087ef278b2318c5d0",
    ("word:abacabad", 9, "dot"): "898ea845841b9a42eb7c7cd63d181adcfd7899ad9de7b2f58f230a8b82c153cf",
    (f"kbar:{PORTRAIT_KBAR_WORD}", 9, "text"):
        "a0429ee91c063aab039bca961b2fef7fdae61de3938471c6e0e0e56cdb296d04",
    (f"kbar:{PORTRAIT_KBAR_WORD}", 9, "dot"):
        "425a39cf40057d6f5eb459e18d82e871e092a9731e0ecd0b9d710f8f8b6e14f8",
    ("auto:f", 18, "text"): "a93ba34f2ecfb26fcdc294db7437386c9e8a3a0f98b077f913f1615a3bc18265",
    ("word:abacabad", 20, "text"):
        "9b14c0c251ba3ae738905e91a3cf21e70340aac26ee2a7460e4b4c934cbc7f87",
    (f"kbar:{PORTRAIT_KBAR_WORD}", 18, "text"):
        "c9f4ddbbad8b802ec1ab7fb6c334998ad42303e555a22014b6547910f2c4add1",
}


@pytest.mark.parametrize("spec,depth,fmt", sorted(PORTRAIT_SHA256))
def test_portrait_output_bytes_are_pinned(capsys, spec, depth, fmt):
    code, out, _ = run(capsys, "portrait", spec, "--depth", str(depth), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PORTRAIT_SHA256[spec, depth, fmt]


@pytest.mark.parametrize("flip,expected", [
    (None, (0, "OK depth=10\n")),
    ("101100111", (1, "VIOLATION vertex=101100\n")),
    ("0110", (1, "VIOLATION vertex=0\n")),
])
def test_check_closure_of_a_sampled_portrait_file_is_pinned(capsys, tmp_path, flip, expected):
    rows = gt.sample_closure_element(17, 10).to_text().splitlines()
    if flip is not None:
        row = list(rows[len(flip)])
        row[int(flip, 2)] = "10"[int(row[int(flip, 2)])]
        rows[len(flip)] = "".join(row)
    path = tmp_path / "p.txt"
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "check-closure", f"portrait:{path}", "--depth", "10")
    assert (code, out) == expected


def test_bounded_automaton_verdicts(capsys):
    code, out, _ = run(capsys, "bounded", "auto:grig")
    assert code == 0
    assert out == "profile: 1 0 0 0 0 0 0 0 0\nbounded: yes\n"
    code, out, _ = run(capsys, "bounded", "auto:f", "--levels", "4")
    assert code == 1
    assert out == "profile: 1 2 4 6 14\nbounded: no\n"


def test_bounded_word_element_prints_profile_only(capsys):
    code, out, _ = run(capsys, "bounded", "word:d")
    assert code == 0
    assert out == "profile: 0 0 1 1 0 1 1 0 1\n"


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "20", "--max-len", "20",
                       "--seed", "3")
    assert code == 0
    assert out == "seed=3 samples=20 max_len=20 violations=0\n"


@pytest.mark.parametrize("seed", [0, 11, 2024])
def test_verify_output_is_pinned(capsys, seed):
    assert run(capsys, "verify", "--samples", "2000", "--seed", str(seed)) == (
        0, f"seed={seed} samples=2000 max_len=100 violations=0\n", "")


@pytest.mark.parametrize("flagged, line", [(0, "violation: c"), (1, "violation: -")])
def test_verify_prints_each_violation(capsys, monkeypatch, flagged, line):
    # seed 29 draws the words c, (empty) and cadba; one of them is made to fail
    def one_failing(bits):
        bad = np.zeros((bits.shape[0], 1), dtype=bool)
        bad[flagged] = True
        return bad

    monkeypatch.setattr("grigtree.closure._failing_windows", one_failing)
    assert run(capsys, "verify", "--samples", "3", "--max-len", "5", "--seed", "29") == (
        1, f"seed=29 samples=3 max_len=5 violations=1\n{line}\n", "")


def _quiet(argv):
    """main(argv) with stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("argv, calls", [
    # 511,487 with one rng.choice per letter, 145,637 with one decomposition per
    # word, 34,096 with Mersenne Twister words, 27,612 with IDENTITY roots,
    # 26,611 while word states were built past their constructor
    (["verify", "--samples", "1000"], 22_959),
    # 459 while every vertex of a level was hashed and the free index summed
    (["sample", "--depth", "16"], 325),
    # state tables of the three other element families: 477, 841 and 1,049
    # with one `_children()` call per state; 709 and 745 for the last two
    # while word states were built past their constructor; 454 and 692 for
    # the checks while they scanned all 2^depth portrait bits, not one
    # window per state
    (["check-closure", "auto:f", "--depth", "20"], 299),
    (["check-closure", "kbar:abab", "--depth", "16"], 560),
    (["portrait", "word:abacabad", "--depth", "22"], 722),
    # as at depth 20: f's graph is complete after five states
    (["check-closure", "auto:f", "--depth", "22"], 299),
])
def test_python_call_count_is_gated(argv, calls):
    # an exact count of the work, after a warm-up that fills the caches;
    # with the collector off, no gc callback (hypothesis adds one) is counted
    profile = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
        gc.disable()
        try:
            profile.runcall(main, argv)
        finally:
            gc.enable()
    assert pstats.Stats(profile).total_calls <= calls


def traced_peak(setup: str, code: str) -> int:
    """The tracemalloc peak of `code`, run after `setup` in a fresh
    interpreter: in this process, the tests before would shape the heap."""
    script = (f"import tracemalloc\n{setup}\ntracemalloc.start()\n{code}\n"
              "print(tracemalloc.get_traced_memory()[1])")
    env = dict(os.environ, PYTHONPATH=str(Path(gt.__file__).parents[1]))
    return int(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True).stdout)


@pytest.mark.parametrize("argv, peak", [
    # 4,925,000 while read in the test process, where it varied by about
    # 1.1 kB with the tests before it (8,105,606 with one rng.choice per letter)
    (["verify", "--samples", "10000"], 4_920_377),
    # the first word of seed 47094 has 495,028 letters; 3,222,591 while read
    # in the test process (3,220,329 for the Mersenne Twister word of that length)
    (["verify", "--samples", "1", "--max-len", "1990000", "--seed", "47094"], 3_222_282),
])
def test_verify_memory_is_gated(argv, peak):
    # the second bound is the peak of the numpy pass that decomposes the
    # one long word; the first run is a warm-up
    setup = ("import contextlib, io\nfrom grigtree.cli import main\ndef run():\n"
             f"    with contextlib.redirect_stdout(io.StringIO()):\n        main({argv!r})\nrun()")
    assert traced_peak(setup, "run()") <= peak


def test_verify_state_count_is_gated(monkeypatch):
    # the states that verify's state tables expand, both children at once:
    # 985, 337 and 5 on three levels
    counted = []
    children_of = gt.tree._children_of
    monkeypatch.setattr("grigtree.tree._children_of",
                        lambda states: counted.append(len(states)) or children_of(states))
    _quiet(["verify", "--samples", "1000"])
    assert sum(counted) <= 1_327


#: Automaton files that must not load: a dangling state, an activity of
#: 2 and a duplicate state.
BAD_AUTOMATA = {"dangling": "s: 1 t s\n", "activity": "s: 2 s s\n",
                "duplicate": "s: 0 s s\ns: 1 s s\n"}


@pytest.mark.parametrize("spec", [
    "word:abx",
    "word",
    "nope:x",
    "auto:missing.txt",
    "auto:grig#z",
    "kbar:ab",
    *(f"auto:{{{name}}}" for name in BAD_AUTOMATA),
])
def test_bad_element_specs_exit_2(capsys, tmp_path, spec):
    for name, text in BAD_AUTOMATA.items():
        (tmp_path / name).write_text(text)
    spec = spec.format(**{name: tmp_path / name for name in BAD_AUTOMATA})
    code, out, err = run(capsys, "act", spec, "-")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_bad_portrait_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0\n02\n")
    code, _, err = run(capsys, "act", f"portrait:{path}", "-")
    assert code == 2 and err.startswith("error:")


def test_bad_vertex_exits_2(capsys):
    code, _, err = run(capsys, "act", "word:a", "012")
    assert code == 2 and err.startswith("error:")


def test_unknown_subcommand_raises_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    with pytest.raises(SystemExit):
        main([])


def test_kbar_designator(capsys):
    code, out, _ = run(capsys, "check-closure", "kbar:abab", "--depth", "8")
    assert (code, out) == (0, "OK depth=8\n")
    code, out, _ = run(capsys, "act", "kbar:-", "0011")
    assert (code, out) == (0, "0011\n")


def test_check_closure_of_a_long_kbar_word(capsys):
    word = gt.k_word(["abc"] * 1200)
    assert run(capsys, "check-closure", f"kbar:{word}", "--depth", "6") == (0, "OK depth=6\n", "")


@pytest.mark.parametrize("exc", [RecursionError("too deep"), MemoryError(), OSError("disk full")])
def test_resource_errors_exit_2(capsys, monkeypatch, exc):
    def fail(*args):
        raise exc
    monkeypatch.setattr("grigtree.cli.in_closure_up_to", fail)
    code, out, err = run(capsys, "check-closure", "word:a", "--depth", "4")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.strip() != "error:"


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_reuses_one_parser(capsys):
    commands = [
        ["reduce", "aabd"],
        ["portrait", "word:abd", "--depth", "3"],
        ["check-closure", "word:a", "--depth", "3"],
        ["frobnicate"],
        ["bounded", "auto:grig", "--levels", "4"],
        ["check-closure", "auto:f", "--depth", "6"],
        ["sample", "--seed", "2", "--depth", "4"],
        ["decompose", "abdabac"],
    ]
    reused = [_outcome(capsys, argv) for argv in commands]
    assert build_parser() is build_parser()
    assert [r[0] for r in reused] == [0, 0, 2, 2, 0, 0, 0, 0]
    for argv, outcome in zip(commands, reused):
        build_parser.cache_clear()
        assert _outcome(capsys, argv) == outcome


def _full_parser_outcome(capsys, argv):
    """(exit code, stdout, stderr) of the full parser on argv, which exits."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h", "reduce"], ["frobnicate"], ["--bogus"], ["re"],
    *[[name, "--help"] for name in COMMANDS],
    ["reduce"], ["reduce", "ab", "--bogus"], ["reduce", "a", "b"], ["act", "word:a"],
    ["enumerate", "--level", "x"], ["enumerate"], ["sample", "--seed"],
    ["portrait", "word:a", "--depth", "3", "--format", "svg"],
    # top-level errors raised after a named command, by its one-command parser
    ["check-closure", "auto:f", "--depth", "8", "extra"], ["sample", "--depth", "4", "--bogus"],
    ["reduce", "ab", "--", "cd"], ["verify", "-h"],
])
def test_help_and_usage_errors_are_the_full_parsers(capsys, argv):
    assert _outcome(capsys, argv) == _full_parser_outcome(capsys, argv)


def _fresh_cli(code, *argv, **env):
    """The stdout of a fresh interpreter running code with grigtree importable."""
    env = dict(os.environ, PYTHONPATH=str(Path(gt.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_top_level_help_bytes_are_pinned():
    # the usage whose command list the one-command parsers' metavar spells out
    out = _fresh_cli("import sys, grigtree.cli; grigtree.cli.main()", "--help", COLUMNS="80")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "85dd231a5deec52b09b6cd23f6ffb7567b5245dce3c70ce0c6aac5af1f10d5de")


def test_a_named_command_builds_only_its_own_parser():
    # counted in a fresh process, where no parser is cached yet
    code = ("import argparse, contextlib, io, sys\n"
            "init, built = argparse.ArgumentParser.__init__, []\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "from grigtree.cli import build_parser, main\n"
            "assert not built, 'a parser was built at import'\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            "named = len(built)\n"
            "build_parser()\n"
            "print(code, named, len(built) - named)\n")
    # the top-level parser and the named command's subparser, against one
    # subparser per command in the full parser, built afterwards
    out = _fresh_cli(code, "check-closure", "auto:f", "--depth", "16")
    assert out.split() == ["0", "2", str(1 + len(COMMANDS))]


@pytest.mark.parametrize("argv", [
    ["portrait", "word:a", "--depth", "40"],
    ["portrait", "portrait:no-such-file", "--depth", "23"],
    ["check-closure", "auto:f", "--depth", "40"],
    ["sample", "--seed", "1", "--depth", "40"],
    ["bounded", "auto:f", "--levels", "40"],
    ["bounded", "auto:f", "--levels", "22"],
    ["decompose", "abcd", "--depth", "40"],
    ["decompose", "abcd", "--depth", "19"],
    ["hausdorff", "--max-level", "14000"],
    ["hausdorff", "--max-level", "4001"],
    ["verify", "--samples", "1", "--max-len", "300000000"],
    ["verify", "--samples", "300000000", "--max-len", "0"],
    ["verify", "--samples", "20000"],
])
def test_deep_requests_need_large(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    # refused before any work: a depth-40 portrait would never finish
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--large" in err


def test_decompose_depth_gate(capsys, monkeypatch):
    monkeypatch.setattr("grigtree.cli.MAX_SECTION_DEPTH", 1)
    code, out, err = run(capsys, "decompose", "abdabac", "--depth", "2")
    assert (code, out) == (2, "")
    assert err == "error: --depth 2 is above 1, and each level doubles the work; " \
                  "pass --large to allow it\n"
    code, out, _ = run(capsys, "decompose", "abdabac", "--depth", "2", "--large")
    assert code == 0 and len(out.splitlines()) == 7
    assert run(capsys, "decompose", "abdabac", "--depth", "1") == (0, "-: abdabac\n0: cbad\n1: aca\n", "")


def test_hausdorff_and_verify_size_gates(capsys, monkeypatch):
    monkeypatch.setattr("grigtree.cli.MAX_HAUSDORFF_LEVEL", 3)
    assert run(capsys, "hausdorff", "--max-level", "4") == (
        2, "", "error: --max-level 4 is above 3, and the output grows as its square; "
               "pass --large to allow it\n")
    code, out, _ = run(capsys, "hausdorff", "--max-level", "4", "--large")
    assert code == 0 and out.splitlines()[3] == "4\t12\t15\t4/5\t0.800000"
    monkeypatch.setattr("grigtree.cli.VERIFY_LETTERS", 100)
    assert run(capsys, "verify", "--samples", "10", "--max-len", "3") == (
        2, "", "error: --samples x (--max-len + 8) 110 is above 100, and the time grows "
               "with it; pass --large to allow it\n")
    assert run(capsys, "verify", "--samples", "10", "--max-len", "3", "--large") == (
        0, "seed=0 samples=10 max_len=3 violations=0\n", "")
    assert run(capsys, "verify", "--samples", "10", "--max-len", "2")[0] == 0


@pytest.mark.parametrize("argv, message", [
    (["verify", "--max-len", "-1"], "error: max_len must be non-negative, got -1\n"),
    (["verify", "--samples", "-3"], "error: samples must be non-negative, got -3\n"),
])
def test_verify_rejects_bad_arguments(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", message)


def test_largest_request_without_large_runs(capsys):
    code, out, _ = run(capsys, "bounded", "auto:grig#b", "--levels", "21")
    # b = (a, c), c = (a, d), d = (1, b): one active vertex on each level but every third
    profile = " ".join("0" if n % 3 == 0 else "1" for n in range(22))
    assert (code, out) == (0, f"profile: {profile}\nbounded: yes\n")
