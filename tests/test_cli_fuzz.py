"""Random argv drawn from the designator grammar: every run of `main`
ends in exit 0, 1 or 2 (argparse's SystemExit(2) included) and raises
nothing else, and an exit 2 prints nothing to stdout.  An argv that
`main` reads without argparse reads as argparse reads it.  Sizes are
small when --large is drawn; without it they may be huge, and must then
be refused before any work."""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from grigtree.cli import _parse, build_parser, main

FILES = {
    "odometer.txt": "s: 1 e s\ne: 0 e e\n",
    "dangling.txt": "s: 1 t s\n",
    "bad-activity.txt": "s: 2 s s\n",
    "duplicate.txt": "s: 0 s s\ns: 1 s s\n",
    "comments.txt": "# nothing here\n\n",
    "portrait.txt": "1\n01\n1001\n00000000\n",
    "ragged.txt": "1\n011\n10\n",
    "junk.txt": "ab: cd\n\x00\xff x",
    "binary.bin": "\udcff\udcfe\x00",
}
PATHS = [*FILES, "missing.txt", ".", "no-dir/x"]
WORDS = ["-", "", "a", "abcd", "abab", "dcbadcbab", "aadd", "abx", "a-b", "ABC", "é"]
JUNK_NUMBERS = ["x", "", "1.5", "-0", "0x10", "1e3", " 4"]
#: With --large only small sizes are drawn; without it, also sizes that
#: every command must refuse before any work.
SMALL = [str(i) for i in range(-3, 5)] + JUNK_NUMBERS
ANY = [str(i) for i in range(-3, 10)] + JUNK_NUMBERS + ["40", "300000000", "9" * 20]
COMMANDS = ["reduce", "decompose", "act", "portrait", "check-closure", "enumerate",
            "hausdorff", "sample", "bounded", "verify"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (root / name).write_bytes(text.encode("utf-8", "surrogateescape"))
    return root


def _elements(root):
    files = [str(root / name) for name in PATHS]
    return ([f"{kind}:{w}" for kind in ("word", "kbar") for w in WORDS]
            + ["auto:f", "auto:grig", "auto:grig#c", "auto:grig#q", "auto:f#", "auto:",
               "word", "x:y", ""]
            + [f"auto:{path}{state}" for path in files for state in ("", "#s", "#zz")]
            + [f"portrait:{path}" for path in files])


@st.composite
def argvs(draw, root):
    large = draw(st.booleans())
    number = st.sampled_from(SMALL if large else ANY)
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]

    def option(flag, values, required=False):
        if required or draw(st.booleans()):
            argv.extend([flag, draw(values)])

    if command in ("reduce", "decompose"):
        argv.append(draw(st.sampled_from(WORDS)))
        if command == "decompose":
            option("--depth", number)
    elif command in ("act", "portrait", "check-closure", "bounded"):
        argv.append(draw(st.sampled_from(_elements(root))))
        if command == "act":
            argv.append(draw(st.sampled_from(["-", "", "0", "0110", "2", "01x"])))
        elif command == "bounded":
            option("--levels", number)
        else:
            option("--depth", number, required=True)
        if command == "portrait":
            option("--format", st.sampled_from(["text", "dot", "svg"]))
    elif command == "enumerate":
        option("--level", number, required=True)
        option("--out", st.sampled_from(["out.bin", ".", "no-dir/out.bin"]).map(
            lambda name: str(root / name)))
    elif command == "hausdorff":
        option("--max-level", number, required=True)
    elif command == "sample":
        option("--seed", st.sampled_from(["0", "-7", "9" * 30, "x"]))
        option("--depth", number, required=True)
    else:
        option("--samples", number, required=True)  # the default 1000 takes 50 ms
        option("--max-len", number)
        option("--seed", number)
    if large and command != "reduce":
        argv.append("--large")
    if draw(st.integers(0, 9)) == 0:  # often a usage error: a dropped or unknown argument
        if len(argv) > 1 and draw(st.booleans()):
            del argv[draw(st.integers(1, len(argv) - 1))]
        else:
            argv.append(draw(st.sampled_from(["--bogus", "extra"])))
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exits_cleanly_on_random_argv(files, data):
    argv = data.draw(argvs(files), label="argv")
    parsed = _parse(argv)  # None leaves argv to argparse
    if parsed is not None:
        assert vars(parsed) == vars(build_parser().parse_args(argv))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue()
