import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "scripts" / "cli_digest.py"


@pytest.fixture(scope="module")
def cli_digest():
    spec = importlib.util.spec_from_file_location("cli_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_repeats_and_sees_one_changed_output(cli_digest, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    first = cli_digest.digests()
    assert len(first) == len(cli_digest.CASES)
    assert cli_digest.digests() == first
    monkeypatch.setattr("grigtree.cli.reduce", lambda word: word)
    changed = cli_digest.digests()
    # "reduce -" prints "-" either way
    assert [case for (a, case), (b, _) in zip(first, changed) if a != b] == [
        "reduce abacabadbbcd"]
    assert cli_digest.total(changed) != cli_digest.total(first)
