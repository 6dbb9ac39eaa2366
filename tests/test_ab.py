import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "scripts" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_paired_runs(ab):
    a = [10, 12, 11, 13, 9, 14]
    b = [8, 13, 9, 10, 7, 11]
    s = ab.summarize(a, b)
    # quartiles interpolate between order statistics (statistics' "inclusive")
    assert s["a"] == pytest.approx((10.25, 11.5, 12.75))
    assert s["b"] == pytest.approx((8.25, 9.5, 10.75))
    assert s["ratio"] == pytest.approx(9.5 / 11.5)
    assert (s["wins"], s["pairs"]) == (5, 6)
    assert ab.summarize(a, b, lower_is_better=False)["wins"] == 1


def test_summary_counts_ties_as_no_win_and_takes_one_pair(ab):
    s = ab.summarize([2.0], [2.0])
    assert s["a"] == s["b"] == (2.0, 2.0, 2.0)
    assert (s["ratio"], s["wins"], s["pairs"]) == (1.0, 0, 1)
