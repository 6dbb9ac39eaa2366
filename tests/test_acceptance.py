"""End-to-end acceptance checks.

Each test prints one `criterion N: PASS/FAIL - detail` line straight to
the terminal (bypassing capture) and then asserts; a line only reads
PASS when every assertion in its block held.
"""

import hashlib
import random
import resource
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import grigtree as gt
from grigtree import oracle
from grigtree.cli import main
from test_oracle import LAYER_SIZES, layer_parents

FIGURE_ROWS = (
    (1,),
    (1, 1),
    (1, 1, 1, 1),
    (1, 1, 0, 1, 0, 1, 1, 1),
    (0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1),
)


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def check(num, title):
        info = {"detail": ""}
        try:
            yield info
        except BaseException:
            with capsys.disabled():
                print(f"criterion {num}: FAIL - {title}"
                      + (f" ({info['detail']})" if info["detail"] else ""))
            raise
        with capsys.disabled():
            print(f"criterion {num}: PASS - {title}: {info['detail']}")
    return check


def random_words(seed, samples, max_len):
    rng = random.Random(seed)
    for _ in range(samples):
        yield "".join(rng.choice("abcd") for _ in range(rng.randint(0, max_len)))


def test_criterion_01_quotient_enumeration(criterion, capsys):
    with criterion(1, "level-4 quotient has 4096 cosets") as info:
        start = time.perf_counter()
        code = main(["enumerate", "--level", "4"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        info["detail"] = f"{out.strip()} in {elapsed:.2f}s"
        assert code == 0
        assert out == "level=4 count=4096\n"
        assert elapsed < 10.0


def test_criterion_02_characterization_equivalence(criterion, quotient4,
                                                   admissible4):
    with criterion(2, "quotient equals window-admissible set") as info:
        info["detail"] = (f"|quotient|={len(quotient4)} "
                          f"|admissible|={len(admissible4)}, sets identical")
        assert len(quotient4) == 2 ** 12
        assert len(admissible4) == 2 ** 12
        assert np.array_equal(quotient4.keys, admissible4.keys)


def test_criterion_03_pair_counts_give_the_betas(criterion):
    with criterion(3, "pair counts match portrait betas") as info:
        failures = 0
        for word in random_words(2026, 10_000, 200):
            profile = gt.beta_profile(gt.portrait_of(gt.word_element(word), 4))
            betas = (profile.beta00, profile.beta01,
                     profile.beta10, profile.beta11)
            if gt.beta_from_counts(word) != betas:
                failures += 1
        info["detail"] = f"10000 words of length <= 200, {failures} failures"
        assert failures == 0


def test_criterion_04_parity_case_split(criterion):
    with criterion(4, "pair-count parity cases hold") as info:
        failures = 0
        for word in random_words(4096, 10_000, 200):
            n0 = gt.count_p(word, "bc", 0) & 1
            n1 = gt.count_p(word, "bc", 1) & 1
            n00, n01 = gt.count_pq(word, 0, 0) & 1, gt.count_pq(word, 0, 1) & 1
            n10, n11 = gt.count_pq(word, 1, 0) & 1, gt.count_pq(word, 1, 1) & 1
            if n0 == 0:
                ok_zero = n11 == n01 == n00
            else:
                ok_zero = n10 == n01 != n00
            if n1 == 0:
                ok_one = n01 == n11 == n10
            else:
                ok_one = n00 == n11 != n10
            if not (ok_zero and ok_one):
                failures += 1
        info["detail"] = f"10000 words, both parity cases, {failures} failures"
        assert failures == 0


def test_criterion_05_worked_decomposition(criterion):
    with criterion(5, "decomposition of abdabac") as info:
        result = gt.decompose_word("abdabac")
        info["detail"] = f"decompose_word('abdabac') = {result}"
        assert result == ("cbad", "aca", 1)


def test_criterion_06_all_ones_forcing(criterion):
    with criterion(6, "all-ones window completion") as info:
        w = gt.complete_window((1, 1), (1, 1, 1, 1), (1, 1, 1, 1, 1))
        a000, a010, a100 = w.level3[0], w.level3[2], w.level3[4]
        info["detail"] = (f"forced a000={a000} a010={a010} a100={a100}, "
                          f"window admissible")
        assert (a000, a010, a100) == (1, 0, 0)
        assert gt.simulates_grigorchuk(w)


def test_criterion_07_element_f(criterion):
    with criterion(7, "unbounded closure element f") as info:
        f = gt.element_of(gt.f_automaton(), "f")
        assert gt.portrait_of(f, 4).levels == FIGURE_ROWS[:4]
        assert gt.portrait_of(f, 5).levels[4] == FIGURE_ROWS[4]
        assert gt.in_closure_up_to(f, 12)
        assert not gt.is_bounded_automaton(gt.f_automaton())
        assert gt.is_bounded_automaton(gt.grigorchuk_automaton())
        info["detail"] = ("figure rows match (the 16-bit row is level 4), "
                          "closure OK to depth 12, f unbounded, "
                          "generator automaton bounded")


def test_criterion_08_dimension_convergence(criterion, quotient4):
    with criterion(8, "dimension estimates and quotient growth") as info:
        assert gt.hausdorff_estimate(4) == Fraction(12, 15)
        est20 = float(gt.hausdorff_estimate(20))
        assert abs(est20 - 0.625) < 0.01
        for n in (1, 2, 3):
            assert len(gt.enumerate_quotient(n)) == 2 ** gt.free_bit_count(n)
        assert len(quotient4) == 2 ** gt.free_bit_count(4)
        counted = []
        product = oracle._left_product

        def counting(halves, table, out=None):
            counted.append(halves[0].size)
            return product(halves, table, out)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_left_product", counting)
            start = time.perf_counter()
            quotient5 = gt.enumerate_quotient(5)
            elapsed = time.perf_counter() - start
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert len(quotient5) == 2 ** gt.free_bit_count(5) == 4_194_304
        assert elapsed < 120.0
        assert peak_mib < 1024.0
        # a work gate: one _left_product entry per candidate, and every coset
        # but the identity is a candidate; the candidates and the 4,194,304
        # cosets (each sorted once as frontier) are the 11,727,750 sorted values
        assert len(quotient5) - 1 <= sum(counted) <= 7_533_446
        assert len(counted) <= 475
        assert np.array_equal(quotient5.keys,
                              gt.enumerate_admissible_decorations(5).keys)
        sizes = np.diff(quotient5._bounds).tolist()
        assert sizes == LAYER_SIZES[5] and max(sizes) == sizes[39] == 293_308
        # the discovery keys and the parent chains their layers give (hence
        # every witness word) are pinned
        digest = hashlib.sha256()
        for array in (quotient5._disc_keys, *layer_parents(quotient5)):
            digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == \
            "f2e741a34daa814ed87463b0b13465a30cdbbae67e51d3a8abbb6a21a0b9579f"
        # they fill exactly half of their 32 MiB buffer, so they stay a view
        # of it, with no 16 MiB copy
        assert quotient5._disc_keys.base.nbytes == 2 * quotient5._disc_keys.nbytes == 32 << 20
        level5 = (f"level 5: {len(quotient5)} cosets in {elapsed:.1f}s, "
                  f"peak RSS {peak_mib:.0f} MiB, equal to the admissible set")
        info["detail"] = (f"estimate(4)=4/5, estimate(20)={est20:.6f}, "
                          f"levels 1-4 sizes = 2^free; {level5}")


def test_criterion_09_sampled_portraits(criterion, quotient4):
    with criterion(9, "sampled portraits stay near the group") as info:
        sections = [format(i, f"0{m}b") if m else ""
                    for m in range(5) for i in range(1 << m)]
        failures = 0
        for seed in range(100):
            g = gt.TruncationAutomorphism(gt.sample_closure_element(seed, 8))
            if not gt.in_closure_up_to(g, 8):
                failures += 1
                continue
            if not all(gt.within_sixteenth_of_G(gt.section_at(g, u), quotient4)
                       for u in sections):
                failures += 1
        info["detail"] = (f"100 seeds at depth 8, {len(sections)} sections "
                          f"each (all with full depth-4 data), "
                          f"{failures} failures")
        assert failures == 0


def test_criterion_10_kbar_construction(criterion, quotient4):
    with criterion(10, "self-similar element kbar") as info:
        kbar = gt.kbar_element("abab")
        assert gt.equal_to_depth(gt.section_at(kbar, "1"), kbar, 10)
        assert gt.in_closure_up_to(kbar, 12)
        assert gt.portrait_of(kbar, 4) in quotient4
        info["detail"] = ("section at vertex 1 equals kbar to depth 10, "
                          "closure OK to depth 12, depth-4 portrait is a "
                          "group coset")
