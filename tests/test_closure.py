import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grigtree as gt
from grigtree import IDENTITY
from grigtree.closure import _ADMISSIBLE, _FREE, _drawn_bits, _mix64, _profiles, _window_tables

words = st.text(alphabet="abcd", max_size=24)


def admissible_by_cases(a0, a1, b00, b01, b10, b11):
    """The four admissibility cases, written out independently of the
    table the library hard-codes."""
    if (a0, a1) == (0, 0):
        return b00 == b01 == b10 == b11
    if (a0, a1) == (0, 1):
        return b01 == b10 == b11 and b00 != b01
    if (a0, a1) == (1, 0):
        return b00 == b01 == b11 and b10 != b00
    return b00 == b11 and b01 == b10 and b00 != b01


def window_from_bits(bits):
    return gt.WindowDecoration(tuple(bits[0:2]), tuple(bits[2:6]), tuple(bits[6:14]))


def all_ones_portrait(depth):
    return gt.Portrait(tuple(tuple(1 for _ in range(1 << i)) for i in range(depth)))


def test_constraint_table_matches_the_four_cases():
    for row in itertools.product((0, 1), repeat=6):
        assert (row in gt.CONSTRAINT_TABLE) == admissible_by_cases(*row)


def test_beta_profile_identity():
    profile = gt.beta_profile(gt.portrait_of(IDENTITY, 4))
    assert profile.as_tuple() == (0, 0, 0, 0, 0, 0)


def test_beta_profile_of_generator_d_satisfies_constraints():
    profile = gt.beta_profile(gt.portrait_of(gt.word_element("d"), 4))
    assert profile.as_tuple() == (0, 0, 0, 0, 0, 0)
    assert profile.as_tuple() in gt.CONSTRAINT_TABLE


def test_beta_profile_example_beta10():
    # all ones on levels 0-2, level 3 = the completion with all-ones free bits
    p = gt.Portrait(((1,), (1, 1), (1, 1, 1, 1), (1, 1, 0, 1, 0, 1, 1, 1)))
    assert gt.beta_profile(p).beta10 == 1


def test_beta_profile_needs_depth_four():
    with pytest.raises(ValueError):
        gt.beta_profile(gt.portrait_of(IDENTITY, 3))


def test_simulates_identity_window():
    assert gt.simulates_grigorchuk(window_from_bits([0] * 14))


def test_simulates_forced_example_window():
    w = gt.WindowDecoration((1, 1), (1, 1, 1, 1), (1, 1, 0, 1, 0, 1, 1, 1))
    assert gt.simulates_grigorchuk(w)


def test_all_ones_window_fails():
    assert not gt.simulates_grigorchuk(window_from_bits([1] * 14))


def test_exactly_two_to_the_eleven_windows_pass():
    passing = sum(
        gt.simulates_grigorchuk(window_from_bits(bits))
        for bits in itertools.product((0, 1), repeat=14))
    assert passing == 2 ** 11


def test_window_decoration_validation():
    with pytest.raises(ValueError):
        gt.WindowDecoration((1,), (0, 0, 0, 0), (0,) * 8)
    with pytest.raises(ValueError):
        gt.WindowDecoration((0, 2), (0, 0, 0, 0), (0,) * 8)


def test_window_at_requires_depth():
    p = gt.portrait_of(IDENTITY, 4)
    gt.window_at(p, "")
    with pytest.raises(ValueError):
        gt.window_at(p, "0")


def test_in_closure_generator_b():
    assert gt.in_closure_up_to(gt.word_element("b"), 10)


def test_in_closure_f():
    f = gt.element_of(gt.f_automaton(), "f")
    verdict = gt.in_closure_up_to(f, 12)
    assert verdict and verdict.format() == "OK depth=12"


def test_all_ones_automorphism_violates_at_root():
    g = gt.TruncationAutomorphism(all_ones_portrait(5))
    verdict = gt.in_closure_up_to(g, 5)
    assert not verdict
    assert verdict.violation == ""
    assert verdict.format() == "VIOLATION vertex=-"


def test_in_closure_needs_depth_four():
    with pytest.raises(ValueError):
        gt.in_closure_up_to(IDENTITY, 3)


def test_first_violation_is_shallowest_then_lexicographic():
    # flipping a single forced level-4 bit toggles exactly one beta of
    # the window above it, which never lands on another table row
    base = gt.sample_closure_element(7, 5)
    rows = [list(row) for row in base.levels]
    rows[4][8] ^= 1  # vertex 1000: breaks only the window under "1"
    p1 = gt.Portrait(tuple(tuple(r) for r in rows))
    assert gt.portrait_closure_verdict(p1).violation == "1"
    rows[4][0] ^= 1  # vertex 0000: now "0" is broken too and comes first
    p2 = gt.Portrait(tuple(tuple(r) for r in rows))
    assert gt.portrait_closure_verdict(p2).violation == "0"


def reference_verdict(p):
    """The per-window scan: window_at and simulates_grigorchuk at every
    vertex, shallowest level first, lexicographic within a level."""
    for level in range(p.depth - 3):
        for i in range(1 << level):
            u = format(i, f"0{level}b") if level else ""
            if not gt.simulates_grigorchuk(gt.window_at(p, u)):
                return gt.ClosureVerdict(False, p.depth, u)
    return gt.ClosureVerdict(True, p.depth)


def flipped(p, *vertices):
    rows = [list(row) for row in p.levels]
    for u in vertices:
        rows[len(u)][int(u, 2) if u else 0] ^= 1
    return gt.Portrait(tuple(tuple(r) for r in rows))


@st.composite
def flipped_samples(draw):
    depth = draw(st.integers(min_value=4, max_value=10))
    p = gt.sample_closure_element(draw(st.integers(min_value=0, max_value=10 ** 6)), depth)
    flips = draw(st.lists(
        st.integers(min_value=0, max_value=depth - 1).flatmap(
            lambda level: st.integers(min_value=0, max_value=(1 << level) - 1).map(
                lambda i: format(i, f"0{level}b") if level else "")),
        max_size=3))
    return flipped(p, *flips)


@given(flipped_samples())
@settings(max_examples=150, deadline=None)
def test_row_verdict_matches_per_window_scan(p):
    assert gt.portrait_closure_verdict(p) == reference_verdict(p)


@pytest.mark.parametrize("depth", [4, 7, 10])
def test_row_verdict_pinpoints_flipped_windows(depth):
    p = gt.sample_closure_element(21, depth)
    assert gt.portrait_closure_verdict(p) == reference_verdict(p) == gt.ClosureVerdict(True, depth)
    # a forced level-3 bit of the root window
    root = flipped(p, "000")
    assert gt.portrait_closure_verdict(root) == reference_verdict(root)
    assert gt.portrait_closure_verdict(root).violation == ""
    # bits on the last row only break windows on the last window level
    last = depth - 1
    late, early = format(5 << (last - 3), f"0{last}b"), format(2 << (last - 3), f"0{last}b")
    one = flipped(p, late)
    assert gt.portrait_closure_verdict(one).violation == late[:-3]
    two = flipped(p, late, early)
    assert gt.portrait_closure_verdict(two).violation == early[:-3]
    assert gt.portrait_closure_verdict(two) == reference_verdict(two)


def _mealy_state(data):
    names = [f"s{i}" for i in range(data.draw(st.integers(1, 6)))]
    state = st.sampled_from(names)
    transitions = {name: (data.draw(st.integers(0, 1)), data.draw(state), data.draw(state))
                   for name in names}
    return gt.element_of(gt.MealyAutomaton(transitions, names[0]), data.draw(state))


def _finite_state_element(data):
    """A random Mealy state (1-6 states), kbar of a conjugate product, word
    of up to 300 letters, scattered element, or a symbol whose sections
    are a product and a truncation (states the graph cannot share): the
    elements checked on their state graphs."""
    kind = data.draw(st.sampled_from(["mealy", "kbar", "word", "scattered", "recursion"]))
    products = st.lists(st.text(alphabet="abcd", max_size=4), max_size=3).map(gt.k_word)
    if kind == "mealy":
        return _mealy_state(data)
    if kind == "recursion":
        sampled = gt.sample_closure_element(data.draw(st.integers(0, 99)), 6)
        return gt.RecursionSystem({
            "g": (gt.compose(_mealy_state(data), gt.word_element("ab")), "h", 1),
            "h": ("g", gt.TruncationAutomorphism(sampled), data.draw(st.integers(0, 1))),
        }).element("g")
    if kind == "kbar":
        return gt.kbar_element(data.draw(products))
    if kind == "word":
        return gt.word_element(data.draw(st.text(alphabet="abcd", max_size=300)))
    labels = data.draw(st.lists(st.text(alphabet="01", max_size=4), max_size=4, unique=True))
    independent = [u for u in labels
                   if not any(u != v and (u.startswith(v) or v.startswith(u)) for v in labels)]
    return gt.scattered_element([(u, data.draw(products)) for u in independent])


@given(st.data(), st.integers(min_value=4, max_value=12))
@settings(max_examples=200, deadline=None)
def test_state_graph_verdict_matches_the_portrait_scan(data, depth):
    g = _finite_state_element(data)
    assert gt.in_closure_up_to(g, depth) == gt.portrait_closure_verdict(gt.portrait_of(g, depth))


#: A root state whose windows first fail below vertex 01: the state there
#: first shows on level 2, and its window reaches level 5.
LATE_VIOLATION = "a: 1 b b\nb: 0 b e\nc: 1 d d\nd: 0 c c\ne: 0 d e\n"


@pytest.mark.parametrize("depth, line", [
    (5, "OK depth=5"), (6, "VIOLATION vertex=01"), (22, "VIOLATION vertex=01")])
def test_state_graph_scores_states_down_to_level_depth_minus_four(depth, line):
    g = gt.element_of(gt.parse_automaton(LATE_VIOLATION), "a")
    verdict = gt.in_closure_up_to(g, depth)
    assert verdict.format() == line
    assert verdict == gt.portrait_closure_verdict(gt.portrait_of(g, depth))


def test_a_truncation_at_its_own_depth_is_checked_on_its_own_bits():
    p = gt.sample_closure_element(3, 9)
    g = gt.TruncationAutomorphism(p)
    assert gt.portrait_of(g, 9) is p
    assert gt.portrait_of(g, 8) == gt.Portrait(p.levels[:8])


depth6_keys = st.integers(min_value=0, max_value=(1 << 63) - 2)


@given(depth6_keys)
@settings(max_examples=60)
def test_violations_are_monotone_in_depth(key):
    p = gt.Portrait.unpack(key, 6)
    g = gt.TruncationAutomorphism(p)
    verdicts = [bool(gt.in_closure_up_to(g, d)) for d in (4, 5, 6)]
    for shallow, deep in zip(verdicts, verdicts[1:]):
        if not shallow:
            assert not deep


def test_within_sixteenth_basics(quotient4):
    f = gt.element_of(gt.f_automaton(), "f")
    for g in (IDENTITY, f, gt.word_element("d")):
        assert gt.within_sixteenth_of_G(g)
        assert gt.within_sixteenth_of_G(g, quotient4)
    bad = gt.TruncationAutomorphism(all_ones_portrait(4))
    assert not gt.within_sixteenth_of_G(bad)
    assert not gt.within_sixteenth_of_G(bad, quotient4)


def test_within_sixteenth_rejects_wrong_level_cache():
    with pytest.raises(ValueError):
        gt.within_sixteenth_of_G(IDENTITY, gt.enumerate_quotient(3))


@given(st.integers(min_value=0, max_value=(1 << 15) - 1))
@settings(max_examples=100)
def test_within_sixteenth_routes_agree(quotient4, key):
    g = gt.TruncationAutomorphism(gt.Portrait.unpack(key, 4))
    assert gt.within_sixteenth_of_G(g) == gt.within_sixteenth_of_G(g, quotient4)


def test_complete_window_all_ones_forcing():
    w = gt.complete_window((1, 1), (1, 1, 1, 1), (1, 1, 1, 1, 1))
    assert w.level3[0] == 1  # a000
    assert w.level3[2] == 0  # a010
    assert w.level3[4] == 0  # a100
    assert gt.simulates_grigorchuk(w)


def test_complete_window_all_zeros():
    w = gt.complete_window((0, 0), (0, 0, 0, 0), (0, 0, 0, 0, 0))
    assert w.level3 == (0,) * 8


def test_complete_window_rejects_non_bits():
    with pytest.raises(ValueError):
        gt.complete_window((0, 2), (0, 0, 0, 0), (0, 0, 0, 0, 0))


def test_complete_window_exhaustive():
    """Every completion passes the constraint and is a fixed point."""
    for bits in itertools.product((0, 1), repeat=11):
        level1, level2, free = bits[0:2], bits[2:6], bits[6:11]
        w = gt.complete_window(level1, level2, free)
        assert gt.simulates_grigorchuk(w)
        extracted = (w.level3[1], w.level3[3], w.level3[5],
                     w.level3[7], w.level3[6])
        assert extracted == free
        assert gt.complete_window(w.level1, w.level2, extracted) == w


def test_sample_is_deterministic():
    assert gt.sample_closure_element(5, 6) == gt.sample_closure_element(5, 6)


def test_sample_is_depth_extensible():
    shallow = gt.sample_closure_element(11, 5)
    deep = gt.sample_closure_element(11, 8)
    assert deep.levels[:5] == shallow.levels


def test_sample_needs_depth_four():
    with pytest.raises(ValueError):
        gt.sample_closure_element(0, 3)


MASK64 = (1 << 64) - 1


def splitmix64_mix(z):
    """SplitMix64's output function on Python ints, masked to 64 bits."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_seed_bit(seed, v):
    """The drawn bit at vertex index v: the top bit of
    mix64(mix64(seed) + (v + 1) * golden), all arithmetic mod 2^64."""
    key = splitmix64_mix(seed)
    return splitmix64_mix((key + (v + 1) * 0x9E3779B97F4A7C15) & MASK64) >> 63


def seed_bits(seed, level):
    """Every drawn bit of a level, as `sample` draws levels 0-2."""
    return _drawn_bits(_mix64(np.array([seed], dtype=np.uint64)), level)


@pytest.mark.parametrize("seed", [0, 1, 5, 1 << 63, (1 << 64) - 1])
def test_seed_bits_match_a_python_splitmix64(seed):
    for level in range(13):
        first = (1 << level) - 1  # vertex index of the level's first vertex
        expected = [reference_seed_bit(seed, first + i) for i in range(1 << level)]
        assert seed_bits(seed, level).tolist() == expected


@given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.integers(min_value=3, max_value=12))
@settings(max_examples=60)
def test_free_bit_draw_is_the_free_columns_of_the_seed_bits(seed, level):
    # the sampler hashes only the free vertices of each window row
    key = _mix64(np.array([seed], dtype=np.uint64))
    free = _drawn_bits(key, level, 8, _FREE[:, None])
    assert np.array_equal(free, seed_bits(seed, level).reshape(-1, 8)[:, _FREE].T)


def window_rows_reference():
    """The forced-bit table by brute force: the profile of every one of
    the 64 x 256 (context, level-3 row) pairs."""
    ctx = np.repeat(np.arange(64, dtype=np.uint8), 256)
    row = np.tile(np.arange(256, dtype=np.uint8), 64)
    above = np.unpackbits(ctx[:, None], axis=1)[:, 2:]
    bits = np.unpackbits(row[:, None], axis=1, bitorder="little")
    keep = _ADMISSIBLE[_profiles(above[:, :2], above[:, 2:], bits)]
    l3 = bits[keep]
    cell = ctx[keep].astype(np.intp) * 32 + sum(l3[:, r] << j for j, r in enumerate(_FREE))
    assert np.array_equal(np.sort(cell), np.arange(64 * 32))
    rows = np.zeros(64 * 32, dtype=np.uint32)
    rows[cell] = row[keep]
    return rows.reshape(64, 32)


def test_window_rows_match_the_brute_force_table():
    rows = _window_tables()[0]
    assert rows.dtype == np.uint32 and not rows.flags.writeable
    assert np.array_equal(rows, window_rows_reference())


@pytest.mark.parametrize("seed", [-1, 1 << 64, 10 ** 30])
def test_sample_rejects_seeds_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed"):
        gt.sample_closure_element(seed, 4)


@given(st.integers(min_value=0, max_value=10 ** 9), st.integers(min_value=4, max_value=7))
@settings(max_examples=40)
def test_samples_pass_every_window(seed, depth):
    p = gt.sample_closure_element(seed, depth)
    assert gt.portrait_closure_verdict(p)


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=40)
def test_sample_root_window_is_admissible_row(seed):
    p = gt.sample_closure_element(seed, 4)
    profile = gt.beta_profile(p)
    assert profile.as_tuple() in gt.CONSTRAINT_TABLE


def test_sampled_windows_are_complete_window_fixed_points():
    p = gt.sample_closure_element(3, 7)
    for level in range(p.depth - 3):
        for i in range(1 << level):
            u = format(i, f"0{level}b") if level else ""
            w = gt.window_at(p, u)
            free = (w.level3[1], w.level3[3], w.level3[5],
                    w.level3[7], w.level3[6])
            assert gt.complete_window(w.level1, w.level2, free) == w


def test_free_bit_count_values():
    assert [gt.free_bit_count(n) for n in range(6)] == [0, 1, 3, 7, 12, 22]
    with pytest.raises(ValueError):
        gt.free_bit_count(-1)


def test_hausdorff_estimate_values():
    assert gt.hausdorff_estimate(4) == Fraction(12, 15)
    assert abs(gt.hausdorff_estimate(20) - Fraction(5, 8)) < Fraction(1, 100)
    assert abs(gt.hausdorff_estimate(40) - Fraction(5, 8)) < Fraction(1, 10 ** 9)
    with pytest.raises(ValueError):
        gt.hausdorff_estimate(0)


def test_hausdorff_estimates_decrease_towards_the_limit():
    values = [gt.hausdorff_estimate(n) for n in range(4, 30)]
    assert all(x > y for x, y in zip(values, values[1:]))
    assert all(v > Fraction(5, 8) for v in values)
