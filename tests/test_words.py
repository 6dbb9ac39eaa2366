import random

import pytest
from hypothesis import given, settings, strategies as st

import grigtree as gt
from grigtree import IDENTITY
from grigtree.words import _decompose_all, _reduce_join, _reduced_sections

words = st.text(alphabet="abcd", max_size=24)
long_words = st.text(alphabet="abcd", max_size=200)

LONG_SAMPLE_WORD = "abcaadabdbcadcbdbabdbc"


# Per-letter reference copies of the word kernels: one Python step per
# letter, straight from the definitions.

_KLEIN = {("b", "c"): "d", ("c", "b"): "d", ("b", "d"): "c",
          ("d", "b"): "c", ("c", "d"): "b", ("d", "c"): "b"}
_PAIR = ({"b": ("a", "c"), "c": ("a", "d"), "d": ("", "b")},   # even a-parity
         {"b": ("c", "a"), "c": ("d", "a"), "d": ("b", "")})   # odd a-parity


def letter_reduce(word):
    """Stack rewriting letter by letter: equal letters cancel, {b,c,d}
    letters merge through the Klein four-group."""
    if not set(word) <= set("abcd"):
        raise ValueError(f"invalid word {word!r}: letters must be in 'abcd'")
    out = []
    for ch in word:
        cur = ch
        while out and cur:
            top = out[-1]
            if top == cur:
                out.pop()
                cur = None
            elif top != "a" and cur != "a":
                out.pop()
                cur = _KLEIN[(top, cur)]
            else:
                break
        if cur:
            out.append(cur)
    return "".join(out)


def letter_decompose(word):
    """Wreath decomposition with a running a-parity, letter by letter."""
    w0, w1, parity = [], [], 0
    for ch in word:
        if ch == "a":
            parity ^= 1
            continue
        try:
            x, y = _PAIR[parity][ch]
        except KeyError:
            raise ValueError(f"invalid letter {ch!r} in word") from None
        w0.append(x)
        w1.append(y)
    return "".join(w0), "".join(w1), parity


def letter_beta(word):
    """(N(1,0), N(1,1), N(0,0), N(0,1)) mod 2 from four count_pq scans."""
    return tuple(gt.count_pq(word, p, q) & 1 for p, q in ((1, 0), (1, 1), (0, 0), (0, 1)))


def _random_word(length, seed):
    rng = random.Random(seed)
    return "".join(rng.choice("abcd") for _ in range(length))


# words of every length from 0 to 5000, and cascades w + reduce(w)^-1 (the
# inverse of a word is its reversal), which cancel down to nothing
kernel_words = st.one_of(
    st.text(alphabet="abcd", max_size=40),
    st.builds(_random_word, st.integers(0, 5000), st.integers(0, 2 ** 32)),
    st.builds(lambda w: w + letter_reduce(w)[::-1],
              st.builds(_random_word, st.integers(0, 3000), st.integers(0, 2 ** 32))),
)


@st.composite
def invalid_words(draw):
    """A word with one letter outside 'abcd' (upper-case ones included)
    at a random position, and possibly more after it."""
    word = draw(kernel_words)
    at = draw(st.integers(0, len(word)))
    bad = draw(st.sampled_from(["A", "B", "C", "D", "e", "x", " ", "1", "\u00e9", "AB"]))
    tail = draw(st.sampled_from(["", "B", "z"]))
    return word[:at] + bad + word[at:] + tail


def brute_count_p(word, subset, p):
    return sum(1 for i, ch in enumerate(word)
               if ch in subset and word[:i].count("a") % 2 == p)


def brute_count_pq(word, p, q):
    """Straight from the definition: {b,c}-letters of parity p preceded
    by a q-parity number of opposite-parity {b,c}-letters."""
    total = 0
    for i, ch in enumerate(word):
        if ch not in "bc" or word[:i].count("a") % 2 != p:
            continue
        opposite = sum(1 for j in range(i)
                       if word[j] in "bc" and word[:j].count("a") % 2 != p)
        if opposite % 2 == q:
            total += 1
    return total


def test_reduce_examples():
    assert gt.reduce("aa") == ""
    assert gt.reduce("bc") == "d"
    assert gt.reduce("abbd") == "ad"


def test_reduce_rejects_bad_letters():
    with pytest.raises(ValueError):
        gt.reduce("abe")
    with pytest.raises(ValueError):
        gt.check_word("a b")


@given(words)
def test_reduce_is_idempotent(w):
    assert gt.reduce(gt.reduce(w)) == gt.reduce(w)


@given(words)
def test_reduce_yields_alternating_form(w):
    r = gt.reduce(w)
    for x, y in zip(r, r[1:]):
        assert not (x == "a" and y == "a")
        assert not (x in "bcd" and y in "bcd")


@given(words)
def test_reduce_preserves_element(w):
    assert gt.equal_to_depth(gt.word_element(w), gt.word_element(gt.reduce(w)), 8)


def test_decompose_worked_example():
    assert gt.decompose_word("abdabac") == ("cbad", "aca", 1)


def test_decompose_trivial_cases():
    assert gt.decompose_word("") == ("", "", 0)
    assert gt.decompose_word("b") == ("a", "c", 0)


@given(words)
def test_decompose_matches_sections(w):
    w0, w1, parity = gt.decompose_word(w)
    g = gt.word_element(w)
    assert gt.activity(g, "") == parity
    assert gt.equal_to_depth(gt.section_at(g, "0"), gt.word_element(w0), 7)
    assert gt.equal_to_depth(gt.section_at(g, "1"), gt.word_element(w1), 7)


@given(words)
def test_decompose_parity_counts_a_letters(w):
    assert gt.decompose_word(w)[2] == w.count("a") % 2


def test_section_words_examples():
    m = gt.section_words("b", 2)
    assert m["1"] == "c" and m["11"] == "d"
    assert all(w == "" for w in gt.section_words("", 3).values())
    m = gt.section_words("abdabac", 1)
    assert m["0"] == "cbad" and m["1"] == "aca" and m[""] == "abdabac"


@given(words, st.integers(min_value=0, max_value=3))
def test_section_words_represent_sections(w, depth):
    for u, wu in gt.section_words(w, depth).items():
        assert gt.equal_to_depth(
            gt.section_at(gt.word_element(w), u), gt.word_element(wu), 5)


def test_count_long_sample_word():
    assert gt.count_p(LONG_SAMPLE_WORD, {"b", "c"}, 1) == 5
    assert gt.count_pq(LONG_SAMPLE_WORD, 1, 1) == 3
    assert gt.count_pq(LONG_SAMPLE_WORD, 1, 0) == 2
    # the two even-parity counts, frozen from the defining formula
    assert gt.count_pq(LONG_SAMPLE_WORD, 0, 0) == 3
    assert gt.count_pq(LONG_SAMPLE_WORD, 0, 1) == 3


def test_count_edge_cases():
    assert gt.count("", {"b", "c", "d"}) == 0
    assert gt.count_p("b", {"b", "c"}, 0) == 1
    assert gt.count_p("ab", {"b", "c"}, 0) == 0
    assert gt.count_pq("", 0, 1) == 0
    assert gt.count("abdd", frozenset()) == 0


@given(words, st.sampled_from([{"b"}, {"c"}, {"d"}, {"b", "c"}, {"b", "c", "d"}]))
def test_parity_counts_split_total(w, subset):
    assert gt.count_p(w, subset, 0) + gt.count_p(w, subset, 1) == gt.count(w, subset)


@given(words, st.integers(min_value=0, max_value=1))
def test_pair_counts_split_parity_count(w, p):
    assert gt.count_pq(w, p, 0) + gt.count_pq(w, p, 1) == gt.count_p(w, {"b", "c"}, p)


@given(long_words, st.integers(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=1))
@settings(max_examples=60)
def test_count_pq_matches_brute_force(w, p, q):
    assert gt.count_pq(w, p, q) == brute_count_pq(w, p, q)


@given(words, st.sampled_from([{"b"}, {"b", "c"}, {"c", "d"}]),
       st.integers(min_value=0, max_value=1))
def test_count_p_matches_brute_force(w, subset, p):
    assert gt.count_p(w, subset, p) == brute_count_p(w, subset, p)


def test_beta_from_counts_examples():
    assert gt.beta_from_counts("") == (0, 0, 0, 0)
    # (N^{1,0}, N^{1,1}, N^{0,0}, N^{0,1}) = (2, 3, 3, 3) mod 2
    assert gt.beta_from_counts(LONG_SAMPLE_WORD) == (0, 1, 1, 1)


@given(long_words)
@settings(max_examples=60)
def test_beta_from_counts_matches_portrait(w):
    profile = gt.beta_profile(gt.portrait_of(gt.word_element(w), 4))
    assert gt.beta_from_counts(w) == (profile.beta00, profile.beta01,
                                      profile.beta10, profile.beta11)


@given(long_words)
@settings(max_examples=60)
def test_level_one_activities_are_parity_counts(w):
    g = gt.word_element(w)
    assert gt.activity(g, "0") == gt.count_p(w, {"b", "c"}, 0) % 2
    assert gt.activity(g, "1") == gt.count_p(w, {"b", "c"}, 1) % 2


@given(long_words)
@settings(max_examples=80)
def test_pair_count_parity_cases(w):
    n = {(p, q): gt.count_pq(w, p, q) % 2
         for p in (0, 1) for q in (0, 1)}
    n0 = gt.count_p(w, {"b", "c"}, 0) % 2
    n1 = gt.count_p(w, {"b", "c"}, 1) % 2
    if n0 == 0:
        assert n[1, 1] == n[0, 1] == n[0, 0]
    else:
        assert n[1, 0] == n[0, 1] != n[0, 0]
    if n1 == 0:
        assert n[0, 1] == n[1, 1] == n[1, 0]
    else:
        assert n[0, 0] == n[1, 1] != n[1, 0]


@given(kernel_words)
@settings(max_examples=120, deadline=None)
def test_word_kernels_match_the_letter_references(w):
    assert gt.reduce(w) == letter_reduce(w)
    assert gt.decompose_word(w) == letter_decompose(w)
    assert gt.beta_from_counts(w) == letter_beta(w)


@pytest.mark.parametrize("segment_min", [1, 10 ** 9])
def test_both_reduce_paths_give_the_normal_form(monkeypatch, segment_min):
    """Every word through the segment path, then every word through the
    rewriting path, whatever its length."""
    monkeypatch.setattr("grigtree.words.SEGMENT_REDUCE_MIN", segment_min)
    monkeypatch.setattr("grigtree.words.SEGMENT_JOIN_MIN", segment_min)
    rng = random.Random(segment_min)
    for n in [*range(40), 95, 96, 97, 200, 1000]:
        w = _random_word(n, rng.random())
        assert gt.reduce(w) == letter_reduce(w)
        assert gt.reduce(w + letter_reduce(w)[::-1]) == ""


# batches of words as a state table's levels hand them over: short and
# long random words, empty words, and cascades that cancel to nothing
batch_words = st.lists(st.one_of(
    st.text(alphabet="abcd", max_size=40),
    st.builds(_random_word, st.integers(0, 400), st.integers(0, 2 ** 32)),
    st.builds(lambda w: w + letter_reduce(w)[::-1], st.text(alphabet="abcd", max_size=60)),
), min_size=1, max_size=8)


@given(batch_words, st.sampled_from([0, 10 ** 9]))
@settings(max_examples=100, deadline=None)
def test_batch_decomposition_gives_each_words_sections(ws, numpy_min):
    """Both forms of the odd-parity pass (numpy, split at the a's): the
    padding starts every word of the join at even parity."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("grigtree.words.DECOMPOSE_NUMPY_MIN", numpy_min)
        sections = _decompose_all(ws)
    refs = [letter_decompose(w) for w in ws]
    assert sections == "|" + "|".join([r[0] for r in refs] + [r[1] for r in refs])


@given(batch_words, st.sampled_from([1, 10 ** 9]))
@settings(max_examples=100, deadline=None)
def test_batch_reduction_gives_each_words_normal_form(ws, segment_min):
    """The whole join through the segment pass, then through the rewrite
    loop: no word's relations reach into its neighbours."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("grigtree.words.SEGMENT_REDUCE_MIN", segment_min)
        mp.setattr("grigtree.words.SEGMENT_JOIN_MIN", segment_min)
        reduced = _reduce_join("|" + "|".join(ws), max(map(len, ws)))
        sections = _reduced_sections(ws)
    assert reduced == [letter_reduce(w) for w in ws]
    assert sections == [letter_reduce(x) for w in ws for x in letter_decompose(w)[:2]]


def _error(f, word):
    with pytest.raises(ValueError) as info:
        f(word)
    return str(info.value)


@given(invalid_words())
@settings(max_examples=80, deadline=None)
def test_word_kernels_reject_invalid_letters_like_the_references(w):
    assert _error(gt.reduce, w) == _error(letter_reduce, w)
    assert _error(gt.decompose_word, w) == _error(letter_decompose, w)
    assert _error(gt.beta_from_counts, w) == _error(letter_beta, w)
    # the word state's constructor takes valid words only: its entry checks
    assert _error(gt.word_element, w) == _error(letter_reduce, w)


def test_decompose_names_the_first_invalid_letter():
    assert _error(gt.decompose_word, "abBe") == "invalid letter 'B' in word"
    assert _error(gt.decompose_word, "aaxB") == "invalid letter 'x' in word"


def test_word_element_empty_is_identity():
    assert gt.word_element("") is IDENTITY


@given(words)
def test_word_element_inverse_is_reversal(w):
    g = gt.word_element(w)
    assert gt.equal_to_depth(gt.invert(g), gt.word_element(w[::-1]), 6)


def portrait_from_raw_sections(word, depth):
    """Portrait read off raw (unreduced) section words: the bit at u is
    the parity of the a-count of the raw section word there."""
    sections = gt.section_words(word, depth - 1)
    return gt.Portrait(tuple(
        tuple(sections[format(i, f"0{n}b") if n else ""].count("a") & 1
              for i in range(1 << n))
        for n in range(depth)))


@given(long_words)
@settings(max_examples=60, deadline=None)
def test_reduced_sections_give_the_raw_section_portrait(w):
    assert gt.portrait_of(gt.word_element(w), 8) == portrait_from_raw_sections(w, 8)


def test_word_sections_are_reduced():
    g = gt.word_element("abdabac")
    assert gt.decompose_word("abdabac")[0] == "cbad"
    assert g.section(0).word == gt.reduce("cbad")
    assert gt.section_words("abdabac", 1)["0"] == "cbad"  # section_words stays raw
