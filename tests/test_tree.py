import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grigtree as gt
from grigtree import IDENTITY
from grigtree.closure import _failing_states
from grigtree.tree import _StateGraph, vertex_index, vertex_label
from grigtree.words import _decompose_all

words = st.text(alphabet="abcd", max_size=24)
vertices = st.text(alphabet="01", max_size=6)

A, B, C, D = (gt.word_element(x) for x in "abcd")


def test_apply_generator_a():
    assert gt.apply(A, "01") == "11"


def test_apply_identity():
    assert gt.apply(IDENTITY, "0110") == "0110"


def test_apply_word_ab():
    assert gt.apply(gt.word_element("ab"), "00") == "10"


@given(words, vertices)
def test_apply_preserves_length(w, u):
    assert len(gt.apply(gt.word_element(w), u)) == len(u)


@given(words, st.integers(min_value=0, max_value=5))
def test_apply_is_bijection_per_level(w, n):
    g = gt.word_element(w)
    labels = [format(i, f"0{n}b") if n else "" for i in range(1 << n)]
    assert sorted(gt.apply(g, u) for u in labels) == sorted(labels)


def test_section_at_generators():
    assert gt.equal_to_depth(gt.section_at(B, "1"), C, 8)
    assert gt.equal_to_depth(gt.section_at(D, "1"), B, 8)
    assert gt.equal_to_depth(gt.section_at(D, "11"), C, 8)
    assert gt.section_at(IDENTITY, "0101") is IDENTITY


def test_section_at_root_returns_same_element():
    g = gt.word_element("abd")
    assert gt.section_at(g, "") is g


@given(words, vertices, vertices)
def test_section_at_composes(w, u, v):
    g = gt.word_element(w)
    lhs = gt.section_at(g, u + v)
    rhs = gt.section_at(gt.section_at(g, u), v)
    assert gt.equal_to_depth(lhs, rhs, 5)


def test_activity_examples():
    assert gt.activity(A, "") == 1
    assert gt.activity(D, "") == 0
    assert gt.activity(D, "10") == 1
    for u in ("", "0", "11", "0101"):
        assert gt.activity(IDENTITY, u) == 0


def test_portrait_of_a():
    assert gt.portrait_of(A, 2).levels == ((1,), (0, 0))


def test_portrait_of_d():
    assert gt.portrait_of(D, 3).levels == ((0,), (0, 0), (0, 0, 1, 0))


def test_portrait_of_identity_is_zero():
    p = gt.portrait_of(IDENTITY, 4)
    assert all(bit == 0 for row in p.levels for bit in row)


@given(words, st.integers(min_value=0, max_value=5))
def test_portrait_row_sizes(w, depth):
    p = gt.portrait_of(gt.word_element(w), depth)
    assert p.depth == depth
    assert [len(row) for row in p.levels] == [1 << i for i in range(depth)]


def test_compose_relations():
    assert gt.equal_to_depth(gt.compose(A, A), IDENTITY, 8)
    assert gt.equal_to_depth(gt.compose(B, C), D, 8)
    g = gt.word_element("abdc")
    assert gt.equal_to_depth(gt.compose(g, IDENTITY), g, 8)
    assert gt.equal_to_depth(gt.compose(IDENTITY, g), g, 8)


def test_equal_to_depth_is_vacuous_below_depth_zero():
    assert gt.equal_to_depth(A, IDENTITY, -1)
    assert gt.equal_to_depth(A, IDENTITY, 0)
    assert not gt.equal_to_depth(A, IDENTITY, 1)


def test_compose_all():
    assert gt.compose_all() is IDENTITY
    assert gt.equal_to_depth(gt.compose_all(A, B, A), gt.word_element("aba"), 8)


@given(words, words, st.integers(min_value=1, max_value=5))
def test_portrait_of_product_depends_only_on_truncations(w1, w2, depth):
    g, h = gt.word_element(w1), gt.word_element(w2)
    direct = gt.portrait_of(gt.compose(g, h), depth)
    tg = gt.TruncationAutomorphism(gt.portrait_of(g, depth))
    th = gt.TruncationAutomorphism(gt.portrait_of(h, depth))
    assert gt.portrait_of(gt.compose(tg, th), depth) == direct


@given(words, words, vertices)
def test_activity_of_product_xor_law(w1, w2, u):
    g, h = gt.word_element(w1), gt.word_element(w2)
    lhs = gt.activity(gt.compose(g, h), u)
    assert lhs == gt.activity(g, u) ^ gt.activity(h, gt.apply(g, u))


def test_invert_examples():
    assert gt.equal_to_depth(gt.invert(A), A, 8)
    assert gt.invert(IDENTITY) is IDENTITY
    g = gt.word_element("abdabac")
    assert gt.equal_to_depth(gt.compose(g, gt.invert(g)), IDENTITY, 6)


@given(words)
def test_inverse_composes_to_identity(w):
    g = gt.word_element(w)
    assert gt.equal_to_depth(gt.compose(gt.invert(g), g), IDENTITY, 5)


@given(words, vertices)
def test_inverse_undoes_action(w, u):
    g = gt.word_element(w)
    assert gt.apply(gt.invert(g), gt.apply(g, u)) == u


@given(st.lists(words, max_size=6), vertices)
def test_inverse_of_a_product_undoes_its_action(ws, u):
    g = gt.compose_all(*map(gt.word_element, ws))
    assert gt.apply(gt.invert(g), gt.apply(g, u)) == u
    assert gt.equal_to_depth(gt.invert(g), gt.word_element("".join(ws)[::-1]), 5)


def test_operator_sugar():
    g = gt.word_element("ab")
    assert gt.equal_to_depth(g * ~g, IDENTITY, 6)
    assert gt.equal_to_depth(A * B, gt.word_element("ab"), 6)


def test_distance_examples():
    d1 = gt.distance(A, IDENTITY)
    assert d1.exact and d1.value == 1 and str(d1) == "1"
    d2 = gt.distance(D, IDENTITY)
    assert d2.exact and d2.value == Fraction(1, 4) and str(d2) == "1/4"
    g = gt.word_element("abdc")
    d3 = gt.distance(g, g, cap=8)
    assert not d3.exact and d3.value == Fraction(1, 256) and str(d3) == "<=1/256"


def test_distance_cap_defaults_to_sixteen_levels():
    g = gt.word_element("abdc")
    assert gt.distance(g, g) == gt.Distance(16, exact=False)


@given(words, words, words)
@settings(max_examples=40)
def test_distance_ultrametric(w1, w2, w3):
    g, h, k = (gt.word_element(w) for w in (w1, w2, w3))
    dgk = gt.distance(g, k, cap=8)
    dgh = gt.distance(g, h, cap=8)
    dhk = gt.distance(h, k, cap=8)
    if dgk.exact and dgh.exact and dhk.exact:
        assert dgk.value <= max(dgh.value, dhk.value)


@given(words, words)
def test_distance_symmetry(w1, w2):
    g, h = gt.word_element(w1), gt.word_element(w2)
    a, b = gt.distance(g, h, cap=6), gt.distance(h, g, cap=6)
    assert (a.value, a.exact) == (b.value, b.exact)


portrait_keys = st.tuples(
    st.integers(min_value=1, max_value=5), st.integers(min_value=0)
).map(lambda t: (t[0], t[1] % (1 << ((1 << t[0]) - 1))))


@given(portrait_keys)
def test_portrait_pack_unpack_roundtrip(key_depth):
    depth, key = key_depth
    p = gt.Portrait.unpack(key, depth)
    assert p.depth == depth
    assert p.pack() == key


@given(portrait_keys)
def test_portrait_text_roundtrip(key_depth):
    depth, key = key_depth
    p = gt.Portrait.unpack(key, depth)
    assert gt.Portrait.from_text(p.to_text()) == p


def test_portrait_from_text_ignores_comments_and_blanks():
    p = gt.Portrait.from_text("# a comment\n1\n\n01\n")
    assert p.levels == ((1,), (0, 1))


def test_portrait_from_text_round_trips_with_comments_crlf_and_spaces():
    p = gt.portrait_of(gt.word_element("abacabad"), 6)
    lines = p.to_text().splitlines()
    text = "# header\r\n\r\n" + "".join(
        f"  {line} \t\r\n" + ("   # note\r\n\r\n" if n % 2 else "")
        for n, line in enumerate(lines))
    assert gt.Portrait.from_text(text) == p
    assert gt.Portrait.from_text(text.replace("\r\n", "\n")) == p


@pytest.mark.parametrize("text,line", [
    ("1\n02\n", "02"),
    ("1\n0 1\n", "0 1"),
    ("1\n0\u00e91\n", "0\u00e91"),
    ("# ok\n1\n01\n0110\n  0101010x \n01\n", "0101010x"),
    ("1\n2\n0a\n", "2"),
])
def test_portrait_from_text_names_the_first_invalid_line(text, line):
    with pytest.raises(ValueError, match=re.escape(f"invalid portrait line {line!r}")):
        gt.Portrait.from_text(text)


@pytest.mark.parametrize("level", [0, 1, 3])
@pytest.mark.parametrize("value", [2, 255])
def test_portrait_names_the_level_of_a_non_bit_uint8_entry(level, value):
    rows = [np.zeros(1 << n, dtype=np.uint8) for n in range(4)]
    rows[level][-1] = value
    with pytest.raises(ValueError, match=f"^level {level} contains a non-bit entry$"):
        gt.Portrait(rows)


def test_portrait_accepts_bool_rows():
    rows = [np.array([True]), np.array([False, True]), np.array([True, True, False, False])]
    p = gt.Portrait(rows)
    assert p.bits.dtype == np.uint8
    assert p.levels == ((1,), (0, 1), (1, 1, 0, 0))


def test_portrait_bit_and_child():
    p = gt.Portrait(((1,), (0, 1), (1, 1, 0, 0)))
    assert p.bit("") == 1 and p.bit("1") == 1 and p.bit("01") == 1


def test_empty_portrait_round_trips():
    p = gt.Portrait(())
    assert (p.depth, p.levels, p.pack(), p.to_text()) == (0, (), 0, "\n")
    assert gt.Portrait.unpack(0, 0) == p == gt.Portrait.from_text(p.to_text())


def test_portrait_validation():
    with pytest.raises(ValueError):
        gt.Portrait(((1,), (0,)))
    with pytest.raises(ValueError):
        gt.Portrait(((2,),))
    with pytest.raises(ValueError, match="level 2"):
        gt.Portrait(((0,), (0, 1), (0, 2, 1, 0)))
    with pytest.raises(ValueError, match="level 1"):
        gt.Portrait(((0,), (-1, 0)))


@given(portrait_keys)
def test_truncation_automorphism_reproduces_portrait(key_depth):
    depth, key = key_depth
    p = gt.Portrait.unpack(key, depth)
    t = gt.TruncationAutomorphism(p)
    assert gt.portrait_of(t, depth) == p
    below = gt.section_at(t, "0" * depth)
    assert gt.equal_to_depth(below, IDENTITY, 4)


@given(vertices)
def test_vertex_index_is_the_position_in_vertex_order(u):
    v = vertex_index(u)
    assert v == (1 << len(u)) - 1 + (int(u, 2) if u else 0)
    assert vertex_label(v) == u


def test_check_vertex():
    assert gt.check_vertex("0101") == "0101"
    with pytest.raises(ValueError):
        gt.check_vertex("012")


def test_equal_to_depth_detects_difference():
    assert gt.equal_to_depth(A, A, 8)
    assert not gt.equal_to_depth(A, B, 3)


def portrait_by_section_walk(g, depth):
    """Portrait read vertex by vertex through section chains."""
    return gt.Portrait(tuple(
        tuple(gt.activity(g, format(i, f"0{n}b") if n else "") for i in range(1 << n))
        for n in range(depth)))


@pytest.mark.parametrize("depth", [0, 1, 3, 5, 6, 8])
def test_truncation_portrait_matches_section_walk(depth):
    p = gt.portrait_of(gt.word_element("abdacabdcab"), 5)
    t = gt.TruncationAutomorphism(p)
    got = gt.portrait_of(t, depth)
    assert got == portrait_by_section_walk(t, depth)
    assert got.levels[:5] == p.levels[:depth]
    assert all(bit == 0 for row in got.levels[5:] for bit in row)


@pytest.mark.parametrize("depth", [4, 6, 8])
def test_square_of_a_sampled_truncation_matches_section_walk(depth):
    t = gt.TruncationAutomorphism(gt.sample_closure_element(29, 7))
    tt = gt.compose(t, t)
    assert gt.portrait_of(tt, depth) == portrait_by_section_walk(tt, depth)


def test_truncation_of_empty_portrait_is_zero():
    t = gt.TruncationAutomorphism(gt.Portrait(()))
    assert gt.portrait_of(t, 3) == gt.portrait_of(IDENTITY, 3)


@given(words, st.integers(min_value=0, max_value=6))
def test_truncation_distance_to_its_source(w, depth):
    g = gt.word_element(w)
    t = gt.TruncationAutomorphism(gt.portrait_of(g, depth))
    walked = zip(portrait_by_section_walk(t, 9).levels, portrait_by_section_walk(g, 9).levels)
    first = next((n for n, (rt, rg) in enumerate(walked) if rt != rg), None)
    d = gt.distance(t, g, cap=9)
    assert (d.exponent, d.exact) == ((9, False) if first is None else (first, True))
    assert d.exponent >= depth
    assert gt.equal_to_depth(t, g, depth)
    assert gt.equal_to_depth(t, g, depth + 2) == (d.exponent >= depth + 2)


def test_products_built_in_a_loop_stay_flat():
    g, h = IDENTITY, gt.word_element("ab")
    for _ in range(3000):
        g = g * h
    assert gt.portrait_of(g, 3) == gt.portrait_of(gt.word_element("ab" * 3000), 3)
    g = IDENTITY
    for _ in range(3000):
        g = h * g
    assert gt.portrait_of(g, 3) == gt.portrait_of(gt.word_element("ab" * 3000), 3)


def test_compose_all_of_a_long_product_has_shallow_sections():
    g = gt.compose_all(*[gt.word_element("ab")] * 3000)
    assert gt.portrait_of(g, 3) == gt.portrait_of(gt.word_element("ab" * 3000), 3)


@given(st.lists(st.sampled_from("abcd"), max_size=40))
def test_compose_all_keeps_the_factor_order(letters):
    g = gt.compose_all(*(gt.word_element(x) for x in letters))
    assert gt.equal_to_depth(g, gt.word_element("".join(letters)), 6)


def test_square_of_a_deep_sampled_truncation_is_fast():
    t = gt.TruncationAutomorphism(gt.sample_closure_element(31, 16))
    tt = gt.compose(t, t)
    start = time.perf_counter()
    p = gt.portrait_of(tt, 16)
    # the row fold takes about a millisecond; one product object per
    # vertex took 0.6-0.7 s
    assert time.perf_counter() - start < 0.1
    rng = random.Random(31)
    for u in ["", *(format(rng.randrange(1 << n), f"0{n}b") for n in range(1, 16))]:
        assert p.bit(u) == gt.activity(tt, u)


def test_each_word_is_decomposed_once(monkeypatch):
    # counted at the batch entry point, where a table hands over each
    # level's new words in one call
    decomposed, batches = [], []

    def counting(words):
        decomposed.extend(words)
        batches.append(words)
        return _decompose_all(words)

    monkeypatch.setattr("grigtree.words._decompose_all", counting)
    gt.portrait_of(gt.word_element("abacabadacabdabcadabac"), 8)
    assert decomposed and len(decomposed) == len(set(decomposed))
    assert len(batches) <= 7  # one per level below the root
    decomposed.clear()
    g = gt.word_element("abdabac")
    g.section(0), g.section(1), g.section(0)
    assert decomposed == ["abdabac"]


def test_every_finite_state_family_matches_section_walks():
    f, grig = gt.f_automaton(), gt.grigorchuk_automaton()
    roots = [gt.element_of(f, "f"), gt.word_element("abacabad"), gt.kbar_element("abab"),
             gt.element_of(grig, "d"), gt.kbar_element(gt.k_word(["b", "cab"])),
             gt.word_element("dacab" * 7), *(gt.element_of(f, s) for s in f.states)]
    for g in roots:
        assert gt.portrait_of(g, 12) == portrait_by_section_walk(g, 12)


def _mealy_element(data):
    """A state of a random automaton with at most six states."""
    n = data.draw(st.integers(1, 6))
    names = [f"s{i}" for i in range(n)]
    state = st.sampled_from(names)
    transitions = {name: (data.draw(st.integers(0, 1)), data.draw(state), data.draw(state))
                   for name in names}
    return gt.element_of(gt.MealyAutomaton(transitions, names[0]), data.draw(state))


def _conjugate_product(data):
    return gt.k_word(data.draw(st.lists(st.text(alphabet="abcd", max_size=3), max_size=2)))


def _sampled_truncation(data):
    t = gt.TruncationAutomorphism(
        gt.sample_closure_element(data.draw(st.integers(0, 99)), data.draw(st.integers(4, 7))))
    return gt.section_at(t, data.draw(st.text(alphabet="01", max_size=2)))


depths = st.integers(min_value=0, max_value=9)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abcd", max_size=40), depths)
def test_word_rows_match_section_walk(w, depth):
    g = gt.word_element(w)
    assert gt.portrait_of(g, depth) == portrait_by_section_walk(g, depth)


@settings(max_examples=60, deadline=None)
@given(st.data(), depths)
def test_automaton_rows_match_section_walk(data, depth):
    g = _mealy_element(data)
    assert gt.portrait_of(g, depth) == portrait_by_section_walk(g, depth)


def _element(data, kind):
    """An element of one family: a word, a Mealy state, a sampled truncation
    or its section, kbar, a scattered element, or a recursion symbol."""
    if kind == "word":
        return gt.word_element(data.draw(st.text(alphabet="abcd", max_size=12)))
    if kind == "mealy":
        return _mealy_element(data)
    if kind == "truncation":
        return _sampled_truncation(data)
    if kind == "kbar":
        return gt.kbar_element(_conjugate_product(data))
    if kind == "scattered":
        n = data.draw(st.integers(1, 6))
        labels = data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=4))
        return gt.scattered_element([(format(i, f"0{n}b"), _conjugate_product(data)) for i in labels])
    # sections that are a product and a truncation: one state per vertex
    system = gt.RecursionSystem({
        "g": (gt.compose(_mealy_element(data), gt.word_element("ab")), "h", 1),
        "h": ("g", _sampled_truncation(data), data.draw(st.integers(0, 1))),
    })
    return system.element("g")


FAMILIES = ["word", "mealy", "truncation", "kbar", "scattered", "recursion"]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.lists(st.sampled_from(["word", "mealy", "kbar"]), min_size=1, max_size=4))
def test_one_graph_scores_the_windows_of_all_its_roots(data, kinds):
    # about half the random automata fail by depth 9; words and kbar never do
    roots = [_element(data, kind) for kind in kinds]
    for d in range(4, 10):
        fails = [not gt.portrait_closure_verdict(gt.portrait_of(g, d)) for g in roots]
        assert _failing_states(_StateGraph(roots), d).any() == any(fails)
        for g, fail in zip(roots, fails):
            assert _failing_states(_StateGraph((g,)), d).any() == fail


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(["kbar", "scattered", "recursion"]), depths)
def test_recursion_and_scattered_rows_match_section_walk(data, kind, depth):
    g = _element(data, kind)
    assert gt.portrait_of(g, depth) == portrait_by_section_walk(g, depth)


@settings(max_examples=60, deadline=None)
@given(st.data(), depths)
def test_product_and_inverse_rows_match_section_walk(data, depth):
    factors = []
    for kind in data.draw(st.lists(st.sampled_from(["word", "mealy", "truncation"]), max_size=4)):
        g = _element(data, kind)
        factors.append(gt.invert(g) if data.draw(st.booleans()) else g)
    g = gt.compose_all(*factors)
    if data.draw(st.booleans()):
        g = gt.invert(g)
    assert gt.portrait_of(g, depth) == portrait_by_section_walk(g, depth)


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(FAMILIES), st.lists(vertices, max_size=6), depths)
def test_every_family_inverts_within_itself(data, kind, us, depth):
    g = _element(data, kind)
    h = gt.invert(g)
    assert type(h) is type(g)
    for u in us:
        assert gt.apply(h, gt.apply(g, u)) == u
    assert not gt.portrait_of(gt.compose(g, h), depth).bits.any()


def test_inverse_of_f_expands_five_states(monkeypatch):
    # f's inverse is the symbol f of the inverse system, which has f's 5 states
    counted = []
    children_of = gt.tree._children_of
    monkeypatch.setattr("grigtree.tree._children_of",
                        lambda states: counted.append(len(states)) or children_of(states))
    f = gt.element_of(gt.f_automaton(), "f")
    g = gt.invert(f)
    assert gt.invert(g) is f
    gt.portrait_of(g, 20)
    assert sum(counted) == 5
    kbar = gt.kbar_element("abab")
    assert gt.invert(gt.invert(kbar)) is kbar


def test_every_automorphism_family_defines_its_own_inverse():
    families = [cls for cls in gt.Automorphism.__subclasses__()
                if cls.__module__.startswith("grigtree.")]
    assert len(families) == 4
    for cls in families:
        assert {"root_activity", "_children", "_invert"} <= vars(cls).keys(), cls
