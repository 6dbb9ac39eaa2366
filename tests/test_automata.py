import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import grigtree as gt
from grigtree import IDENTITY
from grigtree.automata import MealyAutomaton

# frozen from counting paths to active states in the five-state machine
F_PROFILE = [1, 2, 4, 6, 14, 28, 54, 110, 220, 438, 878, 1756, 3510]


def test_grigorchuk_states_match_word_generators():
    grig = gt.grigorchuk_automaton()
    for letter in "abcd":
        assert gt.equal_to_depth(
            gt.element_of(grig, letter), gt.word_element(letter), 10)


def test_grigorchuk_identity_state_collapses():
    grig = gt.grigorchuk_automaton()
    assert gt.element_of(grig, "1") is IDENTITY


def test_grigorchuk_section_structure():
    grig = gt.grigorchuk_automaton()
    b = gt.element_of(grig, "b")
    assert gt.equal_to_depth(gt.section_at(b, "1"), gt.element_of(grig, "c"), 8)
    d = gt.element_of(grig, "d")
    assert gt.section_at(d, "0") is IDENTITY


def test_sections_of_recursion_symbols_are_interned():
    # the state table keys symbols on identity: a fresh object per section
    # would add one state per vertex
    grig = gt.grigorchuk_automaton()
    assert gt.section_at(gt.element_of(grig, "b"), "1") is gt.element_of(grig, "c")
    kbar = gt.kbar_element("abab")
    assert gt.section_at(kbar, "1") is kbar


def test_element_of_unknown_state():
    with pytest.raises(ValueError):
        gt.element_of(gt.grigorchuk_automaton(), "z")


def test_f_portrait_matches_figure():
    f = gt.element_of(gt.f_automaton(), "f")
    p = gt.portrait_of(f, 5)
    assert p.levels[0] == (1,)
    assert p.levels[1] == (1, 1)
    assert p.levels[2] == (1, 1, 1, 1)
    assert p.levels[3] == (1, 1, 0, 1, 0, 1, 1, 1)
    assert p.levels[4] == (0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1)


def test_f_state_n_structure():
    auto = gt.f_automaton()
    n = gt.element_of(auto, "n")
    assert gt.activity(n, "") == 0
    assert gt.equal_to_depth(gt.section_at(n, "0"), gt.element_of(auto, "r"), 8)
    assert gt.equal_to_depth(gt.section_at(n, "1"), gt.element_of(auto, "m"), 8)


def test_every_f_state_passes_closure_check():
    auto = gt.f_automaton()
    for state in auto.states:
        assert gt.in_closure_up_to(gt.element_of(auto, state), 10)


def test_identity_detection_through_chains():
    auto = MealyAutomaton(
        {"x": (0, "y", "y"), "y": (0, "e", "e"), "e": (0, "e", "e")},
        root="x")
    assert set(auto.identity_states) == {"x", "y", "e"}
    assert gt.element_of(auto, "x") is IDENTITY


def test_automaton_validation():
    with pytest.raises(ValueError):
        MealyAutomaton({}, root="a")
    with pytest.raises(ValueError):
        MealyAutomaton({"a": (1, "a", "zz")}, root="a")
    with pytest.raises(ValueError):
        MealyAutomaton({"a": (2, "a", "a")}, root="a")
    with pytest.raises(ValueError):
        MealyAutomaton({"a": (1, "a", "a")}, root="b")


def test_parse_format_roundtrip():
    text = gt.format_automaton(gt.f_automaton())
    auto = gt.parse_automaton(text)
    assert auto.root == "f"
    assert auto.transitions == gt.f_automaton().transitions
    assert gt.format_automaton(auto) == text


def test_parse_automaton_accepts_comments():
    auto = gt.parse_automaton("# adding machine\no: 1 e o\n\ne: 0 e e\n")
    assert auto.root == "o"
    assert gt.activity(gt.element_of(auto, "o"), "") == 1


def test_parse_automaton_errors():
    with pytest.raises(ValueError):
        gt.parse_automaton("")
    with pytest.raises(ValueError):
        gt.parse_automaton("a: 1 a\n")
    with pytest.raises(ValueError):
        gt.parse_automaton("a: 1 a a\na: 0 a a\n")
    with pytest.raises(ValueError):
        gt.parse_automaton("a: x a a\n")
    with pytest.raises(ValueError):
        gt.parse_automaton("a: 01 a a\n")


def test_recursion_system_validation():
    with pytest.raises(ValueError):
        gt.RecursionSystem({})
    with pytest.raises(ValueError):
        gt.RecursionSystem({"g": ("h", "g", 0)})
    with pytest.raises(ValueError):
        gt.RecursionSystem({"g": ("g", "g", 2)})
    with pytest.raises(TypeError):
        gt.RecursionSystem({"g": (3, "g", 0)})
    with pytest.raises(ValueError):
        gt.RecursionSystem({"g": ("g", "g", 0)}).element("h")


def test_recursion_system_mixed_references():
    system = gt.RecursionSystem({"g": (gt.word_element("ab"), "g", 1)})
    g = system.element("g")
    assert gt.activity(g, "") == 1
    assert gt.equal_to_depth(gt.section_at(g, "0"), gt.word_element("ab"), 8)
    assert gt.section_at(g, "1") is g


def test_kbar_defining_equation():
    kbar = gt.kbar_element("abab")
    assert gt.activity(kbar, "") == 0
    assert gt.equal_to_depth(gt.section_at(kbar, "1"), kbar, 10)
    assert gt.equal_to_depth(gt.section_at(kbar, "0"), gt.word_element("abab"), 10)


def test_kbar_sections_down_the_right_spine():
    kbar = gt.kbar_element("abab")
    k = gt.word_element("abab")
    for n in range(9):
        section = gt.section_at(kbar, "1" * n + "0")
        assert gt.equal_to_depth(section, k, 6)


def test_kbar_in_closure():
    assert gt.in_closure_up_to(gt.kbar_element("abab"), 12)


def test_kbar_empty_product_is_identity():
    assert gt.kbar_element("") is IDENTITY


def test_kbar_shape_enforcement():
    gt.kbar_element("abab")
    gt.kbar_element("bababb")  # reverse("b") + "abab" + "b"
    with pytest.raises(ValueError):
        gt.kbar_element("ab")
    with pytest.raises(ValueError):
        gt.kbar_element("ababab")
    with pytest.raises(ValueError):
        gt.kbar_element("aabab")


def test_k_word_builder():
    assert gt.k_word([]) == ""
    assert gt.k_word([""]) == "abab"
    assert gt.k_word(["d", "ba"]) == "dababd" + "abababba"
    for conjugators in ([], [""], ["d"], ["cb", "a"], ["abd"]):
        word = gt.k_word(conjugators)
        assert gt.kbar_element(word) is not None


def test_scattered_element_examples():
    assert gt.scattered_element([]) is IDENTITY
    root_only = gt.scattered_element([("", "abab")])
    assert gt.equal_to_depth(root_only, gt.word_element("abab"), 8)
    g = gt.scattered_element([("00", "abab"), ("01", "abab"), ("1", "abab")])
    assert gt.in_closure_up_to(g, 12)
    assert gt.equal_to_depth(gt.section_at(g, "00"), gt.word_element("abab"), 8)
    assert gt.equal_to_depth(gt.section_at(g, "1"), gt.word_element("abab"), 8)
    assert gt.activity(g, "") == 0 and gt.activity(g, "0") == 0


def test_scattered_element_is_inactive_off_the_assigned_cones():
    g = gt.scattered_element([("01", "abab")])
    for u in ("", "0", "1", "00", "10", "11", "000", "100", "111"):
        assert gt.activity(g, u) == 0


def test_scattered_element_errors():
    with pytest.raises(ValueError):
        gt.scattered_element([("0", "abab"), ("01", "abab")])
    with pytest.raises(ValueError):
        gt.scattered_element([("0", "abab"), ("0", "abab")])
    with pytest.raises(ValueError, match="vertices '01' and '0110' are not independent"):
        # the prefix pair is apart in the input order, adjacent once sorted
        gt.scattered_element([("0110", "abab"), ("1", "abab"), ("00", "abab"), ("01", "abab")])
    with pytest.raises(ValueError):
        gt.scattered_element([("2", "abab")])
    with pytest.raises(ValueError):
        gt.scattered_element([("0", "ab")])


def test_activity_profile_identity():
    assert gt.activity_profile(IDENTITY, 6) == [0] * 7


def test_activity_profile_generator_d():
    # the spine section of d cycles b -> c -> d; only b and c spawn an a
    assert gt.activity_profile(gt.word_element("d"), 8) == [0, 0, 1, 1, 0, 1, 1, 0, 1]


def test_activity_profile_f_matches_path_counts():
    f = gt.element_of(gt.f_automaton(), "f")
    assert gt.activity_profile(f, len(F_PROFILE) - 1) == F_PROFILE


def test_activity_profile_rejects_negative():
    with pytest.raises(ValueError):
        gt.activity_profile(IDENTITY, -1)


def test_boundedness_of_the_builtin_automata():
    assert gt.is_bounded_automaton(gt.grigorchuk_automaton())
    assert not gt.is_bounded_automaton(gt.f_automaton())


def test_boundedness_single_identity_state():
    assert gt.is_bounded_automaton(MealyAutomaton({"e": (0, "e", "e")}, root="e"))


def test_boundedness_adding_machine():
    auto = MealyAutomaton({"o": (1, "e", "o"), "e": (0, "e", "e")}, root="o")
    assert gt.is_bounded_automaton(auto)
    assert gt.activity_profile(gt.element_of(auto, "o"), 8) == [1] * 9


def test_boundedness_double_self_loop_fails():
    auto = MealyAutomaton({"s": (1, "s", "s")}, root="s")
    assert not gt.is_bounded_automaton(auto)
    assert gt.activity_profile(gt.element_of(auto, "s"), 5) == [1, 2, 4, 8, 16, 32]


def test_boundedness_parallel_edges_fail():
    auto = MealyAutomaton(
        {"s": (1, "t", "t"), "t": (0, "e", "s"), "e": (0, "e", "e")},
        root="s")
    assert not gt.is_bounded_automaton(auto)


def test_boundedness_path_between_cycles_fails():
    auto = MealyAutomaton(
        {"u": (1, "u", "v"), "v": (1, "v", "e"), "e": (0, "e", "e")},
        root="u")
    assert not gt.is_bounded_automaton(auto)


def test_bounded_automata_have_bounded_profiles():
    grig = gt.grigorchuk_automaton()
    cap = len(grig.states)
    for state in grig.states:
        profile = gt.activity_profile(gt.element_of(grig, state), 16)
        assert max(profile) <= cap


def test_unbounded_f_profile_keeps_growing():
    f = gt.element_of(gt.f_automaton(), "f")
    profile = gt.activity_profile(f, 16)
    assert all(x < y for x, y in zip(profile[2:], profile[3:]))


def test_kbar_of_a_long_conjugate_product():
    word = gt.k_word(["abc"] * 1200)
    kbar = gt.kbar_element(word)
    assert gt.in_closure_up_to(kbar, 6)
    with pytest.raises(ValueError):
        gt.kbar_element(word + "a")


def test_k_shape_rejection_of_long_words_is_not_quadratic():
    word = gt.k_word(["abc"] * 1200)
    start = time.perf_counter()
    for bad in (word + "a", word[:6000] + "d" + word[6001:]):
        with pytest.raises(ValueError):
            gt.kbar_element(bad)
    # each took about a second when every dead block start rescanned all
    # later "abab" occurrences; one forward pass reads each occurrence
    # once and each start within its arm once, in a few ms
    assert time.perf_counter() - start < 0.5


def _parses_by_recursion(word):
    """The shape test written as the defining recursion."""
    if not word:
        return True
    return any(
        word[half:half + 4] == "abab"
        and word[:half] == word[half + 4:2 * half + 4][::-1]
        and _parses_by_recursion(word[2 * half + 4:])
        for half in range((len(word) - 4) // 2 + 1))


def _check_shape_verdict(word, at=0, edit="-"):
    """Put edit at word[at] ("-" for no edit), then compare kbar_element's
    verdict on the word with the defining recursion."""
    if edit != "-" and word:
        at %= len(word)
        word = word[:at] + edit + word[at + 1:]
    try:
        gt.kbar_element(word)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _parses_by_recursion(word)


@given(st.lists(st.text(alphabet="abcd", max_size=3), max_size=3),
       st.integers(min_value=0, max_value=40), st.sampled_from("abcd-"))
def test_k_shape_check_matches_the_defining_recursion(conjugators, at, edit):
    _check_shape_verdict(gt.k_word(conjugators), at, edit)


@given(st.text(alphabet="ab", max_size=16))
def test_k_shape_check_on_ab_words(word):
    _check_shape_verdict(word)


# conjugators that hold an "abab" of their own, so that a block's arm
# spans other occurrences, wrapped in a second k_word
_ab_conjugators = st.text(alphabet="ab", max_size=8)
_nested_conjugators = st.one_of(
    _ab_conjugators, st.lists(_ab_conjugators, min_size=1, max_size=2).map(gt.k_word))


@given(st.lists(_nested_conjugators, max_size=3),
       st.integers(min_value=0, max_value=40), st.sampled_from("abcd-"))
@example(["", "", "b"], 0, "-")  # the second "abab" has split points 0 and 4 in its arm
@example([gt.k_word(["ab"]), "b"], 0, "-")
def test_k_shape_check_on_nested_conjugators(conjugators, at, edit):
    blocks = [gt.k_word([w]) for w in conjugators]
    while len("".join(blocks)) > 40:  # keeps the recursion cheap
        blocks.pop()
    _check_shape_verdict("".join(blocks), at, edit)


def test_cli_import_does_not_load_networkx():
    code = "import sys, grigtree.cli; print('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(gt.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _automaton_rows(n):
    # states s0..s{n-1}; about half the edges lead into the identity state e
    target = st.one_of(st.just("e"), st.sampled_from([f"s{i}" for i in range(n)]))
    return st.lists(st.tuples(st.integers(0, 1), target, target), min_size=n, max_size=n)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(_automaton_rows))
def test_boundedness_matches_networkx(rows):
    """identity_states and is_bounded_automaton against their docstrings."""
    nx = pytest.importorskip("networkx")
    transitions = {f"s{i}": row for i, row in enumerate(rows)} | {"e": (0, "e", "e")}
    auto = MealyAutomaton(transitions, root="s0")
    full = nx.DiGraph((s, t) for s, (_, n0, n1) in transitions.items() for t in (n0, n1))
    active = {s for s, (act, _, _) in transitions.items() if act}
    identity = {s for s in transitions if not ({s} | nx.descendants(full, s)) & active}
    assert auto.identity_states == identity
    graph = nx.MultiDiGraph()
    graph.add_nodes_from(set(transitions) - identity)
    graph.add_edges_from((s, t) for s in graph for t in transitions[s][1:] if t not in identity)
    components = list(nx.strongly_connected_components(graph))
    # cyclic: it has an edge inside; a simple cycle: as many edges inside as states
    inner = [graph.subgraph(c).number_of_edges() for c in components]
    simple = all(k == 0 or k == len(c) for k, c in zip(inner, components))
    dag = nx.condensation(nx.DiGraph(graph), components)
    cyclic = {i for i, k in enumerate(inner) if k}
    isolated = all(not nx.descendants(dag, i) & cyclic for i in cyclic)
    assert gt.is_bounded_automaton(auto) == (simple and isolated)


def test_boundedness_of_a_long_chain_is_linear():
    n = 20000
    text = "".join(f"s{i}: 0 s{i + 1} s{i + 1}\n" for i in range(n - 1))
    text += f"s{n - 1}: 1 e e\ne: 0 e e\n"  # only the last state is active
    start = time.perf_counter()
    auto = gt.parse_automaton(text)
    assert gt.is_bounded_automaton(auto)
    # a fixed point that adds one state per pass takes about 37 s on this chain
    assert time.perf_counter() - start < 1.0
    assert auto.identity_states == {"e"}
