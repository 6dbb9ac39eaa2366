"""Finite-state tree automorphisms as symbols of recursion systems.

A recursion system names wreath recursions whose sections are other
symbols or concrete automorphisms, e.g. {"g": (h, "g", 0)} for
g = (h, g).  Every element built here is a symbol of one, interned per
system: the states of a Mealy automaton (a system whose sections are
all states; built in are the five-state machines generating the
Grigorchuk group and the closure element `f`), the self-similar
closure elements kbar = (k, kbar), and scattered elements, with one
symbol per proper prefix of their assigned vertices.

Identity states and Sidki's boundedness criterion (every cycle of
non-identity states is simple, disjoint from the others and reaches no
other) are decided by one linear backward search, `_backward`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .tree import Automorphism, IDENTITY, activity_rows, check_vertex
from .words import _word_element, check_word


class MealyAutomaton:
    """States mapping name -> (activity, next0, next1), plus a designated
    root state (the one an automaton file denotes by its first line).

    The states are the symbols of one recursion system.  A state counts
    as the identity when no active state is reachable from it; sections
    through such states collapse to the shared identity automorphism.
    """

    def __init__(self, transitions: Mapping[str, tuple[int, str, str]], root: str):
        if not transitions:
            raise ValueError("automaton needs at least one state")
        self.transitions = {name: (int(act), n0, n1)
                            for name, (act, n0, n1) in transitions.items()}
        for name, (act, n0, n1) in self.transitions.items():
            if act not in (0, 1):
                raise ValueError(f"state {name!r}: activity must be 0 or 1")
            for nxt in (n0, n1):
                if nxt not in self.transitions:
                    raise ValueError(f"state {name!r} references unknown state {nxt!r}")
        if root not in self.transitions:
            raise ValueError(f"unknown root state {root!r}")
        self.root = root
        succ = {s: (n0, n1) for s, (_, n0, n1) in self.transitions.items()}
        active = [s for s, (act, _, _) in self.transitions.items() if act]
        # a state is the identity iff no active state is reachable from it
        self.identity_states = frozenset(succ) - _backward(succ, active, lambda s: 1)
        refs = {s: IDENTITY if s in self.identity_states else s for s in self.transitions}
        self._system = RecursionSystem({name: (refs[n0], refs[n1], act)
                                        for name, (act, n0, n1) in self.transitions.items()})

    @property
    def states(self) -> tuple[str, ...]:
        return tuple(self.transitions)

    def __repr__(self) -> str:
        return f"MealyAutomaton({len(self.transitions)} states, root={self.root!r})"


def element_of(automaton: MealyAutomaton, state: str) -> Automorphism:
    """The automorphism defined by a state of the automaton."""
    if state not in automaton.transitions:
        raise ValueError(f"unknown state {state!r}")
    if state in automaton.identity_states:
        return IDENTITY
    return automaton._system.element(state)


@lru_cache(maxsize=None)
def grigorchuk_automaton() -> MealyAutomaton:
    """The five-state automaton generating the Grigorchuk group:
    a = (1,1) swap, b = (a,c), c = (a,d), d = (1,b)."""
    return MealyAutomaton(
        {
            "a": (1, "1", "1"),
            "b": (0, "a", "c"),
            "c": (0, "a", "d"),
            "d": (0, "1", "b"),
            "1": (0, "1", "1"),
        },
        root="a",
    )


@lru_cache(maxsize=None)
def f_automaton() -> MealyAutomaton:
    """The five-state automaton of the closure element f:
    f = (l,r) swap, l = (r,m) swap, r = (m,r) swap, m = (n,f) swap,
    n = (r,m)."""
    return MealyAutomaton(
        {
            "f": (1, "l", "r"),
            "l": (1, "r", "m"),
            "r": (1, "m", "r"),
            "m": (1, "n", "f"),
            "n": (0, "r", "m"),
        },
        root="f",
    )


def parse_automaton(text: str) -> MealyAutomaton:
    """Parse the automaton text format: one `name: activity next0 next1`
    line per state, first line's state is the root."""
    transitions: dict[str, tuple[int, str, str]] = {}
    root = None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, rest = line.partition(":")
        fields = rest.split()
        if not sep or not name.strip() or len(fields) != 3 or fields[0] not in ("0", "1"):
            raise ValueError(f"line {lineno}: expected '<name>: <0|1> <next0> <next1>'")
        name = name.strip()
        if name in transitions:
            raise ValueError(f"line {lineno}: duplicate state {name!r}")
        transitions[name] = (int(fields[0]), fields[1], fields[2])
        if root is None:
            root = name
    if root is None:
        raise ValueError("empty automaton description")
    return MealyAutomaton(transitions, root)


def format_automaton(automaton: MealyAutomaton) -> str:
    """Serialize to the text format, root state first."""
    names = [automaton.root] + [s for s in automaton.transitions if s != automaton.root]
    lines = []
    for name in names:
        act, n0, n1 = automaton.transitions[name]
        lines.append(f"{name}: {act} {n0} {n1}")
    return "\n".join(lines) + "\n"


class RecursionSystem:
    """Named wreath recursions whose sections may point at other symbols
    or at concrete automorphisms, e.g. {"g": (h, "g", 0)} for g = (h, g).
    `element(symbol)` returns one shared object per symbol."""

    def __init__(self, definitions: Mapping[str, tuple[object, object, int]]):
        self.definitions = dict(definitions)
        if not self.definitions:
            raise ValueError("recursion system needs at least one symbol")
        for sym, (s0, s1, act) in self.definitions.items():
            if act not in (0, 1):
                raise ValueError(f"symbol {sym!r}: activity must be 0 or 1")
            for ref in (s0, s1):
                if isinstance(ref, str):
                    if ref not in self.definitions:
                        raise ValueError(
                            f"symbol {sym!r} references undefined symbol {ref!r}")
                elif not isinstance(ref, Automorphism):
                    raise TypeError(
                        f"symbol {sym!r}: sections must be symbol names or automorphisms")
        self._elements = {sym: _RecursionEntry(sym, act)
                          for sym, (_, _, act) in self.definitions.items()}
        for sym, (s0, s1, _) in self.definitions.items():
            self._elements[sym]._sections = (self._resolve(s0), self._resolve(s1))

    def element(self, symbol: str) -> Automorphism:
        if symbol not in self._elements:
            raise ValueError(f"unknown symbol {symbol!r}")
        return self._elements[symbol]

    def _resolve(self, ref) -> Automorphism:
        return self._elements[ref] if isinstance(ref, str) else ref


class _RecursionEntry(Automorphism):
    """A symbol of a recursion system, which sets its `_sections`."""

    __slots__ = ("symbol", "root_activity")

    def __init__(self, symbol: str, root_activity: int):
        self.symbol = symbol
        self.root_activity = root_activity

    def _children(self) -> tuple[Automorphism, Automorphism]:
        return self._sections

    def __repr__(self) -> str:
        return f"<recursion symbol {self.symbol!r}>"


def k_word(conjugators: Iterable[str]) -> str:
    """Build a word for a product of conjugates of the commutator of a
    and b: each conjugator w contributes reverse(w) + "abab" + w
    (generators are involutions, so reverse(w) is the inverse of w)."""
    parts = []
    for w in conjugators:
        check_word(w)
        parts.append(w[::-1] + "abab" + w)
    return "".join(parts)


def _parses_as_conjugate_product(word: str) -> bool:
    """Does the word split into blocks reverse(w) + "abab" + w?

    The arm of an "abab" at p is the largest m with word[p-1-j] ==
    word[p+4+j] for all j < m, and it opens a block at i <= p, ending at
    2p-i+4, iff p - i is at most its arm.  One pass over the occurrences
    in increasing order marks the ends of blocks that start at a split
    point.  A block ending at i has its "abab" at or before i-4, so every
    split point at or before p is marked before p is read.
    """
    n = len(word)
    split = bytearray(n + 1)  # split[i]: word[:i] splits into blocks
    split[0] = 1
    p = word.find("abab")
    while p >= 0:
        m, top = 0, min(p, n - p - 4)
        while m < top and word[p - 1 - m] == word[p + 4 + m]:
            m += 1
        for i in range(p - m, p + 1):
            if split[i]:
                split[2 * p - i + 4] = 1
        p = word.find("abab", p + 1)
    return bool(split[n])


def _check_k_shape(word: str) -> None:
    check_word(word)
    if not _parses_as_conjugate_product(word):
        raise ValueError(
            f"word {word!r} is not a product of conjugates reverse(w)+'abab'+w")


def kbar_element(word: str) -> Automorphism:
    """The self-similar closure element kbar = (k, kbar) for k given as a
    product of conjugates of abab (the shape is checked; membership of
    arbitrary words in the relevant subgroup is not decided here)."""
    _check_k_shape(word)
    if not word:
        return IDENTITY
    system = RecursionSystem({"kbar": (_word_element(word), "kbar", 0)})
    return system.element("kbar")


def scattered_element(assignments: Sequence[tuple[str, str]]) -> Automorphism:
    """An automorphism inactive outside a set of pairwise independent
    vertices, carrying an assigned conjugate-product element below each.

    Vertices must be pairwise independent (no label is a prefix of
    another); assigning the root degenerates to the element itself, and
    otherwise each proper prefix u of an assigned vertex is a symbol (u0, u1).
    """
    table: dict[str, Automorphism] = {}
    labels = []
    for vertex, word in assignments:
        check_vertex(vertex)
        _check_k_shape(word)
        labels.append(vertex)
        table[vertex] = _word_element(word)
    if len(table) != len(labels):
        raise ValueError("duplicate vertex in assignments")
    # a proper prefix u of w is a prefix of every label sorted between them,
    # so some prefix pair is adjacent in sorted order whenever one exists
    labels.sort()
    for u, v in zip(labels, labels[1:]):
        if v.startswith(u):
            raise ValueError(f"vertices {u!r} and {v!r} are not independent")
    prefixes = {v[:i] for v in table for i in range(len(v))}
    if not prefixes:  # nothing assigned, or only the root
        return table.get("", IDENTITY)
    refs = {u: u for u in prefixes} | table  # any other child is the identity
    system = RecursionSystem({u: (refs.get(u + "0", IDENTITY), refs.get(u + "1", IDENTITY), 0)
                              for u in prefixes})
    return system.element("")


def activity_profile(g: Automorphism, levels: int) -> list[int]:
    """Per-level activity sums of g for levels 0..levels: entry n counts
    the active vertices at level n.  Uniform boundedness of these sums is
    what 'bounded automorphism' means."""
    if levels < 0:
        raise ValueError("levels must be non-negative")
    return [int(row.sum()) for row in activity_rows(g, levels + 1)]


def is_bounded_automaton(automaton: MealyAutomaton) -> bool:
    """Structural boundedness of the automorphisms an automaton defines
    (Sidki): in the transition graph of the non-identity states, with edge
    multiplicities, every strongly connected component is a lone vertex or
    a simple cycle, and no cyclic component reaches another."""
    nontrivial = set(automaton.transitions) - automaton.identity_states
    succ = {s: [t for t in automaton.transitions[s][1:] if t in nontrivial]
            for s in nontrivial}
    # Call a state branching if two of its edges lead to infinite paths.  The
    # criterion fails iff a cycle reaches a branching state.  A cyclic component
    # that is no simple cycle has a state with two edges inside it; a cycle that
    # reaches another leaves its component at a state with an edge inside and one
    # toward that cycle.  Conversely, if a cycle C reaches a branching b, an edge
    # of b leads toward another component's cycle, or both lead back into C's
    # component, which then holds b with two inner edges and is no simple cycle.
    infinite = _infinite_paths(succ, nontrivial)
    branching = [s for s in nontrivial if sum(t in infinite for t in succ[s]) > 1]
    return not _infinite_paths(succ, _backward(succ, branching, lambda s: 1))


def _infinite_paths(succ: Mapping, nodes: set) -> set:
    """The nodes with an infinite path inside `nodes`."""
    inner = {s: [t for t in succ[s] if t in nodes] for s in nodes}
    return nodes - _backward(inner, [s for s in nodes if not inner[s]], lambda s: len(inner[s]))


def _backward(succ: Mapping, seeds: Iterable, need) -> set:
    """Grow a set backwards from `seeds` in linear time: any other node of
    `succ` joins once need(node) of its edges, with multiplicity, lead in."""
    pred: dict = {}
    for s, targets in succ.items():
        for t in targets:
            pred.setdefault(t, []).append(s)
    found = set(seeds)
    left = {s: 0 if s in found else need(s) for s in succ}
    work = list(found)
    while work:
        for s in pred.get(work.pop(), ()):
            left[s] -= 1
            if not left[s]:
                found.add(s)
                work.append(s)
    return found
