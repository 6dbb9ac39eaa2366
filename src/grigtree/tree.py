"""Binary rooted tree automorphisms with lazy section evaluation.

Vertices of the tree are finite words over {0, 1}, written as Python
strings ("" is the root, children of u are u+"0" and u+"1").  An
automorphism g is determined by its root activity bit (does it swap the
two subtrees?) together with its two sections g_0 and g_1, the induced
automorphisms on the subtrees.  The action on vertices is the right
action

    (xw)^g = (x ^ activity(g)) w^{g_x},

products read left to right: w^{gh} = (w^g)^h.

Everything here is immutable after construction; sections are
computed in pairs (both children at once) and memoized per instance (a
benign race under concurrent use: the value is deterministic either
way).  `section`, `section_at` and `apply` are this pointwise API.

A portrait stores one bit row in vertex order (level by level,
lexicographic within a level): vertex u has index vertex_index(u),
vertex v has its children at 2v+1 and 2v+2, and level n below v is the
slice of 2^n bits from (v+1)*2^n - 1.  A PortraitSet holds depth-n
portraits (n <= MAX_LEVEL) as the sorted uint32 keys of `Portrait.pack`.
It checks that its keys strictly increase a block of BLOCK_KEYS at a
time, so a check of 4,194,304 level-5 keys makes no temporary the size of
the set.

`activity_rows` builds whole levels without walking sections vertex by
vertex, in one of three ways:

* a truncation and its sections are views (portrait, v) whose levels are
  such slices;
* a product folds its factors' rows through their level permutations.
  The level-n permutation of g starts from img_0 = [0] and extends by
  img_{n+1}[2i+x] = 2 img_n[i] + (x ^ row_n[i]); then
  row(gh) = row(g) ^ row(h)[img(g)];
* every other element (a word, or a recursion-system symbol: automaton
  states, kbar and scattered elements) is finite-state, so its portrait
  repeats a few states on every level.  A state graph (`_StateGraph`)
  that lives for one call interns each state once under its
  `_state_key()` and expands it once, both children together, into an
  intp child array of shape (states, 2), a level at a time.  The states
  new on a level are expanded together: those that share a
  `_children_of` go to it in one call, so a level of word states is one
  decomposition and one reduction of their join.  Level n is
  act_child.take(ids, axis=0), a gather of the children's activities
  below the ids of level n - 1, which then step down with
  ids = child.take(ids, axis=0); both gathers use intp ids (numpy's index
  type, so no index conversion per level), and the last level needs no
  ids of its own.  One graph can serve many roots at once, a row of ids
  per root (`_table_rows`); a portrait is the one-root case.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from fractions import Fraction


def check_vertex(u: str) -> str:
    """Validate a vertex label (a string over {0,1}; "" is the root)."""
    if any(ch not in "01" for ch in u):
        raise ValueError(f"invalid vertex label {u!r}: letters must be 0 or 1")
    return u


def vertex_index(u: str) -> int:
    """Position of vertex u in vertex order: "1" + u in binary, minus 1."""
    return int("1" + check_vertex(u), 2) - 1


def vertex_label(v: int) -> str:
    """The vertex at position v in vertex order (inverse of vertex_index)."""
    return bin(v + 1)[3:]


class Automorphism:
    """Base class: a lazily evaluable automorphism of the binary tree.

    Subclasses implement `root_activity` (0 or 1), `_children()`, the
    pair of sections (g_0, g_1), and `_invert()`, an inverse of their own
    family; the public `section` memoizes the pair.  `_rows(depth)` and
    `_portrait(depth)` build levels and portraits, from a state graph
    unless a family overrides them.
    `_state_key()` names the element's state in a state graph: elements
    with equal keys are equal.  Instances never expose
    mutable state.
    """

    __slots__ = ("_sections",)

    @property
    def root_activity(self) -> int:
        raise NotImplementedError

    def _children(self) -> tuple["Automorphism", "Automorphism"]:
        raise NotImplementedError

    @staticmethod
    def _children_of(states) -> list["Automorphism"]:
        """The sections at 0 and 1 of each of some states, in one flat
        list: by default `_children()` of each.  A state graph expands the
        states new on a level that share this function in one call."""
        return [h for g in states for h in g._children()]

    def _state_key(self) -> object:
        return self

    def _rows(self, depth: int) -> Iterator[np.ndarray]:
        return (rows[0] for rows in _table_rows((self,), depth))

    def _portrait(self, depth: int) -> "Portrait":
        return Portrait(self._rows(depth))

    def section(self, x: int) -> "Automorphism":
        """The section at child x (0 or 1)."""
        if x not in (0, 1):
            raise ValueError(f"child index must be 0 or 1, got {x!r}")
        try:
            return self._sections[x]
        except AttributeError:
            self._sections = self._children()
            return self._sections[x]

    def _invert(self) -> "Automorphism":
        raise NotImplementedError

    # Convenience operator forms; the module-level functions are the
    # primary surface.
    def __mul__(self, other: "Automorphism") -> "Automorphism":
        return compose(self, other)

    def __invert__(self) -> "Automorphism":
        return invert(self)


class _Product(Automorphism):
    """Composition g1 g2 ... gn of a flat factor tuple, evaluated lazily:
    (g1 g2 ...)_x = (g1)_x (g2)_{x^g1} ...  The empty product is IDENTITY."""

    __slots__ = ("factors", "root_activity")

    def __init__(self, factors: tuple[Automorphism, ...], root_activity: int):
        self.factors = factors
        self.root_activity = root_activity

    def _children(self) -> tuple[Automorphism, Automorphism]:
        pair, x = ([], []), 0  # child 0 of the product enters the next factor at x, child 1 at 1 ^ x
        for g in self.factors:
            pair[0].append(g.section(x))
            pair[1].append(g.section(1 ^ x))
            x ^= g.root_activity
        return compose_all(*pair[0]), compose_all(*pair[1])

    def _rows(self, depth: int) -> Iterator[np.ndarray]:
        """Fold the factors' rows: row(Pg) = row(P) ^ row(g)[img(P)] for
        each prefix P = g1...gj, whose image img(P) extends level by level."""
        if not self.factors:
            yield from _rows_below(_NO_BITS, 0, depth)
            return
        first, *rest = (activity_rows(g, depth) for g in self.factors)
        imgs = [_ROOT_IMAGE] * len(rest)  # img(P) of the prefix before rest[j], this level
        prevs = [None] * len(rest)  # row(P) of that prefix, one level up
        for n in range(depth):
            row = next(first)
            for j, stream in enumerate(rest):
                if n:
                    imgs[j] = _extend_image(imgs[j], prevs[j])
                prevs[j] = row
                row = row ^ next(stream)[imgs[j]]
            yield row

    def _invert(self) -> Automorphism:
        return compose_all(*map(invert, reversed(self.factors)))

    def __repr__(self) -> str:
        return f"compose_all{self.factors!r}" if self.factors else "IDENTITY"


#: The identity automorphism (a shared singleton).
IDENTITY = _Product((), 0)


_ROOT_IMAGE = np.zeros(1, dtype=np.intp)
_NO_BITS = np.zeros(0, dtype=np.uint8)


def _extend_image(img: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The level-(n+1) permutation of g from its level-n permutation and
    activity row: vertex 2i+x goes to 2*img[i] + (x ^ row[i])."""
    return (((img << 1) | row)[:, None] ^ np.array([0, 1], dtype=np.intp)).ravel()


class _StateGraph:
    """The states of finite-state elements below some roots, grown a level
    at a time: each state is interned once by `_state_key()`, with its
    root activity in `acts`, and expanded once, both children together,
    by `grow`, which expands the states new on the deepest level together
    (see `_children_of`).  `child` is the intp array of shape
    (expanded states, 2) of their children's ids.  Ids follow first
    occurrences: a state first shows below the first occurrence of a
    state new on the level above, so with one root the ids are in level,
    then lexicographic, order of their first-occurrence vertices
    (`first_vertex`)."""

    child = np.zeros((0, 2), dtype=np.intp)  # until the first `grow`

    def __init__(self, roots):
        self.index: dict = {}
        self.states: list[Automorphism] = []
        self.acts: list[int] = []
        self.kids: list[int] = []  # sections at 0 and 1 of states[:done], two ids each
        self.done = 0
        self.roots: list[int] = []
        self._intern(roots, self.roots)

    def _intern(self, elements, out: list[int]) -> None:
        index, states, acts = self.index, self.states, self.acts
        for h in elements:
            key = h._state_key()
            t = index.get(key)
            if t is None:
                t = index[key] = len(states)
                states.append(h)
                acts.append(h.root_activity)
            out.append(t)

    def grow(self) -> list[Automorphism]:
        """Expand the states new on the deepest level (there must be some),
        interning the next level, and return the states new on that level:
        the next call expands them, and if there are none, the graph is
        complete."""
        new = self.states[self.done:]
        self.done = len(self.states)
        self._intern(_children_of(new), self.kids)
        self.child = np.array(self.kids, dtype=np.intp).reshape(-1, 2)
        return self.states[self.done:]

    def first_vertex(self, t: int) -> int:
        """The vertex index of state t's first occurrence below the root of
        a one-root graph: the first entry t of `child` is the edge to it
        from its parent's first occurrence."""
        v, step = 0, 1
        while t:
            t, x = divmod(int((self.child == t).argmax()), 2)
            v += step * (1 + x)
            step <<= 1
        return v


def _table_rows(roots, depth: int) -> Iterator[np.ndarray]:
    """Rows of finite-state elements from one state graph built for this
    call, one (len(roots), 2^n) array per level n: a state is expanded on
    the level below the one it first shows on.  Roots share the graph,
    so sections common to several of them are expanded once."""
    graph = _StateGraph(roots)
    ids = np.array(graph.roots, dtype=np.intp)[:, None]
    rows = len(ids)
    act_child = np.zeros((0, 2), dtype=np.uint8)  # activities of the sections in child
    if depth:
        yield np.array(graph.acts, dtype=np.uint8).take(ids)
    new = graph.roots  # states not yet expanded: the roots, then each `grow`'s
    for n in range(1, depth):
        if new:
            new = graph.grow()
            act_child = np.array(graph.acts, dtype=np.uint8).take(graph.child)
        if n > 1:
            ids = graph.child.take(ids, axis=0).reshape(rows, 1 << (n - 1))
        yield act_child.take(ids, axis=0).reshape(rows, 1 << n)


def _children_of(states: list[Automorphism]) -> list[Automorphism]:
    """The sections at 0 and 1 of each state, in one flat list; the states
    that share an `_children_of` go to it in one call."""
    expand, *others = set(map(_CHILDREN_OF, states))
    if not others:
        return expand(states)
    kids: list = [None] * (2 * len(states))
    for expand in (expand, *others):
        at = [i for i, g in enumerate(states) if g._children_of is expand]
        got = expand([states[i] for i in at])
        for j, i in enumerate(at):
            kids[2 * i:2 * i + 2] = got[2 * j:2 * j + 2]
    return kids


_CHILDREN_OF = attrgetter("_children_of")


def _rows_below(bits: np.ndarray, v: int, depth: int) -> Iterator[np.ndarray]:
    """Levels 0..depth-1 of the subtree below vertex index v, as slices of
    a vertex-order bit row; levels past the stored bits are zero."""
    for n in range(depth):
        row = bits[((v + 1) << n) - 1:((v + 2) << n) - 1]
        yield row if row.size else np.zeros(1 << n, dtype=np.uint8)


@dataclass(frozen=True, init=False, eq=False)
class Portrait:
    """A depth-d truncated activity decoration of the tree, built from
    its levels (levels[i] holds the 2**i bits of level i, lexicographic)
    and stored as one read-only uint8 row `bits` of 2**depth - 1 bits in
    vertex order (see the module docstring)."""

    bits: np.ndarray

    def __init__(self, levels):
        rows = [np.asarray(row) for row in levels]
        for i, row in enumerate(rows):
            if row.shape != (1 << i,):
                raise ValueError(f"level {i} must hold {1 << i} bits, got {row.size}")
        bits = np.concatenate([np.zeros(0, dtype=np.uint8), *rows])
        if bits.dtype != np.uint8 or bits.max(initial=0) > 1:  # uint8 rows: one pass
            bad = np.flatnonzero((bits != 0) & (bits != 1))
            if bad.size:  # vertex index v lies on level (v + 1).bit_length() - 1
                raise ValueError(f"level {int(bad[0] + 1).bit_length() - 1} contains a non-bit entry")
            bits = bits.astype(np.uint8)
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, Portrait) and np.array_equal(self.bits, other.bits)

    def __hash__(self) -> int:
        return hash(self.bits.tobytes())

    @property
    def depth(self) -> int:
        return self.bits.size.bit_length()

    @property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        """The bits level by level, each level a tuple (derived from `bits`)."""
        return tuple(tuple(self.bits[(1 << n) - 1:(2 << n) - 1].tolist())
                     for n in range(self.depth))

    def bit(self, u: str) -> int:
        """Activity bit at vertex u (|u| < depth)."""
        v = vertex_index(u)
        if len(u) >= self.depth:
            raise ValueError(f"vertex {u!r} is below depth {self.depth}")
        return int(self.bits[v])

    def pack(self) -> int:
        """Bit-pack into an integer key: the bit at vertex u is bit
        vertex_index(u) of the key, so a depth-d portrait packs into
        2**d - 1 bits."""
        return int.from_bytes(np.packbits(self.bits, bitorder="little").tobytes(), "little")

    @classmethod
    def unpack(cls, key: int, depth: int) -> "Portrait":
        size = (1 << depth) - 1
        if key < 0 or key >> size:
            raise ValueError(f"key {key} out of range for depth {depth}")
        packed = np.frombuffer(key.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
        return cls(_rows_below(np.unpackbits(packed, count=size, bitorder="little"), 0, depth))

    def to_text(self) -> str:
        """One line per level, 2**i characters of 0/1 in lexicographic order."""
        text = (self.bits + 48).tobytes().decode("ascii")
        return "\n".join(text[(1 << n) - 1:(2 << n) - 1] for n in range(self.depth)) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Portrait":
        """Parse `to_text` output: one line of 0/1 characters per level,
        with surrounding whitespace, blank lines and '#' comment lines
        ignored.  The kept lines are joined and checked in one pass over
        their bytes (a non-ASCII character encodes as '?'), and the levels
        are slices of that one array.  A line holding any other character
        raises ValueError naming the first such line."""
        lines = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
        codes = np.frombuffer("".join(lines).encode("ascii", "replace"), dtype=np.uint8) - 48
        if codes.max(initial=0) > 1:
            bad = next(line for line in lines if not set(line) <= {"0", "1"})
            raise ValueError(f"invalid portrait line {bad!r}")
        ends = accumulate(map(len, lines))
        return cls(codes[end - len(line):end] for line, end in zip(lines, ends))


#: The deepest level of a portrait set: its keys are at most 31 bits.
MAX_LEVEL = 5


#: The keys one step of a set-sized pass touches (256 KiB of uint32), so
#: its temporaries stay in cache: `PortraitSet`'s order check and the
#: admissible enumeration's last level work a block at a time.
BLOCK_KEYS = 1 << 16


def _check_level(n: int) -> int:
    if not 1 <= n <= MAX_LEVEL:
        raise ValueError(f"level must be between 1 and {MAX_LEVEL}, got {n}")
    return n


def _position(sorted_keys: np.ndarray, key: int) -> int | None:
    """Position of key in sorted uint32 keys, or None if absent."""
    if not 0 <= key <= 0xFFFFFFFF:
        return None
    # a uint32 needle keeps numpy from casting the whole array
    i = int(np.searchsorted(sorted_keys, np.uint32(key)))
    return i if i < sorted_keys.size and int(sorted_keys[i]) == key else None


def _strictly_increasing(keys: np.ndarray) -> bool:
    """keys[i] < keys[i + 1] for every i, compared BLOCK_KEYS pairs at a
    time and stopping at the first block that fails."""
    for i in range(0, keys.size - 1, BLOCK_KEYS):
        block = keys[i:i + BLOCK_KEYS + 1]  # one key past the block: pairs cross its end
        if not (block[1:] > block[:-1]).all():
            return False
    return True


class PortraitSet:
    """A set of depth-n portraits, stored as sorted packed keys
    (`Portrait.pack`).  Keys already strictly increasing, as checked a
    block at a time, are not sorted again; they are copied unless
    read-only (as `load_portrait_set` and `enumerate_admissible_decorations`
    give them).  Other keys are sorted and deduplicated."""

    def __init__(self, level: int, keys: np.ndarray):
        self.level = level
        keys = np.asarray(keys, dtype=np.uint32)
        if not _strictly_increasing(keys):
            keys = np.sort(keys)
            first = np.ones(keys.size, dtype=bool)  # the first of each run of equal keys
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            keys = keys if first.all() else keys[first]
        elif keys.flags.writeable:
            keys = keys.copy()
        self.keys = keys

    def __len__(self) -> int:
        return int(self.keys.size)

    def key_of(self, item: Portrait | int) -> int:
        if isinstance(item, Portrait):
            if item.depth != self.level:
                raise ValueError(
                    f"portrait depth {item.depth} does not match set level {self.level}")
            return item.pack()
        return int(item)

    def __contains__(self, item: Portrait | int) -> bool:
        return _position(self.keys, self.key_of(item)) is not None

    def portraits(self) -> Iterator[Portrait]:
        for key in self.keys:
            yield Portrait.unpack(int(key), self.level)

    __iter__ = portraits

    def __repr__(self) -> str:
        return f"{type(self).__name__}(level={self.level}, size={len(self)})"


class TruncationAutomorphism(Automorphism):
    """Portrait-backed automorphism: the bits below vertex index `vertex`
    (the root, or the vertex a section is taken at).  Sections below the
    portrait depth are the identity (the quotients' coset representatives)."""

    __slots__ = ("portrait", "vertex")

    def __init__(self, portrait: Portrait):
        self.portrait = portrait
        self.vertex = 0

    @property
    def root_activity(self) -> int:
        bits = self.portrait.bits
        return int(bits[self.vertex]) if self.vertex < bits.size else 0

    def _children(self) -> tuple[Automorphism, Automorphism]:
        return self._view(2 * self.vertex + 1), self._view(2 * self.vertex + 2)

    def _view(self, vertex: int) -> Automorphism:
        if vertex >= self.portrait.bits.size:
            return IDENTITY
        view = TruncationAutomorphism(self.portrait)
        view.vertex = vertex
        return view

    def _rows(self, depth: int) -> Iterator[np.ndarray]:
        return _rows_below(self.portrait.bits, self.vertex, depth)

    def _portrait(self, depth: int) -> Portrait:
        if self.vertex or depth != self.portrait.depth:
            return Portrait(self._rows(depth))
        return self.portrait  # a portrait read from a file is checked on its own bits

    def _invert(self) -> Automorphism:
        """The truncation of the inverted portrait: row(g^-1)[img(g)] = row(g)."""
        rows, img = [], _ROOT_IMAGE
        level = (self.vertex + 1).bit_length() - 1  # of the view's vertex
        for row in self._rows(self.portrait.depth - level):
            if rows:
                img = _extend_image(img, prev)
            inverse = np.empty_like(row)
            inverse[img] = prev = row
            rows.append(inverse)
        return TruncationAutomorphism(Portrait(rows))


def apply(g: Automorphism, w: str) -> str:
    """The image w^g, computed letter by letter via activities and sections."""
    check_vertex(w)
    out = []
    cur = g
    for ch in w:
        x = ord(ch) - 48
        out.append("01"[x ^ cur.root_activity])
        cur = cur.section(x)
    return "".join(out)


def section_at(g: Automorphism, u: str) -> Automorphism:
    """The section g_u; section_at(g, "") is g itself."""
    check_vertex(u)
    cur = g
    for ch in u:
        cur = cur.section(ord(ch) - 48)
    return cur


def activity(g: Automorphism, u: str) -> int:
    """The decoration bit at vertex u: root activity of the section there."""
    return section_at(g, u).root_activity


def activity_rows(g: Automorphism, depth: int) -> Iterator[np.ndarray]:
    """Yield decoration rows level by level (lexicographic within a
    level) as uint8 arrays, without walking sections vertex by vertex
    (see the module docstring for the three ways).

    A truncation yields slices of its stored bits, then all-zero rows:
    its sections below the portrait depth are the identity.
    """
    return g._rows(depth)


def portrait_of(g: Automorphism, depth: int) -> Portrait:
    """The depth-d truncated portrait of g (activity bits for |u| < depth)."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    return g._portrait(depth)


def compose(g: Automorphism, h: Automorphism) -> Automorphism:
    """The product gh acting by w^{gh} = (w^g)^h."""
    return compose_all(g, h)


def compose_all(*gs: Automorphism) -> Automorphism:
    """The product g1 g2 ... gn as one product over a flat factor tuple:
    nested products (the identity among them) are flattened and the root
    activity sums the arguments' (stored in products), so a product built
    in a loop never nests and costs linear time."""
    factors = tuple(f for g in gs for f in (g.factors if isinstance(g, _Product) else (g,)))
    if len(factors) == 1:
        return factors[0]
    return _Product(factors, sum(g.root_activity for g in gs) & 1) if factors else IDENTITY


def invert(g: Automorphism) -> Automorphism:
    return g._invert()


@dataclass(frozen=True)
class Distance:
    """Profinite distance 1/2^exponent, possibly only as an upper bound.

    `exact` is False when the two automorphisms agreed on every level up
    to the comparison cap, in which case the true distance is at most
    1/2^cap.
    """

    exponent: int
    exact: bool

    @property
    def value(self) -> Fraction:
        from fractions import Fraction  # here, not at import: it would cost every process start
        return Fraction(1, 1 << self.exponent)

    def __str__(self) -> str:
        s = "1" if self.exponent == 0 else f"1/{1 << self.exponent}"
        return s if self.exact else f"<={s}"


def distance(g: Automorphism, h: Automorphism, cap: int = 16) -> Distance:
    """Profinite distance: 1/2^n where n is the largest level on which g
    and h agree on all words; exact when a disagreement shows up at a
    level below `cap`, otherwise the tagged bound <= 1/2^cap."""
    if cap < 0:
        raise ValueError("cap must be non-negative")
    for n, (rg, rh) in enumerate(zip(activity_rows(g, cap), activity_rows(h, cap))):
        if not np.array_equal(rg, rh):
            return Distance(n, exact=True)
    return Distance(cap, exact=False)


def equal_to_depth(g: Automorphism, h: Automorphism, depth: int) -> bool:
    """Do g and h agree on all words of length up to `depth` (always, if depth < 0)?"""
    return depth < 0 or not distance(g, h, cap=depth).exact
