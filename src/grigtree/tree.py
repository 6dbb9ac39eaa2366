"""Binary rooted tree automorphisms with lazy section evaluation.

Vertices of the tree are finite words over {0, 1}, written as Python
strings ("" is the root, children of u are u+"0" and u+"1").  An
automorphism g is determined by its root activity bit (does it swap the
two subtrees?) together with its two sections g_0 and g_1, the induced
automorphisms on the subtrees.  The action on vertices is the right
action

    (xw)^g = (x ^ activity(g)) w^{g_x},

products read left to right: w^{gh} = (w^g)^h.

Everything here is immutable after construction; section lookups are
memoized per instance (a benign race under concurrent use: the value is
deterministic either way).  Portrait-backed truncations hand their
stored levels to `activity_rows` directly, so reading their portraits,
distances and activity profiles builds no section objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator


def check_vertex(u: str) -> str:
    """Validate a vertex label (a string over {0,1}; "" is the root)."""
    if any(ch not in "01" for ch in u):
        raise ValueError(f"invalid vertex label {u!r}: letters must be 0 or 1")
    return u


class Automorphism:
    """Base class: a lazily evaluable automorphism of the binary tree.

    Subclasses implement `root_activity` (0 or 1) and `_section(x)`; the
    public `section` memoizes.  Instances never expose mutable state.
    """

    __slots__ = ("_sections",)

    @property
    def root_activity(self) -> int:
        raise NotImplementedError

    def _section(self, x: int) -> "Automorphism":
        raise NotImplementedError

    def section(self, x: int) -> "Automorphism":
        """The section at child x (0 or 1)."""
        if x not in (0, 1):
            raise ValueError(f"child index must be 0 or 1, got {x!r}")
        try:
            memo = self._sections
        except AttributeError:
            memo = self._sections = {}
        if x not in memo:
            memo[x] = self._section(x)
        return memo[x]

    def _invert(self) -> "Automorphism":
        return _Inverse(self)

    # Convenience operator forms; the module-level functions are the
    # primary surface.
    def __mul__(self, other: "Automorphism") -> "Automorphism":
        return compose(self, other)

    def __invert__(self) -> "Automorphism":
        return invert(self)


class _Identity(Automorphism):
    __slots__ = ()

    @property
    def root_activity(self) -> int:
        return 0

    def _section(self, x: int) -> Automorphism:
        return self

    def _invert(self) -> Automorphism:
        return self

    def __repr__(self) -> str:
        return "IDENTITY"


#: The identity automorphism (a shared singleton).
IDENTITY = _Identity()


class _Product(Automorphism):
    """Composition gh, evaluated lazily: (gh)_x = g_x  h_{x^g}."""

    __slots__ = ("g", "h")

    def __init__(self, g: Automorphism, h: Automorphism):
        self.g = g
        self.h = h

    @property
    def root_activity(self) -> int:
        return self.g.root_activity ^ self.h.root_activity

    def _section(self, x: int) -> Automorphism:
        return compose(self.g.section(x), self.h.section(x ^ self.g.root_activity))


class _Inverse(Automorphism):
    """Lazy inverse: (g^-1)_y = (g_{y ^ activity(g)})^-1."""

    __slots__ = ("g",)

    def __init__(self, g: Automorphism):
        self.g = g

    @property
    def root_activity(self) -> int:
        return self.g.root_activity

    def _section(self, y: int) -> Automorphism:
        return invert(self.g.section(y ^ self.g.root_activity))

    def _invert(self) -> Automorphism:
        return self.g


@dataclass(frozen=True)
class Portrait:
    """A depth-d truncated activity decoration of the tree.

    `levels[i]` holds the 2**i activity bits of level i, vertices in
    lexicographic order (leftmost = all-zeros label).  Total bit count
    is 2**depth - 1.
    """

    levels: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for i, row in enumerate(self.levels):
            if len(row) != 1 << i:
                raise ValueError(f"level {i} must hold {1 << i} bits, got {len(row)}")
            if not set(row) <= {0, 1}:
                raise ValueError(f"level {i} contains a non-bit entry")

    @property
    def depth(self) -> int:
        return len(self.levels)

    def bit(self, u: str) -> int:
        """Activity bit at vertex u (|u| < depth)."""
        check_vertex(u)
        if len(u) >= self.depth:
            raise ValueError(f"vertex {u!r} is below depth {self.depth}")
        return self.levels[len(u)][int(u, 2) if u else 0]

    def child(self, x: int) -> "Portrait":
        """The depth-(d-1) portrait hanging below vertex x."""
        if x not in (0, 1):
            raise ValueError("child index must be 0 or 1")
        half = tuple(
            row[x * (len(row) // 2) : (x + 1) * (len(row) // 2)]
            for row in self.levels[1:]
        )
        return Portrait(half)

    def pack(self) -> int:
        """Bit-pack into an integer key: vertex u at level l sits at bit
        2**l - 1 + index(u), so a depth-d portrait packs into 2**d - 1 bits."""
        key = 0
        pos = 0
        for row in self.levels:
            for b in row:
                key |= b << pos
                pos += 1
        return key

    @classmethod
    def unpack(cls, key: int, depth: int) -> "Portrait":
        if key < 0 or key >> ((1 << depth) - 1):
            raise ValueError(f"key {key} out of range for depth {depth}")
        levels = []
        pos = 0
        for i in range(depth):
            levels.append(tuple((key >> (pos + j)) & 1 for j in range(1 << i)))
            pos += 1 << i
        return cls(tuple(levels))

    def to_text(self) -> str:
        """One line per level, 2**i characters of 0/1 in lexicographic order."""
        return "\n".join("".join(map(str, row)) for row in self.levels) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Portrait":
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if any(ch not in "01" for ch in line):
                raise ValueError(f"invalid portrait line {line!r}")
            rows.append(tuple(map(int, line)))
        return cls(tuple(rows))


class TruncationAutomorphism(Automorphism):
    """Portrait-backed automorphism; sections below the portrait depth are
    the identity (the coset-representative convention for quotients)."""

    __slots__ = ("portrait",)

    def __init__(self, portrait: Portrait):
        self.portrait = portrait

    @property
    def root_activity(self) -> int:
        return self.portrait.levels[0][0] if self.portrait.depth else 0

    def _section(self, x: int) -> Automorphism:
        if self.portrait.depth <= 1:
            return IDENTITY
        return TruncationAutomorphism(self.portrait.child(x))


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


def activity_rows(g: Automorphism, depth: int) -> Iterator[tuple[int, ...]]:
    """Yield decoration rows level by level (lexicographic within a level).

    A truncation yields its stored levels, then all-zero rows: its
    sections below the portrait depth are the identity.
    """
    if isinstance(g, TruncationAutomorphism):
        levels = g.portrait.levels
        for n in range(depth):
            yield levels[n] if n < len(levels) else (0,) * (1 << n)
        return
    row = [g]
    for _ in range(depth):
        yield tuple(h.root_activity for h in row)
        row = [h.section(x) for h in row for x in (0, 1)]


def portrait_of(g: Automorphism, depth: int) -> Portrait:
    """The depth-d truncated portrait of g (activity bits for |u| < depth)."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    return Portrait(tuple(activity_rows(g, depth)))


def compose(g: Automorphism, h: Automorphism) -> Automorphism:
    """The product gh acting by w^{gh} = (w^g)^h."""
    if g is IDENTITY:
        return h
    if h is IDENTITY:
        return g
    return _Product(g, h)


def compose_all(*gs: Automorphism) -> Automorphism:
    """The product g1 g2 ... gn, built as a balanced tree of pairwise
    products so that section chains stay O(log n) deep."""
    layer = list(gs) or [IDENTITY]
    while len(layer) > 1:
        pairs = [compose(g, h) for g, h in zip(layer[::2], layer[1::2])]
        layer = pairs + layer[2 * len(pairs):]
    return layer[0]


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
        if rg != rh:
            return Distance(n, exact=True)
    return Distance(cap, exact=False)


def equal_to_depth(g: Automorphism, h: Automorphism, depth: int) -> bool:
    """Do g and h agree on all words of length up to `depth`?"""
    return all(
        rg == rh for rg, rh in zip(activity_rows(g, depth), activity_rows(h, depth))
    )
