"""Near-top portrait constraints and closure membership.

For an automorphism g, write alpha_u for its decoration bit at vertex u
and, for each level-2 vertex xy,

    beta_xy = alpha_xy + alpha_{x y' 0} + alpha_{x y' 1}   (mod 2),

where y' is the letter different from y.  The six bits
(alpha_0, alpha_1, beta_00, beta_01, beta_10, beta_11) of any element of
the Grigorchuk group fall into exactly eight admissible patterns
(CONSTRAINT_TABLE below); a window of decoration bits satisfying them is
said to *simulate* the group.  An automorphism belongs to the closure of
the group in Aut(T) exactly when the window below every vertex
simulates it, which this module checks to finite depth.  The same
free/forced bit count drives the exact Hausdorff-dimension estimate
(-> 5/8).

Windows are read by vertex index out of a portrait's bit row: the
windows below consecutive vertices are three slices reshaped to 2, 4
and 8 columns.  `_profiles` turns them into six-bit profiles, scored by
a 64-entry table, for all windows in the closure check and for one in
`window_at`, `beta_profile` and `simulates_grigorchuk`.  The window
below a vertex depends only on the section there, so a finite-state
element is checked one window per state of its state graph, gathered
through the child array (`in_closure_up_to`).  The forced-bit
table and the coset ids that group the admissible rows are derived from
the same 64 entries, in one pass over the 256 level-3 rows
(`_window_tables`).  The sampler fills a level at a time: rows L-2, L-1
and L hold the windows rooted at level L-3 side by side, and one lookup
in the forced-bit table completes them.  Its drawn bits come from a
counter hash: the bit at vertex index v is the top bit of SplitMix64's
output function applied to the seed's key plus (v + 1) times the
golden-ratio increment, hashed for the free vertices alone.

The constraint side of the level-n cross-check is here too; the group
side, a BFS that never reads the constraints, is the oracle module, and
neither module imports the other.  The admissible enumeration adds one
level row at a time, in the highest bits of the key, with no sort: a
window's admissible rows are one coset of a fixed 5-dimensional subspace
of GF(2)^8, so the keys of a level fall into classes that admit the same
rows.  The random-word check draws its words from the same counter hash,
one hash per word for its length and one per 32 letters, and scores the
depth-8 windows of a chunk of words, built from one state graph, in one
pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from .tree import (BLOCK_KEYS, Automorphism, Portrait, PortraitSet, TruncationAutomorphism,
                   _check_level, _Product, _StateGraph, _table_rows, portrait_of, vertex_index,
                   vertex_label)
from .words import ALPHABET, WordAutomorphism

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BetaProfile",
    "CONSTRAINT_TABLE",
    "WindowDecoration",
    "ClosureVerdict",
    "beta_profile",
    "window_at",
    "simulates_grigorchuk",
    "in_closure_up_to",
    "portrait_closure_verdict",
    "within_sixteenth_of_G",
    "complete_window",
    "sample_closure_element",
    "enumerate_admissible_decorations",
    "VerificationReport",
    "verify_window_constraints",
    "free_bit_count",
    "hausdorff_estimate",
]


@dataclass(frozen=True)
class BetaProfile:
    """The six near-top bits of a portrait: level-1 activities and the four
    beta combinations of levels 2-3."""

    alpha0: int
    alpha1: int
    beta00: int
    beta01: int
    beta10: int
    beta11: int

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.alpha0, self.alpha1, self.beta00, self.beta01,
                self.beta10, self.beta11)


#: The eight admissible (alpha0, alpha1 | beta00, beta01, beta10, beta11)
#: patterns: two complementary beta-patterns per (alpha0, alpha1) pair.
CONSTRAINT_TABLE: frozenset[tuple[int, int, int, int, int, int]] = frozenset({
    (0, 0, 0, 0, 0, 0), (0, 0, 1, 1, 1, 1),
    (0, 1, 1, 0, 0, 0), (0, 1, 0, 1, 1, 1),
    (1, 0, 0, 0, 1, 0), (1, 0, 1, 1, 0, 1),
    (1, 1, 0, 1, 1, 0), (1, 1, 1, 0, 0, 1),
})

#: Admissibility of the 64 six-bit window profiles, indexed by
#: alpha0 alpha1 beta00 beta01 beta10 beta11 read as a binary number.
_ADMISSIBLE = np.zeros(64, dtype=bool)
_ADMISSIBLE[[sum(bit << (5 - j) for j, bit in enumerate(row))
             for row in CONSTRAINT_TABLE]] = True

#: Level-3 positions of a window's free bits a_001 a_011 a_101 a_111
#: a_110, least significant first in a free-bit index (unsigned, as
#: offsets of the hash counters of a row).
_FREE = np.array((1, 3, 5, 7, 6), dtype=np.uint64)


def _profiles(l1, l2, l3):
    """Six-bit profiles alpha0 alpha1 beta00 beta01 beta10 beta11 (most
    significant first) of windows given by their level rows, as arrays
    with 2, 4 and 8 columns (one window per row)."""
    return ((l1[:, 0] << 5) | (l1[:, 1] << 4)
            | (l2[:, 0] ^ l3[:, 2] ^ l3[:, 3]) << 3  # beta00
            | (l2[:, 1] ^ l3[:, 0] ^ l3[:, 1]) << 2  # beta01
            | (l2[:, 2] ^ l3[:, 6] ^ l3[:, 7]) << 1  # beta10
            | (l2[:, 3] ^ l3[:, 4] ^ l3[:, 5]))  # beta11


def _windows(bits: np.ndarray, v: int, n: int) -> list[np.ndarray]:
    """Level rows 1-3 of the windows below vertex indices v..v+n-1 of a
    vertex-order bit row (or of each row of a matrix of them, row by row),
    with 2, 4 and 8 columns."""
    return [bits[..., ((v + 1) << k) - 1:((v + 1 + n) << k) - 1].reshape(-1, 1 << k)
            for k in (1, 2, 3)]


def _failing_windows(bits: np.ndarray) -> np.ndarray:
    """Which complete windows of depth-d vertex-order bit rows (the last
    axis) fail: the windows below vertices v < 2^(d-3) - 1 in vertex
    order, one row of them per bit row."""
    n = (1 << (bits.shape[-1].bit_length() - 3)) - 1
    return ~_ADMISSIBLE[_profiles(*_windows(bits, 0, n))].reshape(*bits.shape[:-1], n)


#: The bits of each 8-bit level-3 row value: _ROW_BITS[row, r] = a_r, r
#: read as three binary digits (built without numpy shifts, as
#: `_BYTE_LETTERS` is).
_ROW_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")


@lru_cache(maxsize=None)
def _window_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, syndrome, coset): the tables of a window's level-3 row, read
    as 8 bits (bit r = a_r), and of the six bits ctx = a_0 a_1 a_00 a_01
    a_10 a_11 above it (most significant first).

    A window's profile is ctx ^ pairs, the row's pair xors read as a
    profile under a zero context, and exactly one admissible row has each
    (context, free bits): rows[ctx, free], for the free-bit index free.
    The pair xors are the row's own four betas, which must be one of two
    complementary patterns fixed by the context.  So the smaller pattern
    of the pair, the coset id syndrome[row], is the same, coset[ctx], for
    all 32 admissible rows of a context.  That is a linear map onto
    GF(2)^3 whose kernel V is 5-dimensional: the admissible rows of every
    context are one coset of V."""
    zero = np.zeros((256, 4), dtype=np.uint8)
    pairs = _profiles(zero, zero, _ROW_BITS)
    ctx, row = np.nonzero(_ADMISSIBLE[np.arange(64)[:, None] ^ pairs])
    cell = ctx * 32 + sum(_ROW_BITS[row, r] << j for j, r in enumerate(_FREE))
    assert np.array_equal(np.sort(cell), np.arange(64 * 32)), "forcing is not unique"
    rows = np.zeros(64 * 32, dtype=np.uint32)
    rows[cell] = row
    rows = rows.reshape(64, 32)
    syndrome = np.minimum(pairs, pairs ^ 15)
    coset = syndrome[rows[:, 0]]
    assert np.array_equal(np.bincount(syndrome), [32] * 8), "V is not 5-dimensional"
    assert np.all(syndrome[rows] == coset[:, None]), "admissible rows are not a coset of V"
    rows.flags.writeable = syndrome.flags.writeable = coset.flags.writeable = False
    return rows, syndrome, coset


@dataclass(frozen=True)
class WindowDecoration:
    """The 14 decoration bits of the three levels below a vertex:
    level1 = (a_0, a_1), level2 = (a_00, a_01, a_10, a_11),
    level3 = (a_000, ..., a_111), all in lexicographic order and relative
    to the window root."""

    level1: tuple[int, int]
    level2: tuple[int, int, int, int]
    level3: tuple[int, int, int, int, int, int, int, int]

    def __post_init__(self):
        for name, row, size in (("level1", self.level1, 2),
                                ("level2", self.level2, 4),
                                ("level3", self.level3, 8)):
            if len(row) != size or any(b not in (0, 1) for b in row):
                raise ValueError(f"{name} must be {size} bits")


def window_at(p: Portrait, u: str = "") -> WindowDecoration:
    """The depth-3 window below vertex u, read out of a portrait
    (requires p.depth >= |u| + 4)."""
    v = vertex_index(u)
    if p.depth < len(u) + 4:
        raise ValueError(
            f"portrait depth {p.depth} too shallow for a window below {u!r}")
    return WindowDecoration(*(tuple(row[0].tolist()) for row in _windows(p.bits, v, 1)))


def beta_profile(p: Portrait) -> BetaProfile:
    """The BetaProfile of the root window of a portrait (depth >= 4)."""
    if p.depth < 4:
        raise ValueError(f"portrait depth {p.depth} too shallow for a window")
    profile = int(_profiles(*_windows(p.bits, 0, 1))[0])
    return BetaProfile(*((profile >> (5 - j)) & 1 for j in range(6)))


def simulates_grigorchuk(w: WindowDecoration) -> bool:
    """Does this window's profile match an admissible pattern?"""
    rows = (np.array([row], dtype=np.uint8) for row in (w.level1, w.level2, w.level3))
    return bool(_ADMISSIBLE[_profiles(*rows)[0]])


@dataclass(frozen=True)
class ClosureVerdict:
    """Outcome of a finite-depth closure check.  Falsy on violation;
    `violation` then names the shallowest (then lexicographically first)
    vertex whose window fails."""

    ok: bool
    depth: int
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok

    def format(self) -> str:
        if self.ok:
            return f"OK depth={self.depth}"
        return f"VIOLATION vertex={self.violation or '-'}"


def portrait_closure_verdict(p: Portrait) -> ClosureVerdict:
    """Check every complete window of a portrait (depth >= 4).

    In the vertex-order bit row, vertex v has its children at 2v+1..2v+2,
    its grandchildren at 4v+3..4v+6 and its great-grandchildren at
    8v+7..8v+14.  Three slices thus line up the windows of all vertices
    v < 2^(depth-3) - 1 side by side, shallowest level first and
    lexicographic within a level, and the first failing window in that
    order is the violation.
    """
    if p.depth < 4:
        raise ValueError("closure checks need portrait depth >= 4")
    bad = _failing_windows(p.bits)
    if not bad.any():
        return ClosureVerdict(True, p.depth)
    return ClosureVerdict(False, p.depth, vertex_label(int(bad.argmax())))


def in_closure_up_to(g: Automorphism, depth: int) -> ClosureVerdict:
    """Finite-depth closure membership: every window below a vertex of
    length <= depth-4 must simulate the group.  A passing verdict at
    depth d is necessary (not sufficient) for closure membership.

    Products and truncations are scanned on their depth-d portraits.
    Any other element is finite-state: its state graph is grown through
    level depth-1, and the window of each state first seen on a level
    <= depth-4 is scored once.  State ids follow first occurrences, so
    the lowest failing id first occurs at the violation."""
    if depth < 4:
        raise ValueError("closure checks need depth >= 4")
    if isinstance(g, (_Product, TruncationAutomorphism)):  # no state graph
        return portrait_closure_verdict(portrait_of(g, depth))
    graph = _StateGraph((g,))
    scored = 1  # the states first seen on levels 0..depth-4
    for n in range(1, depth):  # intern levels 1..depth-1, unless the graph is complete
        new = graph.grow()
        if n <= depth - 4:
            scored = len(graph.states)
        if not new:
            break
    child, acts = graph.child, np.array(graph.acts, dtype=np.uint8)
    l1 = child[:scored]
    l2 = child.take(l1, axis=0).reshape(scored, 4)
    l3 = child.take(l2, axis=0).reshape(scored, 8)
    bad = ~_ADMISSIBLE[_profiles(acts.take(l1), acts.take(l2), acts.take(l3))]
    if not bad.any():
        return ClosureVerdict(True, depth)
    return ClosureVerdict(False, depth, vertex_label(graph.first_vertex(int(bad.argmax()))))


def within_sixteenth_of_G(g: Automorphism, quotient=None) -> bool:
    """Is g within distance 1/16 of the Grigorchuk group, i.e. does its
    depth-4 portrait match that of some group element?

    With `quotient` (a level-4 portrait set, e.g. from the oracle
    module) the check is by direct membership; without it, by the
    equivalent root-window constraint.
    """
    p = portrait_of(g, 4)
    if quotient is not None:
        if getattr(quotient, "level", 4) != 4:
            raise ValueError("quotient cache must be at level 4")
        return p in quotient
    return bool(portrait_closure_verdict(p))


def complete_window(
    level1: tuple[int, int],
    level2: tuple[int, int, int, int],
    free: tuple[int, int, int, int, int],
) -> WindowDecoration:
    """Fill in the three forced level-3 bits of a window.

    `free` holds the freely chosen level-3 bits in the order
    (a_001, a_011, a_101, a_111, a_110); a_000, a_010 and a_100 are then
    forced by the window constraint.  The result always simulates the
    group.
    """
    if ((len(level1), len(level2), len(free)) != (2, 4, 5)
            or not set((*level1, *level2, *free)) <= {0, 1}):
        raise ValueError("window inputs must be 2, 4 and 5 bits")
    ctx = sum(bit << (5 - j) for j, bit in enumerate((*level1, *level2)))
    row = int(_window_tables()[0][ctx, sum(bit << j for j, bit in enumerate(free))])
    return WindowDecoration(tuple(level1), tuple(level2),
                            tuple((row >> r) & 1 for r in range(8)))


_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's counter increment


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function on a uint64 array, in place (numpy
    arrays wrap on overflow)."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _drawn_bits(key: np.ndarray, level: int, step: int = 1, offset=0) -> np.ndarray:
    """The drawn bits of a level, key being mix64(seed): at vertex index
    v, the top bit of mix64(key + (v + 1) * 0x9E3779B97F4A7C15) in
    wrapping uint64 arithmetic, at the vertices offset, offset + step,
    ... of the level only (a column of offsets gives one row of bits per
    offset).  A bit depends only on the seed and its vertex, so extending
    the depth never changes the bits already drawn."""
    counter = np.arange(1 << level, 2 << level, step, dtype=np.uint64) + offset  # v + 1
    return (_mix64(counter * _GOLDEN + key) >> 63).astype(np.uint8)


def sample_closure_element(seed: int, depth: int) -> Portrait:
    """Sample a depth-d portrait satisfying every window constraint.

    Levels 0-2 are drawn freely; from level 3 on, the bits at vertices
    whose label ends in 1 or in 110 are drawn freely and the remaining
    three bits of each window rooted three levels up are forced, a level
    at a time, by one lookup in the forced-bit table.  Only the free
    vertices are hashed.  Deterministic in the seed, which must satisfy
    0 <= seed < 2^64.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} is outside 0 <= seed < 2^64")
    if depth < 4:
        raise ValueError("sampling needs depth >= 4")
    key = _mix64(np.array([seed], dtype=np.uint64))
    rows = [_drawn_bits(key, level) for level in range(3)]
    table = _window_tables()[0]
    for level in range(3, depth):
        l1 = rows[level - 2].reshape(-1, 2)
        l2 = rows[level - 1].reshape(-1, 4)
        l3 = _drawn_bits(key, level, 8, _FREE[:, None])  # one row per free vertex
        ctx = ((l1[:, 0] << 5) | (l1[:, 1] << 4) | (l2[:, 0] << 3)
               | (l2[:, 1] << 2) | (l2[:, 2] << 1) | l2[:, 3])
        free = l3[0] | l3[1] << 1 | l3[2] << 2 | l3[3] << 3 | l3[4] << 4
        rows.append(np.unpackbits(table[ctx, free].astype(np.uint8), bitorder="little"))
    return Portrait(rows)


def enumerate_admissible_decorations(n: int) -> PortraitSet:
    """All depth-n portraits whose complete depth-3 windows (rooted at
    every vertex of level <= n-4) satisfy the window constraints.

    Levels 0-2 are free.  Row L >= 3 is the bottom row of the m = 2^(L-3)
    windows rooted at level L-3, and it fills the highest bits of the
    key.  The admissible rows of a window are one coset of a fixed
    5-dimensional subspace of GF(2)^8 (`_window_tables`), picked by the
    window's context, so a key admits exactly the rows whose m coset ids
    equal its own tuple of context coset ids.  That tuple, 3 bits per
    window in a uint32, is the key's class; a row's class is an outer sum
    over its bytes, byte i adding syndrome << 3i, so the 2^(8m) rows take
    one addition each.  Keys of one class form one row of a class table
    (a stable sort keeps each class ascending), and every class holds as
    many keys.  Walking the values of the new row that fit an occupied
    class in increasing order, each is OR'd onto the keys of its class:
    the new row is the high part and each class ascends, so the keys come
    out strictly increasing, with no sort.  The new level is filled
    BLOCK_KEYS keys at a time, each block gathered from the class table
    and OR'd with its rows while it is in cache.
    """
    _check_level(n)
    keys = np.arange(1 << ((1 << min(n, 3)) - 1), dtype=np.uint32)
    _, syndrome, coset = _window_tables()
    for level in range(3, n):
        above, mid, low = ((1 << (level - d)) - 1 for d in (2, 1, 0))
        m = 1 << (level - 3)
        key_class = np.zeros(keys.size, dtype=np.uint32)
        row_class = np.zeros(1, dtype=np.uint32)
        for i in range(m):
            ctx = np.zeros(keys.size, dtype=np.uint32)
            for pos in (above + 2 * i, above + 2 * i + 1,
                        mid + 4 * i, mid + 4 * i + 1, mid + 4 * i + 2, mid + 4 * i + 3):
                ctx = (ctx << 1) | ((keys >> pos) & 1)
            key_class |= coset[ctx].astype(np.uint32) << (3 * i)
            # byte i is the high part of the rows so far
            row_class = np.add.outer(syndrome.astype(np.uint32) << (3 * i), row_class).ravel()
        sizes = np.bincount(key_class, minlength=8 ** m)
        size = int(sizes.max())
        occupied = sizes > 0
        assert np.all(sizes[occupied] == size), "classes of unequal size"
        # one row per occupied class, in class order, each ascending
        classes = keys.take(np.argsort(key_class, kind="stable")).reshape(-1, size)
        rows = np.flatnonzero(occupied.take(row_class))  # the rows that fit, ascending
        # the row of `classes` each of them fits
        slots = (np.cumsum(occupied) - 1).astype(np.uint32).take(row_class.take(rows))
        high = (rows.astype(np.uint32) << np.uint32(low))[:, None]
        del row_class, rows  # freed before the level is allocated
        keys = np.empty((slots.size, size), dtype=np.uint32)
        step = max(1, BLOCK_KEYS // size)
        for start in range(0, slots.size, step):
            block = keys[start:start + step]
            # the indices are in range; mode "raise" would copy through a buffer
            classes.take(slots[start:start + step], axis=0, out=block, mode="clip")
            block |= high[start:start + step]
        keys = keys.reshape(-1)
    keys.flags.writeable = False  # strictly increasing, so PortraitSet keeps it
    return PortraitSet(n, keys)


@dataclass
class VerificationReport:
    """Outcome of sampling random generator words against the window
    constraints of their portraits to depth 8."""

    samples: int
    max_len: int
    seed: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        return (f"seed={self.seed} samples={self.samples} "
                f"max_len={self.max_len} violations={len(self.violations)}")


#: Samples whose rows come from one state graph: memory stays flat in the
#: number of samples.
VERIFY_CHUNK = 4096

#: The four letters of each byte value, two bits a letter, lowest first
#: (built without numpy shifts: their first use pages in about 140 kB).
_BYTE_LETTERS = np.frombuffer("".join(
    ALPHABET[byte >> shift & 3] for byte in range(256) for shift in (0, 2, 4, 6)
).encode("ascii"), dtype=np.uint8).reshape(256, 4)


def _sampled_words(seed: int, start: int, count: int, max_len: int,
                   letter: int) -> tuple[list[str], int]:
    """Words start, ..., start + count - 1 of the seed, and the position
    in the letter stream after them (the words take their letters in
    order from position `letter` on).

    With h(n) = mix64(mix64(seed) + n * 0x9E3779B97F4A7C15) mod 2^64,
    word i has h(2i) * (max_len + 1) >> 64 letters (Lemire's
    multiply-shift, on Python ints), and letter j of the stream is
    ALPHABET[(h(2 floor(j / 32) + 1) >> 2(j mod 32)) & 3]: each letter
    hash is read as little-endian bytes, and each byte gives four
    letters.
    """
    key = _mix64(np.array([seed], dtype=np.uint64))
    counters = np.arange(2 * start, 2 * (start + count), 2, dtype=np.uint64)
    lengths = [h * (max_len + 1) >> 64 for h in _mix64(counters * _GOLDEN + key).tolist()]
    ends = list(accumulate(lengths, initial=0))
    stop = letter + ends[-1]
    first, end = letter >> 5, (stop + 31) >> 5  # the letter hashes the words read
    counters = np.arange(2 * first + 1, 2 * end, 2, dtype=np.uint64)
    hashes = _mix64(counters * _GOLDEN + key).astype("<u8", copy=False)
    codes = _BYTE_LETTERS[hashes.view(np.uint8)].reshape(-1)[letter - 32 * first:]
    text = codes[:ends[-1]].tobytes().decode("ascii")
    return [text[a:b] for a, b in zip(ends, ends[1:])], stop


def verify_window_constraints(samples: int, max_len: int, seed: int = 0) -> VerificationReport:
    """Sample random generator words (uniform letters, lengths uniform
    in [0, max_len]) and check that the root window and every section
    window of the portrait to depth 8 is admissible.  Any counterexample
    word is listed in the report, in sample order; none is expected.

    The words come from the SplitMix64 counter hash of the seed, which
    must satisfy 0 <= seed < 2^64 as `sample`'s does (see
    `_sampled_words`).  The words of each chunk of VERIFY_CHUNK samples
    share one state graph (`tree._table_rows`), so a section that several
    words have in common is expanded once, and all their windows are
    scored in one pass.  Every root is a word state, the empty word too,
    so each level of the table is expanded in one call.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} is outside 0 <= seed < 2^64")
    report = VerificationReport(samples=samples, max_len=max_len, seed=seed)
    letter = 0
    for start in range(0, samples, VERIFY_CHUNK):
        words, letter = _sampled_words(seed, start, min(VERIFY_CHUNK, samples - start),
                                       max_len, letter)
        rows = _table_rows(map(WordAutomorphism, words), 8)
        bad = _failing_windows(np.concatenate(list(rows), axis=1)).any(axis=1)
        report.violations.extend(words[i] for i in np.flatnonzero(bad))
    return report


def free_bit_count(n: int) -> int:
    """Number of freely choosable decoration bits on levels 0..n-1: all
    2^n - 1 bits up to level 3, and 5 of every 8 bits per level beyond."""
    if n < 0:
        raise ValueError("level count must be non-negative")
    if n <= 3:
        return (1 << n) - 1
    return 2 + 5 * (1 << (n - 3))


def hausdorff_estimate(n: int) -> Fraction:
    """Level-n dimension estimate: free decoration bits over all 2^n - 1
    decoration bits, as an exact rational.  Tends to 5/8."""
    if n < 1:
        raise ValueError("estimate needs n >= 1")
    from fractions import Fraction  # here, not at import: it would cost every process start
    return Fraction(free_bit_count(n), (1 << n) - 1)
