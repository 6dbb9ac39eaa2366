"""Brute-force ground truth at desk scale.

Two independent enumerations meet here: a breadth-first search of the
Grigorchuk group modulo level-n stabilizers (working with honest
generator products, nothing constraint-based), and an enumeration of
all depth-n decorations admitted by the window constraints.  Their
agreement at levels up to 5 is the desk-scale certificate for the
closure characterization; the module also spot-checks random generator
words against the window constraints.

A coset of the level-n stabilizer is named by its portrait key
(bit-packed as in Portrait.pack, at most 31 bits), and both
enumerations work on uint32 arrays of keys.  The BFS multiplies on the
left: act(s*g, u) = act(s, u) xor act(g, u^s), so key(s*g) is key(g)
with its bits permuted by s acting on the vertices, xor key(s).  Each
permutation is evaluated with one 256-entry table per key byte, derived
from the tree action of the generator itself.

Each BFS layer is checked against the two layers before it, in the
same sort that dedupes its candidates: the generators are involutions,
so the Cayley graph is undirected and a neighbour of layer L lies in
layer L-1, L or L+1.  Only reduced words are expanded (after a, one of
b, c, d; after b, c or d, only a): any other product is the parent
again, since s*s = 1, or a neighbour of the parent, since bcd = 1, so it
is never new.  Both steps use only the group relations, never the
window constraints.  Sets are deduplicated by sorting and comparing
neighbours, and membership is a binary search.

The random-word check builds the depth-8 rows of a chunk of sampled
words from one state table, so sections the words share are expanded
once, and scores all windows of the chunk in one pass.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .closure import _failing_windows, _window_rows
from .tree import Portrait, _table_rows, apply, portrait_of, vertex_index, vertex_label
from .words import ALPHABET, word_element

__all__ = [
    "PortraitSet",
    "QuotientSet",
    "enumerate_quotient",
    "enumerate_admissible_decorations",
    "VerificationReport",
    "verify_window_constraints",
    "save_portrait_set",
    "load_portrait_set",
]

MAX_LEVEL = 5


def _check_level(n: int) -> int:
    if not 1 <= n <= MAX_LEVEL:
        raise ValueError(f"level must be between 1 and {MAX_LEVEL}, got {n}")
    return n


def _first_of_runs(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal sorted keys."""
    mask = np.ones(sorted_keys.size, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=mask[1:])
    return mask


class PortraitSet:
    """A set of depth-n portraits, stored as sorted packed keys.  Keys
    already strictly increasing are not sorted again; they are copied
    unless read-only (as `load_portrait_set` gives them)."""

    def __init__(self, level: int, keys: np.ndarray):
        self.level = level
        keys = np.asarray(keys, dtype=np.uint32)
        if not np.all(keys[1:] > keys[:-1]):
            keys = np.sort(keys)
            first = _first_of_runs(keys)
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

    def _index(self, key: int) -> int | None:
        """Position of key in self.keys, or None if absent."""
        if not 0 <= key <= 0xFFFFFFFF:
            return None
        # a uint32 needle keeps numpy from casting the whole array
        i = int(np.searchsorted(self.keys, np.uint32(key)))
        return i if i < self.keys.size and int(self.keys[i]) == key else None

    def __contains__(self, item: Portrait | int) -> bool:
        return self._index(self.key_of(item)) is not None

    def portraits(self) -> Iterator[Portrait]:
        for key in self.keys:
            yield Portrait.unpack(int(key), self.level)

    __iter__ = portraits

    def __repr__(self) -> str:
        return f"{type(self).__name__}(level={self.level}, size={len(self)})"


class QuotientSet(PortraitSet):
    """The quotient of the Grigorchuk group by its level-n stabilizer,
    with a shortest generator word as witness for each coset.

    Coset i in discovery order, with key disc_keys[i], is
    ALPHABET[gens[i]] times coset parents[i]; the identity has parent -1.
    A BFS finds each coset once, so the discovery keys must be distinct.
    """

    def __init__(self, level, disc_keys, parents, gens):
        super().__init__(level, disc_keys)
        if len(self) != disc_keys.size:
            raise RuntimeError("the BFS discovered a coset twice")
        self._disc_keys = disc_keys
        self._parents = parents
        self._gens = gens
        self._order = None

    def witness(self, item: Portrait | int) -> str:
        """A shortest generator word whose depth-n portrait is the given
        coset key.  Each step of the BFS prepends one letter, so walking
        the parent chain reads the word from left to right."""
        key = self.key_of(item)
        i = self._index(key)
        if i is None:
            raise KeyError(f"key {key} not in quotient set")
        if self._order is None:
            self._order = np.argsort(self._disc_keys)
        idx = int(self._order[i])
        letters = []
        while self._parents[idx] >= 0:
            letters.append(ALPHABET[self._gens[idx]])
            idx = int(self._parents[idx])
        return "".join(letters)


def _left_multipliers(n: int) -> list[tuple[np.ndarray, int]]:
    """For each generator s, the byte tables of the bit permutation P_s
    with key(s*g) = P_s(key(g)) xor key(s), and key(s) itself.

    Bit u of P_s(k) is bit u^s of k.  tables[j][v] holds the bits that
    byte j of k, of value v, contributes to P_s(k).  Everything comes
    from the tree action of the generator element.
    """
    vertices = [vertex_label(v) for v in range((1 << n) - 1)]
    byte = np.arange(256, dtype=np.uint32)
    multipliers = []
    for letter in ALPHABET:
        s = word_element(letter)
        tables = np.zeros(((len(vertices) + 7) // 8, 256), dtype=np.uint32)
        for p, u in enumerate(vertices):
            src = vertex_index(apply(s, u))
            tables[src >> 3] |= ((byte >> (src & 7)) & 1) << p
        multipliers.append((tables, portrait_of(s, n).pack()))
    return multipliers


def _key_bytes(keys: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(keys, dtype="<u4").view(np.uint8).reshape(-1, 4)


def _left_product(key_bytes: np.ndarray, multiplier) -> np.ndarray:
    """key(s*g) for one generator s, given the key bytes of each g."""
    tables, key_s = multiplier
    out = tables[0][key_bytes[:, 0]]
    for j in range(1, tables.shape[0]):
        out |= tables[j][key_bytes[:, j]]
    out ^= np.uint32(key_s)
    return out


def enumerate_quotient(n: int) -> QuotientSet:
    """BFS of the Grigorchuk group acting on depth-n portraits, starting
    from the identity and left-multiplying by the four generators;
    returns every reachable coset with a shortest witness word.

    The generators are involutions, so a neighbour of layer L lies in
    layer L-1, L or L+1, and each layer is checked against the two
    before it only.  Only reduced words are expanded: a coset reached
    by a is multiplied by b, c and d, one reached by b, c or d by a
    only.  A dropped product is the parent itself (s*s*g = g), or, as
    bcd = 1 and b, c, d commute, the parent times the third of b, c, d;
    either way it lies in layer L-1 or L, so dropping it loses no coset
    and changes no first candidate.
    """
    _check_level(n)
    multipliers = _left_multipliers(n)
    previous = np.zeros(0, dtype=np.uint32)
    frontier = np.zeros(1, dtype=np.uint32)
    reached = np.zeros(1, dtype=np.uint8)  # the generator each coset was reached by
    disc_keys = [frontier]
    parents = [np.full(1, -1, dtype=np.int32)]
    gens = [reached]
    start = 0
    while frontier.size:
        size = frontier.size
        # (frontier slots, generators to multiply them by); a is
        # generator 0, and the identity is multiplied by all four
        if start == 0:
            expansions = [(np.zeros(1, dtype=np.int64), (0, 1, 2, 3))]
        else:
            expansions = [(np.flatnonzero(reached), (0,)),
                          (np.flatnonzero(reached == 0), (1, 2, 3))]
        # sort (key, tag) pairs: old keys carry tag 0, and candidate
        # c = gen*size + frontier slot carries c + 1; a run of equal keys
        # is fresh unless it starts with tag 0, and then its first tag is
        # its first candidate.  Each pair is one little-endian uint64,
        # key in the high half.
        old = previous.size + size
        tagged = np.empty(old + sum(slots.size * len(g) for slots, g in expansions),
                          dtype="<u8")
        pairs = tagged.view("<u4").reshape(-1, 2)
        pairs[:previous.size, 1] = previous
        pairs[previous.size:old, 1] = frontier
        pairs[:old, 0] = 0
        at = old
        for slots, generators in expansions:
            key_bytes = _key_bytes(frontier[slots])
            for g in generators:
                pairs[at:at + slots.size, 1] = _left_product(key_bytes, multipliers[g])
                pairs[at:at + slots.size, 0] = slots + (g * size + 1)
                at += slots.size
        tagged.sort()
        fresh = _first_of_runs(pairs[:, 1])
        fresh &= pairs[:, 0] != 0
        chosen = tagged[fresh].view("<u4").reshape(-1, 2)
        previous, frontier = frontier, chosen[:, 1].copy()
        cand = chosen[:, 0] - 1
        reached = (cand // size).astype(np.uint8)
        disc_keys.append(frontier)
        parents.append((start + cand % size).astype(np.int32))
        gens.append(reached)
        start += size
        if start > 1 << ((1 << n) - 1):  # more cosets than keys: a key came back
            raise RuntimeError("the BFS discovered a coset twice")
    return QuotientSet(n, np.concatenate(disc_keys),
                       np.concatenate(parents), np.concatenate(gens))


def enumerate_admissible_decorations(n: int) -> PortraitSet:
    """All depth-n portraits whose complete depth-3 windows (rooted at
    every vertex of level <= n-4) satisfy the window constraints.

    Levels 0-2 are free.  Row L >= 3 is the bottom row of the windows
    rooted at level L-3: every key is extended by the 5 free bits of
    each such window, and the 3 forced bits are filled in from the
    constraint table.
    """
    _check_level(n)
    keys = np.arange(1 << ((1 << min(n, 3)) - 1), dtype=np.uint32)
    rows = _window_rows()
    for level in range(3, n):
        above, mid, low = ((1 << (level - d)) - 1 for d in (2, 1, 0))
        out = keys[:, None]
        for i in range(1 << (level - 3)):
            ctx = np.zeros(keys.size, dtype=np.uint32)
            for pos in (above + 2 * i, above + 2 * i + 1,
                        mid + 4 * i, mid + 4 * i + 1, mid + 4 * i + 2, mid + 4 * i + 3):
                ctx = (ctx << 1) | ((keys >> pos) & 1)
            extension = rows[ctx] << (low + 8 * i)
            out = (out[:, :, None] | extension[:, None, :]).reshape(keys.size, -1)
        keys = out.ravel()
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


#: Samples whose rows come from one state table: memory stays flat in the
#: number of samples.
VERIFY_CHUNK = 4096


def verify_window_constraints(samples: int, max_len: int, seed: int = 0) -> VerificationReport:
    """Sample random generator words (uniform letters, lengths uniform
    in [0, max_len]) and check that the root window and every section
    window of the portrait to depth 8 is admissible.  Any counterexample
    word is listed in the report, in sample order; none is expected.

    The words of each chunk of VERIFY_CHUNK samples share one state table
    (`tree._table_rows`), so a section that several words have in common
    is expanded once, and all their windows are scored in one pass.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    rng = random.Random(seed)
    choice = rng.choice
    report = VerificationReport(samples=samples, max_len=max_len, seed=seed)
    for start in range(0, samples, VERIFY_CHUNK):
        words = []
        for _ in range(min(VERIFY_CHUNK, samples - start)):
            length = rng.randint(0, max_len)
            words.append("".join([choice(ALPHABET) for _ in range(length)]))
        rows = _table_rows([word_element(w) for w in words], 8)
        bad = _failing_windows(np.concatenate(list(rows), axis=1)).any(axis=1)
        report.violations.extend(words[i] for i in np.flatnonzero(bad))
    return report


def _key_dtype(level: int) -> np.dtype:
    """The narrowest little-endian unsigned key type holding 2^level - 1 bits."""
    for width in (1, 2, 4):
        if (1 << level) - 1 <= 8 * width:
            return np.dtype(f"<u{width}")
    raise ValueError(f"level {level} too deep for the cache format")


def save_portrait_set(path, pset: PortraitSet) -> None:
    """Write a flat binary cache: 8-byte header (level, count, both
    little-endian uint32), then the sorted keys at the fixed width the
    level requires (1, 2 or 4 bytes)."""
    dtype = _key_dtype(pset.level)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", pset.level, len(pset)))
        fh.write(np.ascontiguousarray(pset.keys.astype(dtype)).tobytes())


def load_portrait_set(path) -> PortraitSet:
    """Read a cache written by save_portrait_set, rejecting any file
    that save_portrait_set could not have written."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError("truncated portrait cache header")
        level, count = struct.unpack("<II", header)
        _check_level(level)
        dtype = _key_dtype(level)
        body = fh.read()
    if len(body) % dtype.itemsize:
        raise ValueError(
            f"portrait cache body of {len(body)} bytes is not a whole number "
            f"of {dtype.itemsize}-byte keys")
    keys = np.frombuffer(body, dtype=dtype)
    if keys.size != count:
        raise ValueError(
            f"portrait cache declares {count} keys but contains {keys.size}")
    if count and not np.all(keys[1:] > keys[:-1]):
        raise ValueError("portrait cache keys are not sorted ascending")
    bits = (1 << level) - 1
    if count and int(keys[-1]) >> bits:
        raise ValueError(
            f"portrait cache key {int(keys[-1])} does not fit in the "
            f"{bits} bits of level {level}")
    return PortraitSet(level, keys.astype(np.uint32, copy=False))
