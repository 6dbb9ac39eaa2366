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
with its bits permuted by s acting on the vertices, xor key(s).  A
product is two gathers, one from a 65,536-entry table per 16-bit half
of the key, derived from the tree action of the generator itself.

The BFS checks each layer only against itself, in the same sort that
dedupes its candidates.  The generators are involutions, so a neighbour
of layer L lies in layer L-1, L or L+1, and the generators s with s*g
in layer L-1 are exactly those of the candidates that reached g.  g is
never multiplied by them, nor by b, c or d once one of those is among
them: as bcd = 1, that product is a neighbour of layer L-1.  So no
candidate lies in layer L-1, and no coset is lost.  This uses only the
group relations, never the window constraints.  Sets are deduplicated
by sorting and comparing neighbours, and membership is a binary search.

The admissible enumeration needs no sort.  It adds one level row at a
time, in the highest bits of the key.  The admissible rows of a window
are one coset of a fixed 5-dimensional subspace of GF(2)^8, chosen by
the window's context, so the keys of the level above fall into classes
that admit the same rows.  Walking the new row's values in increasing
order and emitting, for each, its class of keys (ascending) gives keys
that already increase.  A cache is read with one call into the key
array.

The random-word check builds the depth-8 rows of a chunk of sampled
words from one state table, so sections the words share are expanded
once, and scores all windows of the chunk in one pass.
"""

from __future__ import annotations

import os
import random
import struct
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .closure import _failing_windows, _row_cosets
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
    unless read-only (as `load_portrait_set` and
    `enumerate_admissible_decorations` give them)."""

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


def _left_tables(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each generator s, the tables (low, high) with
    key(s*g) = low[k & 0xFFFF] ^ high[k >> 16] for k = key(g).

    Bit u of key(s*g) is bit u^s of k xor bit u of key(s), so each bit
    of k moves to one bit of the product: a table over a 16-bit half of
    k is built by doubling, one bit of the half at a time, and key(s) is
    folded into the low table.  Everything comes from the tree action of
    the generator element.
    """
    bits = (1 << n) - 1
    tables = []
    for letter in ALPHABET:
        s = word_element(letter)
        moved = [0] * bits  # moved[j]: the product bit that bit j of k sets
        for p in range(bits):
            moved[vertex_index(apply(s, vertex_label(p)))] = 1 << p
        halves = []
        for half in (moved[:16], moved[16:]):
            table = np.zeros(1, dtype=np.uint32)
            for bit in half:
                table = np.concatenate((table, table ^ np.uint32(bit)))
            halves.append(table)
        halves[0] ^= np.uint32(portrait_of(s, n).pack())
        tables.append(tuple(halves))
    return tables


def _key_halves(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and high 16-bit halves of uint32 keys, as gather indices."""
    return (np.bitwise_and(keys, 0xFFFF, dtype=np.intp),
            np.right_shift(keys, 16, dtype=np.intp))


def _left_product(halves, table, out=None) -> np.ndarray:
    """key(s*g) for one generator s, given the key halves of each g."""
    return np.bitwise_xor(table[0].take(halves[0]), table[1].take(halves[1]), out=out)


#: The least size of a BFS buffer.  glibc maps every block this large
#: (its dynamic mmap threshold stops at 32 MiB), so a buffer never sits in
#: the heap, whatever ran before, and goes back to the system when freed;
#: pages never written take no memory.
BUFFER_BYTES = 32 << 20


def _grow(buffer: np.ndarray, size: int, keep: int = 0) -> np.ndarray:
    """buffer if it holds size entries, else a larger one that starts with buffer[:keep]."""
    if buffer.size >= size:
        return buffer
    grown = np.empty(max(2 * size, BUFFER_BYTES // buffer.itemsize), dtype=buffer.dtype)
    grown[:keep] = buffer[:keep]
    return grown


#: A candidate's tag is (generator << SLOT_BITS | index of its parent) + 1.
SLOT_BITS = 29


def enumerate_quotient(n: int) -> QuotientSet:
    """BFS of the Grigorchuk group acting on depth-n portraits, starting
    from the identity and left-multiplying by the four generators;
    returns every reachable coset with a shortest witness word.

    A neighbour of layer L lies in layer L-1, L or L+1, and R(g), the
    generators s with s*g in layer L-1, are those of the candidates that
    reached g.  g is multiplied by a only if a is not in R(g), and by b,
    c and d only if R(g) holds none of them.  So no product lies in
    layer L-1.  A dropped b, c or d product t*g is (t*u)*(u*g) for a u
    of b, c, d in R(g), where t*u is 1 or one of b, c, d (bcd = 1), so
    it lies in layer L-2, L-1 or L: no coset is lost, and no first
    candidate changes.
    """
    _check_level(n)
    tables = _left_tables(n)
    # cosets in discovery order; the frontier is [start, end)
    disc_keys = np.zeros(1, dtype=np.uint32)
    parents = np.full(1, -1, dtype=np.int32)
    gens = np.zeros(1, dtype=np.uint8)
    # (frontier slots, generators to multiply them by); a is generator 0,
    # and the identity is multiplied by all four
    expansions = [(np.zeros(1, dtype=np.intp), (0, 1, 2, 3))]
    tagged, first = np.empty(0, dtype="<u8"), np.empty(0, dtype=bool)
    start, end = 0, 1
    while end > start:
        frontier, size = disc_keys[start:end], end - start
        # sort (key, tag) pairs: frontier keys carry tag 0, candidates
        # their tag; a run of equal keys is fresh unless it starts with
        # tag 0, and then its first tag is its first candidate.  Each pair
        # is one little-endian uint64, key in the high half.
        total = size + sum(slots.size * len(g) for slots, g in expansions)
        tagged, first = _grow(tagged, total), _grow(first, total + 1)
        pairs = tagged[:total].view("<u4").reshape(-1, 2)
        pairs[:size, 1] = frontier
        pairs[:size, 0] = 0
        at = size
        for slots, generators in expansions:
            k = slots.size
            halves = _key_halves(frontier.take(slots))
            for g in generators:
                _left_product(halves, tables[g], out=pairs[at:at + k, 1])
                np.add(slots, (g << SLOT_BITS) + start + 1, out=pairs[at:at + k, 0],
                       casting="unsafe")
                at += k
        tagged[:total].sort()
        # first[i]: entry i starts a run; a fresh run of one candidate
        # tells R(g) = {its generator}
        first[0] = first[total] = True
        np.not_equal(pairs[1:, 1], pairs[:-1, 1], out=first[1:total])
        fresh = np.flatnonzero(np.logical_and(first[:total], pairs[:, 0]))
        new = end + fresh.size
        if new > 1 << ((1 << n) - 1):  # more cosets than keys: a key came back
            raise RuntimeError("the BFS discovered a coset twice")
        disc_keys = _grow(disc_keys, new, end)
        parents = _grow(parents, new, end)
        gens = _grow(gens, new, end)
        chosen = tagged.take(fresh).view("<u4").reshape(-1, 2)
        disc_keys[end:new] = chosen[:, 1]
        cand = chosen[:, 0] - 1
        np.bitwise_and(cand, (1 << SLOT_BITS) - 1, out=parents[end:new], casting="unsafe")
        np.right_shift(cand, SLOT_BITS, out=gens[end:new], casting="unsafe")
        by_a = gens[end:new] == 0
        expansions = [(np.flatnonzero(~by_a), (0,)),
                      (np.flatnonzero(by_a & first[1:].take(fresh)), (1, 2, 3))]
        start, end = end, new
    del tagged, first  # unmapped before QuotientSet sorts a copy of the keys
    return QuotientSet(n, disc_keys[:end], parents[:end], gens[:end])


def enumerate_admissible_decorations(n: int) -> PortraitSet:
    """All depth-n portraits whose complete depth-3 windows (rooted at
    every vertex of level <= n-4) satisfy the window constraints.

    Levels 0-2 are free.  Row L >= 3 is the bottom row of the m = 2^(L-3)
    windows rooted at level L-3, and it fills the highest bits of the
    key.  The admissible rows of a window are one coset of a fixed
    5-dimensional subspace of GF(2)^8 (`closure._row_cosets`), picked by
    the window's context, so a key admits exactly the rows whose m coset
    ids equal its own tuple of context coset ids.  Keys with one tuple
    form a class (a stable sort keeps each class ascending), and every
    class holds as many keys.  Walking the 2^(8m) values of the new row
    in increasing order, each value is OR'd onto the keys of the class
    it fits: the new row is the high part and each class ascends, so the
    keys come out strictly increasing, with no sort.
    """
    _check_level(n)
    keys = np.arange(1 << ((1 << min(n, 3)) - 1), dtype=np.uint32)
    syndrome, coset = _row_cosets()
    for level in range(3, n):
        above, mid, low = ((1 << (level - d)) - 1 for d in (2, 1, 0))
        m = 1 << (level - 3)
        rows = np.arange(1 << (8 * m), dtype=np.uint32)
        key_class = np.zeros(keys.size, dtype=np.intp)
        row_class = np.zeros(rows.size, dtype=np.intp)
        for i in range(m):
            ctx = np.zeros(keys.size, dtype=np.uint32)
            for pos in (above + 2 * i, above + 2 * i + 1,
                        mid + 4 * i, mid + 4 * i + 1, mid + 4 * i + 2, mid + 4 * i + 3):
                ctx = (ctx << 1) | ((keys >> pos) & 1)
            key_class |= coset[ctx].astype(np.intp) << (3 * i)
            row_class |= syndrome[(rows >> (8 * i)) & 0xFF].astype(np.intp) << (3 * i)
        sizes = np.bincount(key_class, minlength=8 ** m)
        size = int(sizes.max())
        assert np.all(sizes[sizes > 0] == size), "classes of unequal size"
        # one row per occupied class, in class order, each ascending
        classes = keys.take(np.argsort(key_class, kind="stable")).reshape(-1, size)
        fits = sizes[row_class] > 0
        rows = rows[fits]
        keys = np.empty((rows.size, size), dtype=np.uint32)
        # the indices are in range; mode "raise" would copy through a buffer
        classes.take((np.cumsum(sizes > 0) - 1)[row_class[fits]], axis=0, out=keys,
                     mode="clip")
        np.bitwise_or(keys, (rows << np.uint32(low))[:, None], out=keys)
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
        fh.write(memoryview(np.ascontiguousarray(pset.keys.astype(dtype, copy=False))))


def load_portrait_set(path) -> PortraitSet:
    """Read a cache written by save_portrait_set, rejecting any file
    that save_portrait_set could not have written.  The body is sized
    from the file's status and read in one call straight into the key
    array."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError("truncated portrait cache header")
        level, count = struct.unpack("<II", header)
        _check_level(level)
        dtype = _key_dtype(level)
        size = os.fstat(fh.fileno()).st_size - 8
        if size % dtype.itemsize:
            raise ValueError(
                f"portrait cache body of {size} bytes is not a whole number "
                f"of {dtype.itemsize}-byte keys")
        if size // dtype.itemsize != count:
            raise ValueError(
                f"portrait cache declares {count} keys but contains {size // dtype.itemsize}")
        keys = np.empty(count, dtype=dtype)
        if fh.readinto(keys) != size:
            raise ValueError("portrait cache changed while it was read")
    keys = keys.astype(np.uint32, copy=False)
    keys.flags.writeable = False
    pset = PortraitSet(level, keys)  # keeps read-only keys exactly when they increase
    if pset.keys is not keys:
        raise ValueError("portrait cache keys are not sorted ascending")
    bits = (1 << level) - 1
    if count and int(keys[-1]) >> bits:
        raise ValueError(
            f"portrait cache key {int(keys[-1])} does not fit in the "
            f"{bits} bits of level {level}")
    return pset
