"""Brute-force ground truth at desk scale: the group side.

A breadth-first search of the Grigorchuk group modulo level-n
stabilizers, working with honest generator products and nothing
constraint-based.  Its agreement at levels up to 5 with the enumeration
of decorations admitted by the window constraints (in the closure
module) is the desk-scale certificate for the closure characterization.
The two derivations are siblings: each imports only the tree module,
which holds the PortraitSet both return, and the words module; neither
imports the other.

A coset of the level-n stabilizer is named by its portrait key
(bit-packed as in Portrait.pack, at most 31 bits), and the BFS works on
uint32 arrays of keys.  It multiplies on the left: act(s*g, u) =
act(s, u) xor act(g, u^s), so key(s*g) is key(g) with its bits permuted
by s acting on the vertices, xor key(s).  A product is two gathers, one
from a 65,536-entry table per 16-bit half of the key, read off the
generator's activity rows and the level permutations that products use.

The BFS checks each layer only against itself, in the same sort that
dedupes its candidates: the generators are involutions, and a coset is
never multiplied by a generator that leads back to the layer before,
nor by b, c or d once one of them does (`enumerate_quotient` shows that
no coset is lost, from the group relations alone, never the window
constraints).  The pruning reads only whether a leads back, and
whether a alone does, so a candidate carries a two-bit tag: 1 if it was
made by a, 2 if by b, c or d, and 0 marks a key of the frontier layer.
Each layer is sorted in two halves, split at the key's top bit, the top
vertex 1^(n-1): b, c and d fix that vertex and are inactive there, and a
carries one bit of g onto it, so each product's half is known from its
source.  A half sorts 32-bit values, the key without its top bit and the
tag, and emitting half 0, then half 1, gives the layer in key order.  The
BFS keeps only each layer's sorted keys; `witness` reads its rule, the
first s in ALPHABET order that leads back a layer, from the layers, one
binary search per letter.  Sets are deduplicated by sorting and
comparing neighbours, and membership is a binary search.  A cache is
read with one call into the key array.
"""

from __future__ import annotations

import functools
import os
import struct
from itertools import accumulate

import numpy as np

from .tree import (Portrait, PortraitSet, _ROOT_IMAGE, _check_level, _extend_image, _position,
                   activity_rows)
from .words import ALPHABET, word_element

__all__ = [
    "QuotientSet",
    "enumerate_quotient",
    "save_portrait_set",
    "load_portrait_set",
]


class QuotientSet(PortraitSet):
    """The quotient of the Grigorchuk group by its level-n stabilizer,
    with a shortest generator word as witness for each coset.

    Layer L of the BFS, the cosets at word length L, is the sorted slice
    disc_keys[bounds[L]:bounds[L + 1]].  No parent is stored: `witness`
    reads the parent chain off the layers.  A BFS finds each coset once,
    so the discovery keys must be distinct.  The sorted keys are
    read-only.
    """

    def __init__(self, level, disc_keys, bounds):
        keys = np.sort(disc_keys)
        keys.flags.writeable = False  # kept as they are if they strictly increase
        super().__init__(level, keys)
        if len(self) != disc_keys.size:
            raise RuntimeError("the BFS discovered a coset twice")
        self._disc_keys = disc_keys
        self._bounds = bounds

    def witness(self, item: Portrait | int) -> str:
        """A shortest generator word whose depth-n portrait is the given
        coset key.  Coset x of layer L > 0 is s times coset s*x of layer
        L-1, for the first s in ALPHABET order that leads back there, read
        from the layers by one binary search per generator.  So walking
        down the layers reads a parent chain, from left to right."""
        key = self.key_of(item)
        if _position(self.keys, key) is None:
            raise KeyError(f"key {key} not in quotient set")
        moved, shift = _generator_moves(self.level)
        bits = np.arange(moved.shape[1], dtype=np.uint32)
        disc, bounds = self._disc_keys, self._bounds
        # the largest layers first, where most cosets lie
        order = sorted(range(len(bounds) - 1), key=lambda d: bounds[d] - bounds[d + 1])
        depth = next(d for d in order if _position(disc[bounds[d]:bounds[d + 1]], key) is not None)
        letters = []
        for d in range(depth - 1, -1, -1):
            layer = disc[bounds[d]:bounds[d + 1]]
            products = moved @ ((key >> bits) & 1) ^ shift  # key(s*x) for each s
            back = layer.take(layer.searchsorted(products), mode="clip") == products
            s = int(back.argmax())
            letters.append(ALPHABET[s])
            key = int(products[s])
        return "".join(letters)


@functools.cache
def _generator_moves(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The left action of the generators (rows in ALPHABET order) on
    depth-n keys: key(s*g) = shift[s] xor the sum of moved[s, j] over the
    set bits j of key(g).  Bit u of key(s*g) is bit u^s of key(g) xor bit
    u of key(s) = shift[s], so the bit of key(g) at vertex u^s moves to
    bit u.  The vertices u^s are read off the activity rows of s, level by
    level, through the level permutations that products use."""
    bits = (1 << n) - 1
    moved = np.zeros((len(ALPHABET), bits), dtype=np.uint32)
    shift = np.zeros(len(ALPHABET), dtype=np.uint32)
    for s, letter in enumerate(ALPHABET):
        rows = list(activity_rows(word_element(letter), n))
        images = accumulate(rows[:-1], _extend_image, initial=_ROOT_IMAGE)  # level by level
        image = np.concatenate([img + (1 << level) - 1 for level, img in enumerate(images)])
        moved[s, image] = np.uint32(1) << np.arange(bits, dtype=np.uint32)
        shift[s] = Portrait(rows).pack()
    moved.flags.writeable = shift.flags.writeable = False
    return moved, shift


def _left_tables(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each generator s, the tables (low, high) with
    key(s*g) = low[k & 0xFFFF] ^ high[k >> 16] for k = key(g), each built
    by doubling, one bit of a 16-bit half of k at a time."""
    def doubled(bits):
        table = np.zeros(1, dtype=np.uint32)
        for bit in bits:
            table = np.concatenate((table, table ^ bit))
        return table
    return [(doubled(row[:16]) ^ key, doubled(row[16:])) for row, key in zip(*_generator_moves(n))]


def _key_halves(keys: np.ndarray, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """The low and high 16-bit halves of uint32 keys, as gather indices."""
    return (np.bitwise_and(keys, 0xFFFF, out=out[0], dtype=np.intp),
            np.right_shift(keys, 16, out=out[1], dtype=np.intp))


def _left_product(halves, table, out=None) -> np.ndarray:
    """table[0][low] ^ table[1][high] for the key halves (low, high) of
    each g, as `_key_halves` gives them: key(s*g) for the tables of s."""
    out = table[0].take(halves[0], out=out, mode="clip")  # in range: no index copy
    return np.bitwise_xor(out, table[1].take(halves[1], mode="clip"), out=out)


def _bfs_tables(n: int) -> tuple[int, int, int, list[tuple[np.ndarray, np.ndarray]]]:
    """(top, p, flip, tables) for a BFS that splits each layer at bit
    `top`, the top vertex 1^(n-1), and sorts each half as uint32 values
    (key & (2^top - 1)) << 2 | tag.  b, c and d fix the top vertex and
    are inactive there, so their products stay in their source's half.
    a carries bit p of g onto it, so a*g lies in the half of bit p of g,
    xor flip, a's activity there (1 only at level 1, where it is the
    root).  tables[s] are `_left_tables(n)[s]` with the top bit cleared,
    the shift and the tag of s (1 for a, 2 for b, c and d) folded in, so
    `_left_product` writes the sort value of s*g."""
    moved, shift = _generator_moves(n)
    top = moved.shape[1] - 1
    high = np.uint32(1 << top)
    assert all(moved[s, top] == high and not shift[s] & high for s in (1, 2, 3))
    (p,) = np.flatnonzero(moved[0] == high)
    tables = [(((low & (high - 1)) << 2) | tag, (hi & (high - 1)) << 2)
              for (low, hi), tag in zip(_left_tables(n), (1, 2, 2, 2))]
    return top, int(p), int(shift[0] >> top), tables


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


def enumerate_quotient(n: int) -> QuotientSet:
    """BFS of the Grigorchuk group acting on depth-n portraits, starting
    from the identity and left-multiplying by the four generators;
    returns every reachable coset, layer by layer, each layer sorted.

    A neighbour of layer L lies in layer L-1, L or L+1, and R(g), the
    generators s with s*g in layer L-1, are those of the candidates that
    reached g.  g is multiplied by a only if a is not in R(g), and by b,
    c and d only if R(g) holds none of them.  So no product lies in
    layer L-1.  A dropped b, c or d product t*g is (t*u)*(u*g) for a u
    of b, c, d in R(g), where t*u is 1 or one of b, c, d (bcd = 1), so
    it lies in layer L-2, L-1 or L: no coset is lost.

    Each layer is found as two halves, split at the top bit of the key
    (`_bfs_tables`): half 0, then half 1, which is the layer in key
    order.  A half sorts the uint32 values of its frontier keys (tag 0)
    and of its candidates (tag 1 from a, 2 from b, c or d).  A run of
    equal keys is fresh unless it starts with tag 0; then a is in R(g)
    iff its first tag is 1, and R(g) = {a} iff it holds one candidate.
    At level 5 the BFS makes 7,533,446 candidates (one `_left_product`
    entry each) and sorts 11,727,750 values, the candidates and each
    coset once as frontier.
    """
    _check_level(n)
    top, p, flip, tables = _bfs_tables(n)
    high = np.uint32(1 << top)
    # bit p of g in its sort value (at level 1 bit p is the top bit: g's half)
    route = np.uint32(4 << p if p < top else 0)
    # cosets in discovery order, a layer at a time; the frontier is [start, end)
    disc_keys = np.zeros(1, dtype=np.uint32)
    bounds = [0]
    # sources[h]: (keys, generators to multiply them by) whose products lie
    # in half h; the identity is multiplied by all four
    sources = ([], [])
    sources[flip].append((disc_keys[:1], (0,)))
    sources[0].append((disc_keys[:1], (1, 2, 3)))
    values, runs = np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint32)
    tags, first = np.empty(0, dtype=np.uint8), np.empty(0, dtype=bool)
    low, hi = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    start, end = 0, 1
    while end > start:
        bounds.append(end)
        mid = start + int(disc_keys[start:end].searchsorted(high))
        new, after = end, ([], [])
        for h, frontier in enumerate((disc_keys[start:mid], disc_keys[mid:end])):
            size = frontier.size
            total = size + sum(keys.size * len(gens) for keys, gens in sources[h])
            if not total:
                continue
            values = _grow(values, total)
            np.bitwise_and(frontier, high - 1, out=values[:size])
            np.left_shift(values[:size], 2, out=values[:size])
            at = size
            for keys, generators in sources[h]:
                k = keys.size
                low, hi = _grow(low, k), _grow(hi, k)
                halves = _key_halves(keys, out=(low[:k], hi[:k]))
                for g in generators:
                    _left_product(halves, tables[g], out=values[at:at + k])
                    at += k
            vals = values[:total]
            vals.sort()
            # first[i]: entry i starts a run of equal keys; a fresh run
            # starts with a tag that is not 0
            runs, tags, first = _grow(runs, total), _grow(tags, total), _grow(first, total + 1)
            np.right_shift(vals, 2, out=runs[:total])
            first[0] = first[total] = True
            np.not_equal(runs[1:total], runs[:total - 1], out=first[1:total])
            np.bitwise_and(vals, 3, out=tags[:total], casting="unsafe")
            np.minimum(tags[:total], first[:total].view(np.uint8), out=tags[:total])
            at = np.flatnonzero(tags[:total].view(bool))  # 0 or 1 now: a bool view
            count = at.size
            if new + count > 1 << (top + 1):  # more cosets than keys: a key came back
                raise RuntimeError("the BFS discovered a coset twice")
            disc_keys = _grow(disc_keys, new + count, new)
            keys = disc_keys[new:new + count]
            chosen = vals.take(at)
            np.right_shift(chosen, 2, out=keys)
            if h:
                np.bitwise_or(keys, high, out=keys)
            new += count
            # tag 2: a is not in R(g), so g is multiplied by a, into half
            # (bit p of g) ^ flip
            pick = np.bitwise_and(chosen, 2 | route, out=chosen)
            for t in (0, 1):
                if route or t == h ^ flip:
                    a_to_t = pick == (2 | route * (t ^ flip))
                    after[t].append((keys.take(np.flatnonzero(a_to_t)), (0,)))
            # tag 1 and one candidate: R(g) = {a}, so g is multiplied by b, c, d
            single = first[1:total + 1].take(at)
            np.bitwise_and(pick, 2, out=pick)
            after[h].append((keys.take(np.flatnonzero(np.greater(single, pick))), (1, 2, 3)))
        start, end, sources = end, new, after
    # unmapped before QuotientSet sorts a copy of the keys
    del values, runs, tags, first, low, hi, tables, vals, halves
    # a view holds its whole buffer: keys that fill less than half of it
    # (4096 of 8M at level 4) are copied, and level 5's exact half is not
    keys = disc_keys[:end] if 2 * end >= disc_keys.size else disc_keys[:end].copy()
    return QuotientSet(n, keys, bounds)


def _key_dtype(level: int) -> np.dtype:
    """The narrowest little-endian unsigned key type holding 2^level - 1 bits."""
    for width in (1, 2, 4):
        if (1 << level) - 1 <= 8 * width:
            return np.dtype(f"<u{width}")
    raise ValueError(f"level {level} too deep for the cache format")


def _check_keys_fit(level: int, sorted_keys: np.ndarray) -> None:
    """Reject sorted keys whose largest needs more than the 2^level - 1 bits of the level."""
    bits = (1 << level) - 1
    if sorted_keys.size and int(sorted_keys[-1]) >> bits:
        raise ValueError(
            f"portrait cache key {int(sorted_keys[-1])} does not fit in the "
            f"{bits} bits of level {level}")


def save_portrait_set(path, pset: PortraitSet) -> None:
    """Write a flat binary cache: 8-byte header (level, count, both
    little-endian uint32), then the sorted keys at the fixed width the
    level requires (1, 2 or 4 bytes).  A key too wide for the level is
    rejected before the file is opened."""
    dtype = _key_dtype(pset.level)
    _check_keys_fit(pset.level, pset.keys)
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
    _check_keys_fit(level, keys)
    return pset
