"""Words over the Grigorchuk generators {a, b, c, d}.

The four generators act on the binary tree by the wreath recursion

    a = (1, 1) swap,   b = (a, c),   c = (a, d),   d = (1, b),

and satisfy the simple relations a^2 = b^2 = c^2 = d^2 = 1 together with
the Klein four-group relations bc = cb = d, bd = db = c, cd = dc = b.

Besides reduction and wreath decomposition, this module computes the
occurrence statistics of {b,c,d}-letters classified by the parity of the
preceding a-count; those statistics determine the near-top portrait
decoration of the represented element (see `beta_from_counts` and the
closure module).

The kernels never step through a word letter by letter in Python:
`decompose_word` is a split at the a's and two `str.translate` calls,
`reduce` is a few `str.replace` passes (short words) or one numpy pass
plus one stack step per a-separated segment (long words), and
`beta_from_counts` is one numpy pass.  `count_p` and `count_pq` keep the
per-letter definitions.  Random words are drawn the same way: `_word_drawer`
decodes blocks of raw generator outputs into one string of letters and
slices each word from it.
"""

from __future__ import annotations

import random
from typing import Callable

import numpy as np

from .tree import Automorphism, IDENTITY

ALPHABET = "abcd"
B_LETTERS = "bcd"

#: Deletes the generator letters: what is left of a word is its invalid letters.
_DROP_LETTERS = str.maketrans("", "", ALPHABET)

# Wreath decomposition of a {b,c,d}-letter, written in lower case at even
# a-parity and in upper case at odd parity (where it contributes the pair
# of its a-conjugate): b = (a, c), c = (a, d), d = (1, b), and
# aba = (c, a), aca = (d, a), ada = (b, 1).  A deleted letter is the
# trivial section.
_SECTION_0 = str.maketrans({"b": "a", "c": "a", "d": None, "B": "c", "C": "d", "D": "b"})
_SECTION_1 = str.maketrans({"b": "c", "c": "d", "d": "b", "B": "a", "C": "a", "D": None})

#: Letters of the Klein four-group {1, b, c, d} by value under xor (b=1,
#: c=2, d=3), and the value of each letter's byte (0 for a).
_KLEIN_LETTER = ("", "b", "c", "d")
_KLEIN_VALUE = np.zeros(128, dtype=np.uint8)
_KLEIN_VALUE[[ord(ch) for ch in B_LETTERS]] = (1, 2, 3)

#: Every rewrite that shortens a word: equal letters cancel, and two of
#: b, c, d multiply to the third.
_RELATIONS = (("aa", ""), ("bb", ""), ("cc", ""), ("dd", ""), ("bc", "d"), ("cb", "d"),
              ("bd", "c"), ("db", "c"), ("cd", "b"), ("dc", "b"))

#: Words of at least this many letters (after a-pairs cancel) reduce
#: segment by segment: one numpy pass, then one step per segment.
#: Shorter ones are rewritten to a fixed point, which costs less per call:
#: the numpy pass has a fixed cost of about 10 us, and rewriting, which
#: grows with the length, catches up with it between 88 and 112 letters.
SEGMENT_REDUCE_MIN = 96


def check_word(word: str) -> str:
    if word.translate(_DROP_LETTERS):
        raise ValueError(f"invalid word {word!r}: letters must be in 'abcd'")
    return word


def reduce(word: str) -> str:
    """Canonical alternating form of a word, equal to it in the group.

    Reduction uses only a^2 = 1 and the Klein four-group {1, b, c, d}, so
    it computes the normal form in their free product Z2 * V4 (letters
    alternating between a and one of b, c, d), which is unique: both
    paths give the same word.  Once the a-runs lose their pairs, a word
    shorter than SEGMENT_REDUCE_MIN is rewritten with every relation
    until none applies (each pass is ten C-speed replaces, but may undo
    only one nested layer of a word like w reduce(w)^-1); a longer one
    goes through its a-separated segments in linear time.  Idempotent.
    """
    return _reduce(check_word(word))


def _reduce(word: str) -> str:
    """`reduce` of a word known to be valid."""
    word = word.replace("aa", "")
    if len(word) >= SEGMENT_REDUCE_MIN:
        return _reduce_segments(word)
    size = -1
    while size != len(word):
        size = len(word)
        for pair, product in _RELATIONS:
            word = word.replace(pair, product)
    return word


def _reduce_segments(word: str) -> str:
    """Write the word as v0 a v1 a ... a vk with each v_i the Klein value
    of an a-free segment (one xor-reduceat; a segment after an a starts
    at that a, whose value is 0).  A stack of values then keeps every
    value above the bottom one nonzero: a v after a top 1 cancels that
    pair of a's and merges v into the value below.  The bottom value
    carries bit 2, so that it is never taken for an inner 1."""
    codes = _KLEIN_VALUE[np.frombuffer(word.encode("ascii"), dtype=np.uint8)]
    starts = np.flatnonzero(codes == 0)
    values = np.bitwise_xor.reduceat(codes, np.concatenate(([0], starts))).tolist()
    stack = [values[0] | 4]
    push, pop = stack.append, stack.pop
    for v in values[1:]:
        if stack[-1]:
            push(v)
        else:
            pop()
            stack[-1] ^= v
    stack[0] &= 3
    return "a".join([_KLEIN_LETTER[v] for v in stack])


def decompose_word(word: str) -> tuple[str, str, int]:
    """Wreath decomposition (W0, W1, eps) with W = (W0, W1) swap^eps.

    Splits W at its a's and upper-cases the segments after an odd number
    of them; one translation of the joined segments per child then
    emits each {b,c,d}-letter's section (the letter's own at even
    parity, its a-conjugate's at odd parity), and eps is the parity of
    the number of a's.  Only the cancellation aa = 1 is ever used, never
    relations between {b,c,d}-letters, so the section words stay in raw
    (unreduced) form.
    """
    invalid = word.translate(_DROP_LETTERS)
    if invalid:
        raise ValueError(f"invalid letter {invalid[0]!r} in word")
    return _decompose(word)


def _decompose(word: str) -> tuple[str, str, int]:
    """`decompose_word` of a word known to be valid."""
    segments = word.split("a")
    if len(segments) > 1:
        segments[1::2] = [s.upper() for s in segments[1::2]]
        word = "".join(segments)
    return word.translate(_SECTION_0), word.translate(_SECTION_1), (len(segments) - 1) & 1


def section_words(word: str, depth: int) -> dict[str, str]:
    """Raw section words at every vertex of length <= depth.

    Keys are vertex labels, inserted in vertex order: level by level,
    lexicographic within a level.  The root maps to the input word, and
    the children of vertex u carry the two halves of decompose_word(W_u).
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    check_word(word)
    out = {"": word}
    frontier = [("", word)]
    for _ in range(depth):
        nxt = []
        for u, w in frontier:
            w0, w1, _ = _decompose(w)
            out[u + "0"] = w0
            out[u + "1"] = w1
            nxt.append((u + "0", w0))
            nxt.append((u + "1", w1))
        frontier = nxt
    return out


def _check_subset(subset) -> frozenset:
    s = frozenset(subset)
    if not s <= frozenset(B_LETTERS):
        raise ValueError(f"subset {set(subset)!r} must be contained in {{b, c, d}}")
    return s


def count(word: str, subset) -> int:
    """Number of occurrences of letters from `subset` (a subset of {b,c,d})."""
    check_word(word)
    s = _check_subset(subset)
    return sum(ch in s for ch in word)


def count_p(word: str, subset, p: int) -> int:
    """Occurrences of `subset`-letters of parity p: letters preceded by a
    number of a's of parity p."""
    check_word(word)
    s = _check_subset(subset)
    parity = 0
    n = 0
    for ch in word:
        if ch == "a":
            parity ^= 1
        elif ch in s and parity == p:
            n += 1
    return n


def count_pq(word: str, p: int, q: int) -> int:
    """Occurrences of {b,c}-letters of parity p that are preceded by a
    number of {b,c}-letters of the opposite parity having parity q."""
    check_word(word)
    a_parity = 0
    opp = 0  # running count (mod 2) of {b,c}-letters of parity 1-p seen so far
    n = 0
    for ch in word:
        if ch == "a":
            a_parity ^= 1
        elif ch in "bc":
            if a_parity == p:
                if opp == q:
                    n += 1
            else:
                opp ^= 1
    return n


def beta_from_counts(word: str) -> tuple[int, int, int, int]:
    """The near-top portrait bits (beta00, beta01, beta10, beta11) of the
    element the word represents, read off from the pair statistics:

        beta00 = N(1,0),  beta01 = N(1,1),  beta10 = N(0,0),  beta11 = N(0,1),

    all modulo 2, where N(p,q) = count_pq(word, p, q).  One vectorised
    pass: running xors give each letter's a-parity and, for each parity,
    the parity of the {b,c}-letters of that a-parity seen so far.
    """
    check_word(word)
    codes = np.frombuffer(word.encode("ascii"), dtype=np.uint8)
    odd = np.logical_xor.accumulate(codes == 97)  # a-parity before each b, c, d
    bc = (codes == 98) | (codes == 99)
    bc_odd = bc & odd
    bc_even = bc & ~odd
    n10 = np.count_nonzero(bc_odd & ~np.logical_xor.accumulate(bc_even))
    n00 = np.count_nonzero(bc_even & ~np.logical_xor.accumulate(bc_odd))
    n11 = np.count_nonzero(bc_odd) - n10
    n01 = np.count_nonzero(bc_even) - n00
    return n10 & 1, n11 & 1, n00 & 1, n01 & 1


class WordAutomorphism(Automorphism):
    """Automorphism backed by a generator word; sections are computed by
    wreath decomposition of the word and then reduced.  The group is
    contracting, so reduced sections shrink quickly with depth (raw ones
    never grow, but barely shrink).  The word is checked once, here:
    sections are valid by construction and skip the check."""

    __slots__ = ("word",)

    def __init__(self, word: str):
        self.word = check_word(word)

    @property
    def root_activity(self) -> int:
        return self.word.count("a") & 1

    def _children(self) -> tuple[Automorphism, Automorphism]:
        w0, w1, _ = _decompose(self.word)
        return _word_element(_reduce(w0)), _word_element(_reduce(w1))

    def _state_key(self) -> object:
        return self.word

    def _invert(self) -> Automorphism:
        # every generator is an involution, so the inverse word is the reversal
        return WordAutomorphism(self.word[::-1])

    def __repr__(self) -> str:
        return f"WordAutomorphism({self.word!r})"


def word_element(word: str) -> Automorphism:
    """The tree automorphism represented by a word over {a,b,c,d}."""
    return _word_element(check_word(word))


def _word_element(word: str) -> Automorphism:
    """`word_element` of a word known to be valid."""
    if not word:
        return IDENTITY
    g = WordAutomorphism.__new__(WordAutomorphism)
    g.word = word
    return g


#: Most raw 32-bit outputs the word drawer takes from the generator at a
#: time: memory stays flat in the number of samples and in the word length.
DRAW_BLOCK = 1 << 15
_LETTER_BYTES = np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)


def _raw_block(rng: random.Random, n: int) -> tuple[np.ndarray, np.ndarray, str]:
    """The next n raw outputs of rng's Mersenne Twister, the positions of
    those that `choice(ALPHABET)` accepts, and the letters these give.

    getrandbits(32 n) returns n outputs, the first in the lowest 32 bits.
    choice(ALPHABET) keeps the top 3 bits of an output and rejects values
    of 4 or more, so an output below 2^31 gives ALPHABET[output >> 29].
    """
    raw = np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"), dtype="<u4")
    accepted = np.flatnonzero(raw < 1 << 31)
    letters = _LETTER_BYTES.take(raw[accepted] >> 29).tobytes().decode("ascii")
    return raw, accepted, letters


def _word_drawer(rng: random.Random, samples: int, max_len: int) -> Callable[[int], list[str]]:
    """draw(count): the next count of the `samples` words that rounds of
    `"".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, max_len)))`
    would build, in order, read from rng's raw outputs in blocks.

    randint(0, max_len) keeps the top k = (max_len + 1).bit_length() bits
    of one output (of ceil(k / 32) outputs, the first in the lowest bits,
    if k > 32) and draws again while the value is above max_len.  The
    letter draws that follow are consecutive outputs, so a word is one
    slice of a block's letters, or a join of slices if it runs on into
    the next block.  A refill is sized to the expected need of the words
    left in the call, and a call keeps only the unread tail of its last
    block (and nothing after the last word), so memory stays flat.
    """
    k = (max_len + 1).bit_length()
    parts = [(low, max(0, 32 + low - k)) for low in range(0, k, 32)]  # (shift, bits dropped)
    tail = empty = _raw_block(rng, 0)
    left = samples

    def draw(count: int) -> list[str]:
        nonlocal rng, tail, left
        raw, accepted, letters = tail
        p = c = 0  # position in raw; accepted outputs before it
        size, n_acc = raw.size, accepted.size
        words = []
        for remaining in range(count, 0, -1):
            while True:  # randint(0, max_len)
                length = 0
                for low, drop in parts:
                    if p == size:
                        raw, accepted, letters = _raw_block(
                            rng, min(DRAW_BLOCK, remaining * (max_len + 2)))
                        p = c = 0
                        size, n_acc = raw.size, accepted.size
                    out = raw.item(p)
                    p += 1
                    c += out < 1 << 31
                    length |= out >> drop << low
                if length <= max_len:
                    break
            end = c + length
            if end <= n_acc:
                words.append(letters[c:end])
            else:  # the word runs on into the next block
                pieces = []
                while end > n_acc:
                    pieces.append(letters[c:])
                    end -= n_acc
                    raw, accepted, letters = _raw_block(
                        rng, min(DRAW_BLOCK, 2 * end + (remaining - 1) * (max_len + 2)))
                    c = 0
                    size, n_acc = raw.size, accepted.size
                pieces.append(letters[:end])
                words.append("".join(pieces))
            if length:
                c = end
                p = accepted.item(c - 1) + 1
        left -= count
        if left:
            tail = raw[p:].copy(), accepted[c:] - p, letters[c:]
        else:  # every word is drawn: keep no outputs and no generator
            tail, rng = empty, None
        return words

    return draw
