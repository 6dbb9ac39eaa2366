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

The kernels never step through a word letter by letter in Python, and
they take many words at once, joined with "|".  `_decompose_all` is the
one decomposition path (of `decompose_word`, `section_words` and a state
table's level of word states): it upper-cases the letters at odd a-parity
of the whole join (a split at the a's for a short join, one numpy pass
for a long one) and translates the join once per child.  `_reduce_join`
reduces every word of a join with a few `str.replace` passes (a short
join) or one numpy pass plus one stack step per a-separated segment (a
long join or a long word).  `beta_from_counts` is one numpy pass.
`count_p` and `count_pq` keep the per-letter definitions.  Random words
are drawn the same way: `_word_drawer` decodes blocks of raw generator
outputs into one string of letters and slices each word from it.
"""

from __future__ import annotations

import random
from itertools import islice
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
# trivial section, and the a's themselves (either case) are deleted.
_SECTION_0 = str.maketrans({"a": None, "A": None, "b": "a", "c": "a", "d": None,
                            "B": "c", "C": "d", "D": "b"})
_SECTION_1 = str.maketrans({"a": None, "A": None, "b": "c", "c": "d", "d": "b",
                            "B": "a", "C": "a", "D": None})

#: Joins of at least this many letters are upper-cased at odd parity in
#: one numpy pass; shorter ones are split at their a's, which costs less
#: per call: the numpy pass has a fixed cost of about 3.5 us, and
#: splitting catches up with it between 200 and 300 letters.
DECOMPOSE_NUMPY_MIN = 256

#: Letters of the Klein four-group {1, b, c, d} by value under xor (b=1,
#: c=2, d=3), and the value of each letter's byte (0 for a).  The "|"
#: that joins words has bit 2 on top, which starts a new word.
_KLEIN_VALUE = np.zeros(128, dtype=np.uint8)
_KLEIN_VALUE[[ord(ch) for ch in B_LETTERS + "|"]] = (1, 2, 3, 4)
#: The text of a reduced value: an "a" and the letter inside a word, the
#: "|" and the letter at the start of one.
_KLEIN_TEXT = ("a", "ab", "ac", "ad", "|", "|b", "|c", "|d")

#: Every rewrite that shortens a word: equal letters cancel, and two of
#: b, c, d multiply to the third.
_RELATIONS = (("aa", ""), ("bb", ""), ("cc", ""), ("dd", ""), ("bc", "d"), ("cb", "d"),
              ("bd", "c"), ("db", "c"), ("cd", "b"), ("dc", "b"))

#: Words are reduced segment by segment (one numpy pass over their join,
#: then one step per segment) if one of them has at least
#: SEGMENT_REDUCE_MIN letters or their join is longer than SEGMENT_JOIN_MIN;
#: otherwise the join is rewritten to a fixed point, which costs less per
#: call.  The numpy pass has a fixed cost of about 10 us.  Rewriting one
#: word catches up with it between 88 and 112 letters, and may take a
#: pass per nested layer.  On the join of a state table's level, it
#: catches up between about 1,000 letters (raw sections of random words)
#: and 4,000 (sections of reduced words, which need fewer rewrites).
SEGMENT_REDUCE_MIN = 96
SEGMENT_JOIN_MIN = 1024


def check_word(word: str) -> str:
    if word.translate(_DROP_LETTERS):
        raise ValueError(f"invalid word {word!r}: letters must be in 'abcd'")
    return word


def reduce(word: str) -> str:
    """Canonical alternating form of a word, equal to it in the group.

    Reduction uses only a^2 = 1 and the Klein four-group {1, b, c, d}, so
    it computes the normal form in their free product Z2 * V4 (letters
    alternating between a and one of b, c, d), which is unique: both
    paths give the same word.  A word shorter than SEGMENT_REDUCE_MIN is
    rewritten with every relation until none applies (each pass is ten
    C-speed replaces, but may undo only one nested layer of a word like
    w reduce(w)^-1); a longer one goes through its a-separated segments
    in linear time.  Idempotent.
    """
    return _reduce_join("|" + check_word(word), len(word))[0]


def _reduce_join(joined: str, longest: int) -> list[str]:
    """`reduce` of each word of a join "|w1|w2|..." of valid words, none
    longer than `longest` ("|" is no letter, so no relation spans it): one
    rewrite loop or one segment pass over the join (see
    SEGMENT_REDUCE_MIN)."""
    joined = joined.replace("aa", "")
    if len(joined) > SEGMENT_JOIN_MIN or longest >= SEGMENT_REDUCE_MIN:
        return _reduce_segments(joined)
    size = -1
    while size != len(joined):
        size = len(joined)
        for pair, product in _RELATIONS:
            joined = joined.replace(pair, product)
    return joined[1:].split("|")


def _reduce_segments(joined: str) -> list[str]:
    """The words of a join "|w1|w2...", each reduced in linear time.

    Each word is written as v0 a v1 a ... a vk with each v_i the Klein
    value of an a-free segment (one xor-reduceat; a segment after an a
    starts at that a, whose value is 0, and the first one at the "|",
    whose value is 4).  A stack of values, kept in place at the front of
    the list of them, then keeps every value above a word's bottom one
    nonzero: a v after a top 0 cancels that pair of a's and merges v into
    the value below.  A bottom value carries bit 2, so that it is never
    taken for an inner 0, and it is pushed whatever the top is."""
    codes = _KLEIN_VALUE[np.frombuffer(joined.encode("ascii"), dtype=np.uint8)]
    stack = np.bitwise_xor.reduceat(codes, np.flatnonzero((codes & 3) == 0)).tolist()
    top = 0
    for v in islice(stack, 1, None):  # writes only behind the read position
        if stack[top] or v > 3:
            top += 1
            stack[top] = v
        else:
            top -= 1
            stack[top] ^= v
    del stack[top + 1:]
    return "".join(map(_KLEIN_TEXT.__getitem__, stack))[1:].split("|")


def decompose_word(word: str) -> tuple[str, str, int]:
    """Wreath decomposition (W0, W1, eps) with W = (W0, W1) swap^eps:
    `_decompose_all` of the one word, and eps the parity of its a's."""
    invalid = word.translate(_DROP_LETTERS)
    if invalid:
        raise ValueError(f"invalid letter {invalid[0]!r} in word")
    w0, w1 = _decompose_all([word])[1:].split("|")
    return w0, w1, word.count("a") & 1


def _decompose_all(words: list[str]) -> str:
    """The raw sections of a non-empty list of valid words, as one join
    "|W0|W0'|...|W1|W1'|...": the sections at 0 of the words in order,
    then their sections at 1.

    The words are joined with "|", each word with an odd number of a's
    padded with one more, so every word starts at even parity.  The
    {b,c,d}-letters after an odd number of a's are upper-cased: for a
    join shorter than DECOMPOSE_NUMPY_MIN by splitting it at its a's and
    upper-casing every other segment, for a longer one in one numpy pass
    that flips the case bit where the running a-parity is odd.  One
    translation of the join per child then emits each letter's section
    (the letter's own at even parity, its a-conjugate's at odd parity)
    and deletes the a's.  Only the cancellation aa = 1 is ever used,
    never relations between {b,c,d}-letters, so the section words stay in
    raw (unreduced) form.
    """
    joined = "|".join([w + "a" if w.count("a") & 1 else w for w in words])
    if len(joined) < DECOMPOSE_NUMPY_MIN:
        segments = joined.split("a")
        segments[1::2] = [s.upper() for s in segments[1::2]]
        joined = "".join(segments)
    else:
        codes = np.frombuffer(joined.encode("ascii"), dtype=np.uint8)
        odd = np.logical_xor.accumulate(codes == 97).view(np.uint8)
        joined = (codes ^ (odd << 5)).tobytes().decode("ascii")
    return f"|{joined.translate(_SECTION_0)}|{joined.translate(_SECTION_1)}"


def section_words(word: str, depth: int) -> dict[str, str]:
    """Raw section words at every vertex of length <= depth.

    Keys are vertex labels, inserted in vertex order: level by level,
    lexicographic within a level.  The root maps to the input word, and
    the children of vertex u carry the two halves of decompose_word(W_u),
    one `_decompose_all` call per level.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    out = {"": check_word(word)}
    labels, words = [""], [word]
    for _ in range(depth):
        halves = _decompose_all(words)[1:].split("|")
        words = halves[:]
        words[::2], words[1::2] = halves[:len(labels)], halves[len(labels):]
        labels = [u + x for u in labels for x in "01"]
        out.update(zip(labels, words))
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
        w0, w1 = _reduced_sections([self.word])
        return _word_element(w0), _word_element(w1)

    @staticmethod
    def _children_of(states) -> list[Automorphism]:
        """The reduced sections of all the states' words.  Each section,
        the empty word too, is a word state, so a level of a table of
        words holds words only and goes to this one call."""
        return [_word_state(w) for w in _reduced_sections([g.word for g in states])]

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
    return _word_state(word)


def _word_state(word: str) -> WordAutomorphism:
    """The WordAutomorphism of a word known to be valid, the empty one too."""
    g = WordAutomorphism.__new__(WordAutomorphism)
    g.word = word
    return g


def _reduced_sections(words: list[str]) -> list[str]:
    """The reduced sections at 0 and 1 of each of a non-empty list of
    valid words, in one flat list: one `_decompose_all` and one
    `_reduce_join` of its join."""
    reduced = _reduce_join(_decompose_all(words), max(map(len, words)))
    sections = reduced[:]
    sections[::2], sections[1::2] = reduced[:len(words)], reduced[len(words):]
    return sections


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
