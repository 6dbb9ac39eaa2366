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
"""

from __future__ import annotations

from .tree import Automorphism, IDENTITY

ALPHABET = "abcd"
_LETTERS = frozenset(ALPHABET)
B_LETTERS = "bcd"

_KLEIN = {
    ("b", "c"): "d", ("c", "b"): "d",
    ("b", "d"): "c", ("d", "b"): "c",
    ("c", "d"): "b", ("d", "c"): "b",
}

# Wreath decomposition of a single generator at even / odd a-parity:
# even parity contributes the generator's own pair, odd parity the pair
# of its a-conjugate.  "" stands for the trivial section.
_PAIR_EVEN = {"b": ("a", "c"), "c": ("a", "d"), "d": ("", "b")}
_PAIR_ODD = {"b": ("c", "a"), "c": ("d", "a"), "d": ("b", "")}


def check_word(word: str) -> str:
    if not set(word) <= _LETTERS:
        raise ValueError(f"invalid word {word!r}: letters must be in 'abcd'")
    return word


def reduce(word: str) -> str:
    """Canonical alternating form of a word, equal to it in the group.

    Left-to-right stack rewriting: adjacent equal letters cancel and
    adjacent {b,c,d}-letters merge through the Klein four-group table,
    iterated until no two same-type letters are adjacent.  Idempotent.
    """
    check_word(word)
    out: list[str] = []
    for ch in word:
        cur: str | None = ch
        while out and cur:
            top = out[-1]
            if top == cur:
                out.pop()
                cur = None
            elif top != "a" and cur != "a":
                out.pop()
                cur = _KLEIN[(top, cur)]
            else:
                break
        if cur:
            out.append(cur)
    return "".join(out)


def decompose_word(word: str) -> tuple[str, str, int]:
    """Wreath decomposition (W0, W1, eps) with W = (W0, W1) swap^eps.

    Scans W once with a running a-parity: each {b,c,d}-letter emits its
    section pair (the pair of the letter itself at even parity, of its
    a-conjugate at odd parity); eps is the parity of the number of a's.
    Only the cancellation aa = 1 is ever used, never relations between
    {b,c,d}-letters, so the section words stay in raw (undeduced) form.
    """
    w0: list[str] = []
    w1: list[str] = []
    parity = 0
    for ch in word:
        if ch == "a":
            parity ^= 1
            continue
        try:
            x, y = (_PAIR_ODD if parity else _PAIR_EVEN)[ch]
        except KeyError:
            raise ValueError(f"invalid letter {ch!r} in word") from None
        if x:
            w0.append(x)
        if y:
            w1.append(y)
    return "".join(w0), "".join(w1), parity


def section_words(word: str, depth: int) -> dict[str, str]:
    """Raw section words at every vertex of length <= depth.

    Keys are vertex labels; the root maps to the input word, and the
    children of vertex u carry the two halves of decompose_word(W_u).
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    check_word(word)
    out = {"": word}
    frontier = [("", word)]
    for _ in range(depth):
        nxt = []
        for u, w in frontier:
            w0, w1, _ = decompose_word(w)
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

    all modulo 2, where N(p,q) = count_pq(word, p, q).
    """
    return (
        count_pq(word, 1, 0) & 1,
        count_pq(word, 1, 1) & 1,
        count_pq(word, 0, 0) & 1,
        count_pq(word, 0, 1) & 1,
    )


class WordAutomorphism(Automorphism):
    """Automorphism backed by a generator word; sections are computed by
    wreath decomposition of the word and then reduced.  The group is
    contracting, so reduced sections shrink quickly with depth (raw ones
    never grow, but barely shrink)."""

    __slots__ = ("word",)

    def __init__(self, word: str):
        self.word = check_word(word)

    @property
    def root_activity(self) -> int:
        return self.word.count("a") & 1

    def _children(self) -> tuple[Automorphism, Automorphism]:
        w0, w1, _ = decompose_word(self.word)
        return word_element(reduce(w0)), word_element(reduce(w1))

    def _state_key(self) -> object:
        return self.word

    def _invert(self) -> Automorphism:
        # every generator is an involution, so the inverse word is the reversal
        return WordAutomorphism(self.word[::-1])

    def __repr__(self) -> str:
        return f"WordAutomorphism({self.word!r})"


def word_element(word: str) -> Automorphism:
    """The tree automorphism represented by a word over {a,b,c,d}."""
    if not word:
        return IDENTITY
    return WordAutomorphism(word)
