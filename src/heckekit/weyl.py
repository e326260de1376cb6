"""The rank-one extended affine Weyl group and its word combinatorics.

Elements are triples (x, y, flip) with x, y integers: the diagonal part
records block valuations, and flip says whether the block-swapping finite
reflection is present.  The product twists the diagonal through the swap:

    (x, y, 1) . (x', y', v') = (x + x', y + y', v')
    (x, y, w) . (x', y', v') = (x + y', y + x', w v')

Generators of interest: the swap w, the translation t (which has flip on),
its conjugate w' = t w t^-1, and the diagonal elements delta(x, y).  Every
element has a canonical reduced word  t^alpha . letter_1 ... letter_a  with
letters alternating in {w, w'}; the length function counts letters only.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple


class W(NamedTuple):
    """A tuple, so that hashing and comparison run in C; it hashes and
    orders as (x, y, flip)."""

    x: int
    y: int
    flip: bool

    def __mul__(self, other):
        if not isinstance(other, W):
            return NotImplemented
        if self.flip:
            return W(self.x + other.y, self.y + other.x, not other.flip)
        return W(self.x + other.x, self.y + other.y, other.flip)

    def __rmul__(self, other):
        return NotImplemented  # not tuple repetition: 2 * W is a TypeError

    def inv(self):
        if self.flip:
            return W(-self.y, -self.x, True)
        return W(-self.x, -self.y, False)

    def __repr__(self):
        return "W(%d,%d,%s)" % (self.x, self.y, "w" if self.flip else "1")


W_ID = W(0, 0, False)
W_W = W(0, 0, True)
W_T = W(0, 1, True)
W_TINV = W(-1, 0, True)
W_WP = W_T * W_W * W_TINV  # = W(-1, 1, True)

LETTER = {"w": W_W, "w'": W_WP}


def diag(x, y):
    return W(x, y, False)


def t_power(m):
    """The element t^m: central for even m, flip-carrying for odd m."""
    if m % 2 == 0:
        return W(m // 2, m // 2, False)
    return W((m - 1) // 2, (m + 1) // 2, True)


def _diag_word(x, y):
    """Canonical word of delta(x, y) as (alpha, letters)."""
    d = y - x
    if d >= 0:
        if d % 2 == 0:
            letters = ("w'", "w") * (d // 2)
        else:
            letters = ("w",) + ("w'", "w") * ((d - 1) // 2)
    else:
        d = -d
        if d % 2 == 0:
            letters = ("w", "w'") * (d // 2)
        else:
            letters = ("w'", "w") * ((d - 1) // 2) + ("w'",)
    return x + y, letters


@lru_cache(maxsize=1024)
def word_of(e):
    """Canonical reduced word (alpha, letters) with e = t^alpha . letters.

    The cache keeps the 1,024 most recent words, so that it stays bounded
    however many long factors a product meets; render builds its text from
    (x, y, flip) and does not fill it."""
    alpha, letters = _diag_word(e.x, e.y)
    if e.flip:
        if letters and letters[-1] == "w":
            letters = letters[:-1]
        else:
            letters = letters + ("w",)
    return alpha, letters


def from_word(alpha, letters):
    e = t_power(alpha)
    for s in letters:
        e = e * LETTER[s]
    return e


def length(e):
    """Number of letters in the reduced word: |y - x - flip|."""
    return abs(e.y - e.x - e.flip)


def elements_in_window(bound):
    """Every (x, y, flip) with |x|, |y| <= bound."""
    r = range(-bound, bound + 1)
    return [W(x, y, flip) for x in r for y in r for flip in (False, True)]


def render(e):
    """t^alpha . letters as text from (x, y, flip): the |c| letters, c = y -
    x - flip, alternate and end in w exactly when c >= 0 and flip differ."""
    alpha, c = e.x + e.y, e.y - e.x - e.flip
    last, other = ("w", "w'") if (c >= 0) != e.flip else ("w'", "w")
    pair, n = other + "." + last, abs(c)
    word = ((last if n % 2 else pair) + ("." + pair) * ((n - 1) // 2)) if n else ""
    t = "" if not alpha else "t" if alpha == 1 else "t^%d" % alpha
    return ".".join(filter(None, (t, word))) or "1"
