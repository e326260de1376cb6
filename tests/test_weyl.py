import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import ends_on_w, grade, shape_class, word_render

from heckekit.weyl import (
    W,
    W_ID,
    W_T,
    W_TINV,
    W_W,
    W_WP,
    diag,
    elements_in_window,
    from_word,
    length,
    render,
    t_power,
    word_of,
)

els = st.builds(
    W, st.integers(-4, 4), st.integers(-4, 4), st.booleans()
)


def test_generator_constants():
    assert W_W * W_W == W_ID
    assert W_T * W_W * W_TINV == W_WP == W(-1, 1, True)
    assert W_T * W_TINV == W_ID
    assert W_T * W_W == diag(0, 1)          # the first elementary diagonal
    assert W_W * W_TINV == diag(0, -1)
    assert W_WP * W_T == W_T * W_W          # both elementary on the other side
    assert t_power(2) == W(1, 1, False)
    assert t_power(-1) == W_TINV
    assert t_power(3) == W(1, 2, True)


def test_t_squared_is_central():
    t2 = t_power(2)
    for e in elements_in_window(2):
        assert t2 * e == e * t2


@given(els, els, els)
@settings(max_examples=200, deadline=None)
def test_group_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * a.inv() == W_ID
    assert a.inv() * a == W_ID
    assert a * W_ID == a == W_ID * a


def test_words_frozen():
    assert word_of(diag(0, 1)) == (1, ("w",))
    assert word_of(diag(0, 2)) == (2, ("w'", "w"))
    assert word_of(diag(2, 0)) == (2, ("w", "w'"))
    assert word_of(diag(1, 0)) == (1, ("w'",))
    assert word_of(W_T) == (1, ())
    assert word_of(W_WP) == (0, ("w'",))
    assert word_of(W_W) == (0, ("w",))
    assert word_of(W(0, -1, False)) == (-1, ("w'",))
    assert word_of(W_ID) == (0, ())


def test_word_reconstruction_window():
    # the closed-form length is checked against the word here
    for e in elements_in_window(64):
        alpha, letters = word_of(e)
        assert from_word(alpha, letters) == e
        assert length(e) == len(letters)
        assert all(a != b for a, b in zip(letters, letters[1:])), (e, letters)


def test_length_facts():
    assert length(W_ID) == 0
    for m in range(-5, 6):
        assert length(t_power(m)) == 0
    for e in elements_in_window(4):
        for m in (-3, -2, -1, 1, 2, 3):
            assert length(t_power(m) * e) == length(e)
            assert length(e * t_power(m)) == length(e)
        assert length(e.inv()) == length(e)
        assert grade(e) == length(e) % 2


def test_length_additivity_examples():
    def additive(a, b):
        return length(a) + length(b) == length(a * b)

    assert additive(diag(0, 1), diag(0, 1))
    assert not additive(W_W, W_W)
    assert additive(t_power(3), W_W)


def test_shape_class():
    assert shape_class(diag(0, 1)) == "A"
    assert shape_class(diag(0, 2)) == "A"
    assert shape_class(diag(1, 0)) == "D"
    assert shape_class(diag(1, 1)) == "A"  # central, A and D agree
    assert shape_class(W_W) == "A"         # boundary square-with-flip
    assert shape_class(W(1, 1, True)) == "A"
    assert shape_class(W(1, 0, True)) == "B"
    assert shape_class(W(0, 2, True)) == "C"
    assert shape_class(W_WP) == "C"
    for m in (-3, -1, 1, 3, 5):
        assert shape_class(t_power(m)) == "T"


def test_ends_on_w_matches_coordinates():
    for e in elements_in_window(4):
        if e.flip:
            assert ends_on_w(e) == (e.x >= e.y)


def test_render():
    assert render(W_ID) == "1"
    assert render(W_T) == "t"
    assert render(diag(0, 2)) == "t^2.w'.w"
    assert render(W(0, -1, False)) == "t^-1.w'"


def test_render_matches_the_word_join():
    # render spells the word from (x, y, flip); word_render joins word_of's
    # letters: every element with |x|, |y| <= 64, and words of 4,000 and
    # 8,000 letters of either sign of y - x, either flip and either ending
    elems = elements_in_window(64)
    for n in (4000, 8000):
        for x in (-3, 0, 1, 5):
            for flip in (False, True):
                elems += [W(x, x + n + flip, flip), W(x, x - n + flip, flip)]
    for e in elems:
        assert render(e) == word_render(e), e
    assert len(render(W(1, 8002, True)).split(".")) == 8001


# sha256 over elements_in_window(3): (hash, repr) of each element, then
# (==, <) against every element; recorded when W was a frozen, ordered
# dataclass, whose hash was that of (x, y, flip)
W_FACTS_DIGEST = "1a75b2a84e9f0e324d323199c4f8dca939bbcf84b2ebc4f1152ae0453b8a235a"


def test_tuple_w_hashes_compares_and_prints_as_the_dataclass():
    window = elements_in_window(3)
    h = hashlib.sha256()
    for a in window:
        h.update(repr((hash(a), repr(a))).encode())
        for b in window:
            h.update(b"%d%d" % (a == b, a < b))
    assert len(window) == 98 and h.hexdigest() == W_FACTS_DIGEST


def test_w_is_no_sequence_under_arithmetic():
    with pytest.raises(TypeError):
        W_W * 2
    with pytest.raises(TypeError):
        2 * W_W
    with pytest.raises(AttributeError):
        W_W.x = 1
    assert W_W * W_W == W_ID and repr(W_WP) == "W(-1,1,w)"
