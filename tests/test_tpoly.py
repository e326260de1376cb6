import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckekit.errors import DegenerateIdeal
from heckekit.gfp import pnormalize
from heckekit.tpoly import Frac, tp_localize, tp_mono, tp_mul, tp_reduce

polys = st.lists(st.integers(0, 6), min_size=0, max_size=6).map(tuple)
taus = st.sampled_from([1, 2, 3, 4, 6])


def test_mono_frozen():
    assert tp_mono(0, 0, 2, 5) == (1,)
    assert tp_mono(1, 2, 2, 5) == (0, 0, 0, 1)
    assert tp_mono(1, 1, 2, 5) == (0, 0, 2, 1)
    assert tp_mono(3, 1, 2, 5) == (0, 0, 0, 0, 2, 1)


def test_mul_frozen():
    # (T+1)*(T+1) with tau=2 over F_5
    assert tp_mul((1, 1), (1, 1), 2, 5) == (1, 2, 2, 1)


@given(polys, polys, taus)
@settings(max_examples=60, deadline=None)
def test_mul_commutative(a, b, tau):
    assert tp_mul(a, b, tau, 7) == tp_mul(b, a, tau, 7)


@given(polys, polys, polys, taus)
@settings(max_examples=60, deadline=None)
def test_mul_associative(a, b, c, tau):
    l = 7
    lhs = tp_mul(tp_mul(a, b, tau, l), c, tau, l)
    rhs = tp_mul(a, tp_mul(b, c, tau, l), tau, l)
    assert lhs == rhs


@given(polys, polys, taus)
@settings(max_examples=60, deadline=None)
def test_localize_is_multiplicative(a, b, tau):
    l = 7
    lhs = tp_localize(tp_mul(a, b, tau, l), tau, l)
    rhs = tp_localize(a, tau, l) * tp_localize(b, tau, l)
    assert lhs == rhs


@given(polys, polys, taus)
@settings(max_examples=40, deadline=None)
def test_localize_is_additive(a, b, tau):
    l = 7
    s = pnormalize(tuple((x + y) % l for x, y in zip(list(a) + [0] * 8, list(b) + [0] * 8)))
    assert tp_localize(s, tau, l) == tp_localize(a, tau, l) + tp_localize(b, tau, l)


def test_localize_frozen():
    # T*T = tau T^2 + T^3 maps to X^2 after cancellation
    out = tp_localize(tp_mul((0, 1), (0, 1), 2, 5), 2, 5)
    assert out == Frac((0, 0, 1), 0, 2, 5)
    assert tp_localize((0, 0, 1), 2, 5) == Frac((0, 0, 1), 1, 2, 5)


def test_reduce_frozen():
    # against F = T^2 + 1 with tau = 4 over F_5: T^3 == -T + (T*F)
    assert tp_reduce((0, 0, 0, 1), (1, 0, 1), 4, 5) == (0, 4)
    assert tp_reduce((1, 0, 1), (1, 0, 1), 4, 5) == ()
    assert tp_reduce((3,), (1, 0, 1), 4, 5) == (3,)


def test_reduce_by_linear():
    # F = T with tau invertible: every positive power collapses
    assert tp_reduce((0, 1), (0, 1), 4, 5) == ()
    assert tp_reduce((0, 0, 1), (0, 1), 4, 5) == ()
    assert tp_reduce((2, 0, 3, 1), (0, 1), 4, 5) == (2,)


@given(polys, st.sampled_from([(0, 1), (1, 0, 1), (2, 0, 1), (0, 1, 0, 1)]), taus)
@settings(max_examples=60, deadline=None)
def test_reduce_kills_ideal(q, f, tau):
    l = 7
    assert tp_reduce(tp_mul(q, f, tau, l), f, tau, l) == ()


@given(polys, polys, st.sampled_from([(1, 0, 1), (2, 0, 1)]), taus)
@settings(max_examples=60, deadline=None)
def test_reduce_is_linear_and_idempotent(a, b, f, tau):
    l = 7
    ra = tp_reduce(a, f, tau, l)
    s = pnormalize(tuple((x + y) % l for x, y in zip(list(a) + [0] * 8, list(b) + [0] * 8)))
    rs = tp_reduce(s, f, tau, l)
    rb = tp_reduce(b, f, tau, l)
    back = pnormalize(tuple((x + y) % l for x, y in zip(list(ra) + [0] * 8, list(rb) + [0] * 8)))
    assert rs == back
    assert tp_reduce(ra, f, tau, l) == ra


def test_reduce_degenerate_tau_asserts():
    # tau = 0 leaves degree-2 uncovered for F = T; the coverage check raises
    with pytest.raises(DegenerateIdeal):
        tp_reduce((0, 0, 1), (0, 1), 0, 5)
