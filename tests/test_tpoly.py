import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import pdivmod, pmul

from heckekit.errors import DegenerateIdeal
from heckekit.gfp import padd, pnormalize, pscale, rref_mod
from heckekit.tpoly import tp_mono, tp_mul, tp_reduce

polys = st.lists(st.integers(0, 6), min_size=0, max_size=6).map(tuple)
taus = st.sampled_from([1, 2, 3, 4, 6])


# ---------------------------------------------------------------------------
# the localization picture: fractions num / (X + tau)^k over F_l, an
# independent model of tp_mul


class Frac:
    """num(X) / (X+tau)^k, kept fully cancelled so equality is literal."""

    __slots__ = ("num", "k", "tau", "l")

    def __init__(self, num, k, tau, l):
        num = pnormalize(tuple(c % l for c in num))
        den = (tau % l, 1)
        while k > 0 and num:
            q, rem = pdivmod(num, den, l)
            if rem:
                break
            num, k = q, k - 1
        if not num:
            k = 0
        self.num, self.k, self.tau, self.l = num, k, tau % l, l

    def __eq__(self, other):
        return (self.num, self.k, self.tau, self.l) == (
            other.num,
            other.k,
            other.tau,
            other.l,
        )

    def __hash__(self):
        return hash((self.num, self.k, self.tau, self.l))

    def __add__(self, other):
        assert (self.tau, self.l) == (other.tau, other.l)
        den = (self.tau, 1)
        hi = max(self.k, other.k)
        a = self.num
        for _ in range(hi - self.k):
            a = pmul(a, den, self.l)
        b = other.num
        for _ in range(hi - other.k):
            b = pmul(b, den, self.l)
        return Frac(padd(a, b, self.l), hi, self.tau, self.l)

    def __mul__(self, other):
        assert (self.tau, self.l) == (other.tau, other.l)
        return Frac(pmul(self.num, other.num, self.l), self.k + other.k, self.tau, self.l)

    def __repr__(self):
        return "Frac(%s, k=%d)" % (list(self.num), self.k)


def tp_localize(p, tau, l):
    """Image of p under T^{2i} -> X^{2i}/(X+tau)^i, T^{2i+1} -> X^{2i+1}/(X+tau)^i."""
    out = Frac((), 0, tau, l)
    for d, c in enumerate(pnormalize(p)):
        if c % l == 0:
            continue
        mono = [0] * (d + 1)
        mono[d] = c % l
        out = out + Frac(tuple(mono), d // 2, tau, l)
    return out


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


# -- the row-reduction reference -------------------------------------------


def rref_reduce(p, fpoly, tau, l):
    """tp_reduce as it was: row-reduce the span of T^i * fpoly, then
    eliminate p from the top degree down."""
    p = pnormalize(tuple(c % l for c in p))
    fpoly = pnormalize(tuple(c % l for c in fpoly))
    if not fpoly:
        raise ZeroDivisionError("reduction by zero")
    degf = len(fpoly) - 1
    if degf == 0:
        return ()
    h = tp_mul((0, 1), fpoly, tau, l)
    if len(h) == degf + 3:
        h = padd(h, pscale((0, 0) + fpoly, -1, l), l)
    if len(h) != degf + 2:
        raise DegenerateIdeal("no element of degree %d" % (degf + 1))
    top = max(len(p) - 1, degf) - degf + 2
    width = top + len(fpoly) + 2
    rows = np.zeros((top + 1, width), dtype=np.int64)
    for i in range(top + 1):
        for d, c in enumerate(tp_mul(tuple([0] * i + [1]), fpoly, tau, l)):
            rows[i, d] = c
    # orient by descending degree so RREF pivots sit on leading terms
    R, piv = rref_mod(rows[:, ::-1], l)
    pivot_deg = {width - 1 - c: R[r] for r, c in enumerate(piv)}
    r = np.zeros(width, dtype=np.int64)
    for d, c in enumerate(p):
        r[d] = c
    for d in sorted(pivot_deg, reverse=True):
        if r[d]:
            r = (r - r[d] * pivot_deg[d][::-1]) % l
    assert not r[degf:].any()
    return pnormalize(tuple(int(c) for c in r[:degf]))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateIdeal:
        return DegenerateIdeal


@st.composite
def reduce_inputs(draw):
    l = draw(st.sampled_from([2, 3, 5, 7, 11]))
    coeff = st.integers(0, l - 1)
    p = tuple(draw(st.lists(coeff, max_size=13)))
    degf = draw(st.integers(0, 4))
    f = tuple(draw(st.lists(coeff, min_size=degf, max_size=degf))) + (
        draw(st.integers(1, l - 1)),  # any nonzero leading coefficient
    )
    tau = draw(st.integers(0, l - 1))
    return p, f, tau, l


@given(reduce_inputs())
@settings(max_examples=400, deadline=None)
def test_reduce_matches_rref_reference(args):
    # same normal form, or DegenerateIdeal on both sides
    assert _outcome(tp_reduce, *args) == _outcome(rref_reduce, *args)
