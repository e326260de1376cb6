import contextlib
import hashlib
import math
import os
import subprocess
import sys as _sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import (
    ends_on_w,
    grade,
    int64_combine,
    letter_symbol_product,
    object_combine,
    shape_class,
    term_combine,
)
from test_acceptance import FIN_CONFIGS

from heckekit import gfp, heckealg
from heckekit.errors import BadCharacteristic, ParityViolation, TooLarge
from heckekit.finhecke import FinElement, fin_mul, random_fin_element
from heckekit.heckealg import FreeCoefficients, HeckeEngine, MatrixCoefficients
from heckekit.modrep import build_coefficient_system
from heckekit.residue import oracle_product, p_eta_pattern
from heckekit.tpoly import tp_mul
from heckekit.twisted import iwahori_mul
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


def matrix_engine(k, q, l, rho="trivial", mode="plain"):
    sys = build_coefficient_system(k, q, l, rho=rho, mode=mode)
    return sys, HeckeEngine(MatrixCoefficients(sys))


TW = W_T * W_W
WTINV = W_W * W_TINV
TINVWP = W_TINV * W_WP


def oracle_supported(e):
    ur, ll = p_eta_pattern(e)
    return max(ur, ll - 1) <= 2


def commute_w(eng, eta, a, f):
    """The product [w]_f * [eta]^a rewritten with [w]_f on the right.

    Returns the rewritten element; compare with mul() for the check.
    The four shapes give four right-hand sides; the pure translation
    shape needs no rewriting because lengths just add.
    """
    if a % 2 != int(eta.flip):
        raise ParityViolation("shift %d has wrong parity for %r" % (a, eta))
    be = eng.be
    be.validate(W_W, f)
    wf = eng.symbol(W_W, f)
    conj = W_W * eta * W_W
    shape = shape_class(eta)
    if shape == "T":
        return eng.mul(wf, eng.symbol(eta, j=a))
    unit1f = eng.symbol(W_ID, be.tstar(f, 1))
    if shape == "A":
        return eng.mul(eng.symbol(conj, j=a), wf)
    if shape == "B":
        return eng.add(
            eng.scale(eng.mul(eng.symbol(conj, j=a), wf), be.tau),
            eng.mul(eng.symbol(eta, j=a), unit1f),
        )
    if shape == "C":
        return eng.scale(
            eng.mul(eng.symbol(conj, j=a), eng.sub(wf, unit1f)),
            be.tau_inv,
        )
    assert shape == "D"
    return eng.add(
        eng.mul(eng.symbol(conj, j=a), eng.sub(wf, unit1f)),
        eng.mul(eng.symbol(eta, j=a), unit1f),
    )


def annihilator_element(eng):
    """[w]^1 - [1]^2, the left annihilator of unit cosets against [w]_f."""
    return eng.sub(eng.symbol(W_W, j=1), eng.symbol(W_ID, j=2))


def check_unit_identity(eng, f):
    """tau*[1]^1_f == ([w]^1 - [1]^2) * [w]_f, for any odd f."""
    lhs = eng.scale(eng.symbol(W_ID, eng.be.tstar(f, 1)), eng.be.tau)
    rhs = eng.mul(annihilator_element(eng), eng.symbol(W_W, f))
    return eng.eq(lhs, rhs)


def check_shift_identity(eng, eta, c):
    """[eta]^c * ([w]^1 - [1]^2) == tau * [eta.w]^{c+1}.

    Holds when the reduced word of eta ends in the plain letter; the
    caller is responsible for that hypothesis.
    """
    lhs = eng.mul(eng.symbol(eta, j=c), annihilator_element(eng))
    rhs = eng.scale(eng.symbol(eta * W_W, j=c + 1), eng.be.tau)
    return eng.eq(lhs, rhs)


def test_eight_cancellation_rows():
    _, eng = matrix_engine(1, 4, 5)
    tau = 4
    expected = {
        (W_W, W_W): (W_ID, W_W),
        (TW, WTINV): (W_ID, W_WP),
        (W_WP, W_WP): (W_ID, W_WP),
        (WTINV, TW): (W_ID, W_W),
        (W_W, WTINV): (W_TINV, WTINV),
        (TINVWP, W_WP): (W_TINV, TINVWP),
        (TW, W_W): (W_T, TW),
        (W_WP, TW): (W_T, W_WP * W_T),
    }
    for (eta, delta), (drop, keep) in expected.items():
        got = eng.symbol_product(eta, delta)
        assert got == ((drop, tau, 0), (keep, 1, 1)), (eta, delta, got)


def test_central_shift_of_cancellation():
    _, eng = matrix_engine(1, 4, 5)
    t2 = diag(1, 1)
    got = eng.symbol_product(t2 * W_W, W_W)
    assert got == ((t2, 4, 0), (t2 * W_W, 1, 1))


def elem_eq(out, want, l):
    if set(out) != set(want):
        return False
    return all(np.array_equal(out[k] % l, want[k] % l) for k in out)


@pytest.mark.parametrize(
    "k,q,l,rho,mode",
    [(1, 4, 5, "trivial", "plain"), (1, 3, 2, "trivial", "plain")],
)
def test_engine_matches_local_oracle_window(k, q, l, rho, mode):
    sys, eng = matrix_engine(k, q, l, rho=rho, mode=mode)
    window = [e for e in elements_in_window(1) if oracle_supported(e)]
    assert len(window) >= 16
    for eta in window:
        f = sys.basis(int(eta.flip))[0] % l
        for delta in window:
            g = sys.basis(int(delta.flip))[-1] % l
            got = eng.mul(eng.symbol(eta, f), eng.symbol(delta, g))
            want = oracle_product(sys, eta, f, delta, g)
            assert elem_eq(got, want, l), (eta, delta)


def test_engine_matches_local_oracle_pp():
    sys, eng = matrix_engine(1, 4, 3, mode="pp")
    l = sys.l
    probe = [W_ID, W_W, W_T, W_TINV, W_WP, diag(0, 1), diag(1, 0), TW]
    for eta in probe:
        f = sys.basis(int(eta.flip))[1] % l
        for delta in probe:
            g = sys.basis(int(delta.flip))[-1] % l
            got = eng.mul(eng.symbol(eta, f), eng.symbol(delta, g))
            want = oracle_product(sys, eta, f, delta, g)
            assert elem_eq(got, want, l), (eta, delta)


@pytest.mark.parametrize(
    "k,q,l,rho,mode",
    [
        (1, 4, 5, "trivial", "plain"),
        (1, 5, 3, "chi1", "plain"),
        (1, 4, 3, "trivial", "pp"),
        (2, 2, 3, "sign", "pp"),
    ],
)
def test_engine_agrees_with_finite_quotient(k, q, l, rho, mode):
    sys, eng = matrix_engine(k, q, l, rho=rho, mode=mode)
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_fin_element(sys, rng)
        b = random_fin_element(sys, rng)
        fin = fin_mul(a, b)
        ea = eng.add(eng.symbol(W_ID, a.f1), eng.symbol(W_W, a.fw))
        eb = eng.add(eng.symbol(W_ID, b.f1), eng.symbol(W_W, b.fw))
        got = eng.mul(ea, eb)
        assert set(got) <= {W_ID, W_W}
        z = np.zeros((sys.dim, sys.dim), dtype=np.int64)
        assert np.array_equal(got.get(W_ID, z), fin.f1 % l)
        assert np.array_equal(got.get(W_W, z), fin.fw % l)


@pytest.mark.parametrize(
    "k,q,l,rho,mode",
    [(1, 4, 5, "trivial", "plain"), (1, 4, 3, "trivial", "pp")],
)
def test_commute_w_matches_direct_product(k, q, l, rho, mode):
    sys, eng = matrix_engine(k, q, l, rho=rho, mode=mode)
    shapes_seen = set()
    odd = sys.basis(1)
    for eta in elements_in_window(2):
        shapes_seen.add(shape_class(eta))
        for f in (odd[0] % l, odd[-1] % l):
            for a in (int(eta.flip), int(eta.flip) + 2):
                lhs = eng.mul(eng.symbol(W_W, f), eng.symbol(eta, j=a))
                rhs = commute_w(eng, eta, a, f)
                assert eng.eq(lhs, rhs), (eta, a)
    assert shapes_seen == {"A", "B", "C", "D", "T"}


def test_commute_w_parity_guard():
    _, eng = matrix_engine(1, 4, 5)
    f = eng.be.one()  # even coefficient is illegal next to [w]
    with pytest.raises(ParityViolation):
        commute_w(eng, W_W, 0, f)


@pytest.mark.parametrize(
    "k,q,l,rho,mode",
    [(1, 4, 5, "trivial", "plain"), (1, 4, 3, "trivial", "pp")],
)
def test_unit_identity_all_odd_basis(k, q, l, rho, mode):
    sys, eng = matrix_engine(k, q, l, rho=rho, mode=mode)
    for f in sys.basis(1):
        assert check_unit_identity(eng, f % l)


def test_shift_identity_on_trailing_letter():
    sys, eng = matrix_engine(1, 4, 5)
    for eta in elements_in_window(2):
        if not ends_on_w(eta):
            continue
        c = int(eta.flip)
        assert check_shift_identity(eng, eta, c), eta
    # outside its hypothesis the identity genuinely fails
    assert not check_shift_identity(eng, W_ID, 0)


def test_embed_polynomial_is_multiplicative():
    for args in ((1, 4, 5, "trivial", "plain"), (1, 4, 3, "trivial", "pp")):
        sys, eng = matrix_engine(*args[:3], rho=args[3], mode=args[4])
        l, tau = sys.l, sys.tau
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = tuple(int(v) for v in rng.integers(0, l, size=4))
            b = tuple(int(v) for v in rng.integers(0, l, size=3))
            lhs = eng.embed_polynomial(tp_mul(a, b, tau, l))
            rhs = eng.mul(eng.embed_polynomial(a), eng.embed_polynomial(b))
            assert eng.eq(lhs, rhs)


def test_symbol_product_window_terminates():
    _, eng = matrix_engine(1, 3, 2)
    window = elements_in_window(2)
    for eta in window:
        for delta in window:
            for eps, s, j in eng.symbol_product(eta, delta):
                assert 0 < s < eng.be.l
                assert j >= 0
                assert grade(eta * delta) == (grade(eps) + j) % 2


def free_engine(l=5, tau=3):
    gens = {"f": 1, "g": 1, "h": 1, "e": 0}
    return HeckeEngine(FreeCoefficients(gens, l, tau))


def test_free_backend_parity_validation():
    eng = free_engine()
    eng.validate({W_W: eng.be.word("f")})
    eng.validate({W_ID: eng.be.word("f", "g")})
    with pytest.raises(ParityViolation):
        eng.validate({W_W: eng.be.word("e")})
    with pytest.raises(ParityViolation):
        eng.validate({W_ID: eng.be.word("f", j=2)})


def test_free_backend_words_compose_in_order():
    eng = free_engine()
    a = eng.symbol(W_W, eng.be.word("f"))
    b = eng.symbol(W_W, eng.be.word("g"))
    ab = eng.mul(a, b)
    # tau [1]_{fg} + [w]^1_{fg}: words stay in order, never commute
    assert ab[W_ID] == {(("f", "g"), 0): 3}
    assert ab[W_W] == {(("f", "g"), 1): 1}


def test_free_backend_rejects_bad_parameters():
    with pytest.raises(BadCharacteristic):
        free_engine(l=5, tau=10)
    for l in (0, 1, 4, 9):
        with pytest.raises(BadCharacteristic):
            free_engine(l=l, tau=1)


def test_free_associativity_sample():
    eng = free_engine(l=7, tau=4)
    rng = np.random.default_rng(3)
    window = [e for e in elements_in_window(2) if length(e) <= 3]
    letters = {0: ("e",), 1: ("f",)}
    picks = rng.integers(0, len(window), size=(60, 3))
    for ia, ib, ic in picks:
        trip = []
        for e in (window[ia], window[ib], window[ic]):
            trip.append(eng.symbol(e, eng.be.word(*letters[int(e.flip)])))
        x, y, z = trip
        left = eng.mul(eng.mul(x, y), z)
        right = eng.mul(x, eng.mul(y, z))
        assert eng.eq(left, right)


# Recorded on the recursive engine that the letter loop (now
# reference.letter_symbol_product) replaced; the letter loop and the closed
# form that replaced it in turn both reproduce them.
SYMBOL_PRODUCT_DIGESTS = {
    (5, 4): "64a66bc7c5fed385e084a69ef2bd03b5a06f50220c729e3e2ee5a8751a354059",
    (7, 3): "398a8aedb01ce4d5f0bbb8fedd0b596ec6e7519b2c7dd5ed6167fb236b803237",
}


@pytest.mark.parametrize("l,tau", sorted(SYMBOL_PRODUCT_DIGESTS))
def test_symbol_product_golden_digest(l, tau):
    eng = HeckeEngine(FreeCoefficients({"f": 1}, l, tau))
    h = hashlib.sha256()
    window = elements_in_window(3)
    for eta in window:
        for delta in window:
            h.update(repr((eta.x, eta.y, int(eta.flip),
                           delta.x, delta.y, int(delta.flip))).encode())
            for eps, s, j in eng.symbol_product(eta, delta):
                h.update(repr((eps.x, eps.y, int(eps.flip), s, j)).encode())
    assert h.hexdigest() == SYMBOL_PRODUCT_DIGESTS[l, tau]


def alternating(first, n):
    other = "w'" if first == "w" else "w"
    return tuple(first if i % 2 == 0 else other for i in range(n))


def specialised(eng, eta, delta, qbar):
    """s.[eps]^j  ->  s.(qbar-1)^j.T_eps, summed per eps."""
    l = eng.be.l
    out = {}
    for eps, s, j in eng.symbol_product(eta, delta):
        out[eps] = (out.get(eps, 0) + s * pow(qbar - 1, j, l)) % l
    return {e: c for e, c in out.items() if c}


@given(
    st.sampled_from([(5, 4), (7, 3)]),
    st.sampled_from(["w", "w'"]),
    st.integers(0, 400),
    st.integers(0, 400),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
@example((5, 4), "w", 400, 400, True, 0, 0)
@example((7, 3), "w'", 399, 400, True, 3, -2)
@example((5, 4), "w", 400, 400, False, -1, 2)
@settings(max_examples=40, deadline=None)
def test_symbol_product_matches_iwahori_model(lq, first, n, m, cancel, a, b):
    l, qbar = lq
    x = alternating(first, n)
    last = x[-1] if x else first
    if cancel:
        y = alternating(last, m)
    else:
        y = alternating("w'" if last == "w" else "w", m)
    eta, delta = from_word(a, x), from_word(b, y)
    eng = HeckeEngine(FreeCoefficients({"f": 1}, l, qbar))
    assert specialised(eng, eta, delta, qbar) == iwahori_mul(eta, delta, qbar, l)


def cancelling_pair(n, a, c):
    """(eta, delta): eta = t^a times an alternating word of n letters, and
    delta = eta^-1 . t^c, so that all n letters cancel and eta.delta = t^c."""
    eta = from_word(a, alternating("w", n))
    return eta, eta.inv() * t_power(c)


# (a, c): the t-exponents of eta, a, and of delta, c - a, nonzero, odd and even
CANCEL_SHIFTS = ((2, 5), (-1, 2), (3, 1))


@pytest.mark.parametrize("l,tau", [(5, 4), (7, 3)])
def test_symbol_product_matches_letter_loop(l, tau):
    eng = HeckeEngine(FreeCoefficients({"f": 1}, l, tau))
    window = elements_in_window(5)
    pairs = [(eta, delta) for eta in window for delta in window]
    for n in (0, 1, 2, 299, 300):
        for a, c in CANCEL_SHIFTS:
            eta, delta = cancelling_pair(n, a, c)
            assert word_of(delta)[0] != 0 and len(word_of(delta)[1]) == n
            pairs.append((eta, delta))
    for eta, delta in pairs:
        assert eng.symbol_product(eta, delta) == letter_symbol_product(eta, delta, l, tau)


def test_long_cancelling_pair_in_bounded_time():
    # the letter loop walks every live term per letter, so it is quadratic:
    # 17.6 s on this pair on a 2-vCPU Xeon VM, against 0.03 s
    l, tau, n = 7, 3, 8000
    eng = HeckeEngine(FreeCoefficients({"f": 1}, l, tau))
    eta, delta = cancelling_pair(n, 2, 5)
    start = time.perf_counter()
    terms = eng.symbol_product(eta, delta)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(terms) == n + 1
    assert terms[0] == (t_power(5), pow(tau, n, l), 0)
    powers = {pow(tau, i, l) for i in range(l)}
    assert all(j in (0, 1) and s in powers for _, s, j in terms)
    assert len({length(eps) for eps, _, _ in terms}) == n + 1


def test_rendering_a_long_product_keeps_word_of_bounded():
    # the product and the printing of 2,001 distinct terms of up to 4,000
    # letters must not leave them all in word_of's cache (render reads
    # (x, y, flip) and no longer fills it)
    eng = HeckeEngine(FreeCoefficients({"f": 1}, 7, 3))
    eta, delta = cancelling_pair(2000, 2, 5)
    printed = [render(eps) for eps, _, _ in eng.symbol_product(eta, delta)]
    assert len(set(printed)) == 2001
    assert word_of.cache_info().currsize <= 1024


# ---------------------------------------------------------------------------
# matrix-backend products


MUL_CONFIGS = [
    (1, 5, 2, "trivial", "pp"),
    (1, 4, 3, "trivial", "pp"),
    (2, 2, 3, "sign", "pp"),
]


def random_matrix_element(rng, sys, window, terms, keep=lambda f: True):
    """Up to `terms` symbols, each two scaled parity-matching intertwiners."""
    out = {}
    for _ in range(terms):
        eta = window[int(rng.integers(len(window)))]
        basis = [f for f in sys.basis(int(eta.flip)) if keep(f % sys.l)]
        picks = rng.integers(len(basis), size=2)
        scal = rng.integers(1, sys.l, size=2)
        out[eta] = (int(scal[0]) * basis[picks[0]] + int(scal[1]) * basis[picks[1]]) % sys.l
    return out


def per_term_mul(eng, a, b):
    """The reference: one int64 product, T*^j, scale and add per term."""
    sys, l = eng.be.system, eng.be.l
    out = {}
    for eta, ca in a.items():
        for delta, cb in b.items():
            c = ((ca % l) @ (cb % l)) % l
            for eps, s, j in eng.symbol_product(eta, delta):
                term = ((sys.tstar_power(j) @ c) % l * s) % l
                out[eps] = (out[eps] + term) % l if eps in out else term
    return {k: v for k, v in out.items() if v.any()}


def mul_cases(sys, eng, rng):
    """Seeded products: multi-term, empty operands, and products that cancel."""
    window = elements_in_window(2)
    half = sys.dim // 2
    cases = []
    for _ in range(12):
        na, nb = (int(v) for v in rng.integers(1, 5, size=2))
        cases.append((random_matrix_element(rng, sys, window, na),
                      random_matrix_element(rng, sys, window, nb)))
    a = random_matrix_element(rng, sys, window, 3)
    cases += [({}, a), (a, {}), ({}, {})]
    # V = P (+) P^*: coefficients that only read the first summand times
    # coefficients that only write the second vanish pair by pair
    lo = random_matrix_element(rng, sys, window, 3, lambda f: not f[:, half:].any())
    hi = random_matrix_element(rng, sys, window, 3, lambda f: not f[:half].any())
    cases.append((lo, hi))
    # ([w]^1 - [1]^2) * [w]_f = tau.[1]^1_f: the [w] terms of the two pairs cancel
    cases.append((annihilator_element(eng), eng.symbol(W_W, sys.basis(1)[0])))
    return cases


def element_digest(h, elem, l):
    for eps in sorted(elem, key=lambda e: (e.x, e.y, int(e.flip))):
        h.update(repr((eps.x, eps.y, int(eps.flip))).encode())
        h.update(np.ascontiguousarray(elem[eps] % l, dtype=np.int64).tobytes())
    h.update(b"|")


# sha256 prefixes per MUL_CONFIGS system; hashed as one stream they give
# the digest recorded on the per-term int64 loop that the batched products
# replaced
# The (2,2,3,sign,pp) entry is re-recorded in the basis of the cover induced
# from a complement C_2 in S_3, whose V differs from the split regular
# module's by a change of basis.
MATRIX_MUL_DIGESTS = {
    (1, 5, 2, "trivial", "pp"): "f2d97dbab20bd4b1",
    (1, 4, 3, "trivial", "pp"): "a3051300676fb24d",
    (2, 2, 3, "sign", "pp"): "f6073229ba1d22d0",
}


def test_matrix_mul_golden_digest():
    got = {}
    for n, cfg in enumerate(MUL_CONFIGS):
        sys, eng = matrix_engine(*cfg[:3], rho=cfg[3], mode=cfg[4])
        h = hashlib.sha256()
        cases = mul_cases(sys, eng, np.random.default_rng(100 + n))
        for a, b in cases:
            element_digest(h, eng.mul(a, b), sys.l)
        lo, hi = cases[-2]
        assert eng.mul(lo, hi) == {}
        ann, wf = cases[-1]
        assert set(eng.mul(ann, wf)) == {W_ID}
        got[cfg] = h.hexdigest()[:16]
    assert got == MATRIX_MUL_DIGESTS


def raw_matrix_element(rng, sys, window, terms):
    """Arbitrary integer matrices, unreduced and signed: mul never validates."""
    l, d = sys.l, sys.dim
    return {window[int(rng.integers(len(window)))]: rng.integers(-3 * l, 3 * l, size=(d, d))
            for _ in range(terms)}


@given(
    st.sampled_from(MUL_CONFIGS + [(1, 4, 5, "trivial", "plain")]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 4),
    st.integers(0, 4),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_mul_matches_per_term_loop(cfg, seed, na, nb, raw):
    sys, eng = matrix_engine(*cfg[:3], rho=cfg[3], mode=cfg[4])
    rng = np.random.default_rng(seed)
    make = raw_matrix_element if raw else random_matrix_element
    window = elements_in_window(2)
    a, b = make(rng, sys, window, na), make(rng, sys, window, nb)
    got, want = eng.mul(a, b), per_term_mul(eng, a, b)
    assert list(got) == list(want)
    for eps, c in want.items():
        assert got[eps].dtype == np.int64 and got[eps].shape == (sys.dim, sys.dim)
        assert np.array_equal(got[eps], c)


# ---------------------------------------------------------------------------
# the float64 combine against the int64 one it replaced

COMBINE_SYSTEMS = [(*cfg, mode) for cfg in FIN_CONFIGS for mode in ("plain", "pp")]


def random_pairs(rng, na, nb, l, window):
    """Pairs (i, k, terms) as mul builds them: some (i, k) absent, some
    with no terms, each (eps, j) at most once per pair, s in [1, l)."""
    pairs = []
    for i in range(na):
        for k in range(nb):
            if rng.random() < 0.2:
                continue
            terms = {}
            for _ in range(int(rng.integers(0, 4))):
                eps = window[int(rng.integers(len(window)))]
                terms[eps, int(rng.integers(0, 4))] = int(rng.integers(1, l))
            pairs.append((i, k, tuple((eps, s, j) for (eps, j), s in terms.items())))
    return pairs


@given(
    st.sampled_from(COMBINE_SYSTEMS),
    st.integers(0, 2**32 - 1),
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from(["random", "zero", "cancel", "empty"]),
)
@example(COMBINE_SYSTEMS[0], 0, 2, 1, "cancel")
@example(COMBINE_SYSTEMS[-1], 0, 0, 0, "empty")
@example(COMBINE_SYSTEMS[-1], 1, 3, 2, "zero")
@settings(max_examples=60, deadline=None)
def test_float_combine_matches_int64_combine(cfg, seed, na, nb, shape):
    sys, eng = matrix_engine(*cfg[:3], rho=cfg[3], mode=cfg[4])
    be, l, d = eng.be, sys.l, sys.dim
    rng = np.random.default_rng(seed)
    window = elements_in_window(2)
    ca = [rng.integers(-3 * l, 3 * l, size=(d, d)) for _ in range(na)]
    cb = [rng.integers(-3 * l, 3 * l, size=(d, d)) for _ in range(nb)]
    pairs = random_pairs(rng, na, nb, l, window)
    if shape == "zero":
        ca = [np.zeros((d, d), dtype=np.int64) for _ in ca]
    elif shape == "cancel" and na and nb:
        # ca[0] and a copy of it, onto the same output with s and l - s
        ca = [ca[0], ca[0].copy()]
        s = int(rng.integers(1, l))
        pairs = [(0, 0, ((W_ID, s, 1),)), (1, 0, ((W_ID, l - s, 1),))]
    elif shape == "empty":
        pairs = []
    got, want = be.combine(ca, cb, pairs), int64_combine(be, ca, cb, pairs)
    assert list(got) == list(want)
    if shape != "random":
        assert got == {}
    for eps, c in want.items():
        assert got[eps].dtype == np.int64 and got[eps].shape == (d, d)
        assert np.array_equal(got[eps], c)


# ---------------------------------------------------------------------------
# the one-pass free combine against the term-at-a-time one it replaced

FREE_WORDS = st.lists(st.sampled_from("ab"), max_size=3).map(tuple)  # a even, b odd


@st.composite
def free_combine_inputs(draw):
    """(l, ca, cb, pairs): coefficients that may be empty or hold zero
    scalars, pairs that may be absent or have no terms, shifts 0..3, and
    three outputs eps shared across the pairs."""
    l = draw(st.sampled_from([2, 3, 5, 7]))
    coeff = st.dictionaries(st.tuples(FREE_WORDS, st.integers(0, 3)), st.integers(0, l - 1),
                            max_size=3)
    ca = draw(st.lists(coeff, min_size=1, max_size=3))
    cb = draw(st.lists(coeff, min_size=1, max_size=3))
    term = st.tuples(st.sampled_from([W_ID, W_W, W_T]), st.integers(1, l - 1), st.integers(0, 3))
    pair = st.tuples(st.integers(0, len(ca) - 1), st.integers(0, len(cb) - 1),
                     st.lists(term, max_size=3).map(tuple))
    return l, ca, cb, draw(st.lists(pair, max_size=5))


# s and l - s on one output key: ca[0] and a copy of it, times cb[0], shifted by 2
CANCEL = (5, [{(("a", "b"), 1): 3}, {(("a", "b"), 1): 3}], [{(("b",), 0): 2}],
          [(0, 0, ((W_W, 4, 2),)), (1, 0, ((W_W, 1, 2),))])


@given(free_combine_inputs())
@example(CANCEL)
@example((3, [{}], [{((), 0): 1}], [(0, 0, ((W_ID, 1, 0),))]))
@example((3, [{((), 0): 1}], [{((), 0): 1}], []))
@settings(max_examples=200, deadline=None)
def test_free_combine_matches_term_combine(inputs):
    l, ca, cb, pairs = inputs
    be = FreeCoefficients({"a": 0, "b": 1}, l, 1)
    got = be.combine(ca, cb, pairs)
    assert got == term_combine(be, ca, cb, pairs)
    assert all(c and all(c.values()) for c in got.values())
    if inputs == CANCEL:
        assert got == {}


def test_free_backend_reduces_once_at_the_end():
    # at l = 3 the raw sums 3 (compose), 6 and 12 (combine) are multiples
    # of l and dropped, an input scalar of 4 counts as 1, and what is left
    # is reduced into [0, l)
    be = FreeCoefficients({"a": 0, "b": 1}, 3, 1)
    a = {(("a",), 0): 4, ((), 0): 1}
    b = {((), 0): 1, (("a",), 0): 2}
    ab = {((), 0): 1, (("a", "a"), 0): 2}  # a.() + ().a = 4 + 2 = 6 is 0
    assert be.compose(a, b) == ab
    ca, cb = [a, a, {((), 1): 2}], [b, {(("b",), 0): 2}]
    pairs = [
        (0, 0, ((W_ID, 2, 0), (W_W, 1, 1))),
        (1, 0, ((W_ID, 1, 0), (W_W, 2, 1))),  # W_ID: 3 ab, W_W: 3 ab shifted
        (2, 1, ((W_T, 2, 0),)), (2, 1, ((W_T, 2, 0),)), (2, 1, ((W_T, 2, 0),)),  # 3 x 2 x 4
        (2, 0, ((W_T, 1, 1),)),
    ]
    want = {W_T: {((), 2): 2, (("a",), 2): 1}}
    got = be.combine(ca, cb, pairs)
    assert got == term_combine(be, ca, cb, pairs) == want
    assert all(0 < v < 3 for c in got.values() for v in c.values())


# l - 1 = 2^24: a product of residues with inner dimension n is exact in
# float64 while n * 2^48 < 2^53, so 31 is the last exact inner dimension
# and 32 the first past the bound
BIG_L = 2**24 + 1


class StubSystem:
    """What MatrixCoefficients reads of a system: dim, l, tau, T* powers."""

    def __init__(self, dim):
        self.dim, self.l, self.tau = dim, BIG_L, 1

    def tstar_power(self, j):
        return np.eye(self.dim, dtype=np.int64)


@contextlib.contextmanager
def gfp_calls(calls):
    """Record in `calls` the gfp helpers that combine calls: ("residues",
    dtype) for each operand it reduces into [0, l), the inputs first and
    then each T*^j, and "reduce" for each reduction mod l."""
    residues, reduce = gfp._residues, gfp._reduce

    def spy_residues(A, l, dtype):
        calls.append(("residues", dtype))
        return residues(A, l, dtype)

    def spy_reduce(Z, l):
        calls.append("reduce")
        return reduce(Z, l)

    gfp._residues, gfp._reduce = spy_residues, spy_reduce
    try:
        yield
    finally:
        gfp._residues, gfp._reduce = residues, reduce


def combine_at_stage(stage, n, calls, shifts=(1,)):
    """(combine, its answer on Python ints) on a stub system whose stage
    `stage` has inner dimension n: 1 is the pair products, then T*^j for
    each j of `shifts`, both of inner dimension dim, and the last the sum
    of one output's terms, whose count n is the column count.  `calls`
    records the gfp helpers combine calls (gfp_calls)."""
    if stage == len(shifts) + 2:
        # one output with n terms, the columns (0, k, j), the shifts taken
        # in turn, at dimension 1
        be = MatrixCoefficients(StubSystem(1))
        one = np.ones((1, 1), dtype=np.int64)
        ca, cb = [one], [one] * n
        pairs = [(0, k, ((W_ID, 1, shifts[k % len(shifts)]),)) for k in range(n)]
    else:
        be = MatrixCoefficients(StubSystem(n))
        ca = cb = [np.full((n, n), BIG_L - 1, dtype=np.int64)]
        pairs = [(0, 0, tuple((W_ID, 1, j) for j in shifts))]
    want = sum(s * ca[i].astype(object) @ cb[k].astype(object)  # T* is the identity
               for i, k, terms in pairs for _, s, _ in terms) % BIG_L
    with gfp_calls(calls):
        return be.combine(ca, cb, pairs), want


class TstarStub:
    """A system of dimension 2 mod l whose T* has every entry l - 1."""

    def __init__(self, l):
        self.dim, self.l, self.tau = 2, l, 1
        self.T = np.full((2, 2), l - 1, dtype=object)

    def tstar_power(self, j):
        P = np.eye(2, dtype=object)
        for _ in range(j):
            P = self.T @ P % self.l
        return P.astype(np.int64)


def tstar_inputs(l, shifts, seed):
    """(combine on TstarStub(l), its answer on Python ints) for one ca and
    a cb per entry of `shifts`, entries l - 1 or l - 2: pair (0, k) has a
    term of scalar l - 1 at each shift of shifts[k], a shift or a tuple of
    them, all onto one output."""
    be = MatrixCoefficients(TstarStub(l))
    rng = np.random.default_rng(seed)
    shifts = [js if isinstance(js, tuple) else (js,) for js in shifts]
    ca = [l - 1 - rng.integers(0, 2, size=(2, 2))]
    cb = [l - 1 - rng.integers(0, 2, size=(2, 2)) for _ in shifts]
    pairs = [(0, k, tuple((W_ID, l - 1, j) for j in js)) for k, js in enumerate(shifts)]
    A = ca[0].astype(object)
    want = sum((l - 1) * be.system.tstar_power(j).astype(object) @ A @ B.astype(object)
               for js, B in zip(shifts, cb) for j in js) % l
    return be, ca, cb, pairs, want


# 15 (l-1)^2 < 2^24 <= 16 (l-1)^2: combine's largest inner dimension is its
# column count, so 15 columns multiply in float32 and 16 in float64
STRADDLE_L = math.isqrt((2**24 - 1) // 15) + 1


@pytest.mark.parametrize("n,dtype", [(15, np.float32), (16, np.float64)])
def test_combine_exact_on_either_side_of_the_float32_bound(n, dtype):
    l = STRADDLE_L
    assert 15 * (l - 1) ** 2 < 2**24 <= 16 * (l - 1) ** 2
    # n columns (0, k, 1), every scalar l - 1, all onto one output
    be, ca, cb, pairs, want = tstar_inputs(l, [1] * n, n)
    calls = []
    with gfp_calls(calls):
        got = be.combine(ca, cb, pairs)
    # the inputs and T* are the operands, both in the call's one precision
    assert [c for c in calls if c != "reduce"] == [("residues", dtype)] * 2
    assert list(got) == [W_ID] and np.array_equal(got[W_ID], want)


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_combine_stage_raises_at_the_first_inexact_dimension(stage):
    # at l - 1 = 2^24 no unreduced entry stays exact through a second
    # product, so every stage's input is reduced: the inputs, P before T*,
    # the stack before the term sums and the sums at the end; at 32 the
    # call is refused before its inputs are reduced, so before any product
    calls = []
    out, want = combine_at_stage(stage, 31, calls)
    f64 = ("residues", np.float64)
    assert calls == [f64, "reduce", f64, "reduce", "reduce"]
    assert list(out) == [W_ID] and np.array_equal(out[W_ID], want)
    calls = []
    with pytest.raises(TooLarge, match="inner dimension 32"):
        combine_at_stage(stage, 32, calls)
    assert calls == []


def test_combine_refusal_names_the_dimension_before_the_columns():
    # dimension 32 and 40 columns, both past the bound: the dimension is
    # checked first, and the call is refused before any gfp call
    be, one = MatrixCoefficients(StubSystem(32)), np.ones((32, 32), dtype=np.int64)
    calls = []
    with gfp_calls(calls), pytest.raises(TooLarge, match="inner dimension 32 mod"):
        be.combine([one], [one] * 40, [(0, k, ((W_ID, 1, 1),)) for k in range(40)])
    assert calls == []


@pytest.mark.parametrize("n,dtype", [(15, np.float32), (16, np.float64)])
def test_combine_two_shifts_exact_on_either_side_of_the_float32_bound(n, dtype):
    # the n columns alternate between the shifts 1 and 2, so the call has
    # three operands: the inputs, T*^1 and T*^2
    be, ca, cb, pairs, want = tstar_inputs(STRADDLE_L, [1 + k % 2 for k in range(n)], n)
    calls = []
    with gfp_calls(calls):
        got = be.combine(ca, cb, pairs)
    assert [c for c in calls if c != "reduce"] == [("residues", dtype)] * 3
    assert list(got) == [W_ID] and np.array_equal(got[W_ID], want)


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_combine_two_shifts_raise_at_each_stage(stage):
    # P is reduced once before T*^1 and T*^2; one output then sums the
    # two terms T*^1.P and T*^2.P at dimension 31 (2 x 2^24 x 31 x 2^48 >=
    # 2^53), or 31 terms at dimension 1 (31 x 2^24 x 2^48), so the stack is
    # reduced before the sums at every stage
    calls = []
    out, want = combine_at_stage(stage, 31, calls, shifts=(1, 2))
    f64 = ("residues", np.float64)
    assert calls == [f64, "reduce", f64, f64, "reduce", "reduce"]
    assert list(out) == [W_ID] and np.array_equal(out[W_ID], want)
    calls = []
    with pytest.raises(TooLarge, match="inner dimension 32"):
        combine_at_stage(stage, 32, calls, shifts=(1, 2))
    assert calls == []


def test_combine_stages_raise_under_optimize():
    script = """
import sys
sys.path.insert(0, %r)
from heckekit.errors import TooLarge
from test_heckealg import combine_at_stage
for stage in (1, 2, 3):
    combine_at_stage(stage, 31, [])
    calls = []
    try:
        combine_at_stage(stage, 32, calls)
    except TooLarge:
        print(stage, len(calls), __debug__)
""" % os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(heckealg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([_sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "0", "False", "2", "0", "False", "3", "0", "False"]


# The reduction before the term sums, on either side of its bound, at
# d = 2: one output sums c terms, each of entries at most d(l-1)^2 (shift
# 0, "sum") or d(l-1) times that (shift 1, "tstar"), times a scalar of at
# most l - 1; "add" gives the output 2c terms, shifts 0 and 1 of each pair.
# Below the exact limit only the last reduction is taken, at or above it
# one more; P, at most 4(l-1)^3 after T*, is below the limit throughout.
def _skip_bound(stage, l, c):
    r = l - 1
    return {"sum": 2 * r**3 * c, "tstar": 4 * r**4 * c, "add": 8 * r**4 * c}[stage]


SKIPS = [
    ("sum", 101, 8, np.float32), ("sum", 101, 9, np.float32),
    ("tstar", 31, 5, np.float32), ("tstar", 31, 6, np.float32),
    ("add", 31, 2, np.float32), ("add", 31, 3, np.float32),
    ("sum", 65543, 15, np.float64), ("sum", 65543, 16, np.float64),
    ("tstar", 4099, 7, np.float64), ("tstar", 4099, 8, np.float64),
    ("add", 4099, 3, np.float64), ("add", 4099, 4, np.float64),
]


@pytest.mark.parametrize("stage,l,c,dtype", SKIPS)
def test_combine_skips_a_reduction_only_below_its_bound(stage, l, c, dtype):
    limit = 2 ** (np.finfo(dtype).nmant + 1)
    bound = _skip_bound(stage, l, c)
    # the neighbouring count lies on the other side of the limit
    other = _skip_bound(stage, l, c + 1 if bound < limit else c - 1)
    assert (bound < limit) != (other < limit)
    shifts = {"sum": [0] * c, "tstar": [1] * c, "add": [(0, 1)] * c}[stage]
    be, ca, cb, pairs, want = tstar_inputs(l, shifts, c)
    calls = []
    with gfp_calls(calls):
        got = be.combine(ca, cb, pairs)
    assert calls[0] == ("residues", dtype)
    assert calls.count("reduce") == (1 if bound < limit else 2)
    ref = int64_combine(be, ca, cb, pairs)
    assert list(got) == list(ref) == [W_ID]
    assert got[W_ID].dtype == np.int64
    assert np.array_equal(got[W_ID], ref[W_ID]) and np.array_equal(got[W_ID], want)


# P before T*^j, on either side of its bound d(l-1) . d(l-1)^2 = 4(l-1)^3
# at d = 2, one term at shift 1: below it P is multiplied unreduced, and
# the stack, past the limit after T*, is reduced before the sum; at or
# above it P is reduced first, and the stack then needs no reduction
@pytest.mark.parametrize("l,dtype,reduced", [
    (162, np.float32, False), (163, np.float32, True),
    (2**17, np.float64, False), (2**17 + 1, np.float64, True),
])
def test_combine_reduces_p_before_tstar_only_at_its_bound(l, dtype, reduced):
    limit = 2 ** (np.finfo(dtype).nmant + 1)
    assert (4 * (l - 1) ** 3 >= limit) == reduced
    be, ca, cb, pairs, want = tstar_inputs(l, [1], l)
    calls = []
    got = check_combine(be, ca, cb, pairs, calls)
    res = ("residues", dtype)
    assert calls == ([res, "reduce", res, "reduce"] if reduced else [res, res, "reduce", "reduce"])
    assert np.array_equal(got[W_ID], want)


# ---------------------------------------------------------------------------
# pair products that are exactly 0: a call where all are 0 stops after one test

SPARSE = (1, 4, 3, "trivial", "pp")  # dim 18, the oracle window's system


def check_combine(be, ca, cb, pairs, calls=None):
    """be.combine, recording its gfp calls in `calls`, checked against
    int64_combine and object_combine: the same keys in the same order and
    equal int64 arrays."""
    with gfp_calls([] if calls is None else calls):
        got = be.combine(ca, cb, pairs)
    for ref in (int64_combine(be, ca, cb, pairs), object_combine(be, ca, cb, pairs)):
        assert list(got) == list(ref)
        for eps, c in ref.items():
            assert got[eps].dtype == np.int64 and np.array_equal(got[eps], c)
    return got


def unit(d, r, c):
    """The d x d matrix unit with its 1 at (r, c)."""
    E = np.zeros((d, d), dtype=np.int64)
    E[r, c] = 1
    return E


def test_combine_of_vanishing_pairs_forms_no_scalar_sum():
    # E_r0 E_1c = 0: the inputs are reduced, and then nothing is formed
    sys_, eng = matrix_engine(*SPARSE)
    d = sys_.dim
    ca, cb = [unit(d, 0, 0), unit(d, 1, 0)], [unit(d, 1, 1), unit(d, 1, 2)]
    pairs = [(i, k, ((W_ID, 1, 0), (W_W, 2, 1))) for i in range(2) for k in range(2)]
    calls = []
    assert check_combine(eng.be, ca, cb, pairs, calls) == {}
    assert calls == [("residues", np.float32)]
    # the refusal still comes first, from every column, vanishing or not
    zero = np.zeros((32, 32), dtype=np.int64)
    for n, dtype in ((31, np.float64), (32, None)):
        be, calls = MatrixCoefficients(StubSystem(n)), []
        ca = cb = [zero[:n, :n]]
        if dtype is None:
            with gfp_calls(calls), pytest.raises(TooLarge, match="inner dimension 32"):
                be.combine(ca, cb, [(0, 0, ((W_ID, 1, 1),))])
            assert calls == []
        else:
            assert check_combine(be, ca, cb, [(0, 0, ((W_ID, 1, 1),))], calls) == {}
            assert calls == [("residues", dtype)]


def test_combine_keeps_the_key_order_of_a_vanishing_pair():
    # W_W is first named by the vanishing pair E_00 E_11, then by the live
    # pair E_00 E_01 after W_ID: the outputs stay in order of first mention
    sys_, eng = matrix_engine(*SPARSE)
    d = sys_.dim
    ca, cb = [unit(d, 0, 0)], [unit(d, 1, 1), unit(d, 0, 1)]
    pairs = [(0, 0, ((W_W, 1, 0),)), (0, 1, ((W_ID, 1, 0), (W_W, 2, 1)))]
    assert list(check_combine(eng.be, ca, cb, pairs)) == [W_W, W_ID]


def test_combine_keeps_pairs_that_vanish_only_mod_l():
    # all-ones 18 x 18 matrices multiply to 18 times all-ones: not 0, so
    # the pair is kept and its sums formed, but 0 mod 3, so the answer is {}
    sys_, eng = matrix_engine(*SPARSE)
    ones = np.ones((sys_.dim, sys_.dim), dtype=np.int64)
    calls = []
    assert check_combine(eng.be, [ones], [ones], [(0, 0, ((W_ID, 1, 0), (W_W, 2, 1)))],
                         calls) == {}
    assert calls == [("residues", np.float32)] * 2 + ["reduce"]


@pytest.mark.parametrize("n,dtype", [(15, np.float32), (16, np.float64)])
def test_combine_picks_the_precision_from_vanishing_columns_too(n, dtype):
    # the straddling columns of the bound test with every other cb[k] = 0:
    # the precision is still that of all n columns
    be, ca, cb, pairs, _ = tstar_inputs(STRADDLE_L, [1] * n, n)
    cb = [B if k % 2 else 0 * B for k, B in enumerate(cb)]
    calls = []
    assert list(check_combine(be, ca, cb, pairs, calls)) == [W_ID]
    assert [c for c in calls if c != "reduce"] == [("residues", dtype)] * 2


@pytest.mark.parametrize("seed", range(4))
def test_combine_of_basis_intertwiners_matches_the_references(seed):
    # the basis intertwiners are sparse, and half of their products are 0
    sys_, eng = matrix_engine(*SPARSE)
    rng = np.random.default_rng(seed)
    basis = [*sys_.I1, *sys_.Iw]
    ca, cb = ([basis[i] for i in rng.choice(len(basis), 6)] for _ in range(2))
    pairs = random_pairs(rng, 6, 6, sys_.l, elements_in_window(2))
    live = [bool((ca[i] @ cb[k]).any()) for i, k, terms in pairs if terms]
    assert any(live) and not all(live)
    check_combine(eng.be, ca, cb, pairs)


# ---------------------------------------------------------------------------
# each output the sum of its own terms, gathered rank by rank

OUTS = elements_in_window(2)[:4]

# pair (i, k) -> terms (output index, s, j), s = -1 standing for l - 1
GATHERS = {
    # output 0 gets four terms; rank 1 holds its shift 1 beside output 1's
    # shift 0, and rank 0 output 0's shift 0 beside output 1's shift 1
    "four-terms-mixed-shifts": [
        (0, 0, ((0, 1, 0), (1, -1, 1))), (0, 1, ((0, -1, 1), (1, 1, 0))),
        (1, 0, ((0, 1, 0), (2, 1, 1))), (1, 1, ((0, -1, 1),))],
    "only-shift-1": [(0, 0, ((0, 1, 1), (1, -1, 1))), (1, 1, ((0, -1, 1),)), (1, 0, ((1, 1, 1),))],
    "only-shift-2": [(0, 0, ((0, 1, 2),)), (0, 1, ((0, -1, 2), (1, 1, 2))), (1, 0, ((2, 1, 2),))],
    "shifts-1-and-2": [(0, 0, ((0, 1, 1), (0, -1, 2))), (1, 1, ((0, 1, 2), (1, -1, 1)))],
    "shift-1-met-before-0": [
        (0, 0, ((0, -1, 1),)), (0, 1, ((0, 1, 0), (1, -1, 1))), (1, 0, ((1, 1, 0),))],
    # every rank holds s = 1 beside s = l - 1
    "scalars-mixed-in-a-rank": [
        (0, 0, ((0, 1, 0), (1, -1, 0))), (1, 1, ((0, -1, 1), (1, 1, 1), (2, -1, 0))),
        (0, 1, ((0, 1, 0), (1, -1, 0), (2, 1, 1)))],
    # output 0 from all 16 pairs, output 1 from every third
    "one-output-across-many-pairs": [
        (i, k, ((0, 1 if (i + k) % 2 else -1, (i * k) % 2),
                *(((1, 1, (i * k) % 2),) if (4 * i + k) % 3 == 0 else ())))
        for i in range(4) for k in range(4)],
}


@pytest.mark.parametrize("system", ["sparse", "straddle"])
@pytest.mark.parametrize("case", list(GATHERS))
def test_combine_gathers_each_output_from_its_terms(case, system):
    # on the oracle window's system (l = 3, float32), whose T*^2 is 0 mod
    # 3, and on a dimension-2 system at STRADDLE_L, where every s = l - 1
    # scales by about 2^10
    if system == "sparse":
        be = matrix_engine(*SPARSE)[1].be
    else:
        be = MatrixCoefficients(TstarStub(STRADDLE_L))
    l, d = be.l, be.system.dim
    pairs = [(i, k, tuple((OUTS[o], s % l, j) for o, s, j in terms))
             for i, k, terms in GATHERS[case]]
    rng = np.random.default_rng(len(case))
    ca = [rng.integers(-3 * l, 3 * l, size=(d, d)) for _ in range(1 + max(p[0] for p in pairs))]
    cb = [rng.integers(-3 * l, 3 * l, size=(d, d)) for _ in range(1 + max(p[1] for p in pairs))]
    got = check_combine(be, ca, cb, pairs)
    assert bool(got) != (case == "only-shift-2" and system == "sparse")


@pytest.mark.parametrize("n,dtype", [(15, np.float32), (16, np.float64)])
def test_combine_gathers_at_either_precision(n, dtype):
    # the n columns (0, k, k mod 2) at STRADDLE_L pick the precision; pair
    # k gives output 0 a term and output 1 + k mod 3 another, at its one
    # shift, so ranks mix shifts and scalars 1 and l - 1
    be, l = MatrixCoefficients(TstarStub(STRADDLE_L)), STRADDLE_L
    rng = np.random.default_rng(n)
    ca = [rng.integers(0, l, size=(2, 2))]
    cb = [rng.integers(0, l, size=(2, 2)) for _ in range(n)]
    pairs = [(0, k, ((OUTS[0], 1 if k % 2 else l - 1, k % 2),
                     (OUTS[1 + k % 3], l - 1 if k % 2 else 1, k % 2)))
             for k in range(n)]
    calls = []
    got = check_combine(be, ca, cb, pairs, calls)
    assert list(got) == OUTS
    assert [c for c in calls if c != "reduce"] == [("residues", dtype)] * 2


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_wrongly_shaped_coefficient_raises_parity_violation(flags):
    # a 2 x 2 coefficient on a dimension-1 system
    script = """
import numpy as np
from heckekit.errors import ParityViolation
from heckekit.heckealg import HeckeEngine, MatrixCoefficients
from heckekit.modrep import build_coefficient_system
from heckekit.weyl import W_W
sys_ = build_coefficient_system(1, 4, 5, rho="trivial", mode="plain")
try:
    HeckeEngine(MatrixCoefficients(sys_)).validate({W_W: np.eye(2, dtype=np.int64)})
except ParityViolation:
    print("ParityViolation", __debug__)
"""
    src = os.path.dirname(os.path.dirname(heckealg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([_sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ParityViolation", str(not flags)]
