import hashlib
import os
import subprocess
import sys
from functools import lru_cache
from itertools import product as iproduct
from math import inf

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heckekit
from heckekit import residue
from heckekit import verify
from heckekit.errors import CellConflict, GapTooLarge, TooLarge, WindowExhausted
from heckekit.gfp import GF, fq_rank
from heckekit.modrep import build_coefficient_system
from heckekit.finhecke import FinElement, fin_mul
from heckekit.residue import (
    _CAP,
    E,
    central_class,
    class_hits,
    coset_reps,
    in_parabolic,
    lmat_mul,
    oracle_product,
    p_eta_pattern,
    pair_count,
    parabolic_levi,
    support_window,
    transversal,
    weyl_left,
    weyl_right,
)
from heckekit.weyl import W, W_ID, W_T, W_TINV, W_W, W_WP, diag, elements_in_window
from reference import prefilter, two_sided_oracle_product

# ---------------------------------------------------------------------------
# The reference: Laurent matrices as lists of dicts exponent -> code, the
# per-pair arithmetic the oracle used before it moved to dense arrays.


def lp_add(F, a, b):
    out = dict(a)
    for e, c in b.items():
        s = F.add(out.get(e, 0), c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def lp_mul(F, a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if abs(e) > _CAP:
                raise WindowExhausted("exponent %d" % e)
            s = F.add(out.get(e, 0), F.mul(c1, c2))
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def lp_val(a):
    return min(a) if a else None


def lmat_zero(n):
    return [[{} for _ in range(n)] for _ in range(n)]


def dict_lmat_mul(F, A, B):
    n = len(A)
    C = lmat_zero(n)
    for i in range(n):
        for j in range(n):
            acc = {}
            for k in range(n):
                if A[i][k] and B[k][j]:
                    acc = lp_add(F, acc, lp_mul(F, A[i][k], B[k][j]))
            C[i][j] = acc
    return C


def lmat_weyl(k, e):
    """The monomial matrix of a Weyl element; a homomorphism in e."""
    n = 2 * k
    M = lmat_zero(n)
    if not e.flip:
        for i in range(k):
            M[i][i] = {e.x: 1}
            M[k + i][k + i] = {e.y: 1}
    else:
        for i in range(k):
            M[i][k + i] = {e.x: 1}
            M[k + i][i] = {e.y: 1}
    return M


def _weyl_monomial(k, e):
    n = 2 * k
    return [((r + k) % n if e.flip else r, e.x if r < k else e.y) for r in range(n)]


def lp_shift(a, s):
    out = {e + s: c for e, c in a.items()}
    if out and (min(out) < -_CAP or max(out) > _CAP):
        raise WindowExhausted("exponents of %r shifted by %d" % (a, s))
    return out


def weyl_mul_left(k, e, A):
    """lmat_weyl(k, e) @ A, as a row permutation plus an exponent shift."""
    return [[lp_shift(a, s) for a in A[c]] for c, s in _weyl_monomial(k, e)]


def weyl_mul_right(k, A, e):
    """A @ lmat_weyl(k, e), as a column permutation plus an exponent shift."""
    mono = _weyl_monomial(k, e)
    return [[lp_shift(row[r], mono[r][1]) for r, _ in mono] for row in A]


def lmat_unipotent(F, k, side, coeffs):
    n = 2 * k
    M = lmat_zero(n)
    Minv = lmat_zero(n)
    for i in range(n):
        M[i][i] = {0: 1}
        Minv[i][i] = {0: 1}
    base = 0 if side == "ur" else 1
    for d, block in enumerate(coeffs):
        for i in range(k):
            for j in range(k):
                c = int(block[i, j])
                if not c:
                    continue
                r, s = (i, k + j) if side == "ur" else (k + i, j)
                M[r][s] = lp_add(F, M[r][s], {base + d: c})
                Minv[r][s] = lp_add(F, Minv[r][s], {base + d: F.neg(c)})
    return M, Minv


def block_min_val(M, k, bi, bj):
    vals = []
    for i in range(k):
        for j in range(k):
            v = lp_val(M[bi * k + i][bj * k + j])
            if v is not None:
                vals.append(v)
    return min(vals) if vals else None


def residue_block(M, k, bi, bj):
    out = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            out[i, j] = M[bi * k + i][bj * k + j].get(0, 0)
    return out


def dict_in_parabolic(F, M, k):
    for bi, bj, floor in ((0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 0)):
        v = block_min_val(M, k, bi, bj)
        if v is not None and v < floor:
            return False
    return fq_rank(F, residue_block(M, k, 0, 0)) == k and fq_rank(
        F, residue_block(M, k, 1, 1)) == k


def half_valuations(A, k):
    """Per half (left, right k columns) of A: least exponent in the top k
    rows, in the bottom k rows and overall, and greatest exponent."""
    out = []
    for cols in (range(k), range(k, 2 * k)):
        top = [e for row in A[:k] for j in cols for e in row[j]]
        bot = [e for row in A[k:] for j in cols for e in row[j]]
        top_lo, bot_lo = min(top, default=inf), min(bot, default=inf)
        out.append((top_lo, bot_lo, min(top_lo, bot_lo), max(top + bot, default=-inf)))
    return out


def valuations_admit(vals, e):
    """The valuation half of in_parabolic on A @ lmat_weyl(k, e)."""
    (tl, bl, ll, hl), (tr, br, lr, hr) = vals
    x, y = e.x, e.y
    if ll + x < -_CAP or lr + y < -_CAP or hl + x > _CAP or hr + y > _CAP:
        raise WindowExhausted("exponents beyond the window for %r" % (e,))
    if e.flip:
        return tl + x >= 0 and bl + x >= 0 and tr + y >= 0 and br + y >= 1
    return tl + x >= 0 and bl + x >= 1 and tr + y >= 0 and br + y >= 0


def dict_coset_reps(k, q, eta):
    F = GF(q)
    ur, ll = p_eta_pattern(eta)
    side, e = ("ur", ur) if ur > 0 else ("ll", ll - 1)
    if e == 0:
        eye, _ = lmat_unipotent(F, k, "ur", ())
        return [(eye, eye)]
    out = []
    for vals in iproduct(range(q), repeat=k * k * e):
        digits = tuple(
            np.array(vals[d * k * k : (d + 1) * k * k], dtype=np.int64).reshape(k, k)
            for d in range(e)
        )
        out.append(lmat_unipotent(F, k, side, digits))
    return out


def dict_levi_sigma(sys_, M):
    """sigma of the Levi factor of M: each residue diagonal block by its
    code (_gl_codes), through GL_k(q)'s of_code to an index whose label is
    that block."""
    k, idx = sys_.k, []
    for b in (0, 1):
        B = residue_block(M, k, b, b)
        i = sys_.M.of_code[_gl_codes(k, sys_.q)[tuple(B.ravel().tolist())]]
        assert np.array_equal(np.reshape(sys_.M.labels[i], (k, k)), B)
        idx.append(i)
    return sys_.sigma(*idx)


def dict_oracle_product(sys_, eta, f, delta, g):
    """The per-coset-pair oracle on dict matrices."""
    k, l = sys_.k, sys_.l
    F = GF(sys_.q)
    f = np.asarray(f, dtype=np.int64) % l
    g = np.asarray(g, dtype=np.int64) % l
    eta_inv, delta_inv = eta.inv(), delta.inv()
    V = [(vinv, dict_levi_sigma(sys_, v)) for v, vinv in dict_coset_reps(k, sys_.q, delta)]
    cands = support_window(eta, delta)
    out = {}
    for u, uinv in dict_coset_reps(k, sys_.q, eta):
        su = dict_levi_sigma(sys_, u)
        eu = weyl_mul_left(k, eta_inv, uinv)
        for vinv, sv in V:
            prefix = weyl_mul_left(k, delta_inv, dict_lmat_mul(F, vinv, eu))
            vals = half_valuations(prefix, k)
            hits = [eps for eps in cands if valuations_admit(vals, eps)
                    and dict_in_parabolic(F, weyl_mul_right(k, prefix, eps), k)]
            if len(hits) > 1:
                raise CellConflict("one coset pair fell into cells %r" % (hits,))
            for eps in hits:
                p2 = weyl_mul_right(k, prefix, eps)
                term = (su @ f @ sv @ g @ dict_levi_sigma(sys_, p2)) % l
                out[eps] = (out.get(eps, 0) + term) % l
    return {eps: h for eps, h in out.items() if h.any()}


def to_dense(A):
    n = len(A)
    M = np.zeros((n, n, E), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for e, c in A[i][j].items():
                M[i, j, e + _CAP] = c
    return M


def from_dense(M):
    n = M.shape[0]
    return [[{s - _CAP: int(c) for s, c in enumerate(M[i, j]) if c} for j in range(n)]
            for i in range(n)]


def test_weyl_matrix_is_homomorphism():
    F = GF(3)
    window = elements_in_window(2)
    small = [e for e in window if abs(e.x) <= 1 and abs(e.y) <= 1]
    for a in small:
        for b in small:
            left = lmat_mul(F, to_dense(lmat_weyl(1, a)), to_dense(lmat_weyl(1, b)))
            assert np.array_equal(left, to_dense(lmat_weyl(1, a * b)))


def test_weyl_matrix_inverse():
    F = GF(4)
    for e in [W_T, W_TINV, W_WP, diag(2, -1), W(1, -2, True)]:
        prod = lmat_mul(F, to_dense(lmat_weyl(1, e)), to_dense(lmat_weyl(1, e.inv())))
        assert np.array_equal(prod, to_dense(lmat_weyl(1, W_ID)))


def test_pattern_values():
    # (min ur valuation, min ll valuation) of the deepened parahoric
    assert p_eta_pattern(W_W) == (1, 1)
    assert p_eta_pattern(W_T) == (0, 1)
    assert p_eta_pattern(W_TINV) == (0, 1)
    assert p_eta_pattern(W_WP) == (0, 2)
    assert p_eta_pattern(diag(0, 1)) == (0, 2)
    assert p_eta_pattern(diag(1, 0)) == (1, 1)
    assert p_eta_pattern(diag(0, 2)) == (0, 3)
    assert p_eta_pattern(diag(2, 0)) == (2, 1)
    assert p_eta_pattern(W(0, 2, True)) == (0, 2)


def test_t_normalizes_parabolic():
    # length-zero elements give back P itself: a single coset
    for e in (W_T, W_TINV, diag(0, 0), diag(1, 1)):
        if e.flip or e.x == e.y:
            assert len(coset_reps(1, 3, e)) == 1


def test_coset_counts():
    assert len(coset_reps(1, 3, W_W)) == 3
    assert len(coset_reps(1, 5, W_W)) == 5
    assert len(coset_reps(1, 3, W_WP)) == 3
    assert len(coset_reps(1, 3, diag(0, 2))) == 9
    assert len(coset_reps(1, 3, diag(2, 0))) == 9
    assert len(coset_reps(2, 2, W_W)) == 16


def test_transversals_are_built_once_and_read_only():
    transversal.cache_clear()
    first = coset_reps(1, 3, diag(0, 2))
    assert transversal.cache_info().misses == 1 and transversal.cache_info().hits == 0
    # diag(2, 0) deepens the other block; W_W and diag(1, 0) share gap 1 upper right
    assert coset_reps(1, 3, diag(0, 2)) is first
    assert transversal.cache_info().hits == 1
    assert coset_reps(1, 3, W_W) is coset_reps(1, 3, diag(1, 0))
    assert transversal.cache_info().hits == 2 and transversal.cache_info().misses == 2
    assert coset_reps(1, 3, diag(2, 0)) is not first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0, 0, 0, _CAP] = 2


def test_pair_counts_and_bound():
    # u-cosets on eta's side only, times the cells of the support
    for k, q, eta in [(1, 3, W_W), (1, 5, W_W), (1, 3, diag(0, 2)), (2, 2, W_W), (1, 3, W_T)]:
        assert pair_count(k, q, eta, W_W) == (len(coset_reps(k, q, eta))
                                              * len(support_window(eta, W_W)))
    assert pair_count(1, 3, W_W, diag(0, 2)) == 3 * 10
    # the largest transversal against the widest support is still admitted
    widest = W(0, 3, True)
    assert pair_count(2, 2, widest, widest) == 256 * 18
    assert pair_count(1, 71, widest, widest) == 71**2 * 18
    with pytest.raises(TooLarge, match="10629610 u-cosets x cells"):
        pair_count(1, 1031, diag(0, 2), W_W)
    with pytest.raises(GapTooLarge):
        pair_count(1, 3, W_W, diag(0, 3))


def test_pair_bound_refuses_before_any_coset(monkeypatch):
    # the count comes before any coset is built and before the cache is read,
    # so a warm cache refuses alike, for the cached class and a shift of it
    sys_ = build_coefficient_system(1, 4, 5, rho="trivial", mode="plain")
    one = np.array([[1]], dtype=np.int64)
    class_hits.cache_clear()
    oracle_product(sys_, W_W, one, W_W, one)
    assert class_hits.cache_info().currsize == 1
    built = []
    monkeypatch.setattr(residue, "_unipotents", lambda *args: built.append(args))
    monkeypatch.setattr(residue, "_MAX_PAIRS", 23)  # W_W * W_W is 4 u-cosets x 6 cells at q = 4
    for eta in (W_W, W_W * diag(1, 1)):
        with pytest.raises(TooLarge, match="24 u-cosets x cells"):
            oracle_product(sys_, eta, one, W_W, one)
    assert class_hits.cache_info().hits == 0
    class_hits.cache_clear()
    with pytest.raises(TooLarge):
        oracle_product(sys_, W_W, one, W_W, one)
    assert built == [] and class_hits.cache_info().misses == 0


def test_oracle_window_refuses_before_any_product(monkeypatch):
    # the counts need only k, q and the bound, so not even the system is built
    class_hits.cache_clear()
    products, builds = [], []
    monkeypatch.setattr(verify, "oracle_product", lambda *args: products.append(args))
    monkeypatch.setattr(verify.HeckeEngine, "mul", lambda *args: products.append(args))
    verify.matrix_engine.cache_clear()
    monkeypatch.setattr(verify, "build_coefficient_system",
                        lambda *args, **kwargs: builds.append(args))
    with pytest.raises(TooLarge):
        verify.check_oracle_window(1, 71, 2, bound=2)
    assert products == [] and builds == []
    monkeypatch.setattr(residue, "_MAX_PAIRS", 15)
    with pytest.raises(TooLarge):
        verify.check_oracle_window(1, 4, 3, bound=1)
    assert products == [] and builds == []
    assert class_hits.cache_info().misses == 0


def test_oracle_window_budget_is_the_sum_over_the_window(monkeypatch):
    # every class pair of these windows is under _MAX_PAIRS, but (1, 71) at
    # bound 2 costs 2,585,094 u-cosets x cells and (1, 13) at bound 8
    # 361,862, over the budget of 300,000; both are refused before any product
    class_hits.cache_clear()
    products = []
    monkeypatch.setattr(verify, "oracle_product", lambda *args: products.append(args))
    monkeypatch.setattr(verify.HeckeEngine, "mul", lambda *args: products.append(args))
    assert verify._MAX_WINDOW_PAIRS == 300000
    with pytest.raises(TooLarge, match="2585094 u-cosets x cells"):
        verify.check_oracle_window(1, 71, 2, bound=2)
    with pytest.raises(TooLarge, match="361862 u-cosets x cells"):
        verify.check_oracle_window(1, 13, 2, bound=8)
    assert products == []

    # the budget admits a window of exactly its cost: (1, 4) at bound 2 is
    # 24,086, and reaching the first product means it was admitted
    class FirstProduct(Exception):
        pass

    def first_product(*args):
        raise FirstProduct

    monkeypatch.setattr(verify.HeckeEngine, "mul", first_product)
    monkeypatch.setattr(verify, "_MAX_WINDOW_PAIRS", 24086)
    with pytest.raises(FirstProduct):
        verify.check_oracle_window(1, 4, 3, bound=2)
    monkeypatch.setattr(verify, "_MAX_WINDOW_PAIRS", 24085)
    with pytest.raises(TooLarge, match="24086 u-cosets x cells"):
        verify.check_oracle_window(1, 4, 3, bound=2)


class FirstProduct(Exception):
    pass


def test_oracle_window_refuses_from_the_bound_alone(monkeypatch):
    # bound 160 holds at least 3,197 supported elements, so at least 6 x 3,197^2
    # cell sums: refused before the window is listed or a count summed
    class_hits.cache_clear()
    touched = []
    monkeypatch.setattr(verify, "oracle_window", lambda *args: touched.append(args))
    monkeypatch.setattr(verify, "elements_in_window", lambda *args: touched.append(args))
    monkeypatch.setattr(verify, "pair_count", lambda *args: touched.append(args))
    with pytest.raises(TooLarge, match="at bound 160 holds at least 3197 elements"):
        verify.check_oracle_window(1, 4, 3, bound=160)
    assert touched == []


@pytest.mark.parametrize("bound", range(0, 13))
def test_oracle_window_lists_the_supported_elements_in_order(bound):
    # only the diagonals |y - x| <= 3 are listed, not the whole window
    want = [e for e in elements_in_window(bound) if verify.oracle_supported(e)]
    assert verify.oracle_window(bound) == want


@pytest.mark.parametrize("bound", range(0, 13))
def test_oracle_window_floor_never_refuses_an_admissible_window(monkeypatch, bound):
    # with the cheapest products, _MIN_CELLS cells each and no class geometry,
    # a window of n supported elements costs _MIN_CELLS n^2; under a budget of
    # exactly that the first product must be reached
    class_hits.cache_clear()
    n = len([e for e in elements_in_window(bound) if verify.oracle_supported(e)])
    least = verify._MIN_CELLS * n * n

    def first_product(*args):
        raise FirstProduct

    monkeypatch.setattr(verify, "pair_count", lambda *args: 0)
    monkeypatch.setattr(verify, "support_window", lambda *args: [W_ID] * verify._MIN_CELLS)
    monkeypatch.setattr(verify, "_MAX_WINDOW_PAIRS", least)
    monkeypatch.setattr(verify.HeckeEngine, "mul", first_product)
    with pytest.raises(FirstProduct):
        verify.check_oracle_window(1, 4, 3, bound=bound)
    monkeypatch.setattr(verify, "_MAX_WINDOW_PAIRS", least - 1)
    with pytest.raises(TooLarge):
        verify.check_oracle_window(1, 4, 3, bound=bound)


# (k, q, bound): windows admitted, over the budget by their sum, and past
# the bound-alone floor
BUDGET_WINDOWS = [(1, 4, 2), (1, 4, 12), (1, 13, 1), (1, 13, 2), (2, 2, 2), (1, 71, 2),
                  (1, 4, 102)]


@pytest.mark.parametrize("k,q,bound", BUDGET_WINDOWS)
def test_oracle_window_budget_counts_once_per_element(monkeypatch, k, q, bound):
    # the budget costs one count per pair of central classes present, at
    # most 10 x 10, not one per product; up to bound 12 its verdict is
    # checked against the sum over every product of the window, each class
    # pair solved once, and reaching the engine means admitted
    class_hits.cache_clear()
    window = [e for e in elements_in_window(bound) if verify.oracle_supported(e)]
    calls = []

    def counted(*args):
        calls.append(args)
        return pair_count(*args)

    def admitted(*args, **kwargs):
        raise FirstProduct

    monkeypatch.setattr(verify, "pair_count", counted)
    monkeypatch.setattr(verify, "matrix_engine", admitted)
    with pytest.raises((FirstProduct, TooLarge)) as got:
        verify.check_oracle_window(k, q, 3, bound=bound)
    assert len(calls) <= 100
    if bound > 12:
        assert got.type is TooLarge
        return
    solved, sums = {}, 0
    for a in window:
        for b in window:
            key = (central_class(a)[0], central_class(b)[0])
            if key not in solved:
                solved[key] = pair_count(k, q, *key)
            sums += len(support_window(a, b))
    total = sum(solved.values()) + sums
    assert verify._MIN_CELLS * len(window) ** 2 <= total  # the floor is a floor
    if total <= verify._MAX_WINDOW_PAIRS:
        assert got.type is FirstProduct
    else:
        # refused by the floor from the bound alone, or by the total
        msg = str(got.value)
        assert got.type is TooLarge and ("%d u-cosets x cells" % total in msg
                                         or "cell sums" in msg)


def test_gap_cap():
    with pytest.raises(GapTooLarge):
        coset_reps(1, 3, diag(0, 3))


def test_transversal_distinct():
    F = GF(3)
    for eta in (W_W, W_WP, diag(0, 2)):
        reps = coset_reps(1, 3, eta)
        ur, ll = p_eta_pattern(eta)
        for i, (u, uinv) in enumerate(reps):
            for j, (v, _) in enumerate(reps):
                if i == j:
                    continue
                d = from_dense(lmat_mul(F, uinv, v))
                # the quotient must fall outside the deepened pattern
                vur = lp_val(d[0][1])
                vll = lp_val(d[1][0])
                outside = (vur is not None and vur < ur) or (
                    vll is not None and vll < ll
                )
                assert outside


def test_in_parabolic_basics():
    F = GF(5)
    assert in_parabolic(F, to_dense(lmat_weyl(1, W_ID)), 1) is True
    assert not in_parabolic(F, to_dense(lmat_weyl(1, W_T)), 1)
    assert not in_parabolic(F, to_dense(lmat_weyl(1, W_W)), 1)
    assert not in_parabolic(F, to_dense(lmat_weyl(1, diag(1, -1))), 1)
    assert not in_parabolic(F, to_dense(lmat_weyl(1, diag(-1, 1))), 1)
    assert in_parabolic(F, to_dense(lmat_weyl(2, W(0, 0, False))), 2)
    # integral with a deep lower left, but a residue block of rank < k
    assert not in_parabolic(F, to_dense(lmat_weyl(1, diag(1, 0))), 1)
    M = to_dense(lmat_weyl(2, W(0, 0, False)))
    M[0, 1, _CAP] = M[1, 0, _CAP] = 1
    assert not in_parabolic(GF(2), M, 2)


def test_support_window_contains_products():
    for eta in (W_W, W_T, W_WP):
        for delta in (W_W, W_TINV, diag(0, 1)):
            assert (eta * delta) in support_window(eta, delta)


def test_case_one_frozen():
    # [w]_f * [w]_f on the one-dimensional system: q copies of the identity
    # cell and the antidiagonal torus sum on the flip cell.
    sys = build_coefficient_system(1, 4, 5, rho="trivial", mode="plain")
    one = np.array([[1]], dtype=np.int64)
    out = oracle_product(sys, W_W, one, W_W, one)
    assert set(out) == {W_ID, W_W}
    assert np.array_equal(out[W_ID], [[4]])  # tau = q mod l
    assert np.array_equal(out[W_W], [[3]])  # sum over units of chi(u)chi(-1/u)


def test_case_one_vanishing_flip():
    # l | q - 1 kills the torus sum on the flip cell
    sys = build_coefficient_system(1, 3, 2, rho="trivial", mode="plain")
    one = np.array([[1]], dtype=np.int64)
    out = oracle_product(sys, W_W, one, W_W, one)
    assert set(out) == {W_ID}
    assert np.array_equal(out[W_ID], [[1]])


def test_length_additive_products():
    sys = build_coefficient_system(1, 4, 5, rho="trivial", mode="plain")
    one = np.array([[1]], dtype=np.int64)
    out = oracle_product(sys, W_T, one, W_T, one)
    assert set(out) == {diag(1, 1)} and np.array_equal(out[diag(1, 1)], [[1]])
    out = oracle_product(sys, W_W, one, W_T, one)
    assert set(out) == {diag(1, 0)}
    assert np.array_equal(out[diag(1, 0)], [[1]])
    out = oracle_product(sys, W_TINV, one, W_W, one)
    assert set(out) == {diag(-1, 0)}


def test_oracle_matches_finite_formula_on_depth_zero():
    # products of [w]-cell elements only see the finite quotient, so the
    # local sum must reproduce the finite-group formula coefficientwise
    for args in ((1, 4, 3, "trivial", "pp"), (2, 2, 3, "sign", "pp")):
        k, q, l, rho, mode = args
        sys = build_coefficient_system(k, q, l, rho=rho, mode=mode)
        f = sys.Iw[0] % l
        g = sys.Iw[-1] % l
        out = oracle_product(sys, W_W, f, W_W, g)
        fin = fin_mul(
            FinElement(sys, np.zeros_like(f), f),
            FinElement(sys, np.zeros_like(g), g),
        )
        ident = out.get(W_ID, np.zeros_like(f))
        flip = out.get(W_W, np.zeros_like(f))
        assert np.array_equal(ident, fin.f1)
        assert np.array_equal(flip, fin.fw)


def test_case_five_frozen():
    sys = build_coefficient_system(1, 4, 5, rho="trivial", mode="plain")
    one = np.array([[1]], dtype=np.int64)
    out = oracle_product(sys, W_W, one, W_W * W_TINV, one)
    assert set(out) == {W_TINV, diag(0, -1)}
    assert np.array_equal(out[W_TINV], [[4]])
    assert np.array_equal(out[diag(0, -1)], [[3]])


def _gap(e):
    ur, ll = p_eta_pattern(e)
    return max(ur, ll - 1)


def _golden_pairs(rng, gap_pairs, per_class):
    window = [e for e in elements_in_window(2) if _gap(e) <= 2]
    by_gap = [[e for e in window if _gap(e) == g] for g in range(3)]
    for ga, gb in gap_pairs:
        for _ in range(per_class):
            yield (
                by_gap[ga][rng.integers(len(by_gap[ga]))],
                by_gap[gb][rng.integers(len(by_gap[gb]))],
            )


def _random_coeff(rng, sys, e):
    basis = sys.basis(int(e.flip))
    weights = rng.integers(sys.l, size=len(basis))
    return sum(int(c) * b for c, b in zip(weights, basis)) % sys.l


# sha256 prefixes of the oracle's output over a seeded pair set: every
# congruence-gap class on both sides for (1,4,3,trivial,pp), and the gap
# classes up to (1,1), (2,0) and (0,2) for (2,2,3,sign,pp); one rng runs
# through both systems in this order
# The (2,2,3,sign,pp) entry is re-recorded in the basis of the cover induced
# from a complement C_2 in S_3, whose V differs from the split regular
# module's by a change of basis.
ORACLE_DIGESTS = {
    (1, 4, 3, "trivial", "pp"): "2498be9f44b0505a",
    (2, 2, 3, "sign", "pp"): "2cd61a16103b3aac",
}


def test_oracle_golden_digest():
    got = {}
    rng = np.random.default_rng(2014)
    every = [(a, b) for a in range(3) for b in range(3)]
    for args, gap_pairs, per_class in (
        ((1, 4, 3, "trivial", "pp"), every, 3),
        ((2, 2, 3, "sign", "pp"), every[:2] + every[3:5] + [(2, 0), (0, 2)], 2),
    ):
        k, q, l, rho, mode = args
        sys = build_coefficient_system(k, q, l, rho=rho, mode=mode)
        digest = hashlib.sha256()
        for eta, delta in _golden_pairs(rng, gap_pairs, per_class):
            f = _random_coeff(rng, sys, eta)
            g = _random_coeff(rng, sys, delta)
            out = oracle_product(sys, eta, f, delta, g)
            digest.update(repr((eta, delta)).encode())
            for eps in sorted(out):
                h = np.asarray(out[eps], dtype=np.int64)
                digest.update(repr(eps).encode() + h.tobytes())
        got[args] = digest.hexdigest()[:16]
    assert got == ORACLE_DIGESTS


# ---------------------------------------------------------------------------
# Weyl factors as permute-and-shift, the valuation prefilter, and the dense
# arithmetic against the dict reference

WINDOW3 = elements_in_window(3)


def _laurent_matrix(draw, q, k):
    """A sparse 2k x 2k Laurent matrix, of exponents near 0 or near the
    window edges."""
    edges = st.integers(-_CAP, 3 - _CAP) | st.integers(_CAP - 3, _CAP)
    exps = edges if draw(st.booleans()) else st.integers(-1, 2)
    terms = st.dictionaries(exps, st.integers(1, q - 1), min_size=1, max_size=2)
    entry = st.just({}) | terms
    return [[draw(entry) for _ in range(2 * k)] for _ in range(2 * k)]


@st.composite
def laurent_matrices(draw):
    """(F, k, A)"""
    k = draw(st.sampled_from((1, 2)))
    q = draw(st.sampled_from((2, 3, 4, 5)))
    return GF(q), k, _laurent_matrix(draw, q, k)


@st.composite
def laurent_stacks(draw):
    """(F, k, [A, ...]): one to three matrices over one field."""
    k = draw(st.sampled_from((1, 2)))
    q = draw(st.sampled_from((2, 3, 4, 5, 9)))
    return GF(q), k, [_laurent_matrix(draw, q, k) for _ in range(draw(st.integers(1, 3)))]


def outcome(fn):
    try:
        return fn()
    except WindowExhausted:
        return WindowExhausted


@settings(max_examples=200, deadline=None)
@given(laurent_matrices(), st.sampled_from(WINDOW3))
def test_weyl_shift_products_match_dense(mat, e):
    F, k, A = mat
    M = lmat_weyl(k, e)
    for got, want in (
        (outcome(lambda: weyl_mul_left(k, e, A)), outcome(lambda: dict_lmat_mul(F, M, A))),
        (outcome(lambda: weyl_mul_right(k, A, e)), outcome(lambda: dict_lmat_mul(F, A, M))),
        (outcome(lambda: from_dense(weyl_left(k, e, to_dense(A)))),
         outcome(lambda: dict_lmat_mul(F, M, A))),
        (outcome(lambda: from_dense(weyl_right(k, to_dense(A), e))),
         outcome(lambda: dict_lmat_mul(F, A, M))),
    ):
        assert got == want


@settings(max_examples=200, deadline=None)
@given(laurent_matrices(), st.sampled_from(WINDOW3))
def test_valuation_prefilter_matches_in_parabolic(mat, e):
    # B itself, and A = B @ lmat_weyl(k, e)^-1: the product tested for A is B,
    # whose small exponents often sit right at the floors of P
    F, k, B = mat
    floors = ((0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 0))
    for A in (B, outcome(lambda: dict_lmat_mul(F, B, lmat_weyl(k, e.inv())))):
        if A is WindowExhausted:
            continue
        dense = outcome(lambda: dict_lmat_mul(F, A, lmat_weyl(k, e)))
        admit = outcome(lambda: prefilter(to_dense(A)[None], k, [e])[0, 0])
        if dense is WindowExhausted:
            assert admit is WindowExhausted
            continue
        # the valuation half of in_parabolic: integral, with a deep lower left
        vals = [(block_min_val(dense, k, bi, bj), fl) for bi, bj, fl in floors]
        assert admit == all(v is None or v >= fl for v, fl in vals)


# candidate cells near the identity, and shifts that reach past the window
FAR = st.builds(W, st.integers(-18, 18), st.integers(-18, 18), st.booleans())


@settings(max_examples=200, deadline=None)
@given(laurent_stacks(), st.lists(st.sampled_from(WINDOW3) | FAR, min_size=1, max_size=4))
# an empty column half passes its floors whatever the shift
@example((GF(2), 1, [[[{}, {1: 1}], [{}, {1: 1}]]]), [W(-17, 0, False), W(-18, 0, True)])
def test_dense_arithmetic_matches_dict_reference(stack, cands):
    # product of every pair of the stack, Weyl shifts and the prefilter: equal
    # values, and WindowExhausted from the dense call exactly when one of the
    # dict calls it stands for raises it
    F, k, mats = stack
    dense = np.stack([to_dense(A) for A in mats])

    def run(want):  # a dict-reference call, or a nested list of them
        return [run(w) for w in want] if isinstance(want, list) else outcome(want)

    def exhausted(want):
        return any(map(exhausted, want)) if isinstance(want, list) else want is WindowExhausted

    def check(dense_call, reference):
        got, want = outcome(dense_call), run(reference)
        if exhausted(want):
            assert got is WindowExhausted
        else:
            assert got is not WindowExhausted
            assert np.array_equal(got, np.array(want))

    check(lambda: lmat_mul(F, dense, dense),
          [[(lambda A=A, B=B: to_dense(dict_lmat_mul(F, A, B))) for B in mats] for A in mats])
    check(lambda: lmat_mul(F, dense[0], dense[-1]),
          lambda: to_dense(dict_lmat_mul(F, mats[0], mats[-1])))
    check(lambda: prefilter(dense, k, cands),
          [[(lambda A=A, e=e: valuations_admit(half_valuations(A, k), e)) for e in cands]
           for A in mats])
    for e in cands:
        check(lambda: weyl_left(k, e, dense),
              [(lambda A=A: to_dense(weyl_mul_left(k, e, A))) for A in mats])
        check(lambda: weyl_right(k, dense, e),
              [(lambda A=A: to_dense(weyl_mul_right(k, A, e))) for A in mats])


@lru_cache(maxsize=None)
def _gl_codes(k, q):
    """Every invertible k x k matrix over F_q, as its entries row by row,
    to its position among all q^(k^2) such tuples in lexicographic order:
    its code, counted here rather than computed by gfp.fq_code."""
    F = GF(q)
    mats = [np.reshape(c, (k, k)) for c in iproduct(range(q), repeat=k * k)]
    return {tuple(m.ravel().tolist()): i for i, m in enumerate(mats) if fq_rank(F, m) == k}


@settings(max_examples=200, deadline=None)
@given(laurent_stacks())
def test_batched_membership_matches_in_parabolic(stack):
    # each matrix as drawn; its integral part; that with a zero lower-left
    # residue, where membership turns on the diagonal blocks alone; that
    # with unit diagonal residues, in P; and that again with a pi^-1 term or
    # a lower-left residue, each of which keeps a matrix out of P
    F, k, mats = stack
    codes = _gl_codes(k, F.q)
    drawn = np.stack([to_dense(A) for A in mats])
    integral = drawn.copy()
    integral[..., :_CAP] = 0
    deep = integral.copy()
    deep[:, k:, :k, _CAP] = 0
    inside = deep.copy()
    inside[:, :k, :k, _CAP] = inside[:, k:, k:, _CAP] = np.eye(k, dtype=np.int64)
    polar, shallow = inside.copy(), inside.copy()
    polar[:, 0, -1, _CAP - 1] = 1
    shallow[:, -1, 0, _CAP] = 1
    assert all(in_parabolic(F, M, k) for M in inside)
    for P in (drawn, integral, deep, inside, polar, shallow):
        got = parabolic_levi(F, P, k)
        assert len(got) == len(P)
        for M, levi in zip(P, got):
            if not in_parabolic(F, M, k):
                assert levi is None
                continue
            blocks = [M[b : b + k, b : b + k, _CAP] for b in (0, k)]
            assert levi == tuple(codes[tuple(B.ravel().tolist())] for B in blocks)


def _oracle_systems():
    # q = 5 too, where negation is not the identity on codes
    return {args: build_coefficient_system(*args[:3], rho=args[3], mode=args[4])
            for args in ((1, 4, 3, "trivial", "pp"), (2, 2, 3, "sign", "pp"),
                         (1, 5, 3, "trivial", "pp"))}


# gap <= 2 elements out to exponents that run off the window
LOCAL = [W(x, y, fl) for x in range(-9, 10) for y in range(-9, 10) for fl in (False, True)
         if _gap(W(x, y, fl)) <= 2]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_oracle_matches_dict_reference(data):
    # k = 2 keeps the two gaps to a sum of 2, so that the dict path stays fast
    systems = _oracle_systems()
    args = data.draw(st.sampled_from(sorted(systems)))
    sys_ = systems[args]
    eta = data.draw(st.sampled_from(LOCAL))
    most = 2 if sys_.k == 1 else 2 - _gap(eta)
    delta = data.draw(st.sampled_from([e for e in LOCAL if _gap(e) <= most]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f, g = _random_coeff(rng, sys_, eta), _random_coeff(rng, sys_, delta)
    want = outcome(lambda: dict_oracle_product(sys_, eta, f, delta, g))
    got = outcome(lambda: oracle_product(sys_, eta, f, delta, g))
    if want is WindowExhausted:
        # the oracle works at the central class representatives, whose
        # exponents stay small, so it may answer where the reference leaves
        # the window; an answer must then be the engine's
        if got is not WindowExhausted:
            _, eng = verify.matrix_engine(*args)
            assert verify.elem_eq(got, eng.mul(eng.symbol(eta, f), eng.symbol(delta, g)),
                                  sys_.l)
        return
    assert got is not WindowExhausted
    assert list(got) == list(want)
    assert all(np.array_equal(got[eps], want[eps]) for eps in want)


def _gap_pairs(rng, window, per_class):
    """per_class seeded pairs of window from every congruence-gap class."""
    by_gap = [[e for e in window if _gap(e) == g] for g in range(3)]
    for ga in range(3):
        for gb in range(3):
            for _ in range(per_class):
                yield (by_gap[ga][rng.integers(len(by_gap[ga]))],
                       by_gap[gb][rng.integers(len(by_gap[gb]))])


@pytest.mark.parametrize("args, pairs", [
    ((1, 4, 3, "trivial", "pp"), "window"),
    ((1, 5, 3, "trivial", "pp"), "window"),
    ((2, 2, 3, "sign", "pp"), "sample"),
], ids=["k1.q4.window", "k1.q5.window", "k2.q2.sample"])
def test_oracle_matches_two_sided_reference(args, pairs):
    # the two-sided enumeration at the actual eta and delta, not at their
    # class representatives, so the central shift is checked, not assumed:
    # every product of the bound-2 window, or on (2, 2) a seeded bound-1
    # sample with one pair of every gap class, (2, 2) included
    sys_ = build_coefficient_system(*args[:3], rho=args[3], mode=args[4])
    rng = np.random.default_rng(2026)
    if pairs == "window":
        window = verify.oracle_window(2)
        todo = [(a, b) for a in window for b in window]
    else:
        todo = list(_gap_pairs(rng, verify.oracle_window(1), 1))
    assert any(central_class(a)[1] != 0 for a, _ in todo)
    for eta, delta in todo:
        f, g = _random_coeff(rng, sys_, eta), _random_coeff(rng, sys_, delta)
        got = oracle_product(sys_, eta, f, delta, g)
        want = two_sided_oracle_product(sys_, eta, f, delta, g)
        assert list(got) == list(want), (eta, delta)
        assert all(np.array_equal(got[eps], want[eps]) for eps in want), (eta, delta)


def test_class_geometry_is_shared_across_systems():
    # (1, 4, 3, pp) and (1, 4, 5, plain) share (k, q): the second system's
    # product of the same two central classes, shifted, is a cache hit, and
    # its answer is the two-sided enumeration's at the actual eta and delta
    first = build_coefficient_system(1, 4, 3, rho="trivial", mode="pp")
    second = build_coefficient_system(1, 4, 5, rho="trivial", mode="plain")
    rng = np.random.default_rng(7)
    eta, delta = diag(0, 2), W_T
    class_hits.cache_clear()
    oracle_product(first, eta, _random_coeff(rng, first, eta), delta,
                   _random_coeff(rng, first, delta))
    assert class_hits.cache_info().misses == 1 and class_hits.cache_info().hits == 0
    eta2, delta2 = diag(1, 3), W_T * diag(-2, -2)
    assert central_class(eta2)[0] == eta and central_class(delta2)[0] == delta
    f, g = _random_coeff(rng, second, eta2), _random_coeff(rng, second, delta2)
    got = oracle_product(second, eta2, f, delta2, g)
    assert class_hits.cache_info().misses == 1 and class_hits.cache_info().hits == 1
    want = two_sided_oracle_product(second, eta2, f, delta2, g)
    assert list(got) == list(want)
    assert all(np.array_equal(got[eps], want[eps]) for eps in want)


def _one_v(solve):
    """residue._solve that reports one v for every (u, cell)."""
    def patched(*args):
        rows, v, p2 = solve(*args)
        return rows, 0 * v, p2
    return patched


def test_two_cells_raise_typed_error(monkeypatch):
    # a coset pair admitted by two cells is an oracle verdict, not an assert:
    # with every solved v reported as the first coset, one u meets it in the
    # two cells of W_W * W_W; the verdict is raised, and never cached
    sys_ = build_coefficient_system(1, 4, 5, rho="trivial", mode="plain")
    one = np.array([[1]], dtype=np.int64)
    class_hits.cache_clear()
    monkeypatch.setattr(residue, "_solve", _one_v(residue._solve))
    with pytest.raises(CellConflict):
        oracle_product(sys_, W_W, one, W_W, one)
    assert class_hits.cache_info().currsize == 0
    monkeypatch.undo()
    out = oracle_product(sys_, W_W, one, W_W, one)
    assert class_hits.cache_info().misses == 2 and class_hits.cache_info().currsize == 1
    assert set(out) == {W_ID, W_W}


def _run_optimized(script):
    src = os.path.dirname(os.path.dirname(heckekit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_two_cells_raise_under_optimize():
    script = """
from unittest import mock
import numpy as np
from heckekit import residue
from heckekit.errors import CellConflict
from heckekit.modrep import build_coefficient_system
from heckekit.weyl import W_W
sys_ = build_coefficient_system(1, 4, 5, rho="trivial", mode="plain")
one = np.array([[1]], dtype=np.int64)
solve = residue._solve
one_v = lambda *args: (lambda rows, v, p2: (rows, 0 * v, p2))(*solve(*args))
residue.class_hits.cache_clear()
with mock.patch.object(residue, "_solve", one_v):
    try:
        residue.oracle_product(sys_, W_W, one, W_W, one)
    except CellConflict:
        print("CellConflict", __debug__, residue.class_hits.cache_info().currsize)
"""
    assert _run_optimized(script) == ["CellConflict", "False", "0"]


def test_gap_in_both_blocks_raises_typed_error(monkeypatch):
    # p_eta_pattern never deepens both blocks; a pattern that did has no
    # transversal here, and that is a typed error, not an assert
    class_hits.cache_clear()
    monkeypatch.setattr(residue, "p_eta_pattern", lambda eta: (1, 2))
    residue.transversal.cache_clear()
    with pytest.raises(GapTooLarge, match="both blocks"):
        coset_reps(1, 3, W_W)
    residue.transversal.cache_clear()


def test_gap_in_both_blocks_raises_under_optimize():
    script = """
from unittest import mock
from heckekit import residue
from heckekit.errors import GapTooLarge
from heckekit.weyl import W_W
with mock.patch.object(residue, "p_eta_pattern", lambda eta: (1, 2)):
    try:
        residue.coset_reps(1, 3, W_W)
    except GapTooLarge:
        print("GapTooLarge", __debug__)
"""
    assert _run_optimized(script) == ["GapTooLarge", "False"]
