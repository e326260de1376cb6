import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heckekit
from heckekit import residue
from heckekit.errors import CellConflict, GapTooLarge, WindowExhausted
from heckekit.gfp import GF
from heckekit.modrep import build_coefficient_system
from heckekit.finhecke import FinElement, fin_mul
from heckekit.residue import (
    _CAP,
    block_min_val,
    coset_reps,
    half_valuations,
    in_parabolic,
    lmat_mul,
    lmat_weyl,
    lp_val,
    oracle_product,
    p_eta_pattern,
    support_window,
    valuations_admit,
    weyl_mul_left,
    weyl_mul_right,
)
from heckekit.weyl import W, W_ID, W_T, W_TINV, W_W, W_WP, diag, elements_in_window


def lmat_eq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def test_weyl_matrix_is_homomorphism():
    F = GF(3)
    window = elements_in_window(2)
    small = [e for e in window if abs(e.x) <= 1 and abs(e.y) <= 1]
    for a in small:
        for b in small:
            left = lmat_mul(F, lmat_weyl(1, a), lmat_weyl(1, b))
            assert lmat_eq(left, lmat_weyl(1, a * b))


def test_weyl_matrix_inverse():
    F = GF(4)
    for e in [W_T, W_TINV, W_WP, diag(2, -1), W(1, -2, True)]:
        prod = lmat_mul(F, lmat_weyl(1, e), lmat_weyl(1, e.inv()))
        assert lmat_eq(prod, lmat_weyl(1, W_ID))


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
                d = lmat_mul(F, uinv, v)
                # the quotient must fall outside the deepened pattern
                vur = lp_val(d[0][1])
                vll = lp_val(d[1][0])
                outside = (vur is not None and vur < ur) or (
                    vll is not None and vll < ll
                )
                assert outside


def test_in_parabolic_basics():
    F = GF(5)
    assert in_parabolic(F, lmat_weyl(1, W_ID), 1)
    assert not in_parabolic(F, lmat_weyl(1, W_T), 1)
    assert not in_parabolic(F, lmat_weyl(1, W_W), 1)
    assert not in_parabolic(F, lmat_weyl(1, diag(1, -1)), 1)
    assert not in_parabolic(F, lmat_weyl(1, diag(-1, 1)), 1)
    assert in_parabolic(F, lmat_weyl(2, W(0, 0, False)), 2)


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


def test_oracle_golden_digest():
    # Frozen oracle output over a seeded pair set: every congruence-gap
    # class on both sides for (1,4,3,trivial,pp), and the gap classes up to
    # (1,1), (2,0) and (0,2) for (2,2,3,sign,pp).
    digest = hashlib.sha256()
    rng = np.random.default_rng(2014)
    every = [(a, b) for a in range(3) for b in range(3)]
    for args, gap_pairs, per_class in (
        ((1, 4, 3, "trivial", "pp"), every, 3),
        ((2, 2, 3, "sign", "pp"), every[:2] + every[3:5] + [(2, 0), (0, 2)], 2),
    ):
        k, q, l, rho, mode = args
        sys = build_coefficient_system(k, q, l, rho=rho, mode=mode)
        for eta, delta in _golden_pairs(rng, gap_pairs, per_class):
            f = _random_coeff(rng, sys, eta)
            g = _random_coeff(rng, sys, delta)
            out = oracle_product(sys, eta, f, delta, g)
            digest.update(repr((eta, delta)).encode())
            for eps in sorted(out):
                h = np.asarray(out[eps], dtype=np.int64)
                digest.update(repr(eps).encode() + h.tobytes())
    assert digest.hexdigest() == (
        "928096449d6735e3ba5f513d26201be95f2084c9b44d35e816c8f3f182cad43b"
    )


# ---------------------------------------------------------------------------
# Weyl factors as permute-and-shift, and the valuation prefilter

WINDOW3 = elements_in_window(3)


@st.composite
def laurent_matrices(draw):
    """(F, k, A): a sparse 2k x 2k Laurent matrix, of exponents near 0 or near
    the window edges."""
    k = draw(st.sampled_from((1, 2)))
    q = draw(st.sampled_from((2, 3, 4, 5)))
    edges = st.integers(-_CAP, 3 - _CAP) | st.integers(_CAP - 3, _CAP)
    exps = edges if draw(st.booleans()) else st.integers(-1, 2)
    terms = st.dictionaries(exps, st.integers(1, q - 1), min_size=1, max_size=2)
    entry = st.just({}) | terms
    A = [[draw(entry) for _ in range(2 * k)] for _ in range(2 * k)]
    return GF(q), k, A


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
    assert outcome(lambda: weyl_mul_left(k, e, A)) == outcome(lambda: lmat_mul(F, M, A))
    assert outcome(lambda: weyl_mul_right(k, A, e)) == outcome(lambda: lmat_mul(F, A, M))


@settings(max_examples=200, deadline=None)
@given(laurent_matrices(), st.sampled_from(WINDOW3))
def test_valuation_prefilter_matches_in_parabolic(mat, e):
    # B itself, and A = B @ lmat_weyl(k, e)^-1: the product tested for A is B,
    # whose small exponents often sit right at the floors of P
    F, k, B = mat
    floors = ((0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 0))
    for A in (B, outcome(lambda: lmat_mul(F, B, lmat_weyl(k, e.inv())))):
        if A is WindowExhausted:
            continue
        dense = outcome(lambda: lmat_mul(F, A, lmat_weyl(k, e)))
        admit = outcome(lambda: valuations_admit(half_valuations(A, k), e))
        if dense is WindowExhausted:
            assert admit is WindowExhausted
            continue
        # the valuation half of in_parabolic: integral, with a deep lower left
        vals = [(block_min_val(dense, k, bi, bj), fl) for bi, bj, fl in floors]
        assert admit == all(v is None or v >= fl for v, fl in vals)


def test_two_cells_raise_typed_error(monkeypatch):
    # a coset pair admitted by two cells is an oracle verdict, not an assert
    monkeypatch.setattr(residue, "valuations_admit", lambda vals, e: True)
    monkeypatch.setattr(residue, "in_parabolic", lambda F, M, k: True)
    sys_ = build_coefficient_system(1, 4, 5, rho="trivial", mode="plain")
    one = np.array([[1]], dtype=np.int64)
    with pytest.raises(CellConflict):
        oracle_product(sys_, W_W, one, W_W, one)


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
with mock.patch.object(residue, "valuations_admit", lambda vals, e: True), \\
        mock.patch.object(residue, "in_parabolic", lambda F, M, k: True):
    try:
        residue.oracle_product(sys_, W_W, one, W_W, one)
    except CellConflict:
        print("CellConflict", __debug__)
"""
    src = os.path.dirname(os.path.dirname(heckekit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["CellConflict", "False"]
