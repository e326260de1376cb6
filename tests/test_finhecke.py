import copy
import hashlib
import math
import os
import subprocess
import sys as _sys_mod
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import coset_count, int_fin_mul, parabolic, tstar_group_algebra_power
from test_acceptance import FIN_CONFIGS

import heckekit
from heckekit import finhecke, modrep
from heckekit.errors import BruhatMismatch, CellLeak, NotBiEquivariant, TooLarge
from heckekit.finhecke import (
    AmbientGL,
    CharPoly,
    FinElement,
    compute_fpoly,
    fin_convolve,
    fin_convolve_cells,
    fin_mul,
    fin_unit,
    fin_w,
    parameter_image,
    phi_value,
    random_fin_element,
)
from heckekit.gfp import fq_inv_matrix, fq_matmul
from heckekit.modrep import build_coefficient_system, intertwiners, pair_index


def _sys(k=1, q=4, l=5, rho="trivial", mode="plain"):
    return build_coefficient_system(k, q, l, rho=rho, mode=mode)


def test_geometry_counts():
    assert coset_count(1, 2) == (2, 3)
    assert coset_count(1, 3) == (3, 4)
    assert coset_count(1, 4) == (4, 5)
    assert coset_count(1, 5) == (5, 6)
    assert coset_count(2, 2) == (16, 35)


def test_parabolic_sizes():
    assert len(parabolic(1, 3)) == 2 * 2 * 3
    assert len(parabolic(2, 2)) == 6 * 6 * 16


def _gauss_binomial(k, d, q):
    num = den = 1
    for i in range(d):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# every ambient group the tests build
AMBIENT_KQ = [(1, q) for q in (2, 3, 4, 5, 7, 8, 9)] + [(2, 2), (2, 3)]


@pytest.mark.parametrize("k,q", AMBIENT_KQ)
def test_cell_sizes(k, q):
    # the cell of w_d holds [k choose d]_q^2 q^(d^2) cosets
    cells = {}
    for _, _, d in AmbientGL(k, q).bruhat.values():
        cells[d] = cells.get(d, 0) + 1
    assert cells == {d: _gauss_binomial(k, d, q) ** 2 * q ** (d * d) for d in range(k + 1)}


@pytest.mark.parametrize("k,q", [(1, 4), (2, 2), (2, 3)])
def test_representatives_are_p_times_w_d(k, q):
    amb = AmbientGL(k, q)
    eye = np.eye(2 * k, dtype=np.int64)
    for lab, rep in amb.labels.items():
        pinv, p, d = amb.bruhat[lab]
        assert amb.in_parabolic(p)
        assert np.array_equal(fq_matmul(amb.F, pinv, p), eye)
        assert np.array_equal(rep, fq_matmul(amb.F, p, amb.swap_mat(d)))
        assert amb.col_label(rep) == lab


@pytest.mark.parametrize("k,q", AMBIENT_KQ)
def test_representatives_split_with_p2_one(k, q):
    # the plan reads each coset's cell and p off bruhat, without split
    amb = AmbientGL(k, q)
    one = amb.levi_indices(np.eye(2 * k, dtype=np.int64))
    for lab, rep in amb.labels.items():
        _, p, d = amb.bruhat[lab]
        want = None if 0 < d < k else (d, amb.levi_indices(p), one)
        assert amb.split(rep) == want


def test_ambient_2_3_builds_quickly():
    # enumerating P there (186,624 matrices) and searching it label by label
    # could take twenty minutes
    AmbientGL.__new__.cache_clear()
    start = time.monotonic()
    amb = AmbientGL(2, 3)
    assert time.monotonic() - start < 5
    assert len(amb.labels) == 130


def test_bruhat_cells_partition():
    amb = AmbientGL(2, 2)
    cells = {}
    for lab in amb.labels:
        d = amb.bruhat[lab][2]
        cells.setdefault(d, 0)
        cells[d] += 1
    # 35 = 1 + 18 + 16 over the three cells
    assert cells == {0: 1, 1: 18, 2: 16}


def test_phi_biequivariance():
    sys = _sys(1, 4, 5)
    amb = AmbientGL(1, 4)
    rng = np.random.default_rng(3)
    e = random_fin_element(sys, rng)
    # phi(p g p') = sigma(p) phi(g) sigma(p')
    g = amb.swap_mat(amb.k)
    for p in parabolic(1, 4)[:9]:
        pg = fq_matmul(amb.F, p, g)
        a1, a2 = amb.levi_indices(p)
        lhs = phi_value(amb, sys, e, pg)
        rhs = (sys.sigma(a1, a2) @ phi_value(amb, sys, e, g)) % sys.l
        assert np.array_equal(lhs, rhs)


def test_unit_is_identity_both_routes():
    for sysargs in [(1, 4, 5, "trivial", "plain"), (1, 4, 3, "trivial", "pp")]:
        sys = _sys(*sysargs)
        rng = np.random.default_rng(11)
        e = random_fin_element(sys, rng)
        u = fin_unit(sys)
        assert fin_mul(u, e) == e
        assert fin_mul(e, u) == e
        assert fin_convolve(u, e) == e
        assert fin_convolve(e, u) == e


def test_w_squared_frozen_char():
    # trivial character, q=4, l=5: tau=4, T*=3
    sys = _sys(1, 4, 5)
    got = fin_mul(fin_w(sys), fin_w(sys))
    assert got.f1[0, 0] == 4 and got.fw[0, 0] == 3
    conv = fin_convolve(fin_w(sys), fin_w(sys))
    assert conv == got


def test_formula_matches_convolution_char_systems():
    rng = np.random.default_rng(0)
    for q, l in [(3, 2), (4, 3), (4, 5), (5, 2), (5, 3)]:
        sys = _sys(1, q, l)
        for _ in range(25):
            a = random_fin_element(sys, rng)
            b = random_fin_element(sys, rng)
            assert fin_mul(a, b) == fin_convolve(a, b), (q, l)


def test_formula_matches_convolution_pp():
    rng = np.random.default_rng(1)
    sys = _sys(1, 4, 3, mode="pp")
    for _ in range(10):
        a = random_fin_element(sys, rng)
        b = random_fin_element(sys, rng)
        assert fin_mul(a, b) == fin_convolve(a, b)


def test_formula_matches_convolution_k2():
    rng = np.random.default_rng(2)
    sys = build_coefficient_system(2, 2, 7, rho="sign", mode="pp")
    for _ in range(5):
        a = random_fin_element(sys, rng)
        b = random_fin_element(sys, rng)
        assert fin_mul(a, b) == fin_convolve(a, b)


# sha256 prefixes of the oracle's output, every cell including the
# partial-swap ones, over seeded pairs on each acceptance configuration in
# both modes; one rng runs through the systems in this order
# The (2,2,3,sign,pp) entry is re-recorded in the basis of the cover induced
# from a complement C_2 in S_3, whose V differs from the split regular
# module's by a change of basis.
FIN_CONVOLVE_DIGESTS = {
    (1, 2, 3, "trivial", "plain"): "4d94612d973ebf15",
    (1, 2, 3, "trivial", "pp"): "0e8b51b753dd94a5",
    (1, 3, 2, "trivial", "plain"): "bac4f601b12e0735",
    (1, 3, 2, "trivial", "pp"): "6a0fbb83dd5f584c",
    (1, 4, 3, "trivial", "plain"): "e9cdf02d9ec6dbd9",
    (1, 4, 3, "trivial", "pp"): "6a1e3d95f866ad8f",
    (1, 4, 5, "trivial", "plain"): "31b2fe3b5ed2a7fd",
    (1, 4, 5, "trivial", "pp"): "b0553287797c558c",
    (1, 5, 2, "trivial", "plain"): "92915ca08223f15b",
    (1, 5, 2, "trivial", "pp"): "ea587afe17b8bf47",
    (1, 5, 3, "trivial", "plain"): "c4bf0010854b63ce",
    (1, 5, 3, "trivial", "pp"): "fd8c4f9ca082f5ac",
    (2, 2, 3, "sign", "plain"): "ba4fa904f3de9752",
    (2, 2, 3, "sign", "pp"): "ff567b2ddc47bb0a",
    (2, 2, 5, "sign", "plain"): "f2b632513dbe3439",
    (2, 2, 5, "sign", "pp"): "f2e86438d79a50e1",
    (2, 2, 7, "sign", "plain"): "8d497865ed83a1e0",
    (2, 2, 7, "sign", "pp"): "e17192109cb8a229",
}


def test_fin_convolve_golden_digest():
    got = {}
    rng = np.random.default_rng(2026)
    for k, q, l, rho in FIN_CONFIGS:
        for mode in ("plain", "pp"):
            sys = _sys(k, q, l, rho, mode)
            digest = hashlib.sha256()
            pairs = [(fin_w(sys, 1), fin_w(sys, 1))]
            pairs += [(random_fin_element(sys, rng), random_fin_element(sys, rng))
                      for _ in range(4)]
            for a, b in pairs:
                cells = fin_convolve_cells(a, b)
                digest.update(sys.name.encode())
                for d in sorted(cells):
                    h = np.asarray(cells[d], dtype=np.int64)
                    digest.update(repr(d).encode() + h.tobytes())
            got[k, q, l, rho, mode] = digest.hexdigest()[:16]
    assert got == FIN_CONVOLVE_DIGESTS


@pytest.mark.parametrize("q,l", [(23, 7), (31, 17), (23, 2), (31, 3)])
def test_fin_convolve_matches_fin_mul_on_induced_covers(q, l):
    # the k = 1 pp systems that splitting the regular module could not build
    # (l | q - 1) or built slowly (l does not divide q - 1)
    sys = _sys(1, q, l, "trivial", "pp")
    rng = np.random.default_rng(100 * q + l)
    for _ in range(8):
        a, b = random_fin_element(sys, rng), random_fin_element(sys, rng)
        assert fin_mul(a, b) == fin_convolve(a, b)


def _convolve_by_cosets(a, b):
    """Reference: phi_a(y) phi_b(y^-1 w_d) summed coset by coset."""
    sys = a.sys
    amb = AmbientGL(sys.k, sys.q)
    out = {}
    for d in range(amb.k + 1):
        x = amb.swap_mat(d)
        acc = np.zeros((sys.dim, sys.dim), dtype=np.int64)
        for y in amb.labels.values():
            va = phi_value(amb, sys, a, y)
            if va is None or not va.any():
                continue
            vb = phi_value(amb, sys, b, fq_matmul(amb.F, fq_inv_matrix(amb.F, y), x))
            if vb is None:
                continue
            acc = (acc + va @ vb) % sys.l
        out[d] = acc
    return out


PLAN_SYSTEMS = [
    (1, 3, 2, "trivial", "plain"),
    (1, 4, 3, "trivial", "pp"),
    (1, 5, 2, "trivial", "pp"),
    (2, 2, 3, "sign", "pp"),
    (2, 2, 7, "sign", "plain"),
]


@st.composite
def fin_pairs(draw):
    sys = _sys(*draw(st.sampled_from(PLAN_SYSTEMS)))

    def element():
        def coeffs(basis):
            return draw(st.lists(st.integers(0, sys.l - 1), min_size=len(basis),
                                 max_size=len(basis)))

        f1 = np.tensordot(coeffs(sys.I1), sys.I1, 1)
        fw = np.tensordot(coeffs(sys.Iw), sys.Iw, 1)
        return FinElement(sys, f1, fw)

    return element(), element()


@settings(max_examples=40, deadline=None)
@given(fin_pairs())
def test_planned_convolution_matches_coset_sum(pair):
    a, b = pair
    got = fin_convolve_cells(a, b)
    want = _convolve_by_cosets(a, b)
    assert sorted(got) == sorted(want)
    for d in want:
        assert np.array_equal(got[d], want[d]), d


def _random_fin_element_loop(sys, rng):
    d = sys.dim
    f1 = np.zeros((d, d), dtype=np.int64)
    for c, m in zip(rng.integers(0, sys.l, size=len(sys.I1)), sys.I1):
        f1 = (f1 + int(c) * m) % sys.l
    fw = np.zeros((d, d), dtype=np.int64)
    for c, m in zip(rng.integers(0, sys.l, size=len(sys.Iw)), sys.Iw):
        fw = (fw + int(c) * m) % sys.l
    return FinElement(sys, f1, fw)


def test_random_fin_element_matches_loop():
    for args in PLAN_SYSTEMS[1:]:
        sys = _sys(*args)
        fast, slow = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(50):
            assert random_fin_element(sys, fast) == _random_fin_element_loop(sys, slow)
        assert fast.integers(1 << 30) == slow.integers(1 << 30)


def _int64_convolve_cells(a, b):
    """Reference: the plan's cells in int64, one einsum per cell sum;
    phi_a(y) is sigma(p) f_a, as y = p w_d has p2 = 1."""
    sys = a.sys
    A, l, MM = sys.V.A, sys.l, sys.MM
    fa, fb = np.stack((a.f1, a.fw)), np.stack((b.f1, b.fw))
    out = {}
    for d, rows in enumerate(AmbientGL(sys.k, sys.q).plan):
        ca, a1, a2, cb, b1, b2, n1, n2 = rows.T
        va = (A[pair_index(MM, a1, a2)] @ fa[ca]) % l
        vb = (A[pair_index(MM, b1, b2)] @ fb[cb] @ A[pair_index(MM, n1, n2)]) % l
        out[d] = np.einsum("rij,rjk->ik", va, vb) % l
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_float_cells_match_int64_reference(data):
    args = data.draw(st.sampled_from(
        [(*cfg, mode) for cfg in FIN_CONFIGS for mode in ("plain", "pp")]
        + [(1, 5, 2, "trivial", "pp")]))
    sys = _sys(*args)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a, b = random_fin_element(sys, rng), random_fin_element(sys, rng)
    got, want = fin_convolve_cells(a, b), _int64_convolve_cells(a, b)
    assert sorted(got) == sorted(want)
    for d in want:
        assert got[d].dtype == np.int64
        assert np.array_equal(got[d], want[d]), (args, d)


def test_float_product_exact_below_2_53():
    # (l-1)^2 = 2^50: inner dimension 7 reaches 7 * 2^50 < 2^53, 8 reaches 2^53
    l = 2**25 + 1
    r = l - 1
    rng = np.random.default_rng(4)
    for n in (1, 7):
        X = np.full((3, n), r, dtype=np.int64)
        X[1:] = rng.integers(0, l, size=(2, n))
        Y = np.full((n, 2), r, dtype=np.int64)
        got, bound = finhecke._mulmod(X.astype(np.float64), r, Y.astype(np.float64), r, l)
        want = np.array(X.astype(object) @ Y.astype(object), dtype=np.int64)
        assert bound == n * r * r
        assert np.array_equal(got.astype(np.int64), want)
        assert np.array_equal(finhecke._reduce(got, l).astype(np.int64), want % l)
    assert 7 * r**2 == 2**53 - 2**50
    with pytest.raises(TooLarge):
        finhecke._mulmod(np.ones((1, 8)), r, np.ones((8, 1)), r, l)
    # entries below 2^40, residues plus multiples of l: 7 * 2^40 * (l-1)
    # passes 2^53, so that operand alone is reduced first, on either side
    X = rng.integers(0, l, size=(3, 7)) + l * rng.integers(0, 2**14, size=(3, 7))
    Y = rng.integers(0, l, size=(7, 2))
    xmax = int(X.max())
    assert 7 * xmax * r >= 2**53 > 7 * r * r
    want = np.array(X.astype(object) @ Y.astype(object) % l, dtype=np.int64)
    got, bound = finhecke._mulmod(X.astype(np.float64), xmax, Y.astype(np.float64), r, l)
    assert bound == 7 * r * r
    assert np.array_equal(finhecke._reduce(got, l).astype(np.int64), want)
    got, bound = finhecke._mulmod(Y.T.astype(np.float64), r, X.T.astype(np.float64), xmax, l)
    assert bound == 7 * r * r
    assert np.array_equal(finhecke._reduce(got, l).astype(np.int64), want.T)


def test_cells_reduce_on_demand(monkeypatch):
    # dim 1 and 5 rows per cell: every product is exact on residues, but the
    # unreduced chain's bound rows * dim^4 * (l-1)^5 is not, so the cell
    # sums reduce an operand midway
    sys = _sys(1, 4, 1201, "trivial", "plain")
    rows = [len(p) for p in AmbientGL(1, 4).plan]
    assert sys.dim == 1 and rows == [5, 5]
    assert 5 * (sys.l - 1) ** 5 >= 2**53
    reduced = []
    reduce = finhecke._reduce
    monkeypatch.setattr(finhecke, "_reduce",
                        lambda X, l: reduced.append(X.shape) or reduce(X, l))
    rng = np.random.default_rng(1201)
    for _ in range(5):
        a, b = random_fin_element(sys, rng), random_fin_element(sys, rng)
        reduced.clear()
        got = fin_convolve_cells(a, b)
        assert len(reduced) == 3  # one operand per cell, then the cells
        for want in (_convolve_by_cosets(a, b), _int64_convolve_cells(a, b)):
            assert sorted(got) == sorted(want)
            for d in want:
                assert np.array_equal(got[d], want[d]), d
        assert fin_mul(a, b) == fin_convolve(a, b)


def test_cells_refuse_an_inexact_plan_before_any_product(monkeypatch):
    # dim 18 and 17 plan rows: with this l every triple product (inner
    # dimension 18) would be exact, but the cell sum (18 * 17) would not
    sys = _sys(2, 2, 3, "sign", "pp")
    big = copy.copy(sys)
    big.l = 2**23 + 9
    assert 18 * (big.l - 1) ** 2 < 2**53 <= 18 * 17 * (big.l - 1) ** 2
    calls = []
    monkeypatch.setattr(finhecke, "_mulmod", lambda *args: calls.append(args))
    with pytest.raises(TooLarge):
        fin_convolve_cells(fin_unit(big), fin_unit(big))
    assert calls == []


def _levi_pairs_by_conjugation(amb, d):
    """Reference: (levi(p), levi(w_d^-1 p w_d)) over every p in P that w_d
    conjugates back into P, each conjugate formed by two matrix products."""
    xd = amb.swap_mat(d)
    xdinv = fq_inv_matrix(amb.F, xd)
    pairs = set()
    for p in parabolic(amb.k, amb.q):
        c = fq_matmul(amb.F, fq_matmul(amb.F, xdinv, p), xd)
        if amb.in_parabolic(c):
            pairs.add((*amb.levi_indices(p), *amb.levi_indices(c)))
    return pairs


def _all_pairs_middle_hom_dims(sys):
    """Reference: intertwiners on every distinct (sigma(c), sigma(p)) pair."""
    amb = AmbientGL(sys.k, sys.q)
    dims = []
    for d in range(1, amb.k):
        pairs = {}
        for a1, a2, b1, b2 in sorted(_levi_pairs_by_conjugation(amb, d)):
            sp, sc = sys.sigma(a1, a2), sys.sigma(b1, b2)
            pairs.setdefault((sp.tobytes(), sc.tobytes()), (sc, sp))
        sigma_c, sigma_p = (np.stack(m) for m in zip(*pairs.values()))
        dims.append(len(intertwiners(sigma_c, sigma_p, sys.l)))
    return tuple(dims)


def test_middle_generators_generate_the_levi_pairs():
    amb = AmbientGL(2, 2)
    MUL = amb.M.MUL
    assert len(amb.middle) == amb.k - 1
    for d, gens in enumerate(amb.middle, start=1):
        want = _levi_pairs_by_conjugation(amb, d)
        assert {tuple(g) for g in gens.tolist()} <= want
        group = {(0, 0, 0, 0)}
        while True:
            grown = group | {tuple(MUL[x, g]) for x in group for g in map(tuple, gens)}
            if grown == group:
                break
            group = grown
        assert group == want, d
    assert [len(g) for g in amb.middle] == [4]
    assert AmbientGL(1, 5).middle == []


def test_middle_generators_frozen():
    # recorded on the closure that re-closed the whole group after each
    # generator; closing only each round's new elements finds the same rows
    assert [m.tolist() for m in AmbientGL(2, 2).middle] == [
        [[0, 0, 0, 4], [0, 0, 3, 0], [0, 4, 0, 0], [3, 0, 0, 0]]]
    assert [m.tolist() for m in AmbientGL(2, 3).middle] == [
        [[0, 0, 0, 18], [0, 0, 14, 0], [0, 18, 0, 0], [0, 19, 0, 13],
         [0, 30, 30, 0], [13, 0, 13, 0], [14, 0, 0, 0], [32, 0, 0, 30]]]


MIDDLE_DIMS = {
    (3, "plain"): (0,),
    (3, "pp"): (4,),
    (5, "plain"): (0,),
    (5, "pp"): (0,),
    (7, "plain"): (0,),
    (7, "pp"): (0,),
}


@pytest.mark.parametrize("l,mode", sorted(MIDDLE_DIMS))
def test_middle_hom_dims_frozen(l, mode):
    # solved afresh, not read from the per-system cache
    finhecke.middle_hom_dims.cache_clear()
    sys = _sys(2, 2, l, "sign", mode)
    assert finhecke.middle_hom_dims(sys) == MIDDLE_DIMS[l, mode]


def test_ambient_is_one_instance_per_field():
    assert AmbientGL(1, 4) is AmbientGL(1, 4)


def test_rebuilt_system_solves_its_middle_dims_again(monkeypatch):
    # the dims are cached per system object, not per name
    sys = _sys(2, 2, 3, "sign", "plain")
    dims = finhecke.middle_hom_dims(sys)
    misses = finhecke.middle_hom_dims.cache_info().misses
    assert finhecke.middle_hom_dims(sys) == dims
    assert finhecke.middle_hom_dims.cache_info().misses == misses
    monkeypatch.setattr(modrep, "_SYSTEM_CACHE", {})
    rebuilt = _sys(2, 2, 3, "sign", "plain")
    assert rebuilt is not sys
    assert finhecke.middle_hom_dims(rebuilt) == dims
    assert finhecke.middle_hom_dims.cache_info().misses == misses + 1


@pytest.mark.parametrize("l,mode", sorted(MIDDLE_DIMS))
def test_middle_hom_dims_match_all_pairs(l, mode):
    sys = _sys(2, 2, l, "sign", mode)
    assert finhecke.middle_hom_dims(sys) == _all_pairs_middle_hom_dims(sys)


def _leaking_pair():
    sys = _sys(2, 2, 3, "sign", "pp")
    rng = np.random.default_rng(0)
    a, b = random_fin_element(sys, rng), random_fin_element(sys, rng)
    assert fin_convolve_cells(a, b)[1].any()
    return a, b


def test_partial_cell_leak_raises(monkeypatch):
    a, b = _leaking_pair()
    fin_convolve(a, b)  # the partial cell carries intertwiners here
    monkeypatch.setattr(finhecke, "middle_hom_dims", lambda sys: (0,))
    with pytest.raises(CellLeak):
        fin_convolve(a, b)


def test_partial_cell_leak_raises_under_optimize():
    script = """
from unittest import mock
import numpy as np
from heckekit import finhecke
from heckekit.errors import CellLeak
from heckekit.modrep import build_coefficient_system
sys_ = build_coefficient_system(2, 2, 3, rho="sign", mode="pp")
rng = np.random.default_rng(0)
a = finhecke.random_fin_element(sys_, rng)
b = finhecke.random_fin_element(sys_, rng)
with mock.patch.object(finhecke, "middle_hom_dims", lambda sys: (0,)):
    try:
        finhecke.fin_convolve(a, b)
    except CellLeak:
        print("CellLeak", __debug__)
"""
    src = os.path.dirname(os.path.dirname(heckekit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [_sys_mod.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["CellLeak", "False"]


def test_bruhat_failures_raise_typed_error(monkeypatch):
    sys = _sys(1, 4, 5)
    amb = AmbientGL(1, 4)
    monkeypatch.setattr(AmbientGL, "in_parabolic", lambda self, g: False)
    with pytest.raises(BruhatMismatch):
        phi_value(amb, sys, fin_w(sys), amb.swap_mat(amb.k))
    AmbientGL.__new__.cache_clear()
    with pytest.raises(BruhatMismatch):
        AmbientGL(1, 3)


def test_singular_g_raises_typed_error():
    sys = _sys(1, 4, 5)
    with pytest.raises(BruhatMismatch):
        phi_value(AmbientGL(1, 4), sys, fin_unit(sys), np.zeros((2, 2), dtype=np.int64))


def test_singular_g_raises_typed_error_under_optimize():
    script = """
import numpy as np
from heckekit.errors import BruhatMismatch
from heckekit.finhecke import AmbientGL, fin_unit, phi_value
from heckekit.modrep import build_coefficient_system
sys_ = build_coefficient_system(1, 4, 5, rho="trivial", mode="plain")
try:
    phi_value(AmbientGL(1, 4), sys_, fin_unit(sys_), np.zeros((2, 2), dtype=np.int64))
except BruhatMismatch:
    print("BruhatMismatch", __debug__)
"""
    src = os.path.dirname(os.path.dirname(heckekit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [_sys_mod.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["BruhatMismatch", "False"]


# pp systems on which I is not a swap-intertwiner, so [w] needs a T* twist
NOT_SWAP_EQUIVARIANT_I = [(1, 3, 2), (1, 4, 3), (1, 5, 2), (2, 2, 3)]


@pytest.mark.parametrize("k,q,l", NOT_SWAP_EQUIVARIANT_I)
def test_fin_w_refuses_a_non_bi_equivariant_element(k, q, l):
    rho = "sign" if k == 2 else "trivial"
    sys = _sys(k, q, l, rho, "pp")
    with pytest.raises(NotBiEquivariant):
        fin_w(sys)
    assert sys.in_parity_span(fin_w(sys, 1).fw, 1)
    assert fin_w(_sys(k, q, l, rho, "plain")).fw.any()


def _equals_int_formula(a, b):
    got, (f1, fw) = fin_mul(a, b), int_fin_mul(a, b)
    assert got.f1.dtype == got.fw.dtype == np.int64
    return np.array_equal(got.f1, f1.astype(np.int64)) and np.array_equal(got.fw, fw.astype(np.int64))


@pytest.mark.parametrize("mode", ["plain", "pp"])
@pytest.mark.parametrize("cfg", FIN_CONFIGS, ids=["k%d.q%d.l%d" % c[:3] for c in FIN_CONFIGS])
def test_fin_mul_matches_the_int_formula(cfg, mode):
    sys = _sys(*cfg, mode)
    rng = np.random.default_rng(sys.dim * sys.l)
    pairs = [(fin_w(sys, 1), fin_w(sys, 1)), (fin_unit(sys), fin_w(sys, 1))]
    pairs += [(random_fin_element(sys, rng), random_fin_element(sys, rng)) for _ in range(10)]
    for a, b in pairs:
        assert _equals_int_formula(a, b)


@pytest.mark.parametrize("mode", ["plain", "pp"])
@pytest.mark.parametrize("cfg", FIN_CONFIGS, ids=["k%d.q%d.l%d" % c[:3] for c in FIN_CONFIGS])
def test_fin_mul_exact_up_to_the_float64_bound(cfg, mode):
    # the largest l with dim (l-1)^2 < 2^53, entries, tau and T* near l - 1;
    # one more refuses.  The formulas need no prime l, so any l will do
    sys = _sys(*cfg, mode)
    d = sys.dim
    big = copy.copy(sys)
    big.l = l = math.isqrt((2**53 - 1) // d) + 1
    assert d * (l - 1) ** 2 < 2**53 <= d * l**2
    rng = np.random.default_rng(d)
    big.tau, big.tstar = l - 1, l - 1 - rng.integers(0, 3, size=(d, d))

    def element():
        return FinElement(big, l - 1 - rng.integers(0, 3, size=(d, d)),
                          l - 1 - rng.integers(0, 3, size=(d, d)))

    for _ in range(5):
        assert _equals_int_formula(element(), element())
    a, b = element(), element()
    big.l = l + 1
    with pytest.raises(TooLarge):
        fin_mul(a, b)


def test_fin_mul_refuses_where_int64_overflowed():
    # tau (fw gw) = 4 (l-1)^2 passes 2^63: the int64 products gave (1, 1)
    sys = _sys(1, 4, 2147483647)
    l = sys.l
    assert sys.dim * (l - 1) ** 2 >= 2**53
    a = FinElement(sys, [[l - 1]], [[l - 1]])
    assert [int(x[0, 0]) for x in int_fin_mul(a, a)] == [5, 5]
    with pytest.raises(TooLarge):
        fin_mul(a, a)


def _flat_rows(amb):
    """Each plan row's (p_a, cell_a, mid, cell_b, p2_b), read off amb.plan:
    Levi index pairs as M x M indices."""
    ca, a1, a2, cb, b1, b2, n1, n2 = np.concatenate(amb.plan).T
    N = amb.M.n
    return a1 * N + a2, ca, b1 * N + b2, cb, n1 * N + n2


@pytest.mark.parametrize("kq,distinct,rows", [((1, 5), 22, 36), ((2, 2), 46, 99)])
def test_plan_forms_each_distinct_product_once(kq, distinct, rows):
    amb = AmbientGL(*kq)
    p_a, cell_a, mid, cell_b, p2_b = _flat_rows(amb)
    left = np.stack((amb.u_pa, amb.u_cella), axis=1)
    middle = np.stack((amb.u_left, amb.u_mid), axis=1)
    right = np.stack((amb.u_cellb, amb.u_p2b), axis=1)
    assert 3 * len(p_a) == rows
    assert len(left) + len(middle) + len(right) == distinct
    for u in (left, middle, right):
        assert len(np.unique(u, axis=0)) == len(u)
    assert np.array_equal(left[middle[amb.inv_left, 0]], np.stack((p_a, cell_a), axis=1))
    assert np.array_equal(middle[amb.inv_left, 1], mid)
    assert np.array_equal(right[amb.inv_right], np.stack((cell_b, p2_b), axis=1))


def _per_row_cells(a, b):
    """Reference: the flat rows' chains A[p_a] f[cell_a] A[mid] and
    f[cell_b] A[p2_b], one per row, in int64, summed by each cell's rows."""
    sys, l = a.sys, a.sys.l
    amb, A = AmbientGL(sys.k, sys.q), sys.V.A
    p_a, cell_a, mid, cell_b, p2_b = _flat_rows(amb)
    fa, fb = np.stack((a.f1, a.fw)), np.stack((b.f1, b.fw))
    left = (A[p_a] @ fa[cell_a] % l) @ A[mid] % l
    right = fb[cell_b] @ A[p2_b] % l
    return {d: np.einsum("rij,rjk->ik", left[lo:hi], right[lo:hi]) % l
            for d, (lo, hi) in enumerate(zip(amb.offsets, amb.offsets[1:]))}


@pytest.mark.parametrize("cfg", PLAN_SYSTEMS, ids=["k%d.q%d.l%d.%s" % (c[:3] + c[4:]) for c in PLAN_SYSTEMS])
def test_distinct_products_give_the_per_row_cells(cfg):
    sys = _sys(*cfg)
    rng = np.random.default_rng(sys.dim)
    for _ in range(5):
        a, b = random_fin_element(sys, rng), random_fin_element(sys, rng)
        got, want = fin_convolve_cells(a, b), _per_row_cells(a, b)
        assert sorted(got) == sorted(want)
        for d in want:
            assert np.array_equal(got[d], want[d]), d


def test_associativity_formula():
    rng = np.random.default_rng(5)
    sys = _sys(1, 4, 3, mode="pp")
    for _ in range(20):
        a, b, c = (random_fin_element(sys, rng) for _ in range(3))
        assert fin_mul(fin_mul(a, b), c) == fin_mul(a, fin_mul(b, c))


def test_tstar_group_algebra():
    # l | q-1: (T*)^2 = 0 in the group algebra itself
    for k, q, l in [(1, 3, 2), (1, 4, 3), (2, 3, 2), (2, 4, 3)]:
        sq = tstar_group_algebra_power(k, q, l, 2)
        assert not sq.any(), (k, q, l)
    # non-example: q=4, l=5 has (T*)^2 = 3 T* and never vanishes
    t1 = tstar_group_algebra_power(1, 4, 5, 1)
    t2 = tstar_group_algebra_power(1, 4, 5, 2)
    assert np.array_equal(t2, (3 * t1) % 5)
    t6 = tstar_group_algebra_power(1, 4, 5, 6)
    assert t6.any()


def test_fpoly_frozen_values():
    fp = compute_fpoly(_sys(1, 4, 5))
    assert fp.coeffs == (1, 0, 1)  # T^2 + 1
    assert str(fp) == "T^2 + 1"
    fp2 = compute_fpoly(_sys(1, 4, 3))
    assert fp2.coeffs == (0, 1)  # T
    fp3 = compute_fpoly(_sys(1, 2, 3))
    assert fp3.coeffs == (2, 0, 1)  # T^2 + 2
    fp4 = compute_fpoly(_sys(1, 4, 3, mode="pp"))
    assert fp4.coeffs == (0, 0, 1)  # T^2 in the l | q-1 projective case


def test_fpoly_is_a_relation_not_minpoly():
    # with T* = 1 (q=2, l=3) the parity split forces T^2 - 1, not T - 1
    sys = _sys(1, 2, 3)
    assert sys.tstar[0, 0] == 1
    fp = compute_fpoly(sys)
    assert fp.degree == 2


def test_fpoly_kills_images():
    sys = _sys(1, 4, 5)
    fp = compute_fpoly(sys)
    acc = None
    for i, c in enumerate(fp.coeffs):
        term = parameter_image(sys, i)
        scaled = FinElement(sys, c * term.f1, c * term.fw)
        acc = scaled if acc is None else acc + scaled
    assert acc.is_zero()


def test_fpoly_json():
    d = compute_fpoly(_sys(1, 4, 5)).to_json()
    assert d["poly"] == "T^2 + 1"
    assert d["coeffs"] == [1, 0, 1]
    assert d["tau"] == 4
    assert d["module"] == "trivial"
    assert d["tstar_minpoly"]  # present and nonempty
