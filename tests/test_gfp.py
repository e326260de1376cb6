import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    block_mul,
    matinv_mod,
    nullspace_mod,
    nullspace_rref,
    pdivmod,
    pfactor,
    pmonic,
    pmul,
)

from heckekit import gfp, numth
from heckekit.errors import NoRelationWithinBound, RelationNotUnique, TooLarge
from heckekit.gfp import (
    GF,
    Field,
    first_monic_dependence,
    fq_inv_matrix,
    fq_matmul,
    fq_rank,
    fq_rref,
    matmul_mod,
    nullspace_triplets,
    pnormalize,
    poly_str,
    rank_mod,
    rref_mod,
    solve_mod,
)
from heckekit.numth import _factor_prime_power, is_prime
from heckekit.residue import E


def pgcd(a, b, l):
    a, b = pnormalize([x % l for x in a]), pnormalize([x % l for x in b])
    while b:
        a, b = b, pdivmod(a, b, l)[1]
    return pmonic(a, l)


def peval(a, x, l):
    r = 0
    for c in reversed(a):
        r = (r * x + c) % l
    return r


def test_prime_field_basics():
    F = GF(5)
    assert F.add(3, 4) == 2
    assert F.mul(3, 4) == 2
    assert F.neg(2) == 3
    assert F.inv(3) == 2


def test_f4_structure():
    F = GF(4)
    assert GF(4) is F
    # code 2 is the residue of x; x^2 = x + 1, x^3 = 1, and -1 = 1 in char 2
    assert F.mul(2, 2) == 3
    assert F.neg(1) == 1
    assert F.inv(2) == 3


def test_f9_structure():
    F = GF(9)
    # code 3 is x with x^2 = -1 = 2
    assert F.mul(3, 3) == 2
    assert F.unit_order(3) == 4


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustive(q):
    F = GF(q)
    for x in F.elements():
        assert F.add(x, 0) == x
        assert F.mul(x, 1) == x
        assert F.add(x, F.neg(x)) == 0
        if x:
            assert F.mul(x, F.inv(x)) == 1
    # associativity and distributivity, full triple loop (q <= 9)
    for x in F.elements():
        for y in F.elements():
            for z in F.elements():
                assert F.mul(x, F.mul(y, z)) == F.mul(F.mul(x, y), z)
                assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))


def test_unit_generator():
    for q in (3, 4, 5, 7, 9):
        F = GF(q)
        g = F.unit_generator()
        assert F.unit_order(g) == q - 1


def test_field_rejects_nonprimepower():
    with pytest.raises(TooLarge):
        Field(6)


def _trial_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _trial_prime_power(q):
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    a, m = 0, q
    while m % p == 0:
        m, a = m // p, a + 1
    return (p, a) if m == 1 else None


def test_primality_and_prime_powers_match_trial_division():
    for n in range(100_000):
        assert numth.is_prime(n) == _trial_is_prime(n), n
    for q in range(2, 100_000):
        try:
            got = _factor_prime_power(q)
        except TooLarge:
            got = None
        assert got == _trial_prime_power(q), q


def test_large_primes_and_prime_powers():
    # each of these took seconds to forever by trial division
    for p in (1_000_000_000_039, 100_000_000_000_031, 10**18 + 3, 2**61 - 1):
        assert numth.is_prime(p)
        assert _factor_prime_power(p) == (p, 1)
        assert _factor_prime_power(p**3) == (p, 3)
    assert not numth.is_prime(1_000_000_007 * 1_000_000_009)
    assert not numth.is_prime(3825123056546413051)  # a strong pseudoprime to bases 2..23
    assert _factor_prime_power(41**2600) == (41, 2600)
    assert _factor_prime_power(2**3000) == (2, 3000)
    # no deterministic test above 2^64, unless a witness divides n
    assert not numth.is_prime(3 * 2**64)
    with pytest.raises(TooLarge, match="2\\^64"):
        numth.is_prime(2**64 + 13)
    with pytest.raises(TooLarge, match="2\\^64"):
        _factor_prime_power((2**64 + 13) ** 2)
    with pytest.raises(TooLarge, match="not a prime power"):
        _factor_prime_power(3 * 2**64)


def test_factor_prime_power():
    assert _factor_prime_power(1_000_000_007) == (1_000_000_007, 1)
    assert _factor_prime_power(2) == (2, 1)
    assert _factor_prime_power(4) == (2, 2)
    assert _factor_prime_power(9) == (3, 2)
    assert _factor_prime_power(3**13) == (3, 13)
    assert _factor_prime_power(10007**2) == (10007, 2)
    for q in (6, 12, 10007 * 10009, -3, 0, 1):
        with pytest.raises(TooLarge):
            _factor_prime_power(q)


def test_fq_matmul_and_inverse():
    F = GF(4)
    rng = np.random.default_rng(7)
    eye = np.eye(3, dtype=np.int64)
    found = 0
    for _ in range(50):
        A = rng.integers(0, 4, size=(3, 3)).astype(np.int64)
        if fq_rank(F, A) < 3:
            continue
        found += 1
        Ainv = fq_inv_matrix(F, A)
        assert np.array_equal(fq_matmul(F, A, Ainv), eye)
        assert np.array_equal(fq_matmul(F, Ainv, A), eye)
    assert found > 10


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_fq_matmul_stacks_match_block_mul(q):
    # the stacks the residue solve multiplies: k x k digit blocks by k x k
    # blocks, and by the (N, k, 2k, E) kept rows of a Laurent stack, reshaped
    # to (N, k, 2k E); for prime q also integer matmul mod q
    F, rng = GF(q), np.random.default_rng(q)
    for k in (1, 2):
        A = rng.integers(0, q, size=(9, k, k))
        for B in (rng.integers(0, q, size=(9, k, k)), rng.integers(0, q, size=(9, k, 2 * k, E))):
            want = block_mul(F, A, B)
            flat = B.reshape(9, k, -1)
            assert np.array_equal(fq_matmul(F, A, flat).reshape(want.shape), want)
            if is_prime(q):
                assert np.array_equal(fq_matmul(F, A, flat), (A @ flat) % q)
    # 2-D operands and a stack broadcast against one matrix, as numpy.matmul
    A, B = rng.integers(0, q, size=(4, 3, 3)), rng.integers(0, q, size=(3, 5))
    got = fq_matmul(F, A, B)
    assert got.shape == (4, 3, 5)
    for a, c in zip(A, got):
        assert np.array_equal(fq_matmul(F, a, B), c)
        assert np.array_equal(c, block_mul(F, a[None], B[None])[0])


def test_fq_rref_frozen():
    F = GF(2)
    R, piv = fq_rref(F, np.array([[1, 1, 0], [1, 0, 1]]))
    assert piv == [0, 1]
    assert np.array_equal(R, np.array([[1, 0, 1], [0, 1, 1]]))


def test_rref_mod_frozen():
    R, piv = rref_mod(np.array([[1, 1], [2, 2]]), 3)
    assert piv == [0]
    assert np.array_equal(R, np.array([[1, 1], [0, 0]]))
    ns = nullspace_mod(np.array([[1, 1], [2, 2]]), 3)
    assert ns.shape == (1, 2)
    # free coordinate pinned to 1: (2, 1), and indeed 2 + 1 = 0 mod 3
    assert tuple(ns[0]) == (2, 1)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_solve_mod_random(seed):
    rng = np.random.default_rng(seed)
    l = [2, 3, 5, 7][seed % 4]
    A = rng.integers(0, l, size=(5, 4)).astype(np.int64)
    x = rng.integers(0, l, size=4).astype(np.int64)
    b = (A @ x) % l
    got = solve_mod(A, b, l)
    assert got is not None
    assert np.array_equal((A @ got) % l, b)


def test_solve_mod_inconsistent():
    A = np.array([[1, 0], [1, 0]])
    assert solve_mod(A, np.array([1, 2]), 3) is None


def test_matinv_mod():
    A = np.array([[1, 2], [3, 4]])
    Ainv = matinv_mod(A, 5)
    assert np.array_equal((A @ Ainv) % 5, np.eye(2, dtype=np.int64))


def test_poly_frozen():
    assert pmul((1, 1), (2, 1), 5) == (2, 3, 1)
    q, r = pdivmod((2, 3, 1), (1, 1), 5)
    assert q == (2, 1) and r == ()
    assert pgcd((2, 3, 1), (1, 1), 5) == (1, 1)
    assert peval((2, 3, 1), 4, 5) == (2 + 12 + 16) % 5
    assert poly_str((2, 0, 1)) == "T^2 + 2"
    assert poly_str(()) == "0"


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_pdivmod_roundtrip(seed):
    rng = np.random.default_rng(seed)
    l = [3, 5, 7][seed % 3]
    a = tuple(int(v) for v in rng.integers(0, l, size=rng.integers(1, 7)))
    b = tuple(int(v) for v in rng.integers(0, l, size=rng.integers(1, 5)))
    if not pnormalize(b):
        return
    q, r = pdivmod(a, b, l)
    back = pnormalize(
        tuple(
            (x + y) % l
            for x, y in zip(
                list(pmul(q, b, l)) + [0] * 8, list(r) + [0] * 8
            )
        )
    )
    assert back == pnormalize(a)
    assert len(r) < len(pnormalize(b)) or not r


def test_pfactor_frozen():
    # x^2 + 1 irreducible mod 3, splits mod 5
    assert pfactor((1, 0, 1), 3) == [((1, 0, 1), 1)]
    assert sorted(pfactor((1, 0, 1), 5)) == [((2, 1), 1), ((3, 1), 1)]
    # repeated factor: (x+1)^2 mod 3
    assert pfactor((1, 2, 1), 3) == [((1, 1), 2)]


def test_first_monic_dependence_scalar_sequence():
    # powers of 3 mod 5: relation T - 3 at degree 1
    rel = first_monic_dependence(([pow(3, i, 5)] for i in range(6)), 5)
    assert rel == (2, 1)


def test_first_monic_dependence_planar():
    vs = [np.array([1, 0]), np.array([0, 1]), np.array([2, 2])]
    rel = first_monic_dependence(vs, 3)
    assert rel == (1, 1, 1)


def test_first_monic_dependence_bound():
    with pytest.raises(NoRelationWithinBound):
        first_monic_dependence((np.eye(9, dtype=np.int64)[i] for i in range(9)), 3, max_len=4)


def _relation_over_dependent_vectors():
    """first_monic_dependence on e0, e0, e0 mod 3 with its first span test
    made to miss, so that the two vectors it keeps are dependent."""
    real, calls = gfp.solve_mod, []

    def miss_once(A, b, l):
        calls.append(b)
        return None if len(calls) == 1 else real(A, b, l)

    e0 = np.array([1, 0])
    with mock.patch.object(gfp, "solve_mod", miss_once):
        return first_monic_dependence([e0, e0, e0], 3)


def test_first_monic_dependence_refuses_dependent_earlier_vectors():
    e0 = np.array([1, 0])
    assert first_monic_dependence([e0, e0, e0], 3) == (2, 1)
    with pytest.raises(RelationNotUnique, match="2 earlier vectors"):
        _relation_over_dependent_vectors()


def test_first_monic_dependence_refuses_under_optimize():
    script = """
import sys
sys.path.insert(0, %r)
from test_gfp import _relation_over_dependent_vectors
from heckekit.errors import RelationNotUnique
try:
    _relation_over_dependent_vectors()
except RelationNotUnique:
    print("RelationNotUnique", __debug__)
""" % os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["RelationNotUnique", "False"]


# ---------------------------------------------------------------------------
# the nullspace against the echelon-form reference


@st.composite
def sparse_systems(draw):
    """A matrix mod l whose rows are zero, one-entry, two-entry, cycles of
    two-entry rows whose ratios agree or disagree, or of 3+ entries."""
    l = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 12))
    unit = st.integers(1, l - 1)
    col = st.integers(0, n - 1)
    rows = []
    kinds = st.sampled_from(["zero", "one", "two", "cycle", "many"])
    for kind in draw(st.lists(kinds, max_size=10)):
        if kind == "zero":
            rows.append({})
        elif kind == "one":
            rows.append({draw(col): draw(unit)})
        elif kind in ("two", "many") or n == 1:
            size = 2 if kind == "two" else draw(st.integers(3, max(3, n)))
            cols = draw(st.lists(col, min_size=min(size, n), max_size=min(size, n), unique=True))
            rows.append({c: draw(unit) for c in cols})
        else:
            # x_c[i] = r_i * x_c[i+1] around the cycle, the last row closing it
            cyc = draw(st.lists(col, min_size=2, max_size=min(n, 5), unique=True))
            ratios = [draw(unit) for _ in cyc[1:]]
            agree = pow(int(np.prod(ratios)) % l, -1, l)
            close = agree if draw(st.booleans()) else draw(unit)
            for (u, v), r in zip(zip(cyc, cyc[1:] + cyc[:1]), ratios + [close]):
                s = draw(unit)
                rows.append({u: s, v: -r * s})
    rows = draw(st.permutations(rows))
    A = np.zeros((len(rows), n), dtype=np.int64)
    for i, row in enumerate(rows):
        for c, v in row.items():
            A[i, c] = v + l * draw(st.integers(-2, 2))
    return A, l


@given(sparse_systems(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_nullspace_matches_rref_reference(system, seed):
    A, l = system
    want = nullspace_rref(A, l)
    got = nullspace_mod(A, l)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not ((A @ got.T) % l).any()
    # the same matrix as triplets: every entry split in two, plus a pair
    # that cancels, in a shuffled order
    rng = np.random.default_rng(seed)
    r, c = np.nonzero(A)
    part = rng.integers(-l, l, size=r.size)
    extra = rng.integers(0, A.shape[1], size=2) if A.size else np.zeros(0, dtype=np.int64)
    extra_r = np.zeros(extra.size, dtype=np.int64)
    extra_v = np.array([1, -1])[: extra.size]
    if extra.size:
        extra[1] = extra[0]
    rows = np.concatenate([r, r, extra_r])
    cols = np.concatenate([c, c, extra])
    vals = np.concatenate([part, A[r, c] - part, extra_v])
    order = rng.permutation(rows.size)
    got = nullspace_triplets(rows[order], cols[order], vals[order], A.shape[1], l)
    assert got.tobytes() == want.tobytes() and got.shape == want.shape


# ---------------------------------------------------------------------------
# exact products mod l on float32 or float64 BLAS


@given(
    st.sampled_from([2, 3, 5, 7, 101, 65521]),
    st.sampled_from([(), (1,), (3,)]),
    st.integers(1, 6),
    st.integers(0, 40),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_matmul_mod_matches_integer_product(l, batch, n, m, r, seed):
    rng = np.random.default_rng(seed)
    A = rng.integers(-10**6, 10**6, size=batch + (n, m))
    B = rng.integers(-10**6, 10**6, size=batch + (m, r))
    got = matmul_mod(A, B, l)
    assert got.dtype == np.int64 and got.shape == batch + (n, r)
    assert np.array_equal(got, (A @ B) % l)


def test_matmul_mod_exact_up_to_the_bound():
    # n * (l-1)^2 = (2^13 - 1) * 2^40, just under 2^53: every partial sum is
    # exact, and the true value n * (-1)^2 = n mod l comes out
    l, n = 2**20 + 1, 2**13 - 1
    A = np.full((1, n), l - 1, dtype=np.int64)
    assert matmul_mod(A, A.T, l).tolist() == [[n % l]]
    big = 94906265  # (big - 1)^2 < 2^53 <= 2 * (big - 1)^2
    assert matmul_mod([[big - 1]], [[big - 1]], big).tolist() == [[1]]
    assert matmul_mod([[-1, 2]], [[3], [4]], 7).tolist() == [[5]]
    # int64 operands far past 2^53 are reduced before they become doubles
    a, b = [[2**62 + 3, -(2**61) - 1]], [[2**62 + 1], [2**59 + 7]]
    want = (a[0][0] * b[0][0] + a[0][1] * b[1][0]) % 101
    assert matmul_mod(np.array(a), np.array(b), 101).tolist() == [[want]]


def test_matmul_mod_raises_at_the_bound():
    with pytest.raises(TooLarge):
        matmul_mod(np.ones((1, 2**13)), np.ones((2**13, 1)), 2**20 + 1)
    with pytest.raises(TooLarge):
        matmul_mod([[1, 1]], [[1], [1]], 2**26 + 1)  # 2 * 2^52 = 2^53
    with pytest.raises(TooLarge):
        matmul_mod(np.ones((3, 1, 2)), np.ones((3, 2, 1)), 94906265)


# n * (l-1)^2 < 2^24: the largest such l multiplies in float32, the next in
# float64; operands at l - 1 put every partial sum at the bound
PRECISION_EDGES = [(n, math.isqrt((2**24 - 1) // n) + 1) for n in (1, 2, 18, 32, 1000)]


@pytest.mark.parametrize("n,l", PRECISION_EDGES, ids=["n%d" % e[0] for e in PRECISION_EDGES])
def test_products_exact_on_either_side_of_the_float32_bound(n, l):
    assert n * (l - 1) ** 2 < 2**24 <= n * l**2
    rng = np.random.default_rng(n)
    for m, dtype in ((l, np.float32), (l + 1, np.float64)):
        assert gfp._exact_dtype(n, m) is dtype
        A = m - 1 - rng.integers(0, 3, size=(2, 3, n))
        B = m - 1 - rng.integers(0, 3, size=(2, n, 4))
        want = (A.astype(object) @ B.astype(object)) % m
        got = matmul_mod(A, B, m)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        Z = gfp._matmul_residues(gfp._residues(A, m, dtype), gfp._residues(B, m, dtype), m)
        assert Z.dtype == dtype and np.array_equal(Z, want)
    # float32 residues past their bound are refused, never rounded
    with pytest.raises(TooLarge, match="float32"):
        gfp._matmul_residues(np.ones((1, n), np.float32), np.ones((n, 1), np.float32), l + 1)


def test_matmul_mod_raises_under_optimize():
    script = """
from heckekit.errors import TooLarge
from heckekit.gfp import matmul_mod
try:
    matmul_mod([[1, 1]], [[1], [1]], 2**26 + 1)
except TooLarge:
    print("TooLarge", __debug__)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["TooLarge", "False"]
