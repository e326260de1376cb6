"""Small finite fields and exact linear algebra mod a prime.

Two layers live here.  Tiny fields F_q (q = p^a) are realized through dense
lookup tables on integer codes and drive the residue-field geometry, where
matrices stay 4x4 or smaller.  Linear algebra mod a prime l is numpy-backed
and drives the representation-theoretic solves.  Its nullspaces, up to a
thousand unknowns, go through one routine on sparse (row, column, value)
triplets: rows of one or two entries are settled by a weighted union-find,
and only the rare rows of three or more are row-reduced, on one unknown per
component.  Its products run on float BLAS: in float32 while every partial
sum, at most n*(l-1)^2 for inner dimension n, is below 2^24, in float64
while it is below 2^53, and TooLarge past that (_matmul_residues proves the
product and its reduction exact).  Everything is exact; nothing here ever
rounds.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import NoRelationWithinBound, RelationNotUnique, TooLarge
from .numth import _factor_prime_power

# ---------------------------------------------------------------------------
# fields on integer codes


# monic modulus coefficients, little-endian, for the extensions we admit
_MODPOLY = {
    4: (1, 1, 1),      # x^2 + x + 1 over F_2
    8: (1, 1, 0, 1),   # x^3 + x + 1 over F_2
    9: (1, 0, 1),      # x^2 + 1 over F_3
}


def _digits(code, p, a):
    out = []
    for _ in range(a):
        out.append(code % p)
        code //= p
    return out


def _code(digs, p):
    c = 0
    for d in reversed(digs):
        c = c * p + d
    return c


class Field:
    """F_q on codes 0..q-1, with code 0 = zero and code 1 = one.

    For prime q the code is the residue itself.  For q = p^a codes are
    little-endian base-p digit strings of polynomial representatives, so
    the additive structure is digitwise mod p and multiplication reduces
    against the modulus in _MODPOLY.
    """

    def __init__(self, q):
        p, a = _factor_prime_power(q)
        if a > 1 and q not in _MODPOLY:
            raise TooLarge("no modulus on file for q=%d" % q)
        self.q = q
        self.p = p
        self.deg = a
        rng = np.arange(q, dtype=np.int64)
        if a == 1:
            self.ADD = (rng[:, None] + rng[None, :]) % q
            self.MUL = (rng[:, None] * rng[None, :]) % q
            self.NEG = (-rng) % q
        else:
            mod = _MODPOLY[q]
            self.ADD = np.zeros((q, q), dtype=np.int64)
            self.MUL = np.zeros((q, q), dtype=np.int64)
            self.NEG = np.zeros(q, dtype=np.int64)
            for x in range(q):
                dx = _digits(x, p, a)
                self.NEG[x] = _code([(-d) % p for d in dx], p)
                for y in range(q):
                    dy = _digits(y, p, a)
                    self.ADD[x, y] = _code([(u + v) % p for u, v in zip(dx, dy)], p)
                    prod = [0] * (2 * a - 1)
                    for i, u in enumerate(dx):
                        for j, v in enumerate(dy):
                            prod[i + j] = (prod[i + j] + u * v) % p
                    # reduce degree >= a terms against the monic modulus
                    for d in range(2 * a - 2, a - 1, -1):
                        c = prod[d]
                        if c:
                            prod[d] = 0
                            for i in range(a):
                                prod[d - a + i] = (prod[d - a + i] - c * mod[i]) % p
                    self.MUL[x, y] = _code(prod[:a], p)
        self.INV = np.zeros(q, dtype=np.int64)
        for x in range(1, q):
            for y in range(1, q):
                if self.MUL[x, y] == 1:
                    self.INV[x] = y
                    break

    def add(self, x, y):
        return int(self.ADD[x, y])

    def sub(self, x, y):
        return int(self.ADD[x, self.NEG[y]])

    def mul(self, x, y):
        return int(self.MUL[x, y])

    def neg(self, x):
        return int(self.NEG[x])

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.q)
        return int(self.INV[x])

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    def unit_order(self, x):
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        r, n = x, 1
        while r != 1:
            r = self.mul(r, x)
            n += 1
        return n

    def unit_generator(self):
        for x in self.units():
            if self.unit_order(x) == self.q - 1:
                return x
        raise AssertionError("F_%d^x has no generator?" % self.q)

    def __repr__(self):
        return "Field(%d)" % self.q


@cache
def GF(q):
    """Memoized field constructor; fields are stateless so sharing is safe."""
    return Field(q)


# ---------------------------------------------------------------------------
# matrices over a Field (arrays of codes; everything here is tiny)


def fq_matmul(F, A, B):
    """A @ B over F through the MUL and ADD tables; stacks broadcast as
    in numpy.matmul, (..., n, m) @ (..., m, r)."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    T = F.MUL[A[..., :, :, None], B[..., None, :, :]]
    C = T[..., 0, :]
    for t in range(1, A.shape[-1]):
        C = F.ADD[C, T[..., t, :]]
    return C


def fq_code(F, B):
    """The one integer code of a block of F_q codes, for every block of
    the stack B of shape (..., m, n): its entries row by row as base-q
    digits, the first the most significant; a 1 x 1 block's code is its
    entry.  GL_k(q) is indexed by the codes of its k x k blocks, and the
    transversals of residue enumerate their digit blocks in code order."""
    B = np.asarray(B, dtype=np.int64)
    m = B.shape[-2] * B.shape[-1]
    return B.reshape(B.shape[:-2] + (m,)) @ F.q ** np.arange(m - 1, -1, -1, dtype=np.int64)


def fq_rref(F, A):
    """Reduced row echelon form over F; returns (R, pivot_columns)."""
    R = np.array(A, dtype=np.int64)
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hit = -1
        for i in range(r, rows):
            if R[i, c]:
                hit = i
                break
        if hit < 0:
            continue
        if hit != r:
            R[[r, hit]] = R[[hit, r]]
        s = F.inv(int(R[r, c]))
        R[r] = F.MUL[R[r], s]
        for i in range(rows):
            if i != r and R[i, c]:
                f = int(R[i, c])
                R[i] = F.ADD[R[i], F.NEG[F.MUL[R[r], f]]]
        pivots.append(c)
        r += 1
    return R, pivots


def fq_rank(F, A):
    return len(fq_rref(F, A)[1])


def fq_inv_matrix(F, A):
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[0]
    aug = np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1)
    R, pivots = fq_rref(F, aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix not invertible over F_%d" % F.q)
    return R[:, n:]


# ---------------------------------------------------------------------------
# numpy linear algebra mod a prime l


def _exact_dtype(n, l):
    """float32 when every partial sum of a product of residues mod l with
    inner dimension n, an integer of at most n*(l-1)^2, is below 2^24, the
    integers float32 holds exactly; float64 otherwise (exact below 2^53)."""
    return np.float32 if n * (l - 1) ** 2 < 2**24 else np.float64


def _residues(A, l, dtype):
    """A reduced into [0, l), as dtype; the % is skipped when it is a no-op."""
    A = np.asarray(A)
    if A.size and (A.min() < 0 or A.max() >= l):
        A = A % l
    return A.astype(dtype)


def _exact_bound(n, l, dtype):
    """2^24 for float32, 2^53 for float64: one more than the significand's
    bits, so every integer below it is exact in dtype.  TooLarge unless
    n*(l-1)^2, the largest partial sum of a product of residues mod l with
    inner dimension n, is below it."""
    limit = 2 ** (np.finfo(dtype).nmant + 1)
    if n * (l - 1) ** 2 >= limit:
        raise TooLarge("inner dimension %d mod l=%d is not exact in %s" % (n, l, np.dtype(dtype)))
    return limit


def _reduce(Z, l):
    """Z mod l in place, for float integers 0 <= Z below _exact_bound: for
    such a y, fl(y/l) misses y/l by at most y/l times 2^-53 (2^-24 in
    float32), less than 1/l, the least distance from y/l to the next
    integer when l does not divide y; so floor(fl(y/l)) is the true
    quotient and y - l*quotient is exact.  Four passes through one scratch
    array: np.fmod is exact too, but 25 times slower on a (9, 18, 18)
    float32 stack (127 against 5.0 us, Xeon)."""
    Q = np.divide(Z, l)
    np.floor(Q, out=Q)
    Q *= l
    Z -= Q
    return Z


def _matmul_residues(X, Y, l):
    """(X @ Y) mod l on float residues in [0, l), as residues of their dtype.

    Every partial sum is an integer of at most n*(l-1)^2 for inner
    dimension n.  Below _exact_bound, 2^53 (float64) or 2^24 (float32),
    those are exact whatever the summation order, FMA or thread split of
    the BLAS; at or above it this raises TooLarge, never rounds.  The
    product is reduced in place by _reduce, not np.fmod (see there).
    Callers pick float32 through _exact_dtype, where SGEMM is exact.
    """
    _exact_bound(X.shape[-1], l, np.result_type(X, Y))
    return _reduce(X @ Y, l)


def matmul_mod(A, B, l):
    """(A @ B) mod l as int64, through float BLAS; 2-D or stacked.

    Both operands are reduced into [0, l) first, then multiplied by
    _matmul_residues, the one exact product: in float32 while
    n*(l-1)^2 < 2^24 for inner dimension n, else in float64, and TooLarge
    unless n*(l-1)^2 < 2^53.  Callers that chain products keep the
    residues of _matmul_residues and convert once.
    """
    A = np.asarray(A)
    dtype = _exact_dtype(A.shape[-1], l)
    return _matmul_residues(_residues(A, l, dtype), _residues(B, l, dtype), l).astype(np.int64)


def rref_mod(A, l):
    """Reduced row echelon form of an integer matrix mod l; (R, pivots)."""
    R = np.array(A, dtype=np.int64) % l
    if R.ndim != 2:
        raise ValueError("need a 2d array")
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = (R[r] * pow(int(R[r, c]), -1, l)) % l
        hit = np.nonzero(R[:, c])[0]
        hit = hit[hit != r]
        if hit.size:
            R[hit] = (R[hit] - np.outer(R[hit, c], R[r])) % l
        pivots.append(c)
        r += 1
    return R, pivots


def rank_mod(A, l):
    return len(rref_mod(A, l)[1])


def nullspace_triplets(rows, cols, vals, ncols, l):
    """Rows spanning {x : A x = 0 mod l} for A given as (row, col, value)
    triplets with ncols columns; repeated (row, col) pairs add up.

    The answer is the reduced basis that the echelon form of A gives: one
    row per free column of A, 1 there and 0 on the other free columns.
    Rows are taken by their number of nonzeros.  A row with one entry
    kills its variable.  A row a*x_u + b*x_v joins u and v in a weighted
    union-find, x_i = w_i * x_root(i), whose root is the largest column of
    its component; a cycle whose ratios disagree kills the component.  Rows
    of three or more entries are restricted to the live roots and reduced
    there by rref_mod.  A vector's last nonzero column is the largest root
    it lives on, so the free columns of A are the free roots, and each
    reduced row over the roots expands into the reduced row of A.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    cols = np.asarray(cols, dtype=np.int64).reshape(-1)
    vals = np.asarray(vals, dtype=np.int64).reshape(-1) % l
    # one entry per (row, col), summed mod l, zeros dropped, sorted by row
    key = rows * ncols + cols
    order = np.argsort(key)
    key, vals = key[order], vals[order]
    if key.size:
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        key, vals = key[first], np.add.reduceat(vals, first) % l
        key, vals = key[vals != 0], vals[vals != 0]
    rows, cols = np.divmod(key, ncols)
    _, head, count = np.unique(rows, return_index=True, return_counts=True)
    per_entry = np.repeat(count, count)

    parent = list(range(ncols))
    weight = [1] * ncols  # x_i = weight[i] * x_parent[i]
    dead = [False] * ncols  # read at roots only

    def find(i):
        path = []
        while parent[i] != i:
            path.append(i)
            i = parent[i]
        w = 1
        for j in reversed(path):
            w = w * weight[j] % l
            weight[j], parent[j] = w, i
        return i

    pair = head[count == 2]
    for u, v, a, b in zip(cols[pair].tolist(), cols[pair + 1].tolist(),
                          vals[pair].tolist(), vals[pair + 1].tolist()):
        ru, rv = find(u), find(v)
        a, b = a * weight[u] % l, b * weight[v] % l  # a*x_ru + b*x_rv = 0
        if ru == rv:
            if (a + b) % l:
                dead[ru] = True
            continue
        if ru > rv:
            ru, rv, a, b = rv, ru, b, a
        parent[ru], weight[ru] = rv, -b * pow(a, -1, l) % l
        dead[rv] = dead[rv] or dead[ru]
    for c in cols[per_entry == 1].tolist():
        dead[find(c)] = True

    root = np.fromiter(map(find, range(ncols)), dtype=np.int64, count=ncols)
    weight = np.array(weight, dtype=np.int64)
    live = ~np.array(dead, dtype=bool)[root]
    reps = np.flatnonzero(live & (root == np.arange(ncols)))
    pos = np.zeros(ncols, dtype=np.int64)
    pos[reps] = np.arange(reps.size)
    # rows of three or more entries, on the live roots
    many = per_entry >= 3
    ids, at = np.unique(rows[many], return_inverse=True)
    c = cols[many]
    on = live[c]
    red = np.zeros((ids.size, reps.size), dtype=np.int64)
    np.add.at(red, (at[on], pos[root[c[on]]]), vals[many][on] * weight[c[on]])
    R, pivots = rref_mod(red, l)
    free = np.ones(reps.size, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    Y = np.zeros((free.size, reps.size), dtype=np.int64)
    Y[np.arange(free.size), free] = 1
    Y[:, pivots] = (-R[: len(pivots), free].T) % l
    basis = np.zeros((free.size, ncols), dtype=np.int64)
    basis[:, live] = Y[:, pos[root[live]]] * weight[live] % l
    return basis


def solve_mod(A, b, l):
    """One solution x of A x = b mod l, or None if the system is inconsistent."""
    A = np.asarray(A, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64).reshape(-1)
    cols = A.shape[1]
    R, pivots = rref_mod(np.concatenate([A, b[:, None] % l], axis=1), l)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for r, pc in enumerate(pivots):
        x[pc] = R[r, cols]
    return x


# ---------------------------------------------------------------------------
# dense polynomials mod l, little-endian coefficient tuples


def pnormalize(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def padd(a, b, l):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x % l
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % l
    return pnormalize(out)


def pscale(a, s, l):
    return pnormalize([(x * s) % l for x in a])


def poly_str(a):
    a = pnormalize(a)
    if not a:
        return "0"
    bits = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            pw = "T" if i == 1 else "T^%d" % i
            term = pw if c == 1 else "%d*%s" % (c, pw)
        bits.append(term)
    return " + ".join(bits)


# ---------------------------------------------------------------------------
# minimal monic linear relation among a stream of vectors


def first_monic_dependence(vectors, l, max_len=12):
    """Smallest d with v_d in span(v_0..v_{d-1}) mod l; returns monic coeffs.

    The return value is the little-endian tuple r of length d+1, r[d] = 1,
    with sum_i r[i] v_i = 0.  Minimality makes r unique when v_0..v_{d-1}
    are independent; RelationNotUnique if they turn out dependent.
    Raises NoRelationWithinBound if no relation shows up by max_len.
    """
    seen = []
    for d, v in enumerate(vectors):
        if d > max_len:
            break
        v = np.asarray(v, dtype=np.int64).reshape(-1) % l
        if seen:
            A = np.stack(seen, axis=1)
            x = solve_mod(A, v, l)
            if x is not None:
                if rank_mod(A, l) != len(seen):
                    raise RelationNotUnique("the %d earlier vectors are dependent" % len(seen))
                rel = [(-c) % l for c in x.tolist()] + [1]
                return pnormalize(rel)
        elif not v.any():
            return (1,)  # v_0 = 0: the relation is just "1 * v_0"
        seen.append(v)
    raise NoRelationWithinBound("no monic relation up to degree %d" % max_len)
