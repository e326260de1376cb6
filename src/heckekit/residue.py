"""Brute-force product oracle over the local field, in exact arithmetic.

Group elements are matrices over F_q[pi, pi^-1], held densely: a Laurent
matrix is an int array of F_q codes of shape (..., 2k, 2k, E), where slot s
holds the coefficient of pi^(s - 16), so the E = 33 slots cover the window
|exponent| <= 16.  Codes are added, multiplied and negated through the
GF(q) ADD, MUL and NEG tables.  Nothing is ever truncated: a product or
shift that would put a nonzero coefficient outside the window raises
WindowExhausted, long before exactness could be threatened.

The parahoric P is block upper triangular mod pi with invertible diagonal
blocks.  For a Weyl element eta, P^(eta) = P intersect eta P eta^-1 deepens
exactly one off-diagonal block, and P/P^(eta) has an explicit unipotent
transversal.  The product of two basis functions is then literally summed:

    ([eta]_f * [delta]_g)(eps)
        = sum over u in P/P^(eta), v in P/P^(delta)
          of  rho(u) f rho(v) g rho(p2),   p2 = delta^-1 v^-1 eta^-1 u^-1 eps,

with only the pairs where p2 lands in P contributing.  The support of the
result is pinned exactly: the determinant fixes x+y, and valuations bound
x from both sides.  Weyl matrices are monomial, so eta^-1, delta^-1 and eps
are applied as a permutation plus an exponent shift.

The sum runs on stacks.  All v^-1 of the transversal of delta are stacked
on a leading axis, and so are the eta^-1 u^-1 of a run of u: one u when
the v alone are 256, the largest transversal, and as many u as keep the
stack at 256 coset pairs otherwise.  v^-1 eta^-1 u^-1 for the whole stack
is one batched product, each digit of the one off-diagonal block of v^-1
an exponent shift plus a table multiply.  Every coset pair is still tested
against every eps of the support: a valuation prefilter, one boolean mask
over (pairs x eps) from the least occupied slot of each block, rejects
most eps before p2 is built.  The pairs an eps admits are tested in one
pass: their p2 are one stack, the valuation test is one mask, and each
residue diagonal block is read through the Levi index of GL_k(q), where a
singular block has none.  Hits are counted by (cell, Levi(u), Levi(v),
Levi(p2)), and each distinct key forms its one term
rho(u) f rho(v) g rho(p2), times its count; by distributivity the sum is
the same.  Keys with the same Levi(u) and Levi(v) share rho(u) f rho(v) g.
The transversals depend only on (k, q, deepened block, gap) and are built
once, into a bounded cache of read-only arrays.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product as iproduct

import numpy as np

from .errors import CellConflict, GapTooLarge, TooLarge, WindowExhausted
from .gfp import GF, fq_rank
from .weyl import W

_CAP = 16
E = 2 * _CAP + 1
_ROWS = 256  # coset pairs per stacked product: the largest transversal
# coset pairs of one oracle_product: that transversal on both sides, at
# (k, q) = (2, 2) with gap 2, is the most any test, verify run or benchmark
# enumerates; a gap-2 by gap-1 product at k = 1, q = 71 would be 357,911
_MAX_PAIRS = _ROWS * _ROWS

# ---------------------------------------------------------------------------
# dense Laurent matrices


def _lost(X, d):
    """The slots of X that a shift by d pushes out of the window."""
    return X[..., max(E - d, 0) :] if d > 0 else X[..., : min(-d, E)]


def _shift_into(out, X, d):
    """out = X * pi^d along the last axis, out being zero; raises
    WindowExhausted if a nonzero coefficient of X would leave the window."""
    if _lost(X, d).any():
        raise WindowExhausted("exponents shifted by %+d leave the window" % d)
    if abs(d) < E:
        out[..., max(d, 0) : E + min(d, 0)] = X[..., max(-d, 0) : E - max(d, 0)]


def lmat_mul(F, A, B):
    """A[a] @ B[b] for every matrix of the stack A and every matrix of the
    stack B; the result has the leading axes of A, then those of B.

    Per (inner index j, slot s) where column j of A has a nonzero
    coefficient, one gather of MUL table rows and one ADD table update, on
    the band of slots the product can reach; raises WindowExhausted where
    the product of two nonzero coefficients would leave the window."""
    n = A.shape[-2]
    A2, B2 = A.reshape(-1, n, n, E), B.reshape(-1, n, n, E)
    js, ss = (x.tolist() for x in np.nonzero(A2.any(axis=(0, 1))))
    slots = np.flatnonzero(B2.any(axis=(0, 1, 2))).tolist()
    C = np.zeros(A.shape[:-3] + B.shape[:-3] + (n, n, E), dtype=np.int64)
    if not js or not slots:
        return C
    lo = min(max(slots[0] + min(ss) - _CAP, 0), E)
    hi = min(max(slots[-1] + max(ss) - _CAP + 1, 0), E)
    wide = np.zeros(B2.shape[:-1] + (3 * E,), dtype=np.int64)
    wide[..., E : 2 * E] = B2  # so that every band slice below is in range
    band = None
    for j, s in zip(js, ss):
        if _lost(B2[:, j], s - _CAP).any():
            raise WindowExhausted("a product by pi^%+d leaves the window" % (s - _CAP))
        rows = F.MUL[:, wide[:, j, :, E + lo - s + _CAP : E + hi - s + _CAP].ravel()]
        term = rows[A2[:, :, j, s].ravel()]
        band = term if band is None else F.ADD.ravel().take(band * F.q + term)
    band = band.reshape(len(A2), n, len(B2), n, hi - lo).transpose(0, 2, 1, 3, 4)
    C[..., lo:hi] = band.reshape(C.shape[:-1] + (hi - lo,))
    return C


def weyl_left(k, e, A):
    """(monomial matrix of e) @ A: the top k rows of A shifted by e.x and
    the bottom k by e.y; a flip swaps the two halves."""
    out = np.zeros_like(A)
    top, bot = (slice(k), slice(k, 2 * k))[:: -1 if e.flip else 1]
    _shift_into(out[..., :k, :, :], A[..., top, :, :], e.x)
    _shift_into(out[..., k:, :, :], A[..., bot, :, :], e.y)
    return out


def weyl_right(k, A, e):
    """A @ (monomial matrix of e): the left k columns of A shifted by e.x,
    the right k by e.y; a flip swaps the two halves."""
    out = np.zeros_like(A)
    left, right = (slice(k), slice(k, 2 * k))[:: -1 if e.flip else 1]
    _shift_into(out[..., left, :], A[..., :k, :], e.x)
    _shift_into(out[..., right, :], A[..., k:, :], e.y)
    return out


def in_parabolic(F, M, k):
    """Membership in P of one matrix: integral, deep lower-left, unit
    diagonal blocks.  The reference for parabolic_levi, which the oracle
    calls instead."""
    if M[:, :, :_CAP].any() or M[k:, :k, _CAP].any():
        return False
    return fq_rank(F, M[:k, :k, _CAP]) == k and fq_rank(F, M[k:, k:, _CAP]) == k


def _levi_labels(P, k):
    """For every matrix of the stack P, of shape (N, 2k, 2k, E), the pair
    of its residue diagonal blocks, labelled as GL_k(q) labels them (the
    code for k = 1, rows of codes for k = 2)."""
    res = P[..., _CAP]
    if k == 1:
        return list(map(tuple, res[:, [0, 1], [0, 1]].tolist()))
    blocks = np.stack([res[:, :k, :k], res[:, k:, k:]], 1).tolist()
    return [tuple(tuple(map(tuple, b)) for b in m) for m in blocks]


def parabolic_levi(index, P, k):
    """in_parabolic for every matrix of the stack P, of shape
    (N, 2k, 2k, E), with its Levi factor: per matrix, the Levi indices of
    its two residue diagonal blocks (index maps a label to its Levi index),
    or None where the matrix is not integral with a deep lower left, or
    where a block is singular and so has no label."""
    outside = P[:, :, :, :_CAP].any(axis=(1, 2, 3)) | P[:, k:, :k, _CAP].any(axis=(1, 2))
    return [None if off or a not in index or b not in index else (index[a], index[b])
            for off, (a, b) in zip(outside.tolist(), _levi_labels(P, k))]


def prefilter(A, k, cands):
    """The valuation half of in_parabolic on A[...] @ (monomial matrix of
    eps) for every matrix of the stack A and every eps of cands, as a mask
    of shape A's leading axes + (len(cands),); raises WindowExhausted where
    one of those products would.

    The left half of A[...] is shifted by eps.x and the right by eps.y; the
    floor of 1 of the lower-left block falls on the left half, or on the
    right half when eps flips."""
    nz = A.reshape(A.shape[:-3] + (2, k, 2, k, E)).any(axis=(-4, -2))
    xs, ys = [e.x for e in cands], [e.y for e in cands]
    for row, sh in zip(nz.reshape(-1, 2, E).any(0).tolist(), (xs, ys)):
        # the least and the greatest occupied slot of a column half, shifted
        if True in row and (row.index(True) + min(sh) < 0 or row[::-1].index(True) < max(sh)):
            raise WindowExhausted("exponents beyond the window for one of %r" % (cands,))
    fl = [int(e.flip) for e in cands]
    floor = np.array([[[0] * len(fl), [0] * len(fl)], [[1 - f for f in fl], fl]])
    # the least occupied slot of each block, E where there is none; a block
    # falls short of its floor iff that slot is below floor - shift + 16,
    # capped at E so that an empty block always passes
    least = np.concatenate([nz, np.ones(nz.shape[:-1] + (1,), dtype=bool)], -1).argmax(-1)
    cut = np.minimum(floor - np.array([xs, ys]) + _CAP, E)
    return (least[..., None] >= cut).all(axis=(-3, -2))


# ---------------------------------------------------------------------------
# the deepened parahoric and its coset transversal


def p_eta_pattern(eta):
    """Minimum valuations (ur, ll) of P^(eta) = P intersect eta P eta^-1.

    Computed from scratch by conjugating the block pattern; the diagonal
    blocks stay at valuation 0 with unit residue.
    """
    x, y = eta.x, eta.y
    if not eta.flip:
        return max(0, x - y), max(1, 1 + y - x)
    return max(0, 1 + x - y), max(1, y - x)


def _deepened(eta):
    """(side, e): the one block that P^(eta) deepens, "ur" or "ll", and
    its congruence gap e."""
    ur, ll = p_eta_pattern(eta)
    e_ur, e_ll = ur - 0, ll - 1
    if e_ur > 0 and e_ll > 0:
        raise GapTooLarge("gap in both blocks for %r" % (eta,))
    side, e = ("ur", e_ur) if e_ur > 0 else ("ll", e_ll)
    if e > 2:
        raise GapTooLarge("congruence gap %d for %r" % (e, eta))
    return side, e


def pair_count(k, q, eta, delta):
    """Coset pairs that oracle_product enumerates for [eta] * [delta];
    TooLarge above _MAX_PAIRS."""
    pairs = q ** (k * k * (_deepened(delta)[1] + _deepened(eta)[1]))
    if pairs > _MAX_PAIRS:
        raise TooLarge("%d coset pairs for %r * %r over q=%d; at most %d"
                       % (pairs, eta, delta, q, _MAX_PAIRS))
    return pairs


def coset_reps(k, q, eta):
    """Unipotent transversal of P / P^(eta): a read-only int array of shape
    (cosets, 2, 2k, 2k, E) holding each representative and its inverse,
    built once per (k, q, deepened block, gap).

    The one deepened block carries e pi-adic digits (from pi^0 in the upper
    right, from pi^1 in the lower left), enumerated in lexicographic order;
    its square is 0, so the inverse negates them."""
    return transversal(k, q, *_deepened(eta))


# five transversals per (k, q): gap 0, and gaps 1 and 2 in either block
@lru_cache(maxsize=16)
def transversal(k, q, side, e):
    F = GF(q)
    n = 2 * k
    digits = np.array(list(iproduct(range(q), repeat=k * k * e)), dtype=np.int64)
    digits = digits.reshape(q ** (k * k * e), e, k, k)
    reps = np.zeros((len(digits), 2, n, n, E), dtype=np.int64)
    reps[:, :, range(n), range(n), _CAP] = 1
    rows, cols, base = (slice(k), slice(k, n), _CAP) if side == "ur" else (
        slice(k, n), slice(k), _CAP + 1)
    for d in range(e):
        reps[:, 0, rows, cols, base + d] = digits[:, d]
        reps[:, 1, rows, cols, base + d] = F.NEG[digits[:, d]]
    reps.flags.writeable = False
    return reps


# ---------------------------------------------------------------------------
# the product oracle


def support_window(eta, delta):
    """All Weyl elements the product of these two cosets can touch."""
    S = eta.x + eta.y + delta.x + delta.y
    m = min(eta.x, eta.y) + min(delta.x, delta.y)
    out = []
    for x in range(m - 1, S - m + 2):
        for fl in (False, True):
            out.append(W(x, S - x, fl))
    return out


def oracle_product(sys, eta, f, delta, g):
    """{eps: h_eps} with [eta]_f * [delta]_g = sum [eps]_{h_eps}; brute force.

    Every coset pair is tested against every eps of the support window, and
    must land in at most one cell.  WindowExhausted is raised wherever a
    loop over the pairs would raise it; within one run of u the window is
    checked before the cells.  More than _MAX_PAIRS coset pairs raise
    TooLarge before any is built."""
    k, l = sys.k, sys.l
    pair_count(k, sys.q, eta, delta)
    F = GF(sys.q)
    f = np.asarray(f, dtype=np.int64) % l
    g = np.asarray(g, dtype=np.int64) % l
    V = coset_reps(k, sys.q, delta)
    U = coset_reps(k, sys.q, eta)
    index = sys.M.index
    levi_u = [(index[a], index[b]) for a, b in _levi_labels(U[:, 0], k)]
    levi_v = [(index[a], index[b]) for a, b in _levi_labels(V[:, 0], k)]
    EU = weyl_left(k, eta.inv(), U[:, 1])
    cands = support_window(eta, delta)
    step = max(1, _ROWS // len(V))
    tally = Counter()  # hits by (cell, Levi(u), Levi(v), Levi(p2)), in the order met
    for start in range(0, len(U), step):
        # every coset pair (v, u) of this run of u
        prefix = weyl_left(k, delta.inv(), lmat_mul(F, V[:, 1], EU[start : start + step]))
        admit = prefilter(prefix, k, cands)
        hits = []
        for c in np.flatnonzero(admit.any(axis=(0, 1))):
            vs, us = np.nonzero(admit[:, :, c])
            levi = parabolic_levi(index, weyl_right(k, prefix[vs, us], cands[c]), k)
            hits += [(start + u, v, cands[c], lp)
                     for u, v, lp in zip(us.tolist(), vs.tolist(), levi) if lp is not None]
        # (u, v) order: two hits of one pair sit side by side, and cells
        # enter the tally in the order a loop over the pairs meets them
        hits.sort(key=lambda h: h[:2])
        for (u, v, a, _), (u2, v2, b, _) in zip(hits, hits[1:]):
            if (u, v) == (u2, v2):
                raise CellConflict("one coset pair fell into cells %r" % ([a, b],))
        tally.update((eps, levi_u[u], levi_v[v], lp) for u, v, eps, lp in hits)
    out, left = {}, {}  # left: rho(u) f rho(v) g, one per (Levi(u), Levi(v))
    for (eps, lu, lv, lp), count in tally.items():
        if (lu, lv) not in left:
            left[lu, lv] = sys.sigma(*lu) @ f @ sys.sigma(*lv) @ g
        term = (left[lu, lv] @ sys.sigma(*lp)) % l
        out[eps] = (out.get(eps, 0) + count * term) % l
    return {eps: h for eps, h in out.items() if h.any()}
