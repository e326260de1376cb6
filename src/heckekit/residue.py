"""Brute-force product oracle over the local field, in exact arithmetic.

Group elements are matrices over F_q[pi, pi^-1] (dicts exponent -> code,
so no truncation ever happens; a defensive window of |exponent| <= 16
raises WindowExhausted long before exactness could be threatened).

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
are applied as a permutation plus an exponent shift.  Every coset pair is
still tested against every eps of that support; a valuation prefilter
rejects most eps before p2 is built and its residue blocks are ranked.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import inf

import numpy as np

from .errors import CellConflict, GapTooLarge, WindowExhausted
from .gfp import GF, fq_rank
from .weyl import W

_CAP = 16

# ---------------------------------------------------------------------------
# Laurent scalars and matrices


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


def lmat_mul(F, A, B):
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
    """(column, exponent) of the one entry in each row of lmat_weyl(k, e);
    the row-to-column map is an involution."""
    n = 2 * k
    return [((r + k) % n if e.flip else r, e.x if r < k else e.y) for r in range(n)]


def lp_shift(a, s):
    """a * pi^s, with lp_mul's window check on every exponent."""
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
    """(I X; 0 I) for side "ur" or (I 0; pi Y I) for side "ll", with inverse.

    coeffs is a tuple of k x k integer arrays, the pi-adic digits of the
    off-diagonal block (starting at pi^0 for "ur", at pi^1 for "ll").
    """
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
                if side == "ur":
                    r, s = i, k + j
                else:
                    r, s = k + i, j
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


def residue_block(F, M, k, bi, bj):
    """The pi^0 coefficient of a block, as a k x k array of codes."""
    out = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            out[i, j] = M[bi * k + i][bj * k + j].get(0, 0)
    return out


def in_parabolic(F, M, k):
    """Membership in P: integral, deep lower-left, unit diagonal blocks."""
    for bi, bj, floor in ((0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 0)):
        v = block_min_val(M, k, bi, bj)
        if v is not None and v < floor:
            return False
    return (
        fq_rank(F, residue_block(F, M, k, 0, 0)) == k
        and fq_rank(F, residue_block(F, M, k, 1, 1)) == k
    )


def half_valuations(A, k):
    """Per half (left, right k columns) of A: least exponent in the top k
    rows, in the bottom k rows and overall, and greatest exponent; +-inf
    where there is none."""
    out = []
    for cols in (range(k), range(k, 2 * k)):
        top = [e for row in A[:k] for j in cols for e in row[j]]
        bot = [e for row in A[k:] for j in cols for e in row[j]]
        top_lo, bot_lo = min(top, default=inf), min(bot, default=inf)
        out.append((top_lo, bot_lo, min(top_lo, bot_lo), max(top + bot, default=-inf)))
    return out


def valuations_admit(vals, e):
    """The valuation half of in_parabolic on A @ lmat_weyl(k, e), where vals
    is half_valuations(A, k); raises WindowExhausted where that product would.
    The left half of A is shifted by e.x and the right by e.y; a flip swaps
    the halves, so the lower-left floor of 1 then falls on the right half."""
    (tl, bl, ll, hl), (tr, br, lr, hr) = vals
    x, y = e.x, e.y
    if ll + x < -_CAP or lr + y < -_CAP or hl + x > _CAP or hr + y > _CAP:
        raise WindowExhausted("exponents beyond the window for %r" % (e,))
    if e.flip:
        return tl + x >= 0 and bl + x >= 0 and tr + y >= 0 and br + y >= 1
    return tl + x >= 0 and bl + x >= 1 and tr + y >= 0 and br + y >= 0


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


def coset_reps(k, q, eta):
    """Unipotent transversal of P / P^(eta), as (matrix, inverse) pairs."""
    F = GF(q)
    ur, ll = p_eta_pattern(eta)
    e_ur, e_ll = ur - 0, ll - 1
    assert not (e_ur > 0 and e_ll > 0), "gap in both blocks for %r" % (eta,)
    side, e = ("ur", e_ur) if e_ur > 0 else ("ll", e_ll)
    if e == 0:
        eye, _ = lmat_unipotent(F, k, "ur", ())
        return [(eye, eye)]
    if e > 2:
        raise GapTooLarge("congruence gap %d for %r" % (e, eta))
    out = []
    cells = k * k * e
    for vals in iproduct(range(q), repeat=cells):
        digits = tuple(
            np.array(vals[d * k * k : (d + 1) * k * k], dtype=np.int64).reshape(k, k)
            for d in range(e)
        )
        out.append(lmat_unipotent(F, k, side, digits))
    return out


# ---------------------------------------------------------------------------
# the product oracle


def _levi_sigma(sys, M):
    k, F = sys.k, GF(sys.q)
    idx = []
    for b in (0, 1):
        B = residue_block(F, M, k, b, b)
        idx.append(sys.M.index[int(B[0, 0]) if k == 1 else tuple(map(tuple, B.tolist()))])
    return sys.sigma(*idx)


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
    must land in at most one cell."""
    k, l = sys.k, sys.l
    F = GF(sys.q)
    f = np.asarray(f, dtype=np.int64) % l
    g = np.asarray(g, dtype=np.int64) % l
    eta_inv, delta_inv = eta.inv(), delta.inv()
    V = [(vinv, _levi_sigma(sys, v)) for v, vinv in coset_reps(k, sys.q, delta)]
    cands = support_window(eta, delta)
    out = {}
    for u, uinv in coset_reps(k, sys.q, eta):
        su = _levi_sigma(sys, u)
        eu = weyl_mul_left(k, eta_inv, uinv)
        for vinv, sv in V:
            prefix = weyl_mul_left(k, delta_inv, lmat_mul(F, vinv, eu))
            vals = half_valuations(prefix, k)
            hits = [eps for eps in cands if valuations_admit(vals, eps)
                    and in_parabolic(F, weyl_mul_right(k, prefix, eps), k)]
            if len(hits) > 1:
                raise CellConflict("one coset pair fell into cells %r" % (hits,))
            for eps in hits:
                p2 = weyl_mul_right(k, prefix, eps)
                term = (su @ f @ sv @ g @ _levi_sigma(sys, p2)) % l
                out[eps] = (out.get(eps, 0) + term) % l
    return {eps: h for eps, h in out.items() if h.any()}
