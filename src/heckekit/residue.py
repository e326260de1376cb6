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
transversal.  The product of two basis functions is the convolution
(f * g)(eps) = sum over y in G/P of f(y) g(y^-1 eps) (Bushnell and Kutzko,
The admissible dual of GL(N) via compact open subgroups, section 4):

    ([eta]_f * [delta]_g)(eps)
        = sum over u in P/P^(eta), v in P/P^(delta)
          of  rho(u) f rho(v) g rho(p2),   p2 = delta^-1 v^-1 eta^-1 u^-1 eps,

with only the pairs where p2 lands in P contributing.  The support of the
result is pinned exactly: the determinant fixes x+y, and valuations bound
x from both sides.  Weyl matrices are monomial, so eta^-1, delta^-1 and eps
are applied as a permutation plus an exponent shift.

For fixed u and eps at most one v contributes, and it is solved for, not
searched: its digits are the pi-adic truncation of Y Z^-1, where Z is the
diagonal block of p2 in the rows v leaves alone and Y the block above or
below it (see _solve).  p2 is then built, and a valuation mask plus the
determinants of its residue diagonal blocks judge membership in P.  Every
transversal representative is unipotent, so rho(u) = rho(v) = 1, and the
hits depend on the group geometry only: per cell, the count of each Levi
factor of p2, as the codes of its two blocks (gfp.fq_code).  t = W(0, 1,
flip), the matrix [[0, I], [pi I, 0]], normalises P, and t^2 = z = W(1, 1)
is central.  Conjugation by t carries the transversal of P/P^(eta) onto
that of P/P^(t eta) digit for digit, and P^(delta t) = P^(delta), so the
hits of (t^m eta, delta t^n) are those of (eta, delta) with every cell
eps carried to t^m eps t^n, and for odd n p2 to t^-1 p2 t, which swaps its
two Levi blocks.  The hits are solved once per (k, q) and pair of the
representatives W(0, d), |d| <= 2, unflipped: one solve for each t-orbit
of 4 of the 100 pairs of central classes, into a bounded cache.  Per
system, each cell's sum S = sum count rho(p2) mod l, of_code taking each
code to its Levi index, is formed once per representative pair and parity
of n, into a second; a call is then one int64 product (f g) S over every
cell at once.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np

from .errors import CellConflict, GapTooLarge, TooLarge, WindowExhausted
from .gfp import GF, fq_code, fq_matmul, fq_rank
from .weyl import W, t_power

_CAP = 16
E = 2 * _CAP + 1
_STACK = 1024  # matrices per stacked solve: u-cosets times cells
# u-cosets times cells of one oracle_product: 256 x 18 = 4,608 at most for
# (k, q) = (2, 2), and 5,041 x 18 = 90,738 for a gap-2 product at (1, 71);
# a product the two-sided enumeration admitted (65,536 coset pairs, at most
# 65,536 u-cosets against a gap-0 delta) is at most 65,536 x 14 = 917,504
_MAX_PAIRS = 2**20

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
    n = 2 * k
    return weyl_right_cells(k, A.reshape(-1, n, n, E), [e])[:, 0].reshape(A.shape)


def weyl_right_cells(k, A, cands):
    """weyl_right(k, A, eps) for every eps of cands, A of shape
    (N, 2k, 2k, E), stacked on a new axis 1: one gather from A padded along
    its slots.  WindowExhausted where a nonzero coefficient would leave the
    window."""
    n = 2 * k
    src = np.array([[(j + k) % n if e.flip else j for j in range(n)] for e in cands])
    shift = np.where(src < k, [[e.x] for e in cands], [[e.y] for e in cands])
    occupied = A.any(axis=(0, 1))  # (source column, slot)
    for col, sh in zip(src.ravel().tolist(), shift.ravel().tolist()):
        if _lost(occupied[col], sh).any():
            raise WindowExhausted("exponents shifted by %+d leave the window" % sh)
    shift = shift.clip(-E, E)  # past E a column is empty, and stays so
    pad = int(np.abs(shift).max())
    wide = np.zeros(A.shape[:-1] + (E + 2 * pad,), dtype=A.dtype)
    wide[..., pad : pad + E] = A
    slots = np.arange(E) - shift[:, :, None] + pad
    return wide[:, :, src[:, :, None], slots].transpose(0, 2, 1, 3, 4)


def in_parabolic(F, M, k):
    """Membership in P of one matrix: integral, deep lower-left, unit
    diagonal blocks.  The reference for parabolic_levi, which the oracle
    calls instead."""
    if M[:, :, :_CAP].any() or M[k:, :k, _CAP].any():
        return False
    return fq_rank(F, M[:k, :k, _CAP]) == k and fq_rank(F, M[k:, k:, _CAP]) == k


def parabolic_levi(F, P, k):
    """in_parabolic for every matrix of the stack P, of shape
    (N, 2k, 2k, E), with its Levi factor: per matrix, the codes
    (gfp.fq_code) of its two residue diagonal blocks, or None where the
    matrix is not integral with a deep lower left, or where a block is
    singular."""
    res = P[..., _CAP]
    blocks = np.stack([res[:, :k, :k], res[:, k:, k:]], 1)
    inside = ~(P[:, :, :, :_CAP].any(axis=(1, 2, 3)) | res[:, k:, :k].any(axis=(1, 2)))
    inside &= _block_inverse(F, blocks.reshape(-1, k, k))[1].reshape(-1, 2).all(1)
    codes = fq_code(F, blocks).tolist()
    return [tuple(c) if ok else None for ok, c in zip(inside.tolist(), codes)]


def _block_inverse(F, Z):
    """(Z^-1, unit) for the stack Z of shape (N, k, k), k = 1 or 2: the
    adjugate over the determinant, and whether the determinant is nonzero;
    a singular Z gets a zero inverse."""
    if Z.shape[1] == 1:
        det, adj = Z[:, 0, 0], np.ones_like(Z)
    else:
        a, b, c, d = Z[:, 0, 0], Z[:, 0, 1], Z[:, 1, 0], Z[:, 1, 1]
        det = F.ADD[F.MUL[a, d], F.NEG[F.MUL[b, c]]]
        adj = np.stack([d, F.NEG[b], F.NEG[c], a], -1).reshape(Z.shape)
    return F.MUL[F.INV[det][:, None, None], adj], det != 0


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
    """u-cosets times cells that oracle_product solves for [eta] * [delta]
    when their t-orbit is not cached: q^(k^2 gap eta) cosets u, against
    every cell of the support; TooLarge above _MAX_PAIRS."""
    _deepened(delta)  # GapTooLarge past gap 2
    cells = 2 * (abs(eta.y - eta.x) + abs(delta.y - delta.x) + 3)  # len(support_window)
    count = q ** (k * k * _deepened(eta)[1]) * cells
    if count > _MAX_PAIRS:
        raise TooLarge("%d u-cosets x cells for %r * %r over q=%d; at most %d"
                       % (count, eta, delta, q, _MAX_PAIRS))
    return count


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
    reps = _unipotents(GF(q), k, side, e, 0, q ** (k * k * e))
    reps.flags.writeable = False
    return reps


def _unipotents(F, k, side, e, start, stop):
    """Representatives start..stop-1 of the transversal for (side, e), in
    its lexicographic order, each with its inverse: shape
    (stop - start, 2, 2k, 2k, E)."""
    n, m = 2 * k, k * k * e
    idx = np.arange(start, stop, dtype=np.int64)
    digits = idx[:, None] // F.q ** np.arange(m - 1, -1, -1, dtype=np.int64) % F.q
    digits = digits.reshape(len(idx), e, k, k)
    reps = np.zeros((len(idx), 2, n, n, E), dtype=np.int64)
    reps[:, :, range(n), range(n), _CAP] = 1
    rows, cols, base = (slice(k), slice(k, n), _CAP) if side == "ur" else (
        slice(k, n), slice(k), _CAP + 1)
    for d in range(e):
        reps[:, 0, rows, cols, base + d] = digits[:, d]
        reps[:, 1, rows, cols, base + d] = F.NEG[digits[:, d]]
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


def central_class(e):
    """(representative, a) with e = z^a . representative, z = W(1, 1)
    central and the representative W(0, y - x, flip)."""
    return W(0, e.y - e.x, e.flip), e.x


def t_class(e, left):
    """(W(0, d), m), unflipped, with e = t^m . W(0, d) if left, else
    e = W(0, d) . t^m; t = W(0, 1, flip), t^2 = z."""
    if not e.flip:
        return W(0, e.y - e.x, False), 2 * e.x
    if left:
        return W(0, e.x - e.y + 1, False), 2 * e.y - 1
    return W(0, e.y - e.x - 1, False), 2 * e.x + 1


def _solve(F, k, delta, X):
    """For the stack X of shape (N, 2k, 2k, E): the rows where some v of
    P/P^(delta) can put p2 = delta^-1 v^-1 X in P, that one v's index in
    the transversal for each, and its p2.

    v^-1 = 1 - V with V the one deepened block of v, of e digits (from pi^0
    in the upper right, from pi^1 in the lower left), so v^-1 changes only
    the rows V sits in.  The other rows of X, scaled by pi^-delta.y (upper
    right) or pi^-delta.x (lower left), give p2 a diagonal block Z, and in
    the same column half the changed rows must reach the floor of P: that
    fixes V = pi^-s Y Z^-1 truncated to V's digits, Y being those rows'
    block of X.  Z's residue must be a unit, else no v puts p2 in P; the
    digits are solved one by one against its inverse, and whether p2 is in
    P is left to the caller."""
    side, e = _deepened(delta)
    n = 2 * k
    if side == "ur":
        changed, kept, s, base = slice(k), slice(k, n), delta.y, 0
    else:
        changed, kept, s, base = slice(k, n), slice(k), delta.x, 1
    half = slice(k, n) if (side == "ur") != delta.flip else slice(k)
    inv, unit = _block_inverse(F, X[:, kept, half, _CAP + s])
    rows = np.flatnonzero(unit)
    X, inv = X[rows], inv[rows]
    Z = X[:, kept, half, _CAP + s : _CAP + s + e]
    Y = X[:, changed, half, _CAP + s + base : _CAP + s + base + e]
    digits = np.zeros((len(rows), e, k, k), dtype=np.int64)
    for d in range(e):
        r = Y[..., d]
        for d2 in range(d):
            r = F.ADD[r, F.NEG[fq_matmul(F, digits[:, d2], Z[..., d - d2])]]
        digits[:, d] = fq_matmul(F, r, inv)
    p2, kept_rows = X.copy(), X[:, kept].reshape(len(rows), k, n * E)
    for d in range(e):
        moved = np.zeros_like(p2[:, changed])
        _shift_into(moved, fq_matmul(F, digits[:, d], kept_rows).reshape(moved.shape), base + d)
        p2[:, changed] = F.ADD[p2[:, changed], F.NEG[moved]]
    # v's index in the transversal is the code of its digits, read in order
    v = fq_code(F, digits.reshape(len(rows), e * k, k))
    return rows, v, weyl_left(k, delta.inv(), p2)


# a (k, q) has 100 pairs of central classes of gap <= 2, in 25 t-orbits
# of 4, and the oracle solves each orbit once
@lru_cache(maxsize=256)
def class_hits(k, q, eta, delta):
    """The hits of [eta] * [delta]: per cell eps of the support, in the order
    a loop over (u, v) first meets it, the pairs (codes of p2's residue
    diagonal blocks, count).  The oracle asks only at t-class
    representatives (see t_class), through class_sums.

    Group geometry only, so systems with the same (k, q) share it.  For
    each u and cell, _solve gives the one candidate v; a (u, v) that lands
    in two cells is a CellConflict, which is raised, not cached."""
    F = GF(q)
    side, e = _deepened(eta)
    cands = support_window(eta, delta)
    cosets, step = q ** (k * k * e), max(1, _STACK // len(cands))
    hits = []  # (u, v, cell, codes of p2's diagonal blocks)
    for start in range(0, cosets, step):
        U = _unipotents(F, k, side, e, start, min(start + step, cosets))
        EU = weyl_left(k, eta.inv(), U[:, 1])
        X = weyl_right_cells(k, EU, cands)
        rows, vs, p2 = _solve(F, k, delta, X.reshape((-1,) + X.shape[2:]))
        hits += [(start + r // len(cands), v, r % len(cands), lp)
                 for r, v, lp in zip(rows.tolist(), vs.tolist(), parabolic_levi(F, p2, k))
                 if lp is not None]
    # (u, v) order: two hits of one pair sit side by side, and cells are
    # listed in the order a loop over the pairs meets them
    hits.sort(key=lambda h: h[:2])
    for (u, v, a, _), (u2, v2, b, _) in zip(hits, hits[1:]):
        if (u, v) == (u2, v2):
            raise CellConflict("one coset pair fell into cells %r" % ([cands[a], cands[b]],))
    cells = {}
    for _, _, c, lp in hits:
        cells.setdefault(cands[c], Counter())[lp] += 1
    return tuple((eps, tuple(counts.items())) for eps, counts in cells.items())


# 25 representative pairs per (k, q), each at both parities of n: 50 per system
@lru_cache(maxsize=256)
def class_sums(sys, eta, delta, odd):
    """(cells, S): the cells eps of class_hits(eta, delta), in its order,
    whose S_eps = sum count sigma(p2) mod l is nonzero, and those sums as a
    read-only int64 stack (cells, dim, dim).  For odd n, p2 is t^-1 p2 t,
    t^-1 [[A, B], [pi C, D]] t = [[D, C], [pi B, A]]: its Levi codes swap."""
    l, of_code = sys.l, sys.M.of_code
    cells, sums = [], []
    for eps, levis in class_hits(sys.k, sys.q, eta, delta):
        acc = 0
        for codes, count in levis:
            c1, c2 = codes[::-1] if odd else codes
            acc = (acc + count * sys.sigma(of_code[c1], of_code[c2])) % l
        if acc.any():
            cells.append(eps)
            sums.append(acc)
    S = np.array(sums, dtype=np.int64).reshape(len(sums), sys.dim, sys.dim)
    S.flags.writeable = False
    return tuple(cells), S


def oracle_product(sys, eta, f, delta, g):
    """{eps: h_eps} with [eta]_f * [delta]_g = sum [eps]_{h_eps}; brute force.

    More than _MAX_PAIRS u-cosets times cells raise TooLarge before any is
    built or a cache is read, and so does a system where the int64
    products f g and (f g) S could wrap: each sums dim products of
    residues, so dim*(l-1)^2 must be below 2^63.  With eta = t^m eta0 and
    delta = delta0 t^n, every cell is one product (f g) S_eps of
    class_sums at (eta0, delta0) and the parity of n, carried to
    t^m eps t^n; f g = 0 mod l returns {} before it, after every refusal."""
    k, l = sys.k, sys.l
    if sys.dim * (l - 1) ** 2 >= 2**63:
        raise TooLarge("dim %d mod l=%d is not exact in int64" % (sys.dim, l))
    pair_count(k, sys.q, eta, delta)
    (eta0, m), (delta0, n) = t_class(eta, True), t_class(delta, False)
    cells, S = class_sums(sys, eta0, delta0, n % 2 == 1)
    fg = (np.asarray(f, dtype=np.int64) % l) @ (np.asarray(g, dtype=np.int64) % l) % l
    if not fg.any():
        return {}
    tm, tn = t_power(m), t_power(n)
    return {tm * eps * tn: h for eps, h in zip(cells, fg @ S % l) if h.any()}
