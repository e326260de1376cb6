"""Reference models that the test files read.

Nothing in heckekit calls these; they restate facts of the Weyl group, of
the finite geometry and of the linear algebra in their own terms, so that
tests can check the package against them.  pytest does not collect this
module.
"""

from collections import Counter
from functools import lru_cache
from itertools import product

import numpy as np

from heckekit.errors import CellConflict, TooLarge, WindowExhausted
from heckekit.finhecke import min_poly
from heckekit.gfp import (
    GF,
    fq_rank,
    fq_rref,
    matmul_mod,
    nullspace_triplets,
    pnormalize,
    pscale,
    rank_mod,
    rref_mod,
    solve_mod,
)
from heckekit.modrep import RepModule, general_linear, intertwiners
from heckekit.residue import (
    _CAP,
    E,
    coset_reps,
    lmat_mul,
    parabolic_levi,
    support_window,
    weyl_left,
    weyl_right,
)
from heckekit.weyl import word_of


def grade(e):
    """Z/2 grading of a Weyl element; equals the letter count mod 2."""
    return (e.x + e.y + (1 if e.flip else 0)) % 2


def ends_on_w(e):
    _, letters = word_of(e)
    return bool(letters) and letters[-1] == "w"


def shape_class(e):
    """Which commutation pattern w . e^a falls into: A, B, C, D, or T.

    T is the pure odd translation t^{2x+1} (handled by length additivity,
    no commutation needed).  The square diagonal delta(x, x) sits in both
    the A and D patterns, whose formulas agree there; the square-with-flip
    t^{2x} w belongs to A (the letterwise patterns misfile it, but only A
    is consistent with the basic product [w][w] and centrality).
    """
    if not e.flip:
        if e.x < e.y:
            return "A"
        if e.x > e.y:
            return "D"
        return "A"
    if e.y == e.x + 1:
        return "T"
    if e.x < e.y:
        return "C"
    if e.x > e.y:
        return "B"
    return "A"


@lru_cache(maxsize=None)
def parabolic(k, q):
    """Every matrix of the block parabolic of GL_2k(q): invertible diagonal
    blocks and any upper-right block, |GL_k(q)|^2 q^(k^2) of them."""
    F = GF(q)
    blocks = [np.array(lab, dtype=np.int64).reshape(k, k)
              for lab in general_linear(k, F).labels]
    mats = []
    for A in blocks:
        for D in blocks:
            for vals in product(F.elements(), repeat=k * k):
                p = np.zeros((2 * k, 2 * k), dtype=np.int64)
                p[:k, :k], p[k:, k:] = A, D
                p[:k, k:] = np.reshape(vals, (k, k))
                mats.append(p)
    return mats


def coset_count(k, q):
    """(#P-cosets in the swap cell, total #G/P cosets), from the distinct
    row echelon labels of every full-rank tuple of k columns in F_q^2k; a
    label lies in the swap cell when its lower k x k block is invertible."""
    F = GF(q)
    labels = set()
    for vals in product(F.elements(), repeat=2 * k * k):
        cols = np.reshape(vals, (2 * k, k))
        R, piv = fq_rref(F, cols.T)
        if len(piv) == k:
            labels.add(tuple(map(tuple, R)))
    swap = sum(1 for lab in labels if fq_rank(F, np.array(lab)[:, k:]) == k)
    return swap, len(labels)


def ambient_in_parabolic(amb, g):
    """AmbientGL.in_parabolic as it was before GL_k(q) was indexed by block
    codes: a zero lower-left block, and both diagonal blocks of full rank
    by row reduction."""
    F, k = amb.F, amb.k
    if np.asarray(g)[k:, :k].any():
        return False
    return fq_rank(F, g[:k, :k]) == k and fq_rank(F, g[k:, k:]) == k


def block_mul(F, A, B):
    """A[i] @ B[i] over F_q for every i, A of shape (N, k, k) and B of
    shape (N, k, ...), through the MUL and ADD tables: the stacked product
    residue used before gfp.fq_matmul took stacks."""
    T = F.MUL[A.reshape(A.shape + (1,) * (B.ndim - 2)), B[:, None]]
    out = T[:, :, 0]
    for t in range(1, A.shape[2]):
        out = F.ADD[out, T[:, :, t]]
    return out


def tstar_group_algebra_power(k, q, l, m):
    """Coefficient array of (T*)^m in F_l[M x M], indexed by factor pairs.

    T* is the sum of the pairs (g, -g^{-1}) over g in M = GL_k(q).
    """
    M = general_linear(k, GF(q))
    rows = np.arange(M.n, dtype=np.int64)
    cols = M.NEG[M.INV]
    coeff = np.zeros((M.n, M.n), dtype=np.int64)
    coeff[0, 0] = 1
    for _ in range(m):
        nxt = np.zeros_like(coeff)
        ver = np.nonzero(coeff)
        for a, b in zip(*ver):
            c = coeff[a, b]
            np.add.at(nxt, (M.MUL[a, rows], M.MUL[b, cols]), c)
        coeff = nxt % l
    return coeff


def nullspace_rref(A, l):
    """Reduced nullspace basis of a dense A mod l, read off its echelon form:
    one row per free column, 1 there and minus the column's entries of R on
    the pivots."""
    A = np.asarray(A, dtype=np.int64)
    rows, cols = A.shape
    R, pivots = rref_mod(A, l)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-R[r, fc]) % l
    return basis


def kronecker_intertwiners(A_arrs, B_arrs, l, generators=None):
    """Basis of {X : X A[g] = B[g] X} from one dense Kronecker block per
    generator, kron(I, A[g]^T) - kron(B[g], I) on X row-major, stacked."""
    A_arrs = np.asarray(A_arrs)
    B_arrs = np.asarray(B_arrs)
    da, db = A_arrs.shape[1], B_arrs.shape[1]
    gens = list(generators if generators is not None else range(A_arrs.shape[0])) or [0]
    eye_a = np.eye(da, dtype=np.int64)
    eye_b = np.eye(db, dtype=np.int64)
    blocks = [(np.kron(eye_b, A_arrs[g].T) - np.kron(B_arrs[g], eye_a)) % l for g in gens]
    return [v.reshape(db, da) for v in nullspace_rref(np.concatenate(blocks, axis=0), l)]


def nullspace_mod(A, l):
    """Rows spanning {x : A x = 0 mod l}, in reduced form: nullspace_triplets
    on the nonzeros of the dense matrix A."""
    A = np.asarray(A, dtype=np.int64) % l
    if A.ndim != 2:
        raise ValueError("need a 2d array")
    r, c = np.nonzero(A)
    return nullspace_triplets(r, c, A[r, c], A.shape[1], l)


def matinv_mod(A, l):
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[0]
    assert A.shape == (n, n)
    R, pivots = rref_mod(np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1), l)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix not invertible mod %d" % l)
    return R[:, n:]


# ---------------------------------------------------------------------------
# dense polynomials mod l, little-endian coefficient tuples


def pmul(a, b, l):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x % l == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % l
    return pnormalize(out)


def pdivmod(a, b, l):
    a = list(pnormalize([x % l for x in a]))
    b = pnormalize([x % l for x in b])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    binv = pow(b[-1], -1, l)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        s = (a[-1] * binv) % l
        d = len(a) - len(b)
        q[d] = s
        for i, x in enumerate(b):
            a[d + i] = (a[d + i] - s * x) % l
        while a and a[-1] == 0:
            a.pop()
    return pnormalize(q), pnormalize(a)


def pmonic(a, l):
    a = pnormalize([x % l for x in a])
    if not a:
        return a
    return pscale(a, pow(a[-1], -1, l), l)


def pfactor(a, l, cap=100000):
    """Monic irreducible factors with multiplicity, by trial division;
    TooLarge rather than grind through a huge candidate space."""
    a = pnormalize([x % l for x in a])
    if len(a) < 2:
        raise ValueError("constant polynomial")
    a = pmonic(a, l)
    out = []
    d = 1
    n_cands = 0
    while len(a) - 1 >= 2 * d:
        n_cands += l ** d
        if n_cands > cap:
            raise TooLarge("factor search space too big")
        for tail in product(range(l), repeat=d):
            cand = pnormalize(list(tail) + [1])
            if len(cand) != d + 1:
                continue
            m = 0
            while True:
                q, r = pdivmod(a, cand, l)
                if r:
                    break
                a, m = q, m + 1
            if m:
                out.append((cand, m))
            if len(a) - 1 < 2 * d:
                break
        d += 1
    if len(a) > 1:
        out.append((a, 1))
    return out


# ---------------------------------------------------------------------------
# projective covers by splitting the regular module into indecomposables


def regular_module(G, l):
    A = np.zeros((G.n, G.n, G.n), dtype=np.int64)
    for g in range(G.n):
        A[g, G.MUL[g, np.arange(G.n)], np.arange(G.n)] = 1
    return RepModule(G, A, l, name="regular")


def _action_on_subspace(A_arrs, basis, l):
    """Restrict the ambient action to span(rows of basis); exact solve."""
    s = basis.shape[0]
    out = np.zeros((A_arrs.shape[0], s, s), dtype=np.int64)
    Bt = basis.T % l
    for g in range(A_arrs.shape[0]):
        img = (A_arrs[g] @ Bt) % l
        for col in range(s):
            sol = solve_mod(Bt, img[:, col], l)
            assert sol is not None, "subspace not stable"
            out[g, :, col] = sol
    return out


def _poly_at(p, M, l):
    out = np.zeros_like(M)
    P = np.eye(M.shape[0], dtype=np.int64)
    for c in p:
        out = (out + int(c) * P) % l
        P = (P @ M) % l
    return out


def _split_once(acts, l, rng):
    """One nontrivial G-stable direct-sum split of the full space, or None:
    min-poly factoring of End basis elements and of 25 random combinations,
    then a sweep of up to 2*10^5 endomorphisms for an idempotent."""
    dim = acts.shape[1]
    E = intertwiners(acts, acts, l)
    if len(E) == 1:
        return None
    cands = [e.copy() for e in E]
    for _ in range(25):
        coef = rng.integers(0, l, size=len(E))
        z = np.zeros((dim, dim), dtype=np.int64)
        for c, e in zip(coef, E):
            z = (z + int(c) * e) % l
        cands.append(z)
    for z in cands:
        m = min_poly(z, l)
        if len(m) < 2:
            continue
        fac = pfactor(m, l)
        if len(fac) < 2:
            continue
        p0, mult0 = fac[0]
        part = p0
        for _ in range(mult0 - 1):
            part = pmul(part, p0, l)
        rest = pdivmod(m, part, l)[0]
        k1 = nullspace_mod(_poly_at(part, z, l), l)
        k2 = nullspace_mod(_poly_at(rest, z, l), l)
        assert k1.shape[0] + k2.shape[0] == dim
        assert k1.shape[0] and k2.shape[0]
        return k1, k2
    if l ** len(E) <= 2 * 10**5:
        eye = np.eye(dim, dtype=np.int64)
        for code in range(1, l ** len(E)):
            e = np.zeros((dim, dim), dtype=np.int64)
            for i in range(len(E)):
                c = (code // l**i) % l
                if c:
                    e = (e + c * E[i]) % l
            if not e.any() or np.array_equal(e, eye):
                continue
            if np.array_equal((e @ e) % l, e):
                k1 = nullspace_mod(e, l)
                k2 = nullspace_mod((eye - e) % l, l)
                assert k1.shape[0] + k2.shape[0] == dim
                return k1, k2
        return None  # End is local: indecomposable
    raise TooLarge("cannot decide decomposability")


def split_indecomposable(rep, seed=0):
    """Bases (rows, ambient coords) of indecomposable summands of rep."""
    rng = np.random.default_rng(seed)
    done = []
    todo = [np.eye(rep.dim, dtype=np.int64)]
    while todo:
        basis = todo.pop()
        acts = (
            rep.A
            if basis.shape[0] == rep.dim and np.array_equal(basis, np.eye(rep.dim, dtype=np.int64))
            else _action_on_subspace(rep.A, basis, rep.l)
        )
        got = _split_once(acts, rep.l, rng)
        if got is None:
            done.append(basis)
            continue
        for sub in got:
            todo.append((sub @ basis) % rep.l)
    return done


def splitting_cover(rep):
    """(cover, witness, multiplicity): the summand of the regular module that
    maps onto rep, a witness idempotent on the regular module whose image
    is that summand, and how many summands map onto rep."""
    G, l = rep.G, rep.l
    reg = regular_module(G, l)
    pieces = split_indecomposable(reg)
    stacked = np.concatenate(pieces, axis=0) % l
    assert rank_mod(stacked, l) == G.n, "summands do not fill the regular module"
    hits = []
    for i, basis in enumerate(pieces):
        acts = _action_on_subspace(reg.A, basis, l)
        hom = intertwiners(acts, rep.A, l, generators=G.generators)
        if hom:
            hits.append((i, len(hom)))
    assert hits, "no summand maps onto the module"
    dims = {pieces[i].shape[0] for i, _ in hits}
    assert len(dims) == 1, "candidate covers of different sizes: %s" % dims
    assert len(hits) == rep.dim, "multiplicity %d != dim %d" % (len(hits), rep.dim)
    pick = hits[0][0]
    # witness idempotent: coordinate projection conjugated into ambient terms
    Binv = matinv_mod(stacked.T, l)
    sel = np.zeros(G.n, dtype=np.int64)
    off = sum(p.shape[0] for p in pieces[:pick])
    sel[off : off + pieces[pick].shape[0]] = 1
    e = (stacked.T @ np.diag(sel) @ Binv) % l
    assert np.array_equal((e @ e) % l, e)
    for g in G.generators:
        assert np.array_equal((e @ reg.A[g]) % l, (reg.A[g] @ e) % l)
    acts = _action_on_subspace(reg.A, pieces[pick], l)
    return RepModule(G, acts, l, name="P(%s)" % rep.name), e, len(hits)


def int64_combine(be, ca, cb, pairs):
    """MatrixCoefficients.combine as it was in int64: each of its three
    products (the pairs ca[i].cb[k], T*^j on them, the scalar sum into the
    outputs) is a separate gfp.matmul_mod, converted back to int64."""
    d, l = be.system.dim, be.l
    cols, shifts, outs, entries = {}, {}, {}, []
    for i, k, terms in pairs:
        for eps, s, j in terms:
            col = cols.get((i, k, j))
            if col is None:
                col = cols[i, k, j] = len(cols)
                shifts.setdefault(j, []).append((i, k, col))
            entries.append((outs.setdefault(eps, len(outs)), col, s))
    if not entries:
        return {}
    na, nb = len(ca), len(cb)
    P = matmul_mod(np.reshape(ca, (na * d, d)), np.concatenate(cb, axis=1), l)
    P = P.reshape(na, d, nb, d)
    X = np.empty((len(cols), d, d), dtype=np.int64)
    for j, rows in shifts.items():
        i, k, col = np.array(rows).T
        S = P[i, :, k, :]
        if j:
            m = len(col)
            S = matmul_mod(be.system.tstar_power(j), S.transpose(1, 0, 2).reshape(d, m * d), l)
            S = S.reshape(d, m, d).transpose(1, 0, 2)
        X[col] = S
    e, col, s = np.array(entries).T
    C = np.zeros((len(outs), len(cols)), dtype=np.int64)
    C[e, col] = s
    Y = matmul_mod(C, X.reshape(len(cols), d * d), l)
    keep = Y.any(axis=1)
    return {eps: Y[r].reshape(d, d) for eps, r in outs.items() if keep[r]}


def int_fin_mul(a, b):
    """finhecke.fin_mul's closed formulas as they were on int64, here on
    Python ints: (f1 g1 + tau fw gw, f1 gw + fw g1 + T* fw gw) mod l."""
    s = a.sys
    f1, fw, g1, gw, ts = (np.asarray(x).astype(object) for x in (a.f1, a.fw, b.f1, b.fw, s.tstar))
    return (f1 @ g1 + s.tau * (fw @ gw)) % s.l, (f1 @ gw + fw @ g1 + ts @ fw @ gw) % s.l


# ---------------------------------------------------------------------------
# the two-sided residue oracle: every coset pair (u, v) against every cell


_ROWS = 256  # coset pairs per stacked product: the largest transversal


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


def two_sided_oracle_product(sys, eta, f, delta, g):
    """residue.oracle_product as it was before it solved for v: every coset
    pair (u, v), u in P/P^(eta) and v in P/P^(delta), is tested against
    every eps of the support window at the actual eta and delta, on stacks
    of up to _ROWS pairs, and must land in at most one cell.

    v^-1 eta^-1 u^-1 for a run of u is one batched lmat_mul; a valuation
    prefilter over (pairs x eps) rejects most eps before p2 is built, and
    the pairs an eps admits are judged by parabolic_levi.  Hits are counted
    by (cell, Levi(u), Levi(v), Levi(p2)), each distinct key forming its one
    term rho(u) f rho(v) g rho(p2), times its count; Levi(p2) is held as
    parabolic_levi's codes and looked up in sys.M.of_code per term."""
    k, l = sys.k, sys.l
    F = GF(sys.q)
    f = np.asarray(f, dtype=np.int64) % l
    g = np.asarray(g, dtype=np.int64) % l
    V = coset_reps(k, sys.q, delta)
    U = coset_reps(k, sys.q, eta)
    of_code = sys.M.of_code
    levi_u = [tuple(of_code[list(c)].tolist()) for c in parabolic_levi(F, U[:, 0], k)]
    levi_v = [tuple(of_code[list(c)].tolist()) for c in parabolic_levi(F, V[:, 0], k)]
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
            levi = parabolic_levi(F, weyl_right(k, prefix[vs, us], cands[c]), k)
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
        term = (left[lu, lv] @ sys.sigma(*of_code[list(lp)])) % l
        out[eps] = (out.get(eps, 0) + count * term) % l
    return {eps: h for eps, h in out.items() if h.any()}
