"""Reference models that more than one test file reads.

Nothing in heckekit calls these; they restate facts of the Weyl group, of
the finite geometry and of the linear algebra in their own terms, so that
tests can check the package against them.  pytest does not collect this
module.
"""

from functools import lru_cache
from itertools import product

import numpy as np

from heckekit.gfp import GF, fq_rank, fq_rref, rref_mod
from heckekit.modrep import general_linear
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
