"""Reference models that more than one test file reads.

Nothing in heckekit calls these; they restate facts of the Weyl group and
of the finite geometry in their own terms, so that tests can check the
package against them.  pytest does not collect this module.
"""

import numpy as np

from heckekit.finhecke import AmbientGL
from heckekit.gfp import GF
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


def coset_count(k, q):
    """(#P-cosets in the swap cell, total #G/P cosets)."""
    amb = AmbientGL(k, q)
    swap = sum(1 for _, _, d in amb.bruhat.values() if d == k)
    return swap, amb.count


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
