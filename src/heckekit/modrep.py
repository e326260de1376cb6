"""Finite group tables, modular representations, and coefficient systems.

The groups here are tiny (units of F_q and GL_2 of a tiny field), so
everything is done through dense multiplication tables on indices, with the
identity always at index 0.  The product M x M of two copies is not
tabulated: its elements are pairs of indices, and the rows of its table
that a check reads come from the two factor tables.  Representations are
stored as stacks of matrices mod l, one per group index, and validated on
construction.

The end product is a CoefficientSystem: the module V over M x M together
with its self-intertwiners I_1, its swap-intertwiners I_w, the central
element T* = sum_g (g, -g^{-1}) acting on V, and the index parameter tau.
Those five things are all any Hecke-algebra computation downstream needs.
Intertwiner spaces are solved from the equations X A(g) = B(g) X as sparse
triplets read off the nonzeros of A(g) and B(g), never as Kronecker blocks.
The projective cover P of a cuspidal module is induced from a cyclic
l'-complement of the group's normal Sylow l-subgroup, in one step with no
search; the size of V = P # P (+) dual is checked before it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod

import numpy as np

from .errors import (
    BadCharacteristic,
    BadCount,
    EmptyIntertwiners,
    NotACharacter,
    NotAGroup,
    NotAHomomorphism,
    NotBiEquivariant,
    NotCuspidal,
    NotIrreducible,
    TooLarge,
    UnknownModule,
    UnsupportedGroup,
)
from .gfp import GF, fq_matmul, nullspace_triplets, rank_mod, solve_mod
from .numth import _factor_prime_power, is_prime


# ---------------------------------------------------------------------------
# group tables


class FiniteGroupTable:
    """Dense multiplication table on indices 0..n-1, identity at 0."""

    def __init__(self, labels, mul_fn, neg_fn=None, kind=""):
        labels = list(labels)
        ident = None
        for e in labels:
            if all(mul_fn(e, x) == x for x in labels[:3]) and all(
                mul_fn(x, e) == x for x in labels[:3]
            ):
                if all(mul_fn(e, x) == x for x in labels):
                    ident = e
                    break
        if ident is None:
            raise NotAGroup("no identity among %d labels" % len(labels))
        labels.remove(ident)
        labels.insert(0, ident)
        self.labels = labels
        self.n = len(labels)
        self.index = {lab: i for i, lab in enumerate(labels)}
        self.kind = kind
        self.MUL = np.zeros((self.n, self.n), dtype=np.int64)
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                self.MUL[i, j] = self.index[mul_fn(a, b)]
        self.INV = np.zeros(self.n, dtype=np.int64)
        for i in range(self.n):
            hits = np.nonzero(self.MUL[i] == 0)[0]
            if hits.size != 1:
                raise NotAGroup("label %r has %d right inverses" % (labels[i], hits.size))
            self.INV[i] = hits[0]
        if neg_fn is not None:
            self.NEG = np.array([self.index[neg_fn(a)] for a in labels], dtype=np.int64)
        else:
            self.NEG = None
        self._generators = None  # found on first use, or set by unit_group

    def row(self, g):
        """The index of g h for every index h."""
        return self.MUL[g]

    @property
    def generators(self):
        if self._generators is None:
            self._generators = self._find_generators()
        return self._generators

    def _find_generators(self):
        gens = []
        reach = np.zeros(self.n, dtype=bool)
        reach[0] = True
        for i in range(self.n):
            if reach[i]:
                continue
            gens.append(i)
            reach[i] = True
            while True:
                idx = np.nonzero(reach)[0]
                new = np.unique(self.MUL[np.ix_(idx, idx)])
                if reach[new].all():
                    break
                reach[new] = True
        return gens


def unit_group(F):
    G = FiniteGroupTable(
        list(F.units()), F.mul, neg_fn=F.neg, kind="units"
    )
    G.F = F
    G.k = 1
    gen = F.unit_generator()
    G._generators = [G.index[gen]] if F.q > 2 else []
    return G


def _gl_order(k, q):
    """|GL_k(F_q)| for the k that general_linear builds, 1 or 2."""
    if k < 1:
        raise BadCount("k=%d; need at least 1" % k)
    if k > 2:
        raise TooLarge("only k <= 2")
    return prod(q**k - q**i for i in range(k))


def general_linear(k, F):
    """GL_k(F) as a table; k = 1 or 2 only."""
    _gl_order(k, F.q)  # BadCount or TooLarge unless k is 1 or 2
    if k == 1:
        return unit_group(F)
    labels = []
    for a in F.elements():
        for b in F.elements():
            for c in F.elements():
                for d in F.elements():
                    m = ((a, b), (c, d))
                    if F.sub(F.mul(a, d), F.mul(b, c)) != 0:
                        labels.append(m)

    def mul(m1, m2):
        prod = fq_matmul(F, np.array(m1), np.array(m2))
        return tuple(tuple(int(v) for v in row) for row in prod)

    def neg(m):
        return tuple(tuple(F.neg(v) for v in row) for row in m)

    G = FiniteGroupTable(labels, mul, neg_fn=neg, kind="gl")
    G.F = F
    G.k = 2
    return G


# elements of the largest product group built: the action stack of a module
# over it holds one matrix per element
_MAX_PRODUCT = 5000


def _refuse_large_product(n):
    """TooLarge for a product group of n > _MAX_PRODUCT elements, before a
    module's action stack over it or boxtimes' loop is built."""
    if n > _MAX_PRODUCT:
        raise TooLarge("a product group of %d elements: a module over it stacks one matrix"
                       " per element, and boxtimes forms each; at most %d" % (n, _MAX_PRODUCT))


class ProductGroup:
    """G1 x G2 on the indices i * n2 + j, without a multiplication table."""

    def __init__(self, G1, G2):
        n1, n2 = G1.n, G2.n
        _refuse_large_product(n1 * n2)
        self.factors = (G1, G2)
        self.n = n1 * n2
        self.INV = (G1.INV[:, None] * n2 + G2.INV[None, :]).reshape(self.n)
        self.generators = [i * n2 for i in G1.generators] + list(G2.generators)

    def row(self, g):
        """The index of g h for every index h, from the two factor rows."""
        G1, G2 = self.factors
        i, j = divmod(g, G2.n)
        return (G1.MUL[i][:, None] * G2.n + G2.MUL[j][None, :]).reshape(self.n)


def pair_index(P, i, j):
    return i * P.factors[1].n + j


def swap_permutation(P):
    """Index permutation (i, j) -> (j, i) on a product of equal-size factors."""
    n = P.factors[1].n
    return (np.arange(P.n) % n) * n + np.arange(P.n) // n


# ---------------------------------------------------------------------------
# representations


class RepModule:
    """A stack of matrices mod l realizing an action of a group table."""

    def __init__(self, G, A, l, name="", validate=True):
        self.G = G
        self.A = np.asarray(A, dtype=np.int64) % l
        self.l = l
        self.name = name
        self.dim = self.A.shape[-1]
        if self.A.shape != (G.n, self.dim, self.dim):
            raise NotAHomomorphism("a stack of shape %s cannot act for a group of order %d"
                                   % (self.A.shape, G.n))
        if validate:
            self.validate()

    def validate(self):
        """Raise NotAHomomorphism unless the identity acts as 1 and
        A[g h] = A[g] A[h] for every generator g and every h."""
        if not np.array_equal(self.A[0], np.eye(self.dim, dtype=np.int64)):
            raise NotAHomomorphism("the identity does not act as 1 on %r" % self)
        for g in self.G.generators:
            lhs = self.A[self.G.row(g)]
            rhs = np.matmul(self.A[g], self.A) % self.l
            if not np.array_equal(lhs, rhs):
                raise NotAHomomorphism("%r is not a homomorphism at generator %d" % (self, g))

    def __repr__(self):
        return "RepModule(%s, dim=%d, l=%d)" % (self.name or "?", self.dim, self.l)


def contragredient(rep):
    A = rep.A[rep.G.INV].transpose(0, 2, 1)
    return RepModule(rep.G, A, rep.l, name=rep.name + "*")


def direct_sum(r1, r2):
    d1, d2 = r1.dim, r2.dim
    A = np.zeros((r1.G.n, d1 + d2, d1 + d2), dtype=np.int64)
    A[:, :d1, :d1] = r1.A
    A[:, d1:, d1:] = r2.A
    return RepModule(r1.G, A, r1.l, name="%s+%s" % (r1.name, r2.name))


def boxtimes(r1, r2, P):
    """Outer tensor product over the product table P of the two groups."""
    d = r1.dim * r2.dim
    A = np.zeros((P.n, d, d), dtype=np.int64)
    for i in range(r1.G.n):
        for j in range(r2.G.n):
            A[pair_index(P, i, j)] = np.kron(r1.A[i], r2.A[j]) % r1.l
    return RepModule(P, A, r1.l, name="%s#%s" % (r1.name, r2.name))


# ---------------------------------------------------------------------------
# intertwiners and irreducibility


# unknowns of one intertwiner system: dim 32 against dim 32 is the largest
# module pair any configuration builds; the equations are sparse, but the
# basis can hold unknowns^2 int64 entries (every X intertwines a trivial
# action), 8 MiB at this bound
_MAX_UNKNOWNS = 1024


def intertwiners(A_arrs, B_arrs, l, generators=None):
    """Basis of {X : X A[g] = B[g] X}, each a (dimB x dimA) matrix.

    The unknowns are the entries of X, row-major.  Equation (g, i, j) is
    sum_k X[i, k] A[g][k, j] - sum_k B[g][i, k] X[k, j] = 0, so each
    nonzero of A[g] enters db equations and each nonzero of B[g] enters
    da; those (row, column, value) triplets go to gfp.nullspace_triplets.
    """
    A_arrs = np.asarray(A_arrs)
    B_arrs = np.asarray(B_arrs)
    n, da = A_arrs.shape[0], A_arrs.shape[1]
    db = B_arrs.shape[1]
    if da * db > _MAX_UNKNOWNS:
        raise TooLarge("intertwiners between modules of dimension %d and %d: %d unknowns, "
                       "at most %d" % (da, db, da * db, _MAX_UNKNOWNS))
    gens = list(generators if generators is not None else range(n)) or [0]
    A, B = A_arrs[gens] % l, B_arrs[gens] % l
    g, k, j = np.nonzero(A)
    i = np.arange(db)[:, None]
    rows_a, cols_a = (g * db + i) * da + j, i * da + k
    vals_a = np.broadcast_to(A[g, k, j], rows_a.shape)
    g, i, k = np.nonzero(B)
    j = np.arange(da)[:, None]
    rows_b, cols_b = (g * db + i) * da + j, k * da + j
    vals_b = np.broadcast_to(-B[g, i, k], rows_b.shape)
    ns = nullspace_triplets(
        np.concatenate([rows_a.ravel(), rows_b.ravel()]),
        np.concatenate([cols_a.ravel(), cols_b.ravel()]),
        np.concatenate([vals_a.ravel(), vals_b.ravel()]),
        da * db, l,
    )
    return [v.reshape(db, da) for v in ns]


def is_absolutely_irreducible(rep):
    """Burnside: the group's matrices span all of M_d(F_l)."""
    d = rep.dim
    return rank_mod(rep.A.reshape(rep.G.n, d * d), rep.l) == d * d


def is_cuspidal(rep):
    """No coinvariants for the unipotent upper-triangular subgroup."""
    G = rep.G
    kind = getattr(G, "kind", "")
    if kind == "units":
        return True
    if kind != "gl" or G.k != 2:
        raise UnsupportedGroup("cuspidality is tested on GL_1 and GL_2 only, not on a %s"
                               " of kind %r" % (type(G).__name__, kind))
    F = G.F
    rows = []
    for x in F.elements():
        if x == 0:
            continue
        u = ((1, x), (0, 1))
        rows.append((rep.A[G.index[u]] - np.eye(rep.dim, dtype=np.int64)) % rep.l)
    if not rows:
        return True
    return rank_mod(np.concatenate(rows, axis=0), rep.l) == rep.dim


# ---------------------------------------------------------------------------
# irreducible enumeration (absolutely irreducible only)


def irreducible_modules(G, l):
    """Named absolutely irreducible modules of G over F_l.

    Covers the two group shapes this package builds: cyclic unit groups
    (F_l-valued characters) and GL_2(F_2).  Galois orbits of characters
    with values outside F_l are deliberately not enumerated.
    """
    if G.kind == "units":
        return _unit_characters(G, l)
    if G.kind == "gl" and G.k == 2 and G.F.q == 2:
        return _gl2_of_f2_modules(G, l)
    raise TooLarge("no irreducible enumeration for this group")


def _root_of_unity(m, l):
    """(g, zeta): the m-th roots of unity mod a prime l are the cyclic group
    of order g = gcd(m, l - 1), and zeta is its least element of order g.

    z^((l-1)/g) generates the group for the first z whose power has no
    smaller order, so nothing scans the residues mod l."""
    if not is_prime(l):
        raise BadCharacteristic("l=%d is not prime: no cyclic group of roots of unity" % l)
    g = gcd(m, l - 1)
    primes = [r for r in range(2, g + 1) if g % r == 0 and is_prime(r)]
    gen = next(h for h in (pow(z, (l - 1) // g, l) for z in range(1, l))
               if all(pow(h, g // r, l) != 1 for r in primes))
    return g, min(pow(gen, i, l) for i in range(g) if gcd(i, g) == 1)


def _unit_characters(G, l):
    m = G.n
    want, zeta = _root_of_unity(m, l)
    if m == 1:
        logs = {0: 0}
    else:
        gidx = G.generators[0]
        logs, cur = {}, 0
        for e in range(m):
            logs[cur] = e
            cur = int(G.MUL[cur, gidx])
    out = []
    for j in range(want):
        A = np.zeros((m, 1, 1), dtype=np.int64)
        for i in range(m):
            A[i, 0, 0] = pow(zeta, j * logs[i], l)
        out.append(("chi%d" % j, RepModule(G, A, l, name="chi%d" % j)))
    out[0] = ("trivial", RepModule(G, np.ones((m, 1, 1), dtype=np.int64), l, name="trivial"))
    return out


def _gl2_of_f2_modules(G, l):
    # the three nonzero vectors of F_2^2, permuted by the group
    pts = [(1, 0), (0, 1), (1, 1)]

    def perm(g):
        out = []
        for v in pts:
            w = (
                (g[0][0] * v[0] + g[0][1] * v[1]) % 2,
                (g[1][0] * v[0] + g[1][1] * v[1]) % 2,
            )
            if w not in pts:
                raise NotAGroup("label %r is not in GL_2(F_2)" % (g,))
            out.append(pts.index(w))
        return out

    n = G.n
    triv = np.ones((n, 1, 1), dtype=np.int64)
    sgn = np.zeros((n, 1, 1), dtype=np.int64)
    std = np.zeros((n, 2, 2), dtype=np.int64)
    # action on {(a, b, c): a+b+c=0} with basis e0-e1, e1-e2: such a vector
    # is a (e0-e1) - c (e1-e2), so the coordinates of the columns of P B
    # (P permutes rows by p) are read off directly
    B = np.array([[1, -1, 0], [0, 1, -1]], dtype=np.int64).T
    for i, g in enumerate(G.labels):
        p = perm(g)
        # parity via explicit inversion count on 3 points
        invs = sum(1 for a in range(3) for b in range(a + 1, 3) if p[a] > p[b])
        sgn[i, 0, 0] = (-1) ** invs % l
        PB = B[np.argsort(p)]
        std[i] = np.stack([PB[0], -PB[2]]) % l
    cands = [
        ("trivial", RepModule(G, triv, l, name="trivial")),
        ("sign", RepModule(G, sgn, l, name="sign")),
        ("std", RepModule(G, std, l, name="std")),
    ]
    return [(nm, r) for nm, r in cands if is_absolutely_irreducible(r)]


# ---------------------------------------------------------------------------
# projective covers


def l_part(n, l):
    """The largest power of l dividing n > 0."""
    part = 1
    while n % l == 0:
        n //= l
        part *= l
    return part


def _element_orders(G):
    """Order of every element of the table, by repeated multiplication."""
    orders = np.zeros(G.n, dtype=np.int64)
    cur, idx = np.arange(G.n), np.arange(G.n)
    for e in range(1, G.n + 1):
        orders[(cur == 0) & (orders == 0)] = e
        cur = G.MUL[cur, idx]
    return orders


def projective_cover(rep):
    """Projective cover P(S) of an absolutely irreducible module S.

    Every group irreducible_modules enumerates has a normal Sylow
    l-subgroup L (its elements of l-power order) with a cyclic complement
    H = <h>, h the first element of order |G : L|: the cyclic GL_1(q), and
    GL_2(2) = S_3, where L = C_3 for l = 3.  l does not divide |H|, so S|_H
    is projective and, by Frobenius reciprocity, P(S) = Ind_H^G(S|_H), of
    dimension |L| dim S.  Its basis is x (x) s for x in L in index order:
    writing g x = x' h' with x' in L and h' in H puts the block S(h') at
    (x', x).  When L = 1 every module is projective and P(S) = S
    (Maschke).  A group whose Sylow l-subgroup is not normal is TooLarge.
    """
    G, l = rep.G, rep.l
    if not is_absolutely_irreducible(rep):
        raise NotIrreducible(rep.name)
    orders = _element_orders(G)
    L = np.flatnonzero([l_part(o, l) == o for o in orders.tolist()])
    if L.size != l_part(G.n, l):
        raise TooLarge("the Sylow %d-subgroup of a group of order %d is not normal"
                       % (l, G.n))
    if L.size == 1:
        return rep
    m = G.n // L.size
    gens = np.flatnonzero(orders == m)
    if not gens.size:
        raise TooLarge("no cyclic complement of order %d to the Sylow %d-subgroup" % (m, l))
    H = np.zeros(m, dtype=np.int64)
    for j in range(1, m):
        H[j] = G.MUL[H[j - 1], gens[0]]
    xh = G.MUL[L[:, None], H]  # x h, one row per x in L
    if np.unique(xh).size != G.n:
        raise NotAGroup("L H does not cover the group of order %d exactly once" % G.n)
    x_of, h_of = np.empty((2, G.n), dtype=np.int64)  # g = L[x_of[g]] H[h_of[g]]
    x_of[xh], h_of[xh] = np.indices(xh.shape)
    gx = G.MUL[:, L]
    g, x = np.indices(gx.shape)
    d = rep.dim
    A = np.zeros((G.n, L.size, d, L.size, d), dtype=np.int64)
    A[g, x_of[gx], :, x, :] = rep.A[H[h_of[gx]]]
    return RepModule(G, A.reshape(G.n, L.size * d, L.size * d), l, name="P(%s)" % rep.name)


# ---------------------------------------------------------------------------
# coefficient systems


@dataclass(eq=False)
class CoefficientSystem:
    k: int
    q: int
    l: int
    mode: str
    rho_name: str
    M: FiniteGroupTable
    MM: FiniteGroupTable
    swap: np.ndarray
    V: RepModule
    tau: int
    tstar: np.ndarray
    I1: list
    Iw: list
    name: str = ""
    _tsp: list = field(default_factory=list, repr=False)

    @property
    def dim(self):
        return self.V.dim

    def sigma(self, m1_idx, m2_idx):
        """sigma(m1, m2) on V, by factor indices in M."""
        return self.V.A[pair_index(self.MM, m1_idx, m2_idx)]

    def tstar_power(self, j):
        if not self._tsp:
            self._tsp.append(np.eye(self.dim, dtype=np.int64))
        while len(self._tsp) <= j:
            self._tsp.append((self.tstar @ self._tsp[-1]) % self.l)
        return self._tsp[j]

    def basis(self, parity):
        return self.I1 if parity % 2 == 0 else self.Iw

    def coords(self, X, parity):
        """Coordinates of X in the I_1 (even) or I_w (odd) basis; exact."""
        bas = self.basis(parity)
        A = np.stack([b.reshape(-1) for b in bas], axis=1)
        X = np.asarray(X, dtype=np.int64).reshape(-1)
        if X.size != len(A):
            raise NotBiEquivariant("%d entries for a %d x %d coefficient"
                                   % (X.size, self.dim, self.dim))
        sol = solve_mod(A, X, self.l)
        if sol is None:
            raise NotBiEquivariant("matrix not in the parity-%d span" % (parity % 2))
        return sol

    def in_parity_span(self, X, parity):
        try:
            self.coords(X, parity)
            return True
        except NotBiEquivariant:
            return False


_SYSTEM_CACHE = {}


def _refuse_large_v(dim_p):
    """TooLarge when V = P # P (+) its dual, of dimension 2 dim(P)^2, has
    more self-intertwiner unknowns than intertwiners solves; checked before
    boxtimes builds an action stack of |MM| * dim(V)^2 entries."""
    dim_v = 2 * dim_p**2
    if dim_v**2 > _MAX_UNKNOWNS:
        raise TooLarge("V would have dimension %d: %d intertwiner unknowns, at most %d"
                       % (dim_v, dim_v**2, _MAX_UNKNOWNS))


def build_coefficient_system(k, q, l, rho="trivial", mode="pp"):
    """Assemble the full coefficient system for a block of GL_{2k}(F).

    mode "plain": V is the one-dimensional chi # chi (character case only).
    mode "pp":    V = P # P  (+)  (P # P)^*  with P the projective cover of
                  the chosen cuspidal module over GL_k(q).
    """
    key = (k, q, l, rho, mode)
    if key in _SYSTEM_CACHE:
        return _SYSTEM_CACHE[key]
    if not is_prime(l):
        raise BadCharacteristic("l=%d is not prime" % l)
    if (l - 1) ** 2 >= 2**63:
        raise TooLarge("l=%d: a product of two residues overflows int64" % l)
    if l == _factor_prime_power(q)[0]:
        raise BadCharacteristic("l=%d equals the residue characteristic" % l)
    # M x M refused before GF(q) builds its q x q tables
    n = _gl_order(k, q)
    _refuse_large_product(n * n)
    F = GF(q)
    M = general_linear(k, F)
    irr = dict(irreducible_modules(M, l))
    if rho not in irr:
        raise UnknownModule("unknown module %r; have %s" % (rho, sorted(irr)))
    rho0 = irr[rho]
    if not is_cuspidal(rho0):
        raise NotCuspidal(rho)
    if mode == "pp":
        # the cover has dimension the l-part of |M| times dim(S), refused here,
        # before projective_cover builds it
        _refuse_large_v(l_part(M.n, l) * rho0.dim)
    MM = ProductGroup(M, M)
    swap = swap_permutation(MM)
    if mode == "plain":
        if rho0.dim != 1:
            raise NotACharacter("module %r has dimension %d" % (rho, rho0.dim))
        V = boxtimes(rho0, rho0, MM)
    elif mode == "pp":
        cov = projective_cover(rho0)
        P = boxtimes(cov, cov, MM)
        V = direct_sum(P, contragredient(P))
    else:
        raise ValueError("mode must be 'plain' or 'pp'")
    gens = MM.generators
    I1 = intertwiners(V.A, V.A, l, generators=gens)
    Iw = intertwiners(V.A[swap], V.A, l, generators=gens)
    if not I1 or not Iw:
        raise EmptyIntertwiners("%d self- and %d swap-intertwiners on V" % (len(I1), len(Iw)))
    tstar = np.zeros((V.dim, V.dim), dtype=np.int64)
    for g in range(M.n):
        m2 = int(M.NEG[M.INV[g]])
        tstar = (tstar + V.A[pair_index(MM, g, m2)]) % l
    sys = CoefficientSystem(
        k=k,
        q=q,
        l=l,
        mode=mode,
        rho_name=rho,
        M=M,
        MM=MM,
        swap=swap,
        V=V,
        tau=pow(q, k * k, l),
        tstar=tstar,
        I1=I1,
        Iw=Iw,
        name="k%d.q%d.l%d.%s.%s" % (k, q, l, rho, mode),
    )
    # T* must be a swap-intertwiner; this is load-bearing for everything
    sys.coords(tstar, 1)
    _SYSTEM_CACHE[key] = sys
    return sys
