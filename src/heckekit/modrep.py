"""Finite group tables, modular representations, and coefficient systems.

The groups here are tiny (units of F_q, GL_2 of a tiny field, and products
of two copies), so everything is done through dense multiplication tables
on indices, with the identity always at index 0.  Representations are
stored as stacks of matrices mod l, one per group index, and validated
against the table on construction.

The end product is a CoefficientSystem: the module V over M x M together
with its self-intertwiners I_1, its swap-intertwiners I_w, the central
element T* = sum_g (g, -g^{-1}) acting on V, and the index parameter tau.
Those five things are all any Hecke-algebra computation downstream needs.
Intertwiner spaces are solved from the equations X A(g) = B(g) X as sparse
triplets read off the nonzeros of A(g) and B(g), never as Kronecker blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import (
    BadCharacteristic,
    BadCount,
    EmptyIntertwiners,
    NotACharacter,
    NotAHomomorphism,
    NotBiEquivariant,
    NotCuspidal,
    NotIrreducible,
    TooLarge,
    UnknownModule,
)
from .gfp import (
    GF,
    _factor_prime_power,
    first_monic_dependence,
    fq_matmul,
    is_prime,
    kron_mod,
    matinv_mod,
    nullspace_mod,
    nullspace_triplets,
    pdivmod,
    pfactor,
    pmul,
    rank_mod,
    solve_mod,
)


# ---------------------------------------------------------------------------
# group tables


class FiniteGroupTable:
    """Dense multiplication table on indices 0..n-1, identity at 0."""

    def __init__(self, labels, mul_fn, neg_fn=None, kind="", generators=None):
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
            raise ValueError("no identity found")
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
            assert hits.size == 1
            self.INV[i] = hits[0]
        if neg_fn is not None:
            self.NEG = np.array([self.index[neg_fn(a)] for a in labels], dtype=np.int64)
        else:
            self.NEG = None
        self._generators = generators

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


# elements of the largest product table that product_group builds
_MAX_PRODUCT = 5000


def product_group(G1, G2):
    n1, n2 = G1.n, G2.n
    if n1 * n2 > _MAX_PRODUCT:
        raise TooLarge("product table would have %d elements" % (n1 * n2))
    P = object.__new__(FiniteGroupTable)
    P.labels = [(i, j) for i in range(n1) for j in range(n2)]
    P.n = n1 * n2
    P.index = {lab: i for i, lab in enumerate(P.labels)}
    P.kind = "product"
    P.MUL = (G1.MUL[:, None, :, None] * n2 + G2.MUL[None, :, None, :]).reshape(
        P.n, P.n
    )
    P.INV = (G1.INV[:, None] * n2 + G2.INV[None, :]).reshape(P.n)
    if G1.NEG is not None and G2.NEG is not None:
        P.NEG = (G1.NEG[:, None] * n2 + G2.NEG[None, :]).reshape(P.n)
    else:
        P.NEG = None
    P._generators = [i * n2 for i in G1.generators] + list(G2.generators)
    P.factors = (G1, G2)
    return P


def pair_index(P, i, j):
    return i * P.factors[1].n + j


def swap_permutation(P):
    """Index permutation (i, j) -> (j, i) on a product of equal-size factors."""
    n1, n2 = P.factors[0].n, P.factors[1].n
    assert n1 == n2
    return (np.arange(P.n) % n2) * n2 + np.arange(P.n) // n2


# ---------------------------------------------------------------------------
# representations


class RepModule:
    """A stack of matrices mod l realizing an action of a group table."""

    def __init__(self, G, A, l, name="", validate=True):
        self.G = G
        self.A = np.asarray(A, dtype=np.int64) % l
        self.l = l
        self.name = name
        self.dim = self.A.shape[1]
        assert self.A.shape == (G.n, self.dim, self.dim)
        if validate:
            self.validate()

    def validate(self):
        """Raise NotAHomomorphism unless the identity acts as 1 and
        A[g h] = A[g] A[h] for every generator g and every h."""
        if not np.array_equal(self.A[0], np.eye(self.dim, dtype=np.int64)):
            raise NotAHomomorphism("the identity does not act as 1 on %r" % self)
        for g in self.G.generators:
            lhs = self.A[self.G.MUL[g]]
            rhs = np.matmul(self.A[g], self.A) % self.l
            if not np.array_equal(lhs, rhs):
                raise NotAHomomorphism("%r is not a homomorphism at generator %d" % (self, g))

    def __repr__(self):
        return "RepModule(%s, dim=%d, l=%d)" % (self.name or "?", self.dim, self.l)


def regular_module(G, l):
    A = np.zeros((G.n, G.n, G.n), dtype=np.int64)
    for g in range(G.n):
        A[g, G.MUL[g, np.arange(G.n)], np.arange(G.n)] = 1
    return RepModule(G, A, l, name="regular")


def contragredient(rep):
    A = rep.A[rep.G.INV].transpose(0, 2, 1)
    return RepModule(rep.G, A, rep.l, name=rep.name + "*")


def direct_sum(r1, r2):
    assert r1.G is r2.G and r1.l == r2.l
    d1, d2 = r1.dim, r2.dim
    A = np.zeros((r1.G.n, d1 + d2, d1 + d2), dtype=np.int64)
    A[:, :d1, :d1] = r1.A
    A[:, d1:, d1:] = r2.A
    return RepModule(r1.G, A, r1.l, name="%s+%s" % (r1.name, r2.name))


def boxtimes(r1, r2, P):
    """Outer tensor product over the product table P of the two groups."""
    assert P.factors[0].n == r1.G.n and P.factors[1].n == r2.G.n
    d = r1.dim * r2.dim
    A = np.zeros((P.n, d, d), dtype=np.int64)
    for i in range(r1.G.n):
        for j in range(r2.G.n):
            A[pair_index(P, i, j)] = kron_mod(r1.A[i], r2.A[j], r1.l)
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
    if getattr(G, "kind", "") == "units":
        return True
    assert getattr(G, "kind", "") == "gl" and G.k == 2
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


def _unit_characters(G, l):
    m = G.n
    roots = sorted(z for z in range(1, l) if pow(z, m, l) == 1)
    want = len(roots)
    zeta = None
    for z in roots:
        o, zz = 1, z
        while zz != 1:
            zz = (zz * z) % l
            o += 1
        if o == want:
            zeta = z
            break
    assert zeta is not None
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
            out.append(pts.index(w))
        return out

    n = G.n
    triv = np.ones((n, 1, 1), dtype=np.int64)
    sgn = np.zeros((n, 1, 1), dtype=np.int64)
    std = np.zeros((n, 2, 2), dtype=np.int64)
    for i, g in enumerate(G.labels):
        p = perm(g)
        # parity via explicit inversion count on 3 points
        invs = sum(1 for a in range(3) for b in range(a + 1, 3) if p[a] > p[b])
        sgn[i, 0, 0] = (-1) ** invs % l
        # action on {(a, b, c): a+b+c=0} with basis e0-e1, e1-e2
        P = np.zeros((3, 3), dtype=np.int64)
        for src in range(3):
            P[p[src], src] = 1
        B = np.array([[1, -1, 0], [0, 1, -1]], dtype=np.int64).T % l
        PB = (P @ B) % l
        for col in range(2):
            sol = solve_mod(B, PB[:, col], l)
            assert sol is not None
            std[i, :, col] = sol
    cands = [
        ("trivial", RepModule(G, triv, l, name="trivial")),
        ("sign", RepModule(G, sgn, l, name="sign")),
        ("std", RepModule(G, std, l, name="std")),
    ]
    return [(nm, r) for nm, r in cands if is_absolutely_irreducible(r)]


# ---------------------------------------------------------------------------
# splitting modules and projective covers


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


def min_poly(M, l, bound=40):
    """Minimal monic polynomial of the square matrix M mod l, degree <= bound."""
    M = np.asarray(M, dtype=np.int64) % l

    def powers():
        P = np.eye(M.shape[0], dtype=np.int64)
        while True:
            yield P.reshape(-1)
            P = (P @ M) % l

    return first_monic_dependence(powers(), l, max_len=bound)


def _split_once(acts, l, rng):
    """One nontrivial G-stable direct-sum split of the full space, or None."""
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
    # idempotent sweep: sound fallback for matrix-algebra commutants
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


def _poly_at(p, M, l):
    out = np.zeros_like(M)
    P = np.eye(M.shape[0], dtype=np.int64)
    for c in p:
        out = (out + int(c) * P) % l
        P = (P @ M) % l
    return out


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


@dataclass
class CoverResult:
    module: RepModule
    witness: np.ndarray  # idempotent on the regular module, image = the cover
    multiplicity: int


def projective_cover(rep):
    """Projective cover of an absolutely irreducible module, inside regular.

    Splits the regular module into indecomposables, picks the summand
    mapping onto rep, and returns it with a verified witness idempotent.
    """
    G, l = rep.G, rep.l
    if not is_absolutely_irreducible(rep):
        raise NotIrreducible(rep.name)
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
    mod = RepModule(G, acts, l, name="P(%s)" % rep.name)
    return CoverResult(module=mod, witness=e, multiplicity=len(hits))


# ---------------------------------------------------------------------------
# coefficient systems


@dataclass
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
        sol = solve_mod(A, np.asarray(X, dtype=np.int64).reshape(-1), self.l)
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


def l_part(n, l):
    """The largest power of l dividing n > 0."""
    part = 1
    while n % l == 0:
        n //= l
        part *= l
    return part


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
    if l == _factor_prime_power(q)[0]:
        raise BadCharacteristic("l=%d equals the residue characteristic" % l)
    # refused before GF(q) builds its q x q tables
    n = _gl_order(k, q)
    if n * n > _MAX_PRODUCT:
        raise TooLarge("product table would have %d elements" % (n * n))
    F = GF(q)
    M = general_linear(k, F)
    irr = dict(irreducible_modules(M, l))
    if rho not in irr:
        raise UnknownModule("unknown module %r; have %s" % (rho, sorted(irr)))
    rho0 = irr[rho]
    if not is_cuspidal(rho0):
        raise NotCuspidal(rho)
    if mode == "pp" and k == 1:
        # GL_1(q) is cyclic, so the cover of a character has dimension the
        # l-part of q - 1: refused here, before projective_cover splits anything
        _refuse_large_v(l_part(q - 1, l))
    MM = product_group(M, M)
    swap = swap_permutation(MM)
    if mode == "plain":
        if rho0.dim != 1:
            raise NotACharacter("module %r has dimension %d" % (rho, rho0.dim))
        V = boxtimes(rho0, rho0, MM)
    elif mode == "pp":
        cov = projective_cover(rho0)
        _refuse_large_v(cov.module.dim)
        P = boxtimes(cov.module, cov.module, MM)
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
