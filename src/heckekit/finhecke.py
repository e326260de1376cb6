"""The finite-level double-coset algebra and its brute-force convolution.

Elements live on two double cosets of the block parabolic P inside
G = GL_{2k}(q): the identity coset (value f1, a self-intertwiner of V) and
the full-swap coset (value fw, a swap-intertwiner).  Two routes to the
product are implemented:

  * fin_mul: the closed two-term formulas in f1, fw, tau, T*, on gfp's
    exact product (two gemms, one reduction of the sums), in float32
    while dim (l-1)^2 < 2^24 and in float64 above; TooLarge unless
    dim (l-1)^2 < 2^53, as on the matrix backend;
  * fin_convolve: genuine convolution of V-valued bi-equivariant functions
    over G/P.  The group geometry depends only on (k, q), so AmbientGL
    builds it once: a convolution plan (for each target cell and coset,
    the Bruhat cells and Levi indices of both factors, and the distinct
    products the rows share) and, for each partial-swap cell, generators
    of its Levi pairs.  AmbientGL holds geometry only, no sigma products
    and nothing of fin_mul, so the oracle stays independent.  Each pair
    forms each distinct product of the plan once, as three stacked
    float64 products, gathers them onto all cells' rows, and takes one
    BLAS product per cell, reduced mod l only when an entry bound could
    reach 2^53 and once at the end; TooLarge when even residues are not
    exact (never rounded).  The arithmetic is the oracle's own, not gfp's,
    and float64 throughout, so where fin_mul runs in float32 the two
    routes also check each other across precisions.
    The partial-swap cells in between must come out zero, and the oracle
    checks that rather than assuming it.

Also here: the minimal monic relation of the parameter image (compute_fpoly).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import BruhatMismatch, CellLeak, NotBiEquivariant, SystemMismatch, TooLarge
from .gfp import (
    GF,
    _exact_dtype,
    _matmul_residues,
    _residues,
    first_monic_dependence,
    fq_code,
    fq_inv_matrix,
    fq_matmul,
    fq_rref,
    poly_str,
)
from .modrep import general_linear, intertwiners

# ---------------------------------------------------------------------------
# elements and the closed product


@dataclass
class FinElement:
    """Values f1 on the identity cell and fw on the swap cell.  Contract,
    not checked (a span check costs more than a convolution): f1 lies in
    the span of sys.I1 and fw in that of sys.Iw, or fin_convolve's answer
    depends on the choice of coset representatives."""

    sys: object
    f1: np.ndarray
    fw: np.ndarray

    def __post_init__(self):
        d = self.sys.dim
        self.f1 = np.asarray(self.f1, dtype=np.int64).reshape(d, d) % self.sys.l
        self.fw = np.asarray(self.fw, dtype=np.int64).reshape(d, d) % self.sys.l

    def __eq__(self, other):
        return (
            self.sys is other.sys
            and np.array_equal(self.f1, other.f1)
            and np.array_equal(self.fw, other.fw)
        )

    def __add__(self, other):
        _same(self, other)
        return FinElement(self.sys, (self.f1 + other.f1), (self.fw + other.fw))

    def is_zero(self):
        return not (self.f1.any() or self.fw.any())


def _same(a, b):
    if a.sys is not b.sys:
        raise SystemMismatch("operands built over different systems")


def fin_unit(sys):
    d = sys.dim
    return FinElement(sys, np.eye(d, dtype=np.int64), np.zeros((d, d), dtype=np.int64))


def fin_w(sys, power=0):
    """[w] twisted by T*^power on the swap coset; NotBiEquivariant unless
    T*^power is a swap-intertwiner (T* is one, so every odd power is)."""
    ts = sys.tstar_power(power)
    if not sys.in_parity_span(ts, 1):
        raise NotBiEquivariant("T*^%d is not a swap-intertwiner on %s" % (power, sys.name))
    d = sys.dim
    return FinElement(sys, np.zeros((d, d), dtype=np.int64), ts)


def fin_mul(a, b):
    """f1 g1 + tau fw gw on the identity cell, f1 gw + fw g1 + T* fw gw on
    the swap cell, on gfp's exact product: one gemm of [f1; fw] by
    [g1 | gw] gives the four block products, a second T* (fw gw), and the
    sums, integers below l (l-1), are reduced once, in int64, by
    FinElement.  Both gemms have inner dimension dim, so they run in
    float32 while dim (l-1)^2 < 2^24, and then l (l-1) < 2^24 too (l-1 is
    at most 4095), so the sums are exact float32 integers; else in
    float64.  TooLarge unless dim (l-1)^2 < 2^53."""
    _same(a, b)
    s = a.sys
    l, d = s.l, s.dim
    dtype = _exact_dtype(d, l)
    P = _matmul_residues(np.concatenate((a.f1, a.fw), dtype=dtype),
                         np.concatenate((b.f1, b.fw), axis=1, dtype=dtype), l)
    ww = P[d:, d:]
    f1 = P[:d, :d] + (s.tau % l) * ww
    fw = P[:d, d:] + P[d:, :d] + _matmul_residues(_residues(s.tstar, l, dtype), ww, l)
    return FinElement(s, f1.astype(np.int64), fw.astype(np.int64))


def random_fin_element(sys, rng):
    """A random combination of the I_1 stack on the identity cell and of
    the I_w stack on the swap cell, with coefficients in [0, l)."""
    l = sys.l
    # an int64 sum of `run` products of residues stays below 2^63
    run = (2**63 - 1) // (l - 1) ** 2

    def draw(stack):
        c = rng.integers(0, l, size=len(stack))
        return sum(np.einsum("i,ijk->jk", c[i:i + run], stack[i:i + run]) % l
                   for i in range(0, len(stack), run))

    return FinElement(sys, draw(sys.I1), draw(sys.Iw))


# ---------------------------------------------------------------------------
# the ambient finite geometry


class AmbientGL:
    """GL_{2k}(q) relative to its block parabolic P, organized by k-subspaces.

    Nothing here enumerates P or the full group.  A coset gP is labelled by
    the span of the first k columns of g, in reduced row echelon form.  The
    cosets of the cell P w_d P are walked breadth-first as the P-orbit of
    w_d P, under the Levi generators and one root element I + E_{1,k+1}
    (together they generate P).  Each label found from p keeps p . w_d as
    its representative, so its decomposition  rep = p . w_d . p2  has
    p2 = 1.  A label reached again from p by a generator g gives a Schreier
    element t^-1 g p of P intersect w_d P w_d^-1, t the label's p; these
    generate that intersection.

    `plan[d]` drives the convolution at w_d: for each coset y with neither
    y nor z = y^-1 w_d in a partial-swap cell, one row holding 1 if y lies
    in the swap cell (else 0), the Levi indices of y's p (its p2 is 1),
    then 1 if z lies in the swap cell and the Levi indices of p and p2 in
    z's decomposition.  Over all cells' rows, flat (`offsets` bound each
    cell's), a row's chain needs a left product (p_a, cell_a), a middle
    one (left, mid) and a right one (cell_b, p2_b), in cells and M x M
    indices: `p_a` of y's p, `mid` of z's p and `p2_b` of z's p2.  Rows
    share products, so only the distinct ones are kept
    (np.unique's values, as columns): (u_pa, u_cella), (u_left, u_mid)
    with u_left indexing the left ones, and (u_cellb, u_p2b); inv_left and
    inv_right take each flat row to its middle and right ones.
    `middle[d - 1]` holds, for each partial-swap cell 0 < d < k, rows
    (a1, a2, b1, b2) of Levi indices that generate the group of pairs
    (levi(p), levi(w_d^-1 p w_d)) over p in P intersect w_d P w_d^-1.
    Group geometry only.
    """

    @cache
    def __new__(cls, k, q):
        inst = super().__new__(cls)
        inst._build(k, q)
        return inst

    def _build(self, k, q):
        self.k = k
        self.q = q
        self.F = GF(q)
        self.M = general_linear(k, self.F)
        self.n = 2 * k
        self.labels, self.bruhat, self.middle = {}, {}, []
        gens = self._parabolic_generators()
        for d in range(k + 1):
            pairs = self._walk_cell(d, gens)
            if 0 < d < k:
                self.middle.append(self._middle_generators(pairs))
        perms = [self.swap_mat(d).argmax(axis=1) for d in range(k + 1)]
        self.plan = []
        for e in range(k + 1):
            rows = []
            for pinv, p, d in self.bruhat.values():
                if 0 < d < k:
                    continue
                # y = p w_d and w_d, w_e are permutation involutions, so
                # y^-1 w_e = w_d p^-1 w_e permutes the rows and columns of p^-1
                sz = self.split(pinv[np.ix_(perms[d], perms[e])])
                if sz:
                    rows.append((d > 0, *self.levi_indices(p), sz[0] > 0, *sz[1], *sz[2]))
            self.plan.append(np.array(rows, dtype=np.int64).reshape(-1, 8))
        ca, a1, a2, cb, b1, b2, n1, n2 = np.concatenate(self.plan).T
        N = self.M.n
        self.offsets = np.cumsum([0, *map(len, self.plan)])
        (self.u_pa, self.u_cella), left = _distinct(a1 * N + a2, ca)
        (self.u_left, self.u_mid), self.inv_left = _distinct(left, b1 * N + b2)
        (self.u_cellb, self.u_p2b), self.inv_right = _distinct(cb, n1 * N + n2)

    # -- bookkeeping helpers

    def _mat_label(self, A):
        return tuple(tuple(int(v) for v in row) for row in A)

    def swap_mat(self, d):
        """The partial swap w_d; w_k is the full swap."""
        k, n = self.k, self.n
        m = np.zeros((n, n), dtype=np.int64)
        for i in range(d):
            m[i, k + i] = 1
            m[k + i, i] = 1
        for i in range(d, k):
            m[i, i] = 1
            m[k + i, k + i] = 1
        return m

    def in_parabolic(self, g):
        return not np.asarray(g)[self.k :, : self.k].any() and min(self.levi_indices(g)) >= 0

    def levi_indices(self, p):
        """The Levi indices of the two diagonal blocks of p; -1 for a
        singular block."""
        k, p = self.k, np.asarray(p)
        return tuple(self.M.of_code[fq_code(self.F, [p[:k, :k], p[k:, k:]])].tolist())

    def col_label(self, g):
        """Canonical label of the span of the first k columns."""
        R, piv = fq_rref(self.F, np.asarray(g)[:, : self.k].T)
        if len(piv) != self.k:
            raise BruhatMismatch("the first %d columns of g are dependent" % self.k)
        return self._mat_label(R)

    def _parabolic_generators(self):
        """The Levi generators in each diagonal block, and I + E_{1,k+1}."""
        k, n = self.k, self.n
        gens = []
        for i in self.M.generators:
            for off in (0, k):
                g = np.eye(n, dtype=np.int64)
                g[off : off + k, off : off + k] = np.reshape(self.M.labels[i], (k, k))
                gens.append(g)
        root = np.eye(n, dtype=np.int64)
        root[0, k] = 1
        return gens + [root]

    def _walk_cell(self, d, gens):
        """Walk the P-orbit of w_d P breadth-first, recording each label's
        representative and decomposition; return the Levi pairs of the
        Schreier elements when 0 < d < k."""
        F, k = self.F, self.k
        wd = self.swap_mat(d)
        # w_d is a permutation matrix and an involution, so w_d^-1 s w_d
        # permutes the rows and columns of s
        perm = wd.argmax(axis=1)
        one = np.eye(self.n, dtype=np.int64)
        lab = self.col_label(wd)
        self.labels[lab], self.bruhat[lab] = wd, (one, one, d)
        pairs = set()
        queue = [one]
        for p in queue:
            for g in gens:
                gp = fq_matmul(F, g, p)
                rep = fq_matmul(F, gp, wd)
                lab = self.col_label(rep)
                if lab not in self.bruhat:
                    self.labels[lab] = rep
                    self.bruhat[lab] = (fq_inv_matrix(F, gp), gp, d)
                    queue.append(gp)
                    continue
                if 0 < d < k:
                    s = fq_matmul(F, self.bruhat[lab][0], gp)
                    c = s[np.ix_(perm, perm)]
                    pairs.add((*self.levi_indices(s), *self.levi_indices(c)))
        return pairs

    def _middle_generators(self, pairs):
        # a pair outside the group generated so far becomes a generator
        MUL = self.M.MUL
        gens, group = [], {(0, 0, 0, 0)}
        for pair in sorted(pairs):
            if pair in group:
                continue
            gens.append(pair)
            # close up under MUL, componentwise: the group so far is closed
            # under the earlier generators, so it is multiplied by the new one
            # only, and after that only each round's new elements by all
            new, by = group, [pair]
            while new:
                prods = MUL[np.array(list(new))[:, None], np.array(by)]
                new = set(map(tuple, prods.reshape(-1, 4).tolist())) - group
                group |= new
                by = gens
        return np.array(gens or [(0, 0, 0, 0)], dtype=np.int64)

    def split(self, g):
        """(d, Levi indices of p, of p2) for g = p . w_d . p2; None when
        g lies in a partial-swap cell."""
        pinv, p, d = self.bruhat[self.col_label(g)]
        if 0 < d < self.k:
            return None
        p2 = fq_matmul(self.F, fq_matmul(self.F, self.swap_mat(d), pinv), g)
        if not self.in_parabolic(p2):
            raise BruhatMismatch("w_d^-1 p^-1 g left the parabolic")
        return d, self.levi_indices(p), self.levi_indices(p2)


def _distinct(*columns):
    """The distinct rows of the columns, as columns, and each row's index
    among them."""
    rows, inverse = np.unique(np.stack(columns, axis=1), axis=0, return_inverse=True)
    return rows.T, inverse.reshape(-1)


def phi_value(amb, sys, elem, g):
    """Value at g of the bi-equivariant function with data (f1, fw); None
    in a partial-swap cell, where the element carries no value."""
    split = amb.split(g)
    if split is None:
        return None
    d, a, b = split
    f = elem.f1 if d == 0 else elem.fw
    return (sys.sigma(*a) @ f @ sys.sigma(*b)) % sys.l


@cache
def middle_hom_dims(sys):
    """Sizes of the intertwiner spaces over the partial-swap cells 1..k-1.

    A function supported on the cell of w_d must satisfy
    sigma(p) X = X sigma(w_d^-1 p w_d) for every p in the parabolic that
    w_d conjugates back into it.  sigma is a homomorphism, so it is enough
    to solve on the generators of those Levi pairs that AmbientGL.middle
    holds.  Cached per system object, not per name, so a system that is
    built again is solved again.
    """
    dims = []
    for gens in AmbientGL(sys.k, sys.q).middle:
        sigma_p, sigma_c = sys.sigma(*gens[:, :2].T), sys.sigma(*gens[:, 2:].T)
        dims.append(len(intertwiners(sigma_c, sigma_p, sys.l)))
    return tuple(dims)


def _exact_below(n, l):
    """Raise TooLarge unless a float64 product of residues mod l with inner
    dimension n is exact: its partial sums are integers of at most
    n*(l-1)^2, exact in float64 below 2^53 in any summation order."""
    if n * (l - 1) ** 2 >= 2**53:
        raise TooLarge("inner dimension %d mod l=%d is not exact in float64" % (n, l))


def _reduce(X, l):
    """X mod l on float64 integers below 2^53, exact: fl(x/l) misses x/l by
    less than 1/l, so its floor is the true quotient."""
    return X - l * np.floor(X / l)


def _mulmod(X, xmax, Y, ymax, l):
    """(X @ Y, its entry bound) on float64 integers in [0, xmax], [0, ymax],
    2-D or stacked.  Partial sums reach at most n*xmax*ymax, n the inner
    dimension; while that is not below 2^53, the operand with the larger
    bound is reduced mod l, and TooLarge when both are residues."""
    n = X.shape[-1]
    while n * xmax * ymax >= 2**53:
        if max(xmax, ymax) < l:
            _exact_below(n, l)
        if xmax >= ymax:
            X, xmax = _reduce(X, l), l - 1
        else:
            Y, ymax = _reduce(Y, l), l - 1
    return X @ Y, n * xmax * ymax


def fin_convolve_cells(a, b):
    """(phi_a * phi_b)(w_d) for every cell d, as a dict keyed by d.

    Over all cells' rows at once, phi_a(y) phi_b(y^-1 w_d) is the chain
    sigma(p) f_a sigma(p') times f_b sigma(p2'), for y = p w_e and
    y^-1 w_d = p' w_e' p2', each distinct product formed once and gathered
    onto the rows; a cell's sum over cosets is one product of inner
    dimension rows*dim.  All in float64 with delayed reduction (_mulmod),
    the cells reduced once; TooLarge before the first product unless every
    product is exact on residues."""
    _same(a, b)
    sys = a.sys
    l, n = sys.l, sys.dim
    amb = AmbientGL(sys.k, sys.q)
    _exact_below(n * max(1, *map(len, amb.plan)), l)
    A = sys.V.A_float64
    fa = np.array((a.f1, a.fw), dtype=np.float64)
    fb = np.array((b.f1, b.fw), dtype=np.float64)
    left, lmax = _mulmod(A[amb.u_pa], l - 1, fa[amb.u_cella], l - 1, l)
    left, lmax = _mulmod(left[amb.u_left], lmax, A[amb.u_mid], l - 1, l)
    right, rmax = _mulmod(fb[amb.u_cellb], l - 1, A[amb.u_p2b], l - 1, l)
    left, right = left[amb.inv_left], right[amb.inv_right]
    out = np.empty((amb.k + 1, n, n))
    for d, (lo, hi) in enumerate(zip(amb.offsets, amb.offsets[1:])):
        out[d] = _mulmod(left[lo:hi].transpose(1, 0, 2).reshape(n, -1), lmax,
                         right[lo:hi].reshape(-1, n), rmax, l)[0]
    return dict(enumerate(_reduce(out, l).astype(np.int64)))


def fin_convolve(a, b):
    """Oracle product: (phi_a * phi_b)(x) = sum over G/P of phi_a(y) phi_b(y^-1 x).

    Returns the identity-cell and swap-cell values.  A partial-swap value
    may be nonzero only when the corresponding intertwiner space is
    nonzero (which happens for some non-semisimple configurations, where
    the two-coset span is not closed under convolution); when that space
    is zero, a nonzero value there would be a genuine bug and raises
    CellLeak.
    """
    sys = a.sys
    out = fin_convolve_cells(a, b)
    k = sys.k
    leaked = [d for d in range(1, k) if out[d].any()]
    if leaked:
        dims = middle_hom_dims(sys)
        for d in leaked:
            if dims[d - 1] == 0:
                raise CellLeak("support leaked into partial-swap cell %d" % d)
    return FinElement(sys, out[0], out[k])


# ---------------------------------------------------------------------------
# the minimal parameter relation


@dataclass
class CharPoly:
    coeffs: tuple
    k: int
    q: int
    l: int
    rho: str
    mode: str
    tau: int
    tstar_minpoly: tuple

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __str__(self):
        return poly_str(self.coeffs)

    def to_json(self):
        return {
            "poly": str(self),
            "coeffs": [int(c) for c in self.coeffs],
            "degree": self.degree,
            "k": self.k,
            "q": self.q,
            "l": self.l,
            "module": self.rho,
            "mode": self.mode,
            "tau": self.tau,
            "tstar_minpoly": poly_str(self.tstar_minpoly),
        }


def parameter_image(sys, i):
    """[w^i]^i as a finite element: T*^i on the coset of w^(i mod 2)."""
    d = sys.dim
    zero = np.zeros((d, d), dtype=np.int64)
    ts = sys.tstar_power(i)
    if i % 2 == 0:
        return FinElement(sys, ts, zero)
    return FinElement(sys, zero, ts)


def min_poly(M, l, bound=40):
    """Minimal monic polynomial of the square matrix M mod l, degree <= bound."""
    M = np.asarray(M, dtype=np.int64) % l

    def powers():
        P = np.eye(M.shape[0], dtype=np.int64)
        while True:
            yield P.reshape(-1)
            P = (P @ M) % l

    return first_monic_dependence(powers(), l, max_len=bound)


def compute_fpoly(sys, max_deg=12):
    """Minimal monic polynomial killed by T^i -> [w^i]^i."""

    def vecs():
        i = 0
        while True:
            e = parameter_image(sys, i)
            yield np.concatenate([e.f1.reshape(-1), e.fw.reshape(-1)])
            i += 1

    rel = first_monic_dependence(vecs(), sys.l, max_len=max_deg)
    tsmin = min_poly(sys.tstar, sys.l, bound=max_deg)
    return CharPoly(coeffs=rel, k=sys.k, q=sys.q, l=sys.l, rho=sys.rho_name, mode=sys.mode,
                    tau=sys.tau, tstar_minpoly=tsmin)
