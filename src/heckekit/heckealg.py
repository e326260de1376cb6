"""Multiplication engine for the affine double-coset algebra.

Elements are dicts {Weyl element: coefficient}.  Coefficients live in a
pluggable backend: matrices acting on a concrete coefficient system, or
formal words in named generators, with free central shifts, for
structure-constant work.  A basis
symbol [eta]^j_c stands for the function supported on the coset of eta
with value (central element)^j * c there.

The engine computes structure constants once per (eta, delta) pair.
Write delta = t^alpha . s_1 ... s_a as its reduced word; t^alpha has
length zero, so the product starts as [eta.t^alpha] and takes the
letters one at a time by the quadratic relation

  * x.s longer than x      ->  [x] * [s] = [x.s];
  * x.s shorter than x     ->  [x] * [s] = tau * [x.s]  +  [x]^1.

Shifts only add up along the way, so the scalars (s, j) are independent
of the coefficients and get memoised per engine.

`mul` gathers, for every pair of terms, the structure constants
(eps, s, j), then hands the whole product to one backend call,
`combine`.  The matrix backend does it in three stages of float
gemms: all pairwise coefficient products as one, one T*^j per distinct
shift j, and one scalar-by-matrix product summing into the outputs eps.
The inputs are reduced into [0, l) once; each gemm goes through gfp's
exact product, which reduces its result in place.  Every partial sum of
a gemm of inner dimension n is an integer of at most n*(l-1)^2, so one
precision serves the whole call, picked from its largest inner
dimension, max(dim, columns): float32 when that bound is below 2^24,
float64 otherwise, the choice of Dumas, Giorgi and Pernet's FFLAS (ACM
TOMS 35, 2008).  Each gemm still raises TooLarge on its own inner
dimension unless its bound is below 2^53.  The stages hand residues to
each other in that precision, and the outputs become int64 once.

Only the matrix backend loads numpy and gfp, inside its own methods; the
free backend and the engine need neither, so `heckekit mul` starts
without them.
"""

from __future__ import annotations

from math import gcd

from .errors import BadCharacteristic, ParityViolation
from .numth import is_prime
from .weyl import W, W_ID, W_W, t_power, word_of


class MatrixCoefficients:
    """Coefficients are endomorphisms of a concrete coefficient system."""

    def __init__(self, system):
        self.system = system
        self.l = system.l
        self.tau = system.tau % system.l
        self.tau_inv = pow(self.tau, -1, self.l)

    def one(self):
        import numpy as np

        return np.eye(self.system.dim, dtype=np.int64)

    def compose(self, a, b):
        from .gfp import matmul_mod

        return matmul_mod(a, b, self.l)

    def tstar(self, c, j):
        from .gfp import matmul_mod

        if j == 0:
            return c % self.l
        return matmul_mod(self.system.tstar_power(j), c, self.l)

    def combine(self, ca, cb, pairs):
        """Sum of s * T*^j * ca[i] * cb[k] over pairs (i, k, ((eps, s, j), ...)).

        Every product ca[i].cb[k] is one gemm (na.d x d) @ (d x nb.d); the
        columns (i, k, j) that some term uses are gathered per shift j and
        multiplied by T*^j as one gemm each; a (eps x column) scalar matrix
        then sums them into the outputs with one more.  The three stages
        pass residues to each other in float32 when max(dim, columns) *
        (l-1)^2 < 2^24, where every partial sum is an exact float32 integer,
        else in float64, where each gemm raises TooLarge unless its own
        bound is below 2^53; the outputs become int64 once.
        """
        import numpy as np

        from .gfp import _exact_dtype, _matmul_residues, _residues

        d, l = self.system.dim, self.l
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
        dtype = _exact_dtype(max(d, len(cols)), l)
        A = _residues(np.reshape(ca, (na * d, d)), l, dtype)
        P = _matmul_residues(A, _residues(np.concatenate(cb, axis=1), l, dtype), l)
        P = P.reshape(na, d, nb, d)
        X = np.empty((len(cols), d, d), dtype)
        for j, rows in shifts.items():
            i, k, col = np.array(rows).T
            S = P[i, :, k, :]
            if j:
                m = len(col)
                T = _residues(self.system.tstar_power(j), l, dtype)
                S = _matmul_residues(T, S.transpose(1, 0, 2).reshape(d, m * d), l)
                S = S.reshape(d, m, d).transpose(1, 0, 2)
            X[col] = S
        e, col, s = np.array(entries).T
        C = np.zeros((len(outs), len(cols)), dtype)
        C[e, col] = s  # symbol_product lists each (eps, j) once per pair, s in [1, l)
        Y = _matmul_residues(C, X.reshape(len(cols), d * d), l)
        keep = Y.any(axis=1)
        Y = Y.astype(np.int64)
        return {eps: Y[r].reshape(d, d) for eps, r in outs.items() if keep[r]}

    def add(self, a, b):
        return (a + b) % self.l

    def scale(self, c, s):
        return (c * int(s)) % self.l

    def is_zero(self, c):
        return not (c % self.l).any()

    def validate(self, eta, c):
        if not self.system.in_parity_span(c, int(eta.flip)):
            raise ParityViolation("coefficient has wrong equivariance for %r" % (eta,))


class FreeCoefficients:
    """Formal noncommutative words in named generators, times powers of
    the central element.  A coefficient is {(word, j): scalar mod l}.

    The shift j counts powers of T* and is left free: T* obeys its own
    minimal polynomial (tstar_minpoly), not the polynomial part's F."""

    def __init__(self, generators, l, tau):
        self.generators = dict(generators)  # name -> parity (0 or 1)
        if not is_prime(l):
            raise BadCharacteristic("l=%d is not prime" % l)
        self.l = l
        self.tau = tau % l
        if gcd(self.tau, l) != 1:
            raise BadCharacteristic("tau=%d is not a unit mod l=%d" % (tau, l))
        self.tau_inv = pow(self.tau, -1, l)

    def one(self):
        return {((), 0): 1}

    def word(self, *names, j=0):
        for n in names:
            if n not in self.generators:
                raise KeyError("unknown generator %r" % (n,))
        return {(tuple(names), j): 1}

    def compose(self, a, b):
        out = {}
        for (w1, j1), s1 in a.items():
            for (w2, j2), s2 in b.items():
                key = (w1 + w2, j1 + j2)
                out[key] = (out.get(key, 0) + s1 * s2) % self.l
        return {k: v for k, v in out.items() if v}

    def tstar(self, c, j):
        return {(wrd, jj + j): s % self.l for (wrd, jj), s in c.items() if s % self.l}

    def combine(self, ca, cb, pairs):
        """Sum of s * T*^j * ca[i] * cb[k], one term at a time."""
        out = {}
        for i, k, terms in pairs:
            c = self.compose(ca[i], cb[k])
            for eps, s, j in terms:
                term = self.scale(self.tstar(c, j), s)
                out[eps] = self.add(out[eps], term) if eps in out else term
        return {k: v for k, v in out.items() if not self.is_zero(v)}

    def add(self, a, b):
        out = dict(a)
        for k, s in b.items():
            out[k] = (out.get(k, 0) + s) % self.l
        return {k: v for k, v in out.items() if v}

    def scale(self, c, s):
        s = int(s) % self.l
        return {k: (v * s) % self.l for k, v in c.items() if (v * s) % self.l}

    def is_zero(self, c):
        return not any(v % self.l for v in c.values())

    def validate(self, eta, c):
        for (wrd, j), s in c.items():
            par = (sum(self.generators[n] for n in wrd) + j) % 2
            if s % self.l and par != int(eta.flip):
                raise ParityViolation(
                    "word %r with shift %d cannot sit on %r" % (wrd, j, eta)
                )


class HeckeEngine:
    """Products and structure constants over a backend."""

    def __init__(self, backend):
        self.be = backend
        self._memo = {}

    # -- structure constants -------------------------------------------

    def symbol_product(self, eta, delta):
        """[eta]_f * [delta]_g = sum of s * [eps]^j_{fg}; returns ((eps, s, j), ...).

        One pass over the letters of delta; terms are (x, y, flip, j)
        tuples keyed to their scalar, and W objects are built only for the
        result.  Lengths are |y - x - flip| (see weyl.length).
        """
        out = self._memo.get((eta, delta))
        if out is not None:
            return out
        l, tau = self.be.l, self.be.tau
        alpha, letters = word_of(delta)
        start = eta * t_power(alpha)
        acc = {(start.x, start.y, start.flip, 0): 1}
        for letter in letters:
            nxt = {}
            for (x, y, flip, j), s in acc.items():
                if letter == "w":
                    xs = (x, y, not flip)
                elif flip:
                    xs = (x + 1, y - 1, False)
                else:
                    xs = (x - 1, y + 1, True)
                k = xs + (j,)
                if abs(xs[1] - xs[0] - xs[2]) > abs(y - x - flip):
                    nxt[k] = (nxt.get(k, 0) + s) % l
                else:
                    nxt[k] = (nxt.get(k, 0) + s * tau) % l
                    k = (x, y, flip, j + 1)
                    nxt[k] = (nxt.get(k, 0) + s) % l
            acc = nxt
        out = tuple(
            (W(x, y, flip), s, j)
            for (x, y, flip, j), s in sorted(acc.items(), key=lambda kv: (kv[0][3], kv[0][:3]))
            if s
        )
        self._memo[eta, delta] = out
        return out

    # -- elements ------------------------------------------------------

    def symbol(self, eta, coeff=None, j=0):
        c = coeff if coeff is not None else self.be.one()
        if j:
            c = self.be.tstar(c, j)
        return {} if self.be.is_zero(c) else {eta: c}

    def add(self, a, b):
        out = dict(a)
        for eta, c in b.items():
            out[eta] = self.be.add(out[eta], c) if eta in out else c
        return {k: v for k, v in out.items() if not self.be.is_zero(v)}

    def scale(self, a, s):
        out = {k: self.be.scale(v, s) for k, v in a.items()}
        return {k: v for k, v in out.items() if not self.be.is_zero(v)}

    def sub(self, a, b):
        return self.add(a, self.scale(b, -1))

    def eq(self, a, b):
        return not self.sub(a, b)

    def mul(self, a, b):
        pairs = [
            (i, k, self.symbol_product(eta, delta))
            for i, eta in enumerate(a)
            for k, delta in enumerate(b)
        ]
        return self.be.combine(list(a.values()), list(b.values()), pairs)

    def validate(self, a):
        for eta, c in a.items():
            self.be.validate(eta, c)

    # -- polynomial part -----------------------------------------------

    def embed_polynomial(self, p):
        """T^i -> [w^(i mod 2)]^i, extended linearly; a ring map."""
        out = {}
        for i, ci in enumerate(p):
            if ci % self.be.l == 0:
                continue
            eta = W_ID if i % 2 == 0 else W_W
            term = self.scale(self.symbol(eta, j=i), ci)
            out = self.add(out, term)
        return out
