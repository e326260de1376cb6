"""Multiplication engine for the affine double-coset algebra.

Elements are dicts {Weyl element: coefficient}.  Coefficients live in a
pluggable backend: matrices acting on a concrete coefficient system, or
formal words in named generators, with free central shifts, for
structure-constant work.  A basis
symbol [eta]^j_c stands for the function supported on the coset of eta
with value (central element)^j * c there.

The engine computes structure constants once per (eta, delta) pair, in
closed form.  The Weyl part is infinite dihedral: reduced words
alternate w, w', and by the quadratic relation [x] * [s] = tau * [x.s] +
[x]^1 when x.s is shorter than x, [x.s] otherwise, a product shortens
only while delta's word undoes the end of eta's (Iwahori and Matsumoto,
Publ. Math. IHES 25, 1965).  With delta = t^alpha . s_1 ... s_n reduced,
x = eta.t^alpha and m = (l(x) + n - l(eta.delta)) / 2 cancelled letters,

  [eta] * [delta] = tau^m [eta.delta]
                    + sum_{i=1..m} tau^(i-1) [x.s_1 ... s_(i-1).s_(i+1) ... s_n]^1:

m + 1 terms of distinct lengths, shifts 0 and 1 only.  The scalars
(s, j) do not depend on the coefficients and get memoised per engine.

`mul` gathers the structure constants (eps, s, j) of every pair of terms,
reading the memo itself and calling symbol_product only on a miss, and
hands the whole product to one backend call, `combine`.  The matrix
backend stacks all pairwise coefficient products P (stopping if all are
0) and T*^j.P for each shift j > 0, so that a term is a row, and gathers
each output's few rows (a pair has m + 1 terms); the free backend adds s
times each pair's word product, shifted by j, straight into the outputs.

The inputs are reduced into [0, l) once.  Every product of the call is an
integer of known bound, so an intermediate is reduced only where the next
stage could leave the integers its precision holds exactly (the delayed
reduction of Dumas, Giorgi and Pernet's FFLAS, ACM TOMS 35, 2008), and the
outputs once.  One precision serves the call, picked with the refusal
before any product from its largest inner dimension n = max(dim, columns):
float32 when n*(l-1)^2 < 2^24, float64 otherwise, TooLarge unless < 2^53.

Only the matrix backend loads numpy and gfp, inside its own methods; the
free backend and the engine need neither, so `heckekit mul` starts
without them.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd

from .errors import BadCharacteristic, ParityViolation
from .numth import is_prime
from .weyl import LETTER, W_ID, W_W, length, t_power, word_of


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

        P = every ca[i].cb[k], the d x d blocks (na, 1) against (1, nb) ({}
        if every P is 0), is block 0 of a stack and T*^j.P, for each shift
        j > 0 in order of first mention, the next, so that a term (i, k, j)
        is a row.  Each output, indexed by first mention, sums its terms'
        rows rank by rank (rank t: the t-th term of every output that has
        one), reduced mod l once into one int64 array (outputs, d, d).
        Entries are integers of at most d(l-1)^2 after P, times d(l-1) after
        T*^j, times ranks(l-1) after the sums (ranks <= columns, the distinct
        (i, k, j)); a stage's input is reduced first, its bound becoming l-1,
        only where its output's bound would reach the precision's exact limit.

        `mul` passes j in {0, 1} only; other shifts come from direct calls.
        """
        import numpy as np

        from .gfp import _exact_bound, _exact_dtype, _reduce, _residues

        d, l, r = self.system.dim, self.l, self.l - 1
        na, nb = len(ca), len(cb)
        cols, shifts, outs = set(), {0: 0}, {}  # shift j -> its block; eps -> terms (row, s)
        for i, k, terms in pairs:
            for eps, s, j in terms:
                row = (shifts.setdefault(j, len(shifts)) * na + i) * nb + k
                cols.add(row)  # the stack's row of (i, k, j)
                outs.setdefault(eps, []).append((row, s))
        if not outs:
            return {}
        dtype = _exact_dtype(max(d, len(cols)), l)
        limit = _exact_bound(d, l, dtype)
        _exact_bound(len(cols), l, dtype)
        R = _residues(np.concatenate([*ca, *cb]), l, dtype)  # ca stacked, then cb
        A, B = R[: na * d].reshape(na, 1, d, d), R[na * d :].reshape(1, nb, d, d)
        Q = np.empty((len(shifts), na, nb, d, d), dtype)  # the stack: block of j = T*^j.P
        P, top = np.matmul(A, B, out=Q[0]), d * r * r  # P[i, k] = ca[i].cb[k]
        if not P.any():  # an exact float 0 is the integer 0
            return {}
        if len(shifts) > 1:
            if top * d * r >= limit:
                P, top = _reduce(P, l), r
            for j, x in list(shifts.items())[1:]:
                np.matmul(_residues(self.system.tstar_power(j), l, dtype), P, out=Q[x])
            top *= d * r
        Q = Q.reshape(-1, d * d)
        ranks = list(zip_longest(*outs.values()))  # ranks[t][o]: term t of output o
        if top * r * len(ranks) >= limit:
            _reduce(Q, l)

        def gathered(terms):  # the rows of terms (row, s), each times its s
            qs, ss = zip(*terms)
            G = Q[list(qs)]
            if ss.count(1) < len(ss):
                G *= np.array(ss, dtype)[:, None]
            return G

        Y = gathered(ranks[0])  # rank 0 holds every output, in order
        for rank in ranks[1:]:
            rows = [o for o, x in enumerate(rank) if x]
            Y[rows] += gathered([rank[o] for o in rows])
        keep = _reduce(Y, l).any(axis=1).tolist()
        Y = Y.astype(np.int64).reshape(-1, d, d)
        return {eps: y for eps, y, live in zip(outs, Y, keep) if live}

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

    @staticmethod
    def _unreduced_product(a, b):
        out = {}
        for (w1, j1), s1 in a.items():
            for (w2, j2), s2 in b.items():
                key = (w1 + w2, j1 + j2)
                out[key] = out.get(key, 0) + s1 * s2
        return out

    def compose(self, a, b):
        return {k: v % self.l for k, v in self._unreduced_product(a, b).items() if v % self.l}

    def tstar(self, c, j):
        return {(wrd, jj + j): s % self.l for (wrd, jj), s in c.items() if s % self.l}

    def combine(self, ca, cb, pairs):
        """Sum of s * T*^j * ca[i] * cb[k]: each pair's word product once,
        then s times it, its shifts moved by j, added into the outputs on
        Python ints; reduced mod l, zeros dropped, once at the end.

        `mul` passes j in {0, 1} only; other shifts come from direct calls."""
        l, out = self.l, {}
        for i, k, terms in pairs:
            c = self._unreduced_product(ca[i], cb[k])
            for eps, s, j in terms:
                acc = out.setdefault(eps, {})
                for (wrd, jj), v in c.items():
                    key = (wrd, jj + j)
                    acc[key] = acc.get(key, 0) + s * v
        out = {eps: {key: v % l for key, v in acc.items() if v % l} for eps, acc in out.items()}
        return {eps: acc for eps, acc in out.items() if acc}

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

        The closed form above, sorted by (j, eps), in O(m) group products:
        term i is p.s_i.p^-1 . eta.delta with p = x.s_1 ... s_(i-1).  tau is
        a unit mod l, so no scalar vanishes.
        """
        out = self._memo.get((eta, delta))
        if out is not None:
            return out
        l, tau = self.be.l, self.be.tau
        alpha, letters = word_of(delta)
        p, prod = eta * t_power(alpha), eta * delta
        m = (length(p) + len(letters) - length(prod)) // 2
        shifted = []
        for i, letter in enumerate(letters[:m]):
            ps = p * LETTER[letter]
            shifted.append((ps * p.inv() * prod, pow(tau, i, l), 1))
            p = ps
        out = ((prod, pow(tau, m, l), 0), *sorted(shifted))
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
        memo = self._memo  # read here; symbol_product is called only on a miss
        pairs = [
            (i, k, memo.get((eta, delta)) or self.symbol_product(eta, delta))
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
