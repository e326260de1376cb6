"""Twisted tensor decomposition of the coset algebra.

The algebra splits as (translation pairs) tensor (a polynomial part),
with a twisted commutation rule for moving the second factor past the
first.  Two parallel versions exist:

  * the S-version, where the second factor is R[T] with its shifted
    square rule, reduced modulo the characteristic polynomial; crossing
    is `psi_cross`;
  * the depth-zero version, where the second factor is the finite-cell
    pair (f1, fw); crossing is `zeta_cross`.

`tensor_eval` / `fin_tensor_eval` evaluate tensors into the algebra and
`hecke_to_tensor` / `hecke_to_fin_tensor` translate back; round trips
and multiplicativity are what the test suite pins down.

`iwahori_mul` is an independent one-parameter model of the same Coxeter
datum, used as an external reference for unit-module systems.
"""

from __future__ import annotations

import numpy as np

from .errors import NotMonic, WrongModularCase
from .finhecke import FinElement, fin_mul
from .gfp import pnormalize
from .tpoly import tp_mul, tp_reduce
from .weyl import LETTER, W_ID, W_W, diag, elements_in_window, length, t_power, word_of


class PolynomialPart:
    """R[T] with the shifted product, reduced modulo a monic fpoly.

    The reduction is tpoly.tp_reduce, the normal form for the ideal that
    fpoly generates under the shifted product, so the quotient is a ring;
    an fpoly whose ideal has no unique normal forms raises DegenerateIdeal
    when the part is built.
    """

    def __init__(self, l, tau, fpoly=None):
        self.l = l
        self.tau = tau % l
        self.fpoly = pnormalize(fpoly) if fpoly else None
        if self.fpoly and self.fpoly[-1] % l != 1:
            raise NotMonic("reduction polynomial %r is not monic mod %d" % (self.fpoly, l))
        if self.fpoly:
            tp_reduce((), self.fpoly, self.tau, l)  # raises DegenerateIdeal up front

    def reduce(self, p):
        if not self.fpoly:
            return pnormalize(tuple(c % self.l for c in p))
        return tp_reduce(p, self.fpoly, self.tau, self.l)

    def monomial(self, j):
        return self.reduce((0,) * j + (1,))

    def mul(self, a, b):
        return self.reduce(tp_mul(a, b, self.tau, self.l))


# ---------------------------------------------------------------------------
# the S-version crossing


def psi_cross(pair, j):
    """T^j moved left past a translation pair: [(pair', j', coeff), ...].

    Even powers are central for this purpose.  Odd powers flip an
    ascending pair outright; past a descending pair they leave a shifted
    remainder on the unflipped pair.  A diagonal pair counts as ascending:
    there the descending terms sum to the same single term.
    """
    alpha, beta = pair
    if j % 2 == 0:
        return [((alpha, beta), j, 1)]
    ascending = [((beta, alpha), j, 1)]
    descending = [
        ((alpha, beta), j + 1, 1),
        ((beta, alpha), j, 1),
        ((beta, alpha), j + 1, -1),
    ]
    return ascending if alpha <= beta else descending


def tt_mul(X, Y, S):
    """Product of tensors {(alpha, beta, j): scalar} under the crossing."""
    out = {}
    for (a, b, j), s in X.items():
        for (c, d, i), t in Y.items():
            for (c2, d2), j2, sign in psi_cross((c, d), j):
                poly = S.mul(S.monomial(j2), S.monomial(i))
                for jj, coeff in enumerate(poly):
                    if not coeff:
                        continue
                    key = (a + c2, b + d2, jj)
                    val = (out.get(key, 0) + s * t * sign * coeff) % S.l
                    out[key] = val
    return {k: v for k, v in out.items() if v}


def tensor_eval(eng, X):
    """(alpha, beta) tensor T^j  ->  [diag coset] * embedded T^j, summed."""
    out = {}
    for (a, b, j), s in X.items():
        mono = (0,) * j + (int(s),)
        term = eng.mul(eng.symbol(diag(a, b)), eng.embed_polynomial(mono))
        out = eng.add(out, term)
    return out


def hecke_to_tensor(eng, elem):
    """Inverse of tensor_eval on the distinguished formal basis.

    Expects a formal-backend element whose coefficients are pure central
    shifts {((), a): s}.  Diagonal cosets and flips whose word ends in
    the plain letter translate directly; the remaining flips translate
    through their product with the letter, at the cost of tau.
    """
    tinv = eng.be.tau_inv
    out = {}

    def put(key, s):
        out[key] = (out.get(key, 0) + s) % eng.be.l
        if not out[key]:
            del out[key]

    for eta, coeff in elem.items():
        for (wrd, a), s in coeff.items():
            if wrd != ():
                raise ValueError("translation needs pure shift coefficients")
            if not eta.flip or eta.x >= eta.y:
                put((eta.x, eta.y, a), s)
            else:
                put((eta.x, eta.y, a), s * tinv)
                put((eta.x, eta.y, a + 1), -s * tinv)
    return out


# ---------------------------------------------------------------------------
# the depth-zero version


def fin_as_element(eng, b):
    out = {}
    if b.f1.any():
        out[W_ID] = b.f1 % eng.be.l
    if b.fw.any():
        out[W_W] = b.fw % eng.be.l
    return out


def _tensor_fin_add(out, pair, fin):
    if pair in out:
        out[pair] = out[pair] + fin
    else:
        out[pair] = fin
    if out[pair].is_zero():
        del out[pair]


def zeta_cross(sys, b, pair):
    """A finite-cell pair moved left past a translation pair.

    Returns {pair': FinElement}.  The unit cell passes through; the flip
    cell flips an ascending pair and leaves the two-term remainder on a
    descending one.
    """
    alpha, beta = pair
    l = sys.l
    out = {}
    zero = np.zeros_like(b.f1)
    if b.f1.any():
        _tensor_fin_add(out, (alpha, beta), FinElement(sys, b.f1, zero))
    if b.fw.any():
        f = b.fw % l
        tf = (sys.tstar @ f) % l
        if alpha <= beta:
            _tensor_fin_add(out, (beta, alpha), FinElement(sys, zero, f))
        else:
            _tensor_fin_add(out, (alpha, beta), FinElement(sys, tf, zero))
            _tensor_fin_add(out, (beta, alpha), FinElement(sys, (-tf) % l, f))
    return out


def tt_fin_mul(sys, X, Y):
    """Product of {pair: FinElement} tensors under the zeta crossing."""
    out = {}
    for (a, b), fb in X.items():
        for (c, d), gb in Y.items():
            for (c2, d2), crossed in zeta_cross(sys, fb, (c, d)).items():
                _tensor_fin_add(out, (a + c2, b + d2), fin_mul(crossed, gb))
    return out


def fin_tensor_eval(eng, X):
    out = {}
    for (a, b), fin in X.items():
        term = eng.mul(eng.symbol(diag(a, b)), fin_as_element(eng, fin))
        out = eng.add(out, term)
    return out


def hecke_to_fin_tensor(eng, elem):
    """Inverse of fin_tensor_eval on matrix-mode elements."""
    sys, l, tinv = eng.be.system, eng.be.l, eng.be.tau_inv
    out = {}
    for eta, c in elem.items():
        c = c % l
        zero = np.zeros_like(c)
        if not eta.flip:
            _tensor_fin_add(out, (eta.x, eta.y), FinElement(sys, c, zero))
        elif eta.x >= eta.y:
            _tensor_fin_add(out, (eta.x, eta.y), FinElement(sys, zero, c))
        else:
            tc = (sys.tstar @ c) % l
            fin = FinElement(sys, (-tinv * tc) % l, (tinv * c) % l)
            _tensor_fin_add(out, (eta.x, eta.y), fin)
    return out


# ---------------------------------------------------------------------------
# the one-parameter Coxeter model


def _iwahori_step(acc, s, qbar, l):
    out = {}

    def put(e, c):
        c %= l
        if c:
            out[e] = (out.get(e, 0) + c) % l
            if not out[e]:
                del out[e]

    for x, c in acc.items():
        xs = x * s
        if length(xs) > length(x):
            put(xs, c)
        else:
            put(xs, c * qbar)
            put(x, c * (qbar - 1))
    return out


def iwahori_mul(x, y, qbar, l):
    """T_x T_y in the generic one-parameter algebra on the same group."""
    alpha, letters = word_of(y)
    acc = {x * t_power(alpha): 1}
    for name in letters:
        acc = _iwahori_step(acc, LETTER[name], qbar, l)
    return {e: c % l for e, c in acc.items() if c % l}


def compare_iwahori(sys, eng, bound=2):
    """Engine products against the one-parameter model, coefficientwise.

    Only sound for one-dimensional unit-module systems, where every
    basis function is a scalar multiple of the coset indicator; anything
    else is the wrong modular situation for this comparison.
    """
    if sys.dim != 1 or sys.rho_name != "trivial" or sys.mode != "plain":
        raise WrongModularCase("the model only sees the unit module")
    qbar = sys.q % sys.l
    one = np.array([[1]], dtype=np.int64)
    window = elements_in_window(bound)
    checked = 0
    for eta in window:
        for delta in window:
            got = eng.mul(eng.symbol(eta, one), eng.symbol(delta, one))
            flat = {e: int(c[0, 0]) for e, c in got.items()}
            want = iwahori_mul(eta, delta, qbar, sys.l)
            if flat != want:
                return False, (eta, delta, flat, want)
            checked += 1
    return True, checked


def group_algebra_comparison(sys, eng, bound=2):
    """In the fully degenerate case products follow the group law."""
    qbar = sys.q % sys.l
    tnorm = int((sys.tstar % sys.l).any())
    if qbar != 1 or tnorm:
        raise WrongModularCase("needs q = 1 and a vanishing torus sum mod l")
    one = np.array([[1]], dtype=np.int64)
    for eta in elements_in_window(bound):
        for delta in elements_in_window(bound):
            got = eng.mul(eng.symbol(eta, one), eng.symbol(delta, one))
            if set(got) != {eta * delta}:
                return False, (eta, delta)
            if not np.array_equal(got[eta * delta] % sys.l, one):
                return False, (eta, delta)
    return True, None
