"""Twisted polynomial model of the spherical parameter line.

One variable T over F_l, with the product twisted on odd-by-odd monomials:

    T^a * T^b = tau . T^{a+b} + T^{a+b+1}    when a and b are both odd,
    T^a * T^b = T^{a+b}                      otherwise,

extended bilinearly.  The result is commutative and associative (it embeds
into rational functions: T^{2i} -> X^{2i}/(X+tau)^i and similarly for odd
powers).  Polynomials are little-endian tuples, as in gfp.

tp_reduce is the one reduction modulo the ideal of f: division by f and T*f.
"""

from __future__ import annotations

from .errors import DegenerateIdeal
from .gfp import padd, pnormalize, pscale


def tp_mono(i, j, tau, l):
    """T^i * T^j as a coefficient tuple."""
    if i % 2 == 1 and j % 2 == 1:
        out = [0] * (i + j + 2)
        out[i + j] = tau % l
        out[i + j + 1] = 1
        return pnormalize(out)
    out = [0] * (i + j + 1)
    out[i + j] = 1
    return tuple(out)


def tp_mul(a, b, tau, l):
    out = ()
    for i, x in enumerate(a):
        if x % l == 0:
            continue
        for j, y in enumerate(b):
            if y % l == 0:
                continue
            out = padd(out, pscale(tp_mono(i, j, tau, l), x * y, l), l)
    return out


def tp_reduce(p, fpoly, tau, l):
    """Normal form of p against the ideal generated by fpoly for *.

    T^2 * x is the plain shift of x, so the ideal is spanned by the shifts
    T^{2i}.f and T^{2i}.h, where h is T*f less T^2.f when deg f is odd.
    If deg h = deg f + 1, their leading degrees meet each degree >= deg f
    exactly once: dividing from the top degree d down, by f or h as the
    parity of d - deg f says, gives the unique representative of degree
    < deg f, and the quotient is a ring.  Otherwise the ideal holds a
    nonzero element of lower degree, or has rank one over F[T^2], and this
    raises DegenerateIdeal.  f need not be monic; l must be prime.
    """
    fpoly = pnormalize(tuple(c % l for c in fpoly))
    if not fpoly:
        raise ZeroDivisionError("reduction by zero")
    degf = len(fpoly) - 1
    if degf == 0:
        return ()  # a unit generates everything
    h = tp_mul((0, 1), fpoly, tau, l)
    if len(h) == degf + 3:
        h = padd(h, pscale((0, 0) + fpoly, -1, l), l)
    if len(h) != degf + 2:
        raise DegenerateIdeal(
            "ideal of %r has no element of degree %d (tau=%d)" % (fpoly, degf + 1, tau)
        )
    divisors = ((fpoly, pow(fpoly[-1], -1, l)), (h, pow(h[-1], -1, l)))
    r = [c % l for c in p]
    for d in range(len(r) - 1, degf - 1, -1):
        g, inv = divisors[(d - degf) % 2]
        c = r[d] * inv
        for i, gi in enumerate(g, start=d + 1 - len(g)):
            r[i] = (r[i] - c * gi) % l
    return pnormalize(tuple(r[:degf]))
