"""Exact number theory on Python integers: primality and prime powers.

Kept apart from gfp so that callers which need only these, the free
backend and `heckekit mul`, load no numpy.
"""

from __future__ import annotations

import math

from .errors import TooLarge

# Miller-Rabin with these bases is exact for every n below 2^64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Exact primality; TooLarge for n >= 2^64 with no factor among the
    witnesses, where no deterministic test is on file."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    if n >= 1 << 64:
        raise TooLarge("no primality test for %d >= 2^64" % n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n, a):
    """The integer part of the a-th root of n >= 1: Newton's method on
    integers, from a float estimate just above the root where one exists,
    which it then reaches in a few steps."""
    x = math.log(n) / a
    r = int(math.exp(x) * (1 + 1e-12)) + 1 if x < 700 else 1 << -(-n.bit_length() // a)
    while True:
        s = ((a - 1) * r + n // r ** (a - 1)) // a
        if s >= r:
            return r
        r = s


def _factor_prime_power(q):
    """(p, a) with q = p^a; TooLarge if q is not a prime power, or if p is
    beyond the range of is_prime."""
    if q < 2:
        raise TooLarge("bad q=%d" % q)
    p = next((p for p in _WITNESSES if q % p == 0), None)
    if p is not None:
        a, m = 0, q
        while m % p == 0:
            m, a = m // p, a + 1
        if m == 1:
            return p, a
    else:
        # every prime factor is at least 41; with the exponents tried from
        # the largest down, the first exact root that is prime is p
        for a in range(int(math.log(q, 41)) + 1, 0, -1):
            p = _iroot(q, a)
            if p**a == q and is_prime(p):
                return p, a
    raise TooLarge("q=%d is not a prime power" % q)
