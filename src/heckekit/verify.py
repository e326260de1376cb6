"""Named verification suites shared by the CLI and the acceptance tests.

Each check function builds its own engines, runs an exact comparison, and
returns `CheckResult` rows; nothing here prints or exits.  The CLI turns
rows into text lines and a JSON report, the acceptance tests assert on
them directly, so both speak about the same computations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from functools import cache

import numpy as np

from .errors import BadCount, TooLarge, WrongModularCase
from .finhecke import fin_unit, fin_w, random_fin_element
from .heckealg import FreeCoefficients, HeckeEngine, MatrixCoefficients
from .modrep import _gl_order, build_coefficient_system
from .residue import central_class, oracle_product, p_eta_pattern, pair_count, support_window
from .twisted import (
    PolynomialPart,
    compare_iwahori,
    fin_tensor_eval,
    group_algebra_comparison,
    hecke_to_fin_tensor,
    hecke_to_tensor,
    tensor_eval,
    tt_fin_mul,
    tt_mul,
)
from .weyl import (
    W,
    W_ID,
    W_T,
    W_TINV,
    W_W,
    W_WP,
    diag,
    elements_in_window,
    length,
    render,
)


@dataclass
class CheckResult:
    name: str
    anchor: str
    inputs: dict
    status: str  # "pass" | "fail" | "report"
    detail: str = ""

    @property
    def ok(self):
        return self.status != "fail"

    def to_json(self):
        return asdict(self)


def _result(name, anchor, inputs, ok, detail=""):
    return CheckResult(name, anchor, inputs, "pass" if ok else "fail", detail)


def _sampled(name, anchor, inputs, n, ok, detail):
    """A row over n seeded samples; with none it is a report, never a pass."""
    if n == 0:
        return CheckResult(name, anchor, inputs, "report", "0 samples; nothing checked")
    return _result(name, anchor, inputs, ok, detail)


def _at_least(name, value, low):
    if value < low:
        raise BadCount("%s=%d; need at least %d" % (name, value, low))


# functools.cache keys a keyword call apart from a positional one, so every
# call passes rho and mode, positionally
@cache
def matrix_engine(k, q, l, rho, mode):
    sys = build_coefficient_system(k, q, l, rho=rho, mode=mode)
    return sys, HeckeEngine(MatrixCoefficients(sys))


@cache
def free_engine(l, tau):
    return HeckeEngine(FreeCoefficients({}, l, tau))


def elem_eq(a, b, l):
    if set(a) != set(b):
        return False
    return all(np.array_equal(a[k] % l, b[k] % l) for k in a)


def oracle_supported(e):
    ur, ll = p_eta_pattern(e)
    return max(ur, ll - 1) <= 2


def oracle_window(bound):
    """The elements of elements_in_window(bound) that oracle_supported
    admits, in its order; only the diagonals |y - x| <= 3 are listed."""
    r = range(-bound, bound + 1)
    return [e for x in r for y in range(max(-bound, x - 3), min(bound, x + 3) + 1)
            for e in (W(x, y, False), W(x, y, True)) if oracle_supported(e)]


# ---------------------------------------------------------------------------
# the eight shortening products

TW = W_T * W_W
WTINV = W_W * W_TINV
TINVWP = W_TINV * W_WP

EIGHT_CASES = (
    (W_W, W_W, W_ID, W_W),
    (TW, WTINV, W_ID, W_WP),
    (W_WP, W_WP, W_ID, W_WP),
    (WTINV, TW, W_ID, W_W),
    (W_W, WTINV, W_TINV, WTINV),
    (TINVWP, W_WP, W_TINV, TINVWP),
    (TW, W_W, W_T, TW),
    (W_WP, TW, W_T, W_WP * W_T),
)


def check_cases(k, q, l, rho="trivial", mode="plain"):
    """The eight shortening case products, three ways per case.

    Structure constants, the elementwise product with concrete basis
    coefficients, and the enumeration oracle must agree.
    """
    sys, eng = matrix_engine(k, q, l, rho, mode)
    tau = sys.tau % l
    inputs = {"k": k, "q": q, "l": l, "module": rho, "mode": mode}
    out = []
    for n, (eta, delta, drop, keep) in enumerate(EIGHT_CASES, start=1):
        name = "mul.case%d" % n
        got = eng.symbol_product(eta, delta)
        want = ((drop, tau, 0), (keep, 1, 1))
        if got != want:
            out.append(_result(name, name, inputs, False, "constants %r != %r" % (got, want)))
            continue
        f = sys.basis(int(eta.flip))[0] % l
        g = sys.basis(int(delta.flip))[-1] % l
        prod = eng.mul(eng.symbol(eta, f), eng.symbol(delta, g))
        fg = (f @ g) % l
        want_elem = eng.add(eng.scale(eng.symbol(drop, fg), tau), eng.symbol(keep, fg, j=1))
        if not eng.eq(prod, want_elem):
            out.append(_result(name, name, inputs, False, "elementwise mismatch"))
            continue
        ora = oracle_product(sys, eta, f, delta, g)
        if not elem_eq(prod, ora, l):
            out.append(_result(name, name, inputs, False,
                               "oracle disagrees at %s * %s" % (render(eta), render(delta))))
            continue
        out.append(_result(name, name, inputs, True, "tau=%d drop=%s" % (tau, render(drop))))
    return out


# u-cosets x cells one oracle window may cost in all: each distinct pair of
# central classes is priced as solving its u-cosets against its cells once,
# and every product then sums once per cell.  The oracle solves a t-orbit of
# 4 class pairs once, so this is an upper bound.  Wall times of `verify
# --suite oracle` on a 2-vCPU Xeon VM: (1, 4) at bound 2 is 24,086, 0.6-1.0 s
# in pp mode; (2, 2) at bound 2 is 150,134, 1.0 s; bound 8 is at most 285,894
# at q <= 5, 3.7-4.6 s at q = 5; (1, 71) at bound 2, 2,585,094, is refused
_MAX_WINDOW_PAIRS = 300000
_MIN_CELLS = 6  # the support of a product of two gap-0 classes


def window_cost(k, q, window):
    """The u-cosets x cells that oracle_product spends on every product of
    window, at most: each pair of central classes priced as one solve, where
    the oracle solves each t-orbit of 4 such pairs once; TooLarge from
    pair_count where one class pair is past _MAX_PAIRS."""
    classes = Counter(central_class(e)[0] for e in window)
    return sum(pair_count(k, q, a, b) + m * n * len(support_window(a, b))
               for a, m in classes.items() for b, n in classes.items())


def check_oracle_window(k, q, l, rho="trivial", mode="plain", bound=1):
    """Engine vs the enumeration oracle on every supported pair in a window.
    TooLarge when one pair of central classes would solve more than
    _MAX_PAIRS u-cosets x cells, or the whole window cost more than
    _MAX_WINDOW_PAIRS; both need only k, q and the bound, so they are
    checked before the system is built or the oracle's cache is read, and
    a window too large by its size alone is refused before it is listed."""
    _at_least("bound", bound, 0)
    _gl_order(k, q)  # BadCount or TooLarge unless k is 1 or 2, before any q^(k^2)
    # every product sums over at least _MIN_CELLS cells, so _MIN_CELLS times
    # the window's size squared is at most its cost; support depends on
    # y - x and flip only, and the supported diagonals |y - x| <= 3 alone
    # count from the bound
    least = sum(max(0, 2 * bound + 1 - abs(d)) for d in range(-3, 4)
                for flip in (False, True) if oracle_supported(W(0, d, flip)))
    if _MIN_CELLS * least * least > _MAX_WINDOW_PAIRS:
        raise TooLarge("the oracle window at bound %d holds at least %d elements, so at least"
                       " %d cell sums; at most %d" % (bound, least, _MIN_CELLS * least * least,
                                                       _MAX_WINDOW_PAIRS))
    window = oracle_window(bound)
    total = window_cost(k, q, window)
    if total > _MAX_WINDOW_PAIRS:
        raise TooLarge("the oracle window would cost %d u-cosets x cells; at most %d"
                       % (total, _MAX_WINDOW_PAIRS))
    sys, eng = matrix_engine(k, q, l, rho, mode)
    inputs = {"k": k, "q": q, "l": l, "module": rho, "mode": mode, "bound": bound}
    checked = 0
    for eta in window:
        f = sys.basis(int(eta.flip))[0] % l
        for delta in window:
            g = sys.basis(int(delta.flip))[-1] % l
            got = eng.mul(eng.symbol(eta, f), eng.symbol(delta, g))
            want = oracle_product(sys, eta, f, delta, g)
            if not elem_eq(got, want, l):
                return [_result("mul.oracle-window", "mul.oracle-window", inputs, False,
                                "first mismatch at %s * %s" % (render(eta), render(delta)))]
            checked += 1
    return [_result("mul.oracle-window", "mul.oracle-window", inputs, True,
                    "%d products agree" % checked)]


# ---------------------------------------------------------------------------
# decomposition round trips and multiplicativity


def _random_tensor(rng, l, nterms, central=False):
    X = {}
    for _ in range(nterms):
        a = int(rng.integers(-2, 3))
        b = a if central else int(rng.integers(-2, 3))
        X[(a, b, int(rng.integers(0, 4)))] = int(rng.integers(1, l))
    return X


# the iso and assoc suites run on fixed systems, not on the configuration
# verify is given: the free engine at l = 5, tau = 4, plus FIN_SYSTEM for iso
# and ASSOC_SYSTEMS for assoc, whose supports have length at most 6
FREE_L, FREE_TAU = 5, 4
FIN_SYSTEM = (1, 4, 5, "trivial", "plain")
ASSOC_SYSTEMS = ((1, 4, 5, "trivial", "plain"), (1, 4, 3, "trivial", "pp"))
ASSOC_MAX_LEN = 6


def check_iso(seed=0, pairs=1000):
    """Round trips of both decompositions, then seeded multiplicativity.

    Random pairs keep one factor's translations central: a central
    translation composes with anything without shortening, so the tensor
    product and the algebra product agree there (every crossing branch is
    still exercised by the other factor).  Products of translations from
    opposite chambers shorten and acquire a second term; the boundary
    check pins the first such product exactly.
    """
    _at_least("pairs", pairs, 1)
    _at_least("seed", seed, 0)
    l, tau = FREE_L, FREE_TAU
    eng = free_engine(l, tau)
    inputs = {"l": l, "tau": tau, "seed": seed, "pairs": pairs}
    out = []

    bad = None
    for alpha in range(-3, 4):
        for beta in range(-3, 4):
            for j in range(4):
                X = {(alpha, beta, j): 1}
                if hecke_to_tensor(eng, tensor_eval(eng, X)) != X:
                    bad = ("tensor basis", X)
    for e in elements_in_window(3):
        for a in (int(e.flip), int(e.flip) + 2):
            elem = eng.symbol(e, j=a)
            if not eng.eq(tensor_eval(eng, hecke_to_tensor(eng, elem)), elem):
                bad = ("symbol", (render(e), a))
    out.append(_result("iso.round-trip", "iso.round-trip", inputs, bad is None,
                       "exhaustive window 3, shifts 0..3" if bad is None else repr(bad)))

    sysf, engf = matrix_engine(*FIN_SYSTEM)
    fin_inputs = dict(inputs, system="k%d.q%d.l%d" % FIN_SYSTEM[:3])
    rng = np.random.default_rng(seed + 1)
    bad = None
    fins = [fin_unit(sysf), fin_w(sysf), random_fin_element(sysf, rng)]
    for alpha in range(-3, 4):
        for beta in range(-3, 4):
            for b in fins:
                X = {(alpha, beta): b}
                back = hecke_to_fin_tensor(engf, fin_tensor_eval(engf, X))
                if back != X:
                    bad = ("fin tensor basis", (alpha, beta))
    for e in elements_in_window(3):
        bas = sysf.basis(int(e.flip))
        for c in (bas[0], bas[-1]):
            elem = {e: c % sysf.l}
            back = fin_tensor_eval(engf, hecke_to_fin_tensor(engf, elem))
            if not engf.eq(back, elem):
                bad = ("fin symbol", render(e))
    out.append(_result("iso.fin-round-trip", "iso.fin-round-trip", fin_inputs, bad is None,
                       "exhaustive window 3" if bad is None else repr(bad)))

    S = PolynomialPart(l, tau)
    rng = np.random.default_rng(seed)
    half = pairs - pairs // 3
    bad = None
    for i in range(half):
        X = _random_tensor(rng, l, int(rng.integers(1, 3)), central=i % 2 == 0)
        Y = _random_tensor(rng, l, int(rng.integers(1, 3)), central=i % 2 == 1)
        got = tensor_eval(eng, tt_mul(X, Y, S))
        want = eng.mul(tensor_eval(eng, X), tensor_eval(eng, Y))
        if not eng.eq(got, want):
            bad = (X, Y)
            break
    out.append(_sampled("iso.multiplicative", "iso.multiplicative", inputs, half, bad is None,
                        "%d aligned pairs" % half if bad is None else repr(bad)))

    nfin = pairs // 3
    bad = None
    for i in range(nfin):
        a = int(rng.integers(-2, 3))
        other = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
        Xp, Yp = ((a, a), other) if i % 2 == 0 else (other, (a, a))
        X = {Xp: random_fin_element(sysf, rng)}
        Y = {Yp: random_fin_element(sysf, rng)}
        got = fin_tensor_eval(engf, tt_fin_mul(sysf, X, Y))
        want = engf.mul(fin_tensor_eval(engf, X), fin_tensor_eval(engf, Y))
        if not engf.eq(got, want):
            bad = (Xp, Yp)
            break
    out.append(_sampled("iso.fin-multiplicative", "iso.fin-multiplicative", fin_inputs, nfin,
                        bad is None, "%d aligned pairs" % nfin if bad is None else repr(bad)))

    # the boundary: translations from opposite chambers shorten, so the
    # algebra product carries a correction term the plain tensor misses
    X, Y = {(0, 1, 0): 1}, {(1, 0, 0): 1}
    true = eng.mul(tensor_eval(eng, X), tensor_eval(eng, Y))
    want = eng.add(eng.scale(eng.symbol(diag(1, 1)), tau), eng.symbol(W(0, 2, True), j=1))
    naive = tensor_eval(eng, tt_mul(X, Y, S))
    ok = eng.eq(true, want) and not eng.eq(true, naive)
    out.append(_result("iso.chamber-boundary", "iso.chamber-boundary", inputs, ok,
                       "opposite-chamber product = tau*[t^2] + [t^2 w']^1, not componentwise"))
    return out


# ---------------------------------------------------------------------------
# the one-parameter model


# products one iwahori window may form: every pair of its 2(2B+1)^2 elements,
# so bound 4 is 26,244 products (about 4 s) and bound 5, 58,564, is refused
_MAX_IWAHORI_PRODUCTS = 2**15


def check_iwahori(k=1, q=4, l=3, rho="trivial", mode="plain", bound=2):
    """Engine structure constants against the one-parameter model.

    Where the parameter degenerates to 1 and the torus sum vanishes the
    same products are also compared with the plain group algebra.
    TooLarge, from the bound alone, past _MAX_IWAHORI_PRODUCTS products.
    """
    _at_least("bound", bound, 0)
    products = (2 * (2 * bound + 1) ** 2) ** 2
    if products > _MAX_IWAHORI_PRODUCTS:
        raise TooLarge("the iwahori window at bound %d is %d products; at most %d"
                       % (bound, products, _MAX_IWAHORI_PRODUCTS))
    sys, eng = matrix_engine(k, q, l, rho, mode)
    inputs = {"k": k, "q": q, "l": l, "rho": rho, "mode": mode, "bound": bound}
    out = []
    ok, detail = compare_iwahori(sys, eng, bound=bound)
    out.append(_result("iwahori.match", "iwahori.match", inputs, ok,
                       "%s products agree (qbar=%d)" % (detail, q % l) if ok
                       else "mismatch at %s * %s" % (render(detail[0]), render(detail[1]))))
    try:
        ok2, detail2 = group_algebra_comparison(sys, eng, bound=min(bound, 1))
        out.append(_result("iwahori.group-law", "iwahori.group-law", inputs, ok2,
                           "degenerate case follows the group law" if ok2 else repr(detail2)))
    except WrongModularCase:
        out.append(CheckResult("iwahori.group-law", "iwahori.group-law", inputs, "report",
                               "not a fully degenerate configuration; comparison skipped"))
    return out


# ---------------------------------------------------------------------------
# associativity


def _random_element_free(eng, rng, window):
    out = {}
    for _ in range(int(rng.integers(1, 3))):
        e = window[int(rng.integers(0, len(window)))]
        c = {((), int(rng.integers(0, 3))): int(rng.integers(1, eng.be.l))}
        out = eng.add(out, {e: c})
    return out


def _random_element_matrix(sys, eng, rng, window):
    out = {}
    for _ in range(int(rng.integers(1, 3))):
        e = window[int(rng.integers(0, len(window)))]
        bas = sys.basis(int(e.flip))
        c = np.zeros((sys.dim, sys.dim), dtype=np.int64)
        for s, m in zip(rng.integers(0, sys.l, size=len(bas)), bas):
            c = (c + int(s) * m) % sys.l
        if c.any():
            out = eng.add(out, {e: c})
    return out


def check_assoc(seed=42, triples=1000):
    """(a*b)*c == a*(b*c) on seeded random triples, three backends."""
    _at_least("triples", triples, 1)
    _at_least("seed", seed, 0)
    l, tau = FREE_L, FREE_TAU
    window = [e for e in elements_in_window(3) if length(e) <= ASSOC_MAX_LEN]
    out = []

    eng = free_engine(l, tau)
    rng = np.random.default_rng(seed)
    n_free = triples - 2 * (triples // 4)
    bad = None
    for _ in range(n_free):
        a, b, c = (_random_element_free(eng, rng, window) for _ in range(3))
        if not eng.eq(eng.mul(eng.mul(a, b), c), eng.mul(a, eng.mul(b, c))):
            bad = (a, b, c)
            break
    detail = "supports of length <= %d" % ASSOC_MAX_LEN
    out.append(_sampled("mul.assoc-free", "mul.assoc",
                        {"seed": seed, "triples": n_free, "l": l, "tau": tau},
                        n_free, bad is None, detail if bad is None else repr(bad)))

    for cfg in ASSOC_SYSTEMS:
        sys, eng = matrix_engine(*cfg)
        rng = np.random.default_rng(seed + 1)
        bad = None
        for _ in range(triples // 4):
            a, b, c = (_random_element_matrix(sys, eng, rng, window) for _ in range(3))
            lhs = eng.mul(eng.mul(a, b), c)
            rhs = eng.mul(a, eng.mul(b, c))
            if not eng.eq(lhs, rhs):
                bad = tuple(sorted(render(e) for e in a))
                break
        out.append(_sampled("mul.assoc-%s" % cfg[4], "mul.assoc",
                            {"seed": seed, "triples": triples // 4, "system": sys.name},
                            triples // 4, bad is None, detail if bad is None else repr(bad)))
    return out
