import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckekit import verify
from heckekit.errors import DegenerateIdeal, NotMonic, TooLarge, WrongModularCase
from heckekit.finhecke import FinElement, fin_mul, fin_unit, fin_w, random_fin_element
from heckekit.gfp import pnormalize
from heckekit.heckealg import FreeCoefficients, HeckeEngine, MatrixCoefficients
from heckekit.modrep import build_coefficient_system
from heckekit.twisted import (
    PolynomialPart,
    _tensor_fin_add,
    compare_iwahori,
    fin_as_element,
    fin_tensor_eval,
    group_algebra_comparison,
    hecke_to_fin_tensor,
    hecke_to_tensor,
    iwahori_mul,
    psi_cross,
    tensor_eval,
    tt_fin_mul,
    tt_mul,
    zeta_cross,
)
from heckekit.weyl import W, W_ID, W_T, W_TINV, W_W, W_WP, diag, elements_in_window, word_of

_ENGINES = {}


def matrix_engine(k, q, l, rho="trivial", mode="plain"):
    key = (k, q, l, rho, mode)
    if key not in _ENGINES:
        sys = build_coefficient_system(k, q, l, rho=rho, mode=mode)
        _ENGINES[key] = (sys, HeckeEngine(MatrixCoefficients(sys)))
    return _ENGINES[key]


def free_engine(l=5, tau=4):
    key = ("free", l, tau)
    if key not in _ENGINES:
        _ENGINES[key] = HeckeEngine(FreeCoefficients({}, l, tau))
    return _ENGINES[key]


def elem_eq(out, want, l):
    if set(out) != set(want):
        return False
    return all(np.array_equal(out[k] % l, want[k] % l) for k in out)


def small_fins(sys, rng):
    # [w] carries I where I is a swap-intertwiner and T* where it is not,
    # since fin_w refuses an element that is not bi-equivariant
    eye = np.eye(sys.dim, dtype=np.int64)
    w = fin_w(sys, 0 if sys.in_parity_span(eye, 1) else 1)
    mixed = fin_unit(sys) + fin_w(sys, 1)
    return [fin_unit(sys), w, random_fin_element(sys, rng), mixed]


# ---------------------------------------------------------------------------
# the polynomial part


def test_polypart_frozen_products():
    S = PolynomialPart(5, 4, fpoly=(1, 0, 1))
    assert S.mul((0, 1), (0, 1)) == (1, 4)
    assert S.mul((0, 0, 1), (0, 0, 1)) == (1,)
    assert S.monomial(2) == (4,)
    assert S.monomial(3) == (0, 4)

    unreduced = PolynomialPart(5, 4)
    assert unreduced.mul((0, 1), (0, 1)) == (0, 0, 4, 1)
    assert unreduced.monomial(3) == (0, 0, 0, 1)


def test_polypart_degenerate_reduction():
    # killing the generator itself leaves only constants
    S = PolynomialPart(3, 1, fpoly=(0, 1))
    assert S.mul((0, 1), (0, 1)) == ()
    assert S.mul((2,), (2,)) == (1,)
    assert S.monomial(1) == ()


def test_polypart_rejects_non_monic():
    with pytest.raises(NotMonic):
        PolynomialPart(5, 4, fpoly=(1, 0, 3))


def test_polypart_rejects_degenerate_ideal():
    # f = T^3 + T^2 + 2T + 1 generates everything for tau = 1 over F_5, and
    # f = T for tau = 0 has no degree-2 element: neither has unique normal forms
    with pytest.raises(DegenerateIdeal):
        PolynomialPart(5, 1, fpoly=(1, 2, 1, 1))
    with pytest.raises(DegenerateIdeal):
        PolynomialPart(5, 0, fpoly=(0, 1))


def test_polypart_commutative_associative():
    rng = np.random.default_rng(7)
    systems = [PolynomialPart(5, 4, fpoly=(1, 0, 1)), PolynomialPart(7, 3)]
    for S in systems:
        for _ in range(40):
            a, b, c = (
                tuple(int(x) for x in rng.integers(0, S.l, size=rng.integers(1, 5)))
                for _ in range(3)
            )
            assert S.mul(a, b) == S.mul(b, a)
            assert S.mul(a, S.mul(b, c)) == S.mul(S.mul(a, b), c)


# ---------------------------------------------------------------------------
# the crossing rule, three ways: on monomials, on whole polynomials, and
# as an identity between products inside the algebra


def test_cross_rule_shapes():
    assert psi_cross((2, 5), 4) == [((2, 5), 4, 1)]
    assert psi_cross((1, 3), 1) == [((3, 1), 1, 1)]
    assert psi_cross((2, 0), 1) == [((2, 0), 2, 1), ((0, 2), 1, 1), ((0, 2), 2, -1)]
    assert psi_cross((1, 1), 5) == [((1, 1), 5, 1)]
    for j in range(5):
        assert psi_cross((0, 0), j) == [((0, 0), j, 1)]


def _cross_poly_by_monomials(pair, r, l):
    out = {}
    for j, c in enumerate(r):
        if c % l == 0:
            continue
        for pr, j2, sg in psi_cross(pair, j):
            arr = out.setdefault(pr, [0] * (len(r) + 2))
            arr[j2] = (arr[j2] + sg * c) % l
    return {pr: pnormalize(tuple(a)) for pr, a in out.items() if any(x % l for x in a)}


def _cross_poly_closed_form(pair, r, l):
    # one formula per chamber, applied to the whole polynomial at once
    alpha, beta = pair
    n = len(r) + 2
    keep, swap = [0] * n, [0] * n
    if alpha <= beta:
        for i, c in enumerate(r):
            (keep if i % 2 == 0 else swap)[i] = c % l
    else:
        for i in range(len(r) + 1):
            c = r[i] if i < len(r) else 0
            prev = r[i - 1] if i >= 1 else 0
            if i % 2 == 0:
                keep[i] = (c + prev) % l
            else:
                swap[i] = (swap[i] + c) % l
                swap[i + 1] = (swap[i + 1] - c) % l
    out = {}
    for key, arr in (((alpha, beta), keep), ((beta, alpha), swap)):
        cur = list(out.get(key, ())) + [0] * n
        for i, c in enumerate(arr):
            cur[i] = (cur[i] + c) % l
        norm = pnormalize(tuple(cur))
        if norm:
            out[key] = norm
        elif key in out:
            del out[key]
    return out


def test_cross_rule_matches_whole_poly_form():
    rng = np.random.default_rng(11)
    l = 11
    for pair in [(0, 3), (3, 0), (2, 2), (-1, 2), (1, -2)]:
        for _ in range(25):
            r = tuple(int(x) for x in rng.integers(0, l, size=rng.integers(1, 7)))
            assert _cross_poly_by_monomials(pair, r, l) == _cross_poly_closed_form(
                pair, r, l
            )


def test_cross_rule_identity_in_engine():
    eng = free_engine()
    for alpha in range(-2, 3):
        for beta in range(-2, 3):
            for j in range(4):
                lhs = eng.mul(
                    eng.embed_polynomial((0,) * j + (1,)),
                    eng.symbol(diag(alpha, beta)),
                )
                rhs = {}
                for pr, j2, sg in psi_cross((alpha, beta), j):
                    term = eng.mul(
                        eng.symbol(diag(*pr)),
                        eng.embed_polynomial((0,) * j2 + (1,)),
                    )
                    rhs = eng.add(rhs, eng.scale(term, sg))
                assert eng.eq(lhs, rhs), (alpha, beta, j)


# ---------------------------------------------------------------------------
# translation tensors: round trips and the limits of multiplicativity


def test_tensor_round_trip_basis():
    eng = free_engine()
    for alpha in range(-3, 4):
        for beta in range(-3, 4):
            for j in range(4):
                X = {(alpha, beta, j): 1}
                assert hecke_to_tensor(eng, tensor_eval(eng, X)) == X


def test_tensor_round_trip_symbols():
    eng = free_engine()
    for e in elements_in_window(3):
        for a in (int(e.flip), int(e.flip) + 2):
            elem = eng.symbol(e, j=a)
            back = tensor_eval(eng, hecke_to_tensor(eng, elem))
            assert eng.eq(back, elem), (e, a)


def test_tensor_round_trip_random_sums():
    eng = free_engine()
    rng = np.random.default_rng(23)
    for _ in range(12):
        X = {}
        for _ in range(rng.integers(1, 4)):
            key = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)), int(rng.integers(0, 4)))
            X[key] = int(rng.integers(1, 5))
        assert hecke_to_tensor(eng, tensor_eval(eng, X)) == X


def _random_tensor(rng, nterms, central=False):
    X = {}
    for _ in range(nterms):
        a = int(rng.integers(-2, 3))
        b = a if central else int(rng.integers(-2, 3))
        X[(a, b, int(rng.integers(0, 4)))] = int(rng.integers(1, 5))
    return X


@pytest.mark.parametrize("central_side", ["left", "right"])
def test_tensor_mul_matches_engine_on_aligned_pairs(central_side):
    # a central factor never changes chamber, so lengths stay additive on
    # that side and the tensor product agrees with the algebra product
    eng = free_engine()
    S = PolynomialPart(5, 4)
    rng = np.random.default_rng(101 if central_side == "left" else 202)
    for _ in range(120):
        X = _random_tensor(rng, int(rng.integers(1, 3)), central=central_side == "left")
        Y = _random_tensor(rng, int(rng.integers(1, 3)), central=central_side == "right")
        got = tensor_eval(eng, tt_mul(X, Y, S))
        want = eng.mul(tensor_eval(eng, X), tensor_eval(eng, Y))
        assert eng.eq(got, want), (X, Y)


def test_tensor_mul_matrix_mode_sample():
    sys, eng = matrix_engine(1, 4, 5)
    S = PolynomialPart(5, 4, fpoly=(1, 0, 1))
    rng = np.random.default_rng(303)
    for _ in range(60):
        X = _random_tensor(rng, 1, central=True)
        Y = _random_tensor(rng, int(rng.integers(1, 3)))
        got = tensor_eval(eng, tt_mul(X, Y, S))
        want = eng.mul(tensor_eval(eng, X), tensor_eval(eng, Y))
        assert eng.eq(got, want), (X, Y)


def test_opposite_chamber_pair_is_not_componentwise():
    # the one thing tensors do NOT see: translations from opposite
    # chambers shorten, so their product picks up a second term
    eng = free_engine()
    S = PolynomialPart(5, 4)
    X, Y = {(0, 1, 0): 1}, {(1, 0, 0): 1}
    assert tt_mul(X, Y, S) == {(1, 1, 0): 1}

    true = eng.mul(tensor_eval(eng, X), tensor_eval(eng, Y))
    naive = tensor_eval(eng, tt_mul(X, Y, S))
    assert not eng.eq(true, naive)

    want = eng.add(
        eng.scale(eng.symbol(diag(1, 1)), 4),
        eng.symbol(W(0, 2, True), j=1),
    )
    assert eng.eq(true, want)
    # in tensor coordinates the correction is tau^{-1} (0,2) (T - T^2)
    assert hecke_to_tensor(eng, true) == {(1, 1, 0): 4, (0, 2, 1): 4, (0, 2, 2): 1}


# ---------------------------------------------------------------------------
# the depth-zero crossing


FIN_SYSTEMS = [(1, 4, 5, "trivial", "plain"), (1, 4, 3, "trivial", "pp")]


def gamma_action(sys, j, b):
    """The polynomial generator acting on the finite cells, j times."""
    power = sys.tstar_power(j)
    zero = np.zeros_like(power)
    shift = FinElement(sys, power, zero) if j % 2 == 0 else FinElement(sys, zero, power)
    return fin_mul(shift, b)


def psi3_cross(sys, b, pair):
    """The crossing computed along the composite route.

    Instead of comparing the pair entries, this conjugates the flip cell
    past the diagonal symbol by inspecting the symbol's reduced word (the
    branch condition of the four-case rewriting table), then pushes the
    leftover one-variable shifts into the cell pair with `gamma_action`.
    Agreement with `zeta_cross` on every pair is a test.
    """
    alpha, beta = pair
    l = sys.l
    out = {}
    zero = np.zeros_like(b.f1)
    if b.f1.any():
        _tensor_fin_add(out, (alpha, beta), FinElement(sys, b.f1 % l, zero))
    if b.fw.any():
        f = b.fw % l
        tpow, letters = word_of(diag(alpha, beta))
        ascending_word = (not letters) or (
            letters[-1] == "w"
            and letters[0] == ("w'" if tpow % 2 == 0 else "w")
        )
        swap = (beta, alpha)
        if ascending_word:
            terms = [(swap, 0, FinElement(sys, zero, f))]
        else:
            assert letters[-1] == "w'"
            assert letters[0] == ("w" if tpow % 2 == 0 else "w'")
            tf = (sys.tstar @ f) % l
            terms = [
                (swap, 0, FinElement(sys, (-tf) % l, f)),
                ((alpha, beta), 0, FinElement(sys, tf, zero)),
            ]
        for pr, shift, fin in terms:
            _tensor_fin_add(out, pr, gamma_action(sys, shift, fin))
    return out


@pytest.mark.parametrize("k,q,l,rho,mode", FIN_SYSTEMS)
def test_fin_cross_identity_in_engine(k, q, l, rho, mode):
    sys, eng = matrix_engine(k, q, l, rho=rho, mode=mode)
    rng = np.random.default_rng(17)
    for b in small_fins(sys, rng):
        for alpha in range(-2, 3):
            for beta in range(-2, 3):
                lhs = eng.mul(fin_as_element(eng, b), eng.symbol(diag(alpha, beta)))
                rhs = {}
                for pr, b2 in zeta_cross(sys, b, (alpha, beta)).items():
                    rhs = eng.add(
                        rhs, eng.mul(eng.symbol(diag(*pr)), fin_as_element(eng, b2))
                    )
                assert eng.eq(lhs, rhs), (b, alpha, beta)


@pytest.mark.parametrize("k,q,l,rho,mode", FIN_SYSTEMS)
def test_fin_cross_unit_axioms(k, q, l, rho, mode):
    sys, _ = matrix_engine(k, q, l, rho=rho, mode=mode)
    rng = np.random.default_rng(19)
    one = fin_unit(sys)
    for pair in [(0, 0), (2, -1), (-1, 2), (1, 1)]:
        assert zeta_cross(sys, one, pair) == {pair: one}
        assert psi3_cross(sys, one, pair) == {pair: one}
    for b in small_fins(sys, rng):
        assert zeta_cross(sys, b, (0, 0)) == {(0, 0): b}
        assert psi3_cross(sys, b, (0, 0)) == {(0, 0): b}


@pytest.mark.parametrize("k,q,l,rho,mode", FIN_SYSTEMS)
def test_word_route_agrees_with_comparison_route(k, q, l, rho, mode):
    # one route branches on the reduced word of the translation, the
    # other compares the pair entries; they must produce the same terms
    sys, _ = matrix_engine(k, q, l, rho=rho, mode=mode)
    rng = np.random.default_rng(29)
    for b in small_fins(sys, rng):
        for alpha in range(-2, 3):
            for beta in range(-2, 3):
                assert psi3_cross(sys, b, (alpha, beta)) == zeta_cross(
                    sys, b, (alpha, beta)
                )


@pytest.mark.parametrize("k,q,l,rho,mode", FIN_SYSTEMS)
def test_fin_round_trip_tensor_side(k, q, l, rho, mode):
    sys, eng = matrix_engine(k, q, l, rho=rho, mode=mode)
    rng = np.random.default_rng(31)
    for b in small_fins(sys, rng):
        for alpha in range(-2, 3):
            for beta in range(-2, 3):
                X = {(alpha, beta): b}
                back = hecke_to_fin_tensor(eng, fin_tensor_eval(eng, X))
                assert back == X, (alpha, beta)


@pytest.mark.parametrize("k,q,l,rho,mode,bound", [(1, 4, 5, "trivial", "plain", 2), (1, 4, 3, "trivial", "pp", 1)])
def test_fin_round_trip_element_side(k, q, l, rho, mode, bound):
    sys, eng = matrix_engine(k, q, l, rho=rho, mode=mode)
    for e in elements_in_window(bound):
        bas = sys.basis(int(e.flip))
        for c in (bas[0], bas[-1]):
            elem = {e: c % l}
            back = fin_tensor_eval(eng, hecke_to_fin_tensor(eng, elem))
            assert eng.eq(back, elem), e


def test_fin_tensor_mul_frozen_row():
    sys, _ = matrix_engine(1, 4, 5)
    X = {(0, 0): fin_w(sys)}
    Y = {(1, 0): fin_unit(sys)}
    got = tt_fin_mul(sys, X, Y)
    want = {
        (1, 0): FinElement(sys, [[3]], [[0]]),
        (0, 1): FinElement(sys, [[2]], [[1]]),
    }
    assert got == want

    one = {(0, 0): fin_unit(sys)}
    assert tt_fin_mul(sys, one, Y) == Y
    assert tt_fin_mul(sys, Y, one) == Y


@pytest.mark.parametrize("k,q,l,rho,mode,rounds", [(1, 4, 5, "trivial", "plain", 60), (1, 4, 3, "trivial", "pp", 15)])
def test_fin_tensor_mul_safe_regime(k, q, l, rho, mode, rounds):
    sys, eng = matrix_engine(k, q, l, rho=rho, mode=mode)
    rng = np.random.default_rng(41)
    for i in range(rounds):
        a = int(rng.integers(-2, 3))
        if i % 2 == 0:
            X = {(a, a): random_fin_element(sys, rng)}
            Y = {(int(rng.integers(-2, 3)), int(rng.integers(-2, 3))): random_fin_element(sys, rng)}
        else:
            X = {(int(rng.integers(-2, 3)), int(rng.integers(-2, 3))): random_fin_element(sys, rng)}
            Y = {(a, a): random_fin_element(sys, rng)}
        got = fin_tensor_eval(eng, tt_fin_mul(sys, X, Y))
        want = eng.mul(fin_tensor_eval(eng, X), fin_tensor_eval(eng, Y))
        assert eng.eq(got, want), (X, Y)


def test_fin_opposite_chamber_boundary():
    sys, eng = matrix_engine(1, 4, 5)
    X = {(0, 1): fin_unit(sys)}
    Y = {(1, 0): fin_unit(sys)}
    assert tt_fin_mul(sys, X, Y) == {(1, 1): fin_unit(sys)}

    true = eng.mul(fin_tensor_eval(eng, X), fin_tensor_eval(eng, Y))
    naive = fin_tensor_eval(eng, tt_fin_mul(sys, X, Y))
    assert not eng.eq(true, naive)
    want = {diag(1, 1): np.array([[4]]), W(0, 2, True): np.array([[3]])}
    assert elem_eq(true, want, sys.l)


@pytest.mark.parametrize("k,q,l,rho,mode", FIN_SYSTEMS)
def test_gamma_shift_action(k, q, l, rho, mode):
    sys, _ = matrix_engine(k, q, l, rho=rho, mode=mode)
    rng = np.random.default_rng(43)
    tau = sys.tau % sys.l
    for b in small_fins(sys, rng):
        assert gamma_action(sys, 0, b) == b
        # the action respects the shifted square of the generator
        twice = gamma_action(sys, 1, gamma_action(sys, 1, b))
        g2, g3 = gamma_action(sys, 2, b), gamma_action(sys, 3, b)
        want = FinElement(sys, tau * g2.f1 + g3.f1, tau * g2.fw + g3.fw)
        assert twice == want


# ---------------------------------------------------------------------------
# the one-parameter model


def test_model_quadratic_relation():
    assert iwahori_mul(W_W, W_W, 3, 7) == {W_ID: 3, W_W: 2}
    assert iwahori_mul(W_WP, W_WP, 3, 7) == {W_ID: 3, W_WP: 2}
    # a shortening product one step up
    assert iwahori_mul(W_W * W_WP, W_WP, 3, 7) == {W_W: 3, W_W * W_WP: 2}


def test_model_translation_freeness():
    assert iwahori_mul(W_T, W_TINV, 3, 7) == {W_ID: 1}
    assert iwahori_mul(W_W, W_T, 3, 7) == {W(1, 0, False): 1}
    assert iwahori_mul(W_T, W_T, 5, 11) == {diag(1, 1): 1}


def _model_elem_mul(A, B, qbar, l):
    out = {}
    for x, c in A.items():
        for y, d in B.items():
            for z, e in iwahori_mul(x, y, qbar, l).items():
                out[z] = (out.get(z, 0) + c * d * e) % l
    return {k: v for k, v in out.items() if v}


def test_model_associativity_sample():
    rng = np.random.default_rng(47)
    window = elements_in_window(1)
    for _ in range(15):
        x, y, z = (window[int(i)] for i in rng.integers(0, len(window), size=3))
        lhs = _model_elem_mul(iwahori_mul(x, y, 4, 5), {z: 1}, 4, 5)
        rhs = _model_elem_mul({x: 1}, iwahori_mul(y, z, 4, 5), 4, 5)
        assert lhs == rhs, (x, y, z)


@pytest.mark.parametrize(
    "k,q,l,bound",
    [(1, 3, 2, 1), (1, 4, 3, 1), (1, 4, 5, 2)],
)
def test_compare_model_unit_systems(k, q, l, bound):
    sys, eng = matrix_engine(k, q, l)
    ok, detail = compare_iwahori(sys, eng, bound=bound)
    assert ok, detail
    n = len(elements_in_window(bound))
    assert detail == n * n


def test_iwahori_suite_refuses_from_the_bound_alone(monkeypatch):
    # 2 * 13^2 = 338 elements at bound 6 are 114,244 products; bound 4,
    # 26,244, is the largest window under the budget of 32,768
    compared = []
    monkeypatch.setattr(verify, "compare_iwahori",
                        lambda sys, eng, bound: compared.append(bound) or (True, 0))
    with pytest.raises(TooLarge, match="114244 products"):
        verify.check_iwahori(bound=6)
    with pytest.raises(TooLarge, match="58564 products"):
        verify.check_iwahori(bound=5)
    assert compared == []
    verify.check_iwahori(bound=4)
    assert compared == [4]


def test_compare_model_rejects_other_systems():
    sys, eng = matrix_engine(1, 4, 3, mode="pp")
    with pytest.raises(WrongModularCase):
        compare_iwahori(sys, eng, bound=1)
    sys2, eng2 = matrix_engine(1, 5, 3, rho="chi1")
    with pytest.raises(WrongModularCase):
        compare_iwahori(sys2, eng2, bound=1)


def test_group_law_degenerate_case():
    for args in [(1, 3, 2), (1, 4, 3)]:
        sys, eng = matrix_engine(*args)
        ok, detail = group_algebra_comparison(sys, eng, bound=1)
        assert ok, detail
    sys, eng = matrix_engine(1, 4, 5)
    with pytest.raises(WrongModularCase):
        group_algebra_comparison(sys, eng, bound=1)


_poly = st.lists(st.integers(0, 6), min_size=0, max_size=5).map(tuple)


@given(
    st.sampled_from([5, 7]),
    st.integers(0, 6),
    st.lists(st.integers(0, 6), min_size=1, max_size=3),
    st.lists(st.tuples(_poly, _poly, _poly), min_size=1, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_polypart_is_a_ring_for_any_monic_f(l, tau, tail, triples):
    # f = tail + T^deg, any monic f of degree 1-3: the quotient by the ideal
    # f generates under the shifted product is a ring, or it is refused
    try:
        S = PolynomialPart(l, tau, fpoly=tuple(tail) + (1,))
        products = [(S.mul(S.mul(a, b), c), S.mul(a, S.mul(b, c))) for a, b, c in triples]
    except DegenerateIdeal:
        return
    for left, right in products:
        assert left == right
        assert len(left) < len(S.fpoly)
