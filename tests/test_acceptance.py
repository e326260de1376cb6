"""Acceptance gate.

Each test drives one externally guaranteed behaviour end to end, asserts it
exactly (zero tolerance, arithmetic over F_l throughout), enforces the
stated runtime budget, and prints a single PASS/FAIL line so the whole gate
can be read at a glance.  Report-only instrumentation prints INFO lines and
never turns into an assertion.
"""

import time

import numpy as np
from reference import coset_count, tstar_group_algebra_power

import heckekit.verify as vf
from heckekit.cli import _fpoly_side
from heckekit.finhecke import (
    compute_fpoly,
    fin_convolve,
    fin_mul,
    middle_hom_dims,
    random_fin_element,
)
from heckekit.modrep import build_coefficient_system


def _emit(capsys, ok, label, detail):
    with capsys.disabled():
        print("%s %s: %s" % ("PASS" if ok else "FAIL", label, detail))


def _info(capsys, label, detail):
    with capsys.disabled():
        print("INFO %s: %s" % (label, detail))


# k=1, q in {3,4,5}; every prime dividing (q-1)(q+1) other than the
# characteristic; every F_l-valued character of the unit-pair group
# (there are gcd(q-1, l-1) of them, so only q=5, l=3 carries a second one).
EIGHT_CASE_MATRIX = [
    (3, 2, "trivial"),
    (4, 3, "trivial"),
    (4, 5, "trivial"),
    (5, 2, "trivial"),
    (5, 3, "trivial"),
    (5, 3, "chi1"),
]


def test_eight_case_conformance_with_residue_oracle(capsys):
    start = time.monotonic()
    rows = []
    for q, l, rho in EIGHT_CASE_MATRIX:
        for mode in ("plain", "pp"):
            rows += vf.check_cases(1, q, l, rho=rho, mode=mode)
    elapsed = time.monotonic() - start
    bad = [r for r in rows if not r.ok]
    ok = not bad and elapsed < 60.0
    _emit(
        capsys, ok, "eight-case conformance",
        "%d case checks over %d module configurations, each matched "
        "term-by-term against the residue oracle, %.1fs (budget 60s)"
        % (len(rows), 2 * len(EIGHT_CASE_MATRIX), elapsed),
    )
    assert not bad, [(r.name, r.inputs, r.detail) for r in bad[:2]]
    assert elapsed < 60.0


# k=1 for every q <= 5 with the same prime rule as above; k=2 only exists
# over GL_2(2), whose sign module is the cuspidal one.
FIN_CONFIGS = (
    [(1, q, l, "trivial") for q, l in [(2, 3), (3, 2), (4, 3), (4, 5), (5, 2), (5, 3)]]
    + [(2, 2, l, "sign") for l in (3, 5, 7)]
)


def test_finite_convolution_matches_model_product(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(20260822)
    checked = 0
    first_bad = None
    notes = []
    for k, q, l, rho in FIN_CONFIGS:
        for mode in ("plain", "pp"):
            sys_ = build_coefficient_system(k, q, l, rho=rho, mode=mode)
            for _ in range(200):
                a = random_fin_element(sys_, rng)
                b = random_fin_element(sys_, rng)
                if fin_mul(a, b) != fin_convolve(a, b) and first_bad is None:
                    first_bad = (k, q, l, rho, mode)
                checked += 1
            if k > 1:
                mids = middle_hom_dims(sys_)
                if any(mids):
                    notes.append(
                        "(%d,%d,%d,%s,%s) has middle intertwiner dims %s: the "
                        "convolution may carry support beyond the two displayed "
                        "cells there" % (k, q, l, rho, mode, mids)
                    )
    elapsed = time.monotonic() - start
    ok = first_bad is None and elapsed < 120.0
    _emit(
        capsys, ok, "finite convolution oracle",
        "%d random pairs across %d configurations agree exactly, %.1fs "
        "(budget 120s)" % (checked, 2 * len(FIN_CONFIGS), elapsed),
    )
    for n in notes:
        _info(capsys, "finite convolution oracle", n)
    assert first_bad is None, first_bad
    assert elapsed < 120.0


def test_parameter_sum_squares_to_zero_in_banal_cases(capsys):
    start = time.monotonic()
    # every prime l | q-1 with q in {2,3,4} and k in {1,2}; q=2 has none
    square_zero = [(1, 3, 2), (2, 3, 2), (1, 4, 3), (2, 4, 3)]
    bad = [cfg for cfg in square_zero if tstar_group_algebra_power(*cfg, 2).any()]
    # one configuration with l not dividing q-1: recorded, never asserted
    witness = [m for m in range(1, 5) if tstar_group_algebra_power(1, 4, 5, m).any()]
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 10.0
    _emit(
        capsys, ok, "square of the parameter sum",
        "(T*)^2 = 0 in the pair group algebra for all %d configurations with "
        "l | q-1, %.1fs (budget 10s)" % (len(square_zero), elapsed),
    )
    _info(
        capsys, "square of the parameter sum",
        "witness (k=1, q=4, l=5): (T*)^m nonzero for every m in %s — not "
        "nilpotent in the observed range (reported only)" % (witness,),
    )
    assert not bad, bad
    assert elapsed < 10.0


def test_swap_cell_coset_counts(capsys):
    start = time.monotonic()
    configs = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2)]
    bad = []
    for k, q in configs:
        swap_cells, total = coset_count(k, q)
        if swap_cells != q ** (k * k):
            bad.append((k, q, swap_cells, total))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 30.0
    _emit(
        capsys, ok, "swap-cell coset counts",
        "enumerated #PwP/P = q^(k^2) for %s, %.1fs (budget 30s)"
        % (", ".join("(%d,%d)" % c for c in configs), elapsed),
    )
    assert not bad, bad
    assert elapsed < 30.0


def test_fpoly_branches_follow_parameter_action(capsys):
    start = time.monotonic()
    branch_configs = [(3, 2), (4, 3), (5, 2)]  # the k=1 pairs with l | q-1
    seen_degrees = set()
    bad = []
    for q, l in branch_configs:
        for mode in ("plain", "pp"):
            sys_ = build_coefficient_system(1, q, l, rho="trivial", mode=mode)
            cp = compute_fpoly(sys_)
            acts = bool(sys_.tstar.any())
            want = (0, 0, 1) if acts else (0, 1)
            seen_degrees.add(cp.degree)
            if tuple(cp.coeffs) != want:
                bad.append((q, l, mode, cp.coeffs, acts))
    elapsed = time.monotonic() - start
    ok = not bad and seen_degrees == {1, 2} and elapsed < 10.0
    _emit(
        capsys, ok, "characteristic polynomial branches",
        "F = T^2 exactly when T* acts nonzero, else F = T, across %d "
        "configurations with l | q-1 (both branches hit), %.1fs (budget 10s)"
        % (2 * len(branch_configs), elapsed),
    )
    assert not bad, bad
    assert seen_degrees == {1, 2}
    assert elapsed < 10.0


def test_decomposition_round_trips_and_multiplicativity(capsys):
    start = time.monotonic()
    rows = vf.check_iso(seed=0, pairs=1000)
    elapsed = time.monotonic() - start
    bad = [r for r in rows if not r.ok]
    ok = not bad and elapsed < 60.0
    _emit(
        capsys, ok, "decomposition round trips",
        "both directions inverse on exhaustive |x|,|y| <= 3 spanning sets and "
        "multiplicative on 1000 seeded pairs, %.1fs (budget 60s)" % elapsed,
    )
    assert not bad, [(r.name, r.detail) for r in bad]
    assert elapsed < 60.0


def test_associativity_on_random_triples(capsys):
    start = time.monotonic()
    rows = vf.check_assoc(seed=42, triples=1000)
    elapsed = time.monotonic() - start
    bad = [r for r in rows if not r.ok]
    ok = not bad and elapsed < 120.0
    _emit(
        capsys, ok, "associativity",
        "1000 seeded triples with support length <= 6, free coefficients plus "
        "two concrete modules, %.1fs (budget 120s)" % elapsed,
    )
    assert not bad, [(r.name, r.detail) for r in bad]
    assert elapsed < 120.0


def test_scalar_specialization_matches_classical_models(capsys):
    start = time.monotonic()
    rows = vf.check_iwahori(1, 4, 3, bound=2) + vf.check_iwahori(1, 3, 2, bound=2)
    elapsed = time.monotonic() - start
    # both configurations degenerate fully, so the group-law comparison must
    # genuinely run in each — "report" rows are not acceptable here
    bad = [r for r in rows if r.status != "pass"]
    ok = not bad and len(rows) == 4 and elapsed < 30.0
    _emit(
        capsys, ok, "scalar specializations",
        "(q=4, l=3) matches the integral double-coset model and (q=3, l=2) "
        "the sign-parameter one, basis bijections and group law included "
        "(%d rows), %.1fs (budget 30s)" % (len(rows), elapsed),
    )
    assert not bad, [(r.name, r.status, r.detail) for r in bad]
    assert len(rows) == 4
    assert elapsed < 30.0


def test_cross_rank_fpoly_comparison_is_reported(capsys):
    start = time.monotonic()
    lines = []
    for l in (3, 5, 7):
        s22, cp22 = _fpoly_side(2, 2, l, "trivial", "plain")
        s41, cp41 = _fpoly_side(1, 4, l, "trivial", "plain")
        equal = tuple(cp22.coeffs) == tuple(cp41.coeffs)
        lines.append(
            "l=%d: F(q=2,k=2) = %s vs F(q=4,k=1) = %s, equal=%s; "
            "T*-images %s | %s"
            % (l, cp22, cp41, equal, s22.tstar.tolist(), s41.tstar.tolist())
        )
    elapsed = time.monotonic() - start
    ok = len(lines) == 3 and elapsed < 300.0
    _emit(
        capsys, ok, "cross-rank comparison (report only)",
        "computed both sides for l in (3, 5, 7) and emitted the data below, "
        "%.1fs (budget 300s)" % elapsed,
    )
    for line in lines:
        _info(capsys, "cross-rank comparison", line)
    assert len(lines) == 3
    assert elapsed < 300.0
