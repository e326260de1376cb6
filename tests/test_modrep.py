import hashlib
import os
import subprocess
import sys as _sys_mod
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from reference import kronecker_intertwiners, regular_module, split_indecomposable, splitting_cover
from test_acceptance import FIN_CONFIGS

import heckekit
from heckekit import finhecke, modrep
from heckekit.errors import (
    BadCharacteristic,
    EmptyIntertwiners,
    NotACharacter,
    NotAGroup,
    NotAHomomorphism,
    NotCuspidal,
    TooLarge,
    UnknownModule,
    UnsupportedGroup,
)
from heckekit.gfp import GF, rank_mod
from heckekit.modrep import (
    FiniteGroupTable,
    ProductGroup,
    RepModule,
    boxtimes,
    build_coefficient_system,
    contragredient,
    general_linear,
    intertwiners,
    irreducible_modules,
    is_absolutely_irreducible,
    is_cuspidal,
    pair_index,
    projective_cover,
    swap_permutation,
    unit_group,
)
from heckekit.numth import is_prime


# ---------------------------------------------------------------------------
# reference models: the trivial module, and irreducibility by sweeping every
# vector plus a one-dimensional commutant


def trivial_module(G, l):
    return RepModule(G, np.ones((G.n, 1, 1), dtype=np.int64), l, name="trivial")


def product_table(G1, G2):
    """G1 x G2 as a full table on the labels (i, j), so at index i * n2 + j."""
    return FiniteGroupTable([(i, j) for i in range(G1.n) for j in range(G2.n)],
                            lambda a, b: (int(G1.MUL[a[0], b[0]]), int(G2.MUL[a[1], b[1]])))


def commutant(rep):
    return intertwiners(rep.A, rep.A, rep.l, generators=rep.G.generators)


def is_irreducible(rep):
    """Exhaustive: every nonzero vector must generate everything."""
    l, d = rep.l, rep.dim
    if l**d > 10**5:
        raise TooLarge("too many vectors to sweep")
    for code in range(1, l**d):
        v = np.array([(code // l**i) % l for i in range(d)], dtype=np.int64)
        orbit = (rep.A @ v) % l
        if rank_mod(orbit, l) < d:
            return False
    return True


def _sweepable_modules():
    """Irreducible, regular and dual modules over every (q, k, l) with an
    enumeration, l != p, that the sweep can still decide (l^d <= 10^5)."""
    out = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = GF(q)
        for k in (1, 2) if q == 2 else (1,):  # GL_2 is enumerated over F_2 only
            G = general_linear(k, F)
            for l in (2, 3, 5, 7, 11):
                if l == F.p:
                    continue
                mods = [r for _, r in irreducible_modules(G, l)] + [regular_module(G, l)]
                for r in mods + [contragredient(r) for r in mods]:
                    if l**r.dim <= 10**5:
                        out.append(pytest.param(r, id="q%d.k%d.l%d.%s" % (q, k, l, r.name)))
    return out


SWEEPABLE = _sweepable_modules()


def test_sweepable_module_count():
    assert len(SWEEPABLE) == 158


@pytest.mark.parametrize("rep", SWEEPABLE)
def test_burnside_agrees_with_sweep_and_commutant(rep):
    want = is_irreducible(rep) and len(commutant(rep)) == 1
    assert is_absolutely_irreducible(rep) == want


def test_unit_group_sizes():
    assert unit_group(GF(5)).n == 4
    assert unit_group(GF(4)).n == 3
    assert unit_group(GF(2)).n == 1


def test_general_linear_orders():
    assert general_linear(2, GF(2)).n == 6
    assert general_linear(2, GF(3)).n == 48
    assert general_linear(2, GF(4)).n == 180
    # the closed form that refuses a table before GF(q) is built
    for k, q in [(1, 2), (1, 9), (2, 2), (2, 3), (2, 4)]:
        assert modrep._gl_order(k, q) == general_linear(k, GF(q)).n


def test_table_inverses():
    G = general_linear(2, GF(3))
    for i in range(0, G.n, 7):
        assert G.MUL[i, G.INV[i]] == 0
        assert G.MUL[G.INV[i], i] == 0


def test_neg_is_central_involution_action():
    G = general_linear(2, GF(3))
    for i in (0, 5, 17):
        # -(-g) = g, and -(gh) = (-g)h
        assert G.NEG[G.NEG[i]] == i
        for j in (1, 3):
            assert G.NEG[G.MUL[i, j]] == G.MUL[G.NEG[i], j]


def test_generators_generate():
    for G in (unit_group(GF(5)), general_linear(2, GF(2))):
        reach = {0}
        frontier = set(G.generators) | {0}
        while frontier:
            reach |= frontier
            nxt = {int(G.MUL[a, b]) for a in reach for b in reach}
            frontier = nxt - reach
        assert reach == set(range(G.n))


def test_product_group_and_swap():
    G = unit_group(GF(4))
    P = ProductGroup(G, G)
    assert P.n == 9
    s = swap_permutation(P)
    ij = pair_index(P, 1, 2)
    assert s[ij] == pair_index(P, 2, 1)
    # the product is not tabulated; its rows and inverses are those of the
    # full table on pairs
    T = product_table(G, G)
    assert T.MUL[ij, pair_index(P, 2, 1)] == T.MUL[pair_index(P, 2, 1), ij]
    for g in range(P.n):
        assert np.array_equal(P.row(g), T.MUL[g])
    assert np.array_equal(P.INV, T.INV)


def test_coefficient_system_does_not_tabulate_the_product():
    # M x M at q = 71 has 4,900 elements; its dense table alone was 4,900^2
    # int64, 183 MiB, for a one-dimensional V
    with mock.patch.dict(modrep._SYSTEM_CACHE, clear=True):
        tracemalloc.start()
        try:
            sys = build_coefficient_system(1, 71, 3, "trivial", "plain")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert sys.MM.n == 4900 and not hasattr(sys.MM, "MUL")
    assert peak < 4 << 20, peak


def test_product_too_large():
    G = general_linear(2, GF(4))
    with pytest.raises(TooLarge):
        ProductGroup(G, G)


def test_regular_module_is_faithful_action():
    G = general_linear(2, GF(2))
    reg = regular_module(G, 5)
    # validated on construction; spot-check one full product
    g, h = 2, 4
    assert np.array_equal((reg.A[g] @ reg.A[h]) % 5, reg.A[G.MUL[g, h]])


def _broken_stacks():
    """(what is wrong, group, stack) for two stacks that are not representations:
    an identity acting as 2, and the regular module of GL_2(2) with the
    matrices of two non-identity elements exchanged."""
    U = unit_group(GF(5))
    G = general_linear(2, GF(2))
    swapped = regular_module(G, 5).A.copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    return [("identity", U, np.full((U.n, 1, 1), 2, dtype=np.int64)),
            ("generator", G, swapped)]


@pytest.mark.parametrize("case", range(2))
def test_validate_raises_typed_error(case):
    what, G, A = _broken_stacks()[case]
    with pytest.raises(NotAHomomorphism, match=what):
        RepModule(G, A, 5)
    RepModule(G, A, 5, validate=False)  # the check is the only gate


def test_validate_raises_under_optimize():
    script = """
import sys
sys.path.insert(0, %r)
from test_modrep import _broken_stacks
from heckekit.errors import NotAHomomorphism
from heckekit.modrep import RepModule
for what, G, A in _broken_stacks():
    try:
        RepModule(G, A, 5)
    except NotAHomomorphism:
        print(what, __debug__)
""" % os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(heckekit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [_sys_mod.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["identity", "False", "generator", "False"]


def _tampered_s3():
    """GL_2(2) = S_3 with one product of a 3-cycle by the first involution
    redirected, so that the coset products x h of the cover miss an element;
    element orders, read off powers only, are unchanged."""
    G = general_linear(2, GF(2))
    orders = modrep._element_orders(G)
    x1, x2 = np.flatnonzero(orders == 3)
    h = np.flatnonzero(orders == 2)[0]
    G.MUL = G.MUL.copy()
    G.MUL[x1, h] = G.MUL[x2, h]
    return G


def _singular_label_table():
    G = general_linear(2, GF(2))
    G.labels = list(G.labels)
    G.labels[1] = ((1, 1), (1, 1))
    return G


# (what is wrong, error, call) on data that no group built here produces
BAD_DATA = [
    ("no identity", NotAGroup,
     lambda: FiniteGroupTable([1, 2], lambda a, b: 2)),
    ("no inverse", NotAGroup,
     lambda: FiniteGroupTable([0, 1], lambda a, b: a * b % 2)),
    ("no root of unity", BadCharacteristic,
     lambda: irreducible_modules(unit_group(GF(5)), 8)),
    ("singular label", NotAGroup,
     lambda: irreducible_modules(_singular_label_table(), 5)),
    ("no complement", NotAGroup,
     lambda: projective_cover(trivial_module(_tampered_s3(), 3))),
]


@pytest.mark.parametrize("case", range(len(BAD_DATA)), ids=[b[0] for b in BAD_DATA])
def test_bad_group_data_raises_typed_error(case):
    _, exc, call = BAD_DATA[case]
    with pytest.raises(exc):
        call()


def test_bad_group_data_raises_under_optimize():
    script = """
import sys
sys.path.insert(0, %r)
from test_modrep import BAD_DATA
for what, exc, call in BAD_DATA:
    try:
        call()
    except exc:
        print(what.replace(" ", "-"), __debug__)
""" % os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(heckekit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [_sys_mod.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["no-identity", "False", "no-inverse", "False",
                                   "no-root-of-unity", "False", "singular-label", "False",
                                   "no-complement", "False"]


def test_cover_refuses_without_a_normal_sylow_or_a_cyclic_complement():
    # S_3 mod 2 has three Sylow 2-subgroups; C_2 x C_6 mod 3 has L = C_3 and
    # the complement C_2 x C_2, which is not cyclic
    with pytest.raises(TooLarge, match="not normal"):
        projective_cover(trivial_module(general_linear(2, GF(2)), 2))
    G = product_table(unit_group(GF(3)), unit_group(GF(7)))
    with pytest.raises(TooLarge, match="no cyclic complement"):
        projective_cover(trivial_module(G, 3))


def test_unit_characters_counts():
    # gcd(q-1, l-1) characters with values in F_l
    assert len(irreducible_modules(unit_group(GF(5)), 3)) == 2
    assert len(irreducible_modules(unit_group(GF(5)), 2)) == 1
    assert len(irreducible_modules(unit_group(GF(4)), 7)) == 3
    assert len(irreducible_modules(unit_group(GF(4)), 5)) == 1
    assert len(irreducible_modules(unit_group(GF(3)), 5)) == 2


def scanned_roots_of_unity(m, l):
    """The m-th roots of unity mod l by scanning every residue, and the
    least of full order: what _unit_characters did before."""
    roots = sorted(z for z in range(1, l) if pow(z, m, l) == 1)
    for z in roots:
        o, zz = 1, z
        while zz != 1:
            zz, o = zz * z % l, o + 1
        if o == len(roots):
            return roots, z


def test_roots_of_unity_match_the_scan():
    for l in (l for l in range(2, 501) if is_prime(l)):
        for m in range(1, 81):
            g, zeta = modrep._root_of_unity(m, l)
            assert (sorted(pow(zeta, i, l) for i in range(g)), zeta) == \
                scanned_roots_of_unity(m, l), (m, l)
    # a composite l has no cyclic group of roots to build characters from,
    # even where the scan found one (l = 9, m = 2)
    for l in (8, 9):
        with pytest.raises(BadCharacteristic):
            irreducible_modules(unit_group(GF(3)), l)


def test_characters_are_multiplicative():
    G = unit_group(GF(5))
    for name, chi in irreducible_modules(G, 5):
        for a in range(G.n):
            for b in range(G.n):
                lhs = (chi.A[a] * chi.A[b]) % 5
                assert lhs == chi.A[G.MUL[a, b]]


def test_gl2f2_modules():
    G = general_linear(2, GF(2))
    for l, expect in [(3, {"trivial", "sign"}), (5, {"trivial", "sign", "std"}), (7, {"trivial", "sign", "std"})]:
        got = dict(irreducible_modules(G, l))
        assert set(got) == expect
        for rep in got.values():
            assert is_absolutely_irreducible(rep)


def test_cuspidality():
    G = general_linear(2, GF(2))
    for l in (3, 5, 7):
        mods = dict(irreducible_modules(G, l))
        assert is_cuspidal(mods["sign"])
        assert not is_cuspidal(mods["trivial"])
        if "std" in mods:
            assert not is_cuspidal(mods["std"])
    assert is_cuspidal(trivial_module(unit_group(GF(4)), 3))


def test_cuspidality_refuses_other_groups():
    # only GL_1 and GL_2 have a unipotent radical on file; anything else is a
    # typed refusal, the same under python -O
    G = unit_group(GF(4))
    others = [trivial_module(product_table(G, G), 3), trivial_module(ProductGroup(G, G), 3)]
    for rep in others:
        with pytest.raises(UnsupportedGroup, match="GL_1 and GL_2 only"):
            is_cuspidal(rep)


def test_is_irreducible_catches_reducible():
    G = unit_group(GF(4))
    reg = regular_module(G, 7)  # C_3 regular over l=7: splits
    assert not is_irreducible(reg)
    assert is_irreducible(trivial_module(G, 7))


def test_contragredient_and_boxtimes():
    G = unit_group(GF(5))
    chis = dict(irreducible_modules(G, 3))
    chi = chis["chi1"]
    dual = contragredient(chi)
    for i in range(G.n):
        assert (chi.A[i] * dual.A[i]) % 3 == 1
    P = ProductGroup(G, G)
    VV = boxtimes(chi, dual, P)
    assert VV.dim == 1


def test_intertwiners_schur():
    G = general_linear(2, GF(2))
    mods = dict(irreducible_modules(G, 5))
    assert len(commutant(mods["std"])) == 1
    assert len(intertwiners(mods["trivial"].A, mods["sign"].A, 5)) == 0


def test_intertwiners_refuse_a_system_too_large_to_build():
    # dim 128 against dim 128 is 16384 unknowns: a 2 GiB Kronecker block per
    # generator, refused before any block is allocated
    A = np.stack([np.eye(128, dtype=np.int64)] * 2)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="16384 unknowns"):
            intertwiners(A, A, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    # dim 32 against dim 32, the largest pair any configuration builds, still solves
    B = np.stack([np.eye(32, dtype=np.int64)])
    assert len(intertwiners(B, B, 2)) == 1024


def test_pp_system_refused_before_its_action_stack(monkeypatch):
    # the cover of a GL_1(17) character mod 2 is 16-dimensional, so V has
    # dimension 512 and its action stack, 256 x 512 x 512 int64, is 512 MiB;
    # building it and validating it took 97 s and 3.4 GB before intertwiners
    # refused.  GL_1(q) is cyclic, so that 16 is the 2-part of q - 1, and the
    # build refuses before projective_cover, whose sweep of the 2^16
    # endomorphisms of the regular module took 5 s.
    covers = []
    monkeypatch.setattr(modrep, "projective_cover", covers.append)
    start = time.monotonic()
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="dimension 512"):
            build_coefficient_system(1, 17, 2, "trivial", "pp")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.monotonic() - start < 5
    assert covers == []
    assert peak < 1 << 20, peak


def test_cyclic_cover_dimension_is_the_l_part():
    # the pp build refuses on dim P(S) read as the l-part of q - 1 (GL_1(q)
    # is cyclic), where V would be too large; it must be the dimension of
    # the cover, for every field q <= 31, every prime l <= 31 other than p
    # and every character, l | q - 1 or not, and P(S) must map onto S
    # alone: Hom(P(S), T) is F_l for T = S and 0 for every other enumerated
    # T.  The whole census runs in about a second; 10 s is its budget.
    start = time.monotonic()
    covers = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 17, 19, 23, 29, 31):  # every field GF has
        G = unit_group(GF(q))
        for l in (l for l in range(2, 32) if is_prime(l) and q % l):
            dim = modrep.l_part(q - 1, l)
            if (2 * dim**2) ** 2 > modrep._MAX_UNKNOWNS:
                with pytest.raises(TooLarge, match="V would have dimension"):
                    build_coefficient_system(1, q, l, "trivial", "pp")
            mods = [rho for _, rho in irreducible_modules(G, l)]
            for S in mods:
                P = projective_cover(S)
                assert P.dim == dim, (q, l, S.name)
                homs = [len(intertwiners(P.A, T.A, l, generators=G.generators)) for T in mods]
                assert homs == [int(T is S) for T in mods], (q, l, S.name)
                covers += 1
    assert covers == 353
    assert time.monotonic() - start < 10


def test_intertwiner_solve_stays_sparse_in_memory():
    # one dense stacked Kronecker system of the (1,5,2,trivial,pp) build is
    # 2048 x 1024 int64, 16 MiB; the triplet solve stays under 4 MiB
    sys = build_coefficient_system(1, 5, 2, "trivial", "pp")
    for A in (sys.V.A, sys.V.A[sys.swap]):
        tracemalloc.start()
        try:
            got = intertwiners(A, sys.V.A, sys.l, generators=sys.MM.generators)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) == 64
        assert peak < 4 << 20, peak


def _configurations():
    # FIN_CONFIGS in both modes holds the engine-products systems
    # (1,5,2,trivial,pp) and (1,4,3,trivial,pp) too
    return [(k, q, l, rho, mode) for k, q, l, rho in FIN_CONFIGS for mode in ("plain", "pp")]


def _fresh_builds(record):
    """Build every configuration and its partial-swap dims from scratch,
    handing each intertwiners call and its result to record."""
    real = modrep.intertwiners

    def recording(A, B, l, generators=None):
        got = real(A, B, l, generators=generators)
        record(A, B, l, generators, got)
        return got

    with mock.patch.object(modrep, "_SYSTEM_CACHE", {}), \
            mock.patch.object(modrep, "intertwiners", recording), \
            mock.patch.object(finhecke, "intertwiners", recording):
        out = {}
        for cfg in _configurations():
            sys = build_coefficient_system(*cfg)
            out[cfg] = (sys, finhecke.middle_hom_dims(sys) if sys.k > 1 else ())
        return out


def test_intertwiners_match_the_kronecker_reference():
    solves = []
    _fresh_builds(lambda *call: solves.append(call))
    assert len(solves) >= 2 * len(_configurations())
    for A, B, l, gens, got in solves:
        want = kronecker_intertwiners(A, B, l, generators=gens)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()


# sha256 of I1, Iw, tstar and middle_hom_dims, recorded on the dense
# Kronecker solver that the triplet solver replaced
# The (2,2,3,sign,pp) entry is re-recorded in the basis of the cover induced
# from a complement C_2 in S_3, whose V differs from the split regular
# module's by a change of basis.
SYSTEM_DIGESTS = {
    (1, 2, 3, "trivial", "plain"): "e0d0ff971d390eb4",
    (1, 2, 3, "trivial", "pp"): "f7cd2fc113e1cd87",
    (1, 3, 2, "trivial", "plain"): "12bef85e512bbf6d",
    (1, 3, 2, "trivial", "pp"): "cb59b48f8c784cc5",
    (1, 4, 3, "trivial", "plain"): "12bef85e512bbf6d",
    (1, 4, 3, "trivial", "pp"): "086d0d9ba544db85",
    (1, 4, 5, "trivial", "plain"): "3377a5f6a6fb1eed",
    (1, 4, 5, "trivial", "pp"): "803bfcfcdc7c0fe4",
    (1, 5, 2, "trivial", "plain"): "12bef85e512bbf6d",
    (1, 5, 2, "trivial", "pp"): "9109293473a3fe1d",
    (1, 5, 3, "trivial", "plain"): "e0d0ff971d390eb4",
    (1, 5, 3, "trivial", "pp"): "f7cd2fc113e1cd87",
    (2, 2, 3, "sign", "plain"): "71665de6c4a05db6",
    (2, 2, 3, "sign", "pp"): "8c884af978855ddc",
    (2, 2, 5, "sign", "plain"): "b7574ff47939790a",
    (2, 2, 5, "sign", "pp"): "88621d5901c71467",
    (2, 2, 7, "sign", "plain"): "8998193101f6478c",
    (2, 2, 7, "sign", "pp"): "8f3f7e17fdfcdbb8",
}


def test_system_golden_digest():
    built = _fresh_builds(lambda *call: None)
    got = {}
    for cfg, (sys, middle) in built.items():
        h = hashlib.sha256()
        for name in ("I1", "Iw"):
            mats = getattr(sys, name)
            h.update(b"%s %d;" % (name.encode(), len(mats)))
            for m in mats:
                h.update(np.ascontiguousarray(m, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(sys.tstar, dtype=np.int64).tobytes())
        if sys.k > 1:
            h.update(repr(middle).encode())
        got[cfg] = h.hexdigest()[:16]
    assert got == SYSTEM_DIGESTS


def _system_with_empty_intertwiners(which):
    """build_coefficient_system(1,4,5,trivial,plain) with its I_1 (which=0)
    or I_w (which=1) solve returning no intertwiners."""
    real, calls = modrep.intertwiners, []

    def empty_once(A, B, l, generators=None):
        calls.append(generators)
        got = real(A, B, l, generators=generators)
        return [] if len(calls) == which + 1 else got

    with mock.patch.object(modrep, "_SYSTEM_CACHE", {}), \
            mock.patch.object(modrep, "intertwiners", empty_once):
        return build_coefficient_system(1, 4, 5, rho="trivial", mode="plain")


@pytest.mark.parametrize("which", [0, 1])
def test_empty_intertwiner_space_raises(which):
    with pytest.raises(EmptyIntertwiners):
        _system_with_empty_intertwiners(which)


def test_empty_intertwiner_space_raises_under_optimize():
    script = """
import sys
sys.path.insert(0, %r)
from test_modrep import _system_with_empty_intertwiners
from heckekit.errors import EmptyIntertwiners
for which in (0, 1):
    try:
        _system_with_empty_intertwiners(which)
    except EmptyIntertwiners:
        print(which, __debug__)
""" % os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(heckekit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [_sys_mod.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "1", "False"]


def test_split_regular_banal():
    # S_3 over l=5 splits as 1 + 1 + 2 + 2
    G = general_linear(2, GF(2))
    reg = regular_module(G, 5)
    pieces = split_indecomposable(reg)
    assert sorted(p.shape[0] for p in pieces) == [1, 1, 2, 2]


def test_split_regular_modular():
    # S_3 over l=3 splits as two blocks of size 3
    G = general_linear(2, GF(2))
    reg = regular_module(G, 3)
    pieces = split_indecomposable(reg)
    assert sorted(p.shape[0] for p in pieces) == [3, 3]
    # C_3 over l=3 is local: does not split at all
    H = unit_group(GF(4))
    pieces = split_indecomposable(regular_module(H, 3))
    assert [p.shape[0] for p in pieces] == [3]


def _isomorphic(a, b):
    """True when some basis element of Hom(a, b) is invertible.  For
    isomorphic indecomposable modules that is enough: End(a) is local, so
    its non-units form a proper subspace that no basis lies in."""
    hom = intertwiners(a.A, b.A, a.l, generators=a.G.generators)
    return a.dim == b.dim and any(rank_mod(X, a.l) == a.dim for X in hom)


@pytest.mark.parametrize(
    "q,l,dim", [(4, 3, 3), (5, 2, 4), (4, 5, 1), (3, 5, 1)]
)
def test_projective_cover_units(q, l, dim):
    G = unit_group(GF(q))
    S = trivial_module(G, l)
    cov = projective_cover(S)
    assert cov.dim == dim
    assert len(intertwiners(cov.A, S.A, l)) == 1
    ref, e, _ = splitting_cover(S)
    assert rank_mod(e, l) == dim
    assert _isomorphic(cov, ref)


def test_projective_cover_gl2():
    G = general_linear(2, GF(2))
    mods = dict(irreducible_modules(G, 3))
    cov = projective_cover(mods["sign"])
    assert cov.dim == 3  # induced from the sign of a complement C_2 to C_3
    assert len(intertwiners(cov.A, mods["sign"].A, 3)) == 1
    assert splitting_cover(mods["sign"])[2] == 1
    mods5 = dict(irreducible_modules(G, 5))
    assert projective_cover(mods5["std"]) is mods5["std"]  # Maschke
    assert splitting_cover(mods5["std"])[2] == 2


IRREDUCIBLE = [p for p in SWEEPABLE if is_absolutely_irreducible(p.values[0])]


@pytest.mark.parametrize("rep", IRREDUCIBLE)
def test_cover_is_isomorphic_to_the_splitting_reference(rep):
    try:
        want = splitting_cover(rep)[0]
    except TooLarge:
        # the reference cannot decide F_7[C_7] (GL_1(8) mod 7): its sweep
        # would take 7^7 endomorphisms.  The group algebra of an l-group is
        # local, so there the cover is the whole regular module.
        assert modrep.l_part(rep.G.n, rep.l) == rep.G.n
        want = regular_module(rep.G, rep.l)
    assert _isomorphic(projective_cover(rep), want)


def test_system_char_mode():
    sys = build_coefficient_system(1, 4, 5, rho="trivial", mode="plain")
    assert sys.dim == 1
    assert sys.tau == 4
    # T* on the trivial character: (q-1) chi(-1) = 3
    assert sys.tstar[0, 0] == 3
    assert len(sys.I1) == 1 and len(sys.Iw) == 1
    assert sys.tstar_power(2)[0, 0] == 9 % 5


def test_system_char_nontrivial():
    sys = build_coefficient_system(1, 4, 3, rho="trivial", mode="plain")
    assert sys.tstar[0, 0] == 0  # q - 1 = 3 = 0 mod 3
    sys2 = build_coefficient_system(1, 5, 2, rho="trivial", mode="plain")
    assert sys2.tau == 1
    assert sys2.tstar[0, 0] == 0  # q - 1 = 4 = 0 mod 2


def test_system_pp_dims():
    sys = build_coefficient_system(1, 4, 3, rho="trivial", mode="pp")
    assert sys.dim == 18
    assert sys.tau == 1
    # T*^2 = 0 on V in the l | q-1 projective case
    assert not sys.tstar_power(2).any()


def test_system_pp_banal():
    sys = build_coefficient_system(1, 4, 5, rho="trivial", mode="pp")
    assert sys.dim == 2  # cover of a character in the banal case is itself
    assert sys.tau == 4


def test_system_rejects_noncuspidal():
    with pytest.raises(NotCuspidal):
        build_coefficient_system(2, 2, 5, rho="trivial", mode="pp")


@pytest.mark.parametrize(
    "args,exc",
    [
        ((1, 4, 4), BadCharacteristic),  # l not prime
        ((1, 4, 2), BadCharacteristic),  # l is the residue characteristic
        ((1, 4, 3, "sign", "plain"), UnknownModule),
    ],
)
def test_system_rejects_bad_input(args, exc):
    with pytest.raises(exc):
        build_coefficient_system(*args)


def test_system_plain_mode_needs_a_character(monkeypatch):
    # no cuspidal module in range has dimension > 1, so let "std" pass as one
    monkeypatch.setattr(modrep, "is_cuspidal", lambda rep: True)
    with pytest.raises(NotACharacter):
        build_coefficient_system(2, 2, 5, rho="std", mode="plain")


def test_system_k2_sign():
    sys = build_coefficient_system(2, 2, 3, rho="sign", mode="pp")
    assert sys.dim == 18
    assert sys.tau == pow(2, 4, 3) == 1
    sys7 = build_coefficient_system(2, 2, 7, rho="sign", mode="pp")
    assert sys7.dim == 2
    assert sys7.tau == pow(2, 4, 7) == 2


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
