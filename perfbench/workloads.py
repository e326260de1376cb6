"""The four seeded workloads: item generation, execution and verdicts.

A workload is built from a seed and an item count.  Building it is the
set-up the benchmark times (coefficient systems, ambient groups, windows,
engines, the items themselves).  `run(item)` executes one item and returns
its outcome; `judge(item, outcome)` turns the outcome into a verdict:

    "ok"          the answer agrees with an independent computation;
    "wrong"       it does not;
    "exit:<n>"    a CLI item exited with status n != 0;
    "error:<T>"   an in-process item raised T (set by the worker).

For the in-process workloads the comparison is part of the item, because
the item is a verification: engine against oracle, closed formula against
convolution, one bracketing against the other.  For cli-cold the item is
the CLI process alone, and the checks run after each timed pass.

heckekit is imported through its modules (``residue.oracle_product``, not
``from ... import oracle_product``), so that probes installed by the tracer
before this module is imported are the functions called here.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

import numpy as np

from heckekit import finhecke, heckealg, modrep, residue, twisted, weyl

HERE = os.path.dirname(os.path.abspath(__file__))


def systematic(rng, population, count):
    """`count` members of `population`, evenly spaced from a seeded start.

    Every member is taken count // len(population) times, and the rest
    are spread evenly over the population's order, so the sample keeps
    the population's composition much more closely than random draws.
    """
    n = len(population)
    whole, rest = divmod(count, n)
    out = list(population) * whole
    if rest:
        step = n / rest
        start = rng.random() * step
        out += [population[int(start + i * step)] for i in range(rest)]
    return out


def same_element(a, b, l):
    """Exact equality of two {Weyl element: coefficient} dicts mod l."""
    if set(a) != set(b):
        return False
    for key, x in a.items():
        y = b[key]
        if isinstance(x, dict):
            if {k: v % l for k, v in x.items() if v % l} != {
                    k: v % l for k, v in y.items() if v % l}:
                return False
        elif not np.array_equal(np.asarray(x) % l, np.asarray(y) % l):
            return False
    return True


def congruence_gap(e):
    ur, ll = residue.p_eta_pattern(e)
    return max(ur, ll - 1)


# ---------------------------------------------------------------------------


class OracleWindow:
    """Engine products against the residue-pattern oracle.

    System (k=1, q=4, l=3, trivial, pp), dim 18; the 37 elements of the
    bound-2 window with congruence gap <= 2.  The oracle's cost grows with
    the gaps (g_eta, g_delta): 1, q or q^2 cosets per side.  An item is a
    bundle of nine checks, one pair from each gap class, so that every item
    has the same cost mix and item latencies form one population.  Within
    a class the pairs are a systematic sample, from a seeded start, of the
    pairs ordered by the size of the oracle's support window, dealt to the
    items in seeded order.
    """

    name = "oracle-window"
    rate = 1.2  # distinct items per second of --seconds
    workers = 3  # fresh interpreters that run the items
    warmup = 0  # untimed passes before the timed ones; their verdicts count
    passes = 2  # timed passes over the items in each worker
    setups = 9  # set-up samples per run (workers included); setup_s is their median
    block_s = 0.3  # item time between two machine-speed samples (calib.py)
    limit_ms = 5000.0

    def __init__(self, seed, count):
        self.sys = modrep.build_coefficient_system(1, 4, 3, "trivial", "pp")
        self.l = self.sys.l
        self.eng = heckealg.HeckeEngine(heckealg.MatrixCoefficients(self.sys))
        window = [e for e in weyl.elements_in_window(2) if congruence_gap(e) <= 2]
        by_gap = [[e for e in window if congruence_gap(e) == g] for g in range(3)]
        rng = np.random.default_rng(seed)
        columns = []
        for ga in range(3):
            for gb in range(3):
                pairs = sorted(((a, b) for a in by_gap[ga] for b in by_gap[gb]),
                               key=lambda p: len(residue.support_window(*p)))
                chosen = systematic(rng, pairs, count)
                columns.append([chosen[i] for i in rng.permutation(count)])
        self.items = [
            [(eta, self._coeff(rng, eta), delta, self._coeff(rng, delta))
             for eta, delta in bundle]
            for bundle in zip(*columns)
        ]

    def _coeff(self, rng, eta):
        basis = self.sys.basis(int(eta.flip))
        return basis[int(rng.integers(len(basis)))] % self.l

    def run(self, item):
        eng = self.eng
        ok = True
        for eta, f, delta, g in item:
            got = eng.mul(eng.symbol(eta, f), eng.symbol(delta, g))
            want = residue.oracle_product(self.sys, eta, f, delta, g)
            ok = same_element(got, want, self.l) and ok
        return "ok" if ok else "wrong"

    def judge(self, item, outcome):
        return outcome


class FinConvolve:
    """Closed two-term product against genuine convolution over G/P.

    Systems (2,2,3,sign,pp) dim 18, (2,2,7,sign,plain) dim 1 and
    (1,5,2,trivial,pp) dim 32, taken round-robin: an item is one round, a
    pair of seeded `random_fin_element`s on each system.  Bundling the
    round keeps the item latencies one population rather than three, so
    their median does not sit on the border between two systems' costs.
    """

    name = "fin-convolve"
    rate = 3
    workers = 5
    warmup = 0
    passes = 1
    setups = 5
    block_s = 0.3
    limit_ms = 2000.0
    CONFIGS = ((2, 2, 3, "sign", "pp"), (2, 2, 7, "sign", "plain"),
               (1, 5, 2, "trivial", "pp"))

    def __init__(self, seed, count):
        self.systems = [modrep.build_coefficient_system(*c) for c in self.CONFIGS]
        for s in self.systems:
            finhecke.AmbientGL(s.k, s.q)
        rng = np.random.default_rng(seed)
        self.items = [
            [(finhecke.random_fin_element(s, rng), finhecke.random_fin_element(s, rng))
             for s in self.systems]
            for _ in range(count)
        ]

    def run(self, item):
        ok = all(finhecke.fin_mul(a, b) == finhecke.fin_convolve(a, b) for a, b in item)
        return "ok" if ok else "wrong"

    def judge(self, item, outcome):
        return outcome


class EngineProducts:
    """Warm-memo engine products on long-lived engines.

    An item is one round of four checks: associativity triples
    (ab)c = a(bc) of multi-term elements on the matrix backend over
    (1,5,2,trivial,pp) dim 32 and (1,4,3,trivial,pp) dim 18 and on the
    free backend (l=5, tau=4); and a tensor-multiplicativity pair,
    `twisted.tt_mul` evaluated into the algebra against `HeckeEngine.mul`
    on the free engine, with the central factor alternating sides.
    """

    name = "engine-products"
    rate = 5
    workers = 4
    warmup = 1
    passes = 2
    setups = 5
    block_s = 0.3
    limit_ms = 2000.0
    TERMS = 3
    FREE_GENS = {"a": 0, "b": 1}

    def __init__(self, seed, count):
        self.window = weyl.elements_in_window(2)
        self.matrix = []
        for cfg in ((1, 5, 2, "trivial", "pp"), (1, 4, 3, "trivial", "pp")):
            s = modrep.build_coefficient_system(*cfg)
            self.matrix.append((s, heckealg.HeckeEngine(heckealg.MatrixCoefficients(s))))
        self.free = heckealg.HeckeEngine(heckealg.FreeCoefficients(self.FREE_GENS, 5, 4))
        self.poly = twisted.PolynomialPart(5, 4)
        rng = np.random.default_rng(seed)
        self.items = []
        for i in range(count):
            checks = [("assoc", eng, s.l, [self._matrix_element(rng, s) for _ in range(3)])
                      for s, eng in self.matrix]
            checks.append(("assoc", self.free, 5, [self._free_element(rng) for _ in range(3)]))
            central = i % 2 == 0
            checks.append(("tensor", self.free, 5,
                           (self._tensor(rng, central), self._tensor(rng, not central))))
            self.items.append(checks)

    def _matrix_element(self, rng, s):
        out = {}
        for _ in range(self.TERMS):
            eta = self.window[int(rng.integers(len(self.window)))]
            basis = s.basis(int(eta.flip))
            picks = rng.integers(len(basis), size=2)
            scal = rng.integers(1, s.l, size=2)
            out[eta] = (int(scal[0]) * basis[picks[0]] + int(scal[1]) * basis[picks[1]]) % s.l
        return out

    def _free_element(self, rng):
        out = {}
        for _ in range(self.TERMS):
            eta = self.window[int(rng.integers(len(self.window)))]
            j = int(rng.integers(0, 3))
            gen = "a" if (int(eta.flip) - j) % 2 == 0 else "b"
            word = (gen,) if rng.integers(2) else ()
            if not word and j % 2 != int(eta.flip):
                j += 1
            out[eta] = {(word, j): int(rng.integers(1, 5))}
        return out

    @staticmethod
    def _tensor(rng, central):
        X = {}
        for _ in range(int(rng.integers(1, 3))):
            a = int(rng.integers(-2, 3))
            b = a if central else int(rng.integers(-2, 3))
            X[(a, b, int(rng.integers(0, 4)))] = int(rng.integers(1, 5))
        return X

    def run(self, item):
        ok = True
        for kind, eng, l, args in item:
            if kind == "assoc":
                a, b, c = args
                lhs = eng.mul(eng.mul(a, b), c)
                rhs = eng.mul(a, eng.mul(b, c))
            else:
                X, Y = args
                lhs = twisted.tensor_eval(eng, twisted.tt_mul(X, Y, self.poly))
                rhs = eng.mul(twisted.tensor_eval(eng, X), twisted.tensor_eval(eng, Y))
            ok = same_element(lhs, rhs, l) and ok
        return "ok" if ok else "wrong"

    def judge(self, item, outcome):
        return outcome


# ---------------------------------------------------------------------------
# cli-cold


def _alternating(start, n):
    other = {"w": "w'", "w'": "w"}
    out = []
    for _ in range(n):
        out.append(start)
        start = other[start]
    return tuple(out)


def _symbol_text(alpha, letters, j, name):
    body = (["t^%d" % alpha] if alpha else []) + list(letters)
    text = "[%s]" % (" ".join(body) if body else "1")
    if j:
        text += "^%d" % j
    if name:
        text += "_" + name
    return text


_TERM = re.compile(r"^(?:(\d+)·)?\[([^\]]*)\](?:\^(\d+))?(?:_(\S+))?$")


def parse_product(text):
    """Printed free-backend element -> ({W: [(scalar, shift)]}, {W: {names}}).

    The parser is the benchmark's own, not the CLI's grammar code.
    """
    terms, names = {}, {}
    if text == "0":
        return terms, names
    for part in text.split(" + "):
        m = _TERM.match(part)
        if not m:
            raise ValueError("unreadable term %r" % part)
        scalar = int(m.group(1) or 1)
        alpha, letters = 0, []
        for tok in m.group(2).split():
            if tok == "1":
                continue
            if tok.startswith("t"):
                alpha = int(tok[2:]) if tok.startswith("t^") else 1
            else:
                letters.append(tok)
        e = weyl.from_word(alpha, letters)
        terms.setdefault(e, []).append((scalar, int(m.group(3) or 0)))
        names.setdefault(e, set()).add(m.group(4) or "")
    return terms, names


def parse_poly(text):
    """'T^2 + 2*T + 1' -> little-endian coefficient list."""
    coeffs = {}
    for part in text.split(" + "):
        if "T" not in part:
            coeffs[0] = int(part)
            continue
        c, _, pw = part.partition("T")
        c = int(c.rstrip("*")) if c else 1
        coeffs[int(pw[1:]) if pw.startswith("^") else 1] = c
    return [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]


def rank_mod(rows, l):
    """Rank of an integer matrix over F_l, by plain elimination."""
    A = np.array(rows, dtype=np.int64) % l
    rank = 0
    for c in range(A.shape[1]):
        piv = [r for r in range(rank, A.shape[0]) if A[r, c]]
        if not piv:
            continue
        A[[rank, piv[0]]] = A[[piv[0], rank]]
        A[rank] = (A[rank] * pow(int(A[rank, c]), -1, l)) % l
        for r in range(A.shape[0]):
            if r != rank and A[r, c]:
                A[r] = (A[r] - A[r, c] * A[rank]) % l
        rank += 1
    return rank


class CliCold:
    """Fresh `python -m heckekit.cli` processes, one after another.

    Items come in rounds of twelve with a fixed mix (see ROUND); the seed
    picks the words, t-powers, shifts, coefficient names and the order.
    Eight of the twelve are short-word calls, so the median and the tail
    rank fall inside that one group, the cost nearly every call pays;
    the heavy items show in verdict_s.
    `mul` runs at q=4, l=5; its output is checked against the
    one-parameter Iwahori-Matsumoto model (`twisted.iwahori_mul`), each
    printed s.[x]^j specialised to s.(qbar-1)^j.T_x with qbar = q mod l.
    `fpoly` output is checked by evaluating the printed F on the images
    [w^i]^i, built with `fin_mul`, and by a rank test that no monic
    polynomial of lower degree vanishes on them.
    """

    name = "cli-cold"
    rate = 0.6
    workers = 1
    warmup = 0
    passes = 4
    setups = 9
    block_s = 0.6  # every sample here also starts a bare process, 0.2 s
    limit_ms = 10000.0
    Q, L = 4, 5
    FPOLY = ((1, 5, 2, "trivial"), (2, 2, 3, "sign"), (1, 4, 3, "trivial"))
    # (kind, letters per side); fpoly items take FPOLY in turn.  Cancelling
    # pairs of about 248 or more letters exceed the engine's recursion
    # depth today and exit 1
    ROUND = (
        ("fpoly", None), ("fpoly", None),
        ("add", (1, 16)), ("add", (1, 16)), ("add", (1, 16)), ("add", (1, 16)),
        ("cancel", (1, 8)), ("cancel", (1, 8)), ("cancel", (48, 64)),
        ("add", (150, 170)), ("cancel", (192, 208)), ("cancel", (288, 320)),
    )

    def __init__(self, seed, count, root, traced=None):
        import heckekit.cli  # noqa: F401  the cold import every item repeats

        self.root = root
        self.traced = traced  # None, or (stats directory, probe depth)
        self.started = 0
        rng = np.random.default_rng(seed)
        rounds = max(1, count // len(self.ROUND))
        items = []
        for _ in range(rounds):
            for kind, arg in self.ROUND:
                if kind == "fpoly":
                    nth = sum(1 for it in items if "config" in it)
                    items.append(self._fpoly_item(nth % len(self.FPOLY)))
                else:
                    items.append(self._mul_item(rng, kind, arg))
        self.items = [items[i] for i in rng.permutation(len(items))]

    def _fpoly_item(self, which):
        k, q, l, rep = self.FPOLY[which]
        argv = ["fpoly", "-k", str(k), "-q", str(q), "-l", str(l),
                "--rep", rep, "--mode", "pp"]
        return {"argv": argv, "config": (k, q, l, rep)}

    def _mul_item(self, rng, kind, bounds):
        n = int(rng.integers(bounds[0], bounds[1] + 1))
        x = _alternating(("w", "w'")[int(rng.integers(2))], n)
        if kind == "cancel":
            y = tuple(reversed(x))
        else:
            m = int(rng.integers(bounds[0], bounds[1] + 1))
            y = _alternating("w" if x[-1] == "w'" else "w'", m)
        alpha = int(rng.integers(-3, 4))
        j1, j2 = (int(v) for v in rng.integers(0, 3, size=2))
        f = "f" if rng.integers(2) else None
        g = "g" if rng.integers(2) else None
        argv = ["mul", _symbol_text(alpha, x, j1, f), _symbol_text(0, y, j2, g),
                "-q", str(self.Q), "-l", str(self.L)]
        return {"argv": argv, "mul": (alpha, x, j1, f, y, j2, g)}

    def command(self, item, index):
        if self.traced is None:
            return [sys.executable, "-m", "heckekit.cli"] + item["argv"]
        stats_dir, depth = self.traced
        out = os.path.join(stats_dir, "item%04d.json" % index)
        return [sys.executable, os.path.join(HERE, "traced_cli.py"), out, str(depth),
                "--"] + item["argv"]

    def run(self, item):
        self.started += 1
        proc = subprocess.run(self.command(item, self.started), cwd=self.root,
                              capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout

    def judge(self, item, outcome):
        code, stdout = outcome
        if code != 0:
            return "exit:%d" % code
        try:
            ok = self._check_mul(item, stdout) if "mul" in item else self._check_fpoly(item, stdout)
        except (ValueError, KeyError):  # output the parsers cannot read
            ok = False
        return "ok" if ok else "wrong"

    def _check_mul(self, item, stdout):
        alpha, x, j1, f, y, j2, g = item["mul"]
        q, l = self.Q, self.L
        qbar = q % l
        terms, names = parse_product(stdout.strip())
        got = {}
        for e, parts in terms.items():
            got[e] = sum(s * pow(qbar - 1, j, l) for s, j in parts) % l
        got = {e: c for e, c in got.items() if c}
        lhs = weyl.from_word(alpha, x)
        rhs = weyl.from_word(0, y)
        scale = pow(qbar - 1, j1 + j2, l)
        want = {e: (c * scale) % l for e, c in twisted.iwahori_mul(lhs, rhs, qbar, l).items()}
        want = {e: c for e, c in want.items() if c}
        label = "·".join(n for n in (f, g) if n)
        return got == want and all(n == {label} for n in names.values())

    def _check_fpoly(self, item, stdout):
        first = stdout.splitlines()[0] if stdout else ""
        if not first.startswith("F = "):
            return False
        coeffs = parse_poly(first[4:])
        k, q, l, rep = item["config"]
        s = modrep.build_coefficient_system(k, q, l, rep, "pp")
        if coeffs[-1] % l != 1:
            return False
        d = s.dim
        zero = np.zeros((d, d), dtype=np.int64)
        u = finhecke.FinElement(s, s.tstar, zero)
        w = finhecke.FinElement(s, zero, np.eye(d, dtype=np.int64))
        power = finhecke.FinElement(s, np.eye(d, dtype=np.int64), zero)
        images = []
        for i in range(len(coeffs)):
            img = power if i % 2 == 0 else finhecke.fin_mul(power, w)
            images.append(np.concatenate([img.f1.reshape(-1), img.fw.reshape(-1)]))
            power = finhecke.fin_mul(power, u)
        value = sum(c * v for c, v in zip(coeffs, images)) % l
        degree = len(coeffs) - 1
        return not value.any() and (degree == 0 or rank_mod(images[:degree], l) == degree)


WORKLOADS = {w.name: w for w in (OracleWindow, FinConvolve, EngineProducts, CliCold)}


def item_count(name, seconds):
    """Items per run: fixed by the workload and --seconds, never by timing."""
    w = WORKLOADS[name]
    n = max(1, round(w.rate * seconds))
    if w is CliCold:
        size = len(CliCold.ROUND)
        n = size * max(1, round(n / size))
    return n
