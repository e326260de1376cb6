"""Per-layer tracing of heckekit from outside the package.

`install()` imports every heckekit module and replaces the public functions
named in PROBES with timing wrappers, in every heckekit module namespace
that holds them (``from .gfp import fq_rref`` binds a second name that must
be patched too).  Nothing under src/ changes.

Two kinds of probe:

* spans, around the layer boundaries (oracle_product, fin_convolve,
  HeckeEngine.mul, build_coefficient_system, compute_fpoly, cli.main):
  one record (name, start, end, parent span, item) per call;
* aggregates, around hot inner functions (lmat_mul, fq_rref, word_of, ...):
  a call count and summed time only.

Both kinds take part in one call stack, so a function's self time is its
elapsed time minus the elapsed time of the probed calls made inside it.

`HeckeEngine.symbol_product` is deliberately not wrapped: it recurses
through itself, and a wrapper would add a frame per level and make
RecursionError start at shorter words.  Its counts are derived instead:
misses are the growth of every engine's memo, and the memo hit ratio is
measured at the top level, where `mul` looks up one (eta, delta) pair per
pair of terms.  `word_of` hit counts come from its lru cache_info().
"""

from __future__ import annotations

import importlib
import time

MODULES = ("gfp", "weyl", "modrep", "finhecke", "tpoly", "heckealg", "residue",
           "twisted", "verify", "cli")

# (module, attribute path, metric prefix, kind)
PROBES = (
    ("residue", "oracle_product", "residue.oracle_product", "span"),
    ("finhecke", "fin_convolve", "finhecke.fin_convolve", "span"),
    ("heckealg", "HeckeEngine.mul", "heckealg.mul", "span"),
    ("modrep", "build_coefficient_system", "modrep.build_coefficient_system", "span"),
    ("finhecke", "compute_fpoly", "finhecke.compute_fpoly", "span"),
    ("cli", "main", "cli.main", "span"),
    ("residue", "lmat_mul", "residue.lmat_mul", "agg"),
    ("residue", "coset_reps", "residue.coset_reps", "agg"),
    ("residue", "in_parabolic", "residue.in_parabolic", "agg"),
    ("finhecke", "phi_value", "finhecke.phi_value", "agg"),
    ("finhecke", "AmbientGL._build", "finhecke.AmbientGL", "agg"),
    ("finhecke", "middle_hom_dims", "finhecke.middle_hom_dims", "agg"),
    ("gfp", "fq_rref", "gfp.fq_rref", "agg"),
    ("gfp", "fq_matmul", "gfp.fq_matmul", "agg"),
    ("gfp", "fq_inv_matrix", "gfp.fq_inv_matrix", "agg"),
    ("gfp", "rref_mod", "gfp.rref_mod", "agg"),
    ("modrep", "intertwiners", "modrep.intertwiners", "agg"),
    ("modrep", "projective_cover", "modrep.projective_cover", "agg"),
    ("heckealg", "MatrixCoefficients.compose", "heckealg.backend.compose", "agg"),
    ("heckealg", "FreeCoefficients.compose", "heckealg.backend.compose", "agg"),
    ("heckealg", "HeckeEngine.__init__", "heckealg.HeckeEngine.init", "agg"),
    ("weyl", "word_of", "weyl.word_of", "agg"),
    ("weyl", "length", "weyl.length", "agg"),
    ("twisted", "tt_mul", "twisted.tt_mul", "agg"),
    ("twisted", "tensor_eval", "twisted.tensor_eval", "agg"),
    ("tpoly", "tp_mul", "tpoly.tp_mul", "agg"),
    ("cli", "parse_symbol", "cli.parse_symbol", "agg"),
    ("cli", "render_element", "cli.render_element", "agg"),
)

# (metric name, unit, better); every name is produced by layer_metrics()
LAYER_METRICS = (
    ("residue.oracle_product.calls", "count", "lower"),
    ("residue.oracle_product.self_s", "s", "lower"),
    ("residue.lmat_mul.calls", "count", "lower"),
    ("residue.lmat_mul.self_s", "s", "lower"),
    ("residue.coset_reps.cosets", "count", "lower"),
    ("residue.in_parabolic.calls", "count", "lower"),
    ("residue.in_parabolic.hit_ratio", "1", "higher"),
    ("finhecke.fin_convolve.calls", "count", "lower"),
    ("finhecke.fin_convolve.self_s", "s", "lower"),
    ("finhecke.phi_value.calls", "count", "lower"),
    ("finhecke.phi_value.useful_ratio", "1", "higher"),
    ("finhecke.AmbientGL.build_s", "s", "lower"),
    ("finhecke.middle_hom_dims.self_s", "s", "lower"),
    ("gfp.fq_rref.calls", "count", "lower"),
    ("gfp.fq_rref.self_s", "s", "lower"),
    ("gfp.fq_matmul.calls", "count", "lower"),
    ("gfp.fq_matmul.self_s", "s", "lower"),
    ("gfp.fq_inv_matrix.calls", "count", "lower"),
    ("gfp.rref_mod.calls", "count", "lower"),
    ("gfp.rref_mod.self_s", "s", "lower"),
    ("modrep.build_coefficient_system.calls", "count", "lower"),
    ("modrep.build_coefficient_system.self_s", "s", "lower"),
    ("modrep.build_coefficient_system.hit_ratio", "1", "higher"),
    ("modrep.intertwiners.self_s", "s", "lower"),
    ("modrep.projective_cover.self_s", "s", "lower"),
    ("finhecke.compute_fpoly.self_s", "s", "lower"),
    ("heckealg.mul.calls", "count", "lower"),
    ("heckealg.mul.self_s", "s", "lower"),
    ("heckealg.backend.compose.calls", "count", "lower"),
    ("heckealg.backend.compose.self_s", "s", "lower"),
    ("heckealg.symbol_product.misses", "count", "lower"),
    ("heckealg.symbol_product.memo_hit_ratio", "1", "higher"),
    ("heckealg.memo.entries", "count", "lower"),
    ("weyl.word_of.calls", "count", "lower"),
    ("weyl.word_of.hit_ratio", "1", "higher"),
    ("weyl.word_of.self_s", "s", "lower"),
    ("weyl.length.calls", "count", "lower"),
    ("weyl.length.self_s", "s", "lower"),
    ("twisted.tt_mul.calls", "count", "lower"),
    ("twisted.tt_mul.self_s", "s", "lower"),
    ("twisted.tensor_eval.self_s", "s", "lower"),
    ("tpoly.tp_mul.calls", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.parse_symbol.self_s", "s", "lower"),
    ("cli.render_element.self_s", "s", "lower"),
)


class Tracer:
    """Holds the probe statistics and spans of one process."""

    def __init__(self):
        self.stats = {}  # prefix -> {"calls", "total_s", "self_s", counters...}
        self.frames = []  # one [child elapsed] cell per active probed call
        self.open_spans = []  # indices into self.spans
        self.spans = []  # [name, start, end, parent index, item]
        self.item = None
        self.engines = []
        self.word_of_cache = None
        self.import_s = 0.0

    def stat(self, prefix):
        if prefix not in self.stats:
            self.stats[prefix] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        return self.stats[prefix]

    def wrap(self, fn, prefix, kind, before=None, after=None):
        st = self.stat(prefix)
        frames, open_spans, spans = self.frames, self.open_spans, self.spans
        clock = time.perf_counter
        is_span = kind == "span"

        def probe(*args, **kwargs):
            state = before(st, args) if before else None
            cell = [0.0]
            frames.append(cell)
            if is_span:
                parent = open_spans[-1] if open_spans else None
                open_spans.append(len(spans))
                record = [prefix, 0.0, 0.0, parent, self.item]
                spans.append(record)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dt
                if is_span:
                    open_spans.pop()
                    record[1] = t0
                    record[2] = t0 + dt
                st["calls"] += 1
                st["total_s"] += dt
                st["self_s"] += dt - cell[0]
            if after:
                after(st, args, result, state)
            return result

        probe.__wrapped__ = fn
        return probe

    # -- hooks that count work at a boundary --------------------------------

    def _register_engine(self, st, args, result, state):
        self.engines.append(args[0])

    @staticmethod
    def _memo_lookups(st, args):
        eng, a, b = args[0], args[1], args[2]
        memo = eng._memo
        st["lookups"] = st.get("lookups", 0) + len(a) * len(b)
        st["hits"] = st.get("hits", 0) + sum(
            1 for eta in a for delta in b if (eta, delta) in memo
        )

    @staticmethod
    def _cosets(st, args, result, state):
        st["cosets"] = st.get("cosets", 0) + len(result)

    @staticmethod
    def _true(st, args, result, state):
        st["hits"] = st.get("hits", 0) + bool(result)

    @staticmethod
    def _useful(st, args, result, state):
        st["useful"] = st.get("useful", 0) + bool(result is not None and result.any())

    def _cache_size(self, st, args):
        return len(self._modrep._SYSTEM_CACHE)

    def _cache_hit(self, st, args, result, state):
        st["hits"] = st.get("hits", 0) + (len(self._modrep._SYSTEM_CACHE) == state)

    def install(self):
        """Import heckekit and put a probe on every function in PROBES."""
        t0 = time.perf_counter()
        mods = {name: importlib.import_module("heckekit." + name) for name in MODULES}
        self.import_s = time.perf_counter() - t0
        self._modrep = mods["modrep"]
        self.word_of_cache = mods["weyl"].word_of
        hooks = {
            "heckealg.mul": (self._memo_lookups, None),
            "heckealg.HeckeEngine.init": (None, self._register_engine),
            "residue.coset_reps": (None, self._cosets),
            "residue.in_parabolic": (None, self._true),
            "finhecke.phi_value": (None, self._useful),
            "modrep.build_coefficient_system": (self._cache_size, self._cache_hit),
        }
        for modname, path, prefix, kind in PROBES:
            owner = mods[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            before, after = hooks.get(prefix, (None, None))
            wrapped = self.wrap(original, prefix, kind, before, after)
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
        return self

    # -- results --------------------------------------------------------------

    def snapshot(self):
        """Plain-data totals for this process, mergeable across processes."""
        info = self.word_of_cache.cache_info()
        stats = {k: dict(v) for k, v in self.stats.items()}
        memo = sum(len(e._memo) for e in self.engines)
        stats["heckealg.memo"] = {"entries": memo}
        stats["weyl.word_of.cache"] = {"hits": info.hits, "misses": info.misses}
        stats["cli.import"] = {"total_s": self.import_s}
        return stats


def merge(snapshots):
    out = {}
    for snap in snapshots:
        for key, fields in snap.items():
            acc = out.setdefault(key, {})
            for name, value in fields.items():
                acc[name] = acc.get(name, 0) + value
    return out


def layer_metrics(stats):
    """The LAYER_METRICS values from merged snapshot totals."""

    def get(key, field):
        return stats.get(key, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name, _unit, _better in LAYER_METRICS:
        key, _, field = name.rpartition(".")
        out[name] = get(key, field)
    # memo entries are created only on a miss, so the two counts agree
    memo = get("heckealg.memo", "entries")
    out["heckealg.symbol_product.misses"] = memo
    out["heckealg.memo.entries"] = memo
    out["heckealg.symbol_product.memo_hit_ratio"] = ratio(
        get("heckealg.mul", "hits"), get("heckealg.mul", "lookups"))
    hits, misses = get("weyl.word_of.cache", "hits"), get("weyl.word_of.cache", "misses")
    out["weyl.word_of.calls"] = hits + misses
    out["weyl.word_of.hit_ratio"] = ratio(hits, hits + misses)
    out["residue.coset_reps.cosets"] = get("residue.coset_reps", "cosets")
    out["residue.in_parabolic.hit_ratio"] = ratio(
        get("residue.in_parabolic", "hits"), get("residue.in_parabolic", "calls"))
    out["finhecke.phi_value.useful_ratio"] = ratio(
        get("finhecke.phi_value", "useful"), get("finhecke.phi_value", "calls"))
    out["finhecke.AmbientGL.build_s"] = get("finhecke.AmbientGL", "total_s")
    out["modrep.build_coefficient_system.hit_ratio"] = ratio(
        get("modrep.build_coefficient_system", "hits"),
        get("modrep.build_coefficient_system", "calls"))
    out["cli.import_s"] = get("cli.import", "total_s")
    return out
