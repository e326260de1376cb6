"""Command line entry point.

Three subcommands:

  fpoly    characteristic polynomial of the polynomial part, with an
           optional two-parameter comparison (reported, never asserted);
  mul      multiply two basis symbols written in the bracket grammar
           "[t^a w w' ...]^j_name" and print the expansion;
  verify   run a named verification suite and emit text plus an optional
           JSON report.

Exit codes: 0 all good, 1 a verification check failed, 2 bad usage,
unparseable expression, or a configuration the engine rejects.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import verify as vf
from .errors import BadCount, HeckeError
from .finhecke import compute_fpoly, parameter_image
from .gfp import _factor_prime_power
from .heckealg import FreeCoefficients, HeckeEngine
from .modrep import build_coefficient_system
from .weyl import from_word, render


class ParseError(HeckeError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


# ---------------------------------------------------------------------------
# the bracket grammar:  [ t^<int> (w|w')* ] ^<nat> _<name>


def parse_symbol(text):
    """-> (weyl element, shift, coefficient name or None)."""
    s = text
    i = 0
    n = len(s)

    def skip():
        nonlocal i
        while i < n and s[i].isspace():
            i += 1

    def expect(ch):
        nonlocal i
        skip()
        if i >= n or s[i] != ch:
            raise ParseError("expected %r" % ch, i)
        i += 1

    def integer(signed):
        nonlocal i
        skip()
        start = i
        if signed and i < n and s[i] == "-":
            i += 1
        while i < n and s[i].isdigit():
            i += 1
        if i == start or s[start:i] == "-":
            raise ParseError("expected a number", start)
        return int(s[start:i])

    expect("[")
    alpha = 0
    skip()
    if i < n and s[i] == "t":
        i += 1
        if i < n and s[i] == "^":
            i += 1
            alpha = integer(signed=True)
        else:
            alpha = 1
    letters = []
    while True:
        skip()
        if i < n and s[i] == "w":
            i += 1
            if i < n and s[i] == "'":
                i += 1
                letters.append("w'")
            else:
                letters.append("w")
        elif i < n and s[i] == "1" and not letters and alpha == 0:
            i += 1  # allow [1] for the identity coset, with nothing after it
            break
        else:
            break
    expect("]")
    shift = 0
    if i < n and s[i] == "^":
        i += 1
        shift = integer(signed=False)
    name = None
    if i < n and s[i] == "_":
        i += 1
        start = i
        while i < n and (s[i].isalnum() or s[i] == "_"):
            i += 1
        if i == start:
            raise ParseError("expected a coefficient name", start)
        name = s[start:i]
    skip()
    if i != n:
        raise ParseError("trailing input %r" % s[i:], i)
    return from_word(alpha, letters), shift, name


def render_element(elem, l):
    """Canonical text for a free-backend element."""
    terms = []
    for eta in sorted(elem, key=lambda e: (e.x + e.y, e.x, e.flip)):
        coeff = elem[eta]
        for (wrd, j), scalar in sorted(coeff.items()):
            body = "[%s]" % render(eta).replace(".", " ")
            if j:
                body += "^%d" % j
            if wrd:
                body += "_" + "·".join(wrd)
            if scalar % l != 1:
                body = "%d·%s" % (scalar % l, body)
            terms.append(body)
    return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# subcommands


def _fpoly_side(k, q, l, rep, mode):
    if (k, q) == (2, 2) and rep == "trivial":
        rep = "sign"  # the cuspidal module of GL_2(2)
    sys_ = build_coefficient_system(k, q, l, rho=rep, mode=mode)
    return sys_, compute_fpoly(sys_)


def _images_json(sys_):
    out = []
    for i in range(4):
        e = parameter_image(sys_, i)
        out.append(
            {
                "i": i,
                "f1": [[int(x) for x in row] for row in e.f1 % sys_.l],
                "fw": [[int(x) for x in row] for row in e.fw % sys_.l],
            }
        )
    return out


def cmd_fpoly(args):
    if args.compare:
        a, b = args.compare
        if a < 1 or b < 1:
            print("compare factors must be positive", file=sys.stderr)
            return 2
        sys1, cp1 = _fpoly_side(a * b * args.k, args.q, args.l, args.rep, args.mode)
        sys2, cp2 = _fpoly_side(b * args.k, args.q**a, args.l, args.rep, args.mode)
        equal = cp1.coeffs == cp2.coeffs
        print("left:  F(l=%d, q=%d, k=%d) = %s   [module=%s, mode=%s]"
              % (cp1.l, cp1.q, cp1.k, cp1, cp1.rho, cp1.mode))
        print("right: F(l=%d, q=%d, k=%d) = %s   [module=%s, mode=%s]"
              % (cp2.l, cp2.q, cp2.k, cp2, cp2.rho, cp2.mode))
        print("equal: %s  (reported only, never asserted)" % equal)
        print("T* minimal polynomials: left %s, right %s"
              % (vf_poly(cp1), vf_poly(cp2)))
        if args.json:
            report = {
                "command": "fpoly",
                "compare": {"a": a, "b": b},
                "left": dict(cp1.to_json(), images=_images_json(sys1)),
                "right": dict(cp2.to_json(), images=_images_json(sys2)),
                "equal": equal,
            }
            with open(args.json, "w") as fh:
                json.dump(report, fh, indent=2)
        return 0
    sys_, cp = _fpoly_side(args.k, args.q, args.l, args.rep, args.mode)
    print("F = %s" % cp)
    print("k=%d q=%d l=%d module=%s mode=%s tau=%d"
          % (cp.k, cp.q, cp.l, cp.rho, cp.mode, cp.tau))
    print("T* minimal polynomial: %s" % vf_poly(cp))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(dict(cp.to_json(), images=_images_json(sys_)), fh, indent=2)
    return 0


def vf_poly(cp):
    return cp.to_json()["tstar_minpoly"]


def cmd_mul(args):
    lhs = parse_symbol(args.lhs)
    rhs = parse_symbol(args.rhs)
    gens = {}
    for e, j, name in (lhs, rhs):
        if name is None:
            continue
        par = (int(e.flip) + j) % 2
        if gens.setdefault(name, par) != par:
            print("coefficient %r used with both parities" % name, file=sys.stderr)
            return 2
    if args.k < 1:
        raise BadCount("k=%d; need at least 1" % args.k)
    _factor_prime_power(args.q)  # TooLarge unless q is a prime power
    tau = pow(args.q, args.k * args.k, args.l)
    eng = HeckeEngine(FreeCoefficients(gens, args.l, tau))

    def symbol(e, j, name):
        c = eng.be.word(name, j=j) if name else eng.be.word(j=j)
        return {e: c}

    prod = eng.mul(symbol(*lhs), symbol(*rhs))
    print(render_element(prod, args.l))
    return 0


SUITES = ("cases", "oracle", "iso", "iwahori", "assoc", "all")


def run_suite(args):
    cfg = dict(k=args.k, q=args.q, l=args.l, rho=args.rep, mode=args.mode)
    rows = []
    wanted = (
        ["cases", "oracle", "iso", "iwahori", "assoc"]
        if args.suite == "all"
        else [args.suite]
    )
    for suite in wanted:
        if suite == "cases":
            rows += vf.check_cases(**cfg)
        elif suite == "oracle":
            rows += vf.check_oracle_window(**cfg, bound=args.bound)
        elif suite == "iso":
            rows += vf.check_iso(seed=args.seed, pairs=args.pairs)
        elif suite == "iwahori":
            try:
                rows += vf.check_iwahori(
                    args.k, args.q, args.l,
                    rho=args.rep, mode=args.mode, bound=args.bound,
                )
            except HeckeError as exc:
                if args.suite != "all":
                    raise
                rows.append(
                    vf.CheckResult(
                        "iwahori.match",
                        "iwahori.match",
                        cfg,
                        "report",
                        "skipped: %s" % exc,
                    )
                )
        elif suite == "assoc":
            rows += vf.check_assoc(seed=args.seed, triples=args.triples)
    return rows


def cmd_verify(args):
    rows = run_suite(args)
    for r in rows:
        tag = {"pass": "PASS", "fail": "FAIL", "report": "INFO"}[r.status]
        print("[%s] %-24s %s" % (tag, r.name, r.detail))
    if args.json:
        report = {"suite": args.suite, "checks": [r.to_json() for r in rows]}
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
    failed = [r for r in rows if not r.ok]
    if failed:
        print("%d of %d checks failed" % (len(failed), len(rows)), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------


def _add_field(p):
    p.add_argument("-k", type=int, default=1, help="half the genus of the block")
    p.add_argument("-q", type=int, default=4, help="residue field size")
    p.add_argument("-l", type=int, default=5, help="coefficient characteristic")


def _add_config(p):
    _add_field(p)
    p.add_argument("--rep", default="trivial", help="cuspidal module name")
    p.add_argument(
        "--mode", choices=("plain", "pp"), default="plain",
        help="character coefficients or the projective-cover module",
    )


def build_parser():
    top = argparse.ArgumentParser(
        prog="heckekit",
        description="exact computations in a level-0 double-coset algebra",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fpoly", help="characteristic polynomial of the shift part")
    _add_config(p)
    p.add_argument(
        "--compare", nargs=2, type=int, metavar=("A", "B"),
        help="also compute the (q, A*B*k) and (q^A, B*k) polynomials and compare",
    )
    p.add_argument("--json", help="write a JSON report here")
    p.set_defaults(func=cmd_fpoly)

    p = sub.add_parser("mul", help="multiply two bracket symbols")
    p.add_argument("lhs")
    p.add_argument("rhs")
    _add_field(p)
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser(
        "verify", help="run a verification suite",
        description="run a verification suite; iso and assoc run on fixed systems and "
        "ignore -k/-q/-l/--rep/--mode: the free engine at l=5, tau=4, plus the "
        "systems (1,4,5) for iso and (1,4,5) and (1,4,3,pp) for assoc",
    )
    p.add_argument("--suite", choices=SUITES, required=True)
    _add_config(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=200, help="random pairs for iso")
    p.add_argument("--triples", type=int, default=100, help="random triples for assoc")
    p.add_argument("--bound", type=int, default=2, help="window half-width")
    p.add_argument("--json", help="write a JSON report here")
    p.set_defaults(func=cmd_verify)
    return top


def _writable(path):
    """Whether a report can be written at path, checked before any work."""
    if os.path.exists(path):
        return os.path.isfile(path) and os.access(path, os.W_OK)
    parent = os.path.dirname(path) or "."
    return os.path.isdir(parent) and os.access(parent, os.W_OK)


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "json", None) and not _writable(args.json):
        print("cannot write a JSON report to %s" % args.json, file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except HeckeError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
