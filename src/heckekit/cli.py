"""Command line entry point.

Three subcommands:

  fpoly    characteristic polynomial of the polynomial part, with an
           optional two-parameter comparison (reported, never asserted);
  mul      multiply two basis symbols written in the bracket grammar
           "[t^a w w' ...]^j_name", numbers in ASCII digits, and print
           the expansion;
  verify   run a named verification suite and emit text plus an optional
           JSON report.

Exit codes: 0 all good, 1 a verification check failed, 2 bad usage, a
symbol that does not parse, or a configuration the engine rejects.

`mul` runs on the free backend and needs no numpy; the numpy-backed
modules (verify, finhecke, modrep) and json are imported only where they
are used, so a `mul` call never loads them.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .errors import BadCharacteristic, BadCount, HeckeError, TooLarge
from .heckealg import FreeCoefficients, HeckeEngine
from .numth import _factor_prime_power, is_prime
from .weyl import from_word, render


class ParseError(HeckeError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


# ---------------------------------------------------------------------------
# the bracket grammar:  [ t^<int> (w|w')* ] ^<nat> _<name>,  or [1] alone
#
# Every part after "[" is optional, so the pattern always matches a prefix
# of the input and its end is where the input stops matching.  Whitespace
# follows only tokens that cannot be empty: no two \s* are adjacent, so a
# failing match takes linear time.  Digits are ASCII; \d would also take
# other scripts' digits, which int() reads.  A t-power or shift has at most
# _MAX_DIGITS digits, so a product of two symbols has numbers of at most 601
# digits, which print under any int-to-str limit Python allows (at least 640);
# the input stops matching at a longer number's next digit.

_MAX_DIGITS = 600

_SYMBOL = re.compile(r"""
    \s* (?: \[ \s*
        (?P<t> t (?: \^ \s* (?P<alpha> -?[0-9]{1,%(digits)d} ) )? \s* )?
        (?P<letters> (?: w'? \s* )* )
        (?P<one> 1 \s* )?
        (?P<close> \] (?: \^ \s* (?P<shift> [0-9]{1,%(digits)d} ) )? (?: _ (?P<name> \w+ ) )? \s* )?
    )?
    """ % {"digits": _MAX_DIGITS}, re.VERBOSE)


def parse_symbol(text):
    """-> (weyl element, shift, coefficient name or None)."""
    m = _SYMBOL.match(text)
    if m["close"] is None or m.end() < len(text):
        pos = m.end()
        found = repr(text[pos:pos + 8]) if pos < len(text) else "end of input"
        raise ParseError("unexpected %s" % found, pos)
    alpha = int(m["alpha"]) if m["alpha"] else int(bool(m["t"]))  # a bare t is t^1
    letters = re.findall("w'?", m["letters"])
    if m["one"] and (alpha or letters):
        raise ParseError("1 only stands alone", m.start("one"))
    return from_word(alpha, letters), int(m["shift"] or 0), m["name"]


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
    from .finhecke import compute_fpoly
    from .modrep import build_coefficient_system

    if (k, q) == (2, 2) and rep == "trivial":
        rep = "sign"  # the cuspidal module of GL_2(2)
    sys_ = build_coefficient_system(k, q, l, rho=rep, mode=mode)
    return sys_, compute_fpoly(sys_)


def _images_json(sys_):
    from .finhecke import parameter_image

    out = []
    for i in range(4):
        e = parameter_image(sys_, i)
        out.append({"i": i, "f1": (e.f1 % sys_.l).tolist(), "fw": (e.fw % sys_.l).tolist()})
    return out


def _write_report(path, report):
    import json

    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)


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
            _write_report(args.json, report)
        return 0
    sys_, cp = _fpoly_side(args.k, args.q, args.l, args.rep, args.mode)
    print("F = %s" % cp)
    print("k=%d q=%d l=%d module=%s mode=%s tau=%d"
          % (cp.k, cp.q, cp.l, cp.rho, cp.mode, cp.tau))
    print("T* minimal polynomial: %s" % vf_poly(cp))
    if args.json:
        _write_report(args.json, dict(cp.to_json(), images=_images_json(sys_)))
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
    if not is_prime(args.l):  # before pow, which refuses l = 0
        raise BadCharacteristic("l=%d is not prime" % args.l)
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
    from . import verify as vf

    cfg = dict(k=args.k, q=args.q, l=args.l, rho=args.rep, mode=args.mode)
    rows = []
    wanted = SUITES[:-1] if args.suite == "all" else (args.suite,)

    def refusable(name, errors, check):
        # under `all`, a refusal becomes a report row and the suite goes on
        try:
            return check(**cfg, bound=args.bound)
        except errors as exc:
            if args.suite != "all":
                raise
            return [vf.CheckResult(name, name, cfg, "report", "skipped: %s" % exc)]

    for suite in wanted:
        if suite == "cases":
            rows += vf.check_cases(**cfg)
        elif suite == "oracle":
            rows += refusable("mul.oracle-window", TooLarge, vf.check_oracle_window)
        elif suite == "iso":
            rows += vf.check_iso(seed=args.seed, pairs=args.pairs)
        elif suite == "iwahori":
            rows += refusable("iwahori.match", HeckeError, vf.check_iwahori)
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
        _write_report(args.json, report)
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
