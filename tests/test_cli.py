"""End-to-end tests for the command line front end (exit codes, output text, JSON)."""

import json
import os
import re
import subprocess
import sys
import time

import pytest

import heckekit.cli as cli
from heckekit.cli import ParseError, main, parse_symbol
from heckekit.twisted import iwahori_mul
from heckekit.verify import CheckResult
from heckekit.weyl import W, W_ID, W_T, W_W, word_of


def test_parse_symbol_plain_letters():
    e, shift, name = parse_symbol("[w]")
    assert e == W_W and shift == 0 and name is None
    e, shift, name = parse_symbol("[t^2 w' w]^1_f")
    assert e == W(0, 2, False)
    assert shift == 1
    assert name == "f"


def test_parse_symbol_identity_and_bare_t():
    assert parse_symbol("[1]") == (W_ID, 0, None)
    assert parse_symbol("[t]") == (W_T, 0, None)
    assert parse_symbol("[t^-3]") == (W(-2, -1, True), 0, None)


def test_parse_symbol_whitespace_insensitive():
    a = parse_symbol("[ t^2 w' w ]^1_ab2")
    b = parse_symbol("[t^2w'w]^1_ab2")
    assert a == b


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "[w",
        "w]",
        "[w]x",
        "[t^]",
        "[w]^",
        "[w]^-1",
        "[w]_",
        "[1 w]",  # 1 only stands alone
    ],
)
def test_parse_symbol_rejects(bad):
    with pytest.raises(ParseError):
        parse_symbol(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_symbol("[w]x")
    assert err.value.position == 3


# -- mul ------------------------------------------------------------------

def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_mul_basic_product(capsys):
    code, out, _ = run(capsys, "mul", "[w]", "[w]")
    assert code == 0
    assert out == "4·[1] + [w]^1"


def test_mul_named_coefficients(capsys):
    code, out, _ = run(capsys, "mul", "[w]_f", "[w]_g")
    assert code == 0
    assert out == "4·[1]_f·g + [w]^1_f·g"


def test_mul_shortening_product(capsys):
    code, out, _ = run(capsys, "mul", "[t^2 w' w]", "[w]")
    assert code == 0
    assert out == "[t^2 w' w]^1 + 4·[t^2 w']"


def test_mul_unit_passthrough(capsys):
    code, out, _ = run(capsys, "mul", "[1]", "[t^3 w]")
    assert code == 0
    assert out == "[t^3 w]"


def test_mul_respects_modulus(capsys):
    code, out, _ = run(capsys, "mul", "-q", "3", "-l", "2", "[w]", "[w]")
    assert code == 0
    # tau = 3 mod 2 = 1
    assert out == "[1] + [w]^1"


def test_mul_parse_failure_exits_2(capsys):
    code, _, err = run(capsys, "mul", "[w", "[w]")
    assert code == 2
    assert "parse error" in err


def test_mul_conflicting_parity_exits_2(capsys):
    # f would have to sit in both parity classes at once
    code, _, err = run(capsys, "mul", "[w]_f", "[t^2]_f")
    assert code == 2
    assert "parities" in err


# -- fpoly ----------------------------------------------------------------

def test_fpoly_degenerate_branch(capsys):
    code, out, _ = run(capsys, "fpoly", "-k", "1", "-q", "4", "-l", "3")
    assert code == 0
    assert "F = T" in out and "T^2" not in out


def test_fpoly_generic_branch(capsys):
    code, out, _ = run(capsys, "fpoly", "-k", "1", "-q", "4", "-l", "5")
    assert code == 0
    assert "F = T^2 + 1" in out


def test_fpoly_json_report(tmp_path, capsys):
    path = tmp_path / "fp.json"
    code, _, _ = run(capsys, "fpoly", "-q", "4", "-l", "5", "--json", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["coeffs"] == [1, 0, 1]
    assert data["tau"] == 4
    assert data["images"]  # a few parameter matrices for inspection


def test_fpoly_compare_reports_both_sides(capsys):
    code, out, _ = run(capsys, "fpoly", "-q", "2", "-l", "3", "--compare", "2", "1")
    assert code == 0
    assert "left:" in out and "right:" in out
    assert "equal: True" in out


def test_fpoly_compare_unequal_is_still_exit_0(capsys):
    code, out, _ = run(capsys, "fpoly", "-q", "2", "-l", "5", "--compare", "2", "1")
    assert code == 0
    assert "equal: False" in out


# -- verify ---------------------------------------------------------------

def test_verify_cases_suite(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify", "--suite", "cases", "-q", "3", "-l", "2",
        "--json", str(path),
    )
    assert code == 0
    assert out.count("[PASS]") == 8
    report = json.loads(path.read_text())
    assert report["suite"] == "cases"
    assert len(report["checks"]) == 8
    for check in report["checks"]:
        assert set(check) == {"name", "anchor", "inputs", "status", "detail"}
        assert check["status"] == "pass"


def test_verify_failure_exits_1(monkeypatch, capsys):
    rows = [CheckResult("mul.case1", "mul.case1", {}, "fail", "forced")]
    monkeypatch.setattr(cli.vf, "check_cases", lambda **kw: rows)
    code, out, err = run(capsys, "verify", "--suite", "cases")
    assert code == 1
    assert "[FAIL]" in out
    assert "1 of 1 checks failed" in err


def test_verify_iwahori_outside_scalar_case_exits_2(capsys):
    # dim > 1, so there is no scalar model to compare against
    code, _, err = run(
        capsys, "verify", "--suite", "iwahori", "-q", "4", "-l", "3", "--mode", "pp"
    )
    assert code == 2
    assert err


@pytest.mark.parametrize(
    "argv, empty",
    [
        (("--suite", "assoc", "--triples", "3"), {"mul.assoc-plain", "mul.assoc-pp"}),
        (("--suite", "iso", "--pairs", "1"), {"iso.fin-multiplicative"}),
    ],
    ids=["assoc-triples-3", "iso-pairs-1"],
)
def test_verify_row_without_samples_is_info(capsys, argv, empty):
    # a count too small to reach a row leaves it unchecked: INFO, never PASS
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    for line in out.splitlines():
        tag, name = line.split()[:2]
        assert tag == ("[INFO]" if name in empty else "[PASS]"), line


@pytest.mark.parametrize("flag", [("--rep", "x"), ("--mode", "pp")])
def test_mul_takes_no_module_flags(capsys, flag):
    # mul multiplies formal words: a cuspidal module or a mode means nothing
    with pytest.raises(SystemExit) as exc:
        main(["mul", "[w]", "[w]", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s %s" % flag in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # --suite is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


# -- whole-process behaviour ----------------------------------------------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_process(*argv, optimize=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable] + (["-O"] if optimize else []) + ["-m", "heckekit.cli"]
    return subprocess.run(cmd + list(argv), env=env, capture_output=True, text=True,
                          check=False)


def alternating(first, n):
    other = "w'" if first == "w" else "w"
    return [first if i % 2 == 0 else other for i in range(n)]


TERM = re.compile(r"^(?:(\d+)·)?\[([^\]]*)\](?:\^(\d+))?$")


@pytest.mark.parametrize("n", [320, 1024])
def test_mul_long_cancelling_pair_matches_iwahori_model(n):
    x = alternating("w", n)
    lhs, rhs = "[t^3 %s]^1" % " ".join(x), "[%s]" % " ".join(reversed(x))
    proc = run_process("mul", lhs, rhs, "-q", "4", "-l", "5")
    assert proc.returncode == 0, proc.stderr[-500:]
    assert "Traceback" not in proc.stderr
    # s.[t^a letters]^j read as s.(qbar-1)^j.T_e with qbar = tau = 4, keyed
    # by the printed word (a, letters)
    l, qbar = 5, 4
    got = {}
    for term in proc.stdout.strip().split(" + "):
        scalar, body, j = TERM.match(term).groups()
        alpha, letters = 0, tuple(body.split())
        if letters and letters[0][0] in "t1":  # "t^a", "t" or the identity "1"
            head, letters = letters[0], letters[1:]
            alpha = 0 if head == "1" else int(head[2:] or 1)
        key = (alpha, letters)
        got[key] = (got.get(key, 0) + int(scalar or 1) * pow(qbar - 1, int(j or 0), l)) % l
    got = {k: c for k, c in got.items() if c}
    a, b = parse_symbol(lhs)[0], parse_symbol(rhs)[0]
    want = {word_of(e): (c * (qbar - 1)) % l for e, c in iwahori_mul(a, b, qbar, l).items()}
    assert got == {k: c for k, c in want.items() if c}
    assert len(got) > n


BAD_INPUTS = [
    ("fpoly", "-l", "4"),  # l not prime
    ("fpoly", "-l", "1"),
    ("fpoly", "-q", "4", "-l", "2"),  # l is the residue characteristic
    ("fpoly", "--rep", "sign", "--mode", "plain", "-k", "1", "-q", "4", "-l", "3"),
    ("mul", "[w]", "[w]", "-q", "5", "-l", "5"),  # tau = 0 mod l
    ("mul", "[w]", "[w]", "-q", "3", "-l", "4"),  # l not prime
    ("mul", "[w]", "[w]", "-q", "3", "-l", "1"),
    ("mul", "[w]", "[w]", "-q", "6", "-l", "5"),  # q not a prime power
    ("mul", "[w]", "[w]", "-q", "1", "-l", "5"),
    ("verify", "--suite", "cases", "-l", "9"),
    ("fpoly", "-k", "1", "-q", "9", "-l", "2", "--mode", "pp"),  # dim 128: too large
    ("fpoly", "-k", "0"),  # counts and sizes below their least value
    ("mul", "[w]", "[w]", "-k", "0"),
    ("verify", "--suite", "assoc", "--triples", "0"),
    ("verify", "--suite", "iso", "--pairs", "-1"),
    ("verify", "--suite", "assoc", "--seed", "-1"),
    ("verify", "--suite", "oracle", "--bound", "-1"),
    ("fpoly", "-q", "10007", "-l", "3"),  # product table refused before GF(q) is built
    ("verify", "--suite", "cases", "-q", "4099", "-l", "3"),
    ("mul", "[w]", "[w]", "-q", "-3", "-l", "5"),
    ("verify", "--suite", "oracle", "-k", "1", "-q", "71", "-l", "2"),  # coset pairs
    # window budget: 11.1M and 5.0M coset pairs over the window
    ("verify", "--suite", "oracle", "-k", "2", "-q", "2", "-l", "3", "--rep", "sign",
     "--mode", "pp"),
    ("verify", "--suite", "oracle", "-k", "1", "-q", "13", "-l", "2"),
    ("verify", "--suite", "oracle", "-k", "1000"),  # k checked before any q^(k^2)
    # bounds refused from the bound alone: the oracle window's size squared
    # (21 s to refuse before), and the iwahori suite's 114,244 products
    ("verify", "--suite", "oracle", "--bound", "160"),
    ("verify", "--suite", "iwahori", "--bound", "6"),
    # large primes: trial division ran past 20 s on each of these
    ("fpoly", "-k", "1", "-q", "4", "-l", "1000000000000000003"),  # residues overflow int64
    ("verify", "--suite", "cases", "-q", "1000000000000000003", "-l", "5"),
    ("mul", "[w]", "[w]", "-q", "18446744073709551629", "-l", "5"),  # prime >= 2^64
    ("mul", "[w]", "[w]", "-q", "4", "-l", "18446744073709551629"),
    # a report that cannot be written is refused before any computation
    ("fpoly", "--json", "/nonexistent/dir/x.json"),
    ("verify", "--suite", "cases", "--json", "/nonexistent/dir/x.json"),
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=[" ".join(a) for a in BAD_INPUTS])
def test_bad_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1, err


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=[" ".join(a) for a in BAD_INPUTS])
def test_bad_input_exits_2_under_optimize(argv):
    # asserts are gone under -O, so only explicit checks can reject these
    proc = run_process(*argv, optimize=True)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr


# (q, l, product): mul with a large prime as -q or -l, which trial division
# took seconds or longer than 20 s to accept
LARGE_PRIMES = [("1000000000000000003", "5", "3·[1] + [w]^1"),
                ("4", "1000000000000000003", "4·[1] + [w]^1"),
                ("1000000000039", "5", "4·[1] + [w]^1")]


@pytest.mark.parametrize("optimize", [False, True], ids=["python", "python-O"])
@pytest.mark.parametrize("q,l,want", LARGE_PRIMES, ids=["q%s.l%s" % c[:2] for c in LARGE_PRIMES])
def test_mul_answers_at_once_for_large_primes(q, l, want, optimize):
    start = time.monotonic()
    proc = run_process("mul", "[w]", "[w]", "-q", q, "-l", l, optimize=optimize)
    assert proc.returncode == 0 and proc.stdout.strip() == want, proc.stderr
    assert time.monotonic() - start < 10


def fpoly_constant(proc):
    """c of the one line "F = T^2 + c"."""
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("F = ")]
    assert proc.returncode == 0 and len(lines) == 1, proc.stderr
    head, c = lines[0].rsplit(" + ", 1)
    assert head == "F = T^2", lines
    return int(c)


@pytest.mark.parametrize("mode", ["plain", "pp"])
def test_fpoly_answers_at_once_for_a_prime_near_10_9(mode):
    # the roots of unity mod l come from one generator, not a scan of the
    # residues (minutes at this l); F is T^2 - 9 as at l = 101, so no
    # residue product on the way overflowed int64
    big = 1000000007
    start = time.monotonic()
    proc = run_process("fpoly", "-k", "1", "-q", "4", "-l", str(big), "--mode", mode)
    assert time.monotonic() - start < 2
    small = run_process("fpoly", "-k", "1", "-q", "4", "-l", "101", "--mode", mode)
    assert fpoly_constant(proc) - big == fpoly_constant(small) - 101 == -9


# pp systems whose covers splitting the regular module could not build, or
# built in 10-14 s: l does not divide q - 1 (7, 17), or does (2, 3)
COVER_OUTLIERS = [("23", "7"), ("31", "17"), ("23", "2"), ("31", "3")]


@pytest.mark.parametrize("optimize", [False, True], ids=["python", "python-O"])
@pytest.mark.parametrize("q,l", COVER_OUTLIERS, ids=["q%s.l%s" % c for c in COVER_OUTLIERS])
def test_fpoly_pp_answers_where_splitting_failed(q, l, optimize):
    proc = run_process("fpoly", "-k", "1", "-q", q, "-l", l, "--mode", "pp", optimize=optimize)
    assert proc.returncode == 0, proc.stderr
    assert len([ln for ln in proc.stdout.splitlines() if ln.startswith("F = ")]) == 1
