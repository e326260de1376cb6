"""Self-tests of the benchmark: its checks catch wrong answers and failed runs.

    python3 -m pytest perfbench -q

They are kept out of the package's own test paths so that timing noise in
the benchmark can never fail the package's gate.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
# the environment run.py gives its workers, which CLI items inherit
os.environ["PYTHONPATH"] = os.pathsep.join(
    [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
os.environ["PYTHONHASHSEED"] = "0"

import pytest  # noqa: E402

import calib  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _mul_item(cli, kind):
    return next(it for it in cli.items if "mul" in it and len(it["mul"][1]) <= 16
                and (it["mul"][4] == tuple(reversed(it["mul"][1]))) == (kind == "cancel"))


def test_wrong_answer_and_nonzero_exit_register_in_fail_ratio():
    cli = workloads.CliCold(0, 12, ROOT)
    good = _mul_item(cli, "cancel")
    outcome = cli.run(good)
    assert cli.judge(good, outcome) == "ok"

    # the same output judged against a deliberately wrong expected answer
    alpha, x, j1, f, y, j2, g = good["mul"]
    wrong = dict(good, mul=(alpha, x, j1 + 1, f, y, j2, g))
    assert cli.judge(wrong, outcome) == "wrong"

    # a CLI call that exits non-zero (unparseable symbol: exit 2)
    bad = dict(good, argv=["mul", "[x]", "[w]", "-q", "4", "-l", "5"])
    code, _ = cli.run(bad)
    assert code == 2
    assert cli.judge(bad, (code, "")) == "exit:2"

    # a failure in any one of several workers fails the item
    latency = [[300.0, 200.0], [310.0, 330.0], [120.0, 90.0]]
    runs = [{"verdicts": verdicts, "latency_ms": latency, "raw_latency_ms": latency,
             "pass_s": [1.0, 1.2], "raw_pass_s": [1.1, 1.3], "peak_rss_mb": 50.0}
            for verdicts in (["ok", "wrong", "ok"], ["ok", "ok", "exit:2"])]
    result = run.merge_workers(runs)
    assert result["verdicts"] == ["ok", "wrong", "exit:2"]
    assert run.count_failed(result["verdicts"]) == 2
    assert result["item_ms"] == [250.0, 320.0, 105.0]  # median over every timed run
    # failed items count as missing the latency limit
    p50, _ = run.item_metrics(result, cli.limit_ms)
    assert p50 == cli.limit_ms


def test_reference_time_cancels_machine_speed():
    nominal, start = calib.NOMINAL_S, calib.NOMINAL_START_S
    # at the nominal speeds reference time is wall time
    assert calib.scale(0.5, nominal) == pytest.approx(0.5)
    assert calib.scale(start + 0.3, nominal, start) == pytest.approx(start + 0.3)
    # the same work on a machine running at half speed, or with a start
    # that costs 80 ms more, reads the same
    assert calib.scale(1.0, 2 * nominal) == pytest.approx(0.5)
    assert calib.scale(start + 0.08 + 0.6, 2 * nominal, start + 0.08) == pytest.approx(
        start + 0.3)


def test_mul_check_accepts_every_item_kind():
    cli = workloads.CliCold(3, 12, ROOT)
    for kind in ("add", "cancel"):
        item = _mul_item(cli, kind)
        assert cli.judge(item, cli.run(item)) == "ok"


def test_fpoly_check_rejects_wrong_and_non_minimal_polynomials():
    cli = workloads.CliCold(0, 24, ROOT)
    item = next(it for it in cli.items if it.get("config") == (1, 4, 3, "trivial"))
    code, out = cli.run(item)
    assert code == 0 and out.startswith("F = T^2\n")
    assert cli.judge(item, (0, out)) == "ok"
    assert cli.judge(item, (0, out.replace("F = T^2", "F = T^2 + 1"))) == "wrong"
    assert cli.judge(item, (0, out.replace("F = T^2", "F = T^3"))) == "wrong"
    assert cli.judge(item, (0, "nonsense\n")) == "wrong"
    mul = _mul_item(cli, "add")
    assert cli.judge(mul, (0, "[x w]\n")) == "wrong"


def test_parse_poly_and_product():
    assert workloads.parse_poly("T^3 + 2*T + 1") == [1, 2, 0, 1]
    terms, names = workloads.parse_product("4·[1]_f·g + [w]^1_f·g")
    assert sorted(s for parts in terms.values() for s, _ in parts) == [1, 4]
    assert all(n == {"f·g"} for n in names.values())


def test_in_process_workloads_give_ok_verdicts():
    for name in ("oracle-window", "fin-convolve", "engine-products"):
        wl = workloads.WORKLOADS[name](7, 8)
        assert [wl.judge(it, wl.run(it)) for it in wl.items] == ["ok"] * 8, name


def test_items_depend_only_on_seed_and_count():
    a = workloads.CliCold(5, 24, ROOT)
    b = workloads.CliCold(5, 24, ROOT)
    assert [it["argv"] for it in a.items] == [it["argv"] for it in b.items]
    assert workloads.item_count("cli-cold", 15) % len(workloads.CliCold.ROUND) == 0


def test_benchmark_json_lists_the_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer"]]
    assert names == [name for name, _, _ in tracer.LAYER_METRICS] + ["trace.overhead_s"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_traced_run_reports_every_layer_metric():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "engine-products",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {n for n, _, _ in tracer.LAYER_METRICS} | {"trace.overhead_s"}
    assert result["metrics"]["heckealg.mul.calls"]["value"] > 0


def test_refuses_to_run_without_the_sources():
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "oracle-window",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
