"""heckekit benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds src/heckekit.  The item set
is a function of the workload, the seed and --seconds only (see
workloads.item_count), so two commits are measured on identical inputs.

--trace 0: set up the workload in several fresh interpreters (the
measuring workers, then set-up-only processes; setup_s is the median), run
the items in each worker, and report the end-to-end metrics over all of
them, in reference seconds (calib.py).
--trace 1: run the same items untraced and then traced, check that both
give identical per-item verdicts, and report the per-layer metrics and the
tracing overhead (traced minus untraced median pass).

Every run also writes a run record (interpreter, numpy, CPU, seed, source
digest and git commit when there is one, plus the metrics) under
.perfbench/runs/ and prints it as a `record:` line.  The last line of
standard output is the JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("oracle-window", "fin-convolve", "engine-products", "cli-cold")
TIMEOUT_S = 170


class BenchError(Exception):
    pass


def env():
    """Environment of every process the benchmark starts; workers pass it on."""
    e = dict(os.environ)
    src = os.path.join(ROOT, "src")
    e["PYTHONPATH"] = src + (os.pathsep + e["PYTHONPATH"] if e.get("PYTHONPATH") else "")
    e["PYTHONHASHSEED"] = "0"
    return e


def spawn_worker(args, count, setup_only=False, trace_dir=None, probe_depth=0):
    """Start a worker; returns (set-up seconds, the worker's result dict).

    Reference samples taken here just before the start are put in front
    of the worker's own, result["ref_s"] and result["start_s"]."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--count", str(count), "--root", ROOT]
    if setup_only:
        cmd.append("--setup-only")
    if trace_dir:
        cmd += ["--trace-dir", trace_dir, "--probe-depth", str(probe_depth)]
    before = calib.sample(), calib.start_sample()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait(timeout=TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise BenchError("worker for %s failed (exit %s)" % (args.workload, code))
    result = json.loads(rest.strip().splitlines()[-1])
    result["ref_s"].insert(0, before[0])
    result["start_s"].insert(0, before[1])
    return setup_s, result


def probe_depth():
    out = subprocess.run([sys.executable, "-m", "perfbench.depth_probe"], cwd=ROOT,
                         env=env(), capture_output=True, text=True, check=True)
    return int(out.stdout.strip())


def tail_rank(n):
    """0-based rank of the highest order statistic with >= 10 items above it."""
    return max(0, n - 11)


def item_metrics(result, limit_ms, key="item_ms"):
    """Latency p50/tail over the items' median latencies, with failed
    items counted at >= the latency limit."""
    lat = [
        ms if v == "ok" else max(ms, limit_ms)
        for ms, v in zip(result[key], result["verdicts"])
    ]
    lat.sort()
    return statistics.median(lat), lat[tail_rank(len(lat))]


def count_failed(verdicts):
    return sum(1 for v in verdicts if v != "ok")


def run_record(args, count, metrics, extra):
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "heckekit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or None
    return dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        items=count, tail_rank=tail_rank(count) + 1,
        python=platform.python_version(), numpy=numpy.__version__,
        nproc=os.cpu_count(), cpu=cpu, git_commit=commit,
        source_sha256=digest.hexdigest(), time=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        metrics=metrics, **extra,
    )


def merge_workers(results):
    """One result from several workers: each item's median latency over
    all its timed runs, every timed pass, the largest memory, and any
    non-ok verdict."""
    return {
        "verdicts": [next((v for v in vs if v != "ok"), "ok")
                     for vs in zip(*(r["verdicts"] for r in results))],
        "item_ms": [statistics.median(ms for runs in item for ms in runs)
                    for item in zip(*(r["latency_ms"] for r in results))],
        "raw_item_ms": [statistics.median(ms for runs in item for ms in runs)
                        for item in zip(*(r["raw_latency_ms"] for r in results))],
        "pass_s": [p for r in results for p in r["pass_s"]],
        "raw_pass_s": [p for r in results for p in r["raw_pass_s"]],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }


def end_to_end(args, count, wl):
    setups, kernel, starts, results = [], [], [], []
    for i in range(wl.setups):
        setup_s, result = spawn_worker(args, count, setup_only=i >= wl.workers)
        setups.append(setup_s)
        kernel += result["ref_s"]
        starts += result["start_s"]
        if i < wl.workers:
            results.append(result)
    result = merge_workers(results)
    # a set-up holds one process start and cannot be bracketed by samples
    # of its own process: it is scaled by the run's median samples
    kernel_s, start_s = statistics.median(kernel), statistics.median(starts)
    ref_setups = [calib.scale(s, kernel_s, start_s) for s in setups]
    p50, tail = item_metrics(result, wl.limit_ms)
    failed = count_failed(result["verdicts"])
    n = len(result["verdicts"])
    metrics = {
        "setup_s": (statistics.median(ref_setups), "s"),
        "verdict_s": (sum(result["item_ms"]) / 1000.0, "s"),
        "item_ms.p50": (p50, "ms"),
        "item_ms.tail": (tail, "ms"),
        "ok_ratio": (1.0 - failed / n, "1"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    wall_p50, wall_tail = item_metrics(result, wl.limit_ms, key="raw_item_ms")
    wall = {"setup_s": statistics.median(setups),
            "verdict_s": sum(result["raw_item_ms"]) / 1000.0,
            "item_ms.p50": wall_p50, "item_ms.tail": wall_tail}
    extra = {"wall_clock": wall, "raw_setup_samples_s": setups, "setup_samples_s": ref_setups,
             "item_ms": result["item_ms"], "raw_item_ms": result["raw_item_ms"],
             "pass_s": result["pass_s"], "raw_pass_s": result["raw_pass_s"],
             "kernel_samples_s": kernel, "start_samples_s": starts, "fail_ratio": failed / n,
             "verdict_counts": tally(result["verdicts"])}
    correct = "wrong" not in result["verdicts"]
    return correct, n, failed, metrics, extra


def traced(args, count):
    import tracer

    trace_dir = os.path.join(OUT, "trace", "%s-seed%d" % (args.workload, args.seed))
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    _, plain = spawn_worker(args, count)
    depth = probe_depth() if args.workload == "cli-cold" else 0
    _, withtrace = spawn_worker(args, count, trace_dir=trace_dir, probe_depth=depth)
    layers = tracer.layer_metrics(withtrace["layers"])
    units = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
    metrics = {name: (value, units[name]) for name, value in layers.items()}
    plain_s, traced_s = (statistics.median(r["pass_s"]) for r in (plain, withtrace))
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    same = plain["verdicts"] == withtrace["verdicts"]
    correct = same and "wrong" not in plain["verdicts"]
    failed = count_failed(plain["verdicts"])
    extra = {"verdicts_identical": same, "untraced_verdict_s": plain_s,
             "traced_verdict_s": traced_s, "trace_dir": trace_dir,
             "verdict_counts": tally(plain["verdicts"])}
    return correct, len(plain["verdicts"]), failed, metrics, extra


def tally(verdicts):
    out = {}
    for v in verdicts:
        out[v] = out.get(v, 0) + 1
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "heckekit", "cli.py")):
        print("no heckekit sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", "src/heckekit",
                            "perfbench"], cwd=ROOT, check=False)
    if build.returncode != 0:
        print("byte-compiling the sources failed", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    count = workloads.item_count(args.workload, args.seconds)
    wl = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            correct, attempted, failed, metrics, extra = traced(args, count)
        else:
            correct, attempted, failed, metrics, extra = end_to_end(args, count, wl)
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    print("%s seed=%d items=%d tail=rank %d of %d  attempted=%d failed=%d (fail_ratio %.4f)"
          % (args.workload, args.seed, count, tail_rank(count) + 1, count,
             attempted, failed, failed / attempted))
    for name, (value, unit) in metrics.items():
        print("  %-44s %14.6g %s" % (name, value, unit))
    record = run_record(args, count, {k: v for k, (v, _) in metrics.items()}, extra)
    runs = os.path.join(OUT, "runs")
    os.makedirs(runs, exist_ok=True)
    path = os.path.join(runs, "%s-seed%d-trace%d-%d.json"
                        % (args.workload, args.seed, args.trace, time.time_ns()))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print("record: " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
