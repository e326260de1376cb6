"""One workload process: set up, print READY, run the items, report.

Started by run.py in a fresh interpreter, so every module cache starts
empty.  The parent times set-up from process start to the READY line.
The items then run in the workload's warm-up and timed passes, in the
same order each time, with a sample of the references (calib.py) after
every wl.block_s of item time; cli-cold items are processes of their own,
so there every sample also times a bare process start.  The last line of
standard output is a JSON object with the per-item verdicts (an item is
"ok" only if it was ok in every pass), each item's latency in every
timed pass and the time of each timed pass, in wall and in reference
time, the reference samples, peak memory and, in a traced run, the
per-layer totals.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import sys
import time

import calib


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-dir", help="trace the run; per-item files go here")
    ap.add_argument("--probe-depth", type=int, default=0)
    args = ap.parse_args(argv)

    cli = args.workload == "cli-cold"
    tr = None
    if args.trace_dir and not cli:
        import tracer

        tr = tracer.Tracer().install()
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if cli:
        traced = (args.trace_dir, args.probe_depth) if args.trace_dir else None
        wl = cls(args.seed, args.count, args.root, traced=traced)
    else:
        wl = cls(args.seed, args.count)
    print("READY", flush=True)
    clock = calib.Clock(starts=cli and not args.setup_only)
    if args.setup_only:
        print(json.dumps({"ref_s": clock.samples, "start_s": clock.start_samples}))
        return 0

    # wl.warmup untimed passes, then wl.passes timed ones, over the same
    # items in the same order; see DESIGN.md "Steadiness"
    n = len(wl.items)
    raw_ms = [[] for _ in range(n)]
    ref_ms = [[] for _ in range(n)]
    verdicts = ["ok"] * n
    raw_pass_s, ref_pass_s = [], []
    now = time.perf_counter
    for p in range(wl.warmup + wl.passes):
        timed = p >= wl.warmup
        outcomes, block, block_s = [], [], 0.0
        raw_total = ref_total = 0.0
        for i, item in enumerate(wl.items):
            if tr is not None:
                tr.item = i
            t0 = now()
            try:
                outcome = wl.run(item)
            except Exception as exc:  # an item that raises is a failed item, not a crash
                outcome = "error:%s" % type(exc).__name__
            dt = now() - t0
            outcomes.append(outcome)
            block.append((i, dt))
            block_s += dt
            if block_s >= wl.block_s or i == n - 1:
                clock.mark()
                for j, t in block:
                    ref = clock.scale(t)
                    if timed:
                        raw_ms[j].append(t * 1000.0)
                        ref_ms[j].append(ref * 1000.0)
                    raw_total += t
                    ref_total += ref
                block, block_s = [], 0.0
        if timed:
            raw_pass_s.append(raw_total)
            ref_pass_s.append(ref_total)
        for i, (item, o) in enumerate(zip(wl.items, outcomes)):
            v = o if isinstance(o, str) and o.startswith("error:") else wl.judge(item, o)
            if verdicts[i] == "ok":
                verdicts[i] = v

    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    result = {
        "verdicts": verdicts,
        "latency_ms": ref_ms,
        "raw_latency_ms": raw_ms,
        "pass_s": ref_pass_s,
        "raw_pass_s": raw_pass_s,
        "ref_s": clock.samples,
        "start_s": clock.start_samples,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if args.trace_dir:
        result["layers"] = collect_layers(tr, args.trace_dir, n)
    print(json.dumps(result))
    return 0


def collect_layers(tr, trace_dir, n_items):
    """Per-layer totals; writes the spans of the run next to them."""
    import tracer

    if tr is not None:
        snapshots, spans = [tr.snapshot()], tr.spans
    else:
        snapshots, spans = [], []
        for path in sorted(glob.glob(os.path.join(trace_dir, "item*.json"))):
            with open(path) as fh:
                data = json.load(fh)
            snapshots.append(data["stats"])
            item = (int(os.path.basename(path)[4:-5]) - 1) % n_items
            base = len(spans)
            spans += [[name, start, end, None if parent is None else base + parent, item]
                      for name, start, end, parent, _ in data["spans"]]
    with open(os.path.join(trace_dir, "spans.json"), "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "item"], "spans": spans}, fh)
    return tracer.merge(snapshots)


if __name__ == "__main__":
    sys.exit(main())
