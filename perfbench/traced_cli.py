"""One traced CLI call: `traced_cli.py STATS_OUT PROBE_DEPTH -- <cli args>`.

Installs the tracer in a fresh interpreter, then runs `heckekit.cli.main`
on the arguments, as `python -m heckekit.cli` would, and writes the
per-layer totals and spans to STATS_OUT even when main raises.

The recursion limit is raised by the number of extra frames this process
puts on the stack compared with `python -m heckekit.cli`: the frames below
`HeckeEngine.mul` (PROBE_DEPTH is the frame depth of a module run with -m),
plus the one probe frame that a wrapped `weyl` call adds at the deepest
point of the engine's recursion.  With that, a cancelling `mul` fails at
the same word length with and without tracing (248 letters on CPython
3.11 at the default limit; 247 still passes in both).
"""

from __future__ import annotations

import json
import sys

import tracer

LEAF_PROBE_FRAMES = 1


def frame_depth():
    """Number of Python frames on the caller's stack, the caller included."""
    f = sys._getframe(1)
    n = 0
    while f is not None:
        n += 1
        f = f.f_back
    return n


def run_main(cli, argv, probe_depth):
    # here -> main probe -> main -> cmd_mul -> mul probe -> HeckeEngine.mul,
    # against <module> -> main -> cmd_mul -> HeckeEngine.mul under -m
    extra = (frame_depth() + 5) - (probe_depth + 3) + LEAF_PROBE_FRAMES
    sys.setrecursionlimit(sys.getrecursionlimit() + extra)
    return cli.main(argv)


def main():
    out_path, probe_depth = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    tr = tracer.Tracer().install()
    cli = sys.modules["heckekit.cli"]
    try:
        return run_main(cli, argv, probe_depth)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"stats": tr.snapshot(), "spans": tr.spans}, fh)


if __name__ == "__main__":
    raise SystemExit(main())
