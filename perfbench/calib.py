"""Machine-speed references, timed alongside the workload.

The machines this benchmark runs on share their cores, and their speed
drifts over seconds to minutes, in two ways that move independently:

* CPU speed: a fixed loop, timed in blocks, takes anywhere from 14 to
  33 ms.  Pure-Python and numpy code drift together (their time ratio
  stays within a few per cent while both move).
* Process start: `python -c "import numpy"` takes 250 ms for minutes,
  then 170 ms for minutes, while the loop and a bare `python -c pass`
  do not change.  Every heckekit process pays this start.

Every reported time is therefore in reference seconds.  Work inside a
process is scaled by NOMINAL_S / (the CPU kernel's time measured next to
it).  A stretch that includes one process start (a CLI call, a worker's
set-up) is charged NOMINAL_START_S for the bare start, plus its excess
over the measured bare start, scaled like in-process work.  Neither
reference runs heckekit code, so a change to the program moves the
reference-second figures as it moves wall time, while drift of the
machine cancels.  Wall-clock figures stay in the run record.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Typical times of the two references on the reference machine
# (DESIGN.md); only scales, so that reference seconds read close to wall
# seconds there.
NOMINAL_S = 0.0056
NOMINAL_START_S = 0.2

BARE_START = [sys.executable, "-c", "import numpy"]

_A = (np.arange(24 * 24, dtype=np.int64).reshape(24, 24) * 7 + 3) % 11


def kernel():
    """A fixed mix of dict, tuple and small-matrix work; returns its time."""
    t0 = time.perf_counter()
    memo = {}
    acc = 0
    for i in range(5000):
        key = (i % 97, i % 89, (i * 7) % 83)
        memo[key] = memo.get(key, 0) + i
        acc += hash(key) & 7
    B = _A
    for _ in range(120):
        B = (B @ _A) % 11
    return time.perf_counter() - t0


def sample(n=3):
    """Median of n kernel runs, in seconds."""
    return sorted(kernel() for _ in range(n))[n // 2]


def start_sample():
    """Seconds for one bare interpreter start that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run(BARE_START, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   check=True)
    return time.perf_counter() - t0


def scale(wall_s, kernel_s, start_s=None):
    """Reference seconds for `wall_s` measured when the kernel took
    `kernel_s`; with `start_s`, `wall_s` includes one process start and
    a bare start took `start_s`."""
    if start_s is None:
        return wall_s * NOMINAL_S / kernel_s
    return NOMINAL_START_S + (wall_s - start_s) * NOMINAL_S / kernel_s


class Clock:
    """The reference samples of one process, taken between stretches of work.

    `mark()` samples the references; `scale()` converts a time measured
    since the previous mark, using the median of the last WINDOW samples
    of each reference.  One sample now and then reads far off (a 3 ms
    kernel among 6 ms ones), and the median keeps it from rescaling a
    whole stretch of work.  With `starts`, every mark also times a bare
    process start, for work that starts a process of its own.
    """

    WINDOW = 5

    def __init__(self, starts=False):
        self.samples = [sample() for _ in range(self.WINDOW)]
        self.start_samples = [start_sample() for _ in range(2)] if starts else []

    def mark(self):
        self.samples.append(sample())
        if self.start_samples:
            self.start_samples.append(start_sample())

    def scale(self, wall_s):
        kernel_s = statistics.median(self.samples[-self.WINDOW:])
        start_s = (statistics.median(self.start_samples[-self.WINDOW:])
                   if self.start_samples else None)
        return scale(wall_s, kernel_s, start_s)
