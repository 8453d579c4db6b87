"""Host-speed calibration of the benchmark's timings.

The benchmark runs on a shared virtual machine whose vCPUs change speed
under it: a fixed pure-Python loop has been seen to run at one speed for
half a minute and at half that speed for the next, so the same request's
wall time moves by a quarter or more between runs. Longer runs do not
average that away, because the swings last about as long as a run. Two
things are done about it.

* `pin_to_one_cpu()` keeps the benchmark's process, the program's thread
  pool inside it and the interpreters it starts on one vCPU. Left free, the
  pool's threads hop between two vCPUs whose speeds swing independently,
  and no measurement taken on one thread can tell how fast the request ran.
  Pinned, the program also stops handing the interpreter lock across vCPUs;
  with the GIL only one of its threads runs at a time either way.
* `Calibrated.run(fn)` samples the speed of that vCPU while `fn()` runs: a
  short pass of a fixed calibration kernel before it, after it and every
  `INTERVAL_S` during it, from a timer signal. The samples are evenly
  spaced in time, so their mean is the interval's mean slowness, and

      NOMINAL_S / mean(passes)

  turns a wall time measured inside `fn` into seconds at the speed where a
  pass takes `NOMINAL_S`. Scaling by the passes before and after alone, or
  by their median, left most of the swing in long requests.

The kernel is the benchmark's own code, never the program's, so a change to
the program cannot move it. The passes add about 1 % to every timed
interval, the same on every commit. Raw wall times are kept too, and the
traced run reports them beside the pass time.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
from time import perf_counter

#: Iterations of one calibration pass (1-3 ms, as the host's speed goes).
ITERATIONS = 3000

#: Seconds between the passes taken while the timed work runs.
INTERVAL_S = 0.2

#: Typical time of one pass on the reference host (a shared 2-vCPU Xeon
#: virtual machine at 2.1 GHz, Python 3.11), whose passes took 1.2-2.7 ms
#: inside requests as its speed swung. Scaled figures read as seconds on that
#: host at that speed.
NOMINAL_S = 0.002


def pin_to_one_cpu() -> int:
    """Restrict this process, the threads it starts from now on and its
    children to the highest-numbered CPU it may use; that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def calibration_pass() -> float:
    """Wall seconds of one pass of the calibration kernel. Pure Python, so
    it holds the interpreter lock throughout and no other thread runs
    inside it."""
    start = perf_counter()
    acc = 0.0
    for i in range(ITERATIONS):
        z = complex(i * 1e-3, 0.5)
        acc += abs(z * z + 1.0) + math.sin(i * 0.01)
    seconds = perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return seconds


class Calibrated:
    """Runs work while sampling the host's speed, and keeps every pass."""

    def __init__(self):
        self.passes = []

    def run(self, fn):
        """`(fn(), factor)`: a wall time measured inside `fn` times `factor`
        is that time at nominal host speed. One pass runs before `fn`, one
        after it, and one every `INTERVAL_S` while it runs, from a timer
        signal on the main thread; the factor uses their mean."""
        samples = [calibration_pass()]

        def sample(signum, frame):
            samples.append(calibration_pass())

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        samples.append(calibration_pass())
        self.passes += samples
        return result, NOMINAL_S / statistics.fmean(samples)
