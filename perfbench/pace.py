"""Operation times scaled to a fixed reference speed of the CPU.

On a shared virtual machine the speed of the CPU swings by up to half
within a second, back and forth, for reasons outside the process
(measured with a fixed pure-Python loop: 0.5 s windows of one process
range from 7.4 to 11.7 ms, and whole 30 s runs stay in either state).
Wall times of the same code then spread past any useful bound however
long a run is.

So a profiling timer interrupts the benchmark every ``INTERVAL`` seconds
of CPU time and runs a fixed pure-Python loop, ``_calibration``, once.
How long it took is a sample of the machine's speed at that moment.
An operation's reference time is its wall time, less the time spent in
the samples, times ``REF_S`` times the mean of 1 / loop time over the
samples taken while it ran and up to ``WINDOW`` seconds either side.
It reads in seconds: the time the operation would take on a machine
where the loop always takes ``REF_S``.  Checked on evaluate calls in
0.5 s windows: their wall time ranged from 3.3 to 5.7 ms, while the
reference time kept an interquartile range of 5.5 % of its median.
Wall times are reported next to it, never gated.

The loop uses only the interpreter (integer arithmetic, a dict lookup
and a string method on objects made in advance), never the code under
test, and allocates no container, so it neither triggers nor feeds the
cyclic garbage collector.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL = 0.02
# Samples up to this many seconds before and after an operation count
# towards its speed.  Single samples are noisy: the loop runs either
# fast or about 1.8 times slower, switching from one 20 ms sample to the
# next, and the mix of the two shifts over seconds.
WINDOW = 0.1
# Loop time, in seconds, that defines the reference speed: about the
# loop's median on the 2-core shared VM the bounds were tuned on.
REF_S = 0.00035
_KEYS = tuple(f"{c}{i}" for i, c in enumerate("abcdefghijklmnop" * 4))
_TABLE = {key: i for i, key in enumerate(_KEYS)}
_ROUNDS = 1000


def _calibration() -> int:
    total = 0
    keys, table = _KEYS, _TABLE
    for i in range(_ROUNDS):
        key = keys[i & 63]
        total += table[key] * i % 7
        if key.startswith("a"):
            total -= 1
    return total


class Pace:
    """Samples the loop time while it is entered; ``scaled`` turns a
    measured span into reference seconds."""

    def __init__(self):
        self.ends: list[float] = []     # perf_counter at each sample's end
        self.loops: list[float] = []    # the loop's time in each sample
        self.spent = 0.0                # time spent in the handler
        self._previous = None

    def _sample(self, signum, frame) -> None:
        enter = time.perf_counter()
        _calibration()
        leave = time.perf_counter()
        self.ends.append(leave)
        self.loops.append(leave - enter)
        self.spent += time.perf_counter() - enter

    def __enter__(self):
        _calibration()  # warm the loop before the first sample
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple[float, float]:
        """A point in time: (clock, handler time so far)."""
        return time.perf_counter(), self.spent

    def settle(self) -> None:
        """Sample until the samples reach ``WINDOW`` past the last mark,
        so that every span can be scaled."""
        until = time.perf_counter() + WINDOW
        while not self.ends or self.ends[-1] < until:
            _calibration()

    def scaled(self, start, stop) -> tuple[float, float]:
        """(wall seconds, reference seconds) between two marks.  A span
        with no sample near it (the process slept) takes the next one."""
        wall = (stop[0] - start[0]) - (stop[1] - start[1])
        lo = bisect.bisect_left(self.ends, start[0] - WINDOW)
        hi = bisect.bisect_right(self.ends, stop[0] + WINDOW)
        loops = self.loops[lo:hi] or self.loops[hi:hi + 1]
        rate = sum(1.0 / loop for loop in loops) / len(loops)
        return wall, wall * REF_S * rate
