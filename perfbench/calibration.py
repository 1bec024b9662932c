"""The machine's speed during each measured span, from a calibration loop
that interrupts the work.

The benchmark runs on shared virtual machines whose speed drifts: on a
2-vCPU Xeon VM the same pure-Python work took from 1.0x to 1.5x its fastest
time, in swings lasting from a fraction of a second to minutes, in process
CPU time as much as in wall time.  Co-tenants slow the core itself, so the
drift cannot be timed away.

``Sampler`` runs one round of a fixed calibration loop (pure Python with
exact fractions, dicts and tuples, like ``vlie``, and nothing of ``vlie``)
from a timer signal every ``TICK_S`` seconds, in the middle of the work.
The rounds that ran during a span, or the nearest ones when the span is too
short to hold ``MIN_TICKS`` of them, give the slowdown the span met: their
time per round over ``REF_ROUND_S``.  The span's work time, its elapsed time
less the rounds inside it, divided by that slowdown, is its time at the
reference speed.  A change to ``vlie`` leaves the loop alone, so the scaled
times move with the program and not with the machine.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

# seconds one round takes at the reference speed, about the fastest rounds
# seen on an idle core of a 2-vCPU Xeon VM with Python 3.11
REF_ROUND_S = 0.0017
TICK_S = 0.02
MIN_TICKS = 8


def calibration_round() -> Fraction:
    table = {}
    x = Fraction(0)
    for i in range(1, 800):
        x += Fraction(i % 7 - 3, i % 5 + 1)
        table[i % 11, i % 13] = x
    return x


class Sampler:
    """Calibration rounds on a timer.  ``clock`` reads the work clock and the
    process CPU time, both less the rounds run so far."""

    def __init__(self):
        self.ticks: list[float] = []  # when each round ended
        self.round_s: list[float] = []  # how long it took
        self.spent_s = 0.0  # wall time of all rounds
        self.spent_cpu_s = 0.0

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()  # keep the collector's work on the program's heap out of the round
        c0 = time.process_time()
        t0 = time.perf_counter()
        calibration_round()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.ticks.append(t1)
        self.round_s.append(t1 - t0)
        self.spent_cpu_s += time.process_time() - c0
        self.spent_s += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def idle(self, ticks: int = MIN_TICKS) -> None:
        """Wait for some rounds, so the first and last spans have
        neighbours on both sides."""
        want = len(self.ticks) + ticks
        while len(self.ticks) < want:
            time.sleep(TICK_S)

    def clock(self) -> tuple[float, float, float]:
        """(perf counter, work clock, work CPU time) for a span boundary."""
        now = time.perf_counter()
        return now, now - self.spent_s, time.process_time() - self.spent_cpu_s

    def slowdown(self, start: float, end: float) -> float:
        """Time per round, over the reference, of the rounds that ended in
        [start, end], widened to the nearest MIN_TICKS rounds."""
        ticks = self.ticks
        i, j = bisect.bisect_left(ticks, start), bisect.bisect_right(ticks, end)
        while j - i < MIN_TICKS and (i > 0 or j < len(ticks)):
            if j == len(ticks) or (i > 0 and start - ticks[i - 1] <= ticks[j] - end):
                i -= 1
            else:
                j += 1
        return sum(self.round_s[i:j]) / ((j - i) * REF_ROUND_S)
