"""Times at a fixed reference speed, for a host whose speed drifts.

The benchmark's host is a few cores of a shared machine, and its speed
drifts by tens of percent from one minute to the next and within a second.
A *calibration slice* is a fixed piece of plain interpreter work; how long
it takes reads the machine's speed at that moment.  Inside a `SpeedLog`, a
SIGALRM timer runs one slice every CAL_INTERVAL_S in the main thread, so
slices also run inside the timed code and read the speed it gets.  A span's
time at the reference speed is its wall time less the slices that ran inside
it, times CAL_REF_S over the mean of the slices around it.  See NOTES.md.
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from time import perf_counter

# Wall seconds of one calibration slice at the reference speed, about its
# median on the reference machine.
CAL_REF_S = 0.00065
CAL_INTERVAL_S = 0.02
CAL_WINDOW_S = 0.5


def calibration_slice():
    """Wall time of a fixed piece of interpreter work of the kinds qsheaf
    spends its time on: small-int arithmetic modulo a prime, dict updates
    keyed by tuples, and Fraction arithmetic.  Nothing of qsheaf runs in it,
    so a change to the program never moves it."""
    start = perf_counter()
    terms, x = {}, 1
    for i in range(900):
        x = (x * 31 + i) % 1000003
        key = (i % 17, i % 5)
        terms[key] = terms.get(key, 0) + x
    f = Fraction(1, 3)
    for i in range(45):
        f = f * Fraction(i + 2, i + 1) - Fraction(1, i + 5)
    return perf_counter() - start


class SpeedLog:
    """Calibration slices and timed spans on one clock.  As a context
    manager it runs the timer; `scaled` gives each span's time at the
    reference speed, from the slices within CAL_WINDOW_S of it."""

    def __init__(self):
        self.slices = []  # (mid-point, seconds), in time order
        self.spans = []   # (start, seconds)
        self._handler = None

    def calibrate(self):
        start = perf_counter()
        seconds = calibration_slice()
        self.slices.append((start + seconds / 2, seconds))

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, lambda signum, frame: self.calibrate())
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def span(self, start, seconds):
        self.spans.append((start, seconds))

    def scaled(self):
        mids = [mid for mid, _ in self.slices]
        out = []
        for start, seconds in self.spans:
            end = start + seconds
            lo = bisect.bisect_left(mids, start - CAL_WINDOW_S)
            hi = bisect.bisect_right(mids, end + CAL_WINDOW_S)
            near = [s for _, s in self.slices[lo:hi]]
            inside = sum(s for mid, s in self.slices[lo:hi] if start <= mid <= end)
            out.append(at_reference_speed(seconds, inside, near))
        return out


def at_reference_speed(seconds, inside, slices):
    """`seconds` of wall time, less the `inside` seconds of slices that ran
    within it, at the speed where a slice takes CAL_REF_S."""
    return (seconds - inside) * CAL_REF_S * len(slices) / sum(slices)
