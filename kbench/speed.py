"""Machine-speed correction for timed regions.

The vCPU of a shared virtual machine changes speed in phases of a fraction
of a second to a few seconds, so two timings of identical work can differ
by a fifth.  ``SpeedMeter.time`` runs the reference kernel before and
after the timed region (``BRACKET_PROBES`` calls each) and, from a
``SIGALRM`` timer, once every ``INTERVAL_S`` inside it.  Every probe gives
a speed sample ``REF_NOMINAL_S / seconds``; each bracket counts as one
sample.  The corrected time is the raw time times the mean speed, which
reads as seconds at the nominal machine speed.  The probes' own time is
left out of the raw time and of ``clock()``.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

from refkernel import REF_NOMINAL_S, reference_kernel

BRACKET_PROBES = 12
INTERVAL_S = 0.04


@dataclass
class Timing:
    raw_s: float          # wall seconds, probes excluded
    ref_before_s: float   # mean probe seconds of the bracket before
    ref_after_s: float    # mean probe seconds of the bracket after
    ref_inside_s: list    # probe seconds sampled inside the region
    factor: float         # mean speed: corrected = raw * factor

    @property
    def corrected_s(self):
        return self.raw_s * self.factor

    @property
    def bracket_factor(self):
        """The factor the two brackets alone would give."""
        return REF_NOMINAL_S / (0.5 * (self.ref_before_s + self.ref_after_s))


class SpeedMeter:
    """Times regions and measures the machine's speed while they run."""

    def __init__(self):
        self._probe_total = 0.0
        self._inside = []

    def clock(self):
        """Wall clock that stands still while a probe runs."""
        return time.perf_counter() - self._probe_total

    def _probe(self):
        t0 = time.perf_counter()
        reference_kernel()
        dt = time.perf_counter() - t0
        self._probe_total += time.perf_counter() - t0
        return dt

    def bracket(self):
        return statistics.fmean(self._probe() for _ in range(BRACKET_PROBES))

    def _on_alarm(self, signum, frame):
        self._inside.append(self._probe())

    def time(self, fn):
        """Run ``fn()``; return its result and the region's :class:`Timing`."""
        before = self.bracket()
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            t0 = self.clock()
            result = fn()
            raw = self.clock() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        inside, self._inside = self._inside, []
        after = self.bracket()
        speeds = [REF_NOMINAL_S / before, REF_NOMINAL_S / after]
        speeds += [REF_NOMINAL_S / d for d in inside]
        return result, Timing(raw, before, after, inside, statistics.fmean(speeds))
