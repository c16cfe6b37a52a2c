"""Host speed: a fixed reference kernel timed every 0.2 s between the program's steps.

On a host that shares its cores with other machines, the speed of a run
drifts: on the 2-vCPU KVM Xeon this benchmark was written on, it switches
within a second between states up to 1.8 times apart, for interpreted
Python, numpy array arithmetic and sparse factorisation, though not always
by the same factor.  While a run measures, an interval timer interrupts it
every `PROBE_EVERY` seconds and the signal handler times a fixed kernel of
all three (a probe).  Python runs the handler between bytecodes, so a probe
can fall inside a call into the program: its time is taken out of the call,
which is split there into segments.  Each segment is scaled by

    REF_S / (median kernel time of the NEIGHBOURS probes on each side of it)

which gives the time it would have taken on a host where the kernel takes
`REF_S`.  The kernel is the benchmark's own code; no change to the program
makes it faster or slower.  Probing costs about 5% of a run's time, and the
kernel evicts some of the program's data from the caches each time.
"""
from __future__ import annotations

import bisect
import math
import signal
from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

REF_S = 0.010          # nominal kernel time; scaled times are seconds at this speed
PROBE_EVERY = 0.2      # seconds between timer probes
NEIGHBOURS = 2         # probes on each side of a segment that its scale is taken from


class HostSpeed:
    """Kernel probes over a run, and the scale factor they give at any time."""

    def __init__(self):
        n = 40
        e = np.ones(n)
        t = sp.diags([-e[:-1], 2.0 * e, -e[:-1]], [-1, 0, 1])
        i = sp.identity(n)
        self._lap = (sp.kron(t, i) + sp.kron(i, t)).tocsc()
        self._rhs = np.ones(n * n)
        self._x = np.linspace(0.0, 1.0, 200_000)
        self._kernel()                          # lazy imports and first-call costs
        self.start: list[float] = []            # start of each probe
        self.end: list[float] = []              # end of each probe
        self._busy = False
        self._previous_handler = None

    def _kernel(self) -> float:
        s = 0.0
        for i in range(30_000):
            s += math.sqrt(0.5 * i + 1.0)
        for _ in range(5):
            s += float(np.sqrt(self._x * self._x + 1.0).sum())
        return s + float(splu(self._lap).solve(self._rhs)[0])

    def probe(self, times: int = 1) -> None:
        if self._busy:                          # a signal arrived during a probe
            return
        self._busy = True
        try:
            for _ in range(times):
                t0 = perf_counter()
                self._kernel()
                self.start.append(t0)
                self.end.append(perf_counter())
        finally:
            self._busy = False

    def __enter__(self):
        """Probe every PROBE_EVERY seconds until the block ends."""
        self._previous_handler = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        return False

    def since(self) -> int:
        """A mark for `segments`: the number of probes so far."""
        return len(self.start)

    def segments(self, t0: float, t1: float, mark: int) -> list[tuple[float, float]]:
        """The interval [t0, t1] as (midpoint, seconds) segments, minus the probes in it.

        `mark` is `since()` taken before t0; a probe that overlaps the
        interval is taken out of it.
        """
        out = []
        at = t0
        for s, e in zip(self.start[mark:], self.end[mark:]):
            if e <= at or s >= t1:
                continue
            if s > at:
                out.append((0.5 * (at + s), s - at))
            at = max(at, e)
        if t1 > at:
            out.append((0.5 * (at + t1), t1 - at))
        return out

    def scale(self, at: float) -> float:
        """The factor that turns seconds measured at time `at` into seconds at `REF_S` speed."""
        j = bisect.bisect(self.end, at)
        took = [e - s for s, e in zip(self.start[max(j - NEIGHBOURS, 0):j + NEIGHBOURS],
                                      self.end[max(j - NEIGHBOURS, 0):j + NEIGHBOURS])]
        return REF_S / float(np.median(took))

    def scaled(self, segments: list[tuple[float, float]]) -> float:
        """Sum of (midpoint, seconds) segments, each scaled at its midpoint."""
        return sum(dt * self.scale(mid) for mid, dt in segments)

    def summary(self) -> dict:
        took = [e - s for s, e in zip(self.start, self.end)]
        return {"probes": len(took), "kernel_s.p50": float(np.median(took)),
                "kernel_s.min": min(took), "kernel_s.max": max(took)}
