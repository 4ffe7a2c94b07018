"""The host-speed clock: times ops and scales them to a reference speed.

On a shared host the speed a single thread gets moves by up to 2x over
minutes, as neighbours come and go, and CPU time moves with wall time.
A benchmark run then reports the neighbours, not the program.  The
clock corrects for it: at op boundaries (at most every
:data:`INTERVAL_S` seconds) it times :func:`probe_seconds`, a fixed
piece of pure-Python work of the same kind as the program's (tuple
hashing, dict and set updates, a sort), with the collector off.  The
time spent probing is left out of :meth:`SpeedClock.now`.

:meth:`SpeedClock.scaled` turns an interval of that clock into seconds
at the reference speed: each stretch between two probes counts at the
rate ``REFERENCE_S / (mean of the two probes)``, where a probe's value
is the mean of it and its :data:`SMOOTH` neighbours on either side (one
probe of a few milliseconds reads the host's speed at that instant
only; ops last longer).  On the host where
:data:`REFERENCE_S` was measured, unloaded, scaled and wall seconds
agree; when the host slows down by a factor, op and probe times both
grow by it and the scaled time does not.  The scaling never depends on
the program: the probe shares no code or data with it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

#: Seconds :func:`probe_seconds` takes on the reference host (a 2-vCPU
#: x86-64 VM, Python 3.11, unloaded).
REFERENCE_S = 0.022
#: Least clock time between two probes.
INTERVAL_S = 0.5
#: Neighbours on either side a probe's value is averaged with.
SMOOTH = 4


def probe_seconds() -> float:
    """Time a fixed piece of pure-Python work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict = {}
        names = set()
        for i in range(50_000):
            key = (i % 977, i & 7)
            counts[key] = counts.get(key, 0) + 1
            names.add(str(i % 1500))
        sorted(counts.items(), reverse=True)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedClock:
    """A monotonic clock that probes the host's speed at op boundaries."""

    def __init__(self) -> None:
        self._paused = 0.0
        #: ``(clock time, probe seconds)``, in clock-time order.
        self.probes: list[tuple[float, float]] = []

    def now(self) -> float:
        """``time.perf_counter()`` without the time spent probing."""
        return time.perf_counter() - self._paused

    def probe(self, force: bool = False) -> None:
        """Probe the host speed, if forced or :data:`INTERVAL_S` has passed."""
        if not force and self.probes and (
                self.now() - self.probes[-1][0] < INTERVAL_S):
            return
        start = time.perf_counter()
        seconds = probe_seconds()
        self._paused += time.perf_counter() - start
        self.probes.append((self.now(), seconds))

    def scaled(self, start: float, end: float) -> float:
        """Seconds at the reference speed that ``[start, end]`` took.

        Needs a probe at or before ``start`` and one at or after ``end``.
        """
        times = [t for t, _ in self.probes]
        if not self.probes or start < times[0] or end > times[-1]:
            raise ValueError("interval not bracketed by probes")
        values = [s for _, s in self.probes]
        smooth = [
            statistics.fmean(values[max(i - SMOOTH, 0):i + SMOOTH + 1])
            for i in range(len(values))
        ]
        total = 0.0
        i = max(bisect.bisect_right(times, start) - 1, 0)
        while start < end:
            stop = min(end, times[i + 1])
            if stop > start:
                rate = REFERENCE_S / ((smooth[i] + smooth[i + 1]) / 2)
                total += (stop - start) * rate
            start = max(start, stop)
            i += 1
        return total


class WallClock:
    """:class:`SpeedClock`'s interface on plain wall time (no probes)."""

    now = staticmethod(time.perf_counter)

    def probe(self, force: bool = False) -> None:
        pass
