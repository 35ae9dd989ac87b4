"""Machine-speed sampling, so that op times compare across runs.

On the shared 2-vCPU machine this benchmark was built on, identical
work ran anywhere from 1.0x to 2x its fastest time, and the speed
switched within seconds.  A SIGPROF timer runs a fixed slice of
interpreter work, the reference kernel, every SAMPLE_PERIOD_S of CPU
time.  An op's seconds divided by the kernel's mean time around the op
is the op's time in reference units, in which most of that swing
cancels.  The time the kernel spent inside an op is subtracted from
the op.
"""

from __future__ import annotations

import re
import signal
import statistics
import time
from bisect import bisect_left

SAMPLE_PERIOD_S = 0.1
_ATOM = re.compile(r"[^\s:;,={}()#]+")


class _Msg:
    __slots__ = ("src", "dest", "cmd")

    def __init__(self, src: str, dest: str, cmd: str):
        for part in (src, dest, cmd):
            if not _ATOM.fullmatch(part):
                raise ValueError(part)
        self.src, self.dest, self.cmd = src, dest, cmd


def reference_kernel() -> float:
    """Seconds for a fixed slice of work shaped like flowmine's parsing
    and counting: validated small objects, string formatting and
    tuple-keyed dict updates (about 1 ms).  Of the kernels tried, this
    one's speed followed the speed of `mine` most closely."""
    start = time.perf_counter()
    counts: dict = {}
    for i in range(300):
        m = _Msg("cpu%d" % (i & 3), "cache", "rd")
        key = (m.src, m.dest, m.cmd)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the reference kernel from a SIGPROF handler while open.

    The handler adds a few stack frames to whatever it interrupts.
    """

    def __init__(self):
        self._at: list[float] = []  # perf_counter when each sample started
        self._kernel_s: list[float] = []
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # the timer fired during a sample taken by hand
            return
        self._busy = True
        try:
            start = time.perf_counter()
            kernel_s = reference_kernel()
            self._at.append(start)
            self._kernel_s.append(kernel_s)
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(seconds from start to end without the kernel's time inside,
        mean kernel seconds from the last sample before start to the
        first one after end).  Sample just before and after the
        interval so both ends have one."""
        lo = bisect_left(self._at, start)
        hi = bisect_left(self._at, end)
        inside = sum(self._kernel_s[lo:hi])
        return end - start - inside, statistics.fmean(self._kernel_s[max(lo - 1, 0):hi + 1])

    def median_kernel_s(self) -> float:
        return statistics.median(self._kernel_s)
