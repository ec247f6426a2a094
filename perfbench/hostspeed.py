"""The host's speed, sampled on the program's own thread and CPU.

The benchmark runs on a few cores of a shared host, and the speed of a
core drifts by a quarter and more, second to second and minute to
minute, with load from outside the process: CPU time tracks wall time,
so the program is not descheduled, it runs slower.  Two cores drift
apart (samples on one correlate 0.1 with samples on the other), so the
speed must be sampled where the program runs.

:class:`HostSpeed` times a fixed piece of interpreter work from a
``SIGALRM`` handler every :data:`PERIOD_S`, that is in the main thread,
between the program's own bytecodes.  A timed stretch of the program is
then reported as its wall time minus the time spent sampling, together
with the mean sample time over the stretch; run.py scales the one by
:data:`REF_S` over the other to give seconds on the reference host.
On a 2-vCPU Xeon VM, repeating one input in one process, the scaled
times of 62 paper-sweep units spread 5.7% (quartiles over median)
against 29% unscaled, and three 17-19 s large-dag units lay within
1.6% of each other against 18% unscaled.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: loop iterations of one sample of the fixed work
ITERS = 8000
#: the sample time that defines the reference host (about a 2-vCPU Xeon
#: VM with nothing else running)
REF_S = 0.0012
#: seconds between samples; one sample costs about 2.5% of the wall time
PERIOD_S = 0.05
#: samples taken back to back before a stretch, so that every stretch,
#: however short, has some
LEAD = 3

_SLOTS = dict.fromkeys(range(64), 0.0)


def work(iters: int = ITERS) -> None:
    """Fixed interpreter work of the simulator's kind: dict reads and
    writes, float arithmetic, a loop.  It imports nothing from the
    program, so no change to the program changes its time, and it makes
    no object the cyclic GC tracks, so it never starts a collection of
    the program's garbage."""
    slots = _SLOTS
    x = 0.5
    for i in range(iters):
        k = i & 63
        slots[k] += x
        x = (x * 1.000001 + 0.3) % 7.0


def spin(seconds: float) -> None:
    """The fixed work that takes *seconds* on the reference host: a
    slowdown that, like a slower program, costs work rather than wall
    time."""
    work(round(seconds * ITERS / REF_S))


class HostSpeed:
    """Samples of :func:`work`'s wall time, taken every PERIOD_S."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, *_signal) -> None:
        t = time.perf_counter()
        work()
        self.samples.append(time.perf_counter() - t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def lead(self) -> int:
        """Take LEAD samples now; return the mark before them."""
        mark = self.mark()
        for _ in range(LEAD):
            self.sample()
        return mark

    def busy_since(self, mark: int) -> float:
        """Seconds spent sampling since *mark*."""
        return sum(self.samples[mark:])

    def mean_since(self, mark: int) -> float:
        """Mean sample time since *mark*."""
        return statistics.fmean(self.samples[mark:])
