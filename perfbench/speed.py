"""Op times at a reference speed of the host.

On a shared host a CPU's speed drifts by a third in spells of a few
seconds, and by up to a half from one minute to the next; two CPUs do not
drift together.  So the time of each op is also taken at a reference
speed: its wall time times NOMINAL_S over the median time of a fixed
reference loop, sampled on the same CPU just before, during and just after
the op.  A slow spell stretches the op and the loop alike.
"""

import signal
from statistics import median
from time import perf_counter

# The reference loop's time on an idle 2-CPU Xeon host.
NOMINAL_S = 5e-05
TICK_S = 0.01


def reference_loop():
    d = {}
    for i in range(200):
        d[(i, i & 7)] = (i,)
    total = 0
    for k, v in d.items():
        total += v[0] + k[1]
    return total


def sample():
    """Best of three runs of the reference loop, so that its caches are
    warm even right after the op has evicted them."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - start)
    return best


class Speedometer:
    """Times a region and samples the reference loop around it.

    With ticks, a SIGALRM handler also samples it every TICK_S inside the
    region; the handler's own time is taken out of the region's wall time.
    Without ticks, for a region that waits on another process of the same
    CPU, it samples three times before and three times after.
    """

    def __init__(self, ticks=True):
        self.ticks = ticks
        self.samples = []
        self.overhead = 0.0
        self.wall_s = None

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(sample())
        self.overhead += perf_counter() - start

    def __enter__(self):
        self.samples += [sample() for _ in range(1 if self.ticks else 3)]
        if self.ticks:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = perf_counter() - self.start - self.overhead
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.samples += [sample() for _ in range(1 if self.ticks else 3)]
        return False

    def times(self):
        """wall_s, ref_s (median loop time) and s (at the reference speed)."""
        ref_s = median(self.samples)
        return {"wall_s": self.wall_s, "ref_s": ref_s,
                "s": self.wall_s * NOMINAL_S / ref_s}
