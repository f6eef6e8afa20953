"""Speed of the shared machine, read from a fixed reference loop.

On a shared host the same row can take 1.7 times longer from one
minute to the next, because other tenants load the cores.  A run samples
the time of a fixed pure-Python loop about twice a second, between rows,
and scales each row's wall time by NOMINAL_S over the loop's median
time in the few seconds around that row.  The loop calls nothing from
the package, so a change to the package cannot move it; it does the
same kind of work the package does (dict union-find over plugs,
tuples, sorting), so contention slows both alike.  On a quiet machine
the factor is close to 1 and scaled times equal wall-clock times.
"""

import statistics
from bisect import bisect_left
from time import perf_counter

# About the loop's time on a quiet core of the machine the benchmark was
# written on (x86-64, Python 3.11).  It only fixes the scale: every run
# divides by the same constant.
NOMINAL_S = 0.0015
REPEATS = 5
EVERY_S = 0.5
# A row's factor is the median over the samples this close to it: the
# host's slow swings last minutes, its jitter only milliseconds.
WINDOW_S = 2.0

# A fixed 8-crossing gluing of plugs 0..31 (plug 4c+s is slot s of
# crossing c), as the package stores diagrams.
_ARCS = ((0, 9), (1, 30), (2, 13), (3, 24), (4, 19), (5, 14), (6, 27),
         (7, 20), (8, 31), (10, 23), (11, 16), (12, 29), (15, 22),
         (17, 26), (18, 25), (21, 28))


def _loop():
    """State circles of 48 smoothings of _ARCS, by dict union-find.

    The same kind of work as the package's bracket and homology code:
    dict lookups, small tuples, sorting.
    """
    adj = dict(_ARCS)
    adj.update((b, a) for a, b in _ARCS)
    total = 0
    for mask in range(48):
        parent = {}

        def find(p):
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        def union(a, b):
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for a, b in adj.items():
            union(a, b)
        for c in range(8):
            if mask >> c & 1:
                union(4 * c, 4 * c + 3)
                union(4 * c + 1, 4 * c + 2)
            else:
                union(4 * c, 4 * c + 1)
                union(4 * c + 2, 4 * c + 3)
        groups = {}
        for p in parent:
            groups.setdefault(find(p), []).append(p)
        total += len(sorted(tuple(sorted(g)) for g in groups.values()))
    return total


class SpeedTrack:
    """Samples of the reference loop's time, and the factors they give."""

    def __init__(self):
        self.times = []    # when each sample ended
        self.seconds = []  # median loop time of each sample

    def sample(self):
        runs = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            _loop()
            runs.append(perf_counter() - t0)
        self.times.append(perf_counter())
        self.seconds.append(statistics.median(runs))

    def maybe_sample(self):
        """Sample when the last sample is older than EVERY_S."""
        if not self.times or perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def factor(self, t0, t1):
        """NOMINAL_S over the median loop time around [t0, t1].

        The median runs over the samples from WINDOW_S before t0 to
        WINDOW_S after t1, and always includes the last sample before t0
        and the first one after t1; call sample() after the last
        interval so that one exists.
        """
        lo = min(bisect_left(self.times, t0 - WINDOW_S),
                 bisect_left(self.times, t0) - 1)
        hi = max(bisect_left(self.times, t1 + WINDOW_S),
                 bisect_left(self.times, t1) + 1)
        return NOMINAL_S / statistics.median(self.seconds[max(lo, 0):hi])
