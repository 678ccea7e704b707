"""Machine-speed gauge for normalising timings.

On a shared 2-vCPU host (other tenants on the same cores) pure-Python code
ran up to 2x slower in phases that flip within seconds, and the share of
slow time drifted over minutes.  Between timed calls the benchmark therefore
runs a fixed reference loop a few times, and rescales each call's duration
to the speed at which that loop takes ``REFERENCE_S``:

    normalised = measured * REFERENCE_S / median(loop times near the call)

"Near" means sampled from ``WINDOW_S`` before the call starts to
``WINDOW_S`` after it ends, i.e. the samples taken just before and just
after it; their median discards a single loop hit by a millisecond burst.
Wider windows, up to the whole run, tracked the program worse.

Slow phases slow different code by different factors: a plain arithmetic
loop by up to 2.7x while the program slowed 2x.  Of the kernels tried,
allocating small nested lists and summing over them tracked the program
best, so the loop does that plus truncated-series products.  It never
touches the program, so a change to the program cannot move it.  Raw times
are reported beside the normalised ones.
"""

import statistics
import time

REFERENCE_S = 0.012
LOOPS_PER_SAMPLE = 3
WINDOW_S = 0.1


class _Series:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = tuple(c)

    def __add__(self, other):
        return _Series(x + y for x, y in zip(self.c, other.c))

    def __mul__(self, other):
        a, b = self.c, other.c
        return _Series(sum(a[i] * b[k - i] for i in range(k + 1))
                       for k in range(len(a)))


def reference_loop() -> float:
    """Run the fixed reference loop once; return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(800):  # nested small lists and generator sums over them
        table = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
        acc += sum(table[k][i][j] for k in range(3) for i in range(3) for j in range(3))
    x = _Series((0.5, 1.0, 0.0, 0.0, 0.0, 0.0))
    total = _Series((0.0,) * 6)
    for _ in range(300):  # truncated-series products on small objects
        total = total + x * x
    return time.perf_counter() - start


class SpeedGauge:
    """Reference-loop times with the moment each was taken."""

    def __init__(self):
        self.samples = []

    def sample(self):
        for _ in range(LOOPS_PER_SAMPLE):
            self.samples.append((time.perf_counter(), reference_loop()))

    def normalise(self, start: float, end: float) -> float:
        """Duration of [start, end] at the reference speed."""
        near = [loop for t, loop in self.samples
                if start - WINDOW_S <= t <= end + WINDOW_S]
        return (end - start) * REFERENCE_S / statistics.median(near)
