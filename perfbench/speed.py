"""Machine-speed calibration for the benchmark's times.

On a shared host the same pure-Python work runs up to about 2x slower
for seconds to minutes at a time, as other tenants come and go.  Over
150 s on a 2-vCPU VM, the mean time of a fixed set of catalog roots,
taken over 15 s windows, had a quartile spread of 0.31 of its median;
the same time divided by a reference loop timed alongside had 0.036.

So every end-to-end time is reported at reference speed: a time ``t``
measured between two timings of the reference loop that took ``r0`` and
``r1`` is reported as ``t * REFERENCE_S / ((r0 + r1) / 2)``.  The loop
is the benchmark's own code, exact rational elimination like the
program's, and no change to quiverforge can change its cost.  Raw times
are printed beside the scaled ones.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction
from typing import List

# Nominal time of reference_loop(); scaled times are times on a machine
# that runs the loop in exactly this long.
REFERENCE_S = 0.008
# Retime the loop at most this often, much faster than the speed drifts.
INTERVAL_S = 0.1


def reference_loop() -> None:
    """Gauss-Jordan elimination of a fixed 14x14 rational matrix."""
    rng = random.Random(0)
    n = 14
    m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def time_reference(clock=time.perf_counter) -> float:
    t0 = clock()
    reference_loop()
    return clock() - t0


class SpeedProbe:
    """Scales the op times of one pass to reference speed.

    The reference loop is timed at the start and end of the pass, and
    between ops whenever INTERVAL_S has passed since the last timing.
    The ops between two timings r0 and r1 are scaled by
    REFERENCE_S / ((r0 + r1) / 2), which follows a drifting speed more
    closely than the earlier timing alone.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: List[float] = []
        self._raw: List[float] = []
        self._scaled: List[float] = []
        self._at = 0.0

    def _time(self) -> None:
        self.samples.append(time_reference(self.clock))
        self._at = self.clock()

    def _close_segment(self) -> None:
        r0 = self.samples[-1]
        self._time()
        factor = 2 * REFERENCE_S / (r0 + self.samples[-1])
        self._scaled.extend(t * factor for t in self._raw[len(self._scaled):])

    def start(self) -> None:
        self._raw, self._scaled = [], []
        self._time()

    def before_op(self) -> None:
        if self.clock() - self._at >= INTERVAL_S:
            self._close_segment()

    def record(self, seconds: float) -> None:
        self._raw.append(seconds)

    def finish(self) -> List[float]:
        """The recorded op times since start(), at reference speed."""
        self._close_segment()
        return self._scaled

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3
