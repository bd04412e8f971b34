"""Machine-speed calibration for a shared, drifting CPU.

On a virtual machine whose cores are shared with other tenants, the same
computation can take 25% longer from one minute to the next, and CPU time
drifts with wall time. A fixed kernel is timed between jobs: a Python float
loop plus one stacked eigvalsh over 200 small Hermitian matrices, the
interpreter-bound and LAPACK-bound halves of spectral_kit's work. Across two
ten-seed sweeps it gave steadier figures than the eigvalsh stack alone,
which over-corrected the interpreter-bound jobs when the machine sped up.
Each job's latency is scaled by the ratio of the reference kernel time to
the kernel times measured around that job. The kernel uses no library code,
so a change to spectral_kit cannot move it.
"""

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 1.25e-3  # kernel time that defines the reported time scale
INTERVAL_S = 0.1       # at most one burst per this much wall time
BURST = 3              # kernel runs per burst


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((200, 6, 6))
        self.h = h + h.swapaxes(1, 2)
        self.times = []    # wall clock of each sample, increasing
        self.kernel = []   # kernel seconds of each sample
        self.last = -np.inf

    def _kernel(self):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(10000):
            acc += i * 0.5
        np.linalg.eigvalsh(self.h)
        return time.perf_counter() - t0

    def sample(self):
        for _ in range(BURST):
            k = self._kernel()
            self.times.append(time.perf_counter())
            self.kernel.append(k)
        self.last = time.perf_counter()

    def maybe_sample(self):
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def factor(self, start, end):
        """REFERENCE_S / median of the bursts just before `start` and just after `end`.

        The drift has sub-second components, so only the nearest bursts
        describe the speed a job ran at.
        """
        lo = bisect.bisect_right(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        near = self.kernel[max(0, lo - BURST):lo] + self.kernel[hi:hi + BURST]
        return REFERENCE_S / statistics.median(near or self.kernel)

    def scale(self, start, seconds):
        return seconds * self.factor(start, start + seconds)
