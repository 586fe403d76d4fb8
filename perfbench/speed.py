"""The host's speed during a timed run, sampled from inside the run.

The host this benchmark was built on shares its cores: each vCPU swings
between about 1x and 1.5x of its idle speed within a second, weakly
correlated with the other vCPU, and its average over a minute drifts by
up to 2x.  A probe before and after a run sees two instants of that; a
probe on the other vCPU sees another core.  :class:`SpeedSampler` instead
interrupts the run every :data:`PERIOD_S` (``SIGALRM``) and times a small
fixed kernel on the same vCPU, at the same moments as the run: the median
kernel time, against ``run.SPEED_REF_S``, is how much slower than idle
the run's CPU was.

The kernel mixes in-cache NumPy arithmetic, random reads from a 32 MiB
array and an interpreter loop.  Measured against the city and the online
scheduler, each part alone tracked one of them and missed the other (the
in-cache part under-corrected the city's slow runs, the random reads the
scheduler's); of the mixes tried, this one tracked both best.

Time the handler spends counts in no measured time: :func:`clock` is
``time.perf_counter`` stopped while the kernel runs, and workloads time
their calls with it.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

#: Seconds between two kernel samples.
PERIOD_S = 0.1
#: Fewest samples a call's speed is the median of: a call shorter than
#: this many periods takes the samples nearest to it.
CALL_SAMPLES = 5

_spent_s = 0.0


def clock() -> float:
    """``time.perf_counter()`` less the time spent in sampler kernels."""
    return time.perf_counter() - _spent_s


def rss_mb() -> float:
    """Resident set of this process now, in MiB (``VmRSS``)."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS for this process")


class SpeedSampler:
    """Samples :meth:`kernel` every :data:`PERIOD_S` while entered.

    :ivar samples_s: every kernel time, in order.
    :ivar at_s: :func:`clock` when each kernel started.
    :ivar buffer_mb: resident memory the sampler's arrays hold, for
        taking them out of the process's peak.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        before = rss_mb()
        rng = np.random.default_rng(0)
        self._base = np.arange(4096.0)
        self._small = np.empty_like(self._base)
        self._big = rng.random(1 << 22)
        self._index = rng.integers(0, self._big.size, 8192)
        self._gathered = np.empty(self._index.size)
        self._table: Dict[int, int] = {}
        self.buffer_mb = rss_mb() - before
        self.period_s = period_s
        self.samples_s: List[float] = []
        self.at_s: List[float] = []
        self._previous: Any = None

    def kernel(self) -> float:
        """Seconds one fixed round of in-cache NumPy arithmetic, random
        reads and interpreter work takes."""
        start = time.perf_counter()
        small = self._small
        small[:] = self._base
        for _ in range(6):
            np.multiply(small, 1.0001, out=small)
            np.add(small, 1.0, out=small)
            np.sqrt(small, out=small)
            small.sort()
        for _ in range(2):
            np.take(self._big, self._index, out=self._gathered)
        total = 0
        table = self._table
        for i in range(3000):
            total += (i * i) % 7
            table[i & 255] = total
        return time.perf_counter() - start

    def _sample(self, signum: int, frame: Optional[Any]) -> None:
        global _spent_s
        start = time.perf_counter()
        self.at_s.append(start - _spent_s)
        self.samples_s.append(self.kernel())
        _spent_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        for _ in range(3):
            self.kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def median_s(self) -> float:
        """Median kernel time over the run (a fresh kernel if none ran)."""
        return statistics.median(self.samples_s or [self.kernel()])

    def call_medians_s(
        self, starts: Sequence[float], durations: Sequence[float]
    ) -> List[float]:
        """Median kernel time around each call, given its :func:`clock`
        start and duration: the samples inside the call, or the
        :data:`CALL_SAMPLES` nearest to it if fewer fall inside.

        The speed flips between fast and slow within a second, so a run's
        median speed would leave calls bimodal; the speed around each call
        does not.
        """
        if not self.samples_s:
            return [self.median_s()] * len(durations)
        medians = []
        for start, duration in zip(starts, durations):
            inside = [
                sample for at, sample in zip(self.at_s, self.samples_s)
                if start <= at <= start + duration
            ]
            if len(inside) < CALL_SAMPLES:
                middle = start + duration / 2
                nearest = sorted(
                    range(len(self.at_s)), key=lambda i: abs(self.at_s[i] - middle)
                )[:CALL_SAMPLES]
                inside = [self.samples_s[i] for i in nearest]
            medians.append(statistics.median(inside))
        return medians
