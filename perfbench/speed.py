"""Machine-speed sampling: timings that survive a shared host's contention.

On a shared virtual machine the speed of a vCPU drifts by up to 1.5-2x
over seconds to minutes, whenever another tenant loads the physical
core; the drift is visible inside the guest only as slower code (there
is no steal time and no hardware counter to read).  Raw wall times of
one pass then vary by +-20% between runs of identical work.

`SpeedSampler` measures that drift while the measured code runs: a
SIGALRM interval timer fires every `INTERVAL_S` of wall time, and the
handler times `probe()`, a fixed 32x24x3 FFT round trip that imports
nothing from axisym, so only the machine can change its duration.  The
mean of `PROBE_NOMINAL_S / duration` over the samples is the machine's
speed during the measurement relative to the reference machine (a
2-core Xeon VM with no contention, where the probe takes 150 us), and

    scaled seconds = wall seconds * speed

is the time the same work takes on the reference machine.  The handler
costs about 0.5% of the measured time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.03
PROBE_NOMINAL_S = 150e-6

_A = np.linspace(0.0, 1.0, 32 * 24 * 3).reshape(32, 24, 3)


def probe():
    """Duration of one fixed FFT round trip, in seconds."""
    start = time.perf_counter()
    for _ in range(3):
        np.sum(np.fft.irfft(np.fft.rfft(_A, axis=0), n=32, axis=0) * _A, axis=-1)
    return time.perf_counter() - start


class SpeedSampler:
    """Context manager sampling the machine's speed while its body runs.

    One probe runs on entry and one on exit, outside the body, so even a
    body shorter than the timer interval gets a speed estimate.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        probe()                 # first call in a process sets up the FFT plan
        self.samples.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())
        return False

    def speed(self):
        """Mean speed relative to the reference machine over the samples."""
        return statistics.fmean(PROBE_NOMINAL_S / p for p in self.samples)
