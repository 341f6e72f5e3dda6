"""The reference kernel, timed next to every operation the benchmark times.

The kernel is a fixed piece of interpreted Python and small-array numpy
work, the kind that makes up wharm's inner loops, and it calls nothing in
wharm.  Its time tracks how fast the host runs at that moment.  On a shared
host, other tenants slow every process by up to 2x, for seconds to minutes
at a time, so a raw pass time says as much about the neighbours as about
the program.  An operation's time times ``NOMINAL_S / (the kernel's mean
time around and during it)`` is its time on a host where the kernel takes
``NOMINAL_S``.
"""

import signal
import time

import numpy as np

# The kernel's time on a quiet 2-vCPU Xeon (Sapphire Rapids) KVM guest with
# Python 3.11 and NumPy 2.4, where it took 3.0 ms at best and 4.8 ms at the
# median.  Only ratios matter: the benchmark code, and this value with it,
# is the same on both sides of a comparison.
NOMINAL_S = 0.004

_START = np.arange(2048.0)


def reference_seconds() -> float:
    """Wall seconds of one run of the reference kernel (about 4 ms)."""
    t0 = time.perf_counter()
    counts = {}
    acc = 0
    for i in range(6000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        acc += i * i % 7
    x = _START
    for _ in range(300):
        x = np.sqrt(x * 1.0001 + 1.0)[::-1].copy()
    return time.perf_counter() - t0


# how often the kernel runs during an operation: about 2% of its time
SAMPLE_INTERVAL_S = 0.2


class SpeedSampler:
    """Runs the reference kernel from a SIGALRM interval timer while it is
    started, so that a long operation's speed is sampled all through it and
    not only at its two ends.

    Python runs the handler between bytecodes of the main thread, so a long
    call into native code defers a sample until it returns.  ``wall_s`` and
    ``cpu_s`` are the seconds the samples took, which the caller takes off
    the operation's time.
    """

    def __init__(self):
        self.samples = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _sample(self, signum, frame):
        c0, t0 = time.process_time(), time.perf_counter()
        self.samples.append(reference_seconds())
        self.wall_s += time.perf_counter() - t0
        self.cpu_s += time.process_time() - c0

    def start(self) -> None:
        self.samples, self.wall_s, self.cpu_s = [], 0.0, 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer.  The handler stays: an alarm already raised but not
        yet handled must not meet SIGALRM's default action, which ends the
        process."""
        signal.setitimer(signal.ITIMER_REAL, 0)
