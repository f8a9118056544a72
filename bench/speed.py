"""Machine-speed gauge: scales measured times to one reference speed.

The shared 2-core box this benchmark was defined on changes speed by up to 2x
over tens of seconds, in wall and CPU time alike, so raw times of one run do
not repeat in the next. A fixed kernel, run before and after each timed
interval, measures the speed the interval ran at: its median time at rest on
that box is REFERENCE_S. Each interval is reported as

    wall * REFERENCE_S / mean(kernel time before, kernel time after),

the time it would have taken at reference speed. The kernel mixes the two
kinds of work the workloads do: small-array numpy calls with Python overhead
around them, and 80x80 matrix products. It never touches diffnet, so a change
to diffnet moves the measured interval and not the gauge.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.030
_TRANSITION = np.eye(80) * 0.999 + 1e-4


def kernel_s() -> float:
    """Wall seconds of one run of the fixed reference kernel."""
    a = np.ones((16, 5))
    eye = np.eye(5)
    v = np.ones(16)
    w = np.eye(80)
    started = time.perf_counter()
    for i in range(2000):
        a = (a @ eye) * 1.0000001
        v = np.clip(v - a.sum(axis=1) * 1e-9, -1e3, 1e3)
        if i % 16 == 0:
            w = _TRANSITION @ w @ _TRANSITION.T
    return time.perf_counter() - started


class Gauge:
    """Speed factor of each interval between consecutive `factor` calls."""

    def __init__(self):
        self.last = kernel_s()

    def factor(self) -> float:
        """REFERENCE_S over the mean kernel time around the interval just ended."""
        now = kernel_s()
        mean, self.last = (self.last + now) / 2.0, now
        return REFERENCE_S / mean
