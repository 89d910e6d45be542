"""A fixed reference load that measures how fast the host runs right now.

Shared hosts slow down and speed up by a third or more over minutes, in CPU
time as much as in wall time, so two runs of identical code can differ more
than any bound worth setting.  The benchmark times this load just before and
just after every sample and divides the sample by the mean of the two.  The
load is a small adaptive accelerated-gradient loop written out here, with
the instruction mix of the package's ops (float math, bisection through
small Python functions, 2-vectors in numpy, list appends), because a plain
integer loop slows less than the ops do when the host is busy.  It imports
nothing from the package, so no change to the package moves it.
"""

from __future__ import annotations

import math
import time

import numpy as np

ITERATIONS = 400
# Time of one load on a quiet 2-vCPU Xeon host.  Host-adjusted times are
# expressed as seconds on a host that runs the load in exactly this long.
NOMINAL_S = 0.010


def _ell(s: float) -> float:
    return 3.3 + s


def _psi(x: float) -> float:
    return x * x / (2.0 * _ell(4.0 * x))


def _psi_inverse(t: float) -> float:
    lo, hi = 0.0, 1.0
    while _psi(hi) < t:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _psi(mid) < t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _grad(p: np.ndarray) -> np.ndarray:
    x, y = p
    return np.array([math.exp(x) - math.exp(1.0 - x), 1e-3 * y])


def load() -> list:
    y = np.array([-6.0, -5.0])
    u = y.copy()
    g = _grad(y)
    gamma_cap = 100.0
    rows = []
    for k in range(ITERATIONS):
        step = 1.0 / _ell(4.0 * _psi_inverse(gamma_cap * 1e4))
        alpha = math.sqrt(step * gamma_cap)
        y = (y + alpha * u - step * g) / (1.0 + alpha)
        g = _grad(y)
        u = u - (alpha / gamma_cap) * g
        gamma_cap /= 1.0 + alpha
        rows.append((k, float(np.linalg.norm(g)), gamma_cap, repr(step)))
    return rows


def seconds() -> float:
    """Wall time of one reference load."""
    t0 = time.perf_counter()
    load()
    return time.perf_counter() - t0


class HostClock:
    """Host-adjusts consecutive samples.

    The load runs once before the first sample and once after each sample; a
    sample is divided by the mean of the loads on either side of it and
    multiplied by NOMINAL_S.
    """

    def __init__(self):
        self.loads = [seconds()]

    def adjust(self, wall: float) -> float:
        self.loads.append(seconds())
        return wall * NOMINAL_S / (0.5 * (self.loads[-2] + self.loads[-1]))
