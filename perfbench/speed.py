"""CPU-speed normalization for a host whose speed drifts during a run.

On the two-vCPU KVM guest this benchmark was built on (Xeon, 2.1 GHz), the
same operation runs up to about 1.7 times slower for seconds at a time
(other load on the host; no steal time shows in the guest); a 15 s run may
spend none or most of its time in that state.  So the loop times a fixed
calibration workload next to the operations (at most CALIBRATE_EVERY_NS of
busy time apart, on the same thread) and multiplies each operation's wall
time by reference time / calibration time, averaged over the calibrations
just before and after it.  Reported times are therefore
milliseconds at the guest's uncontended speed; raw wall times are kept in the
run record.  The scaling only removes the host's speed from the figures: a
faster program still shows as faster.
"""

from __future__ import annotations

import functools
import math
import time

CALIBRATE_EVERY_NS = 20_000_000


@functools.cache
def _kinds():
    """kind: (fixed work, its time in ns at the reference speed).

    In the slow state the interpreter-bound kind slows about 1.7x and the
    vector kind, shaped like oracle.sweep (degree-50 Horner over 4096 complex
    points), about 1.45x; a workload is scaled by the kind its time is spent in.
    """
    import numpy as np
    from numpy.polynomial import polynomial as npoly

    angles = np.arange(1024.0)
    z = 0.9 * np.exp(2j * np.pi * np.arange(4096) / 4096)
    coeffs = (np.arange(51) % 7 - 3.0) / 7 + 0j

    def interpreter():
        acc = 0.0
        for k in range(300):
            acc += math.lgamma(1.0 + 0.01 * k)
        np.abs(np.exp(1j * angles)).sum()

    def vector():
        npoly.polyval(z, coeffs)

    return {"interpreter": (interpreter, 60_000), "vector": (vector, 280_000)}


def calibrate(kind="interpreter", reps=3):
    """Fastest of `reps` timings (ns) of the fixed work of `kind`."""
    work = _kinds()[kind][0]
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        work()
        best = min(best, time.perf_counter_ns() - t0)
    return best


def scale(kind="interpreter"):
    """Factor that converts this moment's wall time to reference time."""
    return _kinds()[kind][1] / calibrate(kind)
