"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one CPU drifts by up to about 1.6x over
tens of seconds, as other tenants come and go, and a fixed pure-Python loop
slows by the same factor as qhoare.  So the benchmark times a short
calibration loop next to every timed operation and reports seconds at a
reference speed: the measured wall time times ``REFERENCE_S`` over the
loop's time around the operation.  On a machine where the loop takes
``REFERENCE_S`` the figures are plain wall seconds.

Run as a script, this is the set-up probe: it prints the wall time to
import ``qhoare.cli`` (and so numpy) in a fresh process.  That time is
reported as measured: much of it is loading shared libraries and starting
OpenBLAS threads, which the loop does not track.
"""

from __future__ import annotations

import time

LOOPS = 100_000
REFERENCE_S = 0.0065

clock = time.perf_counter


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    t0 = clock()
    s = 0
    for i in range(LOOPS):
        s += i * i
    return clock() - t0


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for an interval
    between two calibrations."""
    return 2 * REFERENCE_S / (before + after)


if __name__ == "__main__":
    t0 = clock()
    import qhoare.cli  # noqa: F401
    print(repr(clock() - t0))
