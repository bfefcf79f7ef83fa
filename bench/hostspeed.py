"""Host-speed calibration.

The shared host this benchmark runs on changes speed by up to half
within seconds, in wall time and CPU time alike.  Each measured process
therefore runs a fixed calibration loop, interpreter arithmetic and
then uint64 array passes over more memory than a core's caches hold,
before its first command and after each one; the parent runs it just
before starting the process.  At the start and at the end of each
process it runs ``ENDS`` times, so that even a process with a single
command has several samples: one 45 ms sample catches a passing state
of the host that a command of seconds averages out.  Every
time measured in that process is reported scaled to the speed at which
the loop takes ``CAL_REF_S``:

    scaled = measured * CAL_REF_S / median(calibration times of the process)

The loop touches no ``unirep`` code, so a change to the program moves
the scaled time in the same proportion as the raw time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Time of one calibration loop on the reference host (2-core sandbox,
#: Python 3.11.7, numpy 2.4.6): its median while the benchmark was tuned.
#: The README gives its median over the recorded runs.
CAL_REF_S = 0.045
ENDS = 3

_MUL = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(29)
_WORDS = 1 << 19  # 4 MiB per array: larger than a core's caches


def calibrate() -> float:
    """Seconds taken by the fixed calibration loop, right now."""
    a = np.arange(_WORDS, dtype=np.uint64)
    tmp = np.empty_like(a)
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    for _ in range(24):
        np.multiply(a, _MUL, out=a)
        np.right_shift(a, _SHIFT, out=tmp)
        np.bitwise_xor(a, tmp, out=a)
    return time.perf_counter() - t0


def calibrations(count: int = 1) -> list:
    return [calibrate() for _ in range(count)]


def scale(cals: list) -> float:
    """Factor that turns times measured alongside ``cals`` into
    reference-host seconds."""
    return CAL_REF_S / statistics.median(cals)
