"""Wall time scaled to a fixed machine speed.

On a shared machine other tenants slow the CPU by up to about 2x, in phases
that last from under a second to minutes, so raw wall times of the same work
drift by 20-35 % from one run to the next.  A fixed calibration kernel, timed
just before and just after each measured piece of work, tracks that speed:
a sample is ``wall * REFERENCE_S / calibration``, which is the wall time the
work would have taken while the kernel ran at its reference speed.  The
kernel mixes what the workloads do: small-array numpy dispatch in a Python
loop, a conv-sized GEMM, a strided copy and plain interpreter work.  It
does not depend on pgl, so a change to pgl cannot move it.
"""

import time

import numpy as np

# About the median kernel time on a quiet 2-CPU Xeon VM (2.1 GHz, OpenBLAS,
# one thread).  It only sets the scale: scaled samples read as seconds on
# that machine.
REFERENCE_S = 0.0110

_SMALL = (np.arange(64 * 64, dtype=np.float32).reshape(64, 64) % 7 - 3) / 8
_COLS = (np.arange(8192 * 144, dtype=np.float32).reshape(8192, 144) % 5 - 2) / 4
_W = (np.arange(144 * 16, dtype=np.float32).reshape(144, 16) % 3 - 1) / 4


def kernel():
    for _ in range(300):
        np.maximum(_SMALL @ _SMALL + _SMALL, 0)
    for _ in range(4):
        _COLS @ _W
    for _ in range(2):
        _COLS.T.copy()
    for _ in range(3):
        sum([i * i for i in range(20000)])


def calibration() -> float:
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scaled(fn):
    """Run ``fn`` between two calibrations; return (its result, the factor
    REFERENCE_S / mean calibration that scales a wall time measured inside)."""
    before = calibration()
    out = fn()
    return out, REFERENCE_S / ((before + calibration()) / 2)
