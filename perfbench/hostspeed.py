"""Host speed, measured with a fixed calibration kernel.

On a shared host the same code runs up to 1.7 times slower in spells that
last from milliseconds to minutes, and process CPU time slows with wall
time, so no timer removes it.  The benchmark therefore runs a short,
fixed kernel right after every timed region and reports times at a
reference host speed:

    time at reference speed = measured time / factor,
    factor = mean time of the chunks just before and after / CAL_REF_S.

The chunk before a region is the one run after the region before it.
Slow spells shorter than a pass are corrected this way too: scaling each
pass by the mean of all its chunks left the op tail spreading 1.7 times as
much over five runs.

The kernel does not call ``croft_forge``, so a change to the program moves
the numerator only.  Its mix (scalar Python arithmetic, ufuncs on short
arrays, a small matrix product) is the mix of the workloads' hot loops.
The measured times and factors are kept in each run's details line.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median time of one chunk on the host the bounds were set on (2-core
# Xeon KVM guest, Python 3, OpenBLAS pinned to one thread).
CAL_REF_S = 0.018
CHUNK_ITERS = 6000

_VEC = np.linspace(0.0, 1.0, 32)
_MAT = np.full((16, 16), 1.0 / 16)


def chunk() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t0 = perf_counter()
    acc = 0.0
    v = _VEC
    for i in range(CHUNK_ITERS):
        acc += (i * 0.5) % 7.0 - acc * 1e-3
        v = np.sqrt(v * 0.5 + 0.25)
        if i % 8 == 0:
            v[:16] = _MAT @ v[:16]
        acc += float(v.sum()) * 1e-6
    dt = perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel diverged")
    return dt


def factor(samples: list[float]) -> float:
    """Host slowdown against the reference speed from chunk times."""
    return sum(samples) / (len(samples) * CAL_REF_S)


class Calibrator:
    """Scales region times to the reference speed; keeps every chunk time."""

    def __init__(self):
        self.samples: list[float] = []

    def to_ref(self, dt: float) -> float:
        """Call right after a timed region of ``dt`` seconds."""
        self.samples.append(chunk())
        return dt / factor(self.samples[-2:])
