"""Host speed, measured with a fixed reference loop between ops.

The shared hosts this benchmark runs on drift in speed by up to 1.7x, in
spells that last from seconds to minutes and move every process on the
host alike.  A run that falls in a slow spell would read as a slower
program.  So the benchmark times short slices of a fixed reference loop
between its ops (a few per cent of the window), and scales each host-time
figure to a *reference host*: one on which a slice takes
``REFERENCE_SLICE_S`` seconds.  A figure in reference seconds moves when
the program's cost moves and stays put when the host's speed does.  The
loop touches nothing of the program, so a change to the program cannot
change the loop's cost; the raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import random
from time import perf_counter

import numpy as np

#: seconds one slice takes on the reference host (the median inside the
#: timed windows of a 2-core Xeon VM).  Fixed once: changing it rescales
#: every host-time figure of the benchmark.
REFERENCE_SLICE_S = 1.3e-3

#: host seconds between slices inside a timed window
INTERVAL = 0.05

_TABLE = [random.Random(7).getrandbits(64) for _ in range(256)]
_A = np.arange(64, dtype=np.uint64)
_B = _A * np.uint64(0x9E3779B1)
_ONE = np.uint64(1)


def reference_loop():
    """One slice of fixed work, in about equal parts the two kinds the
    program's hot paths do: interpreter work (integer arithmetic, list
    indexing) and numpy ufuncs on 64-lane ``uint64`` vectors."""
    acc = 0
    table = _TABLE
    for i in range(2500):
        acc = ((acc ^ table[(acc + i) & 255]) * 0x9E3779B1) & 0xFFFFFFFFFFFFFFFF
    x = _A
    for _ in range(270):
        x = ((x ^ _B) + _A) >> _ONE
    return acc, x


class HostSpeed:
    """Accumulates timed slices of the reference loop.

    ``relative()`` is the host's speed over all slices so far as a
    multiple of the reference host's: a host-time figure ``t`` measured
    here would read ``t * relative()`` on the reference host.
    """

    def __init__(self):
        self.spent = 0.0
        self.slices = 0
        self._last = perf_counter()

    def slice(self) -> float:
        """Run one slice; returns the host seconds it took."""
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.spent += t1 - t0
        self.slices += 1
        self._last = t1
        return t1 - t0

    def tick(self) -> float:
        """Call between ops: runs a slice when ``INTERVAL`` has passed
        since the last one; returns the host seconds spent (often 0)."""
        if perf_counter() - self._last >= INTERVAL:
            return self.slice()
        return 0.0

    def calibrate(self, seconds: float) -> None:
        """Run slices for about ``seconds``."""
        spent = 0.0
        while spent < seconds:
            spent += self.slice()

    def relative(self) -> float:
        if not self.slices:
            return 1.0
        return self.slices * REFERENCE_SLICE_S / self.spent
