"""Machine-speed reference that the benchmark's times are normalized by.

On a shared machine the speed of one core changes with other tenants' load.
On the 2-core VM where this benchmark was written, the same call ran 1.5x
to 1.6x slower for stretches of 5 to 50 seconds.  CPU time slowed as much
as wall time, so the cause was contention for the core, not preemption.
Stretches that long cover whole runs, so averaging within a run cannot
remove them.

So before every timed item the worker times a fixed reference task that
does not touch luorbit.  A time ``t`` measured where the reference took
``r`` seconds is reported as ``t * nominal / r``.  Here ``r`` is the median
of the ``WINDOW`` reference samples nearest the item, and ``nominal`` is
what the reference took on that VM when it was not contended.  Reported
times are therefore in seconds at that reference speed.  The reference
mimics each workload's mix: Fraction arithmetic for the Python-bound work,
plus a small SVD for the BLAS-bound work.  ``exact_cli`` runs no BLAS, so
its reference is the Fraction part alone.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

#: Uncontended time of each reference part on the calibration machine
#: (2-core Intel Xeon VM at 2.1 GHz, Python 3.11, OpenBLAS 0.3.31, one thread).
NOMINAL_S = {"fraction": 1.40e-3, "svd": 0.80e-3}

#: Reference parts per workload; workloads not listed use both.
PARTS = {"exact_cli": ("fraction",)}

#: Reference samples pooled (by median) for the speed at one item.
WINDOW = 9


class Reference:
    """The reference task of one workload."""

    def __init__(self, workload: str):
        self.parts = PARTS.get(workload, ("fraction", "svd"))
        self.nominal_s = sum(NOMINAL_S[p] for p in self.parts)
        if "svd" in self.parts:
            self._matrix = np.random.default_rng(0).standard_normal((1024, 31))

    def sample(self) -> float:
        """Seconds the reference task takes now."""
        start = time.perf_counter()
        if "fraction" in self.parts:
            total = Fraction(0)
            for i in range(1, 300):
                total += Fraction(i, i + 7) * Fraction(3, i + 1)
        if "svd" in self.parts:
            for _ in range(2):
                np.linalg.svd(self._matrix, compute_uv=False)
        return time.perf_counter() - start


def factors(samples: list, nominal_s: float, window: int = WINDOW) -> list:
    """Per sample: nominal time over the median of the ``window`` nearest samples."""
    n = len(samples)
    out = []
    for i in range(n):
        lo = max(0, min(i - window // 2, n - window))
        out.append(nominal_s / statistics.median(samples[lo:lo + window]))
    return out
