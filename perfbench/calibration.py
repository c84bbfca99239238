"""Machine-speed calibration for a shared, noisy host.

The benchmark host's speed drifts by tens of percent within seconds as
other tenants load it.  The runner times a fixed kernel that does not touch
quadferm between timed jobs, and multiplies each job's time by
REFERENCE_S / (mean of the kernel times just before and just after it).
Setup time is scaled by the median kernel time around the worker spawns.
Unscaled times are printed next to the scaled ones.

The kernel mixes the three kinds of work the workloads do: rendering floats
to CSV in the interpreter, a dense complex matrix exponential, and a
memory-bound dense solve.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np
import scipy.linalg

#: Kernel time that defines one reference second (a quiet 2-vCPU x86-64
#: host with one OpenBLAS thread measures about this).
REFERENCE_S = 0.015


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._floats = rng.standard_normal((400, 25)).tolist()
        self._expm_arg = (rng.standard_normal((64, 64))
                          + 1j * rng.standard_normal((64, 64))) / 16
        self._solve_arg = rng.standard_normal((300, 300)) + 300 * np.eye(300)
        # Bound now, so a traced run's patch of scipy.linalg.expm is not seen.
        self._expm = scipy.linalg.expm

    def __call__(self) -> float:
        """Seconds the kernel takes now."""
        start = time.perf_counter()
        writer = csv.writer(io.StringIO(), lineterminator="\n")
        for row in self._floats:
            writer.writerow([format(x, ".17g") for x in row])
        self._expm(self._expm_arg)
        np.linalg.solve(self._solve_arg, self._solve_arg)
        return time.perf_counter() - start
