"""Host-speed calibration: fixed pieces of the benchmark's own work, timed
between ops.

This host's speed moves by up to 2x over seconds to minutes, because other
tenants share its cores, and raw times spread by 9-77% across runs. The
ratio of an op's time to a kernel of the same instruction mix holds within
a few percent. Two kernels cover the ops:

- IN_PROCESS, for ops in the driver: Python loops that stamp the nodal
  matrix of a small LC ladder, then a dense complex solve, as dakit.mna
  does;
- CHILD, for ops that start a child and for set-up: starting an
  interpreter that imports numpy, the bulk of starting dakit.

Neither runs dakit code, so no change to dakit moves them. Every
end-to-end time is scaled by the kernel's nominal time over its time
measured around the op: it reads as the time the op would take on a host
where the kernel takes its nominal time. Raw times are printed alongside.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# Captured at import, before a tracer can patch numpy.linalg.
_solve = np.linalg.solve

# Nominal kernel times, near their medians on the reference host (2-vCPU
# Xeon sandbox, Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread).
NOMINAL_S = 0.003
NOMINAL_CHILD_S = 0.2

_SECTIONS = 9
_FREQUENCIES = tuple(5e7 * k for k in range(1, 37))


def _ladder() -> list[tuple[int, int, str, float]]:
    """A lossy LC ladder with its ports on nodes 1 and the last node."""
    elements = []
    for k in range(_SECTIONS):
        a, b = k + 1, k + 2
        elements.append((a, b, "L", 2.5e-9))
        elements.append((b, 0, "C", 1e-12))
        elements.append((b, 0, "R", 5e3))
    elements.append((1, 0, "R", 50.0))
    elements.append((_SECTIONS + 1, 0, "R", 50.0))
    return elements


_ELEMENTS = _ladder()


def kernel() -> complex:
    """Stamp and solve the ladder at every calibration frequency."""
    size = _SECTIONS + 1
    total = 0j
    for f in _FREQUENCIES:
        w = 2.0 * math.pi * f
        y = np.zeros((size, size), dtype=complex)
        for a, b, kind, value in _ELEMENTS:
            if kind == "R":
                adm = 1.0 / value
            elif kind == "C":
                adm = 1j * w * value
            else:
                adm = 1.0 / (1j * w * value)
            for i, j, sign in ((a, a, 1), (b, b, 1), (a, b, -1), (b, a, -1)):
                if i and j:
                    y[i - 1, j - 1] += sign * adm
        rhs = np.zeros(size, dtype=complex)
        rhs[0] = 1.0
        total += complex(_solve(y, rhs)[-1])
    return total


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def child_seconds() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - start


# (kernel, its nominal seconds)
IN_PROCESS = (kernel_seconds, NOMINAL_S)
CHILD = (child_seconds, NOMINAL_CHILD_S)
