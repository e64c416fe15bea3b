"""Reference kernel for host-drift correction.

The host's speed drifts by up to +-15% between and within runs on a shared
machine.  Each timed operation is therefore paired with this plain-Python
kernel, timed next to it in the same process, and reported as
raw_time * NOMINAL_S / kernel_time: seconds on a host where the kernel takes
NOMINAL_S.  The kernel does the kinds of work the solver does (float pow,
lgamma, exp, list building, sorting by key, dict updates, small calls) and
uses nothing from the package under test.
"""

from __future__ import annotations

import math
import time

# The kernel's median time on the reference machine (see README).
NOMINAL_S = 0.0025


def _term(c: float, e: float, x: float) -> float:
    return c * x**e


def kernel() -> float:
    """A fixed ~2.5 ms workload; returns a checksum so nothing is skipped."""
    coeffs = [(-1.0) ** n * math.exp(-math.lgamma(1.0 + 0.37 * n)) for n in range(120)]
    acc = 0.0
    table = {}
    for j in range(90):
        x = 0.3 + 0.03 * j
        terms = [_term(c, 0.1 + 0.37 * n, x) for n, c in enumerate(coeffs)]
        terms.sort(key=abs, reverse=True)
        total = 0.0
        for t in terms:
            total += t
        table[j] = total
        acc += total
    return acc + sum(table.values())


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
