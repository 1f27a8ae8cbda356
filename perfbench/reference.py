"""The benchmark's yardstick for host speed.

The host's other tenants slow every op by up to 2x, in phases that last
from a fraction of a second to tens of seconds, and a whole run can fall
inside a slow phase.  So every timed interval (each op, each set-up step) is
bracketed by two runs of a fixed reference kernel: plain-Fraction
elimination on a fixed 8x8 matrix, arithmetic of the kind nnspectra spends
its time on.  The interval's normalized time is its wall time times REF_S
over the mean of the two kernel times, i.e. its time on a host where the
kernel takes REF_S.  This file imports nothing of nnspectra or numpy, so a
fresh interpreter can load it before timing an import.
"""

import time
from fractions import Fraction

REF_S = 0.55e-3  # fastest time of reference_kernel() on a 2.1 GHz Xeon vCPU
REF_MATRIX = tuple(
    tuple(Fraction((3 * i + 5 * j) % 11 + 1, (i * j) % 5 + 1) for j in range(8)) for i in range(8)
)
REF_DET = Fraction(38617621628323, 21600000)


def reference_kernel():
    """Determinant of REF_MATRIX by Fraction elimination."""
    m = [list(r) for r in REF_MATRIX]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return det


def time_reference(clock=time.perf_counter):
    """Wall time of one reference_kernel() run."""
    t = clock()
    det = reference_kernel()
    dt = clock() - t
    if det != REF_DET:
        raise RuntimeError("reference kernel gave a wrong determinant")
    return dt


def normalized(seconds, ref_before, ref_after):
    """`seconds` of wall time, scaled to a host where the kernel takes REF_S."""
    return seconds * 2 * REF_S / (ref_before + ref_after)
