"""Host-speed factor: how long a fixed reference loop takes now, relative to
its usual time on the machine the benchmark was defined on (a 2-vCPU Intel
Xeon VM at 2.1 GHz, shared with other tenants).

On that machine the same batch runs up to twice as fast or slow for minutes
at a time, as other tenants come and go. Dividing each measured time by the
factor taken just before it removes most of that swing: over twelve
20-second windows of table1 batches, the quartile spread of the window
medians fell from 28% raw to 5% normalized. The reference is fixed
benchmark code in the style of the library's hot paths (dict updates and
float arithmetic in Python, small numpy vector-matrix products), so no
change to branchgen moves it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.018   # the reference's usual time on the defining machine


def reference() -> float:
    d: dict[int, float] = {}
    acc = 0.0
    for i in range(40_000):
        k = i & 63
        d[k] = d.get(k, 0.0) + i * 0.5
        acc += d[k] / (k + 1)
    m = np.eye(8) * 0.5
    v = np.ones(8)
    for _ in range(3_000):
        v = v @ m + 1.0
    return acc + float(v[0])


def factor() -> float:
    """Current reference time over its usual time: above 1 on a slow host."""
    t0 = perf_counter()
    reference()
    return (perf_counter() - t0) / REFERENCE_S
