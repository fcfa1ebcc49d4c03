"""Machine-speed reference for the timed loops.

The benchmark's machine is shared: its speed for the same work drifts by up
to 2x over tens of seconds, far more than the changes the benchmark must
resolve.  Every timed call is therefore bracketed by a fixed reference kernel
that does the package's kind of work (frozen-dataclass rows, per-row loops
into arrays, float formatting and parsing, small matrix-vector steps), and
its wall time is scaled by REFERENCE_S / (kernel time around the call).
A faster or slower program still moves the scaled time one for one; a faster
or slower machine moves the kernel with it and cancels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

# Kernel time that the scaled times are expressed at (about the kernel's time
# on an idle 2-vCPU Xeon virtual machine).
REFERENCE_S = 0.05


@dataclass(frozen=True)
class _Row:
    g: int
    x: tuple
    m: Optional[float]
    y: Optional[float]
    r: int


def reference_kernel() -> float:
    """Run the fixed reference work once; return its wall time in seconds."""
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(seed=7))
    x = rng.normal(size=(3000, 4))
    theta = np.zeros(4)
    for _ in range(40):
        q = 1.0 + np.exp(np.minimum(-(x @ theta), 700.0))
        theta -= 0.01 * (x.T @ q / 3000.0 - 1.0)
    rows = [_Row(g=1 + (i & 1), x=(float(v),), m=float(v) if i % 3 else None,
                 y=None if i & 1 else float(v), r=int(i % 3 != 0))
            for i, v in enumerate(x.ravel())]
    col = np.empty(len(rows))
    for i, row in enumerate(rows):
        col[i] = row.x[0] if row.m is None else row.m
    text = "\n".join(f"{row.g},{row.r},{row.x[0]!r}" for row in rows)
    parsed = [float(line.split(",")[2]) for line in text.splitlines()]
    np.quantile(np.asarray(parsed) - col, [0.025, 0.975])
    return time.perf_counter() - t0
