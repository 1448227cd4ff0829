#!/usr/bin/env python3
"""Per-call cost of the fused nonlinear tendency, ``operators.nonlinear_kernel``.

For 2D N=32, 2D N=64 and 3D N=16, each at r = 1 and r = 3, prints the
transform path the lattice takes (``dense`` DFT products or pruned ``fft``
passes, see ``grid.DENSE_MAX``), the microseconds per call, the
tracemalloc peak of one warm call and the minor page faults (``ru_minflt``)
per call.  Every case is warmed by one call first.

Usage: python scripts/kernel_timing.py [repeats]
"""

import resource
import sys
import time
import tracemalloc

from cbflab import TorusGrid, random_field
from cbflab.operators import nonlinear_kernel

CASES = ((2, 32), (2, 64), (3, 16))
EXPONENTS = (1.0, 3.0)


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(dim: int, n: int, r: float, repeats: int) -> dict:
    """us per call, tracemalloc peak bytes of one call and minor faults per call."""
    grid = TorusGrid(dim=dim, N=n)
    u = random_field(grid, 7, h_norm=1.5).half
    nonlinear_kernel(grid, u, 1.0, 1.0, r)
    faults_before = _minor_faults()
    start = time.perf_counter()
    for _ in range(repeats):
        nonlinear_kernel(grid, u, 1.0, 1.0, r)
    elapsed = time.perf_counter() - start
    faults = _minor_faults() - faults_before
    tracemalloc.start()
    try:
        nonlinear_kernel(grid, u, 1.0, 1.0, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "path": "dense" if grid.dense else "fft",
        "us": 1.0e6 * elapsed / repeats,
        "peak_bytes": peak,
        "faults": faults / repeats,
    }


def main():
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    print(f"nonlinear_kernel, {repeats} calls per case")
    print(f"{'case':<14}{'path':>10}{'us/call':>12}{'peak KB':>12}{'faults/call':>14}")
    for dim, n in CASES:
        for r in EXPONENTS:
            row = measure(dim, n, r, repeats)
            print(
                f"{f'{dim}D N={n} r={r:g}':<14}{row['path']:>10}{row['us']:>12.1f}"
                f"{row['peak_bytes'] / 1024:>12.1f}{row['faults']:>14.2f}"
            )


if __name__ == "__main__":
    main()
