#!/usr/bin/env python3
"""Per-call cost of the fused nonlinear tendency, the padded transform pair and
one time step.

For 2D N=32, 2D N=64 and 3D N=16 prints three tables:

- ``operators.nonlinear_kernel`` at r = 1 and r = 3;
- the padded transform pair, ``padded_irfft`` of the velocity and
  ``truncated_rfft`` of the point values, on the advection (3/2) and damping
  (2x) lattices;
- one Heun step through ``deterministic.drive`` (a 1-step run, with its
  set-up) at r = 1 and r = 3.

Each row gives the transform path the lattice takes (``dense`` DFT products
or pruned ``fft`` passes, see ``grid.DENSE_MAX``), the microseconds per call,
the tracemalloc peak of one warm call and the minor page faults
(``ru_minflt``) per call.  Every case is warmed by one call first.

Usage: python scripts/kernel_timing.py [repeats]
"""

import resource
import sys
import time
import tracemalloc
from functools import partial

import numpy as np

from cbflab import PhysicsParams, TorusGrid, random_field
from cbflab.deterministic import drive
from cbflab.grid import DAMPING_PAD, QUADRATIC_PAD
from cbflab.operators import nonlinear_kernel

CASES = ((2, 32), (2, 64), (3, 16))
EXPONENTS = (1.0, 3.0)
PADS = (QUADRATIC_PAD, DAMPING_PAD)


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(call, repeats: int) -> dict:
    """us per call, tracemalloc peak bytes of one call and minor faults per call."""
    call()
    faults_before = _minor_faults()
    start = time.perf_counter()
    for _ in range(repeats):
        call()
    elapsed = time.perf_counter() - start
    faults = _minor_faults() - faults_before
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"us": 1.0e6 * elapsed / repeats, "peak_bytes": peak, "faults": faults / repeats}


def kernel_calls():
    """(label, grid, call) of ``nonlinear_kernel`` per lattice and exponent."""
    for dim, n in CASES:
        grid = TorusGrid(dim=dim, N=n)
        u = random_field(grid, 7, h_norm=1.5).half
        for r in EXPONENTS:
            yield f"{dim}D N={n} r={r:g}", grid, partial(nonlinear_kernel, grid, u, 1.0, 1.0, r)


def pair_calls():
    """(label, grid, call) of the padded pair per lattice and padding."""
    for dim, n in CASES:
        grid = TorusGrid(dim=dim, N=n)
        u = random_field(grid, 7, h_norm=1.5).half
        for pad in PADS:
            m = grid.padded_size(pad)
            values = np.empty((dim,) + (m,) * dim)
            yield (f"{dim}D N={n} m={m}", grid,
                   lambda g=grid, u=u, m=m, v=values: g.truncated_rfft(g.padded_irfft(u, m, v), m))


def step_calls():
    """(label, grid, call) of a 1-step ``drive`` run per lattice and exponent."""
    for dim, n in CASES:
        grid = TorusGrid(dim=dim, N=n)
        u = random_field(grid, 7, h_norm=1.5).half
        for r in EXPONENTS:
            params = PhysicsParams(mu=1.0, beta=1.0, r=r)
            yield f"{dim}D N={n} r={r:g}", grid, partial(drive, grid, u, params, None, 0.01, 1)


#: (title, rows) of each table
TABLES = (
    ("nonlinear_kernel", kernel_calls),
    ("padded_irfft + truncated_rfft", pair_calls),
    ("drive, one Heun step", step_calls),
)


def main():
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    for title, calls in TABLES:
        print(f"{title}, {repeats} calls per case")
        print(f"{'case':<14}{'path':>10}{'us/call':>12}{'peak KB':>12}{'faults/call':>14}")
        for label, grid, call in calls():
            row = measure(call, repeats)
            path = "dense" if grid.dense else "fft"
            print(
                f"{label:<14}{path:>10}{row['us']:>12.1f}"
                f"{row['peak_bytes'] / 1024:>12.1f}{row['faults']:>14.2f}"
            )


if __name__ == "__main__":
    main()
