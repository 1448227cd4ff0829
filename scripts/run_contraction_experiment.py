#!/usr/bin/env python3
"""Measure the singleton search's contraction rate against the -varrho/2 floor.

Usage: python scripts/run_contraction_experiment.py [forcing_fraction]

forcing_fraction scales the forcing relative to the 2D smallness threshold
(default 0.5).  The slope is ``SingletonResult.contraction_slope()``: the
least-squares slope of 2 log(max pairwise H-distance) against t over the
search's contraction log.
"""

import sys

from cbflab import (
    EstimateConstants,
    PhysicsParams,
    TorusGrid,
    find_singleton,
    single_mode_field,
)
from cbflab.conditions import threshold_2d


def main():
    fraction = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    grid = TorusGrid(dim=2, N=32)
    cons = EstimateConstants()
    f_h = fraction * threshold_2d(1.0, grid.lambda1, cons.c1) * grid.lambda1
    f = single_mode_field(grid, (1, 0), (0.0, 1.0), h_norm=f_h)
    params = PhysicsParams(mu=1.0, beta=1.0, r=3.0, forcing=f)

    result = find_singleton(params, grid, tol=1e-8, maxT=60.0, h=0.01, constants=cons)
    varrho = result.condition.varrho
    print(f"forcing fraction {fraction}: varrho = {varrho:.4f}")
    print(f"guaranteed floor on the log|d|^2 slope: {-varrho / 2.0:.4f}")
    print(f"measured slope over the contraction log: {result.contraction_slope():.4f}")


if __name__ == "__main__":
    main()
