#!/usr/bin/env python3
"""End-to-end convergence-rate sweep through the CLI, with plots.

Usage: python scripts/run_rate_sweep.py [outdir] [mode]

mode is "multiplicative" (default) or "additive".
"""

import sys
import tempfile
from pathlib import Path

from cbflab.cli import main as cli_main

CONFIG = """
[grid]
dim = 2
N = 32

[physics]
mu = 1.0
beta = 1.0
r = {r}
forcing = modes k=(1,0) a=(0j,(1+0j))
forcing_h_norm = 0.204

[noise]
mode = {mode}
eps_grid = 0.1,0.05,0.025,0.0125
ou_alpha = 2.5
seed = 0
n_samples = 4
{phi_line}

[solver]
h = 0.01
T = 120.0
t_pull = 40.0
tol = 1e-8
pullback_tol = 1e-6
"""


def main():
    outdir = sys.argv[1] if len(sys.argv) > 1 else "sweep_out"
    mode = sys.argv[2] if len(sys.argv) > 2 else "multiplicative"
    phi_line = "phi = random seed=42 hnorm=1.0 kmax=6" if mode == "additive" else ""
    r = "2.0" if mode == "additive" else "3.0"
    text = CONFIG.format(mode=mode, phi_line=phi_line, r=r)
    with tempfile.NamedTemporaryFile("w", suffix=".cfg", delete=False) as fh:
        fh.write(text)
        cfg_path = fh.name
    code = cli_main(["sweep", "--config", cfg_path, "--out", outdir])
    if code == 0:
        print(f"artifacts in {Path(outdir).resolve()}")
    sys.exit(code)


if __name__ == "__main__":
    main()
