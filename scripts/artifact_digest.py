#!/usr/bin/env python3
"""sha256 of every artifact a fixed set of CLI runs writes.

Usage: python scripts/artifact_digest.py OUT

Runs 16 `cbflab` subcommands in-process, each into its own directory under
OUT, with the configs below: sweeps (multiplicative, a manifest-style
multiplicative config with two noise seeds, additive at r = 1); pullbacks
(multiplicative with two noise seeds, additive, `none`, 3D multiplicative);
singleton searches (one that converges and two that stop at their budget);
`simulate` in 2D and 3D with snapshots; `check-conditions`; `ou-diagnostics`.
Prints the `env` lines of `digest_environment()`, one `# run: exit code` line
per run, then one `sha256  run/file` line per file, `manifest.json` included,
sorted.  Two checkouts that compute the same numbers print the
same lines, so `diff` of two outputs checks a refactor end to end, and
`python scripts/artifact_digest.py OUT > tests/golden/artifact_digest.txt`
regenerates the golden digest.
"""

import contextlib
import ctypes
import hashlib
import io
import platform
import sys
from pathlib import Path

import numpy as np

from cbflab.cli import main as cli_main

BASE = """
[grid]
dim = 2
N = 16

[physics]
mu = 1.0
beta = 1.0
r = 3.0
forcing = modes k=(1,0) a=(0j,(1+0j))
forcing_h_norm = 0.2
"""

SWEEP = BASE + """
[noise]
mode = multiplicative
eps_grid = 0.1,0.05,0.025
ou_alpha = 2.5
seed = {seed}
n_samples = 2

[solver]
h = 0.02
T = 60.0
t_pull = {t_pull}
tol = 1e-6
pullback_tol = 0.05
"""

ADDITIVE_SWEEP = BASE.replace("r = 3.0", "r = 1.0") + """
[noise]
mode = additive
eps_grid = 0.1,0.05,0.025
ou_alpha = 2.5
phi = random seed=42 hnorm=1.0 kmax=4
seed = 5
n_samples = 2

[solver]
h = 0.02
T = 60.0
t_pull = 8.0
tol = 1e-6
pullback_tol = 0.05
"""

PULLBACK = BASE + """
[noise]
mode = {mode}
epsilon = {eps}
ou_alpha = 2.5
{phi}seed = 3

[solver]
h = 0.02
t_pull = 6.0
pullback_tol = 0.05
initial = random seed=1 hnorm=0.5 kmax=4
"""

BASE_3D = """
[grid]
dim = 3
N = 8

[physics]
mu = 1.0
beta = 0.5
r = 3.0
forcing = modes k=(1,0,0) a=(0j,(1+0j),0j)
forcing_h_norm = 0.2
"""

PULLBACK_3D = BASE_3D + """
[noise]
mode = multiplicative
epsilon = 0.1
ou_alpha = 2.5
seed = 7

[solver]
h = 0.02
t_pull = 2.0
pullback_tol = 0.5
"""

SINGLETON = BASE + """
[solver]
h = {h}
T = {T}
tol = 1e-6
"""

SIMULATE = "{base}" + """
[solver]
h = 0.01
T = 0.5
initial = random seed=2 hnorm=0.5 kmax={kmax}

[output]
snapshot_every = 10
"""

OU = """
[noise]
ou_alpha = 2.5
seed = 3
"""

#: (run name, subcommand, config text)
RUNS = (
    ("sweep", "sweep", SWEEP.format(seed=0, t_pull=8.0)),
    ("sweep-c11", "sweep", SWEEP.format(seed=40, t_pull=10.0)),
    ("sweep-c11-seed43", "sweep", SWEEP.format(seed=43, t_pull=10.0)),
    ("sweep-additive-r1", "sweep", ADDITIVE_SWEEP),
    ("pullback-mult", "pullback", PULLBACK.format(mode="multiplicative", eps=0.1, phi="")),
    # the seed set by an appended override: a key set twice takes its later value
    ("pullback-mult-seed5", "pullback",
     PULLBACK.format(mode="multiplicative", eps=0.1, phi="") + "\n[noise]\nseed = 5\n"),
    ("pullback-additive", "pullback",
     PULLBACK.format(mode="additive", eps=0.1, phi="phi = random seed=42 hnorm=1.0 kmax=4\n")),
    ("pullback-none", "pullback", PULLBACK.format(mode="none", eps=0.0, phi="")),
    ("pullback-3d-mult", "pullback", PULLBACK_3D),
    ("singleton", "singleton", SINGLETON.format(h=0.02, T=60.0)),
    ("singleton-budget", "singleton", SINGLETON.format(h=0.02, T=2.5)),
    ("singleton-budget-h003", "singleton", SINGLETON.format(h=0.03, T=2.97)),
    ("simulate-2d", "simulate", SIMULATE.format(base=BASE, kmax=4)),
    ("simulate-3d", "simulate", SIMULATE.format(base=BASE_3D, kmax=2)),
    ("check-conditions", "check-conditions", BASE),
    ("ou-diagnostics", "ou-diagnostics", OU),
)


def blas_corename() -> str:
    """The kernel that numpy's bundled OpenBLAS runs (``OPENBLAS_CORETYPE``
    overrides its pick), or ``unknown`` without that library or its symbol."""
    libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def digest_environment() -> list:
    """The header of the digest: what the artifact bytes depend on besides
    the code.  The dense DFT products go through numpy's BLAS, whose kernel
    the SIMD extensions pick unless ``OPENBLAS_CORETYPE`` names another."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    return [
        f"env numpy {np.__version__}",
        f"env python {platform.python_version()}",
        f"env machine {platform.machine()}",
        f"env simd {' '.join(simd)}",
        f"env blas {blas_corename()}",
    ]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    out = Path(sys.argv[1])
    print("\n".join(digest_environment()))
    for name, sub, text in RUNS:
        run_dir = out / name
        run_dir.mkdir(parents=True, exist_ok=True)
        config = str(run_dir / "run.cfg")
        Path(config).write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([sub, "--config", config, "--out", str(run_dir)])
        print(f"# {name}: exit {code}")
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "run.cfg":
            print(f"{sha256(path)}  {path.relative_to(out)}")


if __name__ == "__main__":
    main()
