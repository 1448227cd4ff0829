"""The three benchmark workloads, one per computational claim of the paper.

Each workload turns its seed into inputs, sets up, runs one round of cbflab
calls and checks the outputs with ``checks``.  cbflab functions are looked up
on their modules at call time (``cbflab.find_singleton``, ``cbflab.cli.main``),
so the tracer's wrappers on those modules see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

import cbflab
import cbflab.cli
import cbflab.conditions
import checks

WORK_DIR = Path(__file__).resolve().parent / "_work"

#: The fixed point of the integrating-factor Heun map is a steady state only
#: up to O(h^2): its residual measured 0.084 h^2 |f|_H in 2D and in 3D, and
#: the checks allow RESIDUAL_C h^2 |f|_H.
RESIDUAL_C = 0.25


def _unit_phase(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def _shear_mode_2d(rng) -> tuple:
    """A |k| = 1 forcing mode along x or y with a seed-drawn phase."""
    phase = _unit_phase(rng)
    return ((1, 0), (0.0, phase)) if rng.integers(2) else ((0, 1), (phase, 0.0))


class Workload:
    name = ""
    ops_per_round = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        """Grid, fields and parameters, the condition check, one warm-up step."""
        raise NotImplementedError

    def solve(self):
        """One round of cbflab calls; returns (output, failed operations)."""
        raise NotImplementedError

    def check(self, out, steps: int) -> list:
        """Problems found in one round's output; ``steps`` is its Heun count."""
        raise NotImplementedError

    def fingerprint(self, out) -> bytes:
        """Bytes that every round on the same inputs must reproduce."""
        raise NotImplementedError

    def discard(self, out) -> None:
        pass

    def close(self) -> None:
        pass

    def _warm_up(self, grid, params, h: float) -> None:
        cbflab.simulate(cbflab.probe_field(grid, self.seed), params, T=h, h=h)


class Singleton2D(Workload):
    """find_singleton on 2D N=32, r=3, mu=beta=1 under one small forcing mode."""

    name = "singleton-2d"
    H, TOL, MAX_T, CHECK_EVERY, N_PROBES = 0.02, 1.0e-8, 60.0, 0.5, 3
    MU, BETA, R = 1.0, 1.0, 3.0

    def setup(self):
        rng = self.rng
        mode, amp = _shear_mode_2d(rng)
        self.probe_seed = int(rng.integers(1, 2**31))

        self.grid = cbflab.TorusGrid(dim=2, N=32)
        self.constants = cbflab.EstimateConstants()
        lam1 = self.grid.lambda1
        # half of the paper's smallness threshold, as in acceptance criterion 4
        self.f_h = 0.5 * cbflab.conditions.threshold_2d(self.MU, lam1, self.constants.c1) * lam1
        self.forcing = cbflab.single_mode_field(self.grid, mode, amp, h_norm=self.f_h)
        self.params = cbflab.PhysicsParams(
            mu=self.MU, beta=self.BETA, r=self.R, forcing=self.forcing
        )
        report = cbflab.check_singleton_condition(self.params, self.grid, self.constants)
        if not report.holds:
            raise RuntimeError(f"{self.name}: the singleton condition fails")
        self._warm_up(self.grid, self.params, self.H)

    def solve(self):
        try:
            result = cbflab.find_singleton(
                self.params, self.grid, tol=self.TOL, maxT=self.MAX_T,
                n_probes=self.N_PROBES, h=self.H, check_every=self.CHECK_EVERY,
                base_seed=self.probe_seed, constants=self.constants,
            )
        except cbflab.CBFError:
            return None, 1
        return result, 0

    def check(self, result, steps):
        problems = []
        if not result.converged:
            problems.append("singleton search did not converge")
        grid = self.grid
        resid = checks.steady_residual(
            result.a_star.coeffs, self.forcing.coeffs, grid.L, self.MU, self.BETA, self.R
        )
        if not resid <= RESIDUAL_C * self.H**2 * self.f_h:
            problems.append(f"steady residual {resid:.3e} of a* is above tolerance")

        varrho = checks.varrho_2d(self.MU, 4.0 * math.pi**2 / grid.L**2, self.constants.c1, self.f_h)
        if not math.isclose(result.condition.varrho, varrho, rel_tol=1e-12):
            problems.append(f"varrho {result.condition.varrho!r} differs from {varrho!r}")
        tail = [(t, d) for t, d, _ in result.contraction_log if d > 1e-11 and t >= 3.0]
        if len(tail) < 3:
            problems.append("contraction log has no tail to fit")
        else:
            slope, _ = checks.line_fit([t for t, _ in tail], [2.0 * math.log(d) for _, d in tail])
            if not slope <= -varrho / 2.0 * 0.8:
                problems.append(f"contraction slope {slope:.3f} above -0.8 varrho/2")

        chunk = round(self.CHECK_EVERY / self.H)
        if steps != len(result.contraction_log) * chunk * self.N_PROBES:
            problems.append(f"{steps} Heun steps do not match the contraction log")
        return problems

    def fingerprint(self, result):
        return result.a_star.coeffs.tobytes()


SWEEP_CONFIG = """\
[grid]
dim = 2
N = 32

[physics]
mu = 1.0
beta = 1.0
r = 1.0
forcing = modes k={mode} a={amp}
forcing_h_norm = {f_h!r}

[noise]
mode = additive
eps_grid = {eps_grid}
ou_alpha = 2.5
phi = random seed={phi_seed} hnorm=1.0 kmax={kmax}
seed = {noise_seed}
n_samples = {n_samples}

[solver]
h = {h!r}
T = 60.0
t_pull = {t_pull!r}
tol = 1e-8
pullback_tol = {pullback_tol!r}
n_probes = 3
"""


class SweepAdditive2D(Workload):
    """``cbflab sweep`` in-process: additive noise, 2D N=32, r=1."""

    name = "sweep-additive-2d-r1"
    EPS = (0.1, 0.05, 0.025)
    N_SAMPLES, H, T_PULL, PULLBACK_TOL, KMAX = 2, 0.02, 10.0, 1.0e-4, 6
    MU, BETA, R = 1.0, 1.0, 1.0

    def setup(self):
        rng = self.rng
        mode, amp = _shear_mode_2d(rng)
        phi_seed = int(rng.integers(1, 2**31))
        noise_seed = int(rng.integers(1, 2**31))

        self.grid = cbflab.TorusGrid(dim=2, N=32)
        lam1 = self.grid.lambda1
        c1 = cbflab.EstimateConstants().c1
        f_h = 0.5 * cbflab.conditions.threshold_2d(self.MU, lam1, c1) * lam1
        text = SWEEP_CONFIG.format(
            mode=f"({mode[0]},{mode[1]})",
            amp="(" + ",".join(repr(complex(a)) for a in amp) + ")",
            f_h=float(f_h),
            eps_grid=",".join(repr(e) for e in self.EPS),
            phi_seed=phi_seed, kmax=self.KMAX, noise_seed=noise_seed,
            n_samples=self.N_SAMPLES, h=self.H, t_pull=self.T_PULL,
            pullback_tol=self.PULLBACK_TOL,
        )
        self.work = WORK_DIR / f"{self.name}-{self.seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = self.work / "sweep.cfg"
        self.config.write_text(text, encoding="utf-8")
        self.rounds = 0

        forcing = cbflab.single_mode_field(self.grid, mode, amp, h_norm=f_h)
        params = cbflab.PhysicsParams(mu=self.MU, beta=self.BETA, r=self.R, forcing=forcing)
        report = cbflab.check_singleton_condition(params, self.grid)
        if not report.holds:
            raise RuntimeError(f"{self.name}: the singleton condition fails")
        self._warm_up(self.grid, params, self.H)

    def solve(self):
        self.rounds += 1
        out = self.work / f"round-{self.rounds}"
        argv = ["sweep", "--config", str(self.config), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cbflab.cli.main(argv)
        return out, int(code != 0)

    def check(self, out, steps):
        problems = []
        records = checks.read_records(out / "records.csv")
        if len(records) != len(self.EPS) * self.N_SAMPLES:
            problems.append(f"records.csv has {len(records)} rows")
        if any(rec["converged"] != "true" for rec in records):
            problems.append("a sweep record did not converge")

        fit = json.loads((out / "fit.json").read_text(encoding="utf-8"))
        refit = checks.refit_records(out / "records.csv")
        for key in ("slope", "intercept"):
            if not math.isclose(fit[key], refit[key], rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"fit.json {key} {fit[key]!r} differs from refit {refit[key]!r}")
        if refit["eps_grid"] != fit["eps_grid"]:
            problems.append("fit.json eps_grid differs from the records")
        theory = (self.R + 1.0) / (2.0 * self.R)
        if not abs(refit["slope"] - theory) <= 0.15:
            problems.append(f"fitted slope {refit['slope']:.4f} not within 0.15 of {theory}")
        problems += checks.manifest_problems(out)

        n = round(self.T_PULL / self.H)
        pullback_steps = self.N_SAMPLES * (len(self.EPS) * n + n // 2)
        singleton_steps = steps - pullback_steps
        chunk = round(1.0 / self.H) * 3  # the CLI's search: check_every 1, 3 probes
        if singleton_steps <= 0 or singleton_steps % chunk:
            problems.append(f"{steps} Heun steps do not match the sweep's plan")
        return problems

    def fingerprint(self, out):
        return (out / "records.csv").read_bytes() + (out / "fit.json").read_bytes()

    def discard(self, out):
        shutil.rmtree(out, ignore_errors=True)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


class Pullback3DMult(Workload):
    """pullback_sample on 3D N=16, r=3, 2 beta mu = 1, multiplicative noise."""

    name = "pullback-3d-mult"
    EPS = (0.1, 0.0, 0.025)
    ops_per_round = len(EPS)
    H, T_PULL, PULLBACK_TOL, OU_ALPHA = 0.1, 14.0, 1.0e-3, 2.5
    MU, BETA, R = 1.0, 0.5, 3.0
    #: The noise path of acceptance criterion 10.  The ratio check assumes
    #: the path's first-order response to eps dominates; on paths where it
    #: nearly cancels the ratio leaves [2, 8] (a seed-drawn path gave 1.39),
    #: so the seed varies the forcing and the path stays fixed.
    NOISE_SEED = 7

    def setup(self):
        rng = self.rng
        turn = rng.uniform(0.0, 2.0 * math.pi)
        phase = _unit_phase(rng)
        amp = (0.0, phase * math.cos(turn), phase * math.sin(turn))

        self.grid = cbflab.TorusGrid(dim=3, N=16)
        constants = cbflab.EstimateConstants()
        lam1 = self.grid.lambda1
        self.f_h = 0.5 * cbflab.conditions.threshold_3d_crit(self.MU, lam1, constants.c3) * lam1
        self.forcing = cbflab.single_mode_field(self.grid, (1, 0, 0), amp, h_norm=self.f_h)
        self.params = cbflab.PhysicsParams(
            mu=self.MU, beta=self.BETA, r=self.R, forcing=self.forcing
        )
        report = cbflab.check_singleton_condition(self.params, self.grid, constants, "3D-r=3")
        if not report.holds:
            raise RuntimeError(f"{self.name}: the singleton condition fails")
        self._warm_up(self.grid, self.params, self.H)

    def solve(self):
        samples, failed = {}, 0
        for eps in self.EPS:
            noise = cbflab.NoiseConfig(
                mode="multiplicative", epsilon=eps, ou_alpha=self.OU_ALPHA, seed=self.NOISE_SEED
            )
            try:
                samples[eps] = cbflab.pullback_sample(
                    self.params, noise, self.T_PULL, self.H, grid=self.grid,
                    validate=(eps == self.EPS[0]), pullback_tol=self.PULLBACK_TOL,
                )
            except cbflab.CBFError:
                failed += 1
        return samples, failed

    def check(self, samples, steps):
        problems = []
        if len(samples) != len(self.EPS):
            return problems
        big, zero, small = (samples[eps].state.coeffs for eps in self.EPS)
        first = samples[self.EPS[0]]
        if not (first.converged and first.doubling_gap <= self.PULLBACK_TOL):
            problems.append(f"doubling gap {first.doubling_gap!r} above {self.PULLBACK_TOL}")
        ratio = checks.h_norm(big - zero, self.grid.L) / checks.h_norm(small - zero, self.grid.L)
        if not 2.0 <= ratio <= 8.0:
            problems.append(f"distance ratio {ratio:.3f} outside [2, 8]")
        resid = checks.steady_residual(
            zero, self.forcing.coeffs, self.grid.L, self.MU, self.BETA, self.R
        )
        if not resid <= RESIDUAL_C * self.H**2 * self.f_h:
            problems.append(f"steady residual {resid:.3e} of the eps=0 sample above tolerance")
        n = round(self.T_PULL / self.H)
        if steps != len(self.EPS) * n + n // 2:
            problems.append(f"{steps} Heun steps do not match the pullback plan")
        return problems

    def fingerprint(self, samples):
        return b"".join(samples[eps].state.coeffs.tobytes() for eps in sorted(samples))


WORKLOADS = {cls.name: cls for cls in (Singleton2D, SweepAdditive2D, Pullback3DMult)}
