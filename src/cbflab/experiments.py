"""Attractor-distance sweeps over noise intensity and convergence-rate fits.

Both attractors in play are singletons, so the Hausdorff distance collapses
to the H norm of a difference of two states.  For the sweep, one underlying
noise seed is reused across every epsilon (coupled comparison), distances
are geometrically averaged per epsilon, and the order is read off a
least-squares line through (log eps, log mean distance).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields, replace

import numpy as np

from .deterministic import find_singleton
from .errors import GridMismatchError, NonConvergenceError, ValidationError
from .grid import TorusGrid
from .operators import h_distance
from .params import EstimateConstants, PhysicsParams, SolverSettings, step_count
from .random_pde import ADDITIVE, MULTIPLICATIVE, NoiseConfig, pullback_sample
from .runio import fmt

logger = logging.getLogger(__name__)


def eps_grid_violations(eps_grid) -> list:
    """The sweep's rule on its noise levels: each lies in (0, 1]."""
    if any(not (0.0 < e <= 1.0) for e in eps_grid):
        return [f"noise.eps_grid: entries must lie in (0, 1], got {eps_grid}"]
    return []


def delta_theory(mode: str, r: float) -> float:
    """Predicted convergence exponent: (r+1)/(2r) additive, 1 multiplicative."""
    if mode == ADDITIVE:
        return (r + 1.0) / (2.0 * r)
    if mode == MULTIPLICATIVE:
        return 1.0
    raise ValidationError(f"mode: no convergence theory for {mode!r}")


def check_sweep_regime(mode: str, dim: int, r: float) -> None:
    problems = []
    if mode == ADDITIVE:
        if dim != 2:
            problems.append(f"grid.dim: additive sweep rate theory is 2D only, got {dim}")
        if not (1.0 <= r <= 2.0):
            problems.append(f"physics.r: additive sweep rate theory needs 1 <= r <= 2, got {r}")
    elif mode == MULTIPLICATIVE:
        if dim == 3 and not (3.0 <= r <= 5.0):
            problems.append(
                f"physics.r: 3D multiplicative sweep rate theory needs 3 <= r <= 5, got {r}"
            )
    else:
        problems.append(
            f"noise.mode: a sweep needs additive or multiplicative noise, got {mode!r}"
        )
    if problems:
        raise ValidationError(problems)


@dataclass(frozen=True)
class SweepRecord:
    """One (epsilon, seed) attractor-distance measurement."""

    epsilon: float
    seed: int
    mode: str
    r: float
    dist_h: float
    t_pull: float
    converged: bool

    def __post_init__(self):
        if self.dist_h < 0:
            raise ValidationError("dist_h: distances are nonnegative")


@dataclass
class RateFit:
    slope: float
    intercept: float
    eps_grid: list
    n_samples: int
    delta_theory: float
    log_means: list
    log_spreads: list
    residuals: list
    #: How often the per-epsilon mean fails to shrink as epsilon shrinks.
    mean_inversions: int

    def summary(self) -> str:
        lines = [
            "rate sweep summary",
            f"  fitted slope     : {fmt(self.slope)}",
            f"  theory exponent  : {fmt(self.delta_theory)}",
            f"  epsilon grid     : {', '.join(fmt(e) for e in self.eps_grid)}",
            f"  samples per level: {fmt(self.n_samples)}",
            f"  fit residuals    : {', '.join(fmt(v) for v in self.residuals)}",
        ]
        return "\n".join(lines) + "\n"


def fit_rate(records, mode: str, r: float) -> RateFit:
    """Least squares of log(geometric mean distance) against log(epsilon)."""
    usable = [rec for rec in records if rec.converged and rec.dist_h > 0.0]
    eps_levels = sorted({rec.epsilon for rec in usable}, reverse=True)
    if len(eps_levels) < 3:
        raise ValidationError(
            f"fit: need >= 3 epsilon levels with converged samples, got {len(eps_levels)}"
        )
    log_means, log_spreads, counts = [], [], []
    for eps in eps_levels:
        logs = np.log([rec.dist_h for rec in usable if rec.epsilon == eps])
        counts.append(len(logs))
        log_means.append(float(np.mean(logs)))
        log_spreads.append(float(np.std(logs)))
    if min(counts) < 2:
        raise ValidationError("fit: need >= 2 converged samples per epsilon level")
    x = np.log(eps_levels)
    y = np.array(log_means)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    means = np.exp(log_means)  # ordered by decreasing epsilon
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        eps_grid=[float(e) for e in eps_levels],
        n_samples=int(min(counts)),
        delta_theory=delta_theory(mode, r),
        log_means=log_means,
        log_spreads=log_spreads,
        residuals=[float(v) for v in resid],
        mean_inversions=int(np.sum(means[1:] > means[:-1])),
    )


@dataclass
class SweepResult:
    records: list
    fit: RateFit

    @property
    def seeds(self) -> list:  # the noise seeds drawn, in order
        return list(dict.fromkeys(r.seed for r in self.records))


def rate_sweep(
    params: PhysicsParams,
    grid: TorusGrid,
    noise: NoiseConfig,
    eps_grid,
    n_samples: int,
    solver: SolverSettings,
    *,
    constants: EstimateConstants | None = None,
) -> SweepResult:
    """
    Measure dist_H(attractor sample, a_star) on a grid of noise intensities.

    The deterministic singleton is computed once with the step ``solver.h``;
    each seed noise.seed, ..., noise.seed + n_samples - 1 then produces one
    coupled pullback sample per epsilon, along ``noise`` (a template with
    epsilon = 0) with that epsilon and seed.  The pullback horizon is
    validated by the halving test at the largest epsilon for every seed, and
    only converged records enter the fit.  Every input is checked before the
    singleton search; a search that does not converge raises
    NonConvergenceError carrying its contraction log.
    """
    if noise.epsilon != 0.0:
        raise ValidationError(
            f"noise.epsilon: the sweep template must have epsilon = 0, got {noise.epsilon}"
        )
    check_sweep_regime(noise.mode, grid.dim, params.r)
    if noise.phi is not None and noise.phi.grid != grid:
        raise GridMismatchError("noise.phi lives on a different grid than grid")
    problems = eps_grid_violations(eps_grid)
    eps_grid = sorted({float(e) for e in eps_grid}, reverse=True)
    if len(eps_grid) < 3:
        problems.append(
            f"noise.eps_grid: a sweep needs at least 3 epsilon levels, got {len(eps_grid)}"
        )
    if n_samples < 2:
        problems.append(
            f"noise.n_samples: a sweep needs at least 2 samples per level, got {n_samples}"
        )
    if problems:
        raise ValidationError(problems)
    # every setting before the singleton search, by SolverSettings' own fields
    SolverSettings.check(**{f.name: getattr(solver, f.name) for f in fields(SolverSettings)})
    step_count(solver.t_pull, solver.h, "solver.t_pull")

    singleton = find_singleton(
        params, grid, tol=solver.tol, maxT=solver.T, n_probes=solver.n_probes, h=solver.h,
        constants=constants, cfl_safety=solver.cfl_safety, blowup_guard=solver.blowup_guard,
    )
    if not singleton.converged:
        raise NonConvergenceError(
            f"solver.T: the singleton search did not converge by T = {solver.T}; raise it",
            log=singleton.contraction_log,
        )
    a_star = singleton.a_star

    records = []
    for seed in range(noise.seed, noise.seed + n_samples):
        for i, eps in enumerate(eps_grid):
            sample = pullback_sample(
                params, replace(noise, epsilon=eps, seed=seed), solver.t_pull, solver.h,
                grid=grid, validate=(i == 0), pullback_tol=solver.pullback_tol,
                cfl_safety=solver.cfl_safety, blowup_guard=solver.blowup_guard,
            )
            if i == 0:
                converged = sample.converged
                if not converged:
                    logger.warning(
                        "seed %d: pullback horizon %g not stabilized (gap %.3e)",
                        seed, solver.t_pull, sample.doubling_gap,
                    )
            records.append(
                SweepRecord(
                    epsilon=eps,
                    seed=seed,
                    mode=noise.mode,
                    r=params.r,
                    dist_h=h_distance(a_star, sample.state),
                    t_pull=solver.t_pull,
                    converged=converged,
                )
            )
    fit = fit_rate(records, noise.mode, params.r)
    return SweepResult(records=records, fit=fit)
