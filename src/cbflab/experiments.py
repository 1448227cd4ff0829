"""Attractor-distance sweeps over noise intensity and convergence-rate fits.

Both attractors in play are singletons, so the Hausdorff distance collapses
to the H norm of a difference of two states.  For the sweep, one underlying
noise seed is reused across every epsilon (coupled comparison), distances
are geometrically averaged per epsilon, and the order is read off a
least-squares line through (log eps, log mean distance).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .conditions import check_singleton_condition
from .deterministic import SingletonResult, find_singleton, probe_field, simulate
from .errors import NonConvergenceError, ValidationError
from .fields import SpectralVelocity
from .grid import TorusGrid
from .operators import h_distance, h_norm_kernel
from .params import EstimateConstants, PhysicsParams, SolverSettings, step_count
from .random_pde import ADDITIVE, MULTIPLICATIVE, NoiseConfig, PullbackSample, pullback_sample

logger = logging.getLogger(__name__)

#: Share of the horizon [0, T] over which contraction slopes are fitted.
TAIL_FRACTION = 0.5
#: Distances at or below this are round-off and are left out of the fits.
DISTANCE_FLOOR = 1.0e-13


def measure_distance(a_star: SpectralVelocity, sample) -> float:
    """dist_H between the singleton attractor and one attractor sample."""
    other = sample.state if isinstance(sample, PullbackSample) else sample
    return h_distance(a_star, other)


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
            problems.append("sweep: additive noise rate theory is 2D only")
        if not (1.0 <= r <= 2.0):
            problems.append(f"sweep: additive rate theory needs 1 <= r <= 2, got {r}")
    elif mode == MULTIPLICATIVE:
        if dim == 3 and not (3.0 <= r <= 5.0):
            problems.append(
                f"sweep: 3D multiplicative rate theory needs 3 <= r <= 5, got {r}"
            )
    else:
        problems.append(f"sweep: mode must be additive or multiplicative, got {mode!r}")
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
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        eps_grid=[float(e) for e in eps_levels],
        n_samples=int(min(counts)),
        delta_theory=delta_theory(mode, r),
        log_means=log_means,
        log_spreads=log_spreads,
        residuals=[float(v) for v in resid],
    )


def mean_inversions(fit: RateFit) -> int:
    """How often the per-epsilon mean fails to shrink as epsilon shrinks."""
    means = np.exp(fit.log_means)  # ordered by decreasing epsilon
    return int(np.sum(means[1:] > means[:-1]))


@dataclass
class SweepResult:
    records: list
    fit: RateFit
    a_star: SpectralVelocity
    singleton: SingletonResult
    t_pull: float


def rate_sweep(
    params: PhysicsParams,
    grid: TorusGrid,
    mode: str,
    eps_grid,
    n_samples: int,
    t_pull: float,
    h: float,
    *,
    phi: SpectralVelocity | None = None,
    ou_alpha: float = 1.0,
    base_seed: int = 0,
    pullback_tol: float = SolverSettings.pullback_tol,
    singleton_tol: float = SolverSettings.tol,
    singleton_maxT: float = SolverSettings.T,
    n_probes: int = SolverSettings.n_probes,
    constants: EstimateConstants | None = None,
    cfl_safety: float = SolverSettings.cfl_safety,
    blowup_guard: float = SolverSettings.blowup_guard,
) -> SweepResult:
    """
    Measure dist_H(attractor sample, a_star) on a grid of noise intensities.

    The deterministic singleton is computed once with the same step size h;
    each noise seed base_seed, ..., base_seed + n_samples - 1 then produces
    one coupled pullback sample per epsilon.  The pullback horizon is
    validated by the halving test at the largest epsilon for every seed, and
    only converged records enter the fit.  A singleton search that does not
    converge raises NonConvergenceError carrying its contraction log.
    """
    check_sweep_regime(mode, grid.dim, params.r)
    eps_grid = sorted({float(e) for e in eps_grid}, reverse=True)
    if len(eps_grid) < 3:
        raise ValidationError("sweep: need at least 3 epsilon levels")
    if n_samples < 2:
        raise ValidationError("sweep: need at least 2 samples per level")
    # the pullback settings before the singleton search, not after it
    SolverSettings.check(h=h, t_pull=t_pull, pullback_tol=pullback_tol)
    step_count(t_pull, h, "solver.t_pull")

    singleton = find_singleton(
        params, grid, tol=singleton_tol, maxT=singleton_maxT,
        n_probes=n_probes, h=h, constants=constants,
        cfl_safety=cfl_safety, blowup_guard=blowup_guard,
    )
    if not singleton.converged:
        raise NonConvergenceError(
            "sweep: singleton search did not converge; raise maxT",
            log=singleton.contraction_log,
        )
    a_star = singleton.a_star

    records = []
    for seed in range(base_seed, base_seed + n_samples):
        for i, eps in enumerate(eps_grid):
            noise = NoiseConfig(
                mode=mode, epsilon=eps, phi=phi, ou_alpha=ou_alpha, seed=seed
            )
            sample = pullback_sample(
                params, noise, t_pull, h,
                grid=grid, validate=(i == 0), pullback_tol=pullback_tol,
                cfl_safety=cfl_safety, blowup_guard=blowup_guard,
            )
            if i == 0:
                converged = sample.converged
                if not converged:
                    logger.warning(
                        "seed %d: pullback horizon %g not stabilized (gap %.3e)",
                        seed, t_pull, sample.doubling_gap,
                    )
            records.append(
                SweepRecord(
                    epsilon=eps,
                    seed=seed,
                    mode=mode,
                    r=params.r,
                    dist_h=measure_distance(a_star, sample),
                    t_pull=t_pull,
                    converged=converged,
                )
            )
    fit = fit_rate(records, mode, params.r)
    return SweepResult(
        records=records, fit=fit, a_star=a_star, singleton=singleton, t_pull=t_pull
    )


@dataclass
class ContractionResult:
    slopes: list
    theory_floor: float
    varrho: float
    flagged: list
    times: np.ndarray
    log_sq_distances: list = field(repr=False, default_factory=list)


def contraction_experiment(
    params: PhysicsParams,
    grid: TorusGrid,
    n_pairs: int,
    T: float,
    h: float = SolverSettings.h,
    *,
    base_seed: int = 7000,
    constants: EstimateConstants | None = None,
) -> ContractionResult:
    """
    Measure the tail decay rate of log |u1 - u2|_H^2 for random solution
    pairs and report it against the guaranteed floor -varrho/2.
    """
    if n_pairs < 1:
        raise ValidationError("n_pairs: need at least one pair")
    report = check_singleton_condition(params, grid, constants)
    if not report.holds:
        raise ValidationError(
            f"contraction: singleton condition fails (varrho = {report.varrho:.6g})"
        )
    n_steps = step_count(T, h, "T")
    sample_every = max(1, n_steps // 256)
    slopes, flagged, curves = [], [], []
    times = None
    for p in range(n_pairs):
        u1 = probe_field(grid, base_seed + 2 * p)
        u2 = probe_field(grid, base_seed + 2 * p + 1)
        t1 = simulate(u1, params, T, h, sample_every=sample_every)
        t2 = simulate(u2, params, T, h, sample_every=sample_every)
        times = np.array(t1.sample_times)
        d = np.array(
            [
                h_norm_kernel(grid, a.coeffs - b.coeffs)
                for a, b in zip(t1.states, t2.states)
            ]
        )
        keep = d > DISTANCE_FLOOR
        log_sq = np.where(keep, 2.0 * np.log(np.maximum(d, DISTANCE_FLOOR)), np.nan)
        curves.append(log_sq)
        tail = (times >= (1.0 - TAIL_FRACTION) * T) & keep
        if np.sum(tail) < 3 or d[-1] >= d[0]:
            flagged.append(p)
            continue
        slope, _ = np.polyfit(times[tail], log_sq[tail], 1)
        slopes.append(float(slope))
    return ContractionResult(
        slopes=slopes,
        theory_floor=-report.varrho / 2.0,
        varrho=report.varrho,
        flagged=flagged,
        times=times,
        log_sq_distances=curves,
    )
