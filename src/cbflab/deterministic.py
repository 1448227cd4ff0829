"""Time integration of the damped momentum equation and the singleton finder.

Scheme: the Stokes part is handled exactly by an exponential integrating
factor in Fourier space; advection, damping and the Darcy term go through an
explicit two-stage Runge-Kutta (Heun) stage, so the overall order is two and
there is no stiff diffusive step restriction.  An advective CFL guard aborts
instead of sub-stepping, which keeps trajectories bit-reproducible for a
given (initial data, h).

The integrator state lives in the rfft half layout (see `grid`); states
enter and leave `drive` in the full layout.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .conditions import ConditionReport, check_singleton_condition
from .errors import BlowUpError, CFLViolationError, ValidationError
from .fields import SpectralVelocity, random_field
from .grid import TorusGrid
from .operators import h_norm_kernel, lr_norm_kernel, nonlinear_kernel
from .params import EstimateConstants, PhysicsParams, SolverSettings, step_count

logger = logging.getLogger(__name__)


@dataclass
class Trajectory:
    """Per-step norm series plus field snapshots at sample times."""

    grid: TorusGrid
    h: float
    t: np.ndarray
    h_norm: np.ndarray
    v_norm: np.ndarray
    f_dot_u: np.ndarray
    lr_norm: np.ndarray | None
    r: float
    sample_times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    last_drift: float = 0.0

    @property
    def final_state(self) -> SpectralVelocity:
        return self.states[-1]

    def rows(self, residual: np.ndarray | None = None):
        """CSV rows (t, h_norm, v_norm, lr_norm, energy_residual)."""
        lr = self.lr_norm if self.lr_norm is not None else np.zeros_like(self.t)
        res = residual if residual is not None else np.zeros_like(self.t)
        for i in range(len(self.t)):
            yield (self.t[i], self.h_norm[i], self.v_norm[i], lr[i], res[i])


def _deterministic_rhs(grid, params, f_coeffs):
    """Half-layout right-hand side f - B(u) - beta C(u) - darcy u, with a CFL diagnostic.

    Terms that are identically zero are skipped rather than added, so reduced
    settings (beta = 0, f = 0, darcy = 0) execute exactly the arithmetic of
    the reduced equation.
    """
    beta, r, darcy = params.beta, params.r, params.darcy
    f_half = None if f_coeffs is None else grid.to_half(f_coeffs)

    def rhs(u):
        nl, vmax = nonlinear_kernel(grid, u, 1.0, beta, r)
        out = -nl if f_half is None else f_half - nl
        if darcy != 0.0:
            out -= darcy * u
        return out, vmax

    return rhs


def integrating_factor(grid: TorusGrid, mu: float, h: float) -> np.ndarray:
    """exp(-mu A h) on the half layout."""
    return np.exp(-(mu * grid.lambda1 * h) * grid.half_k2)


def drive(
    grid: TorusGrid,
    u0_coeffs: np.ndarray,
    rhs,
    mu: float,
    h: float,
    n_steps: int,
    *,
    sample_every: int = SolverSettings.snapshot_every,
    record_lr: float | None = None,
    cfl_safety: float = SolverSettings.cfl_safety,
    blowup_guard: float = SolverSettings.blowup_guard,
    t0: float = 0.0,
    f_coeffs: np.ndarray | None = None,
):
    """Integrating-factor Heun loop shared by every solver in the package.

    ``u0_coeffs`` and ``f_coeffs`` are full-layout; the loop runs on their
    half-layout copies, and ``rhs(u_half, step_index)`` returns the
    half-layout (tendency, vmax).  The tendency is evaluated at the step's
    left endpoint for both stages, so any time dependence is treated as
    frozen within a step.  Returns a Trajectory whose states (full layout,
    mirror rebuilt once per snapshot) hold the initial state, every
    ``sample_every``-th step and the final state.
    """
    SolverSettings.check(
        h=h, snapshot_every=sample_every, cfl_safety=cfl_safety, blowup_guard=blowup_guard
    )
    if n_steps < 1:
        raise ValidationError(f"horizon: need at least one step of h = {h}, got {n_steps}")
    ex = integrating_factor(grid, mu, h)
    u = grid.to_half(u0_coeffs)
    n_rec = n_steps + 1
    t_arr = t0 + h * np.arange(n_rec)
    hn = np.empty(n_rec)
    vn = np.empty(n_rec)
    fu = np.empty(n_rec)
    lr = np.empty(n_rec) if record_lr is not None else None

    traj = Trajectory(
        grid=grid, h=h, t=t_arr, h_norm=hn, v_norm=vn, f_dot_u=fu,
        lr_norm=lr, r=record_lr if record_lr is not None else 0.0,
    )

    # Parseval weights of the half layout for |u|_H^2, |u|_V^2 and (f, u)
    h_weight = grid.volume() * grid.half_weight
    v_weight = (grid.lambda1 * grid.half_k2) * h_weight
    f_weight = None if f_coeffs is None else h_weight * grid.to_half(f_coeffs)

    def power(c):
        return np.sum(c.real**2 + c.imag**2, axis=0)

    def record(i, c):
        p = power(c)
        hn[i] = np.sqrt(np.vdot(h_weight, p))
        vn[i] = np.sqrt(np.vdot(v_weight, p))
        fu[i] = 0.0 if f_weight is None else np.vdot(f_weight, c).real
        if lr is not None:
            lr[i] = lr_norm_kernel(grid, c, record_lr)

    def snapshot(i, c):
        traj.sample_times.append(float(t_arr[i]))
        traj.states.append(SpectralVelocity(grid, grid.to_full(c)))

    record(0, u)
    snapshot(0, u)
    dx_limit = cfl_safety * grid.dx
    prev = None
    for n in range(n_steps):
        g1, vmax = rhs(u, n)
        if vmax > 0.0 and h > dx_limit / vmax:
            raise CFLViolationError(
                f"step {h} exceeds CFL bound {dx_limit / vmax:.3e} "
                f"at t = {t_arr[n]:.6g} (max |u| = {vmax:.6g})"
            )
        mid = ex * (u + h * g1)
        g2, _ = rhs(mid, n)
        prev = u
        u = ex * (u + (0.5 * h) * g1) + (0.5 * h) * g2
        i = n + 1
        record(i, u)
        if not np.isfinite(hn[i]) or hn[i] > blowup_guard:
            raise BlowUpError(
                f"blow-up detected at t = {t_arr[i]:.6g}: |u|_H = {hn[i]:.6g}",
                t=float(t_arr[i]),
                h_norm=float(hn[i]),
            )
        if sample_every and i % sample_every == 0 and i != n_steps:
            snapshot(i, u)
    snapshot(n_steps, u)
    if prev is not None:
        traj.last_drift = float(np.sqrt(np.vdot(h_weight, power(u - prev)))) / h
    return traj


def simulate(
    u0: SpectralVelocity,
    params: PhysicsParams,
    T: float,
    h: float,
    *,
    sample_every: int = SolverSettings.snapshot_every,
    record_lr: bool = False,
    cfl_safety: float = SolverSettings.cfl_safety,
    blowup_guard: float = SolverSettings.blowup_guard,
) -> Trajectory:
    """Integrate the deterministic system over [0, T]."""
    SolverSettings.check(h=h, T=T)  # drive checks the rest
    grid = u0.grid
    params.validate_for_dim(grid.dim)
    if params.forcing is not None:
        u0.same_grid(params.forcing)
    n_steps = step_count(T, h, "solver.T")
    f_coeffs = None if params.forcing is None else params.forcing.coeffs
    rhs_u = _deterministic_rhs(grid, params, f_coeffs)
    return drive(
        grid,
        u0.coeffs,
        lambda c, n: rhs_u(c),
        params.mu,
        h,
        n_steps,
        sample_every=sample_every,
        record_lr=params.r if record_lr else None,
        cfl_safety=cfl_safety,
        blowup_guard=blowup_guard,
        f_coeffs=f_coeffs,
    )


def _cumtrapz(y: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * h * (y[1:] + y[:-1]))
    return out


def energy_residual(traj: Trajectory, params: PhysicsParams) -> np.ndarray:
    """Defect in the energy balance
    |u(t)|_H^2 + 2 mu int |u|_V^2 + 2 beta int |u|_{L^{r+1}}^{r+1}
      - |u(0)|_H^2 - 2 int (f, u),
    with the time integrals by trapezoidal quadrature on the step grid."""
    if params.beta != 0.0 and traj.lr_norm is None:
        raise ValidationError("trajectory lacks the L^{r+1} record needed for beta > 0")
    lhs = traj.h_norm**2 + 2.0 * params.mu * _cumtrapz(traj.v_norm**2, traj.h)
    if params.beta != 0.0:
        lhs = lhs + 2.0 * params.beta * _cumtrapz(
            traj.lr_norm ** (params.r + 1.0), traj.h
        )
    if params.darcy != 0.0:
        lhs = lhs + 2.0 * params.darcy * _cumtrapz(traj.h_norm**2, traj.h)
    rhs = traj.h_norm[0] ** 2 + 2.0 * _cumtrapz(traj.f_dot_u, traj.h)
    return lhs - rhs


def probe_field(grid: TorusGrid, seed: int) -> SpectralVelocity:
    """Reproducible unit-H-norm probe with a |k|^-2 spectrum up to N/4."""
    return random_field(grid, seed, h_norm=1.0, kmax=grid.N / 4.0, spectral_slope=-2.0)


@dataclass
class SingletonResult:
    a_star: SpectralVelocity
    converged: bool
    contraction_log: list
    condition: ConditionReport
    probe_seeds: list
    t_final: float


def find_singleton(
    params: PhysicsParams,
    grid: TorusGrid,
    tol: float = SolverSettings.tol,
    maxT: float = SolverSettings.T,
    n_probes: int = SolverSettings.n_probes,
    *,
    h: float = SolverSettings.h,
    check_every: float = 1.0,
    base_seed: int = 1000,
    constants: EstimateConstants | None = None,
    cfl_safety: float = SolverSettings.cfl_safety,
    blowup_guard: float = SolverSettings.blowup_guard,
) -> SingletonResult:
    """
    Contract several independent trajectories onto the attractor point.

    Probes start from reproducible random data and run until every pairwise
    H-distance and the discrete drift |u(t+h) - u(t)|_H / h fall below
    ``tol``, or until ``maxT``, which must be a whole number of steps ``h``.
    The checks come every ``check_every`` rounded to whole steps, and the
    last chunk is cut at the budget, so ``t_final <= maxT``.  The contraction
    log records (t, max pairwise distance, max drift) at every check time.
    Raises unless the small-forcing condition holds (which also requires
    darcy = 0).
    """
    SolverSettings.check(h=h, T=maxT, tol=tol, n_probes=n_probes)
    budget = step_count(maxT, h, "solver.T")
    condition = check_singleton_condition(params, grid, constants)
    if not condition.holds:
        raise ValidationError(
            f"singleton condition fails for {condition.regime}: "
            f"varrho = {condition.varrho:.6g}"
        )

    seeds = [base_seed + i for i in range(n_probes)]
    logger.info("singleton probes with seeds %s", seeds)
    states = [probe_field(grid, s).coeffs for s in seeds]
    f_coeffs = None if params.forcing is None else params.forcing.coeffs
    rhs_u = _deterministic_rhs(grid, params, f_coeffs)

    chunk_steps = max(1, int(round(check_every / h)))
    log = []
    converged = False
    t = 0.0
    for start in range(0, budget, chunk_steps):
        steps = min(chunk_steps, budget - start)
        drifts = []
        new_states = []
        for c in states:
            traj = drive(
                grid, c, lambda x, n: rhs_u(x), params.mu, h, steps,
                cfl_safety=cfl_safety, blowup_guard=blowup_guard, f_coeffs=f_coeffs,
            )
            new_states.append(traj.final_state.coeffs)
            drifts.append(traj.last_drift)
        states = new_states
        t += steps * h
        dmax = max(
            h_norm_kernel(grid, states[i] - states[j])
            for i in range(n_probes)
            for j in range(i + 1, n_probes)
        )
        drift = max(drifts)
        log.append((t, dmax, drift))
        if dmax < tol and drift < tol:
            converged = True
            break

    a_star = SpectralVelocity(grid, states[0])
    if not converged:
        logger.warning(
            "singleton search hit maxT = %s without contraction (dist %.3e, drift %.3e)",
            maxT, log[-1][1], log[-1][2],
        )
    return SingletonResult(
        a_star=a_star,
        converged=converged,
        contraction_log=log,
        condition=condition,
        probe_seeds=seeds,
        t_final=t,
    )
