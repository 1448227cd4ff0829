"""Time integration of the damped momentum equation and the singleton finder.

Scheme: the Stokes part is handled exactly by an exponential integrating
factor in Fourier space; advection, damping and the Darcy term go through an
explicit two-stage Runge-Kutta (Heun) stage, so the overall order is two and
there is no stiff diffusive step restriction.  An advective CFL guard aborts
instead of sub-stepping, which keeps trajectories bit-reproducible for a
given (initial data, h).

`drive`, the one integrator, builds the deterministic or noise-transformed
(see `random_pde`) tendency from the parameters and the noise.  Its state
is the half layout that `SpectralVelocity.half` stores (see `grid`).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .conditions import ConditionReport, check_singleton_condition, regime_inputs
from .errors import BlowUpError, CFLViolationError, ValidationError, value_range
from .fields import SpectralVelocity, random_field
from .grid import TorusGrid
from .operators import h_distance, lr_norm_kernel, nonlinear_kernel
from .params import (
    ADDITIVE, MULTIPLICATIVE, EstimateConstants, PhysicsParams, SolverSettings,
    random_darcy_violations, step_count,
)

logger = logging.getLogger(__name__)


@dataclass
class Trajectory:
    """Per-step norm series plus field snapshots at sample times."""

    h: float
    t: np.ndarray
    h_norm: np.ndarray
    v_norm: np.ndarray
    f_dot_u: np.ndarray
    lr_norm: np.ndarray | None
    sample_times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    last_drift: float = 0.0

    @property
    def final_state(self) -> SpectralVelocity:
        return self.states[-1]

    def rows(self, residual: np.ndarray):
        """CSV rows (t, h_norm, v_norm, lr_norm, energy_residual) of a ``record_lr`` run."""
        for i in range(len(self.t)):
            yield (self.t[i], self.h_norm[i], self.v_norm[i], self.lr_norm[i], residual[i])


def integrating_factor(grid: TorusGrid, mu: float, h: float) -> np.ndarray:
    """exp(-mu A h) on the half layout."""
    return np.exp(-(mu * grid.lambda1 * h) * grid.half_k2)


def _tendency(grid, params, noise, ou, t0, f_half):
    """Half-layout right-hand side of the system ``noise`` transforms, and its CFL velocity.

    With the OU value z frozen at each step's left endpoint, m = eps for
    multiplicative noise and s = eps z for additive noise (each 0 otherwise),
    the tendency is  -P(e^{m z} B(w) + beta e^{m (r-1) z} |w|^(r-1) w)
    + m alpha z u + e^{-m z} f - darcy u + s (alpha Phi - mu A Phi),  w = u + s Phi.
    f = ``f_half`` (None if unforced).  A term whose coefficient is 0 is skipped
    and a scale of exactly 1.0 is not multiplied, so ``noise=None`` and eps = 0
    execute exactly the arithmetic of the deterministic equation.
    """
    beta, r, darcy = params.beta, params.r, params.darcy
    eps = 0.0 if noise is None else noise.epsilon
    mult = eps if noise is not None and noise.mode == MULTIPLICATIVE else 0.0
    add = eps if noise is not None and noise.mode == ADDITIVE else 0.0
    alpha = 0.0 if noise is None else noise.ou_alpha
    j0 = None if eps == 0.0 else ou.index(t0)
    if add != 0.0:
        phi = noise.phi.half
        # eps z times this is the noise's own drive, eps z (alpha Phi - mu A Phi)
        with value_range("physics.mu", "noise.phi", "noise.ou_alpha"):
            phi_drive = alpha * phi - params.mu * (phi * (grid.lambda1 * grid.half_k2))

    def rhs(u, n):
        z = 0.0 if j0 is None else ou.value_at_index(j0 + n)
        shift = add * z
        adv = math.exp(mult * z)
        w = u + shift * phi if shift != 0.0 else u
        nl, vmax = nonlinear_kernel(grid, w, adv, beta * math.exp(mult * (r - 1.0) * z), r)
        out = -nl
        lin = mult * alpha * z
        if lin != 0.0:
            out += lin * u
        if f_half is not None:
            f_scale = math.exp(-mult * z)
            out += f_half if f_scale == 1.0 else f_scale * f_half
        if darcy != 0.0:
            out -= darcy * u
        if shift != 0.0:
            out += shift * phi_drive
        # advective CFL sees the reconstructed velocity, e^{eps z} v when multiplicative
        return out, adv * vmax

    return rhs


def drive(
    grid: TorusGrid,
    u0_half: np.ndarray,
    params: PhysicsParams,
    noise,
    h: float,
    n_steps: int,
    *,
    t0: float = 0.0,
    sample_every: int = SolverSettings.snapshot_every,
    record_lr: bool = False,
    cfl_safety: float = SolverSettings.cfl_safety,
    blowup_guard: float = SolverSettings.blowup_guard,
):
    """Integrating-factor Heun loop shared by every solver in the package.

    Integrates the deterministic system (``noise=None``) or the one that
    the ``random_pde.NoiseConfig`` ``noise`` transforms, with the physics
    ``params``; a noise with epsilon != 0 reads its OU values from the path
    ``noise.path`` draws on this run's steps, from index ``t0 / h`` on.
    The tendency is evaluated at the step's left endpoint for both stages, so
    any time dependence is treated as frozen within a step.  ``record_lr``
    records the L^{r+1} norm at ``params.r``.  Returns a Trajectory whose
    states hold the initial state, every ``sample_every``-th step and the
    final state.
    """
    SolverSettings.check(
        h=h, snapshot_every=sample_every, cfl_safety=cfl_safety, blowup_guard=blowup_guard
    )
    if n_steps < 1:
        raise ValidationError(f"horizon: need at least one step of h = {h}, got {n_steps}")
    ou = None if noise is None or noise.epsilon == 0.0 else noise.path(t0, t0 + n_steps * h, h)
    if ou is not None and noise.mode == MULTIPLICATIVE:
        # raises if the largest scale a step applies, e^{eps |z| max(1, r - 1)}
        # over the z the run reads, leaves the float range
        j = ou.index(t0) - ou.j_min
        with value_range("noise.epsilon", "noise.ou_alpha"):
            np.exp(noise.epsilon * np.max(np.abs(ou.values[j : j + n_steps]))
                   * max(1.0, params.r - 1.0))
    f_half = None if params.forcing is None else params.forcing.half
    rhs = _tendency(grid, params, noise, ou, t0, f_half)
    with value_range("grid.L", "physics.mu", "physics.forcing", "solver.h"):
        ex = integrating_factor(grid, params.mu, h)
        # Parseval weights of the half layout for |u|_H^2, |u|_V^2 and (f, u)
        h_weight = grid.volume() * grid.half_weight
        v_weight = (grid.lambda1 * grid.half_k2) * h_weight
        f_weight = None if f_half is None else h_weight * f_half
    u = u0_half
    n_rec = n_steps + 1
    t_arr = t0 + h * np.arange(n_rec)
    hn = np.empty(n_rec)
    vn = np.empty(n_rec)
    fu = np.empty(n_rec)
    lr = np.empty(n_rec) if record_lr else None

    traj = Trajectory(h=h, t=t_arr, h_norm=hn, v_norm=vn, f_dot_u=fu, lr_norm=lr)

    def power(c):
        return np.sum(c.real**2 + c.imag**2, axis=0)

    def record(i, c):
        p = power(c)
        hn[i] = np.sqrt(np.vdot(h_weight, p))
        vn[i] = np.sqrt(np.vdot(v_weight, p))
        fu[i] = 0.0 if f_weight is None else np.vdot(f_weight, c).real
        if lr is not None:
            lr[i] = lr_norm_kernel(grid, c, params.r)

    def snapshot(i, c):
        traj.sample_times.append(float(t_arr[i]))
        traj.states.append(SpectralVelocity(grid, c))

    dx_limit = cfl_safety * grid.dx
    prev = None
    # an overflow on the way to a blow-up shows as the non-finite |u|_H below
    with np.errstate(over="ignore", invalid="ignore"):
        record(0, u)
        snapshot(0, u)
        for n in range(n_steps):
            g1, vmax = rhs(u, n)
            if vmax > 0.0 and h > dx_limit / vmax:
                raise CFLViolationError(
                    f"solver.h, solver.cfl_safety: step {h} exceeds CFL bound "
                    f"{dx_limit / vmax:.3e} at t = {t_arr[n]:.6g} (max |u| = {vmax:.6g})"
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
    noise=None,
    t0: float = 0.0,
    sample_every: int = SolverSettings.snapshot_every,
    record_lr: bool = False,
    cfl_safety: float = SolverSettings.cfl_safety,
    blowup_guard: float = SolverSettings.blowup_guard,
) -> Trajectory:
    """Integrate over [t0, t0 + T] the deterministic system, or the one that
    the ``random_pde.NoiseConfig`` ``noise`` transforms.

    Additive noise is 2D only, multiplicative noise runs in 2D and 3D, and
    mode ``none`` (epsilon = 0) runs the deterministic right-hand side.  The
    transformed systems are stated for darcy = 0.  With epsilon != 0 they
    run along the OU path that ``noise.path`` draws on the grid of steps
    ``h``, so ``t0`` must be a whole number of steps.  The states are the
    transformed variable v.
    """
    SolverSettings.check(h=h, T=T)  # drive checks the rest
    grid = u0.grid
    params.validate_for_dim(grid.dim)
    if params.forcing is not None:
        u0.same_grid(params.forcing)
    n_steps = step_count(T, h, "solver.T")
    if noise is not None:
        problems = random_darcy_violations(noise.mode, params.darcy)
        if problems:
            raise ValidationError(problems)
        if noise.phi is not None:
            u0.same_grid(noise.phi)
    return drive(
        grid,
        u0.half,
        params,
        noise,
        h,
        n_steps,
        t0=t0,
        sample_every=sample_every,
        record_lr=record_lr,
        cfl_safety=cfl_safety,
        blowup_guard=blowup_guard,
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
    # mu * (2 int), not 2 mu * int: 0 at t = 0 even for mu = 1e308; an overflow reads inf
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = traj.h_norm**2 + params.mu * (2.0 * _cumtrapz(traj.v_norm**2, traj.h))
        if params.beta != 0.0:
            lhs = lhs + params.beta * (2.0 * _cumtrapz(
                traj.lr_norm ** (params.r + 1.0), traj.h
            ))
        if params.darcy != 0.0:
            lhs = lhs + params.darcy * (2.0 * _cumtrapz(traj.h_norm**2, traj.h))
        rhs = traj.h_norm[0] ** 2 + 2.0 * _cumtrapz(traj.f_dot_u, traj.h)
        return lhs - rhs


def probe_field(grid: TorusGrid, seed: int) -> SpectralVelocity:
    """Reproducible unit-H-norm probe with a |k|^-2 spectrum up to N/4."""
    return random_field(grid, seed)


@dataclass
class SingletonResult:
    a_star: SpectralVelocity
    converged: bool
    contraction_log: list
    condition: ConditionReport
    probe_seeds: list
    t_final: float

    def contraction_slope(self) -> float:
        """Least-squares slope of 2 log d against t over the log's checks with
        t >= 3 and d > 1e-11: the decay rate of the squared pairwise
        H-distance, which the singleton condition bounds by -varrho/2."""
        tail = [(t, d) for t, d, _ in self.contraction_log if t >= 3.0 and d > 1e-11]
        if len(tail) < 3:
            raise ValidationError(
                f"contraction log: {len(tail)} checks with t >= 3 and distance > 1e-11, "
                "a fit needs 3"
            )
        t, d = np.array(tail).T
        return float(np.polyfit(t, 2.0 * np.log(d), 1)[0])


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
    if not (check_every > 0 and math.isfinite(check_every / h)):
        raise ValidationError(f"check_every: must be positive and finite, got {check_every}")
    condition = check_singleton_condition(params, grid, constants)
    if not condition.holds:
        raise ValidationError(
            f"{', '.join(regime_inputs(condition.regime))}: singleton condition fails "
            f"for {condition.regime}: varrho = {condition.varrho:.6g}"
        )

    seeds = [base_seed + i for i in range(n_probes)]
    logger.info("singleton probes with seeds %s", seeds)
    states = [probe_field(grid, s) for s in seeds]

    chunk_steps = max(1, int(round(check_every / h)))
    log = []
    converged = False
    t = 0.0
    for start in range(0, budget, chunk_steps):
        steps = min(chunk_steps, budget - start)
        drifts = []
        new_states = []
        for u in states:
            traj = drive(
                grid, u.half, params, None, h, steps,
                cfl_safety=cfl_safety, blowup_guard=blowup_guard,
            )
            new_states.append(traj.final_state)
            drifts.append(traj.last_drift)
        states = new_states
        t = (start + steps) * h
        dmax = max(
            h_distance(states[i], states[j])
            for i in range(n_probes)
            for j in range(i + 1, n_probes)
        )
        drift = max(drifts)
        log.append((t, dmax, drift))
        if dmax < tol and drift < tol:
            converged = True
            break

    if not converged:
        logger.warning(
            "singleton search hit maxT = %s without contraction (dist %.3e, drift %.3e)",
            maxT, log[-1][1], log[-1][2],
        )
    return SingletonResult(
        a_star=states[0],
        converged=converged,
        contraction_log=log,
        condition=condition,
        probe_seeds=seeds,
        t_final=t,
    )
