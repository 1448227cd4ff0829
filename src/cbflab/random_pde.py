"""Pathwise solvers for the noise-transformed systems and pullback sampling.

The Stratonovich noise never appears as a stochastic integral: the additive
and multiplicative transforms of the driving OU process turn the stochastic
equations into random PDEs with pathwise coefficients, and those are what is
integrated.  Within a step the OU value is frozen at the left endpoint.

With epsilon = 0 both transformed right-hand sides fall back to the exact
deterministic arithmetic, so the reduction to the unperturbed solver is
bit-for-bit, not merely close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deterministic import (
    DEFAULT_BLOWUP_GUARD,
    DEFAULT_CFL_SAFETY,
    Trajectory,
    _deterministic_rhs,
    drive,
)
from .errors import GridMismatchError, ValidationError
from .fields import SpectralVelocity, zero_velocity
from .grid import TorusGrid
from .operators import h_norm_kernel, nonlinear_kernel, stokes_kernel
from .ou import OUPath, ou_path
from .params import PhysicsParams, step_count

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
NONE = "none"

#: |k| band limit for the additive noise profile, as a fraction of N.
PHI_BAND_FRACTION = 0.25


@dataclass(frozen=True)
class NoiseConfig:
    """Noise mode, intensity and OU parameters for one experiment.

    epsilon = 0 is admitted as the exact deterministic reduction even though
    the perturbation theory itself works with epsilon in (0, 1].
    """

    mode: str
    epsilon: float = 0.0
    phi: SpectralVelocity | None = None
    ou_alpha: float = 1.0
    seed: int = 0

    @staticmethod
    def violations(mode, epsilon, ou_alpha, has_phi, dim=None) -> list:
        """Every violated noise rule; ``dim`` is the grid dimension when known.

        The band limit of the profile is checked on the built field only.
        """
        problems = []
        if mode not in (NONE, ADDITIVE, MULTIPLICATIVE):
            problems.append(
                f"noise.mode: must be one of {(NONE, ADDITIVE, MULTIPLICATIVE)}, got {mode!r}"
            )
        if not (0.0 <= epsilon <= 1.0):
            problems.append(f"noise.epsilon: must lie in [0, 1], got {epsilon}")
        if mode == NONE and epsilon != 0.0:
            problems.append("noise.epsilon: mode 'none' requires epsilon = 0")
        if not (ou_alpha > 0):
            problems.append(f"noise.ou_alpha: must be positive, got {ou_alpha}")
        if mode == ADDITIVE:
            if dim not in (None, 2):
                problems.append("noise.mode: additive noise is 2D only (no 3D additive theory)")
            if not has_phi:
                problems.append("noise.phi: additive mode requires a noise profile")
        elif has_phi:
            problems.append("noise.phi: only meaningful for additive noise")
        return problems

    def __post_init__(self):
        phi = self.phi
        problems = self.violations(
            self.mode, self.epsilon, self.ou_alpha, phi is not None,
            None if phi is None else phi.grid.dim,
        )
        if self.mode == ADDITIVE and phi is not None:
            g = phi.grid
            live = np.any(np.abs(phi.coeffs), axis=0)
            if np.any(live & (np.sqrt(g.k2) > PHI_BAND_FRACTION * g.N)):
                problems.append(
                    f"noise.phi: must be band-limited to |k| <= N/4 = "
                    f"{PHI_BAND_FRACTION * g.N}"
                )
        if problems:
            raise ValidationError(problems)


def _additive_rhs(grid, params, noise, ou: OUPath, j0: int):
    """Half-layout tendency of v' + mu A v + B(v + eps z Phi) + beta C(v + eps z Phi)
    = f + eps alpha z Phi - eps mu z A Phi, with z frozen per step."""
    eps = noise.epsilon
    f_coeffs = None if params.forcing is None else params.forcing.coeffs
    det = _deterministic_rhs(grid, params, f_coeffs)
    if eps == 0.0:
        return lambda coeffs, n: det(coeffs)

    phi = grid.to_half(noise.phi.coeffs)
    # eps z times this is the noise's own drive, eps z (alpha Phi - mu A Phi)
    a_phi = grid.to_half(stokes_kernel(grid, noise.phi.coeffs))
    phi_drive = noise.ou_alpha * phi - params.mu * a_phi
    f_half = None if f_coeffs is None else grid.to_half(f_coeffs)
    beta, r = params.beta, params.r

    def rhs(v, n):
        eps_z = eps * ou.value_at_index(j0 + n)
        nl, vmax = nonlinear_kernel(grid, v + eps_z * phi, 1.0, beta, r)
        out = -nl if f_half is None else f_half - nl
        out += eps_z * phi_drive
        return out, vmax

    return rhs


def _multiplicative_rhs(grid, params, noise, ou: OUPath, j0: int):
    """Half-layout tendency of v' + mu A v + e^{eps z} B(v) + beta e^{eps (r-1) z} C(v)
    = f e^{-eps z} + eps alpha z v, with z frozen per step."""
    eps = noise.epsilon
    f_coeffs = None if params.forcing is None else params.forcing.coeffs
    det = _deterministic_rhs(grid, params, f_coeffs)
    if eps == 0.0:
        return lambda coeffs, n: det(coeffs)

    f_half = None if f_coeffs is None else grid.to_half(f_coeffs)
    alpha = noise.ou_alpha
    beta, r = params.beta, params.r

    def rhs(v, n):
        z = ou.value_at_index(j0 + n)
        ez = math.exp(eps * z)
        nl, vmax = nonlinear_kernel(grid, v, ez, beta * math.exp(eps * (r - 1.0) * z), r)
        out = (eps * alpha * z) * v - nl
        if f_half is not None:
            out += math.exp(-eps * z) * f_half
        # advective CFL sees the reconstructed velocity u = e^{eps z} v
        return out, ez * vmax

    return rhs


@dataclass
class RandomTrajectory:
    """Transformed-variable trajectory plus reconstructed velocities."""

    v: Trajectory
    u_states: list
    z_at_samples: list
    mode: str
    epsilon: float


def solve_transformed(
    v0: SpectralVelocity, params: PhysicsParams, noise: NoiseConfig,
    ou: OUPath, interval, h: float, *,
    sample_every: int = 0, cfl_safety: float = DEFAULT_CFL_SAFETY,
    blowup_guard: float = DEFAULT_BLOWUP_GUARD,
) -> RandomTrajectory:
    """Integrate the system transformed by ``noise.mode`` over ``interval``.

    Additive noise is 2D only, multiplicative noise runs in 2D and 3D, and
    mode ``none`` (epsilon = 0) runs the deterministic right-hand side.
    """
    grid = v0.grid
    params.validate_for_dim(grid.dim)
    if params.darcy != 0.0:
        raise ValidationError(
            "physics.darcy: the transformed random systems are stated for darcy = 0"
        )
    if params.forcing is not None:
        v0.same_grid(params.forcing)
    if noise.phi is not None:
        v0.same_grid(noise.phi)
    t0, t1 = interval
    n_steps = step_count(t1 - t0, h, f"interval [{t0}, {t1}]")
    if noise.epsilon != 0.0:
        if abs(ou.alpha - noise.ou_alpha) > 0:
            raise ValidationError("ou path alpha differs from noise.ou_alpha")
        j0 = ou.index(t0)
        ou.index(t1)  # domain check
    else:
        j0 = 0

    make_rhs = _additive_rhs if noise.mode == ADDITIVE else _multiplicative_rhs
    rhs = make_rhs(grid, params, noise, ou, j0)
    f_coeffs = None if params.forcing is None else params.forcing.coeffs
    traj = drive(
        grid, v0.coeffs, rhs, params.mu, h, n_steps,
        sample_every=sample_every, cfl_safety=cfl_safety,
        blowup_guard=blowup_guard, t0=t0, f_coeffs=f_coeffs,
    )

    eps = noise.epsilon
    z_samples = [ou.value(ts) if eps != 0.0 else 0.0 for ts in traj.sample_times]
    u_states = [
        _reconstruct(state, noise.mode, eps, z, noise.phi)
        for state, z in zip(traj.states, z_samples)
    ]
    return RandomTrajectory(
        v=traj, u_states=u_states, z_at_samples=z_samples, mode=noise.mode, epsilon=eps
    )


def _reconstruct(
    v: SpectralVelocity, mode: str, eps: float, z: float, phi: SpectralVelocity | None
) -> SpectralVelocity:
    """The velocity u of a transformed state v at OU value z: v + eps z Phi or e^{eps z} v."""
    if eps == 0.0:
        return v
    if mode == ADDITIVE:
        return SpectralVelocity(v.grid, v.coeffs + (eps * z) * phi.coeffs)
    return SpectralVelocity(v.grid, math.exp(eps * z) * v.coeffs)


@dataclass
class PullbackSample:
    """Time-zero state of a pullback run: the attractor-sample approximation."""

    state: SpectralVelocity        # transformed variable v at time 0
    t_pull: float
    seed: int
    epsilon: float
    mode: str
    converged: bool
    doubling_gap: float | None
    z_at_zero: float
    phi: SpectralVelocity | None = None  # the additive noise profile

    @property
    def reconstructed(self) -> SpectralVelocity:
        """u = v + eps z Phi or e^{eps z} v at time 0, derived from ``state`` on access."""
        return _reconstruct(self.state, self.mode, self.epsilon, self.z_at_zero, self.phi)


def pullback_sample(
    params: PhysicsParams,
    noise: NoiseConfig,
    t_pull: float,
    h: float,
    *,
    grid: TorusGrid,
    v0: SpectralVelocity | None = None,
    validate: bool = False,
    pullback_tol: float = 1.0e-6,
    cfl_safety: float = DEFAULT_CFL_SAFETY,
    blowup_guard: float = DEFAULT_BLOWUP_GUARD,
) -> PullbackSample:
    """
    Integrate the transformed system from time -t_pull to 0 along the noise
    path ``noise.seed`` shifted by theta_{-t_pull} and return the state at
    time 0.  ``t_pull`` must be a whole number n of steps ``h``.

    The initial state defaults to the zero field on ``grid`` (any bounded set
    is pulled in; zero is canonical).  With ``validate=True`` a second run of
    n // 2 steps measures the stabilization gap, and the sample is flagged
    non-converged when the gap exceeds ``pullback_tol``.
    """
    if t_pull <= 0:
        raise ValidationError(f"t_pull: must be positive, got {t_pull}")
    n = step_count(t_pull, h, "t_pull")
    mode = noise.mode if noise.mode != NONE else MULTIPLICATIVE
    if v0 is None:
        v0 = zero_velocity(grid)
    elif not v0.grid.compatible(grid):
        raise GridMismatchError("v0 lives on a different grid than grid")

    def run(steps: int) -> RandomTrajectory:
        ou = ou_path(noise.seed, noise.ou_alpha, t_min=-steps * h, t_max=0.0, h_w=h)
        return solve_transformed(
            v0, params, noise, ou, (-steps * h, 0.0), h,
            cfl_safety=cfl_safety, blowup_guard=blowup_guard,
        )

    traj = run(n)
    state = traj.v.final_state
    z0 = traj.z_at_samples[-1]

    converged = True
    gap = None
    if validate:
        half = run(n // 2)
        gap = h_norm_kernel(grid, state.coeffs - half.v.final_state.coeffs)
        converged = gap <= pullback_tol

    return PullbackSample(
        state=state,
        t_pull=t_pull,
        seed=noise.seed,
        epsilon=noise.epsilon,
        mode=mode,
        converged=converged,
        doubling_gap=gap,
        z_at_zero=z0,
        phi=noise.phi,
    )
