"""The noise of the transformed systems and pullback sampling.

The Stratonovich noise never appears as a stochastic integral: the additive
and multiplicative transforms of the driving OU process turn the stochastic
equations into random PDEs with pathwise coefficients, and those are what is
integrated.  Within a step the OU value is frozen at the left endpoint.

`deterministic.simulate` integrates the system a ``NoiseConfig``
transforms, and `deterministic.drive` builds its right-hand side from the
noise; with epsilon = 0 every noise term is zero and skipped, so the
reduction to the unperturbed solver is bit-for-bit, not merely close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deterministic import simulate
from .errors import GridMismatchError, ValidationError
from .fields import SpectralVelocity, zero_velocity
from .grid import TorusGrid
from .operators import h_norm_kernel
from .ou import OUPath, ou_path
from .params import ADDITIVE, MULTIPLICATIVE, NONE, PhysicsParams, SolverSettings, step_count

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
        if not (0 < ou_alpha < math.inf):
            problems.append(f"noise.ou_alpha: must be positive and finite, got {ou_alpha}")
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

    def path(self, t0: float, t1: float, h: float) -> OUPath:
        """The OU path of ``seed`` and ``ou_alpha`` on the grid of steps ``h``
        over [t0, t1].  The window also covers time 0, where the path is
        anchored, so a value does not depend on the window it was read from."""
        return ou_path(self.seed, self.ou_alpha, t_min=min(t0, -h), t_max=max(t1, 0.0), h_w=h)


def _reconstruct(v: SpectralVelocity, noise: NoiseConfig, z: float) -> SpectralVelocity:
    """The velocity u of a transformed state v at OU value z: v + eps z Phi or e^{eps z} v."""
    eps = noise.epsilon
    if eps == 0.0:
        return v
    if noise.mode == ADDITIVE:
        return SpectralVelocity(v.grid, v.coeffs + (eps * z) * noise.phi.coeffs)
    return SpectralVelocity(v.grid, math.exp(eps * z) * v.coeffs)


@dataclass
class PullbackSample:
    """Time-zero state of a pullback run: the attractor-sample approximation."""

    state: SpectralVelocity        # transformed variable v at time 0
    noise: NoiseConfig             # the noise it ran along
    t_pull: float
    converged: bool
    doubling_gap: float | None
    z_at_zero: float

    @property
    def reconstructed(self) -> SpectralVelocity:
        """u = v + eps z Phi or e^{eps z} v at time 0, derived from ``state`` on access."""
        return _reconstruct(self.state, self.noise, self.z_at_zero)


def pullback_sample(
    params: PhysicsParams,
    noise: NoiseConfig,
    t_pull: float,
    h: float,
    *,
    grid: TorusGrid,
    v0: SpectralVelocity | None = None,
    validate: bool = False,
    pullback_tol: float = SolverSettings.pullback_tol,
    cfl_safety: float = SolverSettings.cfl_safety,
    blowup_guard: float = SolverSettings.blowup_guard,
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
    SolverSettings.check(h=h, t_pull=t_pull, pullback_tol=pullback_tol)
    n = step_count(t_pull, h, "solver.t_pull")
    if validate and n < 2:
        raise ValidationError(f"solver.t_pull: the halving check needs 2 steps of h = {h}, got {n}")
    if v0 is None:
        v0 = zero_velocity(grid)
    elif not v0.grid.compatible(grid):
        raise GridMismatchError("v0 lives on a different grid than grid")

    def run(steps: int) -> SpectralVelocity:
        return simulate(
            v0, params, steps * h, h, noise=noise, t0=-steps * h,
            cfl_safety=cfl_safety, blowup_guard=blowup_guard,
        ).final_state

    state = run(n)
    z0 = 0.0 if noise.epsilon == 0.0 else noise.path(0.0, 0.0, h).value(0.0)

    converged = True
    gap = None
    if validate:
        half = run(n // 2)
        gap = h_norm_kernel(grid, state.coeffs - half.coeffs)
        converged = gap <= pullback_tol

    return PullbackSample(
        state=state,
        noise=noise,
        t_pull=t_pull,
        converged=converged,
        doubling_gap=gap,
        z_at_zero=z0,
    )
