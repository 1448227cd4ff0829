"""Grashof number and the small-forcing conditions for a singleton attractor.

The paper states each condition as a threshold on the Grashof number
G = |f|_H / (mu^2 lambda1), one formula per regime: ``threshold_2d``
(2D-C1) and ``threshold_2d_alt`` (2D-C3) for r >= 1 in 2D, ``threshold_3d``
(3D-r>3, with the constant ``eta3``) and ``threshold_3d_crit`` (3D-r=3,
where 2 beta mu >= 1) in 3D.  The decay margin comes from the same
threshold, varrho = mu lambda1 (1 - (G / threshold)^p) with p = 2 in 2D and
p = 4 in 3D: the paper's varrho, whose factor s is the threshold's
denominator over (mu lambda1)^2.  ``holds`` is ``varrho > 0``, i.e.
G < threshold.  The threshold helpers accept numpy arrays.

Range rule: G, the threshold and varrho are computed in one
``errors.value_range`` scope.  An overflow, an invalid operation, a zero
divisor or a non-finite G, threshold or varrho raises one ValidationError
that names the inputs the formulas read: grid.L, physics.mu and
physics.forcing, and physics.beta and physics.r in regime 3D-r>3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ValidationError, value_range
from .grid import TorusGrid
from .operators import h_norm
from .params import EstimateConstants, PhysicsParams

REGIMES = ("2D-C1", "2D-C3", "3D-r>3", "3D-r=3")


def grashof(params: PhysicsParams, grid: TorusGrid) -> float:
    """G = |f|_H / (mu^2 lambda1), the nondimensional forcing intensity."""
    f_h = 0.0 if params.forcing is None else h_norm(params.forcing)
    return f_h / (params.mu**2 * grid.lambda1)


def eta3(mu, beta, r):
    """Damping-absorbed advection constant for 3D, r > 3."""
    return (r - 3.0) / (mu * (r - 1.0)) * (4.0 / (beta * mu * (r - 1.0))) ** (
        2.0 / (r - 3.0)
    )


# -- regime formulas (vectorizable) -----------------------------------------

def threshold_2d(mu, lam1, c1):
    ml = mu * lam1
    return (1.0 / c1) * np.sqrt(ml / (1.0 + ml + ml**2))


def threshold_2d_alt(mu, lam1, c1):
    return 1.0 / c1 + 0.0 * mu


def threshold_3d(mu, lam1, c3, eta):
    ml = mu * lam1
    d = 2.0 * eta + 1.0 + (2.0 * eta + 1.0) * ml + 2.0 * ml**2
    return (1.0 / c3) * np.sqrt(4.0 * mu * np.sqrt(lam1) / (3.0 * np.sqrt(3.0) * d))


def threshold_3d_crit(mu, lam1, c3):
    ml = mu * lam1
    d = 1.0 + ml + ml**2
    return (1.0 / c3) * np.sqrt(4.0 * mu * np.sqrt(lam1) / (3.0 * np.sqrt(3.0) * d))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a singleton-attractor condition check."""

    regime: str
    grashof: float
    threshold: float
    varrho: float
    holds: bool
    eta3: float | None
    constants: EstimateConstants

    def summary(self) -> str:
        lines = [
            f"regime: {self.regime}",
            f"holds: {str(self.holds).lower()}, varrho = {self.varrho!r}",
            f"grashof G = {self.grashof!r}, threshold = {self.threshold!r}",
        ]
        if self.eta3 is not None:
            lines.append(f"eta3 = {self.eta3!r}")
        c = self.constants
        lines.append(f"constants: c1 = {c.c1!r}, c3 = {c.c3!r} ({c.label})")
        return "\n".join(lines)


def regime_inputs(regime: str) -> list:
    """The config paths that ``regime``'s Grashof number, threshold and varrho read."""
    inputs = ["grid.L", "physics.mu", "physics.forcing"]
    return inputs + ["physics.beta", "physics.r"] if regime == "3D-r>3" else inputs


def check_singleton_condition(
    params: PhysicsParams,
    grid: TorusGrid,
    constants: EstimateConstants | None = None,
    regime: str | None = None,
) -> ConditionReport:
    """Evaluate the small-forcing condition for the requested regime."""
    if params.forcing is not None and params.forcing.grid != grid:
        raise GridMismatchError("the forcing lives on a different grid than grid")
    constants = constants or EstimateConstants()
    if regime is None:
        regime = "2D-C1" if grid.dim == 2 else "3D-r=3" if params.r == 3 else "3D-r>3"
    if regime not in REGIMES:
        raise ValidationError(f"regime: unknown regime {regime!r}, want one of {REGIMES}")
    if params.darcy != 0.0:
        raise ValidationError("physics.darcy: condition checker requires darcy = 0")

    if grid.dim != int(regime[0]):
        raise ValidationError(f"regime: {regime} requires a {regime[:2]} grid")
    if grid.dim == 3:
        params.validate_for_dim(3)
    if regime == "3D-r=3" and params.r != 3:
        raise ValidationError("regime: 3D-r=3 requires r = 3")
    if regime == "3D-r>3" and params.r <= 3:
        raise ValidationError("regime: 3D-r>3 requires r > 3")
    if regime == "3D-r>3" and params.beta <= 0:
        raise ValidationError("physics.beta: 3D r > 3 condition requires beta > 0")

    mu, lam1, c1, c3 = params.mu, grid.lambda1, constants.c1, constants.c3
    eta = None
    with value_range(*regime_inputs(regime)):
        g = grashof(params, grid)
        if regime == "2D-C1":
            thr = threshold_2d(mu, lam1, c1)
        elif regime == "2D-C3":
            thr = threshold_2d_alt(mu, lam1, c1)
        elif regime == "3D-r=3":
            thr = threshold_3d_crit(mu, lam1, c3)
        else:
            eta = float(eta3(mu, params.beta, params.r))
            thr = threshold_3d(mu, lam1, c3, eta)
        p = 2 if grid.dim == 2 else 4
        rho = mu * lam1 * (1.0 - (g / thr) ** p)
        if not all(map(math.isfinite, (g, thr, rho))):
            raise FloatingPointError("G, threshold or varrho is not finite")

    return ConditionReport(
        regime=regime,
        grashof=float(g),
        threshold=float(thr),
        varrho=float(rho),
        holds=bool(rho > 0.0),
        eta3=eta,
        constants=constants,
    )
