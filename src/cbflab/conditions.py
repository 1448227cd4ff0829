"""Grashof number and the small-forcing conditions for a singleton attractor.

Each regime carries two equivalent formulations: a threshold on the Grashof
number G and the positivity of a decay margin (varrho).  ``holds`` is defined
as ``varrho > 0``; the threshold is reported alongside and agrees except on
the measure-zero boundary.  The formula helpers accept numpy arrays so the
equivalence can be exercised in bulk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ValidationError
from .grid import TorusGrid
from .operators import h_norm
from .params import EstimateConstants, PhysicsParams

REGIMES = ("2D-C1", "2D-C3", "3D-r>3", "3D-r=3")


def forcing_h_norm(params: PhysicsParams) -> float:
    return 0.0 if params.forcing is None else h_norm(params.forcing)


def grashof(params: PhysicsParams, grid: TorusGrid) -> float:
    """G = |f|_H / (mu^2 lambda1), the nondimensional forcing intensity."""
    return forcing_h_norm(params) / (params.mu**2 * grid.lambda1)


def eta3(mu, beta, r):
    """Damping-absorbed advection constant for 3D, r > 3."""
    return (r - 3.0) / (mu * (r - 1.0)) * (4.0 / (beta * mu * (r - 1.0))) ** (
        2.0 / (r - 3.0)
    )


# -- regime formulas (vectorizable) -----------------------------------------

def varrho_2d(mu, lam1, c1, f_h):
    s = 1.0 + 1.0 / (mu * lam1) + 1.0 / (mu * lam1) ** 2
    return mu * lam1 - (c1**2 / mu**2) * s * f_h**2


def threshold_2d(mu, lam1, c1):
    ml = mu * lam1
    return (1.0 / c1) * np.sqrt(ml / (1.0 + ml + ml**2))


def varrho_2d_alt(mu, lam1, c1, f_h):
    return mu * lam1 - c1**2 * f_h**2 / (mu**3 * lam1)


def threshold_2d_alt(mu, lam1, c1):
    return 1.0 / c1 + 0.0 * mu


def varrho_3d(mu, lam1, c3, f_h, eta):
    s = 2.0 + (2.0 * eta + 1.0) / (mu * lam1) + (2.0 * eta + 1.0) / (mu * lam1) ** 2
    return mu * lam1 - (27.0 * c3**4 / (16.0 * mu**5)) * s**2 * f_h**4


def threshold_3d(mu, lam1, c3, eta):
    ml = mu * lam1
    d = 2.0 * eta + 1.0 + (2.0 * eta + 1.0) * ml + 2.0 * ml**2
    return (1.0 / c3) * np.sqrt(4.0 * mu * np.sqrt(lam1) / (3.0 * np.sqrt(3.0) * d))


def varrho_3d_crit(mu, lam1, c3, f_h):
    s = 1.0 + 1.0 / (mu * lam1) + 1.0 / (mu * lam1) ** 2
    return mu * lam1 - (27.0 * c3**4 / (16.0 * mu**5)) * s**2 * f_h**4


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
        lines.append(
            f"constants: c1 = {c.c1!r}, c2 = {c.c2!r}, c3 = {c.c3!r} ({c.label})"
        )
        return "\n".join(lines)


def default_regime(params: PhysicsParams, grid: TorusGrid) -> str:
    if grid.dim == 2:
        return "2D-C1"
    return "3D-r=3" if params.r == 3 else "3D-r>3"


def check_singleton_condition(
    params: PhysicsParams,
    grid: TorusGrid,
    constants: EstimateConstants | None = None,
    regime: str | None = None,
) -> ConditionReport:
    """Evaluate the small-forcing condition for the requested regime."""
    if params.forcing is not None and not params.forcing.grid.compatible(grid):
        raise GridMismatchError("the forcing lives on a different grid than grid")
    constants = constants or EstimateConstants()
    regime = regime or default_regime(params, grid)
    if regime not in REGIMES:
        raise ValidationError(f"regime: unknown regime {regime!r}, want one of {REGIMES}")
    if params.darcy != 0.0:
        raise ValidationError("physics.darcy: condition checker requires darcy = 0")

    mu, lam1 = params.mu, grid.lambda1
    f_h = forcing_h_norm(params)
    eta = None

    if regime.startswith("2D"):
        if grid.dim != 2:
            raise ValidationError(f"regime: {regime} requires a 2D grid")
        if regime == "2D-C1":
            rho = varrho_2d(mu, lam1, constants.c1, f_h)
            thr = threshold_2d(mu, lam1, constants.c1)
        else:
            rho = varrho_2d_alt(mu, lam1, constants.c1, f_h)
            thr = threshold_2d_alt(mu, lam1, constants.c1)
    else:
        if grid.dim != 3:
            raise ValidationError(f"regime: {regime} requires a 3D grid")
        params.validate_for_dim(3)
        if regime == "3D-r>3":
            if params.r <= 3:
                raise ValidationError("regime: 3D-r>3 requires r > 3")
            if params.beta <= 0:
                raise ValidationError("physics.beta: 3D r > 3 condition requires beta > 0")
            eta = float(eta3(mu, params.beta, params.r))
            rho = varrho_3d(mu, lam1, constants.c3, f_h, eta)
            thr = threshold_3d(mu, lam1, constants.c3, eta)
        else:
            if params.r != 3:
                raise ValidationError("regime: 3D-r=3 requires r = 3")
            rho = varrho_3d_crit(mu, lam1, constants.c3, f_h)
            thr = threshold_3d_crit(mu, lam1, constants.c3)

    rho = float(rho)
    return ConditionReport(
        regime=regime,
        grashof=float(grashof(params, grid)),
        threshold=float(thr),
        varrho=rho,
        holds=rho > 0.0,
        eta3=eta,
        constants=constants,
    )
