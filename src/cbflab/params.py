"""Equation parameters, the noise-mode names, the user-supplied
trilinear-estimate constants, the solver settings with their defaults and
rules, and the rule that turns a time span into a whole number of steps."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

from .errors import ValidationError
from .fields import SpectralVelocity

#: Marker attached to every condition report built from default constants.
PROVISIONAL_LABEL = "provisional placeholders"
#: Marker attached to every condition report built from other constants.
USER_SUPPLIED_LABEL = "user-supplied"

#: Noise modes: which transform turns the stochastic system into a random PDE.
ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
NONE = "none"


def random_darcy_violations(mode: str, darcy: float) -> list:
    """The Darcy rule of the noise ``mode``: the transformed random systems
    are stated for darcy = 0, and mode none runs the deterministic one."""
    if mode != NONE and darcy != 0.0:
        return ["physics.darcy: the transformed random systems are stated for darcy = 0"]
    return []


def step_count(t: float, h: float, what: str) -> int:
    """The number of steps ``h`` in the time ``t``; raises unless ``h`` is
    positive and finite and ``t`` a whole multiple of it to 1e-9 relative.
    Every solver horizon and every noise-path index goes through here."""
    if not (0 < h < math.inf):
        raise ValidationError(f"{what}: the step must be positive and finite, got {h}")
    if not math.isfinite(t / h):
        raise ValidationError(f"{what}: {t} is not a finite number of steps {h}")
    n = round(t / h)
    if abs(n * h - t) > 1e-9 * max(1.0, abs(t)):
        raise ValidationError(f"{what}: {t} is not a multiple of the step {h}")
    return int(n)


_POSITIVE_FINITE = "must be positive and finite"

#: The rule of each solver setting: where it lives in a config, what it
#: needs and a comparison that NaN fails.
_SOLVER_RULES = {
    "h": ("solver.h", _POSITIVE_FINITE, lambda x: 0 < x < math.inf),
    "T": ("solver.T", _POSITIVE_FINITE, lambda x: 0 < x < math.inf),
    "t_pull": ("solver.t_pull", _POSITIVE_FINITE, lambda x: 0 < x < math.inf),
    "tol": ("solver.tol", _POSITIVE_FINITE, lambda x: 0 < x < math.inf),
    "pullback_tol": ("solver.pullback_tol", _POSITIVE_FINITE, lambda x: 0 < x < math.inf),
    "cfl_safety": ("solver.cfl_safety", "must lie in (0, 1]", lambda x: 0 < x <= 1),
    "blowup_guard": ("solver.blowup_guard", _POSITIVE_FINITE, lambda x: 0 < x < math.inf),
    "n_probes": ("solver.n_probes", "must be >= 2", lambda x: x >= 2),
    "snapshot_every": ("output.snapshot_every", "must be >= 0", lambda x: x >= 0),
}


@dataclass(frozen=True)
class SolverSettings:
    """The one default of every solver setting, named as in the config.

    ``config.SolverSection`` extends this class, and every solver signature
    takes its defaults from its attributes.  ``T`` is simulate's horizon and
    the singleton search budget (``maxT``); ``snapshot_every`` is
    ``output.snapshot_every``, the solvers' ``sample_every``.
    """

    h: float = 0.01
    T: float = 10.0
    t_pull: float = 40.0
    tol: float = 1.0e-8
    pullback_tol: float = 1.0e-4
    cfl_safety: float = 0.4
    blowup_guard: float = 1.0e6
    n_probes: int = 3
    snapshot_every: ClassVar[int] = 0

    @staticmethod
    def violations(**settings) -> list:
        """Every violated rule among ``settings``, passed by setting name."""
        return [
            f"{where}: {need}, got {value}"
            for key, value in settings.items()
            for where, need, holds in [_SOLVER_RULES[key]]
            if not holds(value)
        ]

    @staticmethod
    def check(**settings) -> None:
        """Raise ValidationError listing every violation of ``settings``."""
        problems = SolverSettings.violations(**settings)
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True)
class PhysicsParams:
    """
    Coefficients of the damped momentum equation
    du/dt + mu A u + B(u) + darcy u + beta |u|^(r-1) u = f.

    ``beta = 0`` disables the nonlinear damping (plain Navier-Stokes); the
    attractor-condition formulas themselves require ``beta > 0`` where they
    use it and enforce that separately.
    """

    mu: float
    beta: float
    r: float
    darcy: float = 0.0
    forcing: SpectralVelocity | None = None

    @staticmethod
    def violations(mu, beta, r, darcy, dim=None) -> list:
        """Every violated coefficient rule; with ``dim``, also the 3D
        well-posedness window (r >= 3, and 2 beta mu >= 1 at r = 3)."""
        problems = []
        if not (0 < mu < math.inf):
            problems.append(f"physics.mu: must be positive and finite, got {mu}")
        if not (0 <= beta < math.inf):
            problems.append(f"physics.beta: must be >= 0 and finite, got {beta}")
        if not (1 <= r < math.inf):
            problems.append(f"physics.r: absorption exponent must be >= 1 and finite, got {r}")
        if not (0 <= darcy < math.inf):
            problems.append(f"physics.darcy: must be >= 0 and finite, got {darcy}")
        if dim == 3:
            if not (r >= 3):
                problems.append(f"physics.r: 3D requires r >= 3, got {r}")
            elif r == 3 and not (2.0 * beta * mu >= 1.0):
                problems.append(
                    "physics.beta/mu: 3D with r = 3 requires 2*beta*mu >= 1, "
                    f"got {2.0 * beta * mu}"
                )
        return problems

    def __post_init__(self):
        problems = self.violations(self.mu, self.beta, self.r, self.darcy)
        if problems:
            raise ValidationError(problems)

    def validate_for_dim(self, dim: int) -> None:
        """Raise unless the parameters lie in the well-posedness window of ``dim``."""
        problems = self.violations(self.mu, self.beta, self.r, self.darcy, dim)
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True)
class EstimateConstants:
    """
    Constants of the interpolation estimates on the trilinear form.

    Exact values live in an external appendix, so they are configuration:
    the defaults are placeholders and every report that uses them says so.
    ``label`` is derived from the values, never set.
    """

    c1: float = math.sqrt(2.0)
    c3: float = 2.0
    label: str = field(init=False)

    @staticmethod
    def violations(c1, c3) -> list:
        return [
            f"constants.{name}: {_POSITIVE_FINITE}, got {val}"
            for name, val in (("c1", c1), ("c3", c3))
            if not (0 < val < math.inf)
        ]

    def __post_init__(self):
        problems = self.violations(self.c1, self.c3)
        if problems:
            raise ValidationError(problems)
        default = all(getattr(self, f.name) == f.default for f in fields(self) if f.init)
        object.__setattr__(self, "label", PROVISIONAL_LABEL if default else USER_SUPPLIED_LABEL)
