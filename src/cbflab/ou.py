"""Two-sided Wiener paths and the stationary Ornstein-Uhlenbeck process.

Innovations are drawn from per-block substreams keyed by (seed, branch,
block), so extending a path further into negative time never changes values
already on the grid.  The OU recursion

    z_{j+1} = e^{-alpha h} z_j + xi_j sqrt((1 - e^{-2 alpha h}) / (2 alpha))

is exact in law for every step; it is anchored at t = 0 with a stationary
draw and run forward in time on the positive branch and in reversed time on
the negative branch.  Both directions are valid because the stationary OU
process is Markov and time-reversible, and anchoring at zero keeps z on a
window [-t, 0] unchanged when the window is later enlarged - which is what
makes pullback-horizon doubling tests meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .params import step_count

_BLOCK = 512
_BRANCH_POS = 1
_BRANCH_NEG = 2
_TAG_INIT = 3


def _block_normals(seed: int, branch: int, block: int) -> np.ndarray:
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFF, branch, block])
    return np.random.default_rng(ss).standard_normal(_BLOCK)


def _innovations(seed: int, branch: int, count: int) -> np.ndarray:
    if count == 0:
        return np.zeros(0)
    blocks = [
        _block_normals(seed, branch, b) for b in range(math.ceil(count / _BLOCK))
    ]
    return np.concatenate(blocks)[:count]


@dataclass(frozen=True)
class _GridPath:
    """Samples ``values[j - j_min]`` at the times j h_w, j_min <= j <= j_max."""

    seed: int
    h_w: float
    j_min: int
    j_max: int
    values: np.ndarray

    def index(self, t: float) -> int:
        j = step_count(t, self.h_w, "time")
        if not (self.j_min <= j <= self.j_max):
            raise ValidationError(
                f"time {t} outside path domain [{self.j_min * self.h_w}, "
                f"{self.j_max * self.h_w}]"
            )
        return j

    def value(self, t: float) -> float:
        """The sample at grid-aligned time t; z(theta_t omega) on an OUPath."""
        return float(self.values[self.index(t) - self.j_min])

    def value_at_index(self, j: int) -> float:
        return float(self.values[j - self.j_min])

    def times(self) -> np.ndarray:
        return self.h_w * np.arange(self.j_min, self.j_max + 1)


@dataclass(frozen=True)
class WienerPath(_GridPath):
    """Scalar two-sided Wiener sample on a uniform grid containing 0."""

    xi_pos: np.ndarray  # normalized increments W((j+1)h) - W(jh), j >= 0
    xi_neg: np.ndarray  # normalized increments building W(-(m+1)h) from W(-mh)


def sample_wiener(seed: int, t_min: float, t_max: float, h_w: float) -> WienerPath:
    """Sample W on the grid {j h_w : t_min <= j h_w <= t_max}, W(0) = 0."""
    if not (t_min < 0 <= t_max):
        raise ValidationError(
            f"degenerate interval: need t_min < 0 <= t_max, got [{t_min}, {t_max}]"
        )
    j_min = step_count(t_min, h_w, "t_min")
    j_max = step_count(t_max, h_w, "t_max")
    sq = math.sqrt(h_w)
    xi_pos = _innovations(seed, _BRANCH_POS, j_max)
    xi_neg = _innovations(seed, _BRANCH_NEG, -j_min)
    values = np.zeros(j_max - j_min + 1)
    if j_max > 0:
        values[-j_min + 1 :] = sq * np.cumsum(xi_pos)
    if j_min < 0:
        values[: -j_min] = (sq * np.cumsum(xi_neg))[::-1]
    values.flags.writeable = False
    return WienerPath(
        seed=int(seed), h_w=h_w, j_min=j_min, j_max=j_max,
        values=values, xi_pos=xi_pos, xi_neg=xi_neg,
    )


@dataclass(frozen=True)
class OUPath(_GridPath):
    """Stationary OU samples z(theta_t omega) on the grid of a Wiener path."""

    alpha: float


def ou_from_wiener(path: WienerPath, alpha: float) -> OUPath:
    """Exact-law OU path sharing the Wiener path's innovation streams."""
    if not (alpha > 0):
        raise ValidationError(f"ou_alpha: must be positive, got {alpha}")
    h = path.h_w
    decay = math.exp(-alpha * h)
    scale = math.sqrt(-math.expm1(-2.0 * alpha * h) / (2.0 * alpha))
    init_rng = np.random.default_rng(
        np.random.SeedSequence([int(path.seed) & 0xFFFFFFFFFFFF, _TAG_INIT])
    )
    z0 = float(init_rng.standard_normal()) * math.sqrt(1.0 / (2.0 * alpha))

    values = np.empty(path.j_max - path.j_min + 1)
    values[-path.j_min] = z0
    z = z0
    for j in range(path.j_max):
        z = decay * z + scale * path.xi_pos[j]
        values[-path.j_min + j + 1] = z
    z = z0
    for m in range(-path.j_min):
        z = decay * z + scale * path.xi_neg[m]
        values[-path.j_min - m - 1] = z
    values.flags.writeable = False
    return OUPath(
        alpha=alpha, seed=path.seed, h_w=h,
        j_min=path.j_min, j_max=path.j_max, values=values,
    )


def ou_path(seed: int, alpha: float, t_min: float, t_max: float, h_w: float) -> OUPath:
    """Convenience: Wiener sample plus OU transform in one call."""
    return ou_from_wiener(sample_wiener(seed, t_min, t_max, h_w), alpha)


def stationary_moment(alpha: float, xi: float) -> float:
    """E |z|^xi for the stationary law N(0, 1/(2 alpha))."""
    return math.gamma((1.0 + xi) / 2.0) / math.sqrt(math.pi * alpha**xi)
