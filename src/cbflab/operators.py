"""Spectral operators: Leray projection, Stokes operator, advection, damping, norms.

All public entry points take and return `SpectralVelocity`; the `*_kernel`
functions work on raw full-layout coefficient arrays.  The time integrators
call `nonlinear_kernel` instead, which works on the half layout (see
`grid`): it evaluates advection in divergence form, d_i(u_i u_j), on the 3/2
lattice and the damping |u|^(r-1) u on the 2x lattice, truncates both back
by block copies, sums them and applies the grid's Leray projector once.  The
full-layout `bilinear_kernel` and `damping_kernel` are thin wrappers over the
same half-layout pieces.

The padded fields, products and damping weights live in the one process
scratch (`grid.scratch`) and go through the grid's transform pair, dense DFT
products on small lattices and pruned FFT passes on larger ones (see
`grid`), so a warm call allocates only its half-layout results, which never
alias the scratch.  The kernels are therefore not reentrant; cbflab runs one
thread per process.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .fields import SpectralVelocity
from .grid import DAMPING_PAD, QUADRATIC_PAD, TorusGrid, scratch

#: Divergence below ``SNAP_TOL * max(1, |u_k|)`` is treated as exact zero, so
#: projecting twice returns the first result bit-for-bit.
SNAP_TOL = 0.5e-12


# ---------------------------------------------------------------------------
# Leray (Helmholtz-Hodge) projection
# ---------------------------------------------------------------------------

def leray_kernel(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Per-mode projection I - k k^T / |k|^2 onto divergence-free fields.

    Modes whose divergence already sits below round-off (relative to the
    per-mode amplitude, with an absolute floor of one) are left untouched;
    that makes the projection exactly idempotent instead of polishing noise.
    """
    div = np.einsum("i...,i...->...", grid.k, coeffs)
    amp = np.sqrt(np.sum(np.abs(coeffs) ** 2, axis=0))
    kmag = np.sqrt(grid.k2)
    apply = np.abs(div) > SNAP_TOL * np.maximum(1.0, amp) * np.maximum(1.0, kmag)
    apply &= grid.k2 > 0
    if not np.any(apply):
        return coeffs
    out = np.array(coeffs)
    ratio = div[apply] / grid.k2[apply]
    for i in range(grid.dim):
        out[i, apply] -= grid.k[i, apply] * ratio
    return out


def leray_project(grid: TorusGrid, raw: np.ndarray) -> SpectralVelocity:
    """Project raw full-layout coefficients onto mean-free, divergence-free fields.

    ``SpectralVelocity`` drops the modes off the retained lattice and raises
    ``MeanViolationError`` on a mean flow, which the projection does not discard.
    """
    coeffs = np.asarray(raw, dtype=complex)
    if coeffs.shape != (grid.dim,) + grid.shape:
        raise ValidationError(
            f"raw coefficient shape {coeffs.shape} does not match the grid"
        )
    return SpectralVelocity(grid, leray_kernel(grid, coeffs))


# ---------------------------------------------------------------------------
# Stokes operator
# ---------------------------------------------------------------------------

def stokes_kernel(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    return coeffs * (grid.lambda1 * grid.k2)


def stokes_apply(u: SpectralVelocity) -> SpectralVelocity:
    """A u = -P(Laplacian u): diagonal multiplier (4 pi^2 / L^2) |k|^2."""
    return SpectralVelocity(u.grid, stokes_kernel(u.grid, u.coeffs))


# ---------------------------------------------------------------------------
# Nonlinear terms on the half layout
# ---------------------------------------------------------------------------

def _project_half(grid: TorusGrid, half: np.ndarray) -> np.ndarray:
    """Apply mask (I - k k^T / |k|^2) to a half-layout vector field."""
    out = grid.projector[:, 0] * half[0]
    for j in range(1, grid.dim):
        out += grid.projector[:, j] * half[j]
    return out


def _sum_squares(u: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """|u|^2 pointwise into ``out``, bit for bit ``np.sum(u * u, axis=0)``."""
    np.multiply(u[0], u[0], out=out)
    for comp in u[1:]:
        np.multiply(comp, comp, out=tmp)
        out += tmp
    return out


def _advection_half(grid: TorusGrid, u_half, v_half=None, scale: float = 1.0):
    """Unprojected, dealiased scale * d_i(u_i v_j) in the half layout, and max |u|.

    For divergence-free u this is (u . grad) v.  The products are taken on
    the 3/2-rule lattice; with v = u only the dim (dim + 1) / 2 distinct ones
    are formed.  The zero-frequency plane is left unsymmetrized.
    """
    dim = grid.dim
    m = grid.padded_size(max(grid.dealias_factor, QUADRATIC_PAD))
    points = float(m**dim)
    if v_half is None:
        pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
        fields = 1
    else:
        pairs = [(i, j) for i in range(dim) for j in range(dim)]
        fields = 2
    work = scratch(float, (fields * dim + len(pairs),) + (m,) * dim)
    u, prods = work[:dim], work[fields * dim :]
    grid.padded_irfft(u_half, m, u)
    u *= points
    v = u
    if v_half is not None:
        v = grid.padded_irfft(v_half, m, work[dim : 2 * dim])
        v *= points
    # the product slots are free until the products are formed
    vmax = float(np.sqrt(np.max(_sum_squares(u, prods[0], prods[1]))))
    for p, (i, j) in enumerate(pairs):
        np.multiply(u[i], v[j], out=prods[p])
    flux = grid.truncated_rfft(prods, m)
    grad = (2j * np.pi / grid.L * scale / points) * grid.half_k
    out = np.zeros((dim,) + grid.half_shape, dtype=complex)
    for p, (i, j) in enumerate(pairs):
        out[j] += grad[i] * flux[p]
        if v_half is None and i != j:
            out[i] += grad[j] * flux[p]
    return out, vmax


def _damping_half(grid: TorusGrid, u_half, r: float, scale: float = 1.0):
    """Unprojected scale * |u|^(r-1) u in the half layout, from the 2x lattice (r > 1)."""
    dim = grid.dim
    m = grid.padded_size(max(grid.dealias_factor, DAMPING_PAD))
    points = float(m**dim)
    work = scratch(float, (dim + 2,) + (m,) * dim)
    u, weight = work[:dim], work[dim]
    grid.padded_irfft(u_half, m, u)
    u *= points
    _sum_squares(u, weight, work[dim + 1])  # |u|^(r-1) is this to the power (r-1)/2
    if r != 3.0:
        np.power(weight, 0.5 * (r - 1.0), out=weight)
    u *= weight
    out = grid.truncated_rfft(u, m)
    out *= scale / points
    return out


def nonlinear_kernel(grid: TorusGrid, u_half, adv_scale: float, damp_scale: float, r: float):
    """P(adv_scale B(u) + damp_scale |u|^(r-1) u) for a half-layout state u.

    The one nonlinear tendency of every integrator.  Advection comes from
    the 3/2 lattice in divergence form, damping from the 2x lattice (skipped
    when ``damp_scale`` is 0, and without transforms at r = 1); the sum has
    its zero-frequency plane symmetrized, so the state stays exactly
    Hermitian, and is projected once.  Returns (tendency, vmax) with vmax the
    max pointwise |u| on the 3/2 lattice.
    """
    out, vmax = _advection_half(grid, u_half, scale=adv_scale)
    if damp_scale != 0.0:
        if r == 1.0:
            out += damp_scale * u_half
        else:
            out += _damping_half(grid, u_half, r, damp_scale)
    grid.symmetrize_plane(out)
    return _project_half(grid, out), vmax


# ---------------------------------------------------------------------------
# Advection B(u, v) = P (u . grad) v
# ---------------------------------------------------------------------------

def _full_projected(grid: TorusGrid, half: np.ndarray) -> np.ndarray:
    grid.symmetrize_plane(half)
    return grid.to_full(_project_half(grid, half))


def bilinear_kernel(grid: TorusGrid, u_coeffs, v_coeffs=None):
    """Dealiased pseudo-spectral (u . grad) v, projected, in the full layout.

    Returns (coeffs, vmax) where vmax is the max pointwise |u| on the padded
    lattice.
    """
    v_half = None if v_coeffs is None else grid.to_half(v_coeffs)
    adv, vmax = _advection_half(grid, grid.to_half(u_coeffs), v_half)
    return _full_projected(grid, adv), vmax


def bilinear_B(u: SpectralVelocity, v: SpectralVelocity | None = None) -> SpectralVelocity:
    """B(u, v) = P (u . grad) v; B(u) = B(u, u)."""
    if v is not None:
        u.same_grid(v)
    coeffs, _ = bilinear_kernel(u.grid, u.coeffs, None if v is None else v.coeffs)
    return SpectralVelocity(u.grid, coeffs)


def trilinear_b(u: SpectralVelocity, v: SpectralVelocity, w: SpectralVelocity) -> float:
    """b(u, v, w) = <B(u, v), w>, evaluated by spectral quadrature."""
    u.same_grid(v)
    u.same_grid(w)
    return inner_h(bilinear_B(u, v), w)


# ---------------------------------------------------------------------------
# Nonlinear damping C(u) = P(|u|^(r-1) u)
# ---------------------------------------------------------------------------

def damping_kernel(grid: TorusGrid, coeffs: np.ndarray, r: float) -> np.ndarray:
    if r < 1:
        raise ValidationError(f"absorption exponent r must be >= 1, got {r}")
    if r == 1.0:
        # |u|^0 u = u on divergence-free input; skip the transform round trip
        return coeffs
    return _full_projected(grid, _damping_half(grid, grid.to_half(coeffs), r))


def damping_C(u: SpectralVelocity, r: float) -> SpectralVelocity:
    """C(u) = P(|u|^(r-1) u) on a 2x padded lattice (all r >= 1)."""
    if r == 1.0:
        return u
    return SpectralVelocity(u.grid, damping_kernel(u.grid, u.coeffs, r))


# ---------------------------------------------------------------------------
# Norms and inner products
# ---------------------------------------------------------------------------

def inner_h_kernel(grid: TorusGrid, a: np.ndarray, b: np.ndarray) -> float:
    return float(grid.volume() * np.real(np.sum(a * np.conj(b))))


def inner_h(a: SpectralVelocity, b: SpectralVelocity) -> float:
    """L^2 inner product (a, b) by Parseval."""
    a.same_grid(b)
    return inner_h_kernel(a.grid, a.coeffs, b.coeffs)


def h_norm_kernel(grid: TorusGrid, coeffs: np.ndarray) -> float:
    return float(np.sqrt(grid.volume() * np.sum(np.abs(coeffs) ** 2)))


def v_norm_kernel(grid: TorusGrid, coeffs: np.ndarray) -> float:
    s = np.sum(np.abs(coeffs) ** 2, axis=0)
    return float(np.sqrt(grid.volume() * grid.lambda1 * np.sum(grid.k2 * s)))


def a_norm_kernel(grid: TorusGrid, coeffs: np.ndarray) -> float:
    s = np.sum(np.abs(coeffs) ** 2, axis=0)
    return float(
        np.sqrt(grid.volume() * grid.lambda1**2 * np.sum(grid.k2**2 * s))
    )


def h_norm(u: SpectralVelocity) -> float:
    return h_norm_kernel(u.grid, u.coeffs)


def v_norm(u: SpectralVelocity) -> float:
    return v_norm_kernel(u.grid, u.coeffs)


def a_norm(u: SpectralVelocity) -> float:
    return a_norm_kernel(u.grid, u.coeffs)


def lr_norm_kernel(grid: TorusGrid, coeffs: np.ndarray, r: float) -> float:
    if r < 1:
        raise ValidationError(f"lr_norm exponent r must be >= 1, got {r}")
    u_phys, m = grid.to_phys(coeffs, max(grid.dealias_factor, DAMPING_PAD))
    mag = np.sqrt(np.sum(u_phys * u_phys, axis=0))
    w = (grid.L / m) ** grid.dim
    return float(np.power(np.sum(mag ** (r + 1.0)) * w, 1.0 / (r + 1.0)))


def lr_norm(u: SpectralVelocity, r: float) -> float:
    """L^(r+1) norm by collocation quadrature on the damping lattice."""
    return lr_norm_kernel(u.grid, u.coeffs, r)


def h_distance(a: SpectralVelocity, b: SpectralVelocity) -> float:
    """|a - b|_H, from the half layouts: builds no cached ``.coeffs`` on either field."""
    a.same_grid(b)
    g = a.grid
    return h_norm_kernel(g, np.where(g.mask, g.to_full(a.half - b.half), 0.0))
