"""Mean-free, divergence-free spectral velocity fields and their file format."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, MeanViolationError, ValidationError
from .grid import TorusGrid

#: Relative tolerance for the per-mode divergence invariant.
DIV_TOL = 1.0e-12
#: Relative tolerance for Hermitian (real-field) symmetry.
REALITY_TOL = 1.0e-12

_MAGIC = b"CBFF"
_FORMAT_VERSION = 1
_HEADER_BYTES = 32


@dataclass(frozen=True)
class SpectralVelocity:
    """
    A mean-free, divergence-free vector field stored as Fourier coefficients.

    ``coeffs`` has shape (dim, N, ..., N) with the mathematical convention
    u(x) = sum_k coeffs[:, k] exp(2 pi i k.x / L).  Construction validates the
    invariants (zero mean, conjugate symmetry, per-mode divergence) and then
    freezes the array.
    """

    grid: TorusGrid
    coeffs: np.ndarray = field(compare=False)

    def __post_init__(self):
        g = self.grid
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (g.dim,) + g.shape:
            raise ValidationError(
                f"coeffs shape {c.shape} does not match grid {(g.dim,) + g.shape}"
            )
        peak = float(np.max(np.abs(c))) if c.size else 0.0
        if not np.isfinite(peak):
            raise ValidationError("coefficients must be finite")
        scale = max(1.0, peak)
        origin = (slice(None),) + (0,) * g.dim
        if np.max(np.abs(c[origin])) > 1.0e-12 * scale:
            raise MeanViolationError("nonzero mean (k = 0) coefficient")
        c = np.array(c)
        c[:, ~g.mask] = 0.0

        mirror = np.conj(g.negate_modes(c))
        if np.max(np.abs(c - mirror)) > REALITY_TOL * scale:
            raise ValidationError("coefficients violate conjugate symmetry")

        div = np.einsum("i...,i...->...", g.k, c)
        amp = np.sqrt(np.sum(np.abs(c) ** 2, axis=0))
        bound = DIV_TOL * np.maximum(1.0, amp) * np.maximum(1.0, np.sqrt(g.k2))
        if np.any(np.abs(div) > bound):
            raise ValidationError("coefficients are not divergence-free")

        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def same_grid(self, other: "SpectralVelocity") -> None:
        if not self.grid.compatible(other.grid):
            raise GridMismatchError("fields live on different grids")


def zero_velocity(grid: TorusGrid) -> SpectralVelocity:
    return SpectralVelocity(grid, np.zeros((grid.dim,) + grid.shape, dtype=complex))


def hermitianize(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Symmetrize an arbitrary complex array so it represents a real field."""
    return 0.5 * (coeffs + np.conj(grid.negate_modes(coeffs)))


def single_mode_field(
    grid: TorusGrid,
    mode,
    amplitude,
    h_norm: float | None = None,
) -> SpectralVelocity:
    """
    Build a real field from one wavevector and its conjugate mirror.

    ``amplitude`` is the complex coefficient vector at ``mode``; it is
    Leray-projected, so any component parallel to the wavevector is dropped.
    With ``h_norm`` given, the field is rescaled to that H norm.
    """
    mode = tuple(int(m) for m in mode)
    if len(mode) != grid.dim:
        raise ValidationError(f"mode {mode} has wrong dimension for grid")
    if all(m == 0 for m in mode):
        raise ValidationError("mode k = 0 is excluded by the mean-free constraint")
    if any(abs(m) >= grid.N // 2 for m in mode):
        raise ValidationError(f"mode {mode} outside the retained lattice")
    amp = np.asarray(amplitude, dtype=complex)
    if amp.shape != (grid.dim,):
        raise ValidationError("amplitude must have one complex entry per component")

    coeffs = np.zeros((grid.dim,) + grid.shape, dtype=complex)
    idx = tuple(m % grid.N for m in mode)
    neg = tuple((-m) % grid.N for m in mode)
    coeffs[(slice(None),) + idx] = amp
    coeffs[(slice(None),) + neg] = np.conj(amp)
    # local import keeps fields/operators from importing each other at top level
    from .operators import leray_project

    u = leray_project(grid, coeffs)
    if h_norm is not None:
        u = rescale_to_h(u, h_norm)
    return u


def random_field(
    grid: TorusGrid,
    seed: int,
    h_norm: float = 1.0,
    kmax: float | None = None,
    spectral_slope: float = -2.0,
) -> SpectralVelocity:
    """
    Reproducible smooth random field: Gaussian coefficients with a power-law
    spectrum, band-limited to |k| <= kmax (default N/4), projected and scaled
    to the requested H norm.
    """
    if kmax is None:
        kmax = grid.N / 4.0
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, 0xF1E1D]))
    shape = (grid.dim,) + grid.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kmag = np.sqrt(grid.k2)
    band = grid.mask & (kmag <= kmax) & (kmag > 0)
    envelope = np.where(band, np.power(np.maximum(kmag, 1.0), spectral_slope), 0.0)
    raw *= envelope
    raw = hermitianize(grid, raw)
    from .operators import leray_project

    return rescale_to_h(leray_project(grid, raw), h_norm)


def rescale_to_h(u: SpectralVelocity, target: float) -> SpectralVelocity:
    from .operators import h_norm

    if not (0.0 <= target < np.inf):
        raise ValidationError(f"H norm target: must be finite and >= 0, got {target}")
    current = h_norm(u)
    if current == 0.0:
        if target == 0.0:
            return u
        raise ValidationError("cannot rescale the zero field to a nonzero norm")
    return SpectralVelocity(u.grid, u.coeffs * (target / current))


# -- binary snapshot format -------------------------------------------------
#
# Header: magic "CBFF", version uint32, then dim, N, L as little-endian
# IEEE-754 doubles.  Payload: the complex coefficient array in row-major
# lattice order with the component index fastest, little-endian doubles.
# A file is exactly 32 + 16 dim N^dim bytes long.


def write_field(path, u: SpectralVelocity) -> None:
    g = u.grid
    header = _MAGIC + struct.pack("<I", _FORMAT_VERSION)
    header += struct.pack("<3d", float(g.dim), float(g.N), float(g.L))
    payload = np.ascontiguousarray(
        np.moveaxis(u.coeffs, 0, -1), dtype="<c16"
    ).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_field(path, dealias_factor: float = TorusGrid.dealias_factor) -> SpectralVelocity:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER_BYTES:
        raise ValidationError(f"{path}: {len(blob)} bytes, shorter than the snapshot header")
    if blob[:4] != _MAGIC:
        raise ValidationError(f"{path}: bad magic, not a field snapshot")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != _FORMAT_VERSION:
        raise ValidationError(f"{path}: unsupported snapshot version {version}")
    dim_f, n_f, L = struct.unpack_from("<3d", blob, 8)
    if not (dim_f.is_integer() and n_f.is_integer()):
        raise ValidationError(f"{path}: header dim {dim_f!r} and N {n_f!r} must be integers")
    dim, n = int(dim_f), int(n_f)
    problems = TorusGrid.violations(dim, n, L, dealias_factor)
    if problems:
        raise ValidationError([f"{path}: header {v}" for v in problems])
    count = dim * n**dim
    if len(blob) != _HEADER_BYTES + 16 * count:
        raise ValidationError(
            f"{path}: {len(blob)} bytes, expected {_HEADER_BYTES + 16 * count} "
            f"for dim = {dim}, N = {n}"
        )
    grid = TorusGrid(dim=dim, N=n, L=L, dealias_factor=dealias_factor)
    flat = np.frombuffer(blob, dtype="<c16", offset=_HEADER_BYTES, count=count)
    coeffs = np.moveaxis(flat.reshape((n,) * dim + (dim,)), -1, 0)
    return SpectralVelocity(grid, coeffs.astype(complex))
