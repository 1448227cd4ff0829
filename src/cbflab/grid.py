"""Periodic-box discretization and Fourier lattice bookkeeping.

Two coefficient layouts share one lattice.  The half layout
``(dim, N, ..., N, N/2 + 1)`` is the rfft half spectrum: only nonnegative
last-axis frequencies are stored, the rest being their conjugate mirrors.  It
is what ``SpectralVelocity`` stores and the time integrators step, so no
solver converts layouts.  The full layout ``(dim, N, ..., N)`` holds every
retained mode; ``to_full`` rebuilds it for ``SpectralVelocity.coeffs``, the
``.cbff`` files and the full-layout kernels.  Padding and truncation move the
2^(dim-1) frequency corner blocks with contiguous slice copies in either direction.

Transforms to and from a padded m-lattice run through the pruned pair
``padded_irfft``/``truncated_rfft``.  The inverse writes the corner blocks
into a zeroed complex scratch and runs the leading-axis inverse FFTs in
place, in numpy's ``irfftn`` order, only on the last-axis columns below N/2:
the other columns are identically zero.  Each leading-axis pass also skips
the rows of the leading axes it does not transform yet, which are zero too.
One ``irfft`` over the last axis finishes it.  The forward transform is the mirror image in
``rfftn`` order: it skips the columns and rows that the truncation to the
retained lattice throws away.  Every line of a pass is the same 1D transform
that ``irfftn``/``rfftn`` would run, so the results are bit-identical to
``irfftn(pad_half(...))`` and ``truncate_half(rfftn(...))``.

The scratch is one flat complex and one flat real array per process
(``scratch``), shared by every grid, grown to the largest request and viewed
per lattice.  Nothing that leaves a public function aliases it.  The kernels
that use it are not reentrant: cbflab runs one thread per process.  ``out=``
on ``numpy.fft`` needs numpy 2.0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ValidationError

#: Padding ratio used for the quadratic advection product (3/2 rule floor).
QUADRATIC_PAD = 1.5
#: Padding ratio used for the |u|^(r-1)u damping product and L^p quadrature.
DAMPING_PAD = 2.0
#: Largest accepted ``dealias_factor``: no product needs more than DAMPING_PAD,
#: and each padded lattice grows as the factor to the power dim.
MAX_PAD = 3.0


@dataclass(frozen=True)
class TorusGrid:
    """
    Discretization of the periodic box [0, L]^dim.

    Retained wavevectors are the integer modes with every component strictly
    below the Nyquist index N/2 in magnitude, so the lattice is symmetric
    (k retained iff -k retained).  The k = 0 mode is part of the lattice but
    velocity fields keep it identically zero (mean-free constraint).

    Parameters
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    N : int
        Modes per dimension; even, at least 8.
    L : float
        Period of the box.
    dealias_factor : float
        Zero-padding ratio for quadratic products, in [1, 3].  Values below
        3/2 are accepted but the advection kernel always pads by at least 3/2.
    """

    dim: int
    N: int
    L: float = 2.0 * math.pi
    dealias_factor: float = QUADRATIC_PAD

    # caches populated in __post_init__; every array is read-only
    k: np.ndarray = field(init=False, repr=False, compare=False)
    k2: np.ndarray = field(init=False, repr=False, compare=False)
    mask: np.ndarray = field(init=False, repr=False, compare=False)
    #: half-layout wavevectors and |k|^2
    half_k: np.ndarray = field(init=False, repr=False, compare=False)
    half_k2: np.ndarray = field(init=False, repr=False, compare=False)
    #: how many full-layout modes each half-layout entry stands for: 1 on the
    #: zero-frequency plane, 2 elsewhere, 0 off the retained lattice
    half_weight: np.ndarray = field(init=False, repr=False, compare=False)
    #: Leray projector mask (I - k k^T / |k|^2) on the half layout, (dim, dim, ...)
    projector: np.ndarray = field(init=False, repr=False, compare=False)

    @staticmethod
    def violations(dim, N, L, dealias_factor) -> list:
        """Every violated grid rule; checks the scalars without building the lattice."""
        problems = []
        if dim not in (2, 3):
            problems.append(f"grid.dim: must be 2 or 3, got {dim}")
        if N % 2 != 0 or N < 8:
            problems.append(f"grid.N: must be even and >= 8, got {N}")
        if not (0 < L < math.inf):
            problems.append(f"grid.L: must be positive and finite, got {L}")
        elif dim in (2, 3):
            try:  # lambda1 and volume(); L**2 may overflow or underflow to 0
                fits = 0 < 4.0 * math.pi**2 / L**2 < math.inf and 0 < L**dim < math.inf
            except ArithmeticError:
                fits = False
            if not fits:
                problems.append(f"grid.L: 4 pi^2/L^2 and L^dim must be finite and > 0, got {L}")
        if not (1.0 <= dealias_factor <= MAX_PAD):
            problems.append(
                f"grid.dealias_factor: must lie in [1, {MAX_PAD}], got {dealias_factor}"
            )
        return problems

    def __post_init__(self):
        problems = self.violations(self.dim, self.N, self.L, self.dealias_factor)
        if problems:
            raise ValidationError(problems)

        freqs = np.fft.fftfreq(self.N, d=1.0 / self.N)  # integer mode numbers
        mesh = np.meshgrid(*([freqs] * self.dim), indexing="ij")
        k = np.stack(mesh).astype(np.float64)
        k2 = np.sum(k * k, axis=0)
        # symmetric retention: drop the unmatched -N/2 plane and the mean mode
        mask = np.ones(k2.shape, dtype=bool)
        for axis_k in mesh:
            mask &= np.abs(axis_k) < self.N // 2
        mask[(0,) * self.dim] = False

        half = (...,) + (slice(0, self.N // 2 + 1),)
        half_k = np.array(k[half])
        half_k2 = np.array(k2[half])
        half_mask = mask[half]
        half_weight = np.where(half_mask, 2.0, 0.0)
        half_weight[..., 0] *= 0.5
        unit = np.divide(half_k, np.sqrt(half_k2), out=np.zeros_like(half_k), where=half_mask)
        projector = half_mask * (
            np.eye(self.dim).reshape((self.dim, self.dim) + (1,) * self.dim)
            - unit[:, None] * unit[None, :]
        )
        caches = {
            "k": k, "k2": k2, "mask": mask, "half_k": half_k, "half_k2": half_k2,
            "half_weight": half_weight, "projector": projector,
        }
        for name, arr in caches.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    # -- derived scalars ---------------------------------------------------

    @property
    def lambda1(self) -> float:
        """Smallest Stokes eigenvalue, 4 pi^2 / L^2."""
        return 4.0 * math.pi**2 / self.L**2

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.dim

    @property
    def dx(self) -> float:
        return self.L / self.N

    def volume(self) -> float:
        return self.L**self.dim

    def compatible(self, other: "TorusGrid") -> bool:
        return (
            self.dim == other.dim
            and self.N == other.N
            and self.L == other.L
        )

    @property
    def half_shape(self) -> tuple:
        """Lattice shape of one component in the half layout."""
        return (self.N,) * (self.dim - 1) + (self.N // 2 + 1,)

    # -- layouts -------------------------------------------------------------

    def to_half(self, coeffs: np.ndarray) -> np.ndarray:
        """Half-layout copy of coefficients in either layout.

        The zero-frequency plane is symmetrized, so the result is exactly
        Hermitian; on an exactly Hermitian input this changes no bit.
        """
        half = np.array(coeffs[..., : self.N // 2 + 1])
        self.symmetrize_plane(half)
        return half

    def to_full(self, half: np.ndarray) -> np.ndarray:
        """Full-layout coefficients rebuilt from the half layout by conjugate mirroring."""
        n2 = self.N // 2
        out = np.empty(half.shape[:-1] + (self.N,), dtype=complex)
        out[..., : n2 + 1] = half
        out[..., n2 + 1 :] = np.conj(
            _negate_axes(half[..., n2 - 1 : 0 : -1], range(-self.dim, -1))
        )
        return out

    def symmetrize_plane(self, half: np.ndarray) -> None:
        """Make the zero-frequency plane of a half-layout array exactly Hermitian, in place."""
        plane = half[..., 0]
        plane[...] = 0.5 * (plane + np.conj(_negate_axes(plane, range(1 - self.dim, 0))))

    # -- padded-lattice plumbing ---------------------------------------------
    #
    # Physical fields are real, so transforms run on a half-spectrum whose
    # last axis keeps only nonnegative frequencies.

    def padded_size(self, factor: float) -> int:
        m = math.ceil(self.N * factor)
        return m + (m % 2)

    def pad_half(self, coeffs: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
        """Embed retained coefficients into the rfft half-lattice of size m.

        ``coeffs`` may be in the full or the half layout: only nonnegative
        last-axis frequencies are read.  The result goes into ``out`` (zeroed
        first) when it is given, else into a new array.
        """
        if out is None:
            out = np.zeros(
                coeffs.shape[: -self.dim] + (m,) * (self.dim - 1) + (m // 2 + 1,),
                dtype=complex,
            )
        else:
            out.fill(0.0)
        for small, padded in _blocks(self.N, self.dim, m):
            out[padded] = coeffs[small]
        return out

    def truncate_half(self, spectrum: np.ndarray, m: int) -> np.ndarray:
        """Half-layout block copy of the retained modes of an rfft m-lattice spectrum.

        No scaling and no symmetrization: the caller owns both.
        """
        out = np.zeros(spectrum.shape[: -self.dim] + self.half_shape, dtype=complex)
        for small, padded in _blocks(self.N, self.dim, m):
            out[small] = spectrum[padded]
        return out

    def _half_scratch(self, lead: tuple, m: int) -> np.ndarray:
        return scratch(complex, lead + (m,) * (self.dim - 1) + (m // 2 + 1,))

    def padded_irfft(self, coeffs: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
        """``irfftn(pad_half(coeffs, m))`` over the lattice axes, into ``out``, bit for bit.

        Unnormalized like ``irfftn``: the caller scales by m^dim.
        """
        spec = self.pad_half(coeffs, m, self._half_scratch(coeffs.shape[: -self.dim], m))
        for axis, views in _pruned_passes(self.N, self.dim, m):
            for view in views:
                np.fft.ifft(spec[view], axis=axis, out=spec[view])
        return np.fft.irfft(spec, n=m, axis=-1, out=out)

    def truncated_rfft(self, values: np.ndarray, m: int) -> np.ndarray:
        """``truncate_half(rfftn(values), m)`` over the lattice axes, bit for bit.

        The result is a new array; it does not alias the scratch.
        """
        spec = self._half_scratch(values.shape[: -self.dim], m)
        np.fft.rfft(values, axis=-1, out=spec)
        for axis, views in reversed(_pruned_passes(self.N, self.dim, m)):
            for view in views:
                np.fft.fft(spec[view], axis=axis, out=spec[view])
        return self.truncate_half(spec, m)

    def to_phys(self, coeffs: np.ndarray, factor: float = 1.0) -> tuple:
        """Collocation values of the trig polynomial on a padded lattice.

        Returns (values, m) where values is real with lattice size m per axis.
        Coefficients follow the convention u(x) = sum_k u_k exp(2 pi i k.x/L),
        i.e. an unnormalized forward transform and 1/m^dim inverse; either
        layout is accepted, as in ``pad_half``.
        """
        m = self.padded_size(factor) if factor > 1.0 else self.N
        vals = np.empty(coeffs.shape[: -self.dim] + (m,) * self.dim)
        self.padded_irfft(coeffs, m, vals)
        vals *= float(m**self.dim)
        return vals, m

    def from_phys(self, values: np.ndarray, m: int) -> np.ndarray:
        """Retained-lattice full-layout coefficients of collocation values on an m-lattice.

        The returned array is exactly Hermitian and its mean mode is zero.
        """
        half = self.truncated_rfft(values, m)
        half /= float(m**self.dim)
        self.symmetrize_plane(half)
        half[(...,) + (0,) * self.dim] = 0.0
        return self.to_full(half)

    def negate_modes(self, coeffs: np.ndarray) -> np.ndarray:
        """Reindex a full-layout array by k -> -k on the FFT lattice."""
        return _negate_axes(coeffs, range(-self.dim, 0))


#: The flat scratch of each dtype, shared by every grid in the process and
#: grown to the largest request.
_SCRATCH = {float: np.empty(0), complex: np.empty(0, dtype=complex)}


def scratch(dtype, shape: tuple) -> np.ndarray:
    """A ``shape`` view of the process scratch of ``dtype`` (``float`` or ``complex``).

    Every request of a dtype shares the same memory, so the contents hold
    only until the next user of that dtype writes; callers copy out anything
    they return.
    """
    size = math.prod(shape)
    if _SCRATCH[dtype].size < size:
        _SCRATCH[dtype] = np.empty(size, dtype=dtype)
    return _SCRATCH[dtype][:size].reshape(shape)


@lru_cache(maxsize=64)
def _pruned_passes(n: int, dim: int, m: int) -> tuple:
    """(axis, views) of the leading-axis passes of a pruned inverse, in ``irfftn`` order.

    Each view keeps the last-axis columns below n/2 and, on every leading
    axis after ``axis``, the two blocks of retained rows; the forward
    transform runs the same passes in reverse order.
    """
    n2 = n // 2
    rows = (slice(0, n2), slice(m - n2 + 1, m))
    passes = []
    for axis in range(-dim, -1):
        views = [
            (Ellipsis,) + combo + (slice(0, n2),)
            for combo in itertools.product(rows, repeat=-2 - axis)
        ]
        passes.append((axis, tuple(views)))
    return tuple(passes)


@lru_cache(maxsize=64)
def _blocks(n: int, dim: int, m: int) -> tuple:
    """(retained, padded) index pairs of the frequency corner blocks.

    Each pair addresses the same modes on the n-lattice half layout and on the
    rfft half-lattice of size m; the last axis keeps frequencies 0..n/2-1.
    """
    n2 = n // 2
    pos = (slice(0, n2), slice(0, n2))
    neg = (slice(n2 + 1, n), slice(m - n2 + 1, m))
    pairs = []
    for combo in np.ndindex(*((2,) * (dim - 1))):
        ends = [(pos, neg)[c] for c in combo] + [pos]
        pairs.append(
            (
                (Ellipsis,) + tuple(e[0] for e in ends),
                (Ellipsis,) + tuple(e[1] for e in ends),
            )
        )
    return tuple(pairs)


@lru_cache(maxsize=16)
def _negated_index(n: int) -> np.ndarray:
    idx = (-np.arange(n)) % n
    idx.flags.writeable = False
    return idx


def _negate_axes(arr: np.ndarray, axes) -> np.ndarray:
    """Reindex ``arr`` by k -> -k along each of ``axes`` (FFT ordering)."""
    out = arr
    for ax in axes:
        out = np.take(out, _negated_index(out.shape[ax]), axis=ax)
    return out
