"""Periodic-box discretization and Fourier lattice bookkeeping.

Two coefficient layouts share one lattice.  The half layout
``(dim, N, ..., N, N/2 + 1)`` is the rfft half spectrum: only nonnegative
last-axis frequencies are stored, the rest being their conjugate mirrors.  It
is what ``SpectralVelocity`` stores and the time integrators step, so no
solver converts layouts.  The full layout ``(dim, N, ..., N)`` holds every
retained mode; ``to_full`` rebuilds it for ``SpectralVelocity.coeffs``, the
``.cbff`` files and the full-layout kernels.  Padding and truncation move the
2^(dim-1) frequency corner blocks with contiguous slice copies in either direction.

Transforms to and from a padded m-lattice run through one pair,
``padded_irfft``/``truncated_rfft``, on one of two paths that ``DENSE_MAX``
picks for each lattice.

On small lattices (N <= DENSE_MAX) the pair is dense DFT products.  The
retained coefficients are packed without their Nyquist rows and column; one
complex product per leading axis maps them to and from the m points, with
matrices that hold only the retained frequencies, and one real cos/sin
product does the last-axis c2r/r2c step.  The matrices are cached per
(N, m) on first use.  The results agree with ``irfftn(pad_half(...))`` and
``truncate_half(rfftn(...))`` to round-off (about 1e-15 of the largest
entry), not bit for bit.  Every product is cut into chunks below the size at
which OpenBLAS splits a gemm across threads (``MAX_PRODUCT``), so the bytes
and the speed do not depend on the BLAS thread count.

On larger lattices the pair is pruned FFT passes.  The inverse writes the
corner blocks into a zeroed complex scratch and runs the leading-axis inverse
FFTs in place, in numpy's ``irfftn`` order, only on the last-axis columns
below N/2: the other columns are identically zero.  Each leading-axis pass
also skips the rows of the leading axes it does not transform yet, which are
zero too.  One ``irfft`` over the last axis finishes it.  The forward
transform is the mirror image in ``rfftn`` order: it skips the columns and
rows that the truncation to the retained lattice throws away.  Every line of
a pass is the same 1D transform that ``irfftn``/``rfftn`` would run, so the
results are bit-identical to ``irfftn(pad_half(...))`` and
``truncate_half(rfftn(...))``.

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
#: The padded transforms of a lattice with N <= DENSE_MAX run as dense DFT
#: products, those of larger lattices as pruned FFT passes.  A dense pass
#: costs about N multiply-adds per point and an FFT pass about log m, so N
#: decides.  Measured: one ``padded_irfft`` of a dim-component field plus one
#: ``truncated_rfft`` of 3 (2D) or 6 (3D) products, in us, best of 7
#: interleaved runs on a 2-core AVX-512 Xeon, numpy 2.4.6, OpenBLAS 0.3.31 on
#: one thread.  Dense wins by 23% or more up to N = 40, by 5-16% at N = 48
#: and loses from 2D N = 64 on:
#:
#:     lattice    m    FFT  dense         lattice    m    FFT  dense
#:     2D N=16   24    112     71         3D N=8    16   1226    213
#:     2D N=32   48    186    119         3D N=16   24   2613    746
#:     2D N=32   64    234    142         3D N=16   32   4394   1163
#:     2D N=40   60    224    163         3D N=24   48  11723   5221
#:     2D N=40   80    313    209         3D N=32   64  25134  14626
#:     2D N=48   72    269    242         3D N=40   60  25001  19223
#:     2D N=48   96    357    301         3D N=40   80  48058  35250
#:     2D N=64   96    441    521         3D N=48   72  43980  41649
#:     2D N=64  128    644    778         3D N=48   96  88978  76311
DENSE_MAX = 40
#: Every matrix product of the dense pair stays below MAX_PRODUCT complex
#: multiply-adds, or 8 * MAX_PRODUCT real ones, by running in row or column
#: chunks.  Below those sizes OpenBLAS runs a gemm on one thread whatever its
#: thread count; above them, the split across threads changes the last bits of
#: its zgemm kernels (seen with OPENBLAS_CORETYPE=HASWELL) and threads that
#: wait on one another slow a kernel down by up to 10x on a loaded 2-core host.
MAX_PRODUCT = 1 << 16


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

    @property
    def dense(self) -> bool:
        """Whether the padded transforms run as dense DFT products (see ``DENSE_MAX``)
        rather than pruned FFT passes."""
        return self.N <= DENSE_MAX

    def padded_irfft(self, coeffs: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
        """``irfftn(pad_half(coeffs, m))`` over the lattice axes, into ``out``.

        Unnormalized like ``irfftn``: the caller scales by m^dim.  Bit for bit
        on the FFT path, to round-off on the dense one (see ``dense``).
        ``out`` must be C-contiguous: the dense path writes it as a matrix.
        """
        if not out.flags.c_contiguous:
            raise ValueError("padded_irfft needs a C-contiguous out")
        if self.dense:
            return self._dense_irfft(coeffs, m, out)
        return self._pruned_irfft(coeffs, m, out)

    def truncated_rfft(self, values: np.ndarray, m: int) -> np.ndarray:
        """``truncate_half(rfftn(values), m)`` over the lattice axes.

        Bit for bit on the FFT path, to round-off on the dense one (see
        ``dense``).  The result is a new array; it does not alias the scratch.
        """
        if self.dense:
            return self._dense_rfft(values, m)
        return self._pruned_rfft(values, m)

    def _pruned_irfft(self, coeffs: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
        """``padded_irfft`` by pruned FFT passes, bit for bit ``irfftn(pad_half(...))``."""
        spec = self.pad_half(coeffs, m, self._half_scratch(coeffs.shape[: -self.dim], m))
        for axis, views in _pruned_passes(self.N, self.dim, m):
            for view in views:
                np.fft.ifft(spec[view], axis=axis, out=spec[view])
        return np.fft.irfft(spec, n=m, axis=-1, out=out)

    def _pruned_rfft(self, values: np.ndarray, m: int) -> np.ndarray:
        """``truncated_rfft`` by pruned FFT passes, bit for bit ``truncate_half(rfftn(...))``."""
        spec = self._half_scratch(values.shape[: -self.dim], m)
        np.fft.rfft(values, axis=-1, out=spec)
        for axis, views in reversed(_pruned_passes(self.N, self.dim, m)):
            for view in views:
                np.fft.fft(spec[view], axis=axis, out=spec[view])
        return self.truncate_half(spec, m)

    # The dense pair works on the retained lattice packed without its Nyquist
    # rows and column: that is the rfft half lattice of size N - 1 with nothing
    # padded, so ``pad_half``/``truncate_half`` at size N - 1 pack and unpack it.

    def _dense_irfft(self, coeffs: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
        """``padded_irfft`` as one complex product per leading axis, innermost
        first, and one real cos/sin product for the c2r step."""
        n, dim = self.N, self.dim
        lead = coeffs.shape[: -dim]
        inv, _, last_inv, _ = _dft_matrices(n, m)
        shapes = [lead + (n - 1,) * (dim - 1) + (n // 2,)]
        for axis in range(-2, -dim - 1, -1):
            shapes.append(shapes[-1][:axis] + (m,) + shapes[-1][axis + 1 :])
        bufs = _carve(shapes)
        spec = self.pad_half(coeffs, n - 1, bufs[0])
        for axis, nxt in zip(range(-2, -dim - 1, -1), bufs[1:]):
            spec = _contract(inv, spec, axis, nxt)
        _row_chunks(spec.view(float).reshape(-1, n), last_inv, out.reshape(-1, m))
        return out

    def _dense_rfft(self, values: np.ndarray, m: int) -> np.ndarray:
        """``truncated_rfft`` as one real cos/sin product for the r2c step and
        one complex product per leading axis, outermost first."""
        n, dim = self.N, self.dim
        lead = values.shape[: -dim]
        _, fwd, _, last_fwd = _dft_matrices(n, m)
        shapes = [lead + (m,) * (dim - 1) + (n // 2,)]
        for axis in range(-dim, -1):
            shapes.append(shapes[-1][:axis] + (n - 1,) + shapes[-1][axis + 1 :])
        bufs = _carve(shapes)
        spec = bufs[0]
        _row_chunks(values.reshape(-1, m), last_fwd, spec.view(float).reshape(-1, n))
        for axis, nxt in zip(range(-dim, -1), bufs[1:]):
            spec = _contract(fwd, spec, axis, nxt)
        return self.truncate_half(spec, n - 1)

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


def _carve(shapes: list) -> list:
    """Views of the complex process scratch, one per shape, alternating between
    two regions: each view may overwrite the one two before it."""
    sizes = [math.prod(s) for s in shapes]
    first = max(sizes[0::2])
    flat = scratch(complex, (first + max(sizes[1::2], default=0),))
    return [
        flat[(i % 2) * first :][:size].reshape(shape)
        for i, (shape, size) in enumerate(zip(shapes, sizes))
    ]


def _contract(matrix: np.ndarray, spec: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """``matrix`` applied along ``axis`` of ``spec``, into ``out``.

    One matrix product per index of the axes before ``axis`` and per column
    chunk of the axes after it (see ``MAX_PRODUCT``).
    """
    shape = spec.shape
    rows, depth = matrix.shape
    outer, inner = math.prod(shape[:axis]), math.prod(shape[axis + 1 :])
    width = _chunk_width(rows * depth, inner)
    cut = (outer, inner // width, width)
    np.matmul(
        matrix,
        spec.reshape(cut[:1] + (depth,) + cut[1:]).swapaxes(1, 2),
        out=out.reshape(cut[:1] + (rows,) + cut[1:]).swapaxes(1, 2),
    )
    return out


def _row_chunks(a: np.ndarray, matrix: np.ndarray, out: np.ndarray) -> None:
    """``a @ matrix`` into ``out`` for real operands, one product per chunk of rows of ``a``."""
    rows = a.shape[0]
    height = _chunk_width(matrix.size, rows, 8 * MAX_PRODUCT)
    np.matmul(a.reshape(rows // height, height, -1), matrix,
              out=out.reshape(rows // height, height, -1))


@lru_cache(maxsize=64)
def _chunk_width(size: int, inner: int, limit: int = MAX_PRODUCT) -> int:
    """The widest divisor of ``inner`` whose product with ``size`` is below ``limit``."""
    return max(w for w in range(1, inner + 1) if inner % w == 0 and size * w < limit)


@lru_cache(maxsize=16)
def _dft_matrices(n: int, m: int) -> tuple:
    """Dense DFT factors between the packed retained n-lattice and the m-lattice.

    Returns (inv, fwd, last_inv, last_fwd).  ``inv`` (m, n-1) is the
    leading-axis inverse transform with its 1/m and ``fwd`` (n-1, m) the
    forward one, over the retained frequencies 0..n/2-1, -(n/2-1)..-1.  On a
    complex last axis read as interleaved real and imaginary parts,
    ``last_inv`` (n, m) is the c2r step with its 1/m and ``last_fwd`` (m, n)
    the r2c step, over the frequencies 0..n/2-1.  Built on first use.
    """
    n2 = n // 2
    x = np.arange(m)
    freqs = np.concatenate((np.arange(n2), np.arange(n2 + 1 - n, 0)))
    phase = (2.0 * np.pi / m) * (np.outer(x, freqs) % m)
    inv = np.exp(1j * phase) / m
    fwd = np.exp(-1j * phase.T)
    cols = (2.0 * np.pi / m) * (np.outer(np.arange(n2), x) % m)
    weight = np.where(np.arange(n2) == 0, 1.0, 2.0)[:, None] / m
    last_inv = np.empty((n, m))
    last_inv[0::2], last_inv[1::2] = weight * np.cos(cols), -weight * np.sin(cols)
    last_fwd = np.empty((m, n))
    last_fwd[:, 0::2], last_fwd[:, 1::2] = np.cos(cols).T, -np.sin(cols).T
    matrices = (inv, fwd, last_inv, last_fwd)
    for a in matrices:
        a.flags.writeable = False
    return matrices


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
