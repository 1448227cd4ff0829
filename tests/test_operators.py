import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbflab
from cbflab import (
    MeanViolationError,
    SpectralVelocity,
    TorusGrid,
    bilinear_B,
    damping_C,
    h_norm,
    inner_h,
    leray_project,
    lr_norm,
    random_field,
    single_mode_field,
    stokes_apply,
    trilinear_b,
    v_norm,
)
from cbflab.grid import _PLANS, _SCRATCH
from cbflab.operators import (
    a_norm,
    bilinear_kernel,
    damping_kernel,
    h_distance,
    h_norm_kernel,
    nonlinear_kernel,
)


def taylor_green(n=32):
    """u = (sin x cos y, -cos x sin y) on [0, 2 pi]^2."""
    g = TorusGrid(dim=2, N=n, L=2.0 * math.pi)
    c = np.zeros((2, n, n), dtype=complex)
    for s1 in (1, -1):
        for s2 in (1, -1):
            c[0, s1 % n, s2 % n] += s1 / 4j
            c[1, s1 % n, s2 % n] += -s2 / 4j
    return SpectralVelocity(g, c)


# ---------------------------------------------------------------------------
# Leray projection
# ---------------------------------------------------------------------------

def test_leray_kills_gradients(grid2d):
    # coeff(k) parallel to k for every mode: a pure gradient field
    rng = np.random.default_rng(3)
    scal = rng.standard_normal(grid2d.shape) + 1j * rng.standard_normal(grid2d.shape)
    from cbflab.fields import hermitianize

    scal = np.where(grid2d.mask, scal, 0.0)
    raw = grid2d.k * scal[None, ...] / np.maximum(np.sqrt(grid2d.k2), 1.0)
    raw = hermitianize(grid2d, raw)
    out = leray_project(grid2d, raw)
    assert h_norm(out) <= 1e-13 * np.abs(raw).max()


def test_leray_fixes_divergence_free(grid2d):
    u = random_field(grid2d, 5)
    again = leray_project(grid2d, u.coeffs)
    assert np.array_equal(again.coeffs, u.coeffs)


def test_leray_single_mode_hand_value(grid2d):
    # mode k = (1, 0) with coefficient (1, 1): I - k k^T/|k|^2 keeps (0, 1)
    c = np.zeros((2,) + grid2d.shape, dtype=complex)
    c[:, 1, 0] = [1.0, 1.0]
    c[:, -1 % 32, 0] = [1.0, 1.0]
    out = leray_project(grid2d, c)
    assert out.coeffs[0, 1, 0] == 0.0
    assert out.coeffs[1, 1, 0] == 1.0


def test_leray_idempotent_bitwise(grid2d):
    rng = np.random.default_rng(11)
    from cbflab.fields import hermitianize

    raw = rng.standard_normal((2,) + grid2d.shape) + 1j * rng.standard_normal(
        (2,) + grid2d.shape
    )
    raw = hermitianize(grid2d, np.where(grid2d.mask, raw, 0.0))
    once = leray_project(grid2d, raw)
    twice = leray_project(grid2d, once.coeffs)
    assert once.coeffs.tobytes() == twice.coeffs.tobytes()


def test_leray_rejects_mean(grid2d):
    c = np.zeros((2,) + grid2d.shape, dtype=complex)
    c[0, 0, 0] = 0.5
    with pytest.raises(MeanViolationError):
        leray_project(grid2d, c)


# ---------------------------------------------------------------------------
# Stokes operator
# ---------------------------------------------------------------------------

def test_stokes_zero(grid2d):
    from cbflab import zero_velocity

    assert h_norm(stokes_apply(zero_velocity(grid2d))) == 0.0


def test_stokes_taylor_green_eigenvalue():
    tg = taylor_green(64)
    au = stokes_apply(tg)
    assert np.max(np.abs(au.coeffs - 2.0 * tg.coeffs)) < 1e-14


def test_stokes_matches_finite_difference_laplacian():
    # independent second-order FD oracle on the collocation lattice
    tg = taylor_green(64)
    g = tg.grid
    au = stokes_apply(tg)
    vals, m = g.to_phys(tg.coeffs, 1.0)
    fd = np.zeros_like(vals)
    dx2 = g.dx**2
    for ax in range(1, 3):
        fd += (np.roll(vals, 1, axis=ax) - 2.0 * vals + np.roll(vals, -1, axis=ax)) / dx2
    target, _ = g.to_phys(au.coeffs, 1.0)
    rel = np.max(np.abs(target - (-fd))) / np.max(np.abs(target))
    assert rel < 5e-3


def test_stokes_single_mode_multiplier(grid2d):
    u = single_mode_field(grid2d, (0, 3), (1.0, 0.0))
    au = stokes_apply(u)
    assert np.allclose(au.coeffs, 9.0 * u.coeffs, rtol=0, atol=1e-15)


def test_stokes_self_adjoint_nonnegative(grid2d):
    u, v = random_field(grid2d, 1), random_field(grid2d, 2)
    left = inner_h(stokes_apply(u), v)
    right = inner_h(u, stokes_apply(v))
    assert left == pytest.approx(right, rel=1e-12)
    assert inner_h(stokes_apply(u), u) >= 0.0
    # smallest nonzero eigenvalue is lambda1
    e1 = single_mode_field(grid2d, (1, 0), (0.0, 1.0))
    assert inner_h(stokes_apply(e1), e1) == pytest.approx(
        grid2d.lambda1 * h_norm(e1) ** 2, rel=1e-12
    )


# ---------------------------------------------------------------------------
# Advection
# ---------------------------------------------------------------------------

def test_taylor_green_self_advection_is_gradient():
    tg = taylor_green()
    assert h_norm(bilinear_B(tg)) < 1e-13


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_trilinear_skew_symmetry(seed):
    g = TorusGrid(dim=2, N=32)
    u = random_field(g, seed)
    v = random_field(g, seed + 90_001)
    w = random_field(g, seed + 180_002)
    scale = h_norm(u) * v_norm(v) * v_norm(w)
    assert abs(trilinear_b(u, v, w) + trilinear_b(u, w, v)) <= 1e-10 * scale
    assert abs(trilinear_b(u, v, v)) <= 1e-10 * h_norm(u) * v_norm(v) ** 2


def test_trilinear_zero(grid2d):
    from cbflab import zero_velocity

    z = zero_velocity(grid2d)
    assert trilinear_b(z, z, z) == 0.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_2d_advection_stokes_orthogonality(seed):
    g = TorusGrid(dim=2, N=32)
    u = random_field(g, seed)
    val = inner_h(bilinear_B(u), stokes_apply(u))
    assert abs(val) <= 1e-8 * v_norm(u) ** 2 * a_norm(u)


def test_grid_mismatch_rejected(grid2d, grid2d_small):
    from cbflab import GridMismatchError

    u = random_field(grid2d, 1)
    v = random_field(grid2d_small, 1)
    with pytest.raises(GridMismatchError):
        trilinear_b(u, v, v)


# ---------------------------------------------------------------------------
# Damping
# ---------------------------------------------------------------------------

def test_damping_r1_is_identity(grid2d):
    u = random_field(grid2d, 8)
    assert damping_C(u, 1.0) is u


def test_damping_rejects_r_below_one(grid2d):
    from cbflab import ValidationError

    with pytest.raises(ValidationError):
        damping_C(random_field(grid2d, 8), 0.5)


def test_damping_pairing_matches_lr_norm():
    g = TorusGrid(dim=2, N=64)
    u = random_field(g, 21, kmax=16.0)
    pairing = inner_h(damping_C(u, 3.0), u)
    assert pairing == pytest.approx(lr_norm(u, 3.0) ** 4, rel=1e-6)


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0, 5.0])
def test_damping_monotone(grid2d, r):
    u1 = random_field(grid2d, 31)
    u2 = random_field(grid2d, 32)
    diff = SpectralVelocity(grid2d, u1.coeffs - u2.coeffs)
    c1, c2 = damping_C(u1, r), damping_C(u2, r)
    gap = SpectralVelocity(grid2d, c1.coeffs - c2.coeffs)
    assert inner_h(gap, diff) >= -1e-12


def identity3_sides(u, r):
    """Both sides of the damping/Stokes pairing identity.

    The right-hand side is an independent oracle: collocation quadrature on
    the unpadded lattice of pointwise gradient quantities.
    """
    g = u.grid
    au = stokes_apply(u)
    lhs = inner_h(au, damping_C(u, r))

    vals, m = g.to_phys(u.coeffs, 1.0)
    khalf_scale = 2.0 * math.pi / g.L
    axes = tuple(range(-g.dim, 0))
    # grad u by spectral differentiation, evaluated on the unpadded lattice
    grads = []
    half = g.pad_half(u.coeffs, g.N)
    kh = g.half_k
    for i in range(g.dim):
        d = np.fft.irfftn(
            1j * khalf_scale * kh[i] * half, s=g.shape, axes=axes
        ) * float(g.N**g.dim)
        grads.append(d)
    grad_sq = sum(np.sum(d * d, axis=0) for d in grads)
    mag = np.sqrt(np.sum(vals * vals, axis=0))
    w = (g.L / g.N) ** g.dim
    term1 = np.sum(grad_sq * mag ** (r - 1.0)) * w

    p = mag ** ((r + 1.0) / 2.0)
    p_hat = np.fft.rfftn(p, axes=axes)
    grad_p_sq = np.zeros_like(p)
    for i in range(g.dim):
        dp = np.fft.irfftn(1j * khalf_scale * kh[i] * p_hat, s=g.shape, axes=axes)
        grad_p_sq += dp * dp
    term2 = 4.0 * (r - 1.0) / (r + 1.0) ** 2 * np.sum(grad_p_sq) * w
    return lhs, term1 + term2


def test_identity3_agreement_and_refinement():
    # fixed continuum field evaluated at two resolutions
    def field_on(n):
        g = TorusGrid(dim=2, N=n, L=2.0 * math.pi)
        return random_field(g, 77, h_norm=1.0, kmax=24.0, spectral_slope=-2.5)

    rel = {}
    for n in (64, 128):
        lhs, rhs = identity3_sides(field_on(n), 3.0)
        rel[n] = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    assert rel[64] <= 1e-4
    assert rel[128] < rel[64]


# ---------------------------------------------------------------------------
# Fused nonlinear tendency of the integrators
# ---------------------------------------------------------------------------

def _points(coeffs, m):
    """Real values on the m^dim lattice of full-layout coefficients (complex FFT)."""
    dim, n = coeffs.ndim - 1, coeffs.shape[1]
    idx = np.fft.fftfreq(n, d=1.0 / n).astype(int) % m
    padded = np.zeros(coeffs.shape[:1] + (m,) * dim, dtype=complex)
    padded[(slice(None),) + np.ix_(*([idx] * dim))] = coeffs
    return np.fft.ifftn(padded, axes=tuple(range(1, dim + 1))).real * float(m**dim)


def reference_tendency(coeffs, length, adv_scale, damp_scale, r):
    """P(adv_scale (u . grad) u + damp_scale |u|^(r-1) u), full layout.

    Convective form with every product on a 2x lattice, by complex FFTs, and
    the projection applied mode by mode: nothing here shares code with
    cbflab's operators.
    """
    dim, n = coeffs.ndim - 1, coeffs.shape[1]
    m = 2 * n
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    k = np.stack(np.meshgrid(*([freqs] * dim), indexing="ij"))
    u = _points(coeffs, m)
    adv = np.zeros_like(u)
    for i in range(dim):
        adv += u[i] * _points((2j * math.pi / length) * k[i] * coeffs, m)
    mag = np.sqrt(np.sum(u * u, axis=0))
    total = adv_scale * adv + damp_scale * mag ** (r - 1.0) * u
    spec = np.fft.fftn(total, axes=tuple(range(1, dim + 1))) / float(m**dim)
    idx = freqs.astype(int) % m
    out = spec[(slice(None),) + np.ix_(*([idx] * dim))]
    k2 = np.sum(k * k, axis=0)
    div = np.sum(k * out, axis=0)
    out = out - k * (div / np.where(k2 > 0, k2, 1.0))
    retained = np.all(np.abs(k) < n // 2, axis=0) & (k2 > 0)
    return np.where(retained, out, 0.0)


@pytest.mark.parametrize("dim,n,r", [(2, 32, 1.0), (2, 32, 3.0), (3, 16, 3.0)])
@pytest.mark.parametrize("form", ["deterministic", "additive", "multiplicative"])
def test_nonlinear_kernel_matches_convective_reference(dim, n, r, form):
    g = TorusGrid(dim=dim, N=n)
    u = random_field(g, 401, h_norm=1.5).coeffs
    beta, eps, z = 0.7, 0.3, -0.8
    adv_scale, damp_scale = 1.0, beta
    if form == "additive":
        u = u + (eps * z) * random_field(g, 402, kmax=n / 4.0).coeffs
    elif form == "multiplicative":
        adv_scale, damp_scale = math.exp(eps * z), beta * math.exp(eps * (r - 1.0) * z)
    got, vmax = nonlinear_kernel(g, g.to_half(u), adv_scale, damp_scale, r)
    want = reference_tendency(u, g.L, adv_scale, damp_scale, r)
    assert got.shape == (dim,) + g.half_shape
    err = np.max(np.abs(got - want[..., : n // 2 + 1])) / np.max(np.abs(want))
    assert err <= 1e-12
    assert vmax == pytest.approx(np.sqrt(np.max(np.sum(_points(u, 2 * n) ** 2, axis=0))), rel=0.2)


# ---------------------------------------------------------------------------
# The padded transform pair: pruned FFT passes and dense DFT products
# ---------------------------------------------------------------------------

def _transform_case(dim, n, ratio):
    """(grid, half state, m) on the lattice padded by ``ratio``: 3/2 and 2 are the
    advection and damping lattices, 1 and 3 bracket them."""
    g = TorusGrid(dim=dim, N=n)
    return g, random_field(g, 5, h_norm=1.3).half, g.padded_size(ratio)


def _numpy_pair(g, u, m):
    """``irfftn(pad_half(u))``, products made from it and ``truncate_half(rfftn(products))``,
    normalized as the pair is (``norm="forward"``)."""
    axes = tuple(range(-g.dim, 0))
    values = np.fft.irfftn(g.pad_half(u, m), s=(m,) * g.dim, axes=axes, norm="forward")
    products = values * values[::-1]  # a full spectrum for the truncation to cut
    return values, products, g.truncate_half(np.fft.rfftn(products, axes=axes, norm="forward"), m)


@pytest.mark.parametrize("ratio", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("dim", [2, 3])
def test_pruned_transforms_match_numpy_bitwise(dim, n, ratio):
    g, u, m = _transform_case(dim, n, ratio)
    want, values, spectrum = _numpy_pair(g, u, m)
    got = g._pruned_irfft(u, m, np.empty_like(want))
    assert got.tobytes() == want.tobytes()
    assert g._pruned_rfft(values, m).tobytes() == spectrum.tobytes()


def _dense_irfft(g, coeffs, m, out):
    return g.dense_plan(m, coeffs.shape[: -g.dim]).irfft(coeffs, out)


def _dense_rfft(g, values, m):
    return g.dense_plan(m, values.shape[: -g.dim]).rfft(values)


#: Each path of the padded pair, whichever one the lattice picks.
_PATHS = {
    "dense": (_dense_irfft, _dense_rfft),
    "pruned": (TorusGrid._pruned_irfft, TorusGrid._pruned_rfft),
}


@pytest.mark.parametrize("ratio", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("dim", [2, 3])
def test_dense_transforms_match_numpy(dim, n, ratio):
    # measured worst case 1.3e-15 of the largest entry
    g, u, m = _transform_case(dim, n, ratio)
    want, values, spectrum = _numpy_pair(g, u, m)
    got = _dense_irfft(g, u, m, np.empty_like(want))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    got = _dense_rfft(g, values, m)
    assert got.shape == spectrum.shape
    assert np.max(np.abs(got - spectrum)) <= 1e-13 * np.max(np.abs(spectrum))
    off = np.ones(g.half_shape, dtype=bool)
    off[g.half_weight > 0] = False
    off[(0,) * g.dim] = False  # the mean mode is retained by the transforms
    assert not np.any(got[:, off])  # +0 or -0 off the retained lattice, like the truncation


@pytest.mark.parametrize(
    "dim,n,lattices,path",
    [
        (2, 32, (48, 64), "dense"),
        (2, 32, (96,), "dense"),
        (3, 16, (24, 32), "dense"),
        (3, 32, (48, 64), "dense"),
        (2, 48, (72, 96), "pruned"),
        (2, 64, (96, 128), "pruned"),
        (3, 48, (72, 96), "pruned"),
    ],
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_public_pair_takes_the_path_the_lattice_picks(dim, n, lattices, path):
    g = TorusGrid(dim=dim, N=n)
    assert g.dense == (path == "dense")
    u = random_field(g, 9, h_norm=1.1).half
    other = "pruned" if path == "dense" else "dense"
    for m in lattices:
        out = {p: _PATHS[p][0](g, u, m, np.empty((dim,) + (m,) * dim))
               for p in (path, other)}
        got = g.padded_irfft(u, m, np.empty((dim,) + (m,) * dim))
        assert got.tobytes() == out[path].tobytes() != out[other].tobytes()
        values = got * got[::-1]
        spectra = {p: _PATHS[p][1](g, values, m).tobytes() for p in (path, other)}
        assert g.truncated_rfft(values, m).tobytes() == spectra[path] != spectra[other]


@pytest.mark.parametrize("n", [16, 48], ids=["dense", "pruned"])
def test_padded_pair_maps_coefficients_to_point_values_and_back(n):
    # the pair owns its normalization: the inverse gives the point values of
    # sum_k u_k exp(2 pi i k.x/L), and the forward one gives u_k back
    g = TorusGrid(dim=2, N=n)
    u = random_field(g, 3)
    m = g.padded_size(1.5)
    e = np.exp(2j * np.pi * np.outer(np.arange(m), np.fft.fftfreq(n, 1.0 / n)) / m)
    direct = np.einsum("ab,cbd,ed->cae", e, u.coeffs, e).real
    values = g.padded_irfft(u.half, m, np.empty((2, m, m)))
    assert np.max(np.abs(values - direct)) <= 1e-13 * np.max(np.abs(direct))
    back = g.truncated_rfft(values, m)
    assert np.max(np.abs(back - u.half)) <= 1e-13 * np.max(np.abs(u.half))


_THREAD_PROBE = """
import hashlib
from cbflab import TorusGrid, random_field
from cbflab.operators import nonlinear_kernel
for dim, n in {lattices}:
    g = TorusGrid(dim=dim, N=n)
    u = random_field(g, 17, h_norm=1.5).half
    for r in (1.0, 3.0):
        tendency, vmax = nonlinear_kernel(g, u, 0.9, 0.7, r)
        print(dim, n, r, hashlib.sha256(tendency.tobytes()).hexdigest(), vmax.hex())
"""


def test_dense_kernels_do_not_depend_on_the_blas_thread_count():
    lattices = [(2, 16), (2, 32), (2, 40), (3, 8), (3, 16), (3, 32)]
    assert all(TorusGrid(dim=d, N=n).dense for d, n in lattices)
    package_root = str(Path(cbflab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    lines = []
    for threads in ("1", "2"):
        # the BLAS reads its thread count when numpy is first imported
        done = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE.format(lattices=lattices)],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            check=True, capture_output=True, text=True, timeout=60,
        )
        lines.append(done.stdout.splitlines())
    assert len(lines[0]) == 2 * len(lattices)
    assert lines[0] == lines[1]


def _kernel_results(g, r):
    """Every public-kernel result of one grid and exponent, with the scratch they ran on."""
    u = random_field(g, 61, h_norm=1.2).coeffs
    v = random_field(g, 62, h_norm=0.7).coeffs
    results = [
        nonlinear_kernel(g, g.to_half(u), 0.9, 0.6, r)[0],
        bilinear_kernel(g, u)[0],
        bilinear_kernel(g, u, v)[0],
        damping_kernel(g, u, r),
        g.to_phys(u, 2.0)[0],
    ]
    return results, tuple(_SCRATCH.values())


def _clear_scratch():
    for dtype in _SCRATCH:
        _SCRATCH[dtype] = np.empty(0, dtype=dtype)


def test_kernel_results_never_alias_the_scratch():
    # two grids, and one whose damping lattice is the first one's advection lattice
    grids = (
        TorusGrid(dim=2, N=16),
        TorusGrid(dim=3, N=8),
        TorusGrid(dim=2, N=12),
    )
    cases = [(g, r) for r in (1.0, 2.5, 3.0) for g in grids]
    fresh = {}
    for g, r in cases:
        _clear_scratch()
        fresh[g, r] = [a.tobytes() for a in _kernel_results(g, r)[0]]
    _clear_scratch()
    kept = []
    for g, r in cases:
        results, scratch = _kernel_results(g, r)
        for a in results:
            assert not any(np.shares_memory(a, s) for s in scratch)
        kept.append((g, r, results, [a.tobytes() for a in results]))
    for g, r, results, at_return in kept:
        assert [a.tobytes() for a in results] == at_return == fresh[g, r]


def test_one_scratch_serves_every_grid():
    # more grids than a four-entry cache keyed by grid would keep
    grids = (
        TorusGrid(dim=2, N=16),
        TorusGrid(dim=3, N=8),
        TorusGrid(dim=2, N=32),
        TorusGrid(dim=3, N=16),
        TorusGrid(dim=2, N=12),
        TorusGrid(dim=3, N=12),
    )
    first = [[a.tobytes() for a in _kernel_results(g, 3.0)[0]] for g in grids]
    kept = tuple(_SCRATCH.values())
    for g, want in zip(grids, first):
        results, scratch = _kernel_results(g, 3.0)
        assert all(now is before for now, before in zip(scratch, kept))
        assert [a.tobytes() for a in results] == want


def test_dense_plans_follow_the_scratch_when_it_is_replaced():
    g2, g3 = TorusGrid(dim=2, N=32), TorusGrid(dim=3, N=32)
    # the plans the 2D kernels run on: (m, lead) of the advection and damping pairs
    used = [(32, 2, 48, (2,)), (32, 2, 48, (3,)), (32, 2, 48, (4,)), (32, 2, 64, (2,))]
    _clear_scratch()
    first, old = _kernel_results(g2, 3.0)
    _, grown = _kernel_results(g3, 3.0)
    assert grown[1].size > old[1].size  # the 3D lattice replaced the complex scratch
    after_growth, _ = _kernel_results(g2, 3.0)
    assert all(_PLANS[key].base is grown[1] for key in used)
    _clear_scratch()
    cleared, new = _kernel_results(g2, 3.0)
    # each growth dropped the plans before it, so none sits on an outgrown array
    assert all(plan.base is new[1] for plan in _PLANS.values())
    again, now = _kernel_results(g2, 3.0)
    assert now[1] is new[1] and now[1].size < grown[1].size
    assert all(_PLANS[key].base is now[1] for key in used)
    want = [a.tobytes() for a in first]
    for results in (first, after_growth, cleared, again):
        assert [a.tobytes() for a in results] == want
        for a in results:
            assert not any(np.shares_memory(a, s) for s in old + grown + new + now)


def test_warm_nonlinear_kernel_allocation_is_bounded():
    # 3D: measured 0.54 MB on the scratch; fresh padded temporaries took 2.8 MB.
    # 2D N=32: measured 86.8 KB, five half-layout fields of 17 KB.
    for dim, n, bound in ((3, 16, 1 << 20), (2, 32, 96 << 10)):
        g = TorusGrid(dim=dim, N=n)
        u = random_field(g, 7, h_norm=1.5).half
        nonlinear_kernel(g, u, 1.0, 1.0, 3.0)
        tracemalloc.start()
        try:
            nonlinear_kernel(g, u, 1.0, 1.0, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (dim, n)


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def test_taylor_green_norms():
    tg = taylor_green()
    assert h_norm(tg) ** 2 == pytest.approx(2.0 * math.pi**2, rel=1e-12)
    assert v_norm(tg) ** 2 == pytest.approx(4.0 * math.pi**2, rel=1e-12)


def test_zero_field_norms(grid2d):
    from cbflab import zero_velocity

    z = zero_velocity(grid2d)
    assert (h_norm(z), v_norm(z), a_norm(z)) == (0.0, 0.0, 0.0)


def test_parseval_matches_collocation(grid2d):
    u = random_field(grid2d, 55)
    vals, m = u.grid.to_phys(u.coeffs, 1.0)
    quad = math.sqrt(np.sum(vals**2) * (u.grid.L / m) ** u.grid.dim)
    assert quad == pytest.approx(h_norm(u), rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_poincare_inequalities(seed):
    g = TorusGrid(dim=2, N=16)
    u = random_field(g, seed)
    lam1 = g.lambda1
    assert lam1 * h_norm(u) ** 2 <= v_norm(u) ** 2 * (1 + 1e-12)
    assert a_norm(u) ** 2 >= lam1 * v_norm(u) ** 2 * (1 - 1e-12)


def test_h_distance_symmetric(grid2d):
    a, b = random_field(grid2d, 1), random_field(grid2d, 2)
    assert h_distance(a, b) == h_distance(b, a)
    assert h_distance(a, a) == 0.0


@pytest.mark.parametrize("dim,n", [(2, 8), (2, 32), (3, 8), (3, 16)])
def test_h_distance_reads_the_half_layout(dim, n):
    g = TorusGrid(dim=dim, N=n)
    a, b = random_field(g, 31, h_norm=1.4), random_field(g, 32, h_norm=0.3)
    got = h_distance(a, b)
    # no full layout is cached on either field
    assert "coeffs" not in vars(a) and "coeffs" not in vars(b)
    assert got == h_norm_kernel(g, a.coeffs - b.coeffs)
