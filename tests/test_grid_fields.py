import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbflab import (
    MeanViolationError,
    PhysicsParams,
    SpectralVelocity,
    TorusGrid,
    ValidationError,
    h_norm,
    random_field,
    read_field,
    simulate,
    single_mode_field,
    write_field,
    zero_velocity,
)
from cbflab.fields import hermitianize


def test_grid_invariants(grid2d):
    assert grid2d.lambda1 == pytest.approx(1.0)
    assert grid2d.mask[0, 0] == False  # mean mode excluded
    # symmetric retention: k kept iff -k kept
    m = grid2d.mask.copy()
    m[0, 0] = True
    assert np.array_equal(m, grid2d.negate_modes(m))


@pytest.mark.parametrize("dim,N", [(2, 7), (2, 6), (4, 16), (2, 16)])
def test_grid_rejects_bad_shapes(dim, N):
    if dim == 2 and N == 16:
        TorusGrid(dim=dim, N=N)  # valid control case
        return
    with pytest.raises(ValidationError):
        TorusGrid(dim=dim, N=N)


def test_lambda1_scaling():
    g = TorusGrid(dim=2, N=16, L=math.pi)
    assert g.lambda1 == pytest.approx(4.0)


def test_velocity_rejects_nonzero_mean(grid2d):
    c = np.zeros((2,) + grid2d.shape, dtype=complex)
    c[0, 0, 0] = 1.0
    with pytest.raises(MeanViolationError):
        SpectralVelocity(grid2d, c)


def test_velocity_rejects_divergent(grid2d):
    c = np.zeros((2,) + grid2d.shape, dtype=complex)
    # gradient-like single conjugate pair: coeff parallel to k
    c[:, 1, 0] = [1.0, 0.0]
    c[:, -1 % 32, 0] = [1.0, 0.0]
    with pytest.raises(ValidationError):
        SpectralVelocity(grid2d, c)


@pytest.mark.parametrize(
    "shape,index",
    [("shape", (1, 1, 0)), ("shape", (1, 1, 3)), ("half_shape", (1, 1, 0))],
    ids=["full-zero-plane", "full-off-plane", "half-zero-plane"],
)
def test_velocity_rejects_asymmetric(grid2d, shape, index):
    c = np.zeros((2,) + getattr(grid2d, shape), dtype=complex)
    c[index] = 1.0  # no conjugate partner at -k
    with pytest.raises(ValidationError, match="conjugate symmetry"):
        SpectralVelocity(grid2d, c)


_PHYSICS = PhysicsParams(mu=1.0, beta=1.0, r=3.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda g, path: random_field(g, 3, h_norm=0.6),
        lambda g, path: single_mode_field(g, (2, -1), (1.0, 0.3j)),
        lambda g, path: read_field(path),
        lambda g, path: simulate(random_field(g, 5), _PHYSICS, T=0.05, h=0.01).final_state,
    ],
    ids=["random_field", "single_mode_field", "read_field", "drive-snapshot"],
)
def test_either_layout_builds_the_same_field(tmp_path, grid2d_small, build):
    path = tmp_path / "f.cbff"
    write_field(path, random_field(grid2d_small, 4, h_norm=0.9))
    u = build(grid2d_small, path)
    assert u.half.shape == (2,) + grid2d_small.half_shape
    assert u.coeffs.shape == (2,) + grid2d_small.shape
    for layout in (u.half, u.coeffs):
        v = SpectralVelocity(grid2d_small, layout)
        assert v.half.tobytes() == u.half.tobytes()
        assert v.coeffs.tobytes() == u.coeffs.tobytes()
        for arr in (v.half, v.coeffs):
            assert not arr.flags.writeable
    # +0 off the retained lattice, so .cbff files keep their sign bits
    off = u.coeffs[:, ~grid2d_small.mask]
    assert not np.any(np.signbit(off.real) | np.signbit(off.imag))


def test_hermitianize_makes_real_fields(grid2d):
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((2,) + grid2d.shape) + 1j * rng.standard_normal(
        (2,) + grid2d.shape
    )
    sym = hermitianize(grid2d, raw)
    assert np.array_equal(sym, np.conj(grid2d.negate_modes(sym)))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_random_field_normalized(seed):
    g = TorusGrid(dim=2, N=16)
    u = random_field(g, seed)
    assert h_norm(u) == pytest.approx(1.0, rel=1e-12)
    kmag = np.sqrt(g.k2)
    live = np.any(np.abs(u.coeffs) > 0, axis=0)
    assert not np.any(live & (kmag > g.N / 4.0))


def test_single_mode_norm_control(grid2d):
    u = single_mode_field(grid2d, (2, 1), (1.0, 0.3j), h_norm=0.25)
    assert h_norm(u) == pytest.approx(0.25, rel=1e-12)


def test_single_mode_rejects_bad_modes(grid2d):
    with pytest.raises(ValidationError):
        single_mode_field(grid2d, (0, 0), (1.0, 0.0))
    with pytest.raises(ValidationError):
        single_mode_field(grid2d, (16, 0), (1.0, 0.0))


def test_snapshot_round_trip(tmp_path, grid2d):
    u = random_field(grid2d, 9, h_norm=0.7)
    path = tmp_path / "field.cbff"
    write_field(path, u)
    back = read_field(path)
    assert back.grid == u.grid
    assert np.array_equal(back.coeffs, u.coeffs)
    blob = path.read_bytes()
    assert blob[:4] == b"CBFF"


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cbff"
    path.write_bytes(b"not a field")
    with pytest.raises(ValidationError):
        read_field(path)


@pytest.mark.parametrize(
    "cut",
    [
        lambda blob: blob[:-16],  # truncated payload
        lambda blob: blob[:10],  # short header
        lambda blob: blob + b"\0",  # trailing bytes
        lambda blob: blob[:8] + struct.pack("<d", 2.5) + blob[16:],  # dim not an integer
        lambda blob: blob[:16] + struct.pack("<d", 8.5) + blob[24:],  # N not an integer
    ],
    ids=["truncated", "short", "trailing", "fractional-dim", "fractional-N"],
)
def test_snapshot_rejects_malformed_files(tmp_path, grid2d_small, cut):
    path = tmp_path / "f.cbff"
    write_field(path, random_field(grid2d_small, 2))
    assert len(path.read_bytes()) == 32 + 16 * 2 * 16**2
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(ValidationError) as err:
        read_field(path)
    assert str(path) in str(err.value)


def test_zero_velocity(grid3d):
    z = zero_velocity(grid3d)
    assert not np.any(z.coeffs)
    assert h_norm(z) == 0.0


def test_physical_field_workspace(grid2d):
    u = random_field(grid2d, 3, h_norm=0.8)
    values, m = grid2d.to_phys(u.coeffs, factor=1.5)
    assert m == 48
    assert values.shape == (2, 48, 48)
    # collocation quadrature of |u|^2 on the padded lattice
    energy = float(np.sum(values**2) * (grid2d.L / m) ** grid2d.dim)
    assert energy == pytest.approx(h_norm(u) ** 2, rel=1e-12)
