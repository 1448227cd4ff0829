import math

import numpy as np
import pytest

from cbflab import deterministic
from cbflab import (
    BlowUpError,
    CFLViolationError,
    NoiseConfig,
    PhysicsParams,
    SpectralVelocity,
    TorusGrid,
    ValidationError,
    energy_residual,
    find_singleton,
    h_norm,
    ou_path,
    probe_field,
    random_field,
    simulate,
    single_mode_field,
    solve_transformed,
    zero_velocity,
)
from cbflab.operators import (
    bilinear_kernel,
    damping_kernel,
    h_norm_kernel,
    stokes_kernel,
)


def steady_residual(a, params):
    """|mu A a + B(a) + beta C(a) + darcy a - f|_H at a candidate equilibrium."""
    g = a.grid
    adv, _ = bilinear_kernel(g, a.coeffs)
    out = params.mu * stokes_kernel(g, a.coeffs) + adv
    if params.beta:
        out = out + params.beta * damping_kernel(g, a.coeffs, params.r)
    if params.darcy:
        out = out + params.darcy * a.coeffs
    if params.forcing is not None:
        out = out - params.forcing.coeffs
    return h_norm_kernel(g, out)


def test_zero_stays_zero(grid2d_small):
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    traj = simulate(zero_velocity(grid2d_small), p, T=0.5, h=0.01)
    assert traj.h_norm[-1] == 0.0


def test_stokes_mode_exact_decay(grid2d):
    # single shear mode, beta = 0: closed-form linear solution
    u0 = single_mode_field(grid2d, (0, 2), (1.0, 0.0), h_norm=0.1)
    p = PhysicsParams(mu=0.7, beta=0.0, r=1.0)
    traj = simulate(u0, p, T=1.0, h=1e-3)
    expect = 0.1 * math.exp(-0.7 * grid2d.lambda1 * 4.0 * 1.0)
    assert traj.h_norm[-1] == pytest.approx(expect, rel=1e-10)


def test_stokes_mode_decay_nonunit_box():
    # L = pi gives lambda1 = 4; guards against double-counting the box factor
    g = TorusGrid(dim=2, N=16, L=math.pi)
    u0 = single_mode_field(g, (0, 1), (1.0, 0.0), h_norm=0.05)
    p = PhysicsParams(mu=0.5, beta=0.0, r=1.0)
    traj = simulate(u0, p, T=0.5, h=5e-4)
    expect = 0.05 * math.exp(-0.5 * 4.0 * 0.5)
    assert traj.h_norm[-1] == pytest.approx(expect, rel=1e-9)


def test_unforced_h_norm_monotone(grid2d_small):
    u0 = probe_field(grid2d_small, 4)
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    traj = simulate(u0, p, T=2.0, h=0.01)
    diffs = np.diff(traj.h_norm)
    assert np.all(diffs <= 1e-14)


def test_unforced_gronwall_envelope(grid2d_small):
    u0 = probe_field(grid2d_small, 5)
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    traj = simulate(u0, p, T=3.0, h=0.01)
    lam1 = grid2d_small.lambda1
    envelope = traj.h_norm[0] ** 2 * np.exp(-p.mu * lam1 * traj.t)
    assert np.all(traj.h_norm**2 <= envelope * 1.05)


def test_divergence_and_mean_preserved(grid2d_small):
    u0 = probe_field(grid2d_small, 6)
    f = single_mode_field(grid2d_small, (1, 1), (1.0, -1.0), h_norm=0.1)
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0, forcing=f)
    traj = simulate(u0, p, T=1.0, h=0.01, sample_every=25)
    g = grid2d_small
    for state in traj.states:
        c = state.coeffs
        assert np.max(np.abs(c[(slice(None),) + (0,) * g.dim])) == 0.0
        div = np.abs(np.einsum("i...,i...->...", g.k, c))
        amp = np.sqrt(np.sum(np.abs(c) ** 2, axis=0))
        assert np.all(div <= 1e-10 * np.maximum(1.0, amp) * np.maximum(1.0, np.sqrt(g.k2)))


def test_energy_residual_zero_case(grid2d_small):
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    traj = simulate(zero_velocity(grid2d_small), p, T=0.5, h=0.01, record_lr=True)
    assert np.max(np.abs(energy_residual(traj, p))) == 0.0


def test_energy_residual_pure_stokes_quadrature_error(grid2d):
    u0 = single_mode_field(grid2d, (0, 1), (1.0, 0.0), h_norm=0.1)
    p = PhysicsParams(mu=1.0, beta=0.0, r=1.0)
    traj = simulate(u0, p, T=1.0, h=1e-3, record_lr=True)
    assert np.max(np.abs(energy_residual(traj, p))) <= 1e-8


def test_energy_residual_second_order(grid2d):
    u0 = probe_field(grid2d, 3)
    f = single_mode_field(grid2d, (1, 0), (0.0, 1.0), h_norm=0.2)
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0, forcing=f)
    res = {}
    for h in (2e-3, 1e-3):
        traj = simulate(u0, p, T=1.0, h=h, record_lr=True)
        res[h] = np.max(np.abs(energy_residual(traj, p)))
    factor = res[2e-3] / res[1e-3]
    assert 4.0 / 1.3 <= factor <= 4.0 * 1.3


def test_cfl_guard_aborts(grid2d_small):
    u0 = probe_field(grid2d_small, 7)
    p = PhysicsParams(mu=1e-3, beta=0.0, r=1.0)
    with pytest.raises(CFLViolationError):
        simulate(u0, p, T=10.0, h=1.0)


def test_blowup_guard(grid2d_small):
    u0 = probe_field(grid2d_small, 8)
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    with pytest.raises(BlowUpError):
        simulate(u0, p, T=1.0, h=0.01, blowup_guard=1e-3)


def test_simulate_validates_horizon(grid2d_small):
    u0 = probe_field(grid2d_small, 9)
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    with pytest.raises(ValidationError):
        simulate(u0, p, T=0.0051, h=0.01)


def test_find_singleton_zero_forcing(grid2d_small):
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    res = find_singleton(p, grid2d_small, tol=1e-6, maxT=40.0, n_probes=2, h=0.02)
    assert res.converged
    assert h_norm(res.a_star) <= 1e-6


def test_find_singleton_requires_condition(grid2d_small, constants):
    f = single_mode_field(grid2d_small, (1, 0), (0.0, 1.0), h_norm=5.0)
    p = PhysicsParams(mu=0.4, beta=1.0, r=3.0, forcing=f)
    with pytest.raises(ValidationError):
        find_singleton(p, grid2d_small, tol=1e-6, maxT=1.0, n_probes=2, h=0.002)


def test_find_singleton_rejects_darcy(grid2d_small):
    # the singleton conditions are stated for darcy = 0
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0, darcy=0.5)
    with pytest.raises(ValidationError):
        find_singleton(p, grid2d_small, tol=1e-6, maxT=1.0, n_probes=2, h=0.02)


def test_find_singleton_nonconvergence_path(grid2d_small):
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    res = find_singleton(p, grid2d_small, tol=1e-13, maxT=0.2, n_probes=2, h=0.02)
    assert not res.converged
    assert len(res.contraction_log) >= 1


def test_find_singleton_budget_is_whole_steps(grid2d_small, monkeypatch):
    # check_every is a cadence of whole steps; maxT is a budget the last chunk is cut at
    chunks = []
    real_drive = deterministic.drive

    def counting_drive(*args, **kwargs):
        chunks.append(args[5])
        return real_drive(*args, **kwargs)

    monkeypatch.setattr(deterministic, "drive", counting_drive)
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    res = find_singleton(p, grid2d_small, maxT=2.5, n_probes=2, h=0.02, check_every=1.0)
    assert not res.converged
    assert res.t_final == 2.5
    assert [t for t, _, _ in res.contraction_log] == [1.0, 2.0, 2.5]
    assert chunks == [50, 50, 50, 50, 25, 25]  # two probes per chunk
    with pytest.raises(ValidationError, match="solver.T: 2.0 is not a multiple"):
        find_singleton(p, grid2d_small, maxT=2.0, n_probes=2, h=0.03)


def test_find_singleton_linear_steady_state(grid2d_small):
    # beta = 0, tiny forcing: the limit is close to the linear steady state
    f = single_mode_field(grid2d_small, (0, 1), (1.0, 0.0), h_norm=0.02)
    p = PhysicsParams(mu=1.0, beta=0.0, r=1.0, forcing=f)
    tol = 1e-7
    res = find_singleton(p, grid2d_small, tol=tol, maxT=60.0, n_probes=2, h=0.005)
    assert res.converged
    # steady residual of the returned state
    assert steady_residual(res.a_star, p) <= 10.0 * tol
    # and it approximates f / (mu lambda1 |k|^2) = f
    gap = h_norm_kernel(grid2d_small, res.a_star.coeffs - f.coeffs)
    assert gap <= 1e-4 * h_norm(f) + 10 * tol


def test_darcy_term_accelerates_decay(grid2d_small):
    u0 = probe_field(grid2d_small, 10)
    base = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    damped = PhysicsParams(mu=1.0, beta=1.0, r=3.0, darcy=2.0)
    t1 = simulate(u0, base, T=1.0, h=0.01)
    t2 = simulate(u0, damped, T=1.0, h=0.01)
    assert t2.h_norm[-1] < t1.h_norm[-1] * math.exp(-1.5)


@pytest.mark.parametrize("dim,n", [(2, 16), (2, 32), (3, 16)])
def test_half_layout_round_trip_bitwise(dim, n):
    g = TorusGrid(dim=dim, N=n)
    full = random_field(g, 61).coeffs
    half = g.to_half(full)
    assert half.shape == (dim,) + g.half_shape
    # exact equality; only the sign of a zero in the mirrored half is not kept
    assert np.array_equal(g.to_full(half), full)
    rebuilt = g.to_full(half)
    assert g.to_full(g.to_half(rebuilt)).tobytes() == rebuilt.tobytes()
    assert g.to_half(rebuilt).tobytes() == half.tobytes()


def _assert_exactly_hermitian(state):
    g, c = state.grid, state.coeffs
    plane = c[..., 0]
    mirror = np.conj(np.flip(np.roll(plane, -1, axis=-1), axis=-1))
    if g.dim == 3:
        mirror = np.flip(np.roll(mirror, -1, axis=-2), axis=-2)
    assert np.array_equal(plane, mirror)  # kz = 0 plane, bit for bit
    assert np.array_equal(c, np.conj(g.negate_modes(c)))
    SpectralVelocity(g, c)  # and it passes validation again


def test_states_leaving_drive_are_hermitian(grid2d_small, grid3d):
    f = single_mode_field(grid2d_small, (1, 1), (1.0, -1.0), h_norm=0.1)
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0, forcing=f)
    u0 = probe_field(grid2d_small, 6)
    z = ou_path(3, 1.0, -1.0, 0.5, 0.01)
    phi = random_field(grid2d_small, 42, kmax=4.0)
    runs = [
        simulate(u0, p, T=0.5, h=0.01, sample_every=10).states,
        solve_transformed(
            u0, p, NoiseConfig(mode="additive", epsilon=0.3, phi=phi, seed=3),
            z, (0.0, 0.5), 0.01, sample_every=10,
        ).v.states,
        solve_transformed(
            u0, p, NoiseConfig(mode="multiplicative", epsilon=0.3, seed=3),
            z, (0.0, 0.5), 0.01, sample_every=10,
        ).u_states,
        simulate(
            probe_field(grid3d, 6), PhysicsParams(mu=1.0, beta=1.0, r=3.0),
            T=0.1, h=0.02, sample_every=2,
        ).states,
    ]
    for states in runs:
        assert len(states) >= 3
        for state in states:
            _assert_exactly_hermitian(state)
