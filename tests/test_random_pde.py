import math

import numpy as np
import pytest

from cbflab import (
    GridMismatchError,
    NoiseConfig,
    PhysicsParams,
    TorusGrid,
    ValidationError,
    h_norm,
    ou_path,
    probe_field,
    pullback_sample,
    random_field,
    simulate,
    single_mode_field,
    solve_transformed,
    zero_velocity,
)
from cbflab.operators import h_norm_kernel

@pytest.fixture(scope="module")
def setup2d():
    g = TorusGrid(dim=2, N=16, L=2.0 * math.pi)
    f = single_mode_field(g, (1, 0), (0.0, 1.0), h_norm=0.15)
    params = PhysicsParams(mu=1.0, beta=1.0, r=3.0, forcing=f)
    phi = random_field(g, 42, h_norm=1.0, kmax=4.0)
    return g, params, phi


def test_noise_config_validation(setup2d):
    g, params, phi = setup2d
    with pytest.raises(ValidationError):
        NoiseConfig(mode="additive", epsilon=0.1)  # no phi
    with pytest.raises(ValidationError):
        NoiseConfig(mode="multiplicative", epsilon=0.1, phi=phi)
    with pytest.raises(ValidationError):
        NoiseConfig(mode="multiplicative", epsilon=1.5)
    with pytest.raises(ValidationError):
        NoiseConfig(mode="weird", epsilon=0.1)
    with pytest.raises(ValidationError):
        NoiseConfig(mode="none", epsilon=0.1)
    wide = random_field(g, 1, kmax=7.0)  # beyond N/4 = 4
    with pytest.raises(ValidationError):
        NoiseConfig(mode="additive", epsilon=0.1, phi=wide)


def test_additive_rejected_in_3d(grid3d):
    phi3 = random_field(grid3d, 2, kmax=4.0)
    with pytest.raises(ValidationError):
        NoiseConfig(mode="additive", epsilon=0.1, phi=phi3)


def test_random_solvers_reject_darcy(setup2d):
    g, params, phi = setup2d
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0, darcy=0.1)
    nz = NoiseConfig(mode="multiplicative", epsilon=0.1, seed=1)
    z = ou_path(1, 1.0, -1.0, 1.0, 0.01)
    with pytest.raises(ValidationError):
        solve_transformed(probe_field(g, 1), p, nz, z, (0.0, 0.5), 0.01)


@pytest.mark.parametrize("mode", ["additive", "multiplicative"])
def test_eps_zero_reduces_bitwise(setup2d, mode):
    g, params, phi = setup2d
    u0 = probe_field(g, 11)
    h, T = 1e-2, 2.0
    det = simulate(u0, params, T=T, h=h)
    z = ou_path(5, 1.0, -1.0, T, h)
    nz = NoiseConfig(
        mode=mode, epsilon=0.0, phi=phi if mode == "additive" else None,
        ou_alpha=1.0, seed=5,
    )
    out = solve_transformed(u0, params, nz, z, (0.0, T), h)
    assert out.v.final_state.coeffs.tobytes() == det.final_state.coeffs.tobytes()


def test_additive_reconstruction_identity(setup2d):
    g, params, phi = setup2d
    u0 = probe_field(g, 12)
    h = 0.01
    z = ou_path(6, 1.0, -1.0, 1.0, h)
    nz = NoiseConfig(mode="additive", epsilon=0.3, phi=phi, ou_alpha=1.0, seed=6)
    out = solve_transformed(u0, params, nz, z, (0.0, 1.0), h, sample_every=25)
    for ts, v_state, u_state in zip(
        out.v.sample_times, out.v.states, out.u_states
    ):
        expected = v_state.coeffs + (0.3 * z.value(ts)) * phi.coeffs
        assert np.array_equal(u_state.coeffs, expected)


def test_multiplicative_reconstruction_identity(setup2d):
    g, params, phi = setup2d
    u0 = probe_field(g, 13)
    h = 0.01
    z = ou_path(7, 1.0, -1.0, 1.0, h)
    nz = NoiseConfig(mode="multiplicative", epsilon=0.4, ou_alpha=1.0, seed=7)
    out = solve_transformed(u0, params, nz, z, (0.0, 1.0), h, sample_every=50)
    for ts, v_state, u_state in zip(out.v.sample_times, out.v.states, out.u_states):
        expected = math.exp(0.4 * z.value(ts)) * v_state.coeffs
        assert np.array_equal(u_state.coeffs, expected)


@pytest.mark.parametrize("mode,eps", [("additive", 0.3), ("multiplicative", 0.4), ("none", 0.0)])
def test_pullback_reconstruction_is_the_trajectory_velocity(setup2d, mode, eps):
    g, params, phi = setup2d
    nz = NoiseConfig(mode=mode, epsilon=eps, phi=phi if mode == "additive" else None, seed=3)
    s = pullback_sample(params, nz, 0.5, 0.01, grid=g)
    z = ou_path(3, nz.ou_alpha, -0.5, 0.0, 0.01)
    traj = solve_transformed(zero_velocity(g), params, nz, z, (-0.5, 0.0), 0.01)
    assert s.state.coeffs.tobytes() == traj.v.final_state.coeffs.tobytes()
    assert s.reconstructed.coeffs.tobytes() == traj.u_states[-1].coeffs.tobytes()


def test_additive_zero_profile_decays_like_deterministic():
    # f = 0 and a zero noise profile: the noise has nothing to act through
    g = TorusGrid(dim=2, N=16)
    params = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    u0 = probe_field(g, 19)
    det = simulate(u0, params, T=1.0, h=0.01)
    z = ou_path(2, 1.0, -1.0, 1.0, 0.01)
    nz = NoiseConfig(
        mode="additive", epsilon=0.5, phi=zero_velocity(g), ou_alpha=1.0, seed=2
    )
    out = solve_transformed(u0, params, nz, z, (0.0, 1.0), 0.01)
    gap = np.max(np.abs(out.v.final_state.coeffs - det.final_state.coeffs))
    assert gap <= 1e-14


def test_multiplicative_zero_invariance():
    # f = 0, v0 = 0: the zero state is invariant along any path
    g = TorusGrid(dim=2, N=16)
    params = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    z = ou_path(8, 1.0, -1.0, 1.0, 0.01)
    nz = NoiseConfig(mode="multiplicative", epsilon=0.5, ou_alpha=1.0, seed=8)
    out = solve_transformed(zero_velocity(g), params, nz, z, (0.0, 1.0), 0.01)
    assert h_norm(out.v.final_state) == 0.0


def test_cocycle_consistency(setup2d):
    # solving [-t, 0] equals solving [-t, -s] then [-s, 0], bit for bit
    g, params, phi = setup2d
    h = 0.01
    nz = NoiseConfig(mode="multiplicative", epsilon=0.25, ou_alpha=1.0, seed=9)
    z = ou_path(9, 1.0, -2.0, 0.0, h)
    v0 = probe_field(g, 14)
    full = solve_transformed(v0, params, nz, z, (-2.0, 0.0), h)
    first = solve_transformed(v0, params, nz, z, (-2.0, -0.75), h)
    second = solve_transformed(
        first.v.final_state, params, nz, z, (-0.75, 0.0), h
    )
    assert np.array_equal(full.v.final_state.coeffs, second.v.final_state.coeffs)


def test_ou_domain_guard(setup2d):
    g, params, phi = setup2d
    nz = NoiseConfig(mode="multiplicative", epsilon=0.2, ou_alpha=1.0, seed=10)
    z = ou_path(10, 1.0, -1.0, 0.0, 0.01)
    with pytest.raises(ValidationError):
        solve_transformed(probe_field(g, 1), params, nz, z, (-2.0, 0.0), 0.01)


def test_pullback_deterministic_reduction(setup2d):
    g, params, phi = setup2d
    from cbflab import find_singleton, measure_distance

    res = find_singleton(params, g, tol=1e-8, maxT=60.0, n_probes=2, h=0.01)
    assert res.converged
    nz = NoiseConfig(mode="multiplicative", epsilon=0.0, ou_alpha=1.0, seed=3)
    s = pullback_sample(params, nz, 30.0, 0.01, grid=g)
    assert measure_distance(res.a_star, s) <= 1e-6


def test_pullback_unforced_decay():
    g = TorusGrid(dim=2, N=16)
    params = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    v0 = probe_field(g, 20)
    for eps in (0.0, 0.3):
        nz = NoiseConfig(mode="multiplicative", epsilon=eps, ou_alpha=1.0, seed=21)
        s = pullback_sample(params, nz, 30.0 / g.lambda1, 0.01, grid=g, v0=v0)
        assert h_norm(s.state) <= 1e-6


def test_pullback_determinism_and_doubling(setup2d):
    g, params, phi = setup2d
    nz = NoiseConfig(mode="multiplicative", epsilon=0.1, ou_alpha=1.0, seed=30)
    a = pullback_sample(params, nz, 20.0, 0.02, grid=g, validate=True, pullback_tol=1e-4)
    b = pullback_sample(params, nz, 20.0, 0.02, grid=g, validate=True, pullback_tol=1e-4)
    assert np.array_equal(a.state.coeffs, b.state.coeffs)
    assert a.converged
    assert a.doubling_gap is not None and a.doubling_gap <= 1e-4
    # doubling the horizon moves the sample by less than the doubling gap scale
    c = pullback_sample(params, nz, 40.0, 0.02, grid=g)
    gap = h_norm(
        type(a.state)(g, a.state.coeffs - c.state.coeffs)
    )
    assert gap <= 1e-4


def test_pullback_ladder_stabilizes(setup2d):
    g, params, phi = setup2d
    nz = NoiseConfig(mode="multiplicative", epsilon=0.2, ou_alpha=1.0, seed=31)
    samples = {
        t: pullback_sample(params, nz, t, 0.02, grid=g) for t in (5.0, 10.0, 20.0)
    }
    gaps = [
        h_norm(type(samples[5.0].state)(g, samples[5.0].state.coeffs - samples[10.0].state.coeffs)),
        h_norm(type(samples[5.0].state)(g, samples[10.0].state.coeffs - samples[20.0].state.coeffs)),
    ]
    assert gaps[1] < gaps[0]


def test_pullback_horizon_is_whole_steps(setup2d):
    g, params, phi = setup2d
    nz = NoiseConfig(mode="multiplicative", epsilon=0.1, ou_alpha=1.0, seed=32)
    for validate in (False, True):
        with pytest.raises(ValidationError):
            pullback_sample(params, nz, 0.035, 0.01, grid=g, validate=validate)
    # the halving run of n = 7 steps takes n // 2 = 3 steps on the same path
    s = pullback_sample(params, nz, 0.07, 0.01, grid=g, validate=True)
    half = pullback_sample(params, nz, 0.03, 0.01, grid=g)
    assert s.doubling_gap == h_norm_kernel(g, s.state.coeffs - half.state.coeffs) > 0.0
    assert (s.seed, s.t_pull) == (nz.seed, 0.07)


def test_pullback_initial_state_on_its_grid(setup2d):
    g, _, _ = setup2d
    unforced = PhysicsParams(mu=1.0, beta=1.0, r=3.0)  # no forcing: only ``grid`` names one
    nz = NoiseConfig(mode="multiplicative", epsilon=0.1, ou_alpha=1.0, seed=33)
    other = probe_field(TorusGrid(dim=2, N=32, L=2.0 * math.pi), 1)
    with pytest.raises(GridMismatchError):
        pullback_sample(unforced, nz, 1.0, 0.01, grid=g, v0=other)
