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
    zero_velocity,
)
from cbflab.operators import h_distance, h_norm_kernel
from cbflab.random_pde import _reconstruct

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


def test_noise_path_values_do_not_depend_on_the_window():
    nz = NoiseConfig(mode="multiplicative", epsilon=0.1, ou_alpha=2.5, seed=4)
    wide = ou_path(4, 2.5, -3.0, 2.0, 0.01)
    for t0, t1 in ((0.0, 1.0), (-2.0, -0.75), (-0.5, 0.0), (0.5, 1.5)):
        z = nz.path(t0, t1, 0.01)
        for t in np.arange(t0, t1 + 0.005, 0.01):
            assert z.value(t) == wide.value(t)


def test_additive_rejected_in_3d(grid3d):
    phi3 = random_field(grid3d, 2, kmax=4.0)
    with pytest.raises(ValidationError):
        NoiseConfig(mode="additive", epsilon=0.1, phi=phi3)


def test_random_solvers_reject_darcy(setup2d):
    g, params, phi = setup2d
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0, darcy=0.1)
    nz = NoiseConfig(mode="multiplicative", epsilon=0.1, seed=1)
    with pytest.raises(ValidationError, match="stated for darcy = 0"):
        simulate(probe_field(g, 1), p, 0.5, 0.01, noise=nz)
    # mode none transforms nothing: it runs the deterministic system, Darcy term included
    none = simulate(probe_field(g, 1), p, 0.5, 0.01, noise=NoiseConfig(mode="none"))
    det = simulate(probe_field(g, 1), p, 0.5, 0.01)
    assert none.final_state.coeffs.tobytes() == det.final_state.coeffs.tobytes()


@pytest.mark.parametrize("mode", ["additive", "multiplicative"])
def test_eps_zero_reduces_bitwise(setup2d, mode):
    g, params, phi = setup2d
    u0 = probe_field(g, 11)
    h, T = 1e-2, 2.0
    det = simulate(u0, params, T=T, h=h)
    nz = NoiseConfig(
        mode=mode, epsilon=0.0, phi=phi if mode == "additive" else None,
        ou_alpha=1.0, seed=5,
    )
    out = simulate(u0, params, T, h, noise=nz)
    assert out.final_state.coeffs.tobytes() == det.final_state.coeffs.tobytes()


def test_additive_reconstruction_identity(setup2d):
    g, params, phi = setup2d
    u0 = probe_field(g, 12)
    h = 0.01
    nz = NoiseConfig(mode="additive", epsilon=0.3, phi=phi, ou_alpha=1.0, seed=6)
    z = nz.path(0.0, 1.0, h)
    out = simulate(u0, params, 1.0, h, noise=nz, sample_every=25)
    for ts, v_state in zip(out.sample_times, out.states):
        u_state = _reconstruct(v_state, nz, z.value(ts))
        expected = v_state.coeffs + (0.3 * z.value(ts)) * phi.coeffs
        assert np.array_equal(u_state.coeffs, expected)


def test_multiplicative_reconstruction_identity(setup2d):
    g, params, phi = setup2d
    u0 = probe_field(g, 13)
    h = 0.01
    nz = NoiseConfig(mode="multiplicative", epsilon=0.4, ou_alpha=1.0, seed=7)
    z = nz.path(0.0, 1.0, h)
    out = simulate(u0, params, 1.0, h, noise=nz, sample_every=50)
    for ts, v_state in zip(out.sample_times, out.states):
        u_state = _reconstruct(v_state, nz, z.value(ts))
        expected = math.exp(0.4 * z.value(ts)) * v_state.coeffs
        assert np.array_equal(u_state.coeffs, expected)


@pytest.mark.parametrize("mode,eps", [("additive", 0.3), ("multiplicative", 0.4), ("none", 0.0)])
def test_pullback_reconstruction_is_the_trajectory_velocity(setup2d, mode, eps):
    g, params, phi = setup2d
    nz = NoiseConfig(mode=mode, epsilon=eps, phi=phi if mode == "additive" else None, seed=3)
    s = pullback_sample(params, nz, 0.5, 0.01, grid=g)
    traj = simulate(zero_velocity(g), params, 0.5, 0.01, noise=nz, t0=-0.5)
    z = nz.path(-0.5, 0.0, 0.01).value(traj.sample_times[-1])
    u = _reconstruct(traj.final_state, nz, z)
    assert s.state.coeffs.tobytes() == traj.final_state.coeffs.tobytes()
    assert s.reconstructed.coeffs.tobytes() == u.coeffs.tobytes()


def test_additive_zero_profile_decays_like_deterministic():
    # f = 0 and a zero noise profile: the noise has nothing to act through
    g = TorusGrid(dim=2, N=16)
    params = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    u0 = probe_field(g, 19)
    det = simulate(u0, params, T=1.0, h=0.01)
    nz = NoiseConfig(
        mode="additive", epsilon=0.5, phi=zero_velocity(g), ou_alpha=1.0, seed=2
    )
    out = simulate(u0, params, 1.0, 0.01, noise=nz)
    gap = np.max(np.abs(out.final_state.coeffs - det.final_state.coeffs))
    assert gap <= 1e-14


def test_multiplicative_zero_invariance():
    # f = 0, v0 = 0: the zero state is invariant along any path
    g = TorusGrid(dim=2, N=16)
    params = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    nz = NoiseConfig(mode="multiplicative", epsilon=0.5, ou_alpha=1.0, seed=8)
    out = simulate(zero_velocity(g), params, 1.0, 0.01, noise=nz)
    assert h_norm(out.final_state) == 0.0


def test_cocycle_consistency(setup2d):
    # solving [-t, 0] equals solving [-t, -s] then [-s, 0], bit for bit
    g, params, phi = setup2d
    h = 0.01
    nz = NoiseConfig(mode="multiplicative", epsilon=0.25, ou_alpha=1.0, seed=9)
    v0 = probe_field(g, 14)
    full = simulate(v0, params, 2.0, h, noise=nz, t0=-2.0)
    first = simulate(v0, params, 1.25, h, noise=nz, t0=-2.0)
    second = simulate(first.final_state, params, 0.75, h, noise=nz, t0=-0.75)
    assert np.array_equal(full.final_state.coeffs, second.final_state.coeffs)


def test_pullback_deterministic_reduction(setup2d):
    g, params, phi = setup2d
    from cbflab import find_singleton

    res = find_singleton(params, g, tol=1e-8, maxT=60.0, n_probes=2, h=0.01)
    assert res.converged
    nz = NoiseConfig(mode="multiplicative", epsilon=0.0, ou_alpha=1.0, seed=3)
    s = pullback_sample(params, nz, 30.0, 0.01, grid=g)
    assert h_distance(res.a_star, s.state) <= 1e-6


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
    assert (s.noise.seed, s.t_pull) == (nz.seed, 0.07)
    with pytest.raises(ValidationError, match="solver.t_pull: the halving check needs 2 steps"):
        pullback_sample(params, nz, 0.01, 0.01, grid=g, validate=True)


def test_pullback_initial_state_on_its_grid(setup2d):
    g, _, _ = setup2d
    unforced = PhysicsParams(mu=1.0, beta=1.0, r=3.0)  # no forcing: only ``grid`` names one
    nz = NoiseConfig(mode="multiplicative", epsilon=0.1, ou_alpha=1.0, seed=33)
    other = probe_field(TorusGrid(dim=2, N=32, L=2.0 * math.pi), 1)
    with pytest.raises(GridMismatchError):
        pullback_sample(unforced, nz, 1.0, 0.01, grid=g, v0=other)
