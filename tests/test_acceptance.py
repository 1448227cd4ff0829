"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The long-horizon sweeps
(criteria 8-10) dominate the runtime; every criterion enforces its own wall
clock budget.
"""

import json
import math
import time

import numpy as np
import pytest

from cbflab import (
    EstimateConstants,
    NoiseConfig,
    PhysicsParams,
    SpectralVelocity,
    TorusGrid,
    find_singleton,
    h_norm,
    inner_h,
    leray_project,
    ou_path,
    probe_field,
    pullback_sample,
    random_field,
    rate_sweep,
    simulate,
    single_mode_field,
    stokes_apply,
)
from cbflab.conditions import check_singleton_condition, threshold_2d, threshold_3d_crit
from cbflab.deterministic import energy_residual
from cbflab.experiments import mean_inversions
from cbflab.fields import hermitianize
from cbflab.operators import a_norm, bilinear_B, damping_C, h_distance, v_norm
from cbflab.params import SolverSettings

from test_deterministic import steady_residual
from test_operators import identity3_sides


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


@pytest.fixture(scope="module")
def setup_2d_critical():
    """2D, r = 3, mu = beta = 1, forcing at 50% of the smallness threshold."""
    grid = TorusGrid(dim=2, N=32, L=2.0 * math.pi)
    cons = EstimateConstants()
    f_h = 0.5 * threshold_2d(1.0, grid.lambda1, cons.c1) * grid.lambda1
    f = single_mode_field(grid, (1, 0), (0.0, 1.0), h_norm=f_h)
    params = PhysicsParams(mu=1.0, beta=1.0, r=3.0, forcing=f)
    return grid, params, cons


def test_criterion_01_operator_identity_suite():
    t0 = time.perf_counter()
    grid = TorusGrid(dim=2, N=32, L=2.0 * math.pi)
    n_fields = 200
    rng = np.random.default_rng(2024)
    fields = [random_field(grid, 10_000 + i) for i in range(n_fields)]

    worst = {"div": 0.0, "skew": 0.0, "orth": 0.0, "mono": 0.0}
    kmag = np.maximum(np.sqrt(grid.k2), 1.0)
    for i, u in enumerate(fields):
        # idempotence, starting from a raw non-solenoidal perturbation
        scal = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        raw = u.coeffs + hermitianize(
            grid, np.where(grid.mask, grid.k * scal[None], 0.0) / kmag[None]
        )
        once = leray_project(grid, raw)
        twice = leray_project(grid, once.coeffs)
        assert once.coeffs.tobytes() == twice.coeffs.tobytes()

        div = np.abs(np.einsum("i...,i...->...", grid.k, once.coeffs))
        amp = np.sqrt(np.sum(np.abs(once.coeffs) ** 2, axis=0))
        rel_div = np.max(div / np.maximum(1.0, amp))
        worst["div"] = max(worst["div"], rel_div)
        assert rel_div <= 1e-12

        v = fields[(i + 1) % n_fields]
        from cbflab import trilinear_b

        skew = abs(trilinear_b(u, v, v)) / (h_norm(u) * v_norm(v) ** 2)
        worst["skew"] = max(worst["skew"], skew)
        assert skew <= 1e-10

        orth = abs(inner_h(bilinear_B(u), stokes_apply(u)))
        orth /= v_norm(u) ** 2 * a_norm(u)
        worst["orth"] = max(worst["orth"], orth)
        assert orth <= 1e-8

        for r in (1.0, 2.0, 3.0, 5.0):
            diff = SpectralVelocity(grid, u.coeffs - v.coeffs)
            gap = SpectralVelocity(
                grid, damping_C(u, r).coeffs - damping_C(v, r).coeffs
            )
            mono = inner_h(gap, diff)
            worst["mono"] = min(worst["mono"], mono)
            assert mono >= -1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        "criterion-1",
        f"200 fields; worst div {worst['div']:.2e}, skew {worst['skew']:.2e}, "
        f"orth {worst['orth']:.2e}, monotonicity floor {worst['mono']:.2e}; "
        f"{elapsed:.1f}s",
    )


def test_criterion_02_damping_stokes_identity_refinement():
    rel = {}
    for n in (64, 128):
        grid = TorusGrid(dim=2, N=n, L=2.0 * math.pi)
        u = random_field(grid, 77, h_norm=1.0, kmax=24.0, spectral_slope=-2.5)
        lhs, rhs = identity3_sides(u, 3.0)
        rel[n] = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    assert rel[64] <= 1e-4
    assert rel[128] < rel[64]
    report(
        "criterion-2",
        f"two-sided identity error {rel[64]:.2e} at N=64, {rel[128]:.2e} at N=128",
    )


def test_criterion_03_energy_equality_refinement(setup_2d_critical):
    grid, params, _ = setup_2d_critical
    u0 = probe_field(grid, 3)
    res = {}
    for h in (2e-3, 1e-3):
        traj = simulate(u0, params, T=1.0, h=h, record_lr=True)
        res[h] = float(np.max(np.abs(energy_residual(traj, params))))
    factor = res[2e-3] / res[1e-3]
    assert 3.0 <= factor <= 5.3
    report(
        "criterion-3",
        f"max residual {res[2e-3]:.3e} -> {res[1e-3]:.3e}, factor {factor:.3f}",
    )


@pytest.fixture(scope="module")
def singleton_2d(setup_2d_critical):
    grid, params, cons = setup_2d_critical
    t0 = time.perf_counter()
    result = find_singleton(
        params, grid, tol=1e-8, maxT=120.0, n_probes=3, h=5e-3, constants=cons
    )
    return result, time.perf_counter() - t0


def test_criterion_04_singleton_attractor(setup_2d_critical, singleton_2d):
    grid, params, cons = setup_2d_critical
    result, elapsed = singleton_2d
    assert elapsed < 300.0
    assert result.converged
    assert result.contraction_log[-1][1] < 1e-8

    slope = result.contraction_slope()
    rho = result.condition.varrho
    assert rho == pytest.approx(0.75, rel=1e-12)
    assert slope <= -rho / 2.0 * 0.8

    resid = steady_residual(result.a_star, params)
    assert resid <= 1e-6
    report(
        "criterion-4",
        f"converged at t={result.t_final:.0f} ({elapsed:.0f}s), slope {slope:.2f} "
        f"<= {-rho / 2 * 0.8:.3f}, steady residual {resid:.2e}",
    )


def test_criterion_05_zero_forcing_decay():
    grid = TorusGrid(dim=2, N=32, L=2.0 * math.pi)
    params = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    t_pull = 30.0 / (params.mu * grid.lambda1)
    v0 = probe_field(grid, 17)
    norms = {}
    for label, eps in (("deterministic", 0.0), ("multiplicative", 0.5)):
        nz = NoiseConfig(mode="multiplicative", epsilon=eps, ou_alpha=1.0, seed=5)
        s = pullback_sample(params, nz, t_pull, 0.01, grid=grid, v0=v0)
        norms[label] = h_norm(s.state)
        assert norms[label] <= 1e-6
    report(
        "criterion-5",
        f"pullback norms {norms['deterministic']:.2e} (eps=0), "
        f"{norms['multiplicative']:.2e} (eps=0.5) at t_pull={t_pull:.0f}",
    )


def test_criterion_06_ou_statistics():
    alpha, n = 1.0, 100_000
    vals = np.empty(n)
    for s in range(n):
        vals[s] = ou_path(s, alpha, -0.5, 2.0, 0.1).value(2.0)
    m2, m1 = float(np.mean(vals**2)), float(np.mean(np.abs(vals)))
    se2 = float(np.std(vals**2)) / math.sqrt(n)
    se1 = float(np.std(np.abs(vals))) / math.sqrt(n)
    assert abs(m2 - 0.5) <= 3.0 * se2
    assert abs(m1 - 1.0 / math.sqrt(math.pi)) <= 3.0 * se1

    t_avg = 1000.0
    z = ou_path(9, alpha, -0.5, t_avg, 0.05)
    nonneg = z.values[z.times() >= 0.0]
    avg = float(np.trapezoid(nonneg, dx=0.05) / t_avg)
    bound = 5.0 / math.sqrt(2.0 * alpha * t_avg)
    assert abs(avg) <= bound
    report(
        "criterion-6",
        f"E|z|^2 = {m2:.4f} (0.5 +- {3 * se2:.4f}), E|z| = {m1:.4f} "
        f"(0.5642 +- {3 * se1:.4f}), time average {avg:.4f} within {bound:.4f}",
    )


def test_criterion_07_eps_zero_reduction(setup_2d_critical):
    grid, params, _ = setup_2d_critical
    u0 = probe_field(grid, 23)
    h, steps = 1e-3, 1000
    det = simulate(u0, params, T=steps * h, h=h)
    phi = random_field(grid, 42, h_norm=1.0, kmax=6.0)
    add = simulate(
        u0, params, steps * h, h,
        noise=NoiseConfig(mode="additive", epsilon=0.0, phi=phi, ou_alpha=1.0, seed=4),
    )
    mul = simulate(
        u0, params, steps * h, h,
        noise=NoiseConfig(mode="multiplicative", epsilon=0.0, ou_alpha=1.0, seed=4),
    )
    ref = det.final_state.coeffs.tobytes()
    assert add.final_state.coeffs.tobytes() == ref
    assert mul.final_state.coeffs.tobytes() == ref
    report("criterion-7", f"both transformed modes bit-identical over {steps} steps")


EPS_GRID = (0.1, 0.05, 0.025, 0.0125)
#: The solver settings of criteria 8 and 9; the rest stay at their defaults.
SWEEP_SOLVER = SolverSettings(h=0.01, T=200.0, t_pull=40.0, pullback_tol=1e-6)


def test_criterion_08_multiplicative_rate(setup_2d_critical):
    grid, params, cons = setup_2d_critical
    t0 = time.perf_counter()
    result = rate_sweep(
        params, grid, NoiseConfig(mode="multiplicative", ou_alpha=2.5, seed=300),
        EPS_GRID, 4, SWEEP_SOLVER, constants=cons,
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    assert all(rec.converged for rec in result.records)
    assert result.fit.slope >= 1.0 - 0.15
    inversions = mean_inversions(result.fit)
    assert inversions <= 1
    report(
        "criterion-8",
        f"slope {result.fit.slope:.3f} >= 0.85 (theory 1), "
        f"{inversions} inversions, {elapsed:.0f}s",
    )


def test_criterion_09_additive_rates():
    grid = TorusGrid(dim=2, N=32, L=2.0 * math.pi)
    cons = EstimateConstants()
    f_h = 0.5 * threshold_2d(1.0, grid.lambda1, cons.c1) * grid.lambda1
    f = single_mode_field(grid, (1, 0), (0.0, 1.0), h_norm=f_h)
    phi = random_field(grid, 42, h_norm=1.0, kmax=6.0)
    t0 = time.perf_counter()
    slopes = {}
    for r, floor in ((1.0, 0.85), (2.0, 0.60)):
        params = PhysicsParams(mu=1.0, beta=1.0, r=r, forcing=f)
        result = rate_sweep(
            params, grid, NoiseConfig(mode="additive", phi=phi, ou_alpha=2.5, seed=500),
            EPS_GRID, 4, SWEEP_SOLVER, constants=cons,
        )
        slopes[r] = result.fit.slope
        assert result.fit.slope >= floor
        assert result.fit.delta_theory == pytest.approx(
            1.0 if r == 1.0 else 0.75
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    report(
        "criterion-9",
        f"additive slopes r=1: {slopes[1.0]:.3f} (>= 0.85), "
        f"r=2: {slopes[2.0]:.3f} (>= 0.60); {elapsed:.0f}s",
    )


def test_criterion_10_3d_multiplicative_smoke():
    t0 = time.perf_counter()
    grid = TorusGrid(dim=3, N=16, L=2.0 * math.pi)
    cons = EstimateConstants()
    f_h = 0.5 * threshold_3d_crit(1.0, grid.lambda1, cons.c3) * grid.lambda1
    f = single_mode_field(grid, (1, 0, 0), (0.0, 1.0, 0.5), h_norm=f_h)
    params = PhysicsParams(mu=1.0, beta=1.0, r=3.0, forcing=f)
    assert 2.0 * params.beta * params.mu >= 1.0
    rep = check_singleton_condition(params, grid, cons, "3D-r=3")
    assert rep.holds

    h = 0.02
    result = find_singleton(
        params, grid, tol=1e-8, maxT=60.0, n_probes=3, h=h, constants=cons
    )
    assert result.converged

    dist = {}
    for eps in (0.1, 0.025):
        nz = NoiseConfig(mode="multiplicative", epsilon=eps, ou_alpha=2.5, seed=7)
        sample = pullback_sample(
            params, nz, 30.0, h, grid=grid,
            validate=(eps == 0.1), pullback_tol=1e-5,
        )
        assert sample.converged
        dist[eps] = h_distance(result.a_star, sample.state)
    ratio = dist[0.1] / dist[0.025]
    # epsilon ratio 4 and order one predict a distance ratio of 4;
    # "within a factor of two" brackets it in [2, 8]
    assert 2.0 <= ratio <= 8.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    report(
        "criterion-10",
        f"3D singleton found (t={result.t_final:.0f}); distance ratio "
        f"{ratio:.2f} in [2, 8]; {elapsed:.0f}s",
    )


def test_criterion_11_manifest_reproducibility(tmp_path):
    # the full orchestration pipeline re-run from its manifest, byte for byte
    from cbflab.cli import main

    config = """
[grid]
dim = 2
N = 16

[physics]
mu = 1.0
beta = 1.0
r = 3.0
forcing = modes k=(1,0) a=(0j,(1+0j))
forcing_h_norm = 0.2

[noise]
mode = multiplicative
eps_grid = 0.1,0.05,0.025
ou_alpha = 2.5
seed = 40
n_samples = 2

[solver]
h = 0.02
T = 60.0
t_pull = 10.0
tol = 1e-6
pullback_tol = 0.05
"""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config)
    first, second = tmp_path / "run1", tmp_path / "run2"
    assert main(["sweep", "--config", str(cfg), "--out", str(first)]) == 0
    assert main(
        ["sweep", "--config", str(first / "manifest.json"), "--out", str(second)]
    ) == 0
    rec1 = (first / "records.csv").read_bytes()
    rec2 = (second / "records.csv").read_bytes()
    assert rec1 == rec2
    assert (first / "fit.json").read_bytes() == (second / "fit.json").read_bytes()
    m1 = json.loads((first / "manifest.json").read_text())
    m2 = json.loads((second / "manifest.json").read_text())
    assert m1["artifacts"] == m2["artifacts"]

    # a trajectory emitter re-run the same way
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text(
        config.split("[noise]")[0]
        + "\n[solver]\nh = 0.01\nT = 0.5\ninitial = random seed=2 hnorm=0.5 kmax=4\n"
    )
    s1, s2 = tmp_path / "sim1", tmp_path / "sim2"
    assert main(["simulate", "--config", str(sim_cfg), "--out", str(s1)]) == 0
    assert main(
        ["simulate", "--config", str(s1 / "manifest.json"), "--out", str(s2)]
    ) == 0
    assert (s1 / "trajectory.csv").read_bytes() == (s2 / "trajectory.csv").read_bytes()
    report("criterion-11", "sweep and trajectory re-runs byte-identical from manifests")
