import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbflab import (
    GridMismatchError,
    NoiseConfig,
    PhysicsParams,
    SweepRecord,
    TorusGrid,
    ValidationError,
    fit_rate,
    probe_field,
    random_field,
    rate_sweep,
)
from cbflab.config import NoiseSection, RunConfig, validate_config
from cbflab.experiments import check_sweep_regime, delta_theory
from cbflab.params import SolverSettings


def make_records(eps_grid, dists_by_eps, n_seeds=2, mode="multiplicative", r=3.0):
    recs = []
    for eps in eps_grid:
        for s in range(n_seeds):
            recs.append(
                SweepRecord(
                    epsilon=eps, seed=s, mode=mode, r=r,
                    dist_h=dists_by_eps(eps, s), t_pull=10.0, converged=True,
                )
            )
    return recs


def test_synthetic_exact_rate():
    # dist = 0.3 eps gives slope exactly 1
    recs = make_records([0.1, 0.05, 0.025], lambda e, s: 0.3 * e)
    fit = fit_rate(recs, "multiplicative", 3.0)
    assert fit.slope == pytest.approx(1.0, abs=1e-6)
    assert fit.intercept == pytest.approx(math.log(0.3), abs=1e-6)
    assert max(abs(v) for v in fit.residuals) < 1e-12


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(1e-6, 1e6), slope=st.floats(0.2, 2.5))
def test_fit_invariant_under_distance_rescale(scale, slope):
    recs = make_records([0.2, 0.1, 0.05, 0.025], lambda e, s: e**slope)
    scaled = make_records([0.2, 0.1, 0.05, 0.025], lambda e, s: scale * e**slope)
    f1 = fit_rate(recs, "multiplicative", 3.0)
    f2 = fit_rate(scaled, "multiplicative", 3.0)
    assert f1.slope == pytest.approx(f2.slope, rel=1e-9, abs=1e-9)


def test_fit_requires_enough_levels_and_samples():
    recs = make_records([0.1, 0.05], lambda e, s: e)
    with pytest.raises(ValidationError, match=r"^solver\.t_pull, solver\.pullback_tol: fit: "):
        fit_rate(recs, "multiplicative", 3.0)
    recs = make_records([0.1, 0.05, 0.025], lambda e, s: e, n_seeds=1)
    with pytest.raises(ValidationError):
        fit_rate(recs, "multiplicative", 3.0)


def test_unconverged_records_excluded():
    recs = make_records([0.1, 0.05, 0.025, 0.0125], lambda e, s: e)
    bad = [
        SweepRecord(
            epsilon=0.00625, seed=s, mode="multiplicative", r=3.0,
            dist_h=1.0, t_pull=10.0, converged=False,
        )
        for s in range(2)
    ]
    fit = fit_rate(recs + bad, "multiplicative", 3.0)
    assert 0.00625 not in fit.eps_grid
    assert fit.slope == pytest.approx(1.0, abs=1e-9)


def test_delta_theory_values():
    assert delta_theory("additive", 1.0) == pytest.approx(1.0)
    assert delta_theory("additive", 2.0) == pytest.approx(0.75)
    assert delta_theory("multiplicative", 1.0) == 1.0
    assert delta_theory("multiplicative", 5.0) == 1.0
    with pytest.raises(ValidationError):
        delta_theory("none", 1.0)


def test_sweep_regime_gate():
    check_sweep_regime("additive", 2, 1.5)
    check_sweep_regime("multiplicative", 2, 7.0)
    check_sweep_regime("multiplicative", 3, 4.0)
    # each violation names the config path it comes from
    for args, message in [
        (("additive", 3, 1.0), "grid.dim: additive sweep rate theory is 2D only, got 3"),
        (("additive", 2, 3.0), "physics.r: additive sweep rate theory needs 1 <= r <= 2, got 3.0"),
        (("multiplicative", 3, 6.0),
         "physics.r: 3D multiplicative sweep rate theory needs 3 <= r <= 5, got 6.0"),
        (("none", 2, 3.0),
         "noise.mode: a sweep needs additive or multiplicative noise, got 'none'"),
    ]:
        with pytest.raises(ValidationError) as info:
            check_sweep_regime(*args)
        assert info.value.violations == [message]


def test_mean_inversions_counts():
    recs = make_records([0.1, 0.05, 0.025], lambda e, s: e)
    assert fit_rate(recs, "multiplicative", 3.0).mean_inversions == 0
    wiggly = make_records(
        [0.1, 0.05, 0.025], lambda e, s: 0.05 if e == 0.05 else e
    )
    assert fit_rate(wiggly, "multiplicative", 3.0).mean_inversions == 0
    inverted = make_records(
        [0.1, 0.05, 0.025], lambda e, s: {0.1: 0.01, 0.05: 0.02, 0.025: 0.005}[e]
    )
    assert fit_rate(inverted, "multiplicative", 3.0).mean_inversions == 1


def test_records_validate_nonnegative_distance():
    with pytest.raises(ValidationError):
        SweepRecord(
            epsilon=0.1, seed=0, mode="multiplicative", r=3.0,
            dist_h=-1.0, t_pull=1.0, converged=True,
        )


def test_contraction_identical_data_is_flat(grid2d_small):
    params = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    u = probe_field(grid2d_small, 3)
    from cbflab import simulate
    from cbflab.operators import h_norm_kernel

    t1 = simulate(u, params, T=0.5, h=0.01, sample_every=10)
    t2 = simulate(u, params, T=0.5, h=0.01, sample_every=10)
    for a, b in zip(t1.states, t2.states):
        assert h_norm_kernel(grid2d_small, a.coeffs - b.coeffs) == 0.0


def test_sweep_template_epsilon_must_be_zero():
    # each level sets its own epsilon, so a template's would be ignored
    with pytest.raises(ValidationError, match="noise.epsilon: the sweep template"):
        rate_sweep(
            PhysicsParams(mu=1.0, beta=1.0, r=3.0), TorusGrid(dim=2, N=8),
            NoiseConfig(mode="multiplicative", epsilon=0.1), (0.1, 0.05, 0.025), 2,
            SolverSettings(),
        )


def test_sweep_checks_every_solver_setting_first():
    with pytest.raises(ValidationError) as info:
        rate_sweep(
            PhysicsParams(mu=1.0, beta=1.0, r=3.0), TorusGrid(dim=2, N=8),
            NoiseConfig(mode="multiplicative"), (0.1, 0.05, 0.025), 2,
            SolverSettings(tol=-1.0, pullback_tol=0.0, n_probes=1),
        )
    assert [v.split(":")[0] for v in info.value.violations] == [
        "solver.tol", "solver.pullback_tol", "solver.n_probes",
    ]


@pytest.mark.parametrize(
    "kind, error, message",
    [
        ("level-above-1", ValidationError, "noise.eps_grid: entries must lie in (0, 1]"),
        ("two-levels", ValidationError, "noise.eps_grid: a sweep needs at least 3"),
        ("one-sample", ValidationError, "noise.n_samples: a sweep needs at least 2"),
        ("phi-on-another-grid", GridMismatchError, "noise.phi lives on a different grid"),
    ],
    ids=["level-above-1", "two-levels", "one-sample", "phi-on-another-grid"],
)
def test_sweep_checks_its_plan_before_any_step(monkeypatch, kind, error, message):
    def no_drive(*args, **kwargs):
        raise AssertionError("drive ran before the sweep's inputs were checked")

    monkeypatch.setattr("cbflab.deterministic.drive", no_drive)
    grid = TorusGrid(dim=2, N=16)
    eps_grid, n_samples = (0.1, 0.05, 0.025), 2
    noise = NoiseConfig(mode="multiplicative")
    if kind == "level-above-1":
        eps_grid = (0.1, 0.05, 2.0)
    elif kind == "two-levels":
        eps_grid = (0.1, 0.05)
    elif kind == "one-sample":
        n_samples = 1
    else:
        phi = random_field(TorusGrid(dim=2, N=8), 1, h_norm=1.0, kmax=2.0)
        noise = NoiseConfig(mode="additive", phi=phi)
    with pytest.raises(error) as info:
        rate_sweep(
            PhysicsParams(mu=1.0, beta=1.0, r=1.0), grid, noise, eps_grid, n_samples,
            SolverSettings(),
        )
    assert str(info.value).startswith(message)


def _sweep_levels(monkeypatch, eps_grid):
    """Run ``rate_sweep`` on ``eps_grid`` up to its first ``drive`` call."""

    def no_drive(*args, **kwargs):
        raise AssertionError("drive ran")

    monkeypatch.setattr("cbflab.deterministic.drive", no_drive)
    rate_sweep(
        PhysicsParams(mu=1.0, beta=1.0, r=3.0), TorusGrid(dim=2, N=16),
        NoiseConfig(mode="multiplicative"), eps_grid, 2, SolverSettings(),
    )


@pytest.mark.parametrize(
    "level", [0.0, -0.1, 1.5, math.nan, math.inf], ids=["zero", "negative", "1.5", "nan", "inf"]
)
def test_config_and_sweep_reject_the_same_levels(monkeypatch, level):
    eps_grid = (0.1, 0.05, level)
    message = "noise.eps_grid: entries must lie in (0, 1]"
    problems = validate_config(RunConfig(noise=NoiseSection(eps_grid=eps_grid)))
    assert any(line.startswith(message) for line in problems)
    with pytest.raises(ValidationError) as info:
        _sweep_levels(monkeypatch, eps_grid)
    assert str(info.value).startswith(message)


def test_config_and_sweep_accept_a_level_of_1(monkeypatch):
    eps_grid = (1.0, 0.5, 0.25)
    problems = validate_config(RunConfig(noise=NoiseSection(eps_grid=eps_grid)))
    assert not any(line.startswith("noise.eps_grid") for line in problems)
    # the sweep's plan passes its checks and goes on to the singleton search
    with pytest.raises(AssertionError, match="drive ran"):
        _sweep_levels(monkeypatch, eps_grid)
