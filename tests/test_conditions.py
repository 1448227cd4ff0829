import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbflab import (
    EstimateConstants,
    GridMismatchError,
    PhysicsParams,
    TorusGrid,
    ValidationError,
    check_singleton_condition,
    find_singleton,
    grashof,
    rate_sweep,
    single_mode_field,
)
from cbflab.conditions import (
    eta3,
    threshold_2d,
    threshold_2d_alt,
    threshold_3d,
    threshold_3d_crit,
    varrho_2d,
    varrho_2d_alt,
    varrho_3d,
    varrho_3d_crit,
)


def test_grashof_zero_forcing(grid2d):
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    assert grashof(p, grid2d) == 0.0


def test_grashof_direct_substitution(grid2d):
    # mu = 1, lambda1 = 1, |f|_H = 0.1  ->  G = 0.1
    f = single_mode_field(grid2d, (1, 0), (0.0, 1.0), h_norm=0.1)
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0, forcing=f)
    assert grashof(p, grid2d) == pytest.approx(0.1, rel=1e-12)
    # mu = 2, lambda1 = 1, |f|_H = 1  ->  G = 0.25
    f = single_mode_field(grid2d, (1, 0), (0.0, 1.0), h_norm=1.0)
    p = PhysicsParams(mu=2.0, beta=1.0, r=3.0, forcing=f)
    assert grashof(p, grid2d) == pytest.approx(0.25, rel=1e-12)


def test_forcing_on_another_grid_is_a_grid_mismatch():
    # the grashof number reads the forcing's grid and lambda1 the argument's;
    # the solvers check the condition before any step
    forcing = single_mode_field(TorusGrid(dim=2, N=16), (1, 0), (0.0, 1.0), h_norm=0.2)
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0, forcing=forcing)
    grid = TorusGrid(dim=2, N=32)
    for call in (
        lambda: check_singleton_condition(p, grid),
        lambda: find_singleton(p, grid, maxT=0.1, h=0.01),
        lambda: rate_sweep(p, grid, "multiplicative", (0.1, 0.05, 0.025), 2, 0.1, 0.01),
    ):
        with pytest.raises(GridMismatchError, match="different grid"):
            call()


def test_zero_forcing_condition_trivially_holds(grid2d, constants):
    p = PhysicsParams(mu=1.3, beta=1.0, r=3.0)
    rep = check_singleton_condition(p, grid2d, constants)
    assert rep.holds
    assert rep.varrho == pytest.approx(1.3 * grid2d.lambda1, rel=1e-12)


def test_condition_hand_example(grid2d):
    # mu = lambda1 = c1 = 1, |f|_H = 0.5: varrho = 1 - 3/4 = 1/4,
    # threshold sqrt(1/3), G = 0.5 < threshold
    cons = EstimateConstants(c1=1.0, c2=1.0, c3=1.0, label="test values")
    f = single_mode_field(grid2d, (1, 0), (0.0, 1.0), h_norm=0.5)
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0, forcing=f)
    rep = check_singleton_condition(p, grid2d, cons, "2D-C1")
    assert rep.varrho == pytest.approx(0.25, rel=1e-12)
    assert rep.threshold == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)
    assert rep.grashof == pytest.approx(0.5, rel=1e-12)
    assert rep.holds


def test_eta3_hand_value():
    # r = 5, mu = beta = 1: (2/4) * (4/4)^1 = 0.5
    assert eta3(1.0, 1.0, 5.0) == pytest.approx(0.5, rel=1e-14)


def test_3d_regimes(grid3d):
    f = single_mode_field(grid3d, (1, 0, 0), (0.0, 1.0, 0.0), h_norm=0.05)
    p = PhysicsParams(mu=1.0, beta=1.0, r=4.0, forcing=f)
    rep = check_singleton_condition(p, grid3d, regime="3D-r>3")
    assert rep.eta3 is not None
    assert rep.holds == (rep.varrho > 0)

    p3 = PhysicsParams(mu=1.0, beta=1.0, r=3.0, forcing=f)
    rep3 = check_singleton_condition(p3, grid3d, regime="3D-r=3")
    assert rep3.eta3 is None
    assert rep3.holds


def test_regime_validation(grid2d, grid3d):
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    with pytest.raises(ValidationError):
        check_singleton_condition(p, grid2d, regime="3D-r=3")
    with pytest.raises(ValidationError):
        check_singleton_condition(p, grid3d, regime="3D-r>3")  # r = 3, not > 3
    with pytest.raises(ValidationError):
        check_singleton_condition(p, grid2d, regime="bogus")
    with pytest.raises(ValidationError):
        check_singleton_condition(
            PhysicsParams(mu=1.0, beta=1.0, r=3.0, darcy=0.5), grid2d
        )


def test_3d_critical_needs_2betamu(grid3d):
    p = PhysicsParams(mu=1.0, beta=0.3, r=3.0)
    with pytest.raises(ValidationError):
        check_singleton_condition(p, grid3d, regime="3D-r=3")


def test_threshold_varrho_equivalence_bulk():
    """(G < threshold) iff (varrho > 0) across a million random tuples."""
    rng = np.random.default_rng(123)
    n = 1_000_000
    mu = rng.uniform(0.05, 5.0, n)
    lam = rng.uniform(0.05, 5.0, n)
    c1 = rng.uniform(0.2, 4.0, n)
    f_h = rng.uniform(0.0, 3.0, n)
    g = f_h / (mu**2 * lam)
    agree = (g < threshold_2d(mu, lam, c1)) == (varrho_2d(mu, lam, c1, f_h) > 0)
    assert np.all(agree)
    agree_alt = (g < threshold_2d_alt(mu, lam, c1)) == (
        varrho_2d_alt(mu, lam, c1, f_h) > 0
    )
    assert np.all(agree_alt)
    c3 = rng.uniform(0.2, 4.0, n)
    eta = rng.uniform(0.0, 2.0, n)
    agree_3d = (g < threshold_3d(mu, lam, c3, eta)) == (
        varrho_3d(mu, lam, c3, f_h, eta) > 0
    )
    assert np.all(agree_3d)
    agree_3dc = (g < threshold_3d_crit(mu, lam, c3)) == (
        varrho_3d_crit(mu, lam, c3, f_h) > 0
    )
    assert np.all(agree_3dc)


@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(0.1, 4.0),
    f_h=st.floats(0.0, 2.0),
    c1=st.floats(0.3, 3.0),
)
def test_report_consistency_through_public_api(mu, f_h, c1):
    grid = TorusGrid(dim=2, N=16)
    cons = EstimateConstants(c1=c1, c2=c1, c3=2.0, label="scan")
    f = None
    if f_h > 0:
        f = single_mode_field(grid, (1, 0), (0.0, 1.0), h_norm=f_h)
    p = PhysicsParams(mu=mu, beta=1.0, r=3.0, forcing=f)
    rep = check_singleton_condition(p, grid, cons, "2D-C1")
    assert rep.holds == (rep.varrho > 0)
    assert rep.grashof == pytest.approx(f_h / (mu**2 * grid.lambda1), rel=1e-9)


def test_constants_label_survives(grid2d):
    p = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
    rep = check_singleton_condition(p, grid2d)
    assert "provisional placeholders" in rep.summary()
    assert "c1" in rep.summary()
