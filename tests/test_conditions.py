import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbflab import (
    EstimateConstants,
    GridMismatchError,
    NoiseConfig,
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
)
from cbflab.operators import h_norm
from cbflab.params import SolverSettings

# -- the paper's four varrho expressions, the reference for the one that
# check_singleton_condition derives from each threshold ---------------------


def paper_varrho_2d(mu, lam1, c1, f_h):
    s = 1.0 + 1.0 / (mu * lam1) + 1.0 / (mu * lam1) ** 2
    return mu * lam1 - (c1**2 / mu**2) * s * f_h**2


def paper_varrho_2d_alt(mu, lam1, c1, f_h):
    return mu * lam1 - c1**2 * f_h**2 / (mu**3 * lam1)


def paper_varrho_3d(mu, lam1, c3, f_h, eta):
    s = 2.0 + (2.0 * eta + 1.0) / (mu * lam1) + (2.0 * eta + 1.0) / (mu * lam1) ** 2
    return mu * lam1 - (27.0 * c3**4 / (16.0 * mu**5)) * s**2 * f_h**4


def paper_varrho_3d_crit(mu, lam1, c3, f_h):
    s = 1.0 + 1.0 / (mu * lam1) + 1.0 / (mu * lam1) ** 2
    return mu * lam1 - (27.0 * c3**4 / (16.0 * mu**5)) * s**2 * f_h**4


def derived_varrho(mu, lam1, g, threshold, dim):
    """varrho = mu lambda1 (1 - (G / threshold)^p), p = 2 in 2D and 4 in 3D."""
    return mu * lam1 * (1.0 - (g / threshold) ** (2 if dim == 2 else 4))


def assert_matches_paper(derived, reference, mu, lam1):
    scale = np.maximum(mu * lam1, np.abs(reference))
    assert np.all(np.abs(derived - reference) <= 1e-13 * scale)


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
        lambda: rate_sweep(
            p, grid, NoiseConfig(mode="multiplicative"), (0.1, 0.05, 0.025), 2,
            SolverSettings(h=0.01, t_pull=0.1),
        ),
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
    cons = EstimateConstants(c1=1.0, c3=1.0)
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
    """Over a million random tuples, the varrho derived from each threshold
    matches the paper's expression, and (varrho > 0) iff (G < threshold)."""
    rng = np.random.default_rng(123)
    n = 1_000_000
    mu = rng.uniform(0.05, 5.0, n)
    lam = rng.uniform(0.05, 5.0, n)
    c1 = rng.uniform(0.2, 4.0, n)
    f_h = rng.uniform(0.0, 3.0, n)
    g = f_h / (mu**2 * lam)
    c3 = rng.uniform(0.2, 4.0, n)
    eta = rng.uniform(0.0, 2.0, n)
    for dim, threshold, reference in (
        (2, threshold_2d(mu, lam, c1), paper_varrho_2d(mu, lam, c1, f_h)),
        (2, threshold_2d_alt(mu, lam, c1), paper_varrho_2d_alt(mu, lam, c1, f_h)),
        (3, threshold_3d(mu, lam, c3, eta), paper_varrho_3d(mu, lam, c3, f_h, eta)),
        (3, threshold_3d_crit(mu, lam, c3), paper_varrho_3d_crit(mu, lam, c3, f_h)),
    ):
        varrho = derived_varrho(mu, lam, g, threshold, dim)
        assert_matches_paper(varrho, reference, mu, lam)
        assert np.all((varrho > 0) == (g < threshold))


def test_reported_varrho_matches_paper_in_every_regime():
    """check_singleton_condition's varrho against the paper's expressions, over
    random mu, lambda1 (through L), forcing norm, constants, beta and r."""
    rng = np.random.default_rng(7)
    grids = [TorusGrid(dim=d, N=8, L=L) for d in (2, 3) for L in (1.0, 2.0 * math.pi, 20.0)]
    for _ in range(40):
        for grid in grids:
            mu = rng.uniform(0.1, 4.0)
            cons = EstimateConstants(c1=rng.uniform(0.3, 3.0), c3=rng.uniform(0.3, 3.0))
            mode, amp = ((1, 0), (0.0, 1.0)) if grid.dim == 2 else ((1, 0, 0), (0.0, 1.0, 0.0))
            f = single_mode_field(grid, mode, amp, h_norm=rng.uniform(0.01, 2.0))
            f_h, lam1 = h_norm(f), grid.lambda1
            if grid.dim == 2:
                p = PhysicsParams(mu=mu, beta=1.0, r=rng.uniform(1.0, 4.0), forcing=f)
                cases = (
                    ("2D-C1", paper_varrho_2d(mu, lam1, cons.c1, f_h)),
                    ("2D-C3", paper_varrho_2d_alt(mu, lam1, cons.c1, f_h)),
                )
            else:
                beta, r = rng.uniform(0.5, 2.0), rng.uniform(3.5, 6.0)
                p = PhysicsParams(mu=mu, beta=beta, r=r, forcing=f)
                cases = (("3D-r>3", paper_varrho_3d(mu, lam1, cons.c3, f_h, eta3(mu, beta, r))),)
                p3 = PhysicsParams(mu=mu, beta=1.0 / mu, r=3.0, forcing=f)
                reference = paper_varrho_3d_crit(mu, lam1, cons.c3, f_h)
                rep3 = check_singleton_condition(p3, grid, cons, "3D-r=3")
                assert_matches_paper(rep3.varrho, reference, mu, lam1)
            for regime, reference in cases:
                rep = check_singleton_condition(p, grid, cons, regime)
                assert_matches_paper(rep.varrho, reference, mu, lam1)
                assert rep.holds == (rep.grashof < rep.threshold)


@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(0.1, 4.0),
    f_h=st.floats(0.0, 2.0),
    c1=st.floats(0.3, 3.0),
)
def test_report_consistency_through_public_api(mu, f_h, c1):
    grid = TorusGrid(dim=2, N=16)
    cons = EstimateConstants(c1=c1, c3=2.0)
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
    # the label follows the values and cannot be set
    rep = check_singleton_condition(p, grid2d, EstimateConstants(c3=1.0))
    assert "(user-supplied)" in rep.summary()
    with pytest.raises(TypeError):
        EstimateConstants(label="provisional placeholders")
