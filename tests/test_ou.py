import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbflab import ValidationError, ou_from_wiener, ou_path, sample_wiener
from cbflab.ou import stationary_moment


def test_wiener_starts_at_zero():
    for seed in (0, 1, 99):
        w = sample_wiener(seed, -2.0, 3.0, 0.5)
        assert w.value(0.0) == 0.0


def test_wiener_reproducible():
    a = sample_wiener(42, -5.0, 5.0, 0.1)
    b = sample_wiener(42, -5.0, 5.0, 0.1)
    assert np.array_equal(a.values, b.values)
    c = sample_wiener(43, -5.0, 5.0, 0.1)
    assert not np.array_equal(a.values, c.values)


def test_wiener_rejects_degenerate_interval():
    with pytest.raises(ValidationError):
        sample_wiener(1, 0.0, 1.0, 0.1)
    with pytest.raises(ValidationError):
        sample_wiener(1, -1.0, 1.0, -0.1)
    with pytest.raises(ValidationError):
        sample_wiener(1, -1.05, 1.0, 0.1)  # grid misses 0


def test_wiener_unit_variance():
    # sample variance of W(1) across 1e5 seeds within 3 standard errors of 1
    n = 100_000
    vals = np.array([sample_wiener(s, -0.25, 1.0, 0.25).value(1.0) for s in range(n)])
    var = vals.var()
    se = math.sqrt(2.0 / (n - 1))  # var of sample variance of N(0,1)
    assert abs(var - 1.0) <= 3.0 * se


def test_wiener_increment_independence():
    # increments over disjoint intervals: empirical correlation near zero
    n = 4000
    inc1, inc2 = np.empty(n), np.empty(n)
    for s in range(n):
        w = sample_wiener(s, -1.0, 2.0, 0.5)
        inc1[s] = w.value(1.0) - w.value(0.5)
        inc2[s] = w.value(-0.5) - w.value(-1.0)
    corr = np.corrcoef(inc1, inc2)[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(n)


def test_extension_keeps_earlier_values():
    short = sample_wiener(7, -4.0, 1.0, 0.25)
    long = sample_wiener(7, -16.0, 1.0, 0.25)
    for t in np.arange(-4.0, 1.01, 0.25):
        assert long.value(t) == short.value(t)
    z_short = ou_from_wiener(short, 1.0)
    z_long = ou_from_wiener(long, 1.0)
    for t in np.arange(-4.0, 1.01, 0.25):
        assert z_long.value(t) == z_short.value(t)


def test_ou_stationary_moments():
    # E|z|^2 = 1/(2 alpha) and E|z| = Gamma(1)/sqrt(pi alpha), by Monte Carlo
    alpha, n = 1.0, 20_000
    vals = np.array(
        [ou_path(s, alpha, -0.5, 2.0, 0.1).value(2.0) for s in range(n)]
    )
    m2, m1 = np.mean(vals**2), np.mean(np.abs(vals))
    se2 = np.std(vals**2) / math.sqrt(n)
    se1 = np.std(np.abs(vals)) / math.sqrt(n)
    assert abs(m2 - stationary_moment(alpha, 2.0)) <= 3.0 * se2
    assert abs(m1 - stationary_moment(alpha, 1.0)) <= 3.0 * se1
    assert stationary_moment(1.0, 1.0) == pytest.approx(1.0 / math.sqrt(math.pi))
    assert stationary_moment(1.0, 2.0) == pytest.approx(0.5)


def test_ou_large_alpha_concentrates():
    vals = np.array([ou_path(s, 50.0, -0.5, 1.0, 0.05).value(1.0) for s in range(2000)])
    assert np.mean(vals**2) == pytest.approx(1.0 / 100.0, rel=0.2)


def test_ou_shift_eval_basics():
    # z(theta_s omega) is OUPath.value(s)
    z = ou_path(3, 1.0, -2.0, 2.0, 0.5)
    assert z.value(0.0) == z.values[-z.j_min]
    # group law on the grid: evaluating at s+u equals shifting twice
    assert z.value(1.5) == z.value(1.0 + 0.5) == z.value_at_index(3)
    with pytest.raises(ValidationError):
        z.value(2.5)
    with pytest.raises(ValidationError):
        z.value(0.3)  # off-grid evaluation is forbidden


def test_ou_rejects_bad_alpha():
    w = sample_wiener(1, -1.0, 1.0, 0.5)
    with pytest.raises(ValidationError):
        ou_from_wiener(w, 0.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**40), alpha=st.floats(0.2, 5.0))
def test_ou_determinism(seed, alpha):
    a = ou_path(seed, alpha, -1.0, 1.0, 0.25)
    b = ou_path(seed, alpha, -1.0, 1.0, 0.25)
    assert np.array_equal(a.values, b.values)


def test_pullback_time_average():
    # (1/t) int_{-t}^{0} |z|^2 ds stabilizes near 1/(2 alpha)
    z = ou_path(11, 1.0, -1000.0, 0.0, 0.05)
    avg = np.trapezoid(z.values**2, dx=0.05) / 1000.0
    assert abs(avg - 0.5) <= 0.2 * 0.5


def test_time_average_of_z_vanishes():
    z = ou_path(12, 1.0, -0.5, 1000.0, 0.05)
    vals = z.values[z.times() >= 0.0]
    avg = np.trapezoid(vals, dx=0.05) / 1000.0
    assert abs(avg) <= 5.0 / math.sqrt(2.0 * 1.0 * 1000.0)


def test_window_moment_ratio_vanishes():
    # int_{-t}^{T-t} |z|^k ds / (t-T) -> 0: the fixed-length window far in
    # the past is negligible against the growing normalizer
    T, t = 1.0, 1000.0
    z = ou_path(13, 1.0, -t, 0.0, 0.05)
    mask = z.times() <= (T - t)
    for k in (2.0, 4.0):
        vals = np.abs(z.values[mask]) ** k
        ratio = np.trapezoid(vals, dx=0.05) / (t - T)
        assert ratio <= 0.05 * stationary_moment(1.0, k)


def test_pullback_window_ergodic_average():
    # (1/(t-T)) int_{T-t}^{0} |z|^k ds stabilizes near E|z|^k (20% at t=1e3)
    T, t = 1.0, 1000.0
    z = ou_path(13, 1.0, -t, 0.0, 0.05)
    mask = z.times() >= (T - t)
    for k in (2.0, 4.0):
        vals = np.abs(z.values[mask]) ** k
        avg = np.trapezoid(vals, dx=0.05) / (t - T)
        assert abs(avg - stationary_moment(1.0, k)) <= 0.2 * stationary_moment(1.0, k)


def test_tempered_growth_diagnostic():
    # e^{-delta t} |z(theta_{-t} omega)| small for t in [100, 1000], most seeds
    delta, alpha = 0.1, 1.0
    hits = 0
    n_seeds = 40
    for seed in range(n_seeds):
        z = ou_path(seed, alpha, -1000.0, 0.0, 0.5)
        ts = -z.times()
        window = (ts >= 100.0) & (ts <= 1000.0)
        worst = np.max(np.exp(-delta * ts[window]) * np.abs(z.values[window]))
        hits += worst <= 1e-3
    assert hits >= 0.95 * n_seeds
