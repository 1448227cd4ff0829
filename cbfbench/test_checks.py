"""Tests of the benchmark's own checks and of its metric table.

    python3 -m pytest cbfbench -q
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing

BENCH_DIR = Path(__file__).resolve().parent


def shear(n: int, amplitudes: dict) -> np.ndarray:
    """x-component field sum_m c_m sin(m y) on the 2D n-lattice, L = 2 pi."""
    coeffs = np.zeros((2, n, n), dtype=complex)
    for m, c in amplitudes.items():
        coeffs[0, 0, m] += -0.5j * c
        coeffs[0, 0, -m] += 0.5j * c
    return coeffs


@pytest.mark.parametrize("mu, beta", [(1.0, 1.0), (0.7, 1.3)])
def test_residual_of_shear_matches_closed_form(mu, beta):
    # u = (sin y, 0): (u . grad) u = 0 and sin^3 y = (3 sin y - sin 3y) / 4
    n, length = 16, 2.0 * math.pi
    u = shear(n, {1: 1.0})
    steady = shear(n, {1: mu + 0.75 * beta, 3: -0.25 * beta})
    assert checks.steady_residual(u, steady, length, mu, beta, 3.0) < 1e-12

    # with no forcing the residual is |mu sin y + beta sin^3 y|_H, and
    # |c1 sin y + c3 sin 3y|_H^2 = 2 pi^2 (c1^2 + c3^2) on the 2 pi box
    expect = math.sqrt(2.0 * math.pi**2 * ((mu + 0.75 * beta) ** 2 + (0.25 * beta) ** 2))
    got = checks.steady_residual(u, None, length, mu, beta, 3.0)
    assert got == pytest.approx(expect, rel=1e-12)


def test_residual_of_shear_linear_damping():
    n, length, mu, beta = 16, 2.0 * math.pi, 0.5, 2.0
    u = shear(n, {2: 0.3})
    # A sin 2y = 4 sin 2y, and |u|^0 u = u at r = 1
    steady = shear(n, {2: 0.3 * (4.0 * mu + beta)})
    assert checks.steady_residual(u, steady, length, mu, beta, 1.0) < 1e-12


def write_records(path, rows):
    lines = ["epsilon,seed,mode,r,dist_h,t_pull,converged"]
    for eps, seed, dist, conv in rows:
        lines.append(f"{eps!r},{seed},additive,1.0,{dist!r},10.0,{'true' if conv else 'false'}")
    path.write_text("\n".join(lines) + "\n")


def test_refit_of_a_hand_made_table(tmp_path):
    # d = 2 eps^1.5 times e^(+-0.1) per seed: the geometric mean is 2 eps^1.5
    rows = []
    for eps in (0.1, 0.05, 0.025):
        rows.append((eps, 0, 2.0 * eps**1.5 * math.exp(0.1), True))
        rows.append((eps, 1, 2.0 * eps**1.5 * math.exp(-0.1), True))
    rows.append((0.0125, 2, 5.0, False))  # unconverged records stay out
    path = tmp_path / "records.csv"
    write_records(path, rows)
    fit = checks.refit_records(path)
    assert fit["slope"] == pytest.approx(1.5, abs=1e-12)
    assert fit["intercept"] == pytest.approx(math.log(2.0), abs=1e-12)
    assert fit["eps_grid"] == [0.1, 0.05, 0.025]
    assert fit["log_means"] == pytest.approx([math.log(2.0 * e**1.5) for e in (0.1, 0.05, 0.025)])


def test_line_fit_needs_two_points():
    assert checks.line_fit([0.0, 1.0, 2.0], [1.0, 3.0, 5.0]) == pytest.approx((2.0, 1.0))
    with pytest.raises(ValueError):
        checks.line_fit([1.0], [1.0])


def test_manifest_hashes(tmp_path):
    (tmp_path / "a.csv").write_bytes(b"abc")
    (tmp_path / "b.json").write_bytes(b"{}\n")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("a.csv", "b.json")}
    assert digests["a.csv"].startswith("ba7816bf")  # the FIPS 180-2 "abc" vector
    (tmp_path / "manifest.json").write_text(json.dumps({"artifacts": digests}))
    assert checks.manifest_problems(tmp_path) == []

    (tmp_path / "b.json").write_bytes(b"{ }\n")
    (tmp_path / "a.csv").unlink()
    problems = checks.manifest_problems(tmp_path)
    assert len(problems) == 2 and "a.csv" in problems[0] and "b.json" in problems[1]


def test_metric_tables_match_benchmark_json():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, unit, _, _ in tracing.PER_LAYER
    ]
    names = [m["name"] for m in bench["end_to_end"]]
    assert names == ["setup_s", "solve_s", "steps_per_s", "peak_rss_mb"]
    import run

    assert [w["name"] for w in bench["workloads"]] == list(run.NAMES)


def test_workload_names_match_the_runner(program_source):
    import run
    import workloads

    assert list(workloads.WORKLOADS) == list(run.NAMES)


@pytest.fixture(scope="module")
def program_source():
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    yield
    sys.path.remove(str(BENCH_DIR.parent / "src"))


@pytest.mark.parametrize("dim, n, r", [(2, 16, 3.0), (2, 16, 1.0), (3, 8, 3.0)])
def test_residual_agrees_with_the_program_on_random_fields(program_source, dim, n, r):
    from cbflab import TorusGrid, random_field
    from cbflab.operators import bilinear_kernel, damping_kernel, h_norm_kernel, stokes_kernel

    grid = TorusGrid(dim=dim, N=n)
    a = random_field(grid, 11, h_norm=0.5).coeffs
    f = random_field(grid, 12, h_norm=0.2).coeffs
    mu, beta = 0.8, 1.2
    adv, _ = bilinear_kernel(grid, a)
    program = mu * stokes_kernel(grid, a) + adv + beta * damping_kernel(grid, a, r) - f
    expect = h_norm_kernel(grid, program)
    assert checks.steady_residual(a, f, grid.L, mu, beta, r) == pytest.approx(expect, rel=1e-10)


def test_tracer_spans_self_time_and_unpatching(program_source):
    import cbflab
    import cbflab.operators

    grid = cbflab.TorusGrid(dim=2, N=16)
    u = cbflab.random_field(grid, 3)
    original = cbflab.operators.bilinear_kernel
    tracer = tracing.Tracer()
    with tracer.root():
        cbflab.bilinear_B(u)
    assert cbflab.operators.bilinear_kernel is original
    spans = tracer.by_span()
    kernel = spans["operators.bilinear_kernel"]
    assert kernel["calls"] == 1
    assert spans["operators.leray_kernel"]["calls"] == 1
    assert spans["grid.from_phys"]["calls"] == 1
    assert spans["fft.irfftn"]["calls"] == 2
    children = sum(spans[name]["incl_s"] for name in (
        "grid.pad_half", "fft.irfftn", "grid.from_phys", "operators.leray_kernel"))
    assert kernel["self_s"] == pytest.approx(kernel["incl_s"] - children, abs=1e-9)
    assert tracer.counts["operators.bilinear_kernel:bytes"] > 0
    # after the round the program runs unwrapped
    cbflab.bilinear_B(u)
    assert tracer.by_span()["operators.bilinear_kernel"]["calls"] == 1
