"""The names the benchmark's tracer patches, the step count it reads, the
calls its workloads make, the config its sweep runs and the grid attribute
its byte counters read stay put.

``cbfbench/tracing.py`` wraps cbflab functions by name and reads the step
count of every ``drive`` call from its sixth positional argument, and
``cbfbench/workloads.py`` calls cbflab by its public names; deleting or
renaming one of those, or changing a signature those calls use, would
silently break the benchmark.  ``cbfbench/workloads.py`` also runs ``cbflab
sweep`` on its ``SWEEP_CONFIG``, which must set only keys that ``sweep`` reads,
and it fingerprints and checks the full-layout ``.coeffs`` of the fields it
gets back.
"""

import ast
import importlib
import importlib.util
import inspect
import string
from pathlib import Path

import cbflab.deterministic
from cbflab import (
    NoiseConfig, PhysicsParams, TorusGrid, bilinear_B, cli, damping_C, find_singleton,
    leray_project, pullback_sample, single_mode_field,
)
from cbflab.config import parse_config

BENCH = Path(__file__).resolve().parents[1] / "cbfbench"
TRACING = BENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("cbfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    targets = _tracing()._targets()
    assert targets
    for span, owner, attr, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner!r} has no {attr}"


def test_traced_kernels_count_their_bytes():
    # the byte counters size the padded lattices from TorusGrid.dealias_factor
    grid = TorusGrid(dim=2, N=8)
    u = single_mode_field(grid, (1, 0), (0j, 1 + 0j), h_norm=0.5)
    tracer = _tracing().Tracer()
    with tracer.root():
        bilinear_B(u)
        damping_C(u, 3.0)
        leray_project(grid, u.coeffs)
    for kernel in ("bilinear_kernel", "damping_kernel", "leray_kernel"):
        assert tracer.counts.get(f"operators.{kernel}:bytes", 0) > 0, kernel


def test_drive_sixth_positional_parameter_is_n_steps():
    names = list(inspect.signature(cbflab.deterministic.drive).parameters)
    assert names[5] == "n_steps"


def test_fields_the_workloads_read_keep_the_full_layout():
    grid = TorusGrid(dim=2, N=8)
    forcing = single_mode_field(grid, (1, 0), (0j, 1 + 0j), h_norm=0.05)
    params = PhysicsParams(mu=1.0, beta=1.0, r=3.0, forcing=forcing)
    a_star = find_singleton(params, grid, maxT=0.1, h=0.01, check_every=0.05).a_star
    state = pullback_sample(params, NoiseConfig(mode="none"), 0.1, 0.01, grid=grid).state
    for u in (forcing, a_star, state):
        assert u.coeffs.shape == (grid.dim,) + grid.shape


def _cbflab_calls(tree):
    """(dotted name, positional count, keyword names) of every ``cbflab.*(...)`` call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id == "cbflab" and parts:
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            assert not starred and all(k.arg for k in node.keywords), ast.unparse(node)
            name = "cbflab." + ".".join(reversed(parts))
            yield name, len(node.args), [k.arg for k in node.keywords]


def test_workload_calls_bind_to_the_signatures():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    calls = list(_cbflab_calls(tree))
    assert {name for name, _, _ in calls} >= {"cbflab.simulate", "cbflab.pullback_sample"}
    for name, n_args, keywords in calls:
        module, attr = name.rsplit(".", 1)
        target = getattr(importlib.import_module(module), attr)
        try:
            inspect.signature(target).bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"{name} with {n_args} positional and {keywords}: {exc}")


#: A sample value for each field of the sweep workload's config template.
SWEEP_FIELDS = {
    "mode": "(1,0)", "amp": "(0j,(1+0j))", "f_h": 0.2, "eps_grid": "0.1,0.05,0.025",
    "phi_seed": 42, "kmax": 6, "noise_seed": 3, "n_samples": 2, "h": 0.02,
    "t_pull": 10.0, "pullback_tol": 1e-4,
}


def test_sweep_workload_config_sets_only_keys_sweep_reads():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    template = next(
        node.value.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SWEEP_CONFIG"]
    )
    names = {name for _, name, _, _ in string.Formatter().parse(template) if name}
    assert names == set(SWEEP_FIELDS)
    cfg = parse_config(template.format(**SWEEP_FIELDS))
    assert cli._unread_inputs("sweep", cfg) == []
