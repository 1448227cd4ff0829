"""The names the benchmark's tracer patches, the step count it reads and the
calls its workloads make stay put.

``cbfbench/tracing.py`` wraps cbflab functions by name and reads the step
count of every ``drive`` call from its sixth positional argument, and
``cbfbench/workloads.py`` calls cbflab by its public names; deleting or
renaming one of those, or changing a signature those calls use, would
silently break the benchmark.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import cbflab.deterministic

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


def test_drive_sixth_positional_parameter_is_n_steps():
    names = list(inspect.signature(cbflab.deterministic.drive).parameters)
    assert names[5] == "n_steps"


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
