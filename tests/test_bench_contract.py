"""The names the benchmark's tracer patches, and the step count it reads, stay put.

``cbfbench/tracing.py`` wraps cbflab functions by name and reads the step
count of every ``drive`` call from its sixth positional argument; deleting
or renaming one of those would silently break the traced run.
"""

import importlib.util
import inspect
from pathlib import Path

import cbflab.deterministic

TRACING = Path(__file__).resolve().parents[1] / "cbfbench" / "tracing.py"


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
