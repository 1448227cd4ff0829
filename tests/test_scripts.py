"""The scripts under scripts/ load against the current API and run."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"cbflab_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_imports(path):
    assert callable(_load(path).main)


def test_check_operator_identities_runs(monkeypatch, capsys):
    script = _load(next(p for p in SCRIPTS if p.name == "check_operator_identities.py"))
    monkeypatch.setattr(sys, "argv", ["check_operator_identities.py", "16"])
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("N = 16,")
    pairs = (line.split(" = ", 1) for line in lines[1:])
    values = {name.strip(): float(rest.split()[0]) for name, rest in pairs}
    assert len(values) == 5
    for name, value in values.items():
        assert value >= 0.0 if name == "Poincare slack" else abs(value) < 1e-10, name


def test_kernel_timing_runs(monkeypatch, capsys):
    script = _load(next(p for p in SCRIPTS if p.name == "kernel_timing.py"))
    monkeypatch.setattr(sys, "argv", ["kernel_timing.py", "1"])
    script.main()
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[:3] for row in rows] == [
        [f"{dim}D", f"N={n}", f"r={r:g}"] for dim, n in script.CASES for r in script.EXPONENTS
    ]
    for row, (dim, n) in zip(rows, [c for c in script.CASES for _ in script.EXPONENTS]):
        path, *numbers = row.split()[3:]
        assert path == {(2, 32): "dense", (2, 64): "fft", (3, 16): "dense"}[dim, n]
        us, peak_kb, faults = map(float, numbers)
        assert us > 0.0 and peak_kb > 0.0 and faults >= 0.0


def test_run_contraction_experiment_runs(monkeypatch, capsys):
    script = _load(next(p for p in SCRIPTS if p.name == "run_contraction_experiment.py"))
    monkeypatch.setattr(sys, "argv", ["run_contraction_experiment.py"])
    script.main()
    lines = capsys.readouterr().out.splitlines()
    floor, slope = (float(line.rsplit(":", 1)[1]) for line in lines[1:3])
    assert slope <= 0.8 * floor
