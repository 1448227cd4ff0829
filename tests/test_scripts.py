"""The scripts under scripts/ load against the current API and run."""

import importlib.util
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import cbflab

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))

#: The output of ``scripts/artifact_digest.py OUT``, its ``env`` header first.
GOLDEN_DIGEST = Path(__file__).resolve().parent / "golden" / "artifact_digest.txt"


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


def test_artifact_digest_matches_golden(tmp_path, monkeypatch, capsys):
    """The byte contract: the fixed CLI runs write the committed bytes.

    After a change that alters artifact bytes on purpose, regenerate the file
    with ``python scripts/artifact_digest.py OUT > tests/golden/artifact_digest.txt``.
    """
    script = _load(next(p for p in SCRIPTS if p.name == "artifact_digest.py"))
    want = GOLDEN_DIGEST.read_text().splitlines()
    recorded = [line for line in want if line.startswith("env ")]
    if recorded != script.digest_environment():
        pytest.skip(f"digests recorded on {recorded}, this is {script.digest_environment()}")
    monkeypatch.setattr(sys, "argv", ["artifact_digest.py", str(tmp_path)])
    script.main()
    got = capsys.readouterr().out.splitlines()
    differ = sorted({line.split("  ")[-1] for line in set(got) ^ set(want)})
    assert got == want, f"digests differ for {differ}"


def test_golden_digest_skips_on_another_blas_kernel(tmp_path):
    # the header records the BLAS kernel, so a run on another kernel skips the
    # byte test and names both kernels instead of failing on its digests
    script = _load(next(p for p in SCRIPTS if p.name == "artifact_digest.py"))
    recorded = next(
        line for line in GOLDEN_DIGEST.read_text().splitlines() if line.startswith("env blas ")
    )
    if script.blas_corename() == "unknown" or recorded == "env blas Haswell":
        pytest.skip(f"OPENBLAS_CORETYPE=HASWELL cannot change the kernel from {recorded}")
    package_root = str(Path(cbflab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    report = tmp_path / "report.xml"
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}",
         f"{__file__}::test_artifact_digest_matches_golden"],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": "HASWELL"},
        check=True, capture_output=True, text=True, timeout=300,
    )
    skipped = ET.parse(report).getroot().find(".//skipped")
    assert skipped is not None
    assert recorded in skipped.get("message") and "env blas Haswell" in skipped.get("message")
