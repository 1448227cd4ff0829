import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import cbflab
from cbflab import cli
from cbflab.cli import main
from cbflab.config import RunConfig, parse_config
from cbflab.conditions import ConditionReport
from cbflab.experiments import RateFit, SweepRecord

BASE = """
[grid]
dim = 2
N = 16

[physics]
mu = 1.0
beta = 1.0
r = 3.0
forcing = modes k=(1,0) a=(0j,(1+0j))
forcing_h_norm = 0.2
"""

SWEEP = BASE + """
[noise]
mode = multiplicative
eps_grid = 0.1,0.05,0.025
ou_alpha = 2.5
seed = 0
n_samples = 2

[solver]
h = 0.02
T = 60.0
t_pull = 8.0
tol = 1e-6
pullback_tol = 0.05
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_check_conditions_zero_forcing(tmp_path, capsys):
    cfg = write(tmp_path, "c.cfg", BASE.replace(
        "forcing = modes k=(1,0) a=(0j,(1+0j))\nforcing_h_norm = 0.2", "forcing = none"
    ))
    code = main(["check-conditions", "--config", cfg, "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "holds: true" in out
    assert "varrho = 1.0" in out
    report = json.loads((tmp_path / "out" / "conditions.json").read_text())
    assert set(report) == {f.name for f in fields(ConditionReport)}
    assert (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("constants,label", [
    ("", "provisional placeholders"),
    ("\n[constants]\nc1 = 1.0\nc3 = 1.0\n", "user-supplied"),
], ids=["default", "from-config"])
def test_check_conditions_labels_the_constants(tmp_path, capsys, constants, label):
    # only the default constants are the placeholders
    cfg = write(tmp_path, "c.cfg", BASE + constants)
    out = tmp_path / "out"
    assert main(["check-conditions", "--config", cfg, "--out", str(out)]) == 0
    assert f"({label})" in capsys.readouterr().out
    for name in ("conditions.json", "manifest.json"):
        assert json.loads((out / name).read_text())["constants"]["label"] == label


def test_validation_failure_exit_code(tmp_path, capsys):
    bad = BASE.replace("dim = 2", "dim = 3").replace("r = 3.0", "r = 2.0")
    cfg = write(tmp_path, "bad.cfg", bad)
    code = main(["check-conditions", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "3D requires r >= 3" in err
    assert "3D grid" in err  # the 2-component forcing mode is also reported


def test_format_json_is_not_a_choice(tmp_path, capsys):
    # sweep writes its summary and plot itself, so no run takes a format
    cfg = write(tmp_path, "c.cfg", SWEEP)
    for fmt in ("json", "svg"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--format", fmt])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --format {fmt}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_report_is_not_a_subcommand(tmp_path, capsys):
    # the summary and plot that report rendered are written by sweep
    cfg = write(tmp_path, "c.cfg", SWEEP)
    with pytest.raises(SystemExit) as exc:
        main(["report", "--config", cfg, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "invalid choice: 'report'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_writes_trajectory(tmp_path):
    cfg = write(tmp_path, "s.cfg", BASE + "\n[solver]\nh = 0.01\nT = 0.5\ninitial = random seed=1 hnorm=0.5 kmax=4\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,h_norm,v_norm,lr_norm,energy_residual"


def test_singleton_nonconvergence_exit_code(tmp_path):
    cfg = write(tmp_path, "n.cfg", BASE + "\n[solver]\nh = 0.02\nT = 0.1\ntol = 1e-13\n")
    out = tmp_path / "sing"
    code = main(["singleton", "--config", cfg, "--out", str(out)])
    assert code == 3
    assert (out / "contraction_log.csv").exists()  # log still written
    assert (out / "a_star.cbff").exists()


def test_sweep_record_count_contract(tmp_path, capsys):
    cfg = write(tmp_path, "sw.cfg", SWEEP)
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 0
    lines = (out / "records.csv").read_text().strip().splitlines()
    assert lines[0] == "epsilon,seed,mode,r,dist_h,t_pull,converged"
    assert lines[0].split(",") == [f.name for f in fields(SweepRecord)]
    assert len(lines) == 1 + 3 * 2  # 3 epsilon levels x 2 seeds
    fit = json.loads((out / "fit.json").read_text())
    assert set(fit) >= {"slope", "intercept", "delta_theory", "eps_grid", "n_samples", "residuals"}
    assert set(fit) == {f.name for f in fields(RateFit)}
    assert isinstance(fit["mean_inversions"], int)
    # the summary it prints, and its plot, written next to the records
    text = (out / "summary.txt").read_text()
    assert "fitted slope" in text
    assert capsys.readouterr().out == text
    assert (out / "fit.svg").read_text().startswith("<svg")
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert sorted(artifacts) == ["fit.json", "fit.svg", "records.csv", "summary.txt"]



@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = write(tmp, "sw.cfg", SWEEP)
    assert main(["sweep", "--config", cfg, "--out", str(tmp / "o")]) == 0
    return tmp / "o"


@pytest.mark.parametrize("name", ["records.csv", "fit.json", "summary.txt", "fit.svg"])
def test_sweep_manifest_hashes_each_artifact(sweep_out, name):
    # the manifest's checksum is that of the bytes the sweep left on disk
    artifacts = json.loads((sweep_out / "manifest.json").read_text())["artifacts"]
    assert artifacts[name] == hashlib.sha256((sweep_out / name).read_bytes()).hexdigest()


def test_manifest_rerun_byte_identical(tmp_path):
    cfg = write(tmp_path, "sw.cfg", SWEEP)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    manifest = out1 / "manifest.json"
    assert main(["sweep", "--config", str(manifest), "--out", str(out2)]) == 0
    assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
    assert (out1 / "fit.json").read_bytes() == (out2 / "fit.json").read_bytes()
    m1 = json.loads(manifest.read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["artifacts"] == m2["artifacts"]


def test_manifest_with_removed_keys_exits_2(tmp_path, capsys):
    # a manifest written while grid.dealias_factor and constants.c2 existed
    # records both; deleting the two lines makes it run again
    out = tmp_path / "o"
    assert main(["check-conditions", "--config", write(tmp_path, "c.cfg", BASE),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    text = manifest["config_text"]
    old = text.replace("[grid]\n", "[grid]\ndealias_factor = 1.5\n").replace(
        "[constants]\n", "[constants]\nc2 = 1.4142135623730951\n"
    )
    capsys.readouterr()
    path = write(tmp_path, "old.json", json.dumps({**manifest, "config_text": old}))
    assert main(["check-conditions", "--config", path, "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert "unknown key grid.dealias_factor" in err and "unknown key constants.c2" in err
    path = write(tmp_path, "new.json", json.dumps({**manifest, "config_text": text}))
    assert main(["check-conditions", "--config", path, "--out", str(tmp_path / "q")]) == 0
    assert (tmp_path / "q" / "conditions.json").read_bytes() == (
        out / "conditions.json"
    ).read_bytes()


def test_pullback_subcommand(tmp_path):
    # the sidecar labels a run with the config's mode, none included
    for mode, eps in (("multiplicative", 0.1), ("none", 0.0)):
        cfg = write(
            tmp_path, f"{mode}.cfg",
            BASE + f"\n[noise]\nmode = {mode}\nepsilon = {eps}\nou_alpha = 2.5\nseed = 1\n"
            "\n[solver]\nh = 0.02\nt_pull = 10.0\npullback_tol = 0.05\n",
        )
        out = tmp_path / mode
        assert main(["pullback", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "pullback_sample.json").read_text())
        assert meta["epsilon"] == eps
        assert meta["mode"] == mode
        assert meta["converged"] is True


def test_ou_diagnostics(tmp_path, capsys):
    cfg = write(tmp_path, "ou.cfg", "[noise]\nou_alpha = 1.0\nn_samples = 1500\n")
    out = tmp_path / "ou"
    assert main(["ou-diagnostics", "--config", cfg, "--out", str(out)]) == 0
    stats = json.loads((out / "ou_stats.json").read_text())
    assert stats["mean_z_sq"] == pytest.approx(0.5, abs=0.05)
    assert abs(stats["pullback_time_average"]) <= stats["pullback_time_average_bound"]
    dump = (out / "path.csv").read_text().splitlines()
    assert dump[0] == "t,W,z"
    assert len(dump) > 1000


def test_blowup_exit_code(tmp_path, capsys):
    cfg = write(
        tmp_path, "b.cfg",
        BASE + "\n[solver]\nh = 0.01\nT = 1.0\nblowup_guard = 1e-8\n"
        "initial = random seed=1 hnorm=0.5 kmax=4\n",
    )
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 4
    assert "blow-up" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "dim, value, change",
    [
        (2, "forcing_h_norm = 0.2", "forcing_h_norm = 1e150"),
        (2, "beta = 1.0", "beta = 1e300"),
        (3, "forcing_h_norm = 0.2", "forcing_h_norm = 1e80"),
    ],
)
def test_blowup_prints_only_its_error_line(tmp_path, capsys, dim, value, change):
    # the step loop overflows on its way to the non-finite |u|_H it reports
    text = BASE.replace("N = 16", "N = 8").replace(value, change)
    if dim == 3:
        text = text.replace("dim = 2", "dim = 3").replace(
            "k=(1,0) a=(0j,(1+0j))", "k=(1,0,0) a=(0j,(1+0j),0j)"
        )
    cfg = write(tmp_path, "b.cfg", text + "\n[solver]\nh = 0.01\nT = 0.02\n")
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: solver.blowup_guard: blow-up detected at t = ")
    assert err.count("\n") == 1


def test_simulate_snapshot_cadence(tmp_path):
    cfg = write(
        tmp_path, "snap.cfg",
        BASE + "\n[solver]\nh = 0.01\nT = 0.2\ninitial = random seed=1 hnorm=0.5 kmax=4\n"
        "\n[output]\nsnapshot_every = 10\n",
    )
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    snaps = sorted(out.glob("field_t*.cbff"))
    assert len(snaps) == 3  # t = 0, 0.1, 0.2
    from cbflab import read_field

    read_field(snaps[0])


def test_singleton_honours_cfl_safety(tmp_path, capsys):
    cfg = write(tmp_path, "c.cfg", BASE + "\n[solver]\nh = 0.02\nT = 1.0\ncfl_safety = 1e-9\n")
    code = main(["singleton", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "CFL" in capsys.readouterr().err


def test_pullback_honours_blowup_guard(tmp_path, capsys):
    cfg = write(
        tmp_path, "g.cfg",
        BASE + "\n[noise]\nmode = multiplicative\nepsilon = 0.1\nou_alpha = 2.5\nseed = 1\n"
        "\n[solver]\nh = 0.02\nt_pull = 2.0\nblowup_guard = 1e-3\n",
    )
    code = main(["pullback", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 4
    assert "blow-up" in capsys.readouterr().err


def test_sweep_honours_cfl_safety(tmp_path, capsys):
    cfg = write(tmp_path, "sw.cfg", SWEEP + "cfl_safety = 1e-9\n")
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "CFL" in capsys.readouterr().err


def test_simulate_too_long_horizon_exits_2(tmp_path, capsys):
    # 10^17 steps: numpy refuses the step records at once, before any step
    cfg = write(tmp_path, "long.cfg", BASE + "\n[solver]\nh = 0.01\nT = 1e15\n")
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and "Traceback" not in err


def test_negative_blowup_guard_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "b.cfg", BASE + "\n[solver]\nh = 0.01\nT = 0.1\nblowup_guard = -1\n")
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "solver.blowup_guard" in capsys.readouterr().err


def test_sweep_singleton_nonconvergence_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "sw.cfg", SWEEP.replace("T = 60.0", "T = 0.5"))
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: solver.T: the singleton search did not converge by T = 0.5; raise it"
    ]


BASE_3D_R4 = """
[grid]
dim = 3
N = 8

[physics]
r = 4.0
forcing = modes k=(1,0,0) a=(0j,(1+0j),0j)
forcing_h_norm = 100.0
"""

#: A singleton config that exits 2 and the start of its one stderr line
EXIT_LINES = {
    "cfl": (BASE + "\n[solver]\nh = 0.02\nT = 1.0\ncfl_safety = 1e-9\n",
            "error: solver.h, solver.cfl_safety: step 0.02 exceeds CFL bound "),
    "condition-2d": (BASE.replace("forcing_h_norm = 0.2", "forcing_h_norm = 1.0"),
                     "error: grid.L, physics.mu, physics.forcing: singleton condition fails "
                     "for 2D-C1: varrho = "),
    "condition-3d": (BASE_3D_R4,
                     "error: grid.L, physics.mu, physics.forcing, physics.beta, physics.r: "
                     "singleton condition fails for 3D-r>3: varrho = "),
}


@pytest.mark.parametrize("case", list(EXIT_LINES))
def test_exit_lines_name_their_config_paths(tmp_path, capsys, case):
    text, start = EXIT_LINES[case]
    cfg = write(tmp_path, "c.cfg", text)
    assert main(["singleton", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(start), err


@pytest.mark.parametrize("kind", ["random", "file"])
def test_forcing_h_norm_applies_to_every_spec(tmp_path, kind):
    spec = "random seed=1 hnorm=1.0 kmax=3"
    if kind == "file":
        from cbflab import TorusGrid, random_field, write_field

        path = tmp_path / "f.cbff"
        write_field(path, random_field(TorusGrid(dim=2, N=16), 1, h_norm=1.0, kmax=3.0))
        spec = f"file {path}"
    text = BASE.replace("forcing = modes k=(1,0) a=(0j,(1+0j))", f"forcing = {spec}")
    cfg = write(tmp_path, "c.cfg", text.replace("forcing_h_norm = 0.2", "forcing_h_norm = 0.01"))
    assert main(["check-conditions", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "conditions.json").read_text())
    # G = |f|_H / (mu^2 lambda1) with mu = lambda1 = 1
    assert report["grashof"] == pytest.approx(0.01, rel=1e-12)


#: The range line of the condition formulas, and of the 3D r > 3 ones.
_CONDITION_RANGE = "error: grid.L, physics.mu, physics.forcing: out of the range "
_ETA3_RANGE = _CONDITION_RANGE.replace("forcing:", "forcing, physics.beta, physics.r:")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "name, payload, start",
    [
        ("manifest.json", b'{"config_text": "[grid]\\n', "error: "),  # not valid JSON
        ("latin1.cfg", "[grid]\ndim = 2\n# déjà vu\n".encode("latin-1"), "error: "),  # not UTF-8
        ("missing.cfg", BASE.replace("modes k=(1,0) a=(0j,(1+0j))", "file /nonexistent/f.cbff").encode(),
         "error: field file /nonexistent/f.cbff: "),
        ("huge.cfg", BASE.replace("mu = 1.0", "mu = 1e200").encode(),  # mu**2 overflows
         _CONDITION_RANGE),
        ("eta3.cfg", BASE.replace("dim = 2", "dim = 3").replace("r = 3.0", "r = 3.0000000001")
         .replace("k=(1,0) a=(0j,(1+0j))", "k=(1,0,0) a=(0j,(1+0j),0j)").encode(),
         _ETA3_RANGE),
        ("tiny-mu.cfg", BASE.replace("mu = 1.0", "mu = 1e-150").encode(),  # (G/threshold)^2
         _CONDITION_RANGE),
        # the forcing's coefficients scale as hnorm / L, and their squares overflow
        ("small-L-big-forcing.cfg", BASE.replace("N = 16", "N = 8\nL = 1e-60").replace(
            "modes k=(1,0) a=(0j,(1+0j))\nforcing_h_norm = 0.2", "random seed=1 hnorm=1e100"
        ).encode(), "error: physics.forcing: out of the range "),
        # a finite forcing_h_norm square, but f_h^4 in the 3D formulas overflows
        ("3d-big-forcing.cfg", BASE.replace("dim = 2", "dim = 3").replace("N = 16", "N = 8")
         .replace("k=(1,0) a=(0j,(1+0j))", "k=(1,0,0) a=(0j,(1+0j),0j)")
         .replace("forcing_h_norm = 0.2", "forcing_h_norm = 1e100").encode(), _CONDITION_RANGE),
        ("nan-norm.cfg", BASE.replace("forcing_h_norm = 0.2", "forcing_h_norm = nan").encode(),
         "error: physics.forcing_h_norm: "),
        ("neg-norm.cfg", BASE.replace("forcing_h_norm = 0.2", "forcing_h_norm = -1").encode(),
         "error: physics.forcing_h_norm: "),
        ("inf-norm.cfg", BASE.replace("forcing_h_norm = 0.2", "forcing_h_norm = inf").encode(),
         "error: physics.forcing_h_norm: "),
        ("big-norm.cfg", BASE.replace("forcing_h_norm = 0.2", "forcing_h_norm = 1e300").encode(),
         "error: physics.forcing_h_norm: "),
        ("nan-mode.cfg", BASE.replace("a=(0j,(1+0j))", "a=(nan,nanj)").encode(),
         "error: physics.forcing: "),
        ("unforced.cfg", BASE.replace("modes k=(1,0) a=(0j,(1+0j))", "none").encode(),
         "error: physics.forcing_h_norm: "),
        ("seeds.cfg", (BASE + "\n[noise]\nn_samples = 2000000\n").encode(), "error: noise.n_samples: "),
        *[(f"L{length}.cfg", BASE.replace("N = 16", f"N = 8\nL = {length}").encode(),
           _CONDITION_RANGE) for length in ("1e-150", "1e-100", "1e100", "1e150")],
        # the stationary moments overflow, or divide by an underflowed alpha**2
        *[(f"ou-alpha-{alpha}.cfg", f"[noise]\nou_alpha = {alpha}\n".encode(),
           "error: noise.ou_alpha: out of the range ") for alpha in ("1e300", "1e-300")],
    ],
    ids=[
        "bad-json", "not-utf8", "missing-field-file", "mu-overflow", "eta3-overflow",
        "mu-underflow", "small-L-big-random-forcing", "3d-big-forcing-h-norm",
        "nan-forcing-h-norm", "negative-forcing-h-norm", "inf-forcing-h-norm",
        "overflowing-forcing-h-norm", "nan-forcing-mode", "forcing-h-norm-without-forcing",
        "too-many-noise-seeds", "L-1e-150", "L-1e-100", "L-1e100", "L-1e150",
        "ou-alpha-1e300", "ou-alpha-1e-300",
    ],
)
def test_malformed_input_exits_2_without_traceback(tmp_path, capsys, name, payload, start):
    # one error line, no traceback, and no numpy RuntimeWarning on the way;
    # the ou-* configs run ou-diagnostics, every other one check-conditions
    cfg = tmp_path / name
    cfg.write_bytes(payload)
    subcommand = "ou-diagnostics" if name.startswith("ou-") else "check-conditions"
    code = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(start) and err.count("\n") == 1
    assert "Traceback" not in err


PULLBACK = BASE + (
    "\n[noise]\nmode = multiplicative\nepsilon = 0.1\nou_alpha = 2.5\nseed = 1\n"
    "\n[solver]\nh = 0.01\nt_pull = 0.5\npullback_tol = 0.5\n"
)


def test_pullback_rejects_horizon_of_partial_steps(tmp_path, capsys):
    cfg = write(tmp_path, "p.cfg", PULLBACK.replace("t_pull = 0.5", "t_pull = 0.035"))
    assert main(["pullback", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "t_pull: 0.035 is not a multiple of the step 0.01" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", list(cli._COMMANDS))
def test_seed_offset_is_not_an_option(tmp_path, capsys, subcommand):
    # the noise seed comes from the config alone, so a manifest records it
    cfg = write(tmp_path, "p.cfg", PULLBACK)
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--config", cfg, "--out", str(tmp_path / "o"), "--seed-offset", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed-offset 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


#: A config for each subcommand that sets only keys it reads, with the noise seed 5.
CONFIGS = {
    "check-conditions": BASE,
    "simulate": BASE + "\n[solver]\nh = 0.02\nT = 0.2\ninitial = random seed=1 hnorm=0.5 kmax=4\n",
    "singleton": BASE + "\n[solver]\nh = 0.02\nT = 20.0\ntol = 1e-6\n",
    "pullback": BASE + """
[noise]
mode = multiplicative
epsilon = 0.1
ou_alpha = 2.5
seed = 5

[solver]
h = 0.02
t_pull = 2.0
pullback_tol = 10.0
""",
    "sweep": BASE + """
[noise]
mode = multiplicative
eps_grid = 0.1,0.05,0.025
ou_alpha = 2.5
seed = 5
n_samples = 3

[solver]
h = 0.02
T = 20.0
t_pull = 2.0
tol = 1e-6
pullback_tol = 10.0
""",
    "ou-diagnostics": "[noise]\nou_alpha = 2.5\nseed = 5\nn_samples = 3\n",
}


@pytest.mark.parametrize("subcommand,seeds", [
    ("check-conditions", []),
    ("simulate", []),
    ("singleton", []),
    ("pullback", [7]),
    ("sweep", [7, 8, 9]),
    # the OU statistics draw at least 1000 paths
    ("ou-diagnostics", list(range(5, 1005))),
])
def test_manifest_lists_the_seeds_drawn(tmp_path, subcommand, seeds):
    # an appended seed override where the subcommand reads the seed
    override = "\n[noise]\nseed = 7\n" if subcommand in ("pullback", "sweep") else ""
    cfg = write(tmp_path, "seeded.cfg", CONFIGS[subcommand] + override)
    out = tmp_path / "o"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seeds"] == seeds


@pytest.mark.parametrize("subcommand", ["pullback", "sweep"])
def test_seed_override_reruns_from_its_manifest(tmp_path, subcommand):
    # a seed set by an appended override is in the manifest's config_text
    cfg = write(tmp_path, "seeded.cfg", CONFIGS[subcommand] + "\n[noise]\nseed = 7\n")
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([subcommand, "--config", cfg, "--out", str(first)]) == 0
    assert main([subcommand, "--config", str(first / "manifest.json"), "--out", str(second)]) == 0
    written = {p.name: p.read_bytes() for p in first.iterdir()}
    assert "manifest.json" in written
    assert {p.name: p.read_bytes() for p in second.iterdir()} == written


#: Each config key off its default, with whatever else keeps the
#: config valid for the subcommand's own CONFIGS entry.  A new key without an
#: entry here fails the rejection test with a KeyError.
OFF_DEFAULT = {
    "grid.dim": "[grid]\ndim = 3",
    "grid.N": "[grid]\nN = 16",
    "grid.L": "[grid]\nL = 3.0",
    "physics.mu": "[physics]\nmu = 2.0",
    "physics.beta": "[physics]\nbeta = 0.5",
    "physics.r": "[physics]\nr = 2.0",
    "physics.darcy": "[physics]\ndarcy = 0.5",
    "physics.forcing": "[physics]\nforcing = modes k=(1,0) a=(0j,(1+0j))",
    "physics.forcing_h_norm":
        "[physics]\nforcing = modes k=(1,0) a=(0j,(1+0j))\nforcing_h_norm = 0.2",
    "noise.mode": "[noise]\nmode = multiplicative",
    "noise.epsilon": "[noise]\nmode = multiplicative\nepsilon = 0.5",
    "noise.eps_grid": "[noise]\neps_grid = 0.1,0.05,0.025",
    "noise.ou_alpha": "[noise]\nou_alpha = 2.0",
    "noise.phi": "[noise]\nmode = additive\nphi = random seed=1 hnorm=1.0 kmax=4",
    "noise.seed": "[noise]\nseed = 9",
    "noise.n_samples": "[noise]\nn_samples = 3",
    "solver.h": "[solver]\nh = 0.02",
    "solver.T": "[solver]\nT = 2.0",
    "solver.t_pull": "[solver]\nt_pull = 2.0",
    "solver.tol": "[solver]\ntol = 1e-6",
    "solver.pullback_tol": "[solver]\npullback_tol = 0.5",
    "solver.cfl_safety": "[solver]\ncfl_safety = 0.5",
    "solver.blowup_guard": "[solver]\nblowup_guard = 1e3",
    "solver.n_probes": "[solver]\nn_probes = 4",
    "solver.initial": "[solver]\ninitial = random seed=1 hnorm=0.5 kmax=4",
    "constants.c1": "[constants]\nc1 = 1.0",
    "constants.c3": "[constants]\nc3 = 1.0",
    "output.snapshot_every": "[output]\nsnapshot_every = 10",
}

#: Every subcommand with every config key it does not read.
UNREAD = [
    (subcommand, name)
    for subcommand in cli._COMMANDS
    for name in cli._inputs(RunConfig())
    if name not in cli._reads(subcommand)
]


@pytest.mark.parametrize("subcommand,name", UNREAD, ids=[f"{s}-{n}" for s, n in UNREAD])
def test_keys_a_subcommand_would_drop_are_rejected(tmp_path, capsys, subcommand, name):
    # every pair of a subcommand with a config key that its _COMMANDS entry omits
    cfg = write(tmp_path, "c.cfg", CONFIGS[subcommand] + f"\n{OFF_DEFAULT[name]}\n")
    out = tmp_path / "o"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert f"error: {name}: set, but {subcommand} does not use it; leave it at its default" in err
    assert all(line.endswith("does not use it; leave it at its default") for line in err)
    assert not (out / "manifest.json").exists()


def _recording(section, name, reads):
    """A copy of the config ``section`` that adds ``name.key`` to ``reads`` on every key read."""
    keys = {f.name for f in fields(section)}

    class Recording(type(section)):
        def __getattribute__(self, attr):
            if attr in keys:
                reads.add(f"{name}.{attr}")
            return super().__getattribute__(attr)

    return Recording(**{key: getattr(section, key) for key in keys})


@pytest.mark.parametrize("subcommand", list(cli._COMMANDS))
def test_command_entries_list_exactly_the_inputs_read(tmp_path, capsys, subcommand):
    # a run on a small config records the keys its code reads
    reads = set()
    command = cli._COMMANDS[subcommand][0]
    cfg = parse_config(CONFIGS[subcommand])
    recorded = RunConfig(**{
        f.name: _recording(getattr(cfg, f.name), f.name, reads) for f in fields(cfg)
    })
    command(recorded, str(tmp_path))
    assert reads == cli._reads(subcommand)


@pytest.mark.parametrize(
    "subcommand, config",
    [
        ("simulate", "/nonexistent/run.cfg"),
        ("simulate", "."),
    ],
    ids=["missing-config", "config-is-a-directory"],
)
def test_missing_input_exits_2(tmp_path, monkeypatch, capsys, subcommand, config):
    monkeypatch.chdir(tmp_path)
    assert main([subcommand, "--config", config, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cannot read" in err


REPRODUCIBLE = BASE + """
[noise]
mode = multiplicative
epsilon = 0.1
ou_alpha = 2.5
seed = 3

[solver]
h = 0.02
t_pull = 2.0
pullback_tol = 10.0
initial = random seed=1 hnorm=0.5 kmax=4
"""


def _run_module(cfg, out, **env):
    """``python -m cbflab.cli pullback`` in a fresh process, on this checkout's package."""
    package_root = str(Path(cbflab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "cbflab.cli", "pullback", "--config", cfg, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path, **env}, check=True, capture_output=True,
    )


@pytest.mark.parametrize("knob", ["output-directory", "CBF_LOG", "process"])
def test_knobs_outside_the_contract_keep_every_byte(tmp_path, monkeypatch, knob):
    # the reproducibility contract: only the config, the numpy version and the
    # BLAS kernel decide the bytes of a run, manifest.json included
    cfg = write(tmp_path, "repro.cfg", REPRODUCIBLE)
    first, second = tmp_path / "first", tmp_path / "nested" / "second"
    if knob == "output-directory":
        monkeypatch.chdir(tmp_path)
        assert main(["pullback", "--config", cfg, "--out", str(first)]) == 0
        assert main(["pullback", "--config", cfg, "--out", "nested/second"]) == 0
    elif knob == "CBF_LOG":
        _run_module(cfg, first, CBF_LOG="error")
        _run_module(cfg, second, CBF_LOG="debug")
    else:
        assert main(["pullback", "--config", cfg, "--out", str(first)]) == 0
        _run_module(cfg, second)
    written = {p.name: p.read_bytes() for p in first.iterdir()}
    assert sorted(written) == ["manifest.json", "pullback_sample.cbff", "pullback_sample.json"]
    assert {p.name: p.read_bytes() for p in second.iterdir()} == written
