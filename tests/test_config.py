import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbflab import (
    EstimateConstants,
    NoiseConfig,
    PhysicsParams,
    TorusGrid,
    ValidationError,
    find_singleton,
    pullback_sample,
    random_field,
    read_field,
    simulate,
    write_field,
    zero_velocity,
)
from cbflab.cli import main
from cbflab.config import (
    ModesSpec,
    NoneSpec,
    RandomSpec,
    build_field,
    parse_config,
    serialize_config,
)
from cbflab.deterministic import drive
MINIMAL = """
[grid]
dim = 2
N = 16

[physics]
mu = 1.0
beta = 1.0
r = 3.0
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.physics.darcy == 0.0
    assert cfg.solver.cfl_safety == 0.4
    assert cfg.grid.L == pytest.approx(2.0 * math.pi)
    assert isinstance(cfg.physics.forcing, NoneSpec)


#: The canonical text of the empty config.  Every manifest records its config
#: in this form, so a default changed at its owner shows up here.
DEFAULTS_TEXT = """[grid]
dim = 2
N = 32
L = 6.283185307179586

[physics]
mu = 1.0
beta = 1.0
r = 3.0
darcy = 0.0
forcing = none

[noise]
mode = none
epsilon = 0.0
ou_alpha = 1.0
phi = none
seed = 0
n_samples = 2

[solver]
h = 0.01
T = 10.0
t_pull = 40.0
tol = 1e-08
pullback_tol = 0.0001
cfl_safety = 0.4
blowup_guard = 1000000.0
n_probes = 3
initial = none

[constants]
c1 = 1.4142135623730951
c3 = 2.0

[output]
snapshot_every = 0
"""


def test_serialized_defaults_are_pinned():
    assert serialize_config(parse_config("")) == DEFAULTS_TEXT


def test_comments_and_blank_lines():
    cfg = parse_config("# leading comment\n" + MINIMAL + "\n# trailing\n")
    assert cfg.grid.N == 16


def test_3d_low_r_rejected():
    text = MINIMAL.replace("dim = 2", "dim = 3").replace("r = 3.0", "r = 2.0")
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert any("3D requires r >= 3" in v for v in err.value.violations)


def test_3d_additive_rejected():
    text = (
        MINIMAL.replace("dim = 2", "dim = 3")
        + "\n[noise]\nmode = additive\nepsilon = 0.1\nphi = random seed=1 hnorm=1 kmax=4\n"
    )
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert any("additive" in v for v in err.value.violations)


def test_all_violations_reported_at_once():
    bad = """
[grid]
dim = 5
N = 7
L = -1

[physics]
mu = -2
r = 0.5
"""
    with pytest.raises(ValidationError) as err:
        parse_config(bad)
    joined = "\n".join(err.value.violations)
    for frag in ("grid.dim", "grid.N", "grid.L", "physics.mu", "physics.r"):
        assert frag in joined


def test_syntax_errors_carry_line_numbers():
    bad = "[grid]\ndim 2\n[nosuch]\nx = 1\n"
    with pytest.raises(ValidationError) as err:
        parse_config(bad)
    msgs = err.value.violations
    assert any(m.startswith("line 2:") for m in msgs)
    assert any(m.startswith("line 3:") for m in msgs)


def test_unknown_key_rejected():
    with pytest.raises(ValidationError) as err:
        parse_config(MINIMAL + "\n[solver]\nwormhole = 3\n")
    assert any("unknown key solver.wormhole" in v for v in err.value.violations)


def test_sample_every_rejected_as_unknown():
    # snapshots are output.snapshot_every; the solver has no sampling key
    with pytest.raises(ValidationError) as err:
        parse_config(MINIMAL + "\n[solver]\nsample_every = 10\n")
    assert any("unknown key solver.sample_every" in v for v in err.value.violations)
    assert "sample_every" not in serialize_config(parse_config(MINIMAL))


@pytest.mark.parametrize("guard", ["0", "-1", "nan"])
def test_nonpositive_blowup_guard_rejected(guard):
    with pytest.raises(ValidationError) as err:
        parse_config(MINIMAL + f"\n[solver]\nblowup_guard = {guard}\n")
    assert any("solver.blowup_guard" in v for v in err.value.violations)


def test_round_trip_identity():
    text = (
        MINIMAL
        + """
[noise]
mode = multiplicative
epsilon = 0.1
eps_grid = 0.1,0.05,0.025
ou_alpha = 2.5
seed = 3
n_samples = 4

[physics]
forcing = modes k=(1,0) a=(0j,(0.2+0j)) | k=(0,1) a=((0.1+0j),0j)

[solver]
h = 0.005
initial = random seed=2 hnorm=1.0 kmax=4.0
"""
    )
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg


@settings(max_examples=30, deadline=None)
@given(
    mu=st.floats(0.01, 10.0),
    h=st.floats(1e-4, 0.5),
    seed=st.integers(0, 2**31),
    eps=st.floats(0.0, 1.0),
)
def test_round_trip_random_values(mu, h, seed, eps):
    text = (
        f"[grid]\ndim = 2\nN = 16\n\n[physics]\nmu = {mu!r}\nbeta = 1.0\nr = 3.0\n"
        f"\n[noise]\nmode = multiplicative\nepsilon = {eps!r}\nseed = {seed}\n"
        f"\n[solver]\nh = {h!r}\n"
    )
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_random_spec_without_kmax():
    cfg = parse_config(MINIMAL + "\n[solver]\ninitial = random seed=2 hnorm=0.5\n")
    assert cfg.solver.initial == RandomSpec(seed=2, hnorm=0.5)
    assert "initial = random seed=2 hnorm=0.5\n" in serialize_config(cfg)
    assert parse_config(serialize_config(cfg)) == cfg


def test_a_key_set_twice_takes_its_later_value():
    cfg = parse_config(MINIMAL + "\n[physics]\nmu = 2.0\n[grid]\nN = 8\nN = 32\n")
    assert (cfg.physics.mu, cfg.grid.N) == (2.0, 32)


@pytest.mark.parametrize("where", ["physics.forcing", "noise.phi", "solver.initial"])
@pytest.mark.parametrize(
    "spec, message",
    [
        ("random seed=1 hnrom=0.1", "unknown random entry 'hnrom=0.1'"),
        ("random sead=3", "unknown random entry 'sead=3'"),
        ("random seed=1 kmax=4 kmax=2", "random kmax given twice"),
        ("random seed=1 hnorm=1.0 stray", "unknown random entry 'stray'"),
        ("random seed=1 kmax=0", "random kmax must be >= 1, got 0.0"),
        ("random seed=1 kmax=-5", "random kmax must be >= 1, got -5.0"),
        ("random seed=1 kmax=0.5", "random kmax must be >= 1, got 0.5"),
        ("random seed=1 hnorm=-1", "random hnorm must be >= 0, got -1.0"),
        ("random seed=1 hnorm=1e300", "random hnorm must have a finite square, got 1e+300"),
        ("modes k=(1,0) a=(0j,1e300j)", "mode (1, 0) amplitude must have a finite squared norm"),
        ("randomize seed=1", "unknown field spec 'randomize seed=1'"),
        ("filefoo", "unknown field spec 'filefoo'"),
    ],
)
def test_field_specs_are_read_exactly(tmp_path, capsys, where, spec, message):
    section, key = where.split(".")
    path = tmp_path / "c.cfg"
    path.write_text(f"{MINIMAL}\n[{section}]\n{key} = {spec}\n")
    code = main(["check-conditions", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {where}: {message}\n"


def test_mode_spec_parsing_and_build(grid2d_small):
    cfg = parse_config(
        MINIMAL + "\n[physics]\nforcing = modes k=(1,0) a=(0j,(1+0j))\nforcing_h_norm = 0.25\n"
    )
    assert isinstance(cfg.physics.forcing, ModesSpec)
    f = build_field(cfg.physics.forcing, grid2d_small, cfg.physics.forcing_h_norm)
    from cbflab import h_norm

    assert h_norm(f) == pytest.approx(0.25, rel=1e-12)


def test_random_spec_build(grid2d_small):
    spec = RandomSpec(seed=5, hnorm=0.5)
    u = build_field(spec, grid2d_small)
    from cbflab import h_norm

    assert h_norm(u) == pytest.approx(0.5, rel=1e-12)


def test_bad_mode_entry_reported():
    with pytest.raises(ValidationError) as err:
        parse_config(MINIMAL + "\n[physics]\nforcing = modes k=(1 a=(1)\n")
    assert any("physics.forcing" in v for v in err.value.violations)


def test_file_spec_round_trip(tmp_path, grid2d_small):
    from cbflab import random_field, write_field

    u = random_field(grid2d_small, 3, h_norm=0.4)
    path = tmp_path / "f.cbff"
    write_field(path, u)
    cfg = parse_config(MINIMAL + f"\n[physics]\nforcing = file {path}\n")
    built = build_field(cfg.physics.forcing, grid2d_small)
    import numpy as np

    assert np.array_equal(built.coeffs, u.coeffs)


def test_parse_config_builds_no_lattice():
    text = MINIMAL.replace("dim = 2", "dim = 3").replace("N = 16", "N = 4096")
    tracemalloc.start()
    try:
        cfg = parse_config(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cfg.grid.N == 4096
    assert peak < 10 * 2**20  # one 4096^3 lattice array alone would be 512 GiB


_G = TorusGrid(dim=2, N=16)
_U0 = zero_velocity(_G)
_P = PhysicsParams(mu=1.0, beta=1.0, r=3.0)
_NONE = NoiseConfig(mode="none")


@pytest.mark.parametrize(
    "lines, build",
    [
        ("[grid]\nN = 7", lambda: TorusGrid(dim=2, N=7)),
        ("[physics]\nr = 0.5", lambda: PhysicsParams(mu=1.0, beta=1.0, r=0.5)),
        ("[physics]\nbeta = nan", lambda: PhysicsParams(mu=1.0, beta=math.nan, r=3.0)),
        ("[grid]\ndim = 3\n[physics]\nbeta = 0.25",
         lambda: PhysicsParams(mu=1.0, beta=0.25, r=3.0).validate_for_dim(3)),
        ("[noise]\nmode = weird", lambda: NoiseConfig(mode="weird")),
        ("[noise]\nphi = random seed=1 hnorm=1.0 kmax=4",
         lambda: NoiseConfig(mode="none", phi=random_field(TorusGrid(dim=2, N=16), 1, kmax=4.0))),
        ("[solver]\nh = nan", lambda: simulate(_U0, _P, 1.0, math.nan)),
        ("[solver]\nT = nan", lambda: find_singleton(_P, _G, maxT=math.nan)),
        ("[solver]\ncfl_safety = nan", lambda: simulate(_U0, _P, 0.02, 0.01, cfl_safety=math.nan)),
        ("[solver]\ncfl_safety = 1.5",
         lambda: simulate(_U0, _P, 0.02, 0.01, noise=_NONE, t0=-0.02, cfl_safety=1.5)),
        ("[solver]\nblowup_guard = -1",
         lambda: drive(_G, _U0.half, _P, None, 0.01, 2, blowup_guard=-1.0)),
        ("[solver]\ntol = 0", lambda: find_singleton(_P, _G, tol=0.0, maxT=0.1)),
        ("[solver]\npullback_tol = -1",
         lambda: pullback_sample(_P, _NONE, 0.02, 0.01, grid=_G, validate=True, pullback_tol=-1.0)),
        ("[solver]\nn_probes = 1", lambda: find_singleton(_P, _G, maxT=0.1, n_probes=1)),
        ("[solver]\nt_pull = nan", lambda: pullback_sample(_P, _NONE, math.nan, 0.01, grid=_G)),
        ("[output]\nsnapshot_every = -1", lambda: simulate(_U0, _P, 0.02, 0.01, sample_every=-1)),
        ("[grid]\nL = inf", lambda: TorusGrid(dim=2, N=16, L=math.inf)),
        ("[grid]\nL = 1e-160", lambda: TorusGrid(dim=2, N=16, L=1e-160)),
        ("[grid]\nL = 1e-300", lambda: TorusGrid(dim=2, N=16, L=1e-300)),
        ("[grid]\nL = 1e200", lambda: TorusGrid(dim=2, N=16, L=1e200)),
        ("[physics]\nmu = inf", lambda: PhysicsParams(mu=math.inf, beta=1.0, r=3.0)),
        ("[physics]\nbeta = inf", lambda: PhysicsParams(mu=1.0, beta=math.inf, r=3.0)),
        ("[physics]\nr = inf", lambda: PhysicsParams(mu=1.0, beta=1.0, r=math.inf)),
        ("[physics]\ndarcy = inf", lambda: PhysicsParams(mu=1.0, beta=1.0, r=3.0, darcy=math.inf)),
        ("[noise]\nmode = multiplicative\n[physics]\ndarcy = 0.5",
         lambda: simulate(
             _U0, PhysicsParams(mu=1.0, beta=1.0, r=3.0, darcy=0.5), 0.02, 0.01,
             noise=NoiseConfig(mode="multiplicative", epsilon=0.1),
         )),
        ("[noise]\nou_alpha = inf", lambda: NoiseConfig(mode="none", ou_alpha=math.inf)),
        ("[constants]\nc1 = inf", lambda: EstimateConstants(c1=math.inf)),
        ("[constants]\nc3 = inf", lambda: EstimateConstants(c3=math.inf)),
        ("[solver]\nh = inf", lambda: simulate(_U0, _P, 1.0, math.inf)),
        ("[solver]\nT = inf", lambda: simulate(_U0, _P, math.inf, 0.01)),
        ("[solver]\nt_pull = inf", lambda: pullback_sample(_P, _NONE, math.inf, 0.01, grid=_G)),
        ("[solver]\ntol = inf", lambda: find_singleton(_P, _G, tol=math.inf, maxT=0.1)),
        ("[solver]\npullback_tol = inf",
         lambda: pullback_sample(
             _P, _NONE, 0.02, 0.01, grid=_G, validate=True, pullback_tol=math.inf
         )),
        ("[solver]\nblowup_guard = inf",
         lambda: drive(_G, _U0.half, _P, None, 0.01, 2, blowup_guard=math.inf)),
    ],
    ids=[
        "grid-N", "r", "beta-nan", "3d-window", "mode", "phi-without-additive",
        "h-nan", "T-nan", "cfl-nan", "cfl-above-1", "guard-negative", "tol-zero",
        "pullback-tol-negative", "n-probes-1", "t-pull-nan", "snapshot-negative",
        "L-inf", "L-lambda1-inf", "L-squared-zero", "L-squared-overflow",
        "mu-inf", "beta-inf", "r-inf", "darcy-inf", "darcy-noise",
        "ou-alpha-inf",
        "c1-inf", "c3-inf", "h-inf", "T-inf", "t-pull-inf", "tol-inf",
        "pullback-tol-inf", "guard-inf",
    ],
)
def test_config_reports_the_domain_types_violations(lines, build):
    with pytest.raises(ValidationError) as from_type:
        build()
    with pytest.raises(ValidationError) as from_config:
        parse_config(MINIMAL + "\n" + lines + "\n")
    assert set(from_type.value.violations) <= set(from_config.value.violations)


@pytest.mark.parametrize(
    "key, value",
    [
        ("grid.dealias_factor", "1.5"),
        ("grid.dealias_factor", "0.5"),
        ("grid.dealias_factor", "inf"),
        ("grid.dealias_factor", "1e300"),
        ("constants.c2", "1.4142135623730951"),
        ("constants.c2", "0"),
        ("constants.c2", "inf"),
    ],
    ids=["dealias-default", "dealias", "dealias-inf", "dealias-huge", "c2-default", "c2", "c2-inf"],
)
def test_removed_keys_are_unknown(key, value):
    # the padding ratios are fixed by the kernels and no formula reads c2, so
    # neither is a setting, whatever its value, the old default included
    section, name = key.split(".")
    with pytest.raises(ValidationError) as err:
        parse_config(MINIMAL + f"\n[{section}]\n{name} = {value}\n")
    assert [v.split(": ", 1)[1] for v in err.value.violations] == [f"unknown key {key}"]


def test_library_types_take_no_removed_argument(tmp_path):
    path = tmp_path / "u.cbff"
    write_field(path, zero_velocity(_G))
    for build in (
        lambda: TorusGrid(dim=2, N=16, dealias_factor=2.0),
        lambda: read_field(path, dealias_factor=2.0),
        lambda: EstimateConstants(c2=1.0),
    ):
        with pytest.raises(TypeError):
            build()
    assert read_field(path).grid == _G
