"""Malformed input never escapes as anything but a CBFError or a documented exit code."""

import contextlib
import io
import math
import os
import struct
import tempfile
from dataclasses import fields as dc_fields

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cbflab import CBFError, ValidationError, read_field
from cbflab.cli import main
from cbflab.config import _FIELD_SPEC_KEYS, _SECTIONS, parse_config
from cbflab.params import step_count

VALID = """
[grid]
dim = 2
N = 16

[physics]
mu = 1.0
beta = 1.0
r = 3.0
forcing = modes k=(1,0) a=(0j,(1+0j))
forcing_h_norm = 0.2

[noise]
mode = multiplicative
epsilon = 0.1
eps_grid = 0.1,0.05,0.025
ou_alpha = 2.5
seed = 1
n_samples = 2

[solver]
h = 0.02
T = 1.0
initial = random seed=1 hnorm=0.5 kmax=4

[constants]
c1 = 1.4142135623730951
"""

#: VALID with only the sections check-conditions reads, so that a mutated
#: config reaches the run unless the mutation itself is rejected.
CONDITIONS = VALID[: VALID.index("[noise]")] + VALID[VALID.index("[constants]"):]

KEYS = [(section, f.name) for section, cls in _SECTIONS.items() for f in dc_fields(cls)]
SCALAR_KEYS = [(section, key) for section, key in KEYS if key not in _FIELD_SPEC_KEYS | {"mode"}]

TOKENS = [
    "0", "-1", "1", "2", "3", "3.0", "5", "8", "16", "17", "64", "0.5", "1e-9",
    "1e-300", "1e-160", "1e-150", "1e-100", "1e100", "1e150", "1e300", "-1e300",
    "nan", "inf", "-inf", "", "abc", "0x10", "1,2",
    "none", "additive", "multiplicative", "0.1,0.05,0.025", "0.1,nan",
    "file /nonexistent/field.cbff", "file", "random seed=1 hnorm=1.0 kmax=3",
    "random seed=-5 hnorm=0 kmax=0.5", "random seed=x", "random hnorm=nan",
    "random seed=1 hnrom=0.1", "random sead=3", "random seed=1 kmax=4 kmax=2",
    "random seed=1 hnorm=1.0 stray", "random kmax=0", "random kmax=-5",
    "random seed=1 hnorm=-1", "random seed=1 kmax=0.5", "random seed=1 hnorm=1e300",
    "randomize seed=1", "filefoo",
    "modes k=(1,0) a=(0j,(1+0j))", "modes k=(1,0,0) a=(0j,1j,0j)",
    "modes k=(0,1,0) a=(1,0,0) | k=(1,1,0) a=(1,-1,1j)", "modes k=(9,0) a=(1,1)",
    "modes k=(0,0) a=(1,1)", "modes k=(1,0) a=(1,0)", "modes k=(1,0) a=(nan,nanj)",
    "modes k=(1,0) a=(0j,1e300j)", "modes k=(1 a=(1)", "modes",
]

values = st.one_of(
    st.sampled_from(TOKENS),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=12),
)

mutations = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(KEYS), values),
    st.tuples(st.just("drop"), st.integers(0, 40)),
    st.tuples(st.just("insert"), st.integers(0, 40), st.text(max_size=30)),
)


def _mutate(steps, base=VALID) -> str:
    lines = base.splitlines()
    for step in steps:
        if step[0] == "set":
            (section, key), value = step[1], step[2]
            lines += [f"[{section}]", f"{key} = {value}"]
        elif step[0] == "drop":
            del lines[step[1] % len(lines)]
        else:
            lines.insert(step[1] % (len(lines) + 1), step[2])
    return "\n".join(lines) + "\n"


mutated_configs = st.lists(mutations, min_size=1, max_size=4).map(_mutate)
mutated_conditions = st.lists(mutations, min_size=1, max_size=4).map(
    lambda steps: _mutate(steps, CONDITIONS)
)


def _parses_or_cbf_error(text):
    try:
        return parse_config(text)
    except CBFError:
        return None


@settings(max_examples=500, deadline=None)
@given(st.text(max_size=400))
def test_parse_config_arbitrary_text(text):
    _parses_or_cbf_error(text)


@settings(max_examples=500, deadline=None)
@given(mutated_configs)
def test_parse_config_mutated_configs(text):
    _parses_or_cbf_error(text)


def _snapshot(dim, n, length, magic=b"CBFF", version=1) -> bytes:
    head = magic + struct.pack("<I", version) + struct.pack("<3d", dim, n, 2.0 * math.pi)
    return head + bytes(length)


snapshots = st.one_of(
    st.binary(max_size=200),
    st.builds(
        _snapshot,
        st.sampled_from([2.0, 3.0, 2.5, 1.0, -2.0, 1e300, math.nan, math.inf]),
        st.sampled_from([8.0, 16.0, 7.0, 8.5, 0.0, -8.0, 1e300, math.nan]),
        st.sampled_from([0, 16, 2048, 2048 - 16, 2048 + 16, 2 * 8**2 * 16 + 1]),
        st.sampled_from([b"CBFF", b"CBFX"]),
        st.sampled_from([1, 2]),
    ),
    st.builds(lambda head, tail: _snapshot(2.0, 8.0, 0)[:head] + tail,
              st.integers(0, 32), st.binary(max_size=40)),
)


@settings(max_examples=500, deadline=None)
@given(snapshots)
def test_read_field_arbitrary_bytes(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.cbff")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            read_field(path)
        except CBFError:
            pass


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(mutated_conditions)
def test_check_conditions_exit_codes(text):
    cfg = _parses_or_cbf_error(text)
    # a valid large grid legitimately allocates N^dim arrays
    assume(cfg is None or cfg.grid.N <= 64)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check-conditions", "--config", path, "--out", os.path.join(tmp, "o")])
    assert code in (0, 2, 3, 4), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SCALAR_KEYS), st.sampled_from(["inf", "-inf", "nan"]))
def test_non_finite_scalar_exits_2(key, value):
    text = _mutate([("set", key, value)], CONDITIONS)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["check-conditions", "--config", path, "--out", os.path.join(tmp, "o")])
    assert code == 2, f"{key} = {value}: {err.getvalue()}"
    assert err.getvalue().startswith("error: ")
    assert "does not use it" not in err.getvalue()  # the value, not the key, is rejected


@pytest.mark.parametrize("where", ["physics.forcing", "noise.phi", "solver.initial"])
@pytest.mark.parametrize("name", ["hnorm", "kmax"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_random_spec_exits_2(tmp_path, capsys, where, name, value):
    # kmax = nan used to mean the default band, and inf ran
    spec = {"hnorm": "1.0", "kmax": "4", name: value}
    section, key = where.split(".")
    path = tmp_path / "c.cfg"
    path.write_text(
        f"{CONDITIONS}\n[{section}]\n{key} = random seed=1 "
        f"hnorm={spec['hnorm']} kmax={spec['kmax']}\n"
    )
    code = main(["check-conditions", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {where}: random {name} must be finite, got {value}\n"


@settings(max_examples=500, deadline=None)
@given(st.floats(), st.floats())
def test_step_count_raises_only_validation_errors(t, h):
    try:
        n = step_count(t, h, "span")
    except ValidationError:
        return
    assert 0 < h < math.inf and math.isfinite(t)  # negative spans stay legal
    assert isinstance(n, int) and abs(n * h - t) <= 1e-9 * max(1.0, abs(t))


def test_step_count_keeps_negative_spans():
    # sample_wiener counts its t_min steps with a negative span
    assert step_count(-0.5, 0.1, "t_min") == -5


#: 2D N = 8 with every input the range test scales; {forcing} is a field spec.
RANGE = """
[grid]
dim = 2
N = 8
L = {L}

[physics]
mu = {mu}
forcing = {forcing}
{forcing_h_norm}
"""

powers = st.integers(-308, 308).map(lambda k: f"1e{k}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    L=st.just("6.283185307179586") | powers,
    mu=st.just("1.0") | powers,
    forcing=st.one_of(
        powers.map(lambda a: f"random seed=1 hnorm={a}"),
        powers.map(lambda a: f"modes k=(1,0) a=(0j,{a}j)"),
    ),
    forcing_h_norm=st.none() | powers,
)
def test_powers_of_ten_exit_cleanly(L, mu, forcing, forcing_h_norm):
    """Each input at 10^k, k in [-308, 308]: an exit code of 0, 2 or 4, only
    `error:` lines on stderr, and no numpy warning on the way."""
    text = RANGE.format(
        L=L, mu=mu, forcing=forcing,
        forcing_h_norm="" if forcing_h_norm is None else f"forcing_h_norm = {forcing_h_norm}",
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.cfg")
        one_step = "[solver]\nh = 0.01\nT = 0.01\n"
        for sub, extra in (("check-conditions", ""), ("simulate", one_step)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + extra)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([sub, "--config", path, "--out", os.path.join(tmp, sub)])
            assert code in (0, 2, 4), (sub, err.getvalue())
            assert all(line.startswith("error: ") for line in err.getvalue().splitlines())


#: A two-step 2D N = 8 pullback with every noise input the range test scales;
#: {phi} is the profile line of additive noise.
PULLBACK_RANGE = """
[grid]
dim = 2
N = 8

[physics]
mu = {mu}
forcing = modes k=(1,0) a=(0j,(1+0j))

[noise]
mode = {mode}
epsilon = 0.1
ou_alpha = {ou_alpha}
{phi}

[solver]
h = 0.01
t_pull = 0.02
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(
    mode=st.sampled_from(["additive", "multiplicative"]),
    mu=st.just("1.0") | powers,
    ou_alpha=st.just("1.0") | powers,
    hnorm=st.just("1.0") | powers,
)
@example(mode="additive", mu="1e300", ou_alpha="1.0", hnorm="1e10")  # mu A Phi overflows
@example(mode="multiplicative", mu="1.0", ou_alpha="1e-300", hnorm="1.0")  # e^{eps |z|} does
def test_noise_powers_of_ten_exit_cleanly(mode, mu, ou_alpha, hnorm):
    """physics.mu, noise.ou_alpha and the profile's hnorm at 10^k: an exit code
    of 0, 2, 3 or 4, only `error:` lines that name what was out of range on
    stderr, and no numpy warning on the way."""
    phi = f"phi = random seed=1 hnorm={hnorm}" if mode == "additive" else ""
    text = PULLBACK_RANGE.format(mode=mode, mu=mu, ou_alpha=ou_alpha, phi=phi)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["pullback", "--config", path, "--out", os.path.join(tmp, "o")])
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3, 4), lines
    assert all(line.startswith("error: ") for line in lines)
    assert not any(line.startswith("error: floating-point range exceeded") for line in lines)


#: A one-step 2D N = 8 singleton search with every input the range test scales.
SINGLETON_RANGE = """
[grid]
dim = 2
N = 8
L = {L}

[physics]
mu = {mu}
beta = {beta}
r = {r}
forcing = modes k=(1,0) a=(0j,{a}j)

[solver]
h = {h}
T = {h}
tol = {tol}
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(
    L=st.just("6.283185307179586") | powers,
    mu=st.just("1.0") | powers,
    beta=st.just("1.0") | powers,
    a=st.just("0.01") | powers,
    h=st.just("0.01") | powers,
    tol=st.just("1e-6") | powers,
    r=st.sampled_from(["1.0", "2.5", "3.0"]),
)
def test_singleton_powers_of_ten_exit_cleanly(L, mu, beta, a, h, tol, r):
    """grid.L, physics.mu, physics.beta, the forcing amplitude, solver.h (with
    T = h) and solver.tol at 10^k: an exit code of 0, 2, 3 or 4, only `error:`
    lines that name what was out of range on stderr, and no numpy warning on
    the way."""
    text = SINGLETON_RANGE.format(L=L, mu=mu, beta=beta, r=r, a=a, h=h, tol=tol)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["singleton", "--config", path, "--out", os.path.join(tmp, "o")])
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3, 4), lines
    assert all(line.startswith("error: ") for line in lines)
    assert not any(line.startswith("error: floating-point range exceeded") for line in lines)


#: A 2D N = 8 sweep of three levels and two samples, with every input the
#: range test scales; {phi} is the profile line of additive noise.  The
#: singleton search and each pullback take three steps, and the loose tol
#: ends the search at its one check, so the pullbacks and the fit run too.
SWEEP_RANGE = """
[grid]
dim = 2
N = 8

[physics]
mu = {mu}
r = {r}
forcing = modes k=(1,0) a=(0j,(1+0j))
forcing_h_norm = 0.01

[noise]
mode = {mode}
eps_grid = 0.1,0.05,0.025
ou_alpha = {ou_alpha}
{phi}
n_samples = 2

[solver]
h = 0.01
T = 0.03
t_pull = 0.03
tol = 1e3
pullback_tol = {pullback_tol}
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(
    mode=st.sampled_from(["additive", "multiplicative"]),
    mu=st.just("1.0") | powers,
    r=st.floats(1.0, 2.0).map(repr),
    ou_alpha=st.just("1.0") | powers,
    hnorm=st.just("1.0") | powers,
    pullback_tol=st.just("0.05") | powers,
)
def test_sweep_powers_of_ten_exit_cleanly(mode, mu, r, ou_alpha, hnorm, pullback_tol):
    """physics.mu, noise.ou_alpha, the profile's hnorm and solver.pullback_tol
    at 10^k, with r in [1, 2]: an exit code of 0, 2, 3 or 4, only `error:`
    lines that name what was out of range on stderr, and no numpy warning on
    the way."""
    phi = f"phi = random seed=1 hnorm={hnorm}" if mode == "additive" else ""
    text = SWEEP_RANGE.format(
        mode=mode, mu=mu, r=r, ou_alpha=ou_alpha, phi=phi, pullback_tol=pullback_tol
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["sweep", "--config", path, "--out", os.path.join(tmp, "o")])
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3, 4), lines
    assert all(line.startswith("error: ") for line in lines)
    assert not any(line.startswith("error: floating-point range exceeded") for line in lines)
