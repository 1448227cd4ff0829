"""Run configuration: a flat sectioned key = value format, fully validated.

The grammar (documented in the README) is deliberately small:

    [section]
    key = value        # '#' starts a comment anywhere

Field-valued entries (forcing, phi, initial) use one of

    none
    file <path>
    modes k=(i,j[,l]) a=(<complex>,...) | k=... a=...
    random [seed=<int>] [hnorm=<float>] [kmax=<float>]

Parsing reports every syntax error with its line number and every semantic
violation with its field path, not just the first.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields as dc_fields

from .errors import ValidationError
from .experiments import eps_grid_violations
from .fields import (
    SpectralVelocity, random_field, read_field, rescale_to_h, single_mode_field,
)
from .grid import TorusGrid
from .params import (
    NONE, EstimateConstants, PhysicsParams, SolverSettings, random_darcy_violations,
)
from .random_pde import NoiseConfig


# ---------------------------------------------------------------------------
# field specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoneSpec:
    def serialize(self) -> str:
        return "none"


@dataclass(frozen=True)
class FileSpec:
    path: str

    def serialize(self) -> str:
        return f"file {self.path}"


@dataclass(frozen=True)
class ModesSpec:
    entries: tuple  # of (mode tuple, amplitude tuple of complex)

    def serialize(self) -> str:
        parts = []
        for k, a in self.entries:
            ks = ",".join(str(int(m)) for m in k)
            amps = ",".join(repr(complex(c)) for c in a)
            parts.append(f"k=({ks}) a=({amps})")
        return "modes " + " | ".join(parts)


@dataclass(frozen=True)
class RandomSpec:
    seed: int = 0
    hnorm: float = 1.0
    kmax: float | None = None  # None: random_field's default band

    def serialize(self) -> str:
        kmax = "" if self.kmax is None else f" kmax={self.kmax!r}"
        return f"random seed={self.seed} hnorm={self.hnorm!r}{kmax}"


def _parse_random_spec(body: str, where: str, problems: list):
    kv = {}
    for entry in re.sub(r"\s*=\s*", "=", body).split():
        name, eq, value = entry.partition("=")
        if not eq or name not in ("seed", "hnorm", "kmax"):
            problems.append(f"{where}: unknown random entry {entry!r}")
        elif name in kv:
            problems.append(f"{where}: random {name} given twice")
        else:
            kv[name] = value
    try:
        spec = RandomSpec(**{k: (int if k == "seed" else float)(v) for k, v in kv.items()})
    except ValueError as exc:
        problems.append(f"{where}: bad random spec ({exc})")
        return NoneSpec()
    if not math.isfinite(spec.hnorm):
        problems.append(f"{where}: random hnorm must be finite, got {spec.hnorm}")
    elif spec.hnorm < 0:
        problems.append(f"{where}: random hnorm must be >= 0, got {spec.hnorm}")
    elif not spec.hnorm * spec.hnorm < math.inf:  # H norms are sums of squares
        problems.append(f"{where}: random hnorm must have a finite square, got {spec.hnorm}")
    if spec.kmax is not None:
        if not math.isfinite(spec.kmax):
            problems.append(f"{where}: random kmax must be finite, got {spec.kmax}")
        elif spec.kmax < 1:  # no lattice mode has 0 < |k| < 1
            problems.append(f"{where}: random kmax must be >= 1, got {spec.kmax}")
    return spec


def parse_field_spec(text: str, where: str, problems: list):
    kind, body = (text.split(None, 1) + ["", ""])[:2]
    if kind in ("", "none") and not body:
        return NoneSpec()
    if kind == "file":
        if not body:
            problems.append(f"{where}: file spec needs a path")
            return NoneSpec()
        return FileSpec(body)
    if kind == "random":
        return _parse_random_spec(body, where, problems)
    if kind == "modes":
        entries = []
        for chunk in body.split("|"):
            m = re.match(
                r"\s*k=\(([^)]*)\)\s+a=\((.*)\)\s*$", chunk
            )
            if not m:
                problems.append(f"{where}: cannot parse mode entry {chunk.strip()!r}")
                continue
            try:
                k = tuple(int(s) for s in m.group(1).split(","))
                amps = tuple(complex(s.strip()) for s in m.group(2).split(","))
            except ValueError as exc:
                problems.append(f"{where}: bad mode entry {chunk.strip()!r} ({exc})")
                continue
            if len(k) != len(amps):
                problems.append(
                    f"{where}: mode {k} has {len(amps)} amplitude components"
                )
                continue
            if not sum(abs(a) * abs(a) for a in amps) < math.inf:
                problems.append(f"{where}: mode {k} amplitude must have a finite squared norm")
            entries.append((k, amps))
        if not entries:
            problems.append(f"{where}: modes spec has no valid entries")
            return NoneSpec()
        return ModesSpec(tuple(entries))
    problems.append(f"{where}: unknown field spec {text!r}")
    return NoneSpec()


def build_field(spec, grid: TorusGrid, h_norm_override: float | None = None):
    """Materialize a field spec on a grid, rescaled to ``h_norm_override`` when
    given; None for the zero/none spec."""
    if isinstance(spec, NoneSpec):
        return None
    if isinstance(spec, FileSpec):
        try:
            u = read_field(spec.path)
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            raise ValidationError(f"field file {spec.path}: cannot read ({exc})") from exc
        if u.grid != grid:
            raise ValidationError(f"field file {spec.path} has an incompatible grid")
    elif isinstance(spec, RandomSpec):
        u = random_field(grid, spec.seed, h_norm=spec.hnorm, kmax=spec.kmax)
    elif isinstance(spec, ModesSpec):
        total = None
        for k, a in spec.entries:
            half = single_mode_field(grid, k, a).half
            total = half if total is None else total + half
        u = SpectralVelocity(grid, total)
    else:
        raise ValidationError(f"unhandled field spec {spec!r}")
    return u if h_norm_override is None else rescale_to_h(u, h_norm_override)


# ---------------------------------------------------------------------------
# config sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSection:
    dim: int = 2
    N: int = 32
    L: float = TorusGrid.L


@dataclass(frozen=True)
class PhysicsSection:
    mu: float = 1.0
    beta: float = 1.0
    r: float = 3.0
    darcy: float = PhysicsParams.darcy
    forcing: object = field(default_factory=NoneSpec)
    forcing_h_norm: float | None = None


@dataclass(frozen=True)
class NoiseSection:
    mode: str = NONE
    epsilon: float = NoiseConfig.epsilon
    eps_grid: tuple = ()
    ou_alpha: float = NoiseConfig.ou_alpha
    phi: object = field(default_factory=NoneSpec)
    seed: int = NoiseConfig.seed
    n_samples: int = 2


@dataclass(frozen=True)
class SolverSection(SolverSettings):
    initial: object = field(default_factory=NoneSpec)


@dataclass(frozen=True)
class ConstantsSection:
    c1: float = EstimateConstants.c1
    c3: float = EstimateConstants.c3


@dataclass(frozen=True)
class OutputSection:
    snapshot_every: int = SolverSettings.snapshot_every


@dataclass(frozen=True)
class RunConfig:
    grid: GridSection = field(default_factory=GridSection)
    physics: PhysicsSection = field(default_factory=PhysicsSection)
    noise: NoiseSection = field(default_factory=NoiseSection)
    solver: SolverSection = field(default_factory=SolverSection)
    constants: ConstantsSection = field(default_factory=ConstantsSection)
    output: OutputSection = field(default_factory=OutputSection)


#: Section name -> section class, in RunConfig's (and the serialized) order.
_SECTIONS = {f.name: f.default_factory for f in dc_fields(RunConfig)}

_FIELD_SPEC_KEYS = {"forcing", "phi", "initial"}

#: The manifests of `sweep` and `ou-diagnostics` list the n_samples noise
#: seeds they draw (about 12 MB at this bound); 10^8 of them would take
#: gigabytes.
MAX_SAMPLES = 1_000_000


def _convert(section, key, raw, line_no, problems):
    where = f"{section}.{key}"
    if key in _FIELD_SPEC_KEYS:
        return parse_field_spec(raw, where, problems)
    if key == "eps_grid":
        try:
            return tuple(float(s) for s in raw.split(",") if s.strip())
        except ValueError:
            problems.append(f"line {line_no}: {where}: bad number list {raw!r}")
            return ()
    if key == "mode":
        return raw.strip()
    cls = _SECTIONS[section]
    hint = {f.name: f.type for f in dc_fields(cls)}[key]
    try:
        if "int" in str(hint):
            return int(raw)
        return float(raw)
    except ValueError:
        problems.append(f"line {line_no}: {where}: bad number {raw!r}")
        return None


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ValidationError listing every problem."""
    problems: list[str] = []
    values: dict[str, dict] = {name: {} for name in _SECTIONS}
    section = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                problems.append(f"line {line_no}: unterminated section header")
                continue
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                problems.append(f"line {line_no}: unknown section [{name}]")
                section = None
            else:
                section = name
            continue
        if "=" not in line:
            problems.append(f"line {line_no}: expected key = value, got {line!r}")
            continue
        if section is None:
            problems.append(f"line {line_no}: key outside any known section")
            continue
        key, raw = (part.strip() for part in line.split("=", 1))
        known = {f.name for f in dc_fields(_SECTIONS[section])}
        if key not in known:
            problems.append(f"line {line_no}: unknown key {section}.{key}")
            continue
        val = _convert(section, key, raw, line_no, problems)
        if val is not None:
            values[section][key] = val

    if problems:
        raise ValidationError(problems)

    cfg = RunConfig(**{name: cls(**values[name]) for name, cls in _SECTIONS.items()})
    problems = validate_config(cfg)
    if problems:
        raise ValidationError(problems)
    return cfg


def validate_config(cfg: RunConfig) -> list:
    """Every violation in a parsed config.

    The grid, physics, noise and constants rules are those of ``TorusGrid``,
    ``PhysicsParams``, ``NoiseConfig`` and ``EstimateConstants``, checked on
    the scalars without building a lattice, and the solver and snapshot
    rules are ``SolverSettings.violations``, and the sweep's noise levels
    follow ``experiments.eps_grid_violations``; the rest are run settings
    that no domain type owns.
    """
    g, ph, nz, sv, cs = cfg.grid, cfg.physics, cfg.noise, cfg.solver, cfg.constants
    p = TorusGrid.violations(g.dim, g.N, g.L)
    p += PhysicsParams.violations(ph.mu, ph.beta, ph.r, ph.darcy, g.dim)
    p += NoiseConfig.violations(
        nz.mode, nz.epsilon, nz.ou_alpha, not isinstance(nz.phi, NoneSpec), g.dim
    )
    p += EstimateConstants.violations(cs.c1, cs.c3)
    p += eps_grid_violations(nz.eps_grid)
    for where, spec in (
        ("physics.forcing", ph.forcing),
        ("noise.phi", nz.phi),
        ("solver.initial", sv.initial),
    ):
        if isinstance(spec, ModesSpec):
            for k, _ in spec.entries:
                if len(k) != g.dim:
                    p.append(
                        f"{where}: mode {k} has {len(k)} components for a "
                        f"{g.dim}D grid"
                    )
    if ph.forcing_h_norm is not None and isinstance(ph.forcing, NoneSpec):
        p.append("physics.forcing_h_norm: set, but forcing = none has no norm to rescale")
    elif ph.forcing_h_norm is not None and not (0.0 <= ph.forcing_h_norm < math.inf):
        p.append(f"physics.forcing_h_norm: must be finite and >= 0, got {ph.forcing_h_norm}")
    elif ph.forcing_h_norm is not None and not ph.forcing_h_norm * ph.forcing_h_norm < math.inf:
        p.append(f"physics.forcing_h_norm: must have a finite square, got {ph.forcing_h_norm}")
    p += random_darcy_violations(nz.mode, ph.darcy)
    if not (1 <= nz.n_samples <= MAX_SAMPLES):
        p.append(f"noise.n_samples: must lie in [1, {MAX_SAMPLES}], got {nz.n_samples}")
    p += SolverSettings.violations(
        **{f.name: getattr(sv, f.name) for f in dc_fields(SolverSettings)},
        snapshot_every=cfg.output.snapshot_every,
    )
    return p


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(parse(text))) == parse(text)."""
    out = []
    for name in _SECTIONS:
        section = getattr(cfg, name)
        out.append(f"[{name}]")
        for f in dc_fields(section):
            val = getattr(section, f.name)
            if f.name in _FIELD_SPEC_KEYS:
                out.append(f"{f.name} = {val.serialize()}")
            elif f.name == "eps_grid":
                if val:
                    out.append(f"{f.name} = {','.join(repr(float(e)) for e in val)}")
            elif val is None:
                continue
            elif isinstance(val, float):
                out.append(f"{f.name} = {val!r}")
            else:
                out.append(f"{f.name} = {val}")
        out.append("")
    return "\n".join(out)
