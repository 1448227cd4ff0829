"""Command-line entry point and run orchestration.

Exit codes: 0 success, 2 validation failure, 3 non-convergence,
4 numerical blow-up, 1 unexpected error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, astuple, fields as dc_fields

import numpy as np

from .conditions import check_singleton_condition
from .config import RunConfig, build_field, parse_config, serialize_config
from .deterministic import energy_residual, find_singleton, simulate
from .errors import BlowUpError, CBFError, NonConvergenceError, ValidationError, value_range
from .experiments import SweepRecord, rate_sweep
from .fields import write_field, zero_velocity
from .grid import TorusGrid
from .ou import ou_from_wiener, ou_path, sample_wiener, stationary_moment
from .params import EstimateConstants, PhysicsParams
from .random_pde import NoiseConfig, pullback_sample
from .runio import svg_rate_plot, write_csv, write_json, write_manifest, write_text

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_BLOWUP = 4
#: Exit codes of the errors that do not mean a validation failure.
_EXIT_CODES = {NonConvergenceError: EXIT_NONCONVERGENCE, BlowUpError: EXIT_BLOWUP}

logger = logging.getLogger(__name__)


def _setup_logging():
    level = os.environ.get("CBF_LOG", "warn").lower()
    table = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    logging.basicConfig(level=table.get(level, logging.WARNING))


def _load_config_text(path: str) -> str:
    """A config file's text, or the ``config_text`` of a run manifest."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read ({exc})") from exc
    if text.lstrip().startswith("{"):
        try:
            manifest = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not a valid JSON manifest ({exc})") from exc
        if not isinstance(manifest.get("config_text"), str):
            raise ValidationError(f"{path}: JSON file is not a run manifest")
        return manifest["config_text"]
    return text


def _materialize(cfg: RunConfig, *specs):
    """The grid, the physics and the field (or None) of each spec path in ``specs``."""
    grid = TorusGrid(**asdict(cfg.grid))

    def build(where, h_norm=None):
        section, key = where.split(".")
        with value_range(where):
            return build_field(getattr(getattr(cfg, section), key), grid, h_norm)

    params = PhysicsParams(
        mu=cfg.physics.mu, beta=cfg.physics.beta, r=cfg.physics.r,
        darcy=cfg.physics.darcy, forcing=build("physics.forcing", cfg.physics.forcing_h_norm),
    )
    return (grid, params, *map(build, specs))


def _constants(cfg: RunConfig) -> EstimateConstants:
    return EstimateConstants(**asdict(cfg.constants))


# ---------------------------------------------------------------------------
# subcommand implementations (each returns its artifact paths, its exit code
# and the noise seeds it drew)
# ---------------------------------------------------------------------------

def _cmd_check_conditions(cfg, out_dir, args):
    grid, params = _materialize(cfg)
    report = check_singleton_condition(params, grid, _constants(cfg))
    print(report.summary())
    path = os.path.join(out_dir, "conditions.json")
    write_json(path, asdict(report))
    return [path], EXIT_OK, []


def _cmd_simulate(cfg, out_dir, args):
    grid, params, u0 = _materialize(cfg, "solver.initial")
    u0 = zero_velocity(grid) if u0 is None else u0
    snap = cfg.output.snapshot_every
    traj = simulate(
        u0, params, cfg.solver.T, cfg.solver.h,
        sample_every=snap or 0, record_lr=True,
        cfl_safety=cfg.solver.cfl_safety, blowup_guard=cfg.solver.blowup_guard,
    )
    residual = energy_residual(traj, params)
    path = os.path.join(out_dir, "trajectory.csv")
    write_csv(
        path,
        ("t", "h_norm", "v_norm", "lr_norm", "energy_residual"),
        traj.rows(residual),
    )
    artifacts = [path]
    if snap:
        for ts, state in zip(traj.sample_times, traj.states):
            fp = os.path.join(out_dir, f"field_t{ts:.6f}.cbff")
            write_field(fp, state)
            artifacts.append(fp)
    return artifacts, EXIT_OK, []


def _cmd_singleton(cfg, out_dir, args):
    grid, params = _materialize(cfg)
    result = find_singleton(
        params, grid, tol=cfg.solver.tol, maxT=cfg.solver.T,
        n_probes=cfg.solver.n_probes, h=cfg.solver.h, constants=_constants(cfg),
        cfl_safety=cfg.solver.cfl_safety, blowup_guard=cfg.solver.blowup_guard,
    )
    log_path = os.path.join(out_dir, "contraction_log.csv")
    write_csv(log_path, ("t", "max_pairwise_dist", "drift"), result.contraction_log)
    artifacts = [log_path]
    field_path = os.path.join(out_dir, "a_star.cbff")
    write_field(field_path, result.a_star)
    artifacts.append(field_path)
    summary_path = os.path.join(out_dir, "singleton.json")
    write_json(summary_path, {
        "converged": result.converged,
        "t_final": result.t_final,
        "probe_seeds": result.probe_seeds,
        "varrho": result.condition.varrho,
    })
    artifacts.append(summary_path)
    if not result.converged:
        print("singleton search did not converge; see contraction_log.csv")
        return artifacts, EXIT_NONCONVERGENCE, []
    return artifacts, EXIT_OK, []


def _cmd_pullback(cfg, out_dir, args):
    grid, params, phi, v0 = _materialize(cfg, "noise.phi", "solver.initial")
    noise = NoiseConfig(
        mode=cfg.noise.mode, epsilon=cfg.noise.epsilon,
        phi=phi, ou_alpha=cfg.noise.ou_alpha,
        seed=cfg.noise.seed + args.seed_offset,
    )
    sample = pullback_sample(
        params, noise, cfg.solver.t_pull, cfg.solver.h,
        grid=grid, v0=v0,
        validate=True, pullback_tol=cfg.solver.pullback_tol,
        cfl_safety=cfg.solver.cfl_safety, blowup_guard=cfg.solver.blowup_guard,
    )
    field_path = os.path.join(out_dir, "pullback_sample.cbff")
    write_field(field_path, sample.state)
    from .operators import h_norm, v_norm

    meta_path = os.path.join(out_dir, "pullback_sample.json")
    write_json(meta_path, {
        "epsilon": noise.epsilon,
        "seed": noise.seed,
        "t_pull": sample.t_pull,
        "mode": noise.mode,
        "h": cfg.solver.h,
        "norms": {"h": h_norm(sample.state), "v": v_norm(sample.state)},
        "converged": sample.converged,
        "doubling_gap": sample.doubling_gap,
    })
    artifacts = [field_path, meta_path]
    if not sample.converged:
        print(f"pullback horizon not stabilized (gap {sample.doubling_gap!r})")
        return artifacts, EXIT_NONCONVERGENCE, [noise.seed]
    return artifacts, EXIT_OK, [noise.seed]


def _cmd_sweep(cfg, out_dir, args):
    grid, params, phi = _materialize(cfg, "noise.phi")
    noise = NoiseConfig(
        mode=cfg.noise.mode, phi=phi, ou_alpha=cfg.noise.ou_alpha,
        seed=cfg.noise.seed + args.seed_offset,
    )
    result = rate_sweep(
        params, grid, noise, cfg.noise.eps_grid, cfg.noise.n_samples, cfg.solver,
        constants=_constants(cfg),
    )
    rec_path = os.path.join(out_dir, "records.csv")
    write_csv(
        rec_path, [f.name for f in dc_fields(SweepRecord)], map(astuple, result.records)
    )
    fit_path = os.path.join(out_dir, "fit.json")
    write_json(fit_path, asdict(result.fit))
    summary = result.fit.summary()
    print(summary, end="")
    summary_path = os.path.join(out_dir, "summary.txt")
    write_text(summary_path, summary)
    svg_path = os.path.join(out_dir, "fit.svg")
    write_text(svg_path, svg_rate_plot(result.fit, result.records))
    return [rec_path, fit_path, summary_path, svg_path], EXIT_OK, result.seeds


def _cmd_ou_diagnostics(cfg, out_dir, args):
    alpha = cfg.noise.ou_alpha
    seeds = range(cfg.noise.seed, cfg.noise.seed + max(cfg.noise.n_samples, 1000))
    with value_range("noise.ou_alpha"):
        draws = np.array(
            [ou_path(s, alpha, t_min=-0.5, t_max=2.0, h_w=0.1).value(2.0) for s in seeds]
        )
        abs_z = np.abs(draws)
        wiener = sample_wiener(cfg.noise.seed, t_min=-1000.0, t_max=0.0, h_w=0.05)
        long_path = ou_from_wiener(wiener, alpha)
        zvals = long_path.values
        t_span = 1000.0
        avg = float(np.trapezoid(zvals, dx=0.05) / t_span)
        payload = {
            "alpha": alpha,
            "n_samples": len(seeds),
            "mean_abs_z": float(np.mean(abs_z)),
            "mean_abs_z_theory": stationary_moment(alpha, 1.0),
            "mean_z_sq": float(np.mean(abs_z**2)),
            "mean_z_sq_theory": stationary_moment(alpha, 2.0),
            "pullback_time_average": avg,
            "pullback_time_average_bound": 5.0 / np.sqrt(2.0 * alpha * t_span),
            "sublinear_max": float(
                np.max(np.exp(-0.1 * np.abs(long_path.times())) * np.abs(zvals))
            ),
        }
    dump_path = os.path.join(out_dir, "path.csv")
    write_csv(
        dump_path,
        ("t", "W", "z"),
        zip(long_path.times(), wiener.values, zvals),
    )
    path = os.path.join(out_dir, "ou_stats.json")
    write_json(path, payload)
    print(
        f"E|z| = {payload['mean_abs_z']!r} (theory {payload['mean_abs_z_theory']!r}), "
        f"E z^2 = {payload['mean_z_sq']!r} (theory {payload['mean_z_sq_theory']!r})"
    )
    return [path, dump_path], EXIT_OK, list(seeds)


#: The options a run takes besides --config and --out, with their defaults.
_OPTIONS = {"--seed-offset": 0}


def _keys(section: str, names: str) -> tuple:
    return tuple(f"{section}.{name}" for name in names.split())


#: Each subcommand, in the order ``--help`` lists them, with the inputs it
#: reads: whole config sections by name, single keys as ``section.key`` and
#: options as ``--option``.  An input counts as read when its value reaches
#: what the run computes; the manifest's copy of the config does not count.
#: Every other input must stay at its default (see ``_unread_inputs``).
_COMMANDS = {
    "check-conditions": (_cmd_check_conditions, ("grid", "physics", "constants")),
    "simulate": (_cmd_simulate, (
        "grid", "physics", *_keys("solver", "h T cfl_safety blowup_guard initial"), "output",
    )),
    "singleton": (_cmd_singleton, (
        "grid", "physics", "constants",
        *_keys("solver", "h T tol n_probes cfl_safety blowup_guard"),
    )),
    "pullback": (_cmd_pullback, (
        "grid", "physics", *_keys("noise", "mode epsilon phi ou_alpha seed"),
        *_keys("solver", "h t_pull pullback_tol cfl_safety blowup_guard initial"),
        "--seed-offset",
    )),
    "sweep": (_cmd_sweep, (
        "grid", "physics", "constants",
        *_keys("noise", "mode eps_grid phi ou_alpha seed n_samples"),
        *_keys("solver", "h T t_pull tol pullback_tol n_probes cfl_safety blowup_guard"),
        "--seed-offset",
    )),
    "ou-diagnostics": (_cmd_ou_diagnostics, _keys("noise", "ou_alpha seed n_samples")),
}


def _inputs(cfg: RunConfig, options: dict) -> dict:
    """Every key of ``cfg`` as ``section.key``, then ``options``."""
    keys = {
        f"{section.name}.{key.name}": getattr(values, key.name)
        for section in dc_fields(cfg)
        for values in [getattr(cfg, section.name)]
        for key in dc_fields(values)
    }
    return {**keys, **options}


def _reads(subcommand: str) -> set:
    """The config keys and options ``subcommand`` reads, its whole sections spelled out."""
    entry = _COMMANDS[subcommand][1]
    return {
        name for name in _inputs(RunConfig(), _OPTIONS)
        if name in entry or name.split(".")[0] in entry
    }


def _unread_inputs(subcommand: str, cfg: RunConfig, args) -> list:
    """A violation for every input off its default that ``subcommand`` does not read."""
    options = {opt: getattr(args, opt[2:].replace("-", "_")) for opt in _OPTIONS}
    default, reads = _inputs(RunConfig(), _OPTIONS), _reads(subcommand)
    return [
        f"{name}: set, but {subcommand} does not use it; leave it at its default"
        for name, value in _inputs(cfg, options).items()
        if name not in reads and value != default[name]
    ]


def run(subcommand: str, config_path: str, out_dir: str, args) -> int:
    """Dispatch a subcommand; returns the process exit code."""
    command = _COMMANDS[subcommand][0]
    cfg = parse_config(_load_config_text(config_path))
    unread = _unread_inputs(subcommand, cfg, args)
    if unread:
        raise ValidationError(unread)
    os.makedirs(out_dir, exist_ok=True)
    artifacts, code, seeds = command(cfg, out_dir, args)
    write_manifest(
        out_dir, subcommand, serialize_config(cfg), _constants(cfg), seeds, artifacts
    )
    return code


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="cbflab",
        description="Spectral simulation laboratory for damped incompressible "
        "flow on the torus: attractor conditions, pathwise random dynamics, "
        "and convergence-rate sweeps.",
    )
    parser.add_argument("subcommand", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="config file, or a manifest.json")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed-offset", type=int, default=_OPTIONS["--seed-offset"])
    args = parser.parse_args(argv)

    try:
        return run(args.subcommand, args.config, args.out, args)
    except CBFError as exc:
        for line in getattr(exc, "violations", [exc]):
            print(f"error: {line}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_VALIDATION)
    except ArithmeticError as exc:
        # a safety net for arithmetic outside every errors.value_range scope
        print(
            f"error: floating-point range exceeded ({exc}); a config value is "
            "too large or too small to compute with",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    except MemoryError as exc:
        # numpy cannot allocate the step records of a horizon like T = 1e15
        print(f"error: out of memory ({exc}); the run is too large", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
