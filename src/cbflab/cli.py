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

import numpy as np

from .conditions import check_singleton_condition
from .config import RunConfig, build_field, parse_config, serialize_config
from .deterministic import energy_residual, find_singleton, simulate
from .errors import BlowUpError, CBFError, NonConvergenceError, ValidationError
from .experiments import mean_inversions, rate_sweep
from .fields import write_field, zero_velocity
from .grid import TorusGrid
from .ou import ou_from_wiener, ou_path, sample_wiener, stationary_moment
from .params import EstimateConstants, PhysicsParams
from .random_pde import NoiseConfig, pullback_sample
from .runio import fmt, svg_rate_plot, write_csv, write_json, write_manifest

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
    if text.lstrip().startswith("{"):
        try:
            manifest = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not a valid JSON manifest ({exc})") from exc
        if not isinstance(manifest.get("config_text"), str):
            raise ValidationError(f"{path}: JSON file is not a run manifest")
        return manifest["config_text"]
    return text


def _materialize(cfg: RunConfig):
    grid = TorusGrid(
        dim=cfg.grid.dim, N=cfg.grid.N, L=cfg.grid.L,
        dealias_factor=cfg.grid.dealias_factor,
    )
    forcing = build_field(cfg.physics.forcing, grid, cfg.physics.forcing_h_norm)
    params = PhysicsParams(
        mu=cfg.physics.mu, beta=cfg.physics.beta, r=cfg.physics.r,
        darcy=cfg.physics.darcy, forcing=forcing,
    )
    constants = EstimateConstants(
        c1=cfg.constants.c1, c2=cfg.constants.c2, c3=cfg.constants.c3
    )
    return grid, params, constants


def _initial_state(cfg, grid):
    u0 = build_field(cfg.solver.initial, grid)
    return zero_velocity(grid) if u0 is None else u0


# ---------------------------------------------------------------------------
# subcommand implementations (each returns a list of artifact paths)
# ---------------------------------------------------------------------------

def _cmd_check_conditions(cfg, out_dir, args):
    grid, params, constants = _materialize(cfg)
    report = check_singleton_condition(params, grid, constants)
    print(report.summary())
    path = os.path.join(out_dir, "conditions.json")
    write_json(path, {
        "regime": report.regime,
        "holds": report.holds,
        "varrho": report.varrho,
        "grashof": report.grashof,
        "threshold": report.threshold,
        "eta3": report.eta3,
        "constants": {
            "c1": constants.c1, "c2": constants.c2, "c3": constants.c3,
            "label": constants.label,
        },
    })
    return [path], EXIT_OK


def _cmd_simulate(cfg, out_dir, args):
    grid, params, _ = _materialize(cfg)
    u0 = _initial_state(cfg, grid)
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
    return artifacts, EXIT_OK


def _cmd_singleton(cfg, out_dir, args):
    grid, params, constants = _materialize(cfg)
    result = find_singleton(
        params, grid, tol=cfg.solver.tol, maxT=cfg.solver.T,
        n_probes=cfg.solver.n_probes, h=cfg.solver.h, constants=constants,
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
        return artifacts, EXIT_NONCONVERGENCE
    return artifacts, EXIT_OK


def _cmd_pullback(cfg, out_dir, args):
    grid, params, _ = _materialize(cfg)
    noise = NoiseConfig(
        mode=cfg.noise.mode, epsilon=cfg.noise.epsilon,
        phi=build_field(cfg.noise.phi, grid), ou_alpha=cfg.noise.ou_alpha,
        seed=cfg.noise.seed + args.seed_offset,
    )
    sample = pullback_sample(
        params, noise, cfg.solver.t_pull, cfg.solver.h,
        grid=grid, v0=build_field(cfg.solver.initial, grid),
        validate=True, pullback_tol=cfg.solver.pullback_tol,
        cfl_safety=cfg.solver.cfl_safety, blowup_guard=cfg.solver.blowup_guard,
    )
    field_path = os.path.join(out_dir, "pullback_sample.cbff")
    write_field(field_path, sample.state)
    from .operators import h_norm, v_norm

    meta_path = os.path.join(out_dir, "pullback_sample.json")
    write_json(meta_path, {
        "epsilon": sample.epsilon,
        "seed": sample.seed,
        "t_pull": sample.t_pull,
        "mode": sample.mode,
        "h": cfg.solver.h,
        "norms": {"h": h_norm(sample.state), "v": v_norm(sample.state)},
        "converged": sample.converged,
        "doubling_gap": sample.doubling_gap,
    })
    artifacts = [field_path, meta_path]
    if not sample.converged:
        print(f"pullback horizon not stabilized (gap {sample.doubling_gap!r})")
        return artifacts, EXIT_NONCONVERGENCE
    return artifacts, EXIT_OK


def _cmd_sweep(cfg, out_dir, args):
    grid, params, constants = _materialize(cfg)
    eps_grid = cfg.noise.eps_grid
    if not eps_grid:
        raise ValidationError("noise.eps_grid: sweep requires an epsilon grid")
    phi = build_field(cfg.noise.phi, grid)
    result = rate_sweep(
        params, grid, cfg.noise.mode, eps_grid, cfg.noise.n_samples,
        cfg.solver.t_pull, cfg.solver.h,
        phi=phi, ou_alpha=cfg.noise.ou_alpha,
        base_seed=cfg.noise.seed + args.seed_offset,
        pullback_tol=cfg.solver.pullback_tol, singleton_tol=cfg.solver.tol,
        singleton_maxT=cfg.solver.T, n_probes=cfg.solver.n_probes,
        constants=constants,
        cfl_safety=cfg.solver.cfl_safety, blowup_guard=cfg.solver.blowup_guard,
    )
    rec_path = os.path.join(out_dir, "records.csv")
    write_csv(
        rec_path,
        ("epsilon", "seed", "mode", "r", "dist_h", "t_pull", "converged"),
        (
            (r.epsilon, r.seed, r.mode, r.r, r.dist_h, r.t_pull, r.converged)
            for r in result.records
        ),
    )
    fit_payload = {
        "slope": result.fit.slope,
        "intercept": result.fit.intercept,
        "delta_theory": result.fit.delta_theory,
        "eps_grid": result.fit.eps_grid,
        "n_samples": result.fit.n_samples,
        "residuals": result.fit.residuals,
        "log_means": result.fit.log_means,
        "log_spreads": result.fit.log_spreads,
        "mean_inversions": mean_inversions(result.fit),
    }
    fit_path = os.path.join(out_dir, "fit.json")
    write_json(fit_path, fit_payload)
    artifacts = [rec_path, fit_path]
    if args.format == "svg":
        svg_path = os.path.join(out_dir, "fit.svg")
        recs = [{"epsilon": r.epsilon, "dist_h": r.dist_h} for r in result.records]
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(svg_rate_plot(fit_payload, recs))
        artifacts.append(svg_path)
    print(
        f"fitted slope {result.fit.slope!r} "
        f"(theory {result.fit.delta_theory!r}) over {len(result.records)} records"
    )
    return artifacts, EXIT_OK


def _cmd_ou_diagnostics(cfg, out_dir, args):
    alpha = cfg.noise.ou_alpha
    n = max(cfg.noise.n_samples, 1000)
    draws = np.empty(n)
    for i in range(n):
        path = ou_path(cfg.noise.seed + i, alpha, t_min=-0.5, t_max=2.0, h_w=0.1)
        draws[i] = path.value(2.0)
    abs_z = np.abs(draws)
    wiener = sample_wiener(cfg.noise.seed, t_min=-1000.0, t_max=0.0, h_w=0.05)
    long_path = ou_from_wiener(wiener, alpha)
    zvals = long_path.values
    dump_path = os.path.join(out_dir, "path.csv")
    write_csv(
        dump_path,
        ("t", "W", "z"),
        zip(long_path.times(), wiener.values, zvals),
    )
    t_span = 1000.0
    avg = float(np.trapezoid(zvals, dx=0.05) / t_span)
    payload = {
        "alpha": alpha,
        "n_samples": n,
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
    path = os.path.join(out_dir, "ou_stats.json")
    write_json(path, payload)
    print(
        f"E|z| = {payload['mean_abs_z']!r} (theory {payload['mean_abs_z_theory']!r}), "
        f"E z^2 = {payload['mean_z_sq']!r} (theory {payload['mean_z_sq_theory']!r})"
    )
    return [path, dump_path], EXIT_OK


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_fit(path) -> dict:
    """A sweep's fit.json, with every value that ``report`` prints or plots checked."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            fit = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValidationError(f"{path}: not a fit JSON file ({exc})") from exc
    if not isinstance(fit, dict):
        raise ValidationError(f"{path}: not a fit JSON object")
    problems = [
        f"{path}: {key} must be a number"
        for key in ("slope", "intercept", "delta_theory", "n_samples")
        if not _is_number(fit.get(key))
    ]
    problems += [
        f"{path}: {key} must be a non-empty list of numbers"
        for key in ("eps_grid", "log_means", "residuals")
        if not (isinstance(fit.get(key), list) and fit[key] and all(map(_is_number, fit[key])))
    ]
    if not problems and not all(e > 0 for e in fit["eps_grid"]):
        problems.append(f"{path}: eps_grid entries must be positive")
    if problems:
        raise ValidationError(problems)
    return fit


def _read_records(path) -> list:
    """The epsilon and dist_h of every row of a sweep's records.csv."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            records = []
            for line in fh:
                row = dict(zip(header, line.strip().split(",")))
                records.append({key: float(row[key]) for key in ("epsilon", "dist_h")})
    except (KeyError, ValueError) as exc:  # ValueError covers UnicodeDecodeError
        raise ValidationError(f"{path}: need numeric epsilon and dist_h columns ({exc!r})") from exc
    if not all(rec["epsilon"] > 0 for rec in records):
        raise ValidationError(f"{path}: epsilon entries must be positive")
    return records


def _cmd_report(cfg_path, out_dir, args):
    src = cfg_path
    if os.path.isdir(src):
        src = os.path.join(src, "fit.json")
    fit_payload = _read_fit(src)
    lines = [
        "rate sweep summary",
        f"  fitted slope     : {fmt(fit_payload['slope'])}",
        f"  theory exponent  : {fmt(fit_payload['delta_theory'])}",
        f"  epsilon grid     : {', '.join(fmt(e) for e in fit_payload['eps_grid'])}",
        f"  samples per level: {fmt(fit_payload['n_samples'])}",
        f"  fit residuals    : {', '.join(fmt(v) for v in fit_payload['residuals'])}",
    ]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    artifacts = [summary_path]
    if args.format == "svg":
        rec_csv = os.path.join(os.path.dirname(src), "records.csv")
        records = _read_records(rec_csv) if os.path.exists(rec_csv) else None
        svg_path = os.path.join(out_dir, "fit.svg")
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(svg_rate_plot(fit_payload, records))
        artifacts.append(svg_path)
    return artifacts, EXIT_OK


#: The subcommands that run a config, in the order ``--help`` lists them.
_COMMANDS = {
    "check-conditions": _cmd_check_conditions,
    "simulate": _cmd_simulate,
    "singleton": _cmd_singleton,
    "pullback": _cmd_pullback,
    "sweep": _cmd_sweep,
    "ou-diagnostics": _cmd_ou_diagnostics,
}


def run(subcommand: str, config_path: str, out_dir: str, args) -> int:
    """Dispatch a subcommand; returns the process exit code."""
    os.makedirs(out_dir, exist_ok=True)
    if subcommand == "report":
        return _cmd_report(config_path, out_dir, args)[1]

    cfg = parse_config(_load_config_text(config_path))
    artifacts, code = _COMMANDS[subcommand](cfg, out_dir, args)
    constants = EstimateConstants(
        c1=cfg.constants.c1, c2=cfg.constants.c2, c3=cfg.constants.c3
    )
    seeds = [cfg.noise.seed + args.seed_offset + i for i in range(cfg.noise.n_samples)]
    write_manifest(
        out_dir, subcommand, serialize_config(cfg), constants, seeds, artifacts
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
    parser.add_argument("subcommand", choices=(*_COMMANDS, "report"))
    parser.add_argument("--config", required=True, help="config file, or a manifest.json")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed-offset", type=int, default=0, dest="seed_offset")
    parser.add_argument("--format", choices=("csv", "svg"), default="csv")
    args = parser.parse_args(argv)

    try:
        return run(args.subcommand, args.config, args.out, args)
    except CBFError as exc:
        for line in getattr(exc, "violations", [exc]):
            print(f"error: {line}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_VALIDATION)
    except ArithmeticError as exc:
        # Python float arithmetic raises on overflow and on a zero divisor, e.g.
        # mu**2 at mu = 1e200 or the 3D eta3 power just above r = 3
        print(
            f"error: floating-point range exceeded ({exc}); a config value is "
            "too large or too small to compute with",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
