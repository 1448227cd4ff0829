"""Artifact emission: CSV, JSON, run manifests with checksums, and SVG plots.

Every number is serialized as its shortest round-trip decimal (Python repr),
so re-running a manifest reproduces output files byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict

import numpy as np


def fmt(value) -> str:
    """Shortest round-trip decimal for scalars; plain str otherwise."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _numpy_to_python(obj):
    """``json.dump``'s fallback: an ndarray as nested lists, a numpy scalar as
    its Python value."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_numpy_to_python)
        fh.write("\n")


def write_text(path, text) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, subcommand, config_text, constants, seeds, artifacts):
    """Record everything needed to reproduce a run byte-for-byte."""
    payload = {
        "subcommand": subcommand,
        "config_text": config_text,
        "constants": asdict(constants),
        "seeds": list(seeds),
        "artifacts": {
            os.path.basename(p): sha256_of(p) for p in artifacts
        },
    }
    path = os.path.join(out_dir, "manifest.json")
    write_json(path, payload)
    return path


# ---------------------------------------------------------------------------
# SVG rate plot: a pure function of a rate fit and its sweep records
# ---------------------------------------------------------------------------

_W, _H, _PAD = 560, 420, 60.0


def _map(x, lo, hi, a, b):
    if hi == lo:
        return 0.5 * (a + b)
    return a + (x - lo) * (b - a) / (hi - lo)


def svg_rate_plot(fit, records) -> str:
    """Log-log scatter of the records' distances against epsilon, with the
    per-level means and the fitted line of ``fit`` (an ``experiments.RateFit``)."""
    log_means, slope, intercept = fit.log_means, fit.slope, fit.intercept
    xs = [math.log(e) for e in fit.eps_grid]
    pts = [
        (math.log(rec.epsilon), math.log(rec.dist_h)) for rec in records if rec.dist_h > 0
    ]
    ys = log_means + [p[1] for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    y_lo -= 0.05 * max(1e-12, y_hi - y_lo)
    y_hi += 0.05 * max(1e-12, y_hi - y_lo)

    def sx(x):
        return _map(x, x_lo, x_hi, _PAD, _W - _PAD)

    def sy(y):
        return _map(y, y_lo, y_hi, _H - _PAD, _PAD)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_PAD}" y1="{_H - _PAD}" x2="{_W - _PAD}" y2="{_H - _PAD}" '
        'stroke="black"/>',
        f'<line x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" y2="{_H - _PAD}" stroke="black"/>',
    ]
    for x, y in pts:
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="none" '
            'stroke="steelblue"/>'
        )
    for x, y in zip(xs, log_means):
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="black"/>'
        )
    y1 = slope * x_lo + intercept
    y2 = slope * x_hi + intercept
    parts.append(
        f'<line x1="{sx(x_lo):.2f}" y1="{sy(y1):.2f}" x2="{sx(x_hi):.2f}" '
        f'y2="{sy(y2):.2f}" stroke="crimson" stroke-dasharray="6 3"/>'
    )
    parts.append(
        f'<text x="{_W / 2:.0f}" y="{_H - 18}" text-anchor="middle" '
        f'font-family="monospace" font-size="13">log epsilon</text>'
    )
    parts.append(
        f'<text x="18" y="{_H / 2:.0f}" text-anchor="middle" font-family="monospace" '
        f'font-size="13" transform="rotate(-90 18 {_H / 2:.0f})">log dist_H</text>'
    )
    parts.append(
        f'<text x="{_W - _PAD}" y="{_PAD - 16}" text-anchor="end" '
        f'font-family="monospace" font-size="13">slope {slope:.4f} '
        f'(theory {fit.delta_theory:.4f})</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
