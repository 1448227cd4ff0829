"""Output checks computed apart from cbflab: numpy, csv, hashlib and math only.

Nothing here imports ``cbflab``.  The steady-state residual uses complex FFTs
on a 2x zero-padded lattice (the program uses real FFTs and a 3/2 lattice for
advection), the rate refit solves the least-squares line in closed form (the
program calls ``numpy.polyfit``), and the artifact hashes are recomputed from
the files on disk.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np


# ---------------------------------------------------------------------------
# steady-state residual
# ---------------------------------------------------------------------------

def _modes(n: int) -> np.ndarray:
    """Integer mode numbers of an n-point axis in FFT order."""
    return np.fft.fftfreq(n, d=1.0 / n)


def _retained(n: int, dim: int) -> np.ndarray:
    """Mask of the symmetric lattice |k_i| < n/2 without the mean mode."""
    axis = np.abs(_modes(n)) < n // 2
    mask = axis
    for _ in range(dim - 1):
        mask = np.multiply.outer(mask, axis)
    mask = np.array(mask)
    mask[(0,) * dim] = False
    return mask


def _embed(n: int, m: int):
    """Index of each of the n FFT-ordered modes on an m-point axis, per axis."""
    return _modes(n).astype(int) % m


def _to_points(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Values on the m^dim lattice of a (comp, n, ..., n) coefficient array."""
    dim, n = coeffs.ndim - 1, coeffs.shape[1]
    padded = np.zeros(coeffs.shape[:1] + (m,) * dim, dtype=complex)
    padded[(slice(None),) + np.ix_(*([_embed(n, m)] * dim))] = coeffs
    axes = tuple(range(1, dim + 1))
    return np.fft.ifftn(padded, axes=axes).real * float(m**dim)


def _to_coeffs(values: np.ndarray, n: int) -> np.ndarray:
    """Coefficients on the n^dim lattice of values on an m^dim lattice."""
    dim, m = values.ndim - 1, values.shape[1]
    axes = tuple(range(1, dim + 1))
    full = np.fft.fftn(values, axes=axes) / float(m**dim)
    return full[(slice(None),) + np.ix_(*([_embed(n, m)] * dim))]


def steady_residual(coeffs, forcing, length: float, mu: float, beta: float, r: float) -> float:
    """|mu A a + P (a . grad) a + beta P(|a|^(r-1) a) - f|_H of a state a.

    ``coeffs`` and ``forcing`` (or None) are (dim, N, ..., N) arrays in FFT
    order with the convention a(x) = sum_k a_k exp(2 pi i k.x / L).  The
    products are taken on a 2x padded lattice, which is exact for the
    quadratic advection and for the cubic damping at r = 3.  The result is
    truncated to the lattice |k_i| < N/2 before its H norm is taken.
    """
    a = np.asarray(coeffs, dtype=complex)
    dim, n = a.shape[0], a.shape[1]
    m = 2 * n
    k = _modes(n) * (2.0 * math.pi / length)
    kvec = np.stack(np.meshgrid(*([k] * dim), indexing="ij"))
    k2 = np.sum(kvec * kvec, axis=0)

    u = _to_points(a, m)
    grads = np.stack([_to_points(1j * kvec[i][None] * a, m) for i in range(dim)])
    advect = np.einsum("i...,ij...->j...", u, grads)
    damp = np.power(np.sum(u * u, axis=0), 0.5 * (r - 1.0))[None] * u
    w = _to_coeffs(advect + beta * damp, n)
    div = np.sum(kvec * w, axis=0) / np.where(k2 > 0, k2, 1.0)
    total = mu * k2[None] * a + (w - kvec * div[None])
    if forcing is not None:
        total = total - np.asarray(forcing, dtype=complex)
    total[:, ~_retained(n, dim)] = 0.0
    return h_norm(total, length)


def h_norm(coeffs, length: float) -> float:
    """Parseval H norm sqrt(L^dim sum |a_k|^2) of a (dim, N, ..., N) array."""
    c = np.asarray(coeffs)
    return math.sqrt(length ** (c.ndim - 1) * float(np.sum(np.abs(c) ** 2)))


def varrho_2d(mu: float, lam1: float, c1: float, f_h: float) -> float:
    """Decay margin of the paper's 2D small-forcing condition."""
    ml = mu * lam1
    return ml - (c1**2 / mu**2) * (1.0 + 1.0 / ml + 1.0 / ml**2) * f_h**2


# ---------------------------------------------------------------------------
# least-squares lines and the rate refit
# ---------------------------------------------------------------------------

def line_fit(xs, ys) -> tuple:
    """Closed-form least-squares line y = slope x + intercept."""
    xs, ys = [float(x) for x in xs], [float(y) for y in ys]
    if len(xs) < 2:
        raise ValueError("a line needs at least two points")
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - xm) ** 2 for x in xs)
    sxy = sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, ym - slope * xm


def refit_records(path) -> dict:
    """Refit log(geometric mean dist_h) against log(epsilon) from records.csv.

    Only converged records with a positive distance enter, as the sweep's
    own fit promises; levels are ordered by decreasing epsilon.
    """
    by_eps: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            dist = float(row["dist_h"])
            if row["converged"] == "true" and dist > 0.0:
                by_eps.setdefault(float(row["epsilon"]), []).append(math.log(dist))
    levels = sorted(by_eps, reverse=True)
    log_means = [sum(by_eps[e]) / len(by_eps[e]) for e in levels]
    slope, intercept = line_fit([math.log(e) for e in levels], log_means)
    return {
        "slope": slope,
        "intercept": intercept,
        "eps_grid": levels,
        "log_means": log_means,
    }


def read_records(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# manifest hashes
# ---------------------------------------------------------------------------

def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def manifest_problems(out_dir) -> list:
    """Differences between manifest.json's artifact hashes and the files."""
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        artifacts = json.load(fh).get("artifacts", {})
    if not artifacts:
        return ["manifest.json lists no artifacts"]
    problems = []
    for name, recorded in sorted(artifacts.items()):
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"manifest artifact {name} is missing")
        elif sha256_file(path) != recorded:
            problems.append(f"manifest hash of {name} does not match the file")
    return problems
