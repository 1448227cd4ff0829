"""Timing wrappers installed on cbflab from outside, and the per-layer table.

``Tracer.install`` replaces each traced function by a wrapper wherever the
program looks it up: on every cbflab module that holds it (the solvers
import their kernels by name), on ``TorusGrid`` for the grid methods and on
``numpy.fft`` for the transforms.  While a root span is open, each wrapped
call records one span (name, start, end, parent) in memory; calls outside a
root pass straight through.  The spans are written out when the run ends.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

ROOT = "workload.solve"

#: Per-layer metrics: (name, unit, kind, span).  Kinds: ``self`` is self time
#: per call, ``incl`` inclusive time per call, ``calls`` calls per round,
#: ``bytes`` computed bytes per call; the rest are described in README.md.
PER_LAYER = (
    ("grid.pad_half.us", "us", "self", "grid.pad_half"),
    ("grid.pad_half.calls", "count", "calls", "grid.pad_half"),
    ("grid.to_phys.us", "us", "self", "grid.to_phys"),
    ("grid.to_phys.calls", "count", "calls", "grid.to_phys"),
    ("grid.from_phys.us", "us", "self", "grid.from_phys"),
    ("grid.from_phys.calls", "count", "calls", "grid.from_phys"),
    ("fft.irfftn.us", "us", "self", "fft.irfftn"),
    ("fft.irfftn.calls", "count", "calls", "fft.irfftn"),
    ("fft.rfftn.us", "us", "self", "fft.rfftn"),
    ("fft.rfftn.calls", "count", "calls", "fft.rfftn"),
    ("operators.bilinear_kernel.us", "us", "self", "operators.bilinear_kernel"),
    ("operators.bilinear_kernel.calls", "count", "calls", "operators.bilinear_kernel"),
    ("operators.bilinear_kernel.bytes", "bytes_computed", "bytes", "operators.bilinear_kernel"),
    ("operators.damping_kernel.us", "us", "self", "operators.damping_kernel"),
    ("operators.damping_kernel.calls", "count", "calls", "operators.damping_kernel"),
    ("operators.damping_kernel.bytes", "bytes_computed", "bytes", "operators.damping_kernel"),
    ("operators.leray_kernel.us", "us", "self", "operators.leray_kernel"),
    ("operators.leray_kernel.calls", "count", "calls", "operators.leray_kernel"),
    ("operators.leray_kernel.bytes", "bytes_computed", "bytes", "operators.leray_kernel"),
    ("operators.norm_kernels.us", "us", "self", "operators.norm_kernels"),
    ("deterministic.step.us", "us", "step", "deterministic.drive"),
    ("deterministic.steps", "count", "steps", "deterministic.drive"),
    ("deterministic.find_singleton.s", "s", "incl", "deterministic.find_singleton"),
    ("deterministic.find_singleton.chunks", "count", "chunks", "deterministic.find_singleton"),
    ("random_pde.pullback_sample.s", "s", "incl", "random_pde.pullback_sample"),
    ("random_pde.pullback_sample.calls", "count", "calls", "random_pde.pullback_sample"),
    ("ou.ou_path.ms", "ms", "self", "ou.ou_path"),
    ("ou.ou_path.calls", "count", "calls", "ou.ou_path"),
    ("fields.SpectralVelocity.us", "us", "self", "fields.SpectralVelocity"),
    ("fields.SpectralVelocity.calls", "count", "calls", "fields.SpectralVelocity"),
    ("experiments.rate_sweep.s", "s", "incl", "experiments.rate_sweep"),
    ("experiments.fit_rate.ms", "ms", "self", "experiments.fit_rate"),
    ("config.parse_config.ms", "ms", "self", "config.parse_config"),
    ("runio.write_csv.ms", "ms", "self", "runio.write_csv"),
    ("runio.write_json.ms", "ms", "self", "runio.write_json"),
    ("runio.write_manifest.ms", "ms", "self", "runio.write_manifest"),
    ("cli.run.s", "s", "incl", "cli.run"),
    ("trace.overhead_s", "s", "overhead", None),
    ("trace.self_sum_s", "s", "self_sum", None),
)

_SCALE = {"us": 1.0e6, "ms": 1.0e3, "s": 1.0}


# ---------------------------------------------------------------------------
# patching where the program looks names up
# ---------------------------------------------------------------------------

def _patch(owner, attr, wrapper) -> list:
    """Point every lookup of ``owner.attr`` at ``wrapper``; returns the undo list.

    A class or ``numpy.fft`` is patched in place.  A cbflab module function
    is also replaced in every cbflab module that imported it by name.
    """
    orig = getattr(owner, attr)
    if isinstance(owner, type) or not owner.__name__.startswith("cbflab"):
        setattr(owner, attr, wrapper)
        return [(owner, attr, orig)]
    undo = []
    for name, module in list(sys.modules.items()):
        if name != "cbflab" and not name.startswith("cbflab."):
            continue
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, wrapper)
                undo.append((module, key, orig))
    return undo


def _unpatch(undo: list) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


def _n_steps(args, kwargs) -> int:
    # drive(grid, u0_coeffs, rhs, mu, h, n_steps, ...)
    return int(args[5] if len(args) > 5 else kwargs["n_steps"])


class StepCounter:
    """Counts the Heun steps of every ``drive`` call; it takes no timings."""

    def __init__(self):
        self.steps = 0
        self._undo = []

    def install(self) -> None:
        import cbflab.deterministic

        orig = cbflab.deterministic.drive

        @functools.wraps(orig)
        def drive(*args, **kwargs):
            self.steps += _n_steps(args, kwargs)
            return orig(*args, **kwargs)

        self._undo = _patch(cbflab.deterministic, "drive", drive)

    def uninstall(self) -> None:
        _unpatch(self._undo)
        self._undo = []


# ---------------------------------------------------------------------------
# counters, called with (args, kwargs, result) and returning (key, amount).
# Computed bytes: each top-level array a kernel makes is counted once written
# and once read, its inputs once read and its result once written
# ---------------------------------------------------------------------------

def _lattice(grid, factor: float) -> tuple:
    m = grid.padded_size(factor)
    return m**grid.dim, m ** (grid.dim - 1) * (m // 2 + 1)


def _bilinear_bytes(pad, args, kwargs, out):
    grid, u = args[0], args[1]
    v = args[2] if len(args) > 2 else kwargs.get("v_coeffs")
    c = grid.dim
    points, half = _lattice(grid, max(grid.dealias_factor, pad))
    made = 16 * c * half * (1 if v is None else 2)  # u_half, v_half
    made += 8 * c * points + 16 * c * c * half + 8 * c * c * points  # u, dv_hat, dv
    made += 8 * c * points  # advection product
    read = u.nbytes + (0 if v is None else v.nbytes)
    return "bytes", read + out[0].nbytes + 2 * made


def _damping_bytes(pad, args, kwargs, out):
    grid, coeffs = args[0], args[1]
    r = args[2] if len(args) > 2 else kwargs["r"]
    if r == 1.0:
        return "bytes", 0
    c = grid.dim
    points, half = _lattice(grid, max(grid.dealias_factor, pad))
    made = 16 * c * half + 8 * c * points + 16 * points + 8 * c * points
    return "bytes", coeffs.nbytes + out.nbytes + 2 * made


def _leray_bytes(args, kwargs, out):
    grid, coeffs = args[0], args[1]
    modes = grid.N**grid.dim
    made = modes * (16 + 8 + 8 + 1)  # divergence, amplitude, |k|, mask
    copy = 0 if out is coeffs else out.nbytes
    return "bytes", coeffs.nbytes + 2 * made + copy


def _drive_steps(args, kwargs, out):
    return "steps", _n_steps(args, kwargs)


def _singleton_chunks(args, kwargs, out):
    return "chunks", len(out.contraction_log)


def _targets() -> list:
    """(span, owner, attribute, counter) for every traced lookup."""
    import numpy.fft

    import cbflab.cli
    from cbflab import (
        config, deterministic, experiments, fields, grid, operators, ou, random_pde, runio,
    )

    norms = ("h_norm_kernel", "v_norm_kernel", "a_norm_kernel", "inner_h_kernel",
             "lr_norm_kernel")
    return [
        ("grid.pad_half", grid.TorusGrid, "pad_half", None),
        ("grid.to_phys", grid.TorusGrid, "to_phys", None),
        ("grid.from_phys", grid.TorusGrid, "from_phys", None),
        ("fft.irfftn", numpy.fft, "irfftn", None),
        ("fft.rfftn", numpy.fft, "rfftn", None),
        ("operators.bilinear_kernel", operators, "bilinear_kernel",
         functools.partial(_bilinear_bytes, grid.QUADRATIC_PAD)),
        ("operators.damping_kernel", operators, "damping_kernel",
         functools.partial(_damping_bytes, grid.DAMPING_PAD)),
        ("operators.leray_kernel", operators, "leray_kernel", _leray_bytes),
        *[("operators.norm_kernels", operators, name, None) for name in norms],
        ("deterministic.drive", deterministic, "drive", _drive_steps),
        ("deterministic.find_singleton", deterministic, "find_singleton", _singleton_chunks),
        ("random_pde.pullback_sample", random_pde, "pullback_sample", None),
        ("ou.ou_path", ou, "ou_path", None),
        ("fields.SpectralVelocity", fields.SpectralVelocity, "__post_init__", None),
        ("experiments.rate_sweep", experiments, "rate_sweep", None),
        ("experiments.fit_rate", experiments, "fit_rate", None),
        ("config.parse_config", config, "parse_config", None),
        ("runio.write_csv", runio, "write_csv", None),
        ("runio.write_json", runio, "write_json", None),
        ("runio.write_manifest", runio, "write_manifest", None),
        ("cli.run", cbflab.cli, "run", None),
    ]


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span recorder for wrapped cbflab calls."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict = {}
        self._stack: list = []
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, span: str, fn, counter):
        nid = self._id(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counter is not None:
                key, amount = counter(args, kwargs, out)
                slot = f"{span}:{key}"
                self.counts[slot] = self.counts.get(slot, 0) + amount
            return out

        return wrapper

    def install(self) -> None:
        for span, owner, attr, counter in _targets():
            self._undo += _patch(owner, attr, self._wrap(span, getattr(owner, attr), counter))

    def uninstall(self) -> None:
        _unpatch(self._undo)
        self._undo = []

    @contextmanager
    def root(self):
        """Open the root span of one traced round, with the wrappers installed."""
        self.install()
        idx = self._open(self._id(ROOT))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self._stack.pop()
            self.uninstall()

    # -- analysis ------------------------------------------------------------

    def _arrays(self):
        """Name index, duration and self time of every span."""
        nid = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return nid, dur, dur - child

    def by_span(self) -> dict:
        """{span: {"calls", "self_s", "incl_s"}} summed over the whole run."""
        nid, dur, self_t = self._arrays()
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=self_t, minlength=k)
        incl_s = np.bincount(nid, weights=dur, minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
            for i, name in enumerate(self.names)
        }

    def unattributed_share(self) -> float:
        """Share of the root spans' time that no traced layer covers."""
        nid, dur, self_t = self._arrays()
        roots = nid == self._ids[ROOT]
        return float(np.sum(self_t[roots]) / np.sum(dur[roots]))

    def metrics(self, traced_solve: list, untraced_solve: list) -> dict:
        """The per-layer table over ``len(traced_solve)`` traced rounds."""
        rounds = len(traced_solve)
        spans = self.by_span()
        empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
        out = {}
        for metric, unit, kind, span in PER_LAYER:
            s = spans.get(span, empty)
            calls = s["calls"]
            if kind == "self":
                value = s["self_s"] / calls * _SCALE[unit] if calls else 0.0
            elif kind == "incl":
                value = s["incl_s"] / calls * _SCALE[unit] if calls else 0.0
            elif kind == "calls":
                value = calls / rounds
            elif kind == "bytes":
                value = self.counts.get(f"{span}:bytes", 0) / calls if calls else 0.0
            elif kind == "step":
                steps = self.counts.get(f"{span}:steps", 0)
                value = s["self_s"] / steps * _SCALE[unit] if steps else 0.0
            elif kind == "steps":
                value = self.counts.get(f"{span}:steps", 0) / rounds
            elif kind == "chunks":
                value = self.counts.get(f"{span}:chunks", 0) / calls if calls else 0.0
            elif kind == "overhead":
                value = statistics.median(traced_solve) - statistics.median(untraced_solve)
            elif kind == "self_sum":
                value = sum(v["self_s"] for k, v in spans.items() if k != ROOT) / rounds
            else:
                raise ValueError(f"unknown per-layer kind {kind!r}")
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int32),
        )
