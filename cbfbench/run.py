#!/usr/bin/env python3
"""Run one cbflab benchmark workload and print its metrics as one JSON line.

    python3 cbfbench/run.py --workload singleton-2d --seed 1 --seconds 30 --trace 0

The workload runs whole rounds of cbflab calls until ``--seconds`` have been
spent, checks every round's outputs and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` untraced and traced rounds
alternate and the metrics are the per-layer table.  See README.md.
"""

import os

# one thread everywhere, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RESULTS = BENCH_DIR / "results"
NAMES = ("singleton-2d", "sweep-additive-2d-r1", "pullback-3d-mult")
#: Fresh processes timed for set-up; the median is reported.
SETUP_PROBES = 5
#: The traced run fails its check if the traced layers leave more than this
#: share of a round's time unaccounted for.
MAX_UNATTRIBUTED = 0.05


def _use_checkout_source() -> None:
    if not (SRC / "cbflab" / "__init__.py").is_file():
        sys.exit(f"run.py: no cbflab source at {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]


def _report_setup_time(name: str, seed: int) -> None:
    """Time import, input generation and set-up in this fresh process."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    wl.setup()
    elapsed = time.perf_counter() - t0
    wl.close()
    print(json.dumps({"setup_s": elapsed}))


def _time_setup_in_child(name: str, seed: int) -> float:
    cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"set-up probe exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _check_rounds(wl, rounds) -> list:
    """Check every round's output once all timed rounds are done.

    Checking between rounds would let the checks' large temporaries change
    the allocator's state, and with it the speed of the rounds after them.
    """
    problems, marks = [], set()
    for out, steps in rounds:
        try:
            problems += wl.check(out, steps)
            marks.add(wl.fingerprint(out))
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    if len({steps for _, steps in rounds}) > 1:
        problems.append(f"Heun step counts differ between rounds: {[s for _, s in rounds]}")
    if len(marks) > 1:
        problems.append("rounds on the same inputs gave different outputs")
    for out, _ in rounds:
        wl.discard(out)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _use_checkout_source()
    if args.setup_probe:
        _report_setup_time(args.workload, args.seed)
        return 0

    setup_times = []
    if not args.trace:
        setup_times = [_time_setup_in_child(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    counter = tracing.StepCounter()
    counter.install()
    tracer = tracing.Tracer() if args.trace else None

    solve = {False: [], True: []}  # traced? -> per-round solve seconds
    rounds = []  # (output, Heun steps) of every round without a failed operation
    attempted = failed = 0
    start = time.perf_counter()
    try:
        while True:
            for traced in (False, True) if tracer else (False,):
                before = counter.steps
                with tracer.root() if traced else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    out, n_failed = wl.solve()
                    solve[traced].append(time.perf_counter() - t0)
                attempted += wl.ops_per_round
                failed += n_failed
                if not n_failed:
                    rounds.append((out, counter.steps - before))
            if time.perf_counter() - start >= args.seconds:
                break
        # before the checks, whose large temporaries would count here too
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB
        problems = _check_rounds(wl, rounds)
    finally:
        counter.uninstall()
        wl.close()
    if not solve[False]:
        problems.append("no round ran")

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"rounds_solve_s": solve[False], "setup_probes_s": setup_times}
    if tracer:
        unattributed = tracer.unattributed_share()
        if unattributed > MAX_UNATTRIBUTED:
            problems.append(f"traced layers leave {unattributed:.1%} of a round unattributed")
        metrics = tracer.metrics(solve[True], solve[False])
        detail.update(
            traced_rounds_solve_s=solve[True],
            unattributed_share=unattributed,
            spans=tracer.by_span(),
        )
        tracer.write(stem.with_suffix(".spans.npz"))
    else:
        solve_s = statistics.median(solve[False])
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "solve_s": {"value": solve_s, "unit": "s"},
            "steps_per_s": {"value": max((s for _, s in rounds), default=0) / solve_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail["result"] = result
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
