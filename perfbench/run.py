"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload besov-1d --seed 0 --seconds 22 --trace 0

Sets up three times -- build the workload's fixed inputs, then warm up on
a smaller piece of the main phase -- and counts the median set-up after the
import.  Then it repeats the main phase (at least three times) as long as
the next pass fits in ``--seconds``, and checks every output against the
committed references.  ``wall_s`` and ``setup_s`` are normalized to the
host's speed by a probe kernel timed next to the work (``speed.py``); the
first output line gives the raw times too.  The last line of standard
output is the result as JSON: with ``--trace 0`` the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of one traced build and one
traced main-phase pass (``--seconds`` then does not apply).

The library is imported from ``src/`` next to this directory; BLAS runs
single-threaded and nothing starts a thread pool.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
SETUPS = 3
MIN_PASSES = 3
SOURCE = Path(__file__).resolve().parent.parent / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _run_pass(wl, state, tally):
    """One main-phase pass; a pass that raises fails all of its items."""
    try:
        return _timed(wl.main, state)
    except Exception as exc:  # reported as failed operations, run continues
        n = wl.items(state)
        tally.attempted += n
        tally.failed += n
        tally.notes.append(f"{wl.name}: main phase raised {exc!r}")
        return None, None


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SOURCE / "anisoweights" / "__init__.py").is_file():
        print(f"anisoweights sources not found under {SOURCE}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SOURCE))

    import speed

    with speed.SpeedClock() as import_clock:
        import numpy  # noqa: F401  (counted in the import time)
        import workloads
    import_s = import_clock.raw_s

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    refs = workloads.load_references().get(wl.name, {})
    ref = refs.get(str(args.seed % workloads.VARIANTS))

    setups = []
    for _ in range(SETUPS):
        with speed.SpeedClock() as clock:
            state = wl.build(args.seed)
            wl.warm(state)
        setups.append(clock)
    setup_s = import_clock.norm_s + statistics.median(c.norm_s for c in setups)

    tally = workloads.Tally()
    if args.trace:
        metrics, outputs, times = _traced(wl, state, args.seed, tally)
    else:
        outputs, times, norm_times = [], [], []
        begin = time.perf_counter()
        last = 0.0
        # at least MIN_PASSES passes; no pass is started that would end past --seconds
        while len(times) < MIN_PASSES or time.perf_counter() - begin + last <= args.seconds:
            gc.collect()
            started = time.perf_counter()
            with speed.SpeedClock() as clock:
                out, _ = _run_pass(wl, state, tally)
            last = time.perf_counter() - started
            if out is None:
                break
            outputs.append(out)
            times.append(clock.raw_s)
            norm_times.append(clock.norm_s)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for out in outputs:
        wl.check(state, out, ref, tally)
    result_err = wl.result_err(state, outputs[-1], tally) if outputs else 0.0

    if not args.trace:
        wall_s = statistics.median(norm_times) if times else 0.0
        metrics = {
            "wall_s": _metric(wall_s, "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "result_err": _metric(result_err, "ratio"),
        }
    quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3 or [0.0]
    print(f"# {wl.name} seed={args.seed} variant={args.seed % workloads.VARIANTS} "
          f"trace={args.trace} passes={len(times)} "
          f"raw pass median={statistics.median(times) if times else 0.0:.4f} "
          f"q1={quartiles[0]:.4f} q3={quartiles[-1]:.4f} "
          f"import_s={import_s:.4f} "
          f"raw setup_s={','.join(f'{c.raw_s:.4f}' for c in setups)} "
          f"norm setup_s={','.join(f'{c.norm_s:.4f}' for c in setups)} "
          f"result_err={result_err:.3e} blas_threads={BLAS_THREADS} "
          f"cpus={os.cpu_count()}")
    for note in tally.notes[:20]:
        print(f"# FAILED {note}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def _traced(wl, state, seed, tally):
    """One untraced pass, then one traced build and one traced pass."""
    import layers
    from tracing import Tracer

    outputs, times = [], []
    out, untraced_s = _run_pass(wl, state, tally)
    if out is not None:
        outputs.append(out)
        times.append(untraced_s)
    with Tracer(layers.TARGETS) as tracer:
        with tracer.record() as setup_stats:
            wl.build(seed)
        with tracer.record() as main_stats:
            out, _ = _run_pass(wl, state, tally)
    for name in tracer.missing:
        print(f"# not traced (missing): {name}", file=sys.stderr)
    if out is not None:
        outputs.append(out)
    overhead_s = main_stats.root_s - untraced_s if untraced_s is not None else 0.0
    return layers.layer_report(main_stats, setup_stats, overhead_s), outputs, times


if __name__ == "__main__":
    sys.exit(main())
