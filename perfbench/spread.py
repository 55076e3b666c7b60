"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 10 [--first-seed 0] [workload ...]

Runs the benchmark once per seed and workload, one run at a time, and
prints each metric's median and interquartile spread as a share of the
median, next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    for name in names:
        values = {m: [] for m in bounds}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            started = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            elapsed = time.perf_counter() - started
            result = json.loads(out.stdout.strip().splitlines()[-1])
            failed += result["failed"] + (not result["correct"])
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{out.stdout.strip().splitlines()[0]} run_s={elapsed:.1f}", flush=True)
        for m, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            print(f"{name:14s} {m:12s} median={med:.6g} spread={share:.4f} "
                  f"bound={bounds[m]} failed={failed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
