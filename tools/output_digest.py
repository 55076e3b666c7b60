"""sha256 digests of the benchmark workloads' main-phase outputs.

    python3 tools/output_digest.py [--src DIR]

Builds each workload of perfbench/workloads.py at seeds 0-3, runs its main
phase once, and prints one line per workload and seed: the workload, the
seed, the sha256 of the pickled output, failed/attempted items of the
workload's own check of that output against perfbench/reference.json, and
the largest relative deviation of the workload's `reference(state, out)`
record from its committed one (`-` for a workload without such a record,
cover-2d).  A DilationGroup in an output is pickled as its generator A
alone: the group is fixed by A, so a change to the attributes it keeps
beside A is not an output change.  DIR holds the anisoweights package to
run (default: src/ of this checkout), so that two trees can be compared
on the same workloads:

    python3 tools/output_digest.py > head.txt
    python3 tools/output_digest.py --src ../base/src > base.txt
    diff base.txt head.txt

A refactor that keeps outputs bitwise leaves every line the same; a change
that moves outputs on purpose still shows 0 failed items on every line, and
the deviation column shows how far it moved them.
The exit status is 1 if any item fails.  BLAS runs single-threaded, as in
perfbench/run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import os
import pickle
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(4)
PROTOCOL = 4  # fixed, so that digests do not move with the default protocol


def _numbers(record, path=()) -> dict:
    """The numbers of a reference record (nested dicts and lists), by path."""
    if isinstance(record, dict):
        items = record.items()
    elif isinstance(record, list):
        items = enumerate(record)
    else:
        return {path: float(record)}
    return {k: x for key, value in items for k, x in _numbers(value, path + (key,)).items()}


def deviation(got, want) -> float:
    """max |got - want| / |want| over the numbers of two reference records.

    Records of another shape (a missing key, a list of another length)
    deviate by inf, and so does a non-zero number against a reference 0.
    """
    got, want = _numbers(got), _numbers(want)
    if got.keys() != want.keys():
        return math.inf
    return max((0.0 if got[k] == w else abs(got[k] - w) / abs(w) if w else math.inf
                for k, w in want.items()), default=0.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the anisoweights package (default: %(default)s)")
    args = parser.parse_args(argv)
    if not (args.src / "anisoweights" / "__init__.py").is_file():
        print(f"anisoweights sources not found under {args.src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]

    import workloads
    from anisoweights.dilation import DilationGroup

    class Pickler(pickle.Pickler):
        def persistent_id(self, obj):
            return ("DilationGroup", obj.A) if isinstance(obj, DilationGroup) else None

    refs = workloads.load_references()
    failed = 0
    for name, wl in workloads.WORKLOADS.items():
        for seed in SEEDS:
            state = wl.build(seed)
            out = wl.main(state)
            buf = io.BytesIO()
            Pickler(buf, PROTOCOL).dump(out)
            tally = workloads.Tally()
            ref = refs.get(name, {}).get(str(seed % workloads.VARIANTS))
            wl.check(state, out, ref, tally)
            failed += tally.failed
            dev = ("-" if ref is None or not hasattr(wl, "reference")
                   else f"{deviation(wl.reference(state, out), ref):.2e}")
            print(f"{name} {seed} {hashlib.sha256(buf.getvalue()).hexdigest()} "
                  f"{tally.failed}/{tally.attempted} {dev}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
