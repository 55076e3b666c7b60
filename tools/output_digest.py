"""sha256 digests of the benchmark workloads' and the experiments' outputs.

    python3 tools/output_digest.py [--src DIR] [--write-record]

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

Then come the experiments that no workload runs (`doubling_check`,
`reducing_operators`, `scalar_slice_ap`), each on a small fixture per weight
(the ap-matrix-2d weight of variant 0 and a complex conjugated weight) and
exponent, with the same columns: the experiment, the fixture, the sha256 of
the pickled output, `-` (an experiment has no check), and the largest
relative deviation of the output's record from experiment_record.json
beside this tool.  --write-record writes that file from DIR's outputs
instead; write it from the parent tree, so that a change's lines show how
far it moved each experiment:

    python3 tools/output_digest.py --src ../base/src --write-record

The exit status is 1 if any item fails.  BLAS runs single-threaded, as in
perfbench/run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import pickle
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().with_name("experiment_record.json")
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


def experiments():
    """(experiment, fixture, run, record) for each experiment fixture."""
    import numpy as np
    import workloads
    from anisoweights.dilation import DilationGroup
    from anisoweights.geometry import AnisoBall
    from anisoweights.muckenhoupt import (BallQuadrature, doubling_check, reducing_operators,
                                          scalar_slice_ap)
    from anisoweights.weights import MatrixWeightSpec, ScalarWeightSpec

    G, quad = DilationGroup(np.diag([1.0, 2.0])), BallQuadrature("mapped_grid", 256)
    # two balls whose B, 2B and 4B put no node on either weight's singular set
    family = [AnisoBall([0.2, -0.1], 0.7), AnisoBall([-0.6, 0.5], 0.3)]
    th = 0.4
    U = np.array([[np.cos(th), 1j * np.sin(th)], [1j * np.sin(th), np.cos(th)]])
    weights = {"ap-matrix": workloads.matrix_weight_2d(0),
               "conjugated": MatrixWeightSpec.conjugated(U, [
                   ScalarWeightSpec.poly_abs_power({(1, 0): 1.0}, 0.5),
                   ScalarWeightSpec.radial_power(-0.3)])}
    out = []
    for label, W in weights.items():
        for p in (1.5, 2.0, 3.0):
            out.append(("doubling_check", f"{label}:p={p:g}",
                        lambda W=W, p=p: doubling_check(W, p, family, [2.0, 4.0], quad, G),
                        lambda rep: {"rows": {f"{i} {name} {lam:g}": ratio
                                              for i, name, lam, ratio in rep.rows},
                                     "fitted_beta": rep.fitted_beta,
                                     "bound_constant": rep.bound_constant}))
        for p in (1.5, 2.0):
            out.append(("reducing_operators", f"{label}:p={p:g}",
                        lambda W=W, p=p: reducing_operators(W, family[0], p, quad, G),
                        # eigenvalues, not entries: an entry that is 0 up to
                        # rounding has no relative deviation to speak of
                        lambda pair: {"A_B": np.linalg.eigvalsh(pair.A_B).tolist(),
                                      "A_B_sharp": np.linalg.eigvalsh(pair.A_B_sharp).tolist(),
                                      "distortion": pair.distortion,
                                      "sharp_distortion": pair.sharp_distortion,
                                      "product_norm": pair.product_norm,
                                      "q_values": {f"{q:g}": list(v)
                                                   for q, v in pair.q_values.items()}}))
        out.append(("scalar_slice_ap", f"{label}:p=2",
                    lambda W=W: scalar_slice_ap(W, 2.0, [1.0, 0.0, 0.0][:W.N], family, quad, G),
                    lambda rep: {"values": rep.values.tolist(), "constant": rep.constant}))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the anisoweights package (default: %(default)s)")
    parser.add_argument("--write-record", action="store_true",
                        help=f"write the experiments' records to {RECORD.name}")
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
    saved = {} if args.write_record else json.loads(RECORD.read_text())
    records = {}
    for name, fixture, run, record in experiments():
        out = run()
        buf = io.BytesIO()
        Pickler(buf, PROTOCOL).dump(out)
        key = f"{name} {fixture}"
        records[key] = record(out)
        dev = f"{deviation(records[key], saved[key]):.2e}" if key in saved else "-"
        print(f"{key} {hashlib.sha256(buf.getvalue()).hexdigest()} - {dev}", flush=True)
    if args.write_record:
        RECORD.write_text(json.dumps(records, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
