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

Then come the public experiments that no workload runs, each on a small
fixture: `spectral_norms` on seeded real and complex 2 x 2 and 3 x 3
stacks at the scales 1e-150, 1 and 1e150 and on matrices whose two top
singular values nearly coincide; `doubling_check`, `reducing_operators`
and `scalar_slice_ap` per weight (the ap-matrix-2d weight of variant 0
and a complex conjugated weight) and exponent; `doubling_check` of the
ap-matrix-2d weight on a ball whose B, 2B and 4B put nodes on its
singular line, so that nudged matrix nodes show; `estimate_ap_constant`
and `reverse_holder_search` on a scalar weight whose singular line the
grid meets, so that nudged nodes show; `invariance_report` on a scalar
and a matrix weight;
`averaging_operator_check`, `sampling_inequality_experiment`,
`weighted_tail_bound`, `covering_intersection_stats`,
`bapu_independence_check`, and `analyze` then `synthesize` on the 74-patch
square-root partition of diag(1, 2) (the d >= 2 path of the
phi-transform, which besov-1d does not take: its coefficients, counts and
synthesized spectrum).  Their lines have the same columns: the
experiment, the fixture, the sha256 of the pickled output, `-` (an
experiment has no check), and the largest relative deviation of the
output's record from experiment_record.json beside this tool.
--write-record writes that whole file from DIR's outputs instead; write it
from the parent tree, so that a change's lines show how far it moved each
experiment:

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
    from anisoweights.besov import (BesovParams, analyze, bapu_independence_check, build_bapu,
                                    build_sqrt_bapu, mollifier_bump, synthesize)
    from anisoweights.dilation import DilationGroup
    from anisoweights.geometry import (AffineMap, AnisoBall, build_structured_covering,
                                       covering_intersection_stats)
    from anisoweights.muckenhoupt import (BallQuadrature, averaging_operator_check,
                                          default_ball_family, doubling_check,
                                          estimate_ap_constant, invariance_report,
                                          reducing_operators, reverse_holder_search,
                                          scalar_slice_ap, spectral_norms, weighted_tail_bound)
    from anisoweights.spectral import (FourierGrid, sampling_inequality_experiment,
                                       standard_ensemble)
    from anisoweights.weights import MatrixWeightSpec, ScalarWeightSpec

    # seeded real and complex 2 x 2 and 3 x 3 stacks at three scales, then
    # matrices U diag(1, 1 - gap, 1/2) V^H whose top singular values nearly
    # coincide (the 3 x 3 closed form hands the closest to LAPACK)
    rng, stacks = np.random.default_rng(34), []

    def draw(k, N, kind):  # k standard normal N x N matrices
        M = rng.standard_normal((k, N, N))
        return M + 1j * rng.standard_normal((k, N, N)) if kind == "complex" else M

    for N in (2, 3):
        for kind in ("real", "complex"):
            M = draw(64, N, kind)
            stacks += [(f"{N} {kind} {scale:g}", scale * M) for scale in (1e-150, 1.0, 1e150)]
            left, right = (np.linalg.qr(draw(8, N, kind))[0] for _ in range(2))
            s = np.tile([1.0, 1.0, 0.5][:N], (8, 1))
            s[:, 1] -= 10.0 ** -np.arange(1.0, 17.0, 2.0)
            stacks.append((f"{N} {kind} near-double",
                           np.einsum("kij,kj,klj->kil", left, s, right.conj())))
    G, quad = DilationGroup(np.diag([1.0, 2.0])), BallQuadrature("mapped_grid", 256)
    # two balls whose B, 2B and 4B put no node on either weight's singular set
    family = [AnisoBall([0.2, -0.1], 0.7), AnisoBall([-0.6, 0.5], 0.3)]
    th = 0.4
    U = np.array([[np.cos(th), 1j * np.sin(th)], [1j * np.sin(th), np.cos(th)]])
    weights = {"ap-matrix": workloads.matrix_weight_2d(0),
               "conjugated": MatrixWeightSpec.conjugated(U, [
                   ScalarWeightSpec.poly_abs_power({(1, 0): 1.0}, 0.5),
                   ScalarWeightSpec.radial_power(-0.3)])}
    out = [("spectral_norms", "stacks", lambda: {key: spectral_norms(M) for key, M in stacks},
            lambda norms: {key: n.tolist() for key, n in norms.items()})]
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

    S, q64 = ScalarWeightSpec, BallQuadrature("mapped_grid", 64)
    # B((1/8, 0), 1), 2B and 4B put 8, 16 and 32 nodes of the 64-node grid
    # on x1 = 0, where the ap-matrix weight is singular, at levels 0, 1, 2
    for p in (1.5, 2.0, 3.0):
        out.append(("doubling_check", f"ap-matrix-nudged:p={p:g}",
                    lambda p=p: doubling_check(weights["ap-matrix"], p,
                                               [AnisoBall([0.125, 0.0], 1.0)], [2.0, 4.0], q64, G),
                    lambda rep: {"rows": {f"{i} {name} {lam:g}": ratio
                                          for i, name, lam, ratio in rep.rows},
                                 "fitted_beta": rep.fitted_beta,
                                 "bound_constant": rep.bound_constant}))
    # |x1 - 1/8|^(1/2): the 64-node grid puts nodes of these ten balls on
    # x1 = 1/8, where the weight is 0, at levels 0 and 1
    offset, ladder_family = (S.poly_abs_power({(1, 0): 1.0, (0, 0): -0.125}, 0.5),
                             default_ball_family(G, 1.0, radii=[1.0, 2.0]))
    out.append(("estimate_ap_constant", "offset-sqrt:p=2",
                lambda: estimate_ap_constant(offset, 2.0, ladder_family, q64, G),
                lambda rep: {"values": rep.values.tolist(), "errors": rep.errors.tolist()}))
    out.append(("reverse_holder_search", "offset-sqrt",
                lambda: reverse_holder_search(offset, ladder_family, [1.5, 2.0, 3.0], q64, G),
                lambda res: {"r_best": res.r_best, "c1": res.c1,
                             "table": [ratio for _, ratio in res.table]}))
    T = AffineMap(G, 2.0, np.array([1.0, 0.0]))
    for label, W in {"radial": S.radial_power(-0.3), "ap-matrix": weights["ap-matrix"]}.items():
        out.append(("invariance_report", f"{label}:p=2",
                    lambda W=W: invariance_report(W, 2.0, T, family, quad, G),
                    lambda rows: {"composed": [r.composed for r in rows],
                                  "transported": [r.transported for r in rows],
                                  "combined_error": [r.combined_error for r in rows]}))
    fields = [lambda x: np.stack([1.0 + x[:, 0], x[:, 1] ** 2], axis=1),
              lambda x: np.stack([np.sin(3.0 * x[:, 0]), np.cos(x[:, 1])], axis=1)]
    out.append(("averaging_operator_check", "conjugated:p=2",
                lambda: averaging_operator_check(weights["conjugated"], family[0], 2.0, quad, G,
                                                 fields),
                lambda ratio: {"ratio": ratio}))
    G1, grid = DilationGroup([[1.0]]), FourierGrid(1, 128, 4 * np.pi)
    ball = AnisoBall([0.0], 1.0)
    out.append(("sampling_inequality_experiment", "sqrt:p=2",
                lambda: sampling_inequality_experiment(
                    S.radial_power(0.5), 2.0, ball, standard_ensemble(grid, G1, ball), q64, G1),
                lambda rows: {"ratio": [r.ratio for r in rows], "error": [r.error for r in rows]}))
    out.append(("weighted_tail_bound", "sqrt:L=3",
                lambda: weighted_tail_bound(S.radial_power(0.5), G1, 2.0, [1.0], 3.0, q64, 1.5),
                lambda res: {"ratio": res.ratio, "bound": res.bound, "terms": res.terms,
                             "doubling_constant": res.doubling_constant}))
    out.append(("covering_intersection_stats", "c=0.5,0.8",
                lambda: covering_intersection_stats(
                    build_structured_covering(G1, 0.5, 8.0, seed=11),
                    build_structured_covering(G1, 0.8, 8.0, seed=13)),
                lambda stats: {"neighbors": stats[0], "ratio": stats[1]}))

    def bapu_ratio():
        cov = build_structured_covering(G1, 0.5, 12.0, seed=0, candidates_per_shell=256)
        f = standard_ensemble(grid, G1, AnisoBall([0.0], 8.0), N=2)[0]
        return bapu_independence_check(f, S.radial_power(0.5), BesovParams(0.5, 2, 2),
                                       build_bapu(grid, cov),
                                       build_bapu(grid, cov, bump=mollifier_bump(cov.c)))

    out.append(("bapu_independence_check", "sqrt:mollifier", bapu_ratio,
                lambda ratio: {"ratio": ratio}))

    def phi_transform():  # the d >= 2 path of analyze and synthesize
        cov = build_structured_covering(G, 1.0, 1.0, seed=0, candidates_per_shell=256)
        sqrt_bapu = build_sqrt_bapu(FourierGrid(2, 16, np.pi), cov)
        f = standard_ensemble(sqrt_bapu.grid, G, AnisoBall([0.0, 0.0], 1.0), N=2)[3]
        c = analyze(f, sqrt_bapu)
        return c.counts, c.patches, synthesize(c, sqrt_bapu).spectrum

    out.append(("analyze+synthesize", "diag(1,2):74-patches", phi_transform,
                lambda res: {"coefficients": {str(k): float(np.linalg.norm(coef))
                                              for k, (_, coef) in res[1].items()},
                             "spectrum": np.linalg.norm(res[2].reshape(2, -1), axis=1).tolist()}))
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
