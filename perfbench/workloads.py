"""The four benchmark workloads, driven through the public anisoweights API.

Each workload builds its fixed inputs from the seed (``build``), runs a
short warm-up (``warm``), runs the timed main phase (``main``) and checks
the outputs (``check``).  Library functions are looked up on their module
at call time, so that wrappers installed by the tracer see every call.

Seeds pick one of ``VARIANTS`` input variants (``seed % VARIANTS``).
Variant 0 is the nominal configuration; the others perturb the weight
without changing the amount of work, so timings compare across seeds.  The reference outputs of every variant are committed in
``reference.json`` (see ``make_reference.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from anisoweights import besov, dilation, geometry, muckenhoupt, spectral, weights

VARIANTS = 16
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Relative tolerance against the committed references.  Rewrites planned
# for the solver and the phi-transform move results by ~3e-13 and ~1e-12;
# a wrong answer moves them by far more than 1e-9.
RTOL = 1e-9
# synthesize(analyze(f)) reproduces f to ~3e-16 of its sup norm
RECONSTRUCTION_TOL = 1e-12


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _variant_uniform(variant: int, stream: int, lo: float, hi: float) -> float:
    rng = np.random.default_rng([variant, stream])
    return float(lo + (hi - lo) * rng.random())


def close(value: float, reference: float) -> bool:
    return bool(abs(value - reference) <= RTOL * abs(reference))


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def item(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def matrix_weight_2d(variant: int):
    """3x3 weight diag(|x1|^1/2, |x|^1/2, 2) with off-diagonals x2 + b and x1 + a.

    Variant 0 has a = 1/2, b = 0; the others draw a in [1/4, 3/4] and b in
    [-1/4, 1/4].
    """
    if variant == 0:
        a, b = 0.5, 0.0
    else:
        a = _variant_uniform(variant, 2, 0.25, 0.75)
        b = _variant_uniform(variant, 3, -0.25, 0.25)
    S = weights.ScalarWeightSpec
    return weights.MatrixWeightSpec.diag_dominant(
        [S.poly_abs_power({(1, 0): 1.0}, 0.5), S.radial_power(0.5), S.constant(2.0)],
        {(0, 1): {(0, 1): 1.0, (0, 0): b}, (1, 2): {(1, 0): 1.0, (0, 0): a}},
        0.5,
    )


class BesovFrame:
    """besov-1d: the phi-transform pipeline of norm_equivalence_experiment."""

    name = "besov-1d"
    params = besov.BesovParams(0.5, 2, 2)

    def build(self, seed: int) -> dict:
        variant = seed % VARIANTS
        gamma = 0.5 if variant == 0 else _variant_uniform(variant, 1, 0.3, 0.7)
        G = dilation.DilationGroup([[1.0]])
        grid = spectral.FourierGrid(1, 256, 4 * np.pi)
        # the 1-D triangle constant is exactly 1, so the covering does not
        # depend on its seed; a fixed one keeps every variant on one covering
        cov = geometry.build_structured_covering(
            G, 0.5, 24.0, seed=0, candidates_per_shell=256)
        W = weights.MatrixWeightSpec.diagonal(
            [weights.ScalarWeightSpec.radial_power(gamma),
             weights.ScalarWeightSpec.constant(1.0)])
        ensemble = spectral.standard_ensemble(
            grid, G, geometry.AnisoBall([0.0], 16.0), N=2, seed=0)
        return {
            "W": W,
            "ensemble": ensemble,
            "bapu": besov.build_bapu(grid, cov),
            "sqrt_bapu": besov.build_sqrt_bapu(grid, cov),
        }

    def _experiment(self, state: dict, fields) -> list:
        return besov.norm_equivalence_experiment(
            fields, state["W"], [self.params], state["bapu"], state["sqrt_bapu"])

    def warm(self, state: dict) -> None:
        self._experiment(state, state["ensemble"][:1])

    def main(self, state: dict) -> list:
        return self._experiment(state, state["ensemble"])

    def items(self, state: dict) -> int:
        return len(state["ensemble"])

    def reference(self, state: dict, rows: list) -> dict:
        out = {}
        for row in rows:
            out.setdefault(row.field_id.rstrip("*"), []).append(row.ratio)
        return out

    def check(self, state: dict, rows: list, ref: dict, tally: Tally) -> None:
        got = self.reference(state, rows)
        for f in state["ensemble"]:
            want = ref[f.field_id]
            have = got.get(f.field_id, [])
            ok = len(have) == len(want) and all(map(close, have, want))
            tally.item(ok, f"{self.name} {f.field_id}: ratios {have} != {want}")

    def result_err(self, state: dict, rows: list, tally: Tally) -> float:
        """max over fields of |synthesize(analyze f) - f|_inf / |f|_inf."""
        worst = 0.0
        for f in state["ensemble"]:
            g = besov.synthesize(besov.analyze(f, state["sqrt_bapu"]), state["sqrt_bapu"])
            err = float(np.abs(g.values - f.values).max() / np.abs(f.values).max())
            tally.item(err <= RECONSTRUCTION_TOL,
                       f"{self.name} {f.field_id}: reconstruction error {err:.3g}")
            worst = max(worst, err)
        return worst


class Covering2d:
    """cover-2d: greedy structured covering plus its sampled validation."""

    name = "cover-2d"
    max_norm = 4.0
    validity_samples = 4096

    def build(self, seed: int) -> dict:
        return {"seed": seed, "G": dilation.DilationGroup(np.diag([0.5, 1.0]))}

    def _covering(self, state: dict, max_norm: float, candidates: int):
        return geometry.build_structured_covering(
            state["G"], 0.5, max_norm, seed=state["seed"],
            candidates_per_shell=candidates, validation_samples=1024)

    def warm(self, state: dict) -> None:
        self._covering(state, 1.0, 128)

    def main(self, state: dict):
        return self._covering(state, self.max_norm, 1024)

    def items(self, state: dict) -> int:
        return 1

    def check(self, state: dict, cov, ref, tally: Tally) -> None:
        # identical coverings share one verdict
        key = cov.centers.tobytes() + cov.radii.tobytes()
        verdicts = state.setdefault("verdicts", {})
        if key not in verdicts:
            verdicts[key] = covering_violations(
                state["G"], cov, self.max_norm, state["seed"], self.validity_samples)
        problems = verdicts[key]
        tally.item(not problems, f"{self.name}: {'; '.join(problems)}")

    def result_err(self, state: dict, cov, tally: Tally) -> float:
        """max over balls of the radius error against the closed-form norm.

        For A = diag(1/2, 1), |x|_A = (x1^2 + sqrt(x1^4 + 4 x2^2)) / 2.
        """
        x1, x2 = np.abs(cov.centers).T
        exact = cov.c * (1.0 + 0.5 * (x1 ** 2 + np.sqrt(x1 ** 4 + 4.0 * x2 ** 2)))
        return float(np.max(np.abs(cov.radii - exact) / exact))


def region_sample(G, max_norm: float, n: int, seed: int) -> np.ndarray:
    """n uniform points of {|xi|_A <= max_norm}, by rejection from a box."""
    rng = np.random.default_rng([seed, 2])
    reach = G.euclidean_radius_bound(max_norm)
    batches, total = [], 0
    while total < n:
        cand = rng.uniform(-reach, reach, size=(n, G.d))
        cand = cand[G.quasi_norm(cand) <= max_norm]
        batches.append(cand)
        total += len(cand)
    return np.concatenate(batches)[:n]


def covering_violations(G, cov, max_norm: float, seed: int, n: int) -> list[str]:
    """Independent validity check of a structured covering.

    Every point of a fresh seeded sample of {|xi|_A <= max_norm} must lie in
    some ball, and every pair of centres must be separated by more than
    separation_factor * min(<zeta_i>, <zeta_j>).  Exact centres are not
    compared: a solver change may flip one greedy decision and stay valid.
    """
    problems = []
    pts = region_sample(G, max_norm, n, seed)
    covered = np.zeros(len(pts), dtype=bool)
    for c, r in zip(cov.centers, cov.radii):
        reach = G.euclidean_radius_bound(r)
        near = np.flatnonzero(np.abs(pts - c).max(axis=1) <= reach)
        covered[near[G.quasi_norm(pts[near] - c) < r]] = True
    if not covered.all():
        problems.append(f"{int((~covered).sum())} of {n} sampled points uncovered")
    i, j = np.triu_indices(len(cov), 1)
    dist = G.quasi_norm(cov.centers[i] - cov.centers[j])
    close_pairs = int(np.sum(dist <= cov.separation_factor * np.minimum(cov.t[i], cov.t[j])))
    if close_pairs:
        problems.append(f"{close_pairs} centre pairs closer than the separation")
    return problems


class ApMatrix2d:
    """ap-matrix-2d: matrix A_p ladder over an anisotropic ball family."""

    name = "ap-matrix-2d"
    p = 2.0

    def build(self, seed: int) -> dict:
        G = dilation.DilationGroup(np.diag([1.0, 2.0]))
        return {
            "G": G,
            "W": matrix_weight_2d(seed % VARIANTS),
            "family": muckenhoupt.default_ball_family(G, 2.0, radii=[0.25, 0.5, 1.0, 2.0]),
            "quad": muckenhoupt.BallQuadrature("mapped_grid", 1024),
        }

    def _estimate(self, state: dict, family):
        return muckenhoupt.estimate_ap_constant(
            state["W"], self.p, family, state["quad"], state["G"])

    def warm(self, state: dict) -> None:
        self._estimate(state, state["family"][:8])

    def main(self, state: dict):
        return self._estimate(state, state["family"])

    def items(self, state: dict) -> int:
        return len(state["family"]) + 1

    def reference(self, state: dict, report) -> dict:
        return {"values": report.values.tolist(), "constant": report.constant}

    def check(self, state: dict, report, ref: dict, tally: Tally) -> None:
        values = np.asarray(report.values, dtype=float)
        want = ref["values"]
        for i, B in enumerate(state["family"]):
            ok = i < len(values) and close(float(values[i]), want[i])
            have = float(values[i]) if i < len(values) else None
            tally.item(ok, f"{self.name} ball {i} (c={B.center.tolist()}, "
                           f"r={B.radius}): {have} != {want[i]}")
        tally.item(close(report.constant, ref["constant"]),
                   f"{self.name}: constant {report.constant} != {ref['constant']}")

    def result_err(self, state: dict, report, tally: Tally) -> float:
        """max over balls of ladder error / value."""
        return float(np.max(report.errors / report.values))


class Multiplier2d:
    """multiplier-2d: band-limited multiplier ratios on whole 2-D grids."""

    name = "multiplier-2d"
    p = 2.0

    def build(self, seed: int) -> dict:
        G = dilation.DilationGroup(np.diag([1.0, 2.0]))
        return {
            "G": G,
            "W": matrix_weight_2d(seed % VARIANTS),
            "grid": spectral.FourierGrid(2, 128, 8 * np.pi),
        }

    @staticmethod
    def _profile(G):
        def profile(eta):
            return spectral.poly_plateau(G.quasi_norm(eta), 0.5, 0.9)

        return profile

    def warm(self, state: dict) -> None:
        """One row (first field, R = 1) through the experiment's own steps."""
        G, grid = state["G"], state["grid"]
        ball = geometry.AnisoBall([0.0, 0.0], 1.0)
        phi = spectral.MultiplierSpec.from_profile(grid, G, self._profile(G), ball)
        f = spectral.standard_ensemble(grid, G, ball, N=3, seed=0)[0]
        spectral.weighted_lp_norm_with_audit(
            spectral.apply_multiplier(phi, f), state["W"], self.p)

    def main(self, state: dict) -> list:
        G = state["G"]
        return spectral.multiplier_bound_experiment(
            state["W"], self.p, self._profile(G), [1.0, 2.0], [(0.0, 0.0)],
            state["grid"], G, ensemble_seed=0, N=3)

    def items(self, state: dict) -> int:
        return 8

    def reference(self, state: dict, rows: list) -> dict:
        return {f"{row.R:g}/{row.field_id}": row.ratio for row in rows}

    def check(self, state: dict, rows: list, ref: dict, tally: Tally) -> None:
        got = self.reference(state, rows)
        for key, want in ref.items():
            have = got.get(key)
            tally.item(have is not None and close(have, want),
                       f"{self.name} {key}: ratio {have} != {want}")

    def result_err(self, state: dict, rows: list, tally: Tally) -> float:
        """max over rows of audit error / ratio."""
        return max(row.error / row.ratio for row in rows)


WORKLOADS = {w.name: w for w in (BesovFrame(), Covering2d(), ApMatrix2d(), Multiplier2d())}
