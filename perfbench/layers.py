"""Traced layers of anisoweights and the per-layer metrics built from them.

Metric names are ``<module>.<layer>.<quantity>``.  Unprefixed names cover
the main phase of one traced pass; ``setup.``-prefixed names cover one
traced build of the workload's fixed inputs.  A layer a workload does not
use reads 0.
"""

from __future__ import annotations

import numpy as np

from anisoweights import besov, dilation, geometry, muckenhoupt, spectral, weights
from tracing import Stats, Target


# a quasi-norm call on at most this many points counts as small
SMALL_CALL = 10


def _points(call, result):
    return {"points": np.size(result)}


def _norm_points(call, result):
    n = np.size(result)
    return {"points": n, "small_calls": int(n <= SMALL_CALL)}


def _power_points(call, result):
    return {"points": result.shape[0] if result.ndim == 3 else 1}


def _matrices(call, result):
    return {"matrices": int(np.prod(np.shape(result)[:-2]))}


def _norm_matrices(call, result):
    return {"matrices": np.size(result)}


def _nodes(call, result):
    return {"nodes": len(result)}


def _covering(call, result):
    per_shell = call.arguments["candidates_per_shell"]
    return {
        "balls": len(result),
        "height": result.height,
        "candidates": per_shell * len(result.shells) if per_shell else 0,
    }


def _analyze(call, result):
    supports = call.arguments["sqrt_bapu"].supports
    sizes = {k: int(np.prod(m)) for k, m in result.counts.items()}
    return {
        "coefficients": result.n_coefficients(),
        "modulations": sum(sizes.values()),
        "matrix_entries": sum(m * len(supports[k]) for k, m in sizes.items()),
    }


TARGETS = [
    Target("dilation.quasi_norm", dilation.DilationGroup, "quasi_norm", _norm_points),
    Target("dilation.dilate", dilation.DilationGroup, "dilate"),
    Target("geometry.build_structured_covering", geometry,
           "build_structured_covering", _covering),
    Target("geometry.cover_count", geometry.StructuredCovering, "cover_count"),
    Target("weights.power_values", weights.MatrixWeightSpec, "power_values",
           _power_points),
    Target("weights.hermitian_power", weights, "hermitian_power", _matrices),
    Target("weights.values", weights.MatrixWeightSpec, "values"),
    Target("weights.values", weights.MatrixWeightSpec, "_values"),
    Target("weights.values", weights.ScalarWeightSpec, "values"),
    Target("weights.values", weights.ScalarWeightSpec, "_values"),
    Target("muckenhoupt.spectral_norms", muckenhoupt, "spectral_norms",
           _norm_matrices),
    Target("muckenhoupt.ap_ball_quantity_ladder", muckenhoupt,
           "ap_ball_quantity_ladder"),
    Target("muckenhoupt.ball_nodes", muckenhoupt.BallQuadrature, "ball_nodes",
           _nodes),
    Target("muckenhoupt.safe_power_values", muckenhoupt, "safe_power_values"),
    Target("spectral.fft", spectral.FourierGrid, "forward", _points),
    Target("spectral.fft", spectral.FourierGrid, "inverse", _points),
    Target("spectral.weighted_lp_norm", spectral, "weighted_lp_norm"),
    Target("spectral.weighted_lp_norm", spectral, "weighted_lp_norm_with_audit"),
    Target("spectral.from_profile", spectral.MultiplierSpec, "from_profile"),
    Target("spectral.standard_ensemble", spectral, "standard_ensemble"),
    Target("spectral.apply_multiplier", spectral, "apply_multiplier"),
    Target("spectral.decay_certificate", spectral, "decay_certificate"),
    Target("besov.build_partition", besov, "_build_partition"),
    Target("besov.analyze", besov, "analyze", _analyze),
    Target("besov.synthesize", besov, "synthesize"),
    Target("besov.besov_norm", besov, "besov_norm"),
    Target("besov.discrete_b_norm", besov, "discrete_b_norm"),
]

# (name, unit) of every main-phase metric, in report order
MAIN_METRICS = [
    ("dilation.quasi_norm.calls", "count"),
    ("dilation.quasi_norm.points", "count"),
    ("dilation.quasi_norm.small_calls", "count"),
    ("dilation.quasi_norm.self_s", "s"),
    ("dilation.dilate.calls", "count"),
    ("dilation.dilate.self_s", "s"),
    ("geometry.build_structured_covering.calls", "count"),
    ("geometry.build_structured_covering.self_s", "s"),
    ("geometry.cover_count.calls", "count"),
    ("geometry.cover_count.self_s", "s"),
    ("geometry.covering.balls", "count"),
    ("geometry.covering.height", "count"),
    ("geometry.covering.accept_ratio", "ratio"),
    ("weights.power_values.calls", "count"),
    ("weights.power_values.points", "count"),
    ("weights.power_values.self_s", "s"),
    ("weights.hermitian_power.calls", "count"),
    ("weights.hermitian_power.matrices", "count"),
    ("weights.hermitian_power.self_s", "s"),
    ("weights.values.calls", "count"),
    ("weights.values.self_s", "s"),
    ("muckenhoupt.spectral_norms.calls", "count"),
    ("muckenhoupt.spectral_norms.matrices", "count"),
    ("muckenhoupt.spectral_norms.self_s", "s"),
    ("muckenhoupt.ap_ball_quantity_ladder.calls", "count"),
    ("muckenhoupt.ap_ball_quantity_ladder.self_s", "s"),
    ("muckenhoupt.ball_nodes.calls", "count"),
    ("muckenhoupt.ball_nodes.nodes", "count"),
    ("muckenhoupt.ball_nodes.self_s", "s"),
    ("muckenhoupt.safe_power_values.calls", "count"),
    ("muckenhoupt.safe_power_values.self_s", "s"),
    ("spectral.fft.calls", "count"),
    ("spectral.fft.points", "count"),
    ("spectral.fft.self_s", "s"),
    ("spectral.weighted_lp_norm.calls", "count"),
    ("spectral.weighted_lp_norm.self_s", "s"),
    ("spectral.from_profile.self_s", "s"),
    ("spectral.standard_ensemble.self_s", "s"),
    ("spectral.apply_multiplier.self_s", "s"),
    ("spectral.decay_certificate.self_s", "s"),
    ("besov.analyze.calls", "count"),
    ("besov.analyze.coefficients", "count"),
    ("besov.analyze.matrix_entries", "count"),
    ("besov.analyze.kept_ratio", "ratio"),
    ("besov.analyze.self_s", "s"),
    ("besov.synthesize.calls", "count"),
    ("besov.synthesize.self_s", "s"),
    ("besov.besov_norm.calls", "count"),
    ("besov.besov_norm.self_s", "s"),
    ("besov.discrete_b_norm.calls", "count"),
    ("besov.discrete_b_norm.self_s", "s"),
    ("trace.root_self_s", "s"),
]

# the layers that building the fixed inputs exercises
SETUP_METRICS = [
    ("setup.dilation.quasi_norm.calls", "count"),
    ("setup.dilation.quasi_norm.points", "count"),
    ("setup.dilation.quasi_norm.self_s", "s"),
    ("setup.geometry.build_structured_covering.self_s", "s"),
    ("setup.geometry.cover_count.self_s", "s"),
    ("setup.geometry.covering.balls", "count"),
    ("setup.geometry.covering.height", "count"),
    ("setup.geometry.covering.accept_ratio", "ratio"),
    ("setup.besov.build_partition.calls", "count"),
    ("setup.besov.build_partition.self_s", "s"),
    ("setup.spectral.standard_ensemble.self_s", "s"),
    ("setup.spectral.fft.self_s", "s"),
]

OVERHEAD_METRIC = ("trace.overhead_s", "s")

PER_LAYER_METRICS = MAIN_METRICS + SETUP_METRICS + [OVERHEAD_METRIC]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def flatten(stats: Stats) -> dict[str, float]:
    """Every counter of one recording under its metric name."""
    out = {f"{name}.calls": float(n) for name, n in stats.calls.items()}
    out.update({f"{name}.self_s": s for name, s in stats.self_s.items()})
    out.update(stats.counts)
    out["geometry.covering.accept_ratio"] = _ratio(
        out.get("geometry.build_structured_covering.balls", 0.0),
        out.get("geometry.build_structured_covering.candidates", 0.0))
    for key in ("balls", "height"):
        out[f"geometry.covering.{key}"] = out.get(
            f"geometry.build_structured_covering.{key}", 0.0)
    out["besov.analyze.kept_ratio"] = _ratio(
        out.get("besov.analyze.coefficients", 0.0),
        out.get("besov.analyze.modulations", 0.0))
    out["trace.root_self_s"] = stats.root_self_s
    return out


def layer_report(main: Stats, setup: Stats, overhead_s: float) -> dict:
    """The per-layer metrics block of the result line."""
    values = flatten(main)
    values.update({f"setup.{k}": v for k, v in flatten(setup).items()})
    values[OVERHEAD_METRIC[0]] = overhead_s
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER_METRICS}
