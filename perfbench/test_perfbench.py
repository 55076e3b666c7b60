"""Self-tests of the benchmark: trace bookkeeping and the output checks."""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from anisoweights import besov, dilation, geometry, muckenhoupt, spectral, weights  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def traced_tiny():
    """Hand-countable calls on tiny inputs, recorded through every layer target."""
    G = dilation.DilationGroup(np.diag([1.0, 2.0]))
    S = weights.ScalarWeightSpec
    # constant diagonal: no singular nodes, so no retries change the counts
    W = weights.MatrixWeightSpec.diag_dominant(
        [S.constant(1.0), S.constant(2.0), S.constant(3.0)], {(0, 1): {(1, 0): 1.0}}, 0.5)
    grid = spectral.FourierGrid(2, 8, 2 * np.pi)
    f = spectral.BandLimitedField.from_values(
        grid, G, np.ones((3,) + grid.shape), geometry.AnisoBall([0.0, 0.0], 1.0))
    pts = np.array([[1.0, 0.5], [0.2, -0.3], [2.0, 1.0]])
    with Tracer(layers.TARGETS) as tracer:
        with tracer.record() as stats:
            G.quasi_norm(pts)                                # 3 points
            G.bracket(pts[0])                                # via the method, 1 point
            spectral.weighted_lp_norm(f, W, 2.0)             # 64 weight points
            besov.safe_power_values(W, pts, 0.5, 1.0)        # from-import binding
            muckenhoupt.safe_power_values(W, pts, 0.5, 1.0)  # defining module
            spectral.MultiplierSpec.from_profile(            # classmethod: dilate +
                grid, G, lambda eta: np.ones(len(eta)),      # one 64-point norm
                geometry.AnisoBall([0.0, 0.0], 1.0))
            grid.forward(f.values)                           # 3 x 8 x 8 points
    return tracer, stats


def test_traced_calls_match_hand_count(traced_tiny):
    tracer, stats = traced_tiny
    assert tracer.missing == []
    flat = layers.flatten(stats)
    expected = {
        "dilation.quasi_norm.calls": 3,
        "dilation.quasi_norm.points": 3 + 1 + 64,
        "dilation.dilate.calls": 1,
        "muckenhoupt.safe_power_values.calls": 3,
        "weights.power_values.calls": 3,
        "weights.power_values.points": 64 + 3 + 3,
        "weights.values.calls": 3,
        "weights.hermitian_power.calls": 3,
        "weights.hermitian_power.matrices": 64 + 3 + 3,
        "spectral.weighted_lp_norm.calls": 1,
        "spectral.from_profile.calls": 1,
        "spectral.fft.calls": 1,
        "spectral.fft.points": 3 * 64,
        "besov.analyze.calls": 0,
    }
    assert {k: flat.get(k, 0) for k in expected} == expected


def test_self_times_sum_to_root(traced_tiny):
    _, stats = traced_tiny
    assert all(s >= 0.0 for s in stats.self_s.values())
    total = sum(stats.self_s.values()) + stats.root_self_s
    assert total == pytest.approx(stats.root_s, rel=1e-9, abs=1e-9)


def test_wrappers_removed_after_tracing(traced_tiny):
    assert besov.safe_power_values is muckenhoupt.safe_power_values
    assert not hasattr(dilation.DilationGroup.quasi_norm, "__wrapped__")
    assert not hasattr(besov.analyze, "__wrapped__")


def _multiplier_rows(ref):
    rows = []
    for key, ratio in ref.items():
        R, field_id = key.split("/")
        rows.append(spectral.ExperimentRow(float(R), (0.0, 0.0), field_id, ratio, 0.0))
    return rows


def _besov_rows(ref):
    return [besov.EquivalenceRow(direction, field_id + tag, 0.5, 2, 2, ratio)
            for field_id, ratios in ref.items()
            for direction, tag, ratio in zip(
                ("coefficient", "reconstruction", "reconstruction"), ("", "", "*"), ratios)]


def _scale_first(out, factor):
    if isinstance(out, list):
        return [dataclasses.replace(out[0], ratio=out[0].ratio * factor)] + out[1:]
    values = out.values.copy()
    values[0] *= factor
    return SimpleNamespace(values=values, constant=out.constant)


@pytest.mark.parametrize("name", ["besov-1d", "ap-matrix-2d", "multiplier-2d"])
def test_reference_check_rejects_perturbed_result(name):
    wl = workloads.WORKLOADS[name]
    ref = workloads.load_references()[name]["3"]
    if name == "ap-matrix-2d":
        state = {"family": [geometry.AnisoBall([0.0, 0.0], 1.0)] * len(ref["values"])}
        out = SimpleNamespace(values=np.array(ref["values"]), constant=ref["constant"])
    elif name == "besov-1d":
        state = {"ensemble": [SimpleNamespace(field_id=k) for k in ref]}
        out = _besov_rows(ref)
    else:
        state, out = {}, _multiplier_rows(ref)

    def failures(result):
        tally = workloads.Tally()
        wl.check(state, result, ref, tally)
        assert tally.attempted > 0
        return tally.failed

    assert failures(out) == 0
    assert failures(_scale_first(out, 1.0 + 1e-12)) == 0
    assert failures(_scale_first(out, 1.0 + 1e-6)) == 1


@pytest.fixture(scope="module")
def small_covering():
    G = dilation.DilationGroup(np.diag([0.5, 1.0]))
    cov = geometry.build_structured_covering(
        G, 0.5, 1.0, seed=0, candidates_per_shell=256, validation_samples=256)
    return G, cov


def test_covering_check_accepts_valid_and_rejects_broken(small_covering):
    G, cov = small_covering
    assert workloads.covering_violations(G, cov, 1.0, seed=1, n=1024) == []
    shrunk = dataclasses.replace(cov, radii=0.1 * cov.radii)
    assert "uncovered" in " ".join(workloads.covering_violations(G, shrunk, 1.0, 1, 1024))
    doubled = dataclasses.replace(
        cov, centers=np.vstack([cov.centers, cov.centers[:1] + 1e-9]),
        t=np.append(cov.t, cov.t[0]), radii=np.append(cov.radii, cov.radii[0]))
    assert "separation" in " ".join(workloads.covering_violations(G, doubled, 1.0, 1, 1024))


def test_closed_form_norm_used_by_cover_result_err(small_covering):
    G, cov = small_covering
    err = workloads.Covering2d().result_err({}, cov, workloads.Tally())
    assert 0.0 <= err < 1e-10
    wrong = dataclasses.replace(cov, radii=cov.radii * (1.0 + 1e-6))
    assert workloads.Covering2d().result_err({}, wrong, workloads.Tally()) > 5e-7


def test_speed_clock_scales_work_by_probe_time(monkeypatch):
    before = signal.getsignal(signal.SIGALRM)
    monkeypatch.setattr(speed, "INTERVAL_S", 0.01)
    monkeypatch.setattr(speed, "probe_s", lambda: 2.0 * speed.NOMINAL_PROBE_S)
    start = time.perf_counter()
    with speed.SpeedClock() as clock:
        while time.perf_counter() - start < 0.1:
            pass
    assert clock.probes >= 2
    assert 0.0 < clock.raw_s <= time.perf_counter() - start
    assert clock.norm_s == pytest.approx(0.5 * clock.raw_s, rel=1e-12)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == before


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "setup_s", "peak_rss_mb", "result_err"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER_METRICS
