import numpy as np
import pytest

from anisoweights.besov import (
    BesovParams,
    DenominatorVanishes,
    analyze,
    bapu_independence_check,
    besov_norm,
    build_bapu,
    build_sqrt_bapu,
    discrete_b_norm,
    mollifier_bump,
    synthesize,
)
from anisoweights.dilation import new_dilation_group
from anisoweights.geometry import AnisoBall, ball_volume, build_structured_covering
from anisoweights.muckenhoupt import _local_scale, safe_power_values, weighted_magnitudes
from anisoweights.spectral import (
    FourierGrid,
    TruncationInsufficient,
    _riemann_norm,
    standard_ensemble,
)
from anisoweights.weights import MatrixWeightSpec, ScalarWeightSpec

PARAMS = BesovParams(0.5, 2, 2)


@pytest.fixture(scope="module")
def G1():
    return new_dilation_group([[1.0]])


@pytest.fixture(scope="module")
def grid():
    return FourierGrid(1, 128, 4 * np.pi)


@pytest.fixture(scope="module")
def covering(G1):
    return build_structured_covering(G1, 0.5, 12.0, seed=0, candidates_per_shell=256)


@pytest.fixture(scope="module")
def bapu(grid, covering):
    return build_bapu(grid, covering)


@pytest.fixture(scope="module")
def sqrt_bapu(grid, covering):
    return build_sqrt_bapu(grid, covering)


@pytest.fixture(scope="module")
def ensemble(grid, G1):
    return standard_ensemble(grid, G1, AnisoBall([0.0], 8.0), N=2)


@pytest.fixture(scope="module")
def coefficients(ensemble, sqrt_bapu):
    return [analyze(f, sqrt_bapu) for f in ensemble]


def both_norms(f, c, W, bapu):
    return besov_norm(f, W, PARAMS, bapu), discrete_b_norm(c, W, PARAMS)


def sqrt_weight():
    """diag(|x|^1/2, 1)."""
    return MatrixWeightSpec.diagonal([ScalarWeightSpec.radial_power(0.5),
                                      ScalarWeightSpec.constant(1.0)])


def per_coefficient_terms(coeffs, W, params):
    """Per-patch terms of discrete_b_norm, one quasi-norm call per coefficient cell."""
    grid, group = coeffs.grid, coeffs.group
    pts = grid.spatial_points()
    root = safe_power_values(W, pts, 1.0 / params.p, _local_scale(pts))
    terms = []
    for k in sorted(coeffs.patches):
        ls, coef = coeffs.patches[k]
        t_k = float(coeffs.t[k])
        rho = coeffs.r0 / t_k
        vol_root = np.sqrt(ball_volume(group, rho))
        field_k = np.zeros((coef.shape[1], len(pts)), dtype=complex)
        reach = group.euclidean_radius_bound(rho)
        centers = coeffs.positions(k, ls)
        for i in range(len(ls)):
            near = np.flatnonzero(np.max(np.abs(pts - centers[i]), axis=1) <= reach)
            cells = near[group.quasi_norm(pts[near] - centers[i]) < rho]
            field_k[:, cells] += (coef[i] / vol_root)[:, None]
        mags = weighted_magnitudes(root, field_k.T)
        terms.append(t_k ** params.s * _riemann_norm(mags, params.p, grid.h ** grid.d))
    return np.asarray(terms)


def two_members(ensemble, coefficients):
    # the centred gaussian and the random smooth member: the per-coefficient
    # reference is the slow step of this module, and two members cover both
    # field shapes
    return [(ensemble[i], coefficients[i]) for i in (0, 3)]


class TestPartition:
    def test_plain_partition_of_unity(self, bapu):
        assert bapu.partition_defect() <= 1e-15

    def test_sqrt_partition_of_unity(self, sqrt_bapu):
        assert sqrt_bapu.partition_defect() <= 1e-15

    def test_vanishing_bump_raises(self, grid, covering):
        with pytest.raises(DenominatorVanishes):
            build_bapu(grid, covering, bump=lambda q: np.zeros(np.shape(q)))


class TestFrame:
    def test_reconstruction(self, ensemble, coefficients, sqrt_bapu):
        for f, c in zip(ensemble, coefficients):
            g = synthesize(c, sqrt_bapu)
            err = np.abs(g.values - f.values).max() / np.abs(f.values).max()
            assert err <= 1e-12


class TestBesovNorms:
    def test_identity_weight_matches_unweighted(self, ensemble, coefficients, bapu):
        W = MatrixWeightSpec.identity(2)
        for f, c in two_members(ensemble, coefficients):
            assert both_norms(f, c, None, bapu) == both_norms(f, c, W, bapu)

    def test_scalar_weight_matches_diagonal(self, ensemble, coefficients, bapu):
        w = ScalarWeightSpec.radial_power(0.5)
        W = MatrixWeightSpec.diagonal([w, w])
        for f, c in two_members(ensemble, coefficients):
            scalar = both_norms(f, c, w, bapu)
            matrix = both_norms(f, c, W, bapu)
            for a, b in zip(scalar, matrix):
                assert a == pytest.approx(b, rel=1e-14, abs=0.0)

    def test_field_wider_than_covering_raises(self, G1, grid, ensemble):
        narrow = build_structured_covering(G1, 0.5, 2.0, seed=0, candidates_per_shell=256)
        with pytest.raises(TruncationInsufficient):
            besov_norm(ensemble[0], None, PARAMS, build_bapu(grid, narrow))

    def test_discrete_norm_matches_per_coefficient_loop(self, ensemble, coefficients):
        sup = BesovParams(0.5, 2, np.inf)
        for W in (None, sqrt_weight()):
            for _, c in two_members(ensemble, coefficients):
                terms = per_coefficient_terms(c, W, PARAMS)
                assert discrete_b_norm(c, W, PARAMS) == float((terms ** 2).sum() ** 0.5)
                assert discrete_b_norm(c, W, sup) == float(terms.max())

    def test_norm_ratio_band(self, ensemble, coefficients, bapu):
        # measured 3.138..3.330 over the four fields and both weights
        for W in (None, sqrt_weight()):
            for f, c in zip(ensemble, coefficients):
                ratio = discrete_b_norm(c, W, PARAMS) / besov_norm(f, W, PARAMS, bapu)
                assert 3.1 <= ratio <= 3.35

    def test_partition_independence(self, grid, covering, ensemble, bapu):
        # measured deviation at most 5.1e-4
        other = build_bapu(grid, covering, bump=mollifier_bump(covering.c))
        for W in (None, sqrt_weight()):
            for f in ensemble:
                ratio = bapu_independence_check(f, W, PARAMS, bapu, other)
                assert abs(ratio - 1.0) <= 1e-3
