import numpy as np
import pytest

from anisoweights.besov import (
    BesovParams,
    DenominatorVanishes,
    analyze,
    besov_norm,
    build_bapu,
    build_sqrt_bapu,
    discrete_b_norm,
    synthesize,
)
from anisoweights.dilation import new_dilation_group
from anisoweights.geometry import AnisoBall, build_structured_covering
from anisoweights.spectral import FourierGrid, TruncationInsufficient, standard_ensemble
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


def two_members(ensemble, coefficients):
    # the centred gaussian and the random smooth member: discrete_b_norm is
    # the slow step of this module, and two members cover both field shapes
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
