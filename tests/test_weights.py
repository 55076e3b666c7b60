import numpy as np
import pytest

from anisoweights.dilation import DilationGroup
from anisoweights.geometry import AffineMap
from anisoweights.weights import (
    MatrixWeightSpec,
    ScalarWeightSpec,
    SingularWeight,
    hermitian_power,
    matrix_norm_equivalence_check,
)


class TestScalar:
    def test_constant(self):
        w = ScalarWeightSpec.constant(1.0)
        assert float(w.values([0.3, 0.7])) == 1.0

    def test_radial_power(self):
        w = ScalarWeightSpec.radial_power(0.5)
        assert float(w.values([4.0])) == pytest.approx(2.0)

    def test_poly_abs_power(self):
        w = ScalarWeightSpec.poly_abs_power({(1, 0): 1.0}, 2.0)
        assert float(w.values([3.0, 5.0])) == pytest.approx(9.0)
        assert w.degree == 1

    def test_product(self):
        w = ScalarWeightSpec.product(
            [ScalarWeightSpec.radial_power(1.0), ScalarWeightSpec.constant(2.0)]
        )
        assert float(w.values([3.0, 4.0])) == pytest.approx(10.0)

    def test_vectorized(self):
        w = ScalarWeightSpec.radial_power(2.0)
        pts = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert w.values(pts) == pytest.approx([1.0, 4.0])

    def test_integrability_flags(self):
        assert ScalarWeightSpec.radial_power(-0.5).locally_integrable(1)
        assert not ScalarWeightSpec.radial_power(-1.5).locally_integrable(1)
        assert not ScalarWeightSpec.radial_power(-2.0).locally_integrable(2)
        good = ScalarWeightSpec.poly_abs_power({(2,): 1.0}, -0.4)
        assert good.locally_integrable(1)
        bad = ScalarWeightSpec.poly_abs_power({(2,): 1.0}, -0.6)
        assert not bad.locally_integrable(1)

    def test_integrability_flag_matches_numerical_integral(self):
        # midpoint ladders over (0, 1] diverge exactly when the flag says so
        for gamma, expect in ((-0.5, True), (-1.5, False)):
            w = ScalarWeightSpec.radial_power(gamma)
            sums = []
            for n in (256, 1024, 4096):
                x = (np.arange(n) + 0.5)[:, None] / n
                sums.append(w.values(x).mean())
            growth = sums[2] / sums[1]
            assert (growth < 1.5) == expect


class TestMatrix:
    def setup_method(self):
        self.W = MatrixWeightSpec.diagonal(
            [ScalarWeightSpec.radial_power(0.5), ScalarWeightSpec.constant(1.0)]
        )

    def test_identity_any_power(self):
        W = MatrixWeightSpec.identity(3)
        out = W.power_values([0.4, 0.4], 0.37)
        assert np.allclose(out, np.eye(3))

    def test_diagonal_closed_form(self):
        p = 2.0
        out = self.W.power_values([4.0, 0.0], 1.0 / p)
        assert np.allclose(out, np.diag([2.0 ** 0.5, 1.0]))

    def test_power_inverse_pair(self):
        pts = np.array([[0.7, -0.2], [2.0, 1.0]])
        for p in (0.7, 2.0, 3.0):
            a = self.W.power_values(pts, 1.0 / p)
            b = self.W.power_values(pts, -1.0 / p)
            prod = np.einsum("mij,mjk->mik", a, b)
            assert np.max(np.abs(prod - np.eye(2))) < 1e-10

    def test_power_addition_law(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0.5, 2.0, size=(20, 2))
        for a, b in ((0.5, -0.5), (1.0 / 3, 0.5), (-1.0 / 3, -0.5)):
            Wa = self.W.power_values(pts, a)
            Wb = self.W.power_values(pts, b)
            Wab = self.W.power_values(pts, a + b)
            prod = np.einsum("mij,mjk->mik", Wa, Wb)
            assert np.max(np.abs(prod - Wab)) < 1e-9

    def test_diagonal_matches_scalar_oracle(self):
        pts = np.array([[0.3, 1.0], [5.0, -2.0]])
        vals = self.W.values(pts)
        s0 = self.W.scalars[0].values(pts)
        assert np.max(np.abs(vals[:, 0, 0] - s0)) < 1e-12
        assert np.max(np.abs(vals[:, 1, 1] - 1.0)) < 1e-12
        assert np.max(np.abs(vals[:, 0, 1])) == 0.0

    def test_diagonal_values_are_real(self):
        pts = np.array([[0.3, 1.0], [5.0, -2.0]])
        assert self.W.values(pts).dtype == np.float64
        for a in (0.5, -0.5):
            got = self.W.power_values(pts, a)
            assert got.dtype == np.float64
            assert np.max(np.abs(got - hermitian_power(self.W.values(pts), a))) <= 1e-14

    def test_conjugated(self):
        theta = 0.3
        U = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        W = MatrixWeightSpec.conjugated(U, self.W.scalars)
        x = np.array([4.0, 1.0])
        direct = W.values(x)
        diag = np.diag([self.W.scalars[0].values(x), 1.0])
        assert np.allclose(direct, U @ diag @ U.conj().T)
        powered = W.power_values(x, 0.5)
        assert np.allclose(powered, U @ np.sqrt(diag) @ U.conj().T, atol=1e-12)

    def test_diag_dominant_positive_definite(self):
        W = MatrixWeightSpec.diag_dominant(
            [ScalarWeightSpec.poly_abs_power({(1, 0): 1.0}, 0.5),
             ScalarWeightSpec.constant(1.0)],
            {(0, 1): {(0, 1): 1.0}},
            eps=0.9,
        )
        rng = np.random.default_rng(17)
        pts = rng.uniform(-3, 3, size=(200, 2))
        vals = W.values(pts)
        assert np.allclose(vals, np.conj(np.swapaxes(vals, 1, 2)))
        eig = np.linalg.eigvalsh(vals)
        assert np.all(eig > 0)

    def test_diag_dominant_values_are_real(self):
        S = ScalarWeightSpec
        W = MatrixWeightSpec.diag_dominant(
            [S.poly_abs_power({(1, 0): 1.0}, 0.5), S.radial_power(0.5), S.constant(2.0)],
            {(0, 1): {(0, 1): 1.0}, (1, 2): {(1, 0): 1.0, (0, 0): 0.5}},
            eps=0.5,
        )
        pts = np.random.default_rng(18).uniform(-3, 3, size=(300, 2))
        vals = W.values(pts)
        assert vals.dtype == np.float64
        for a in (0.5, -0.5, 1.0 / 3.0):
            got = W.power_values(pts, a)
            want = hermitian_power(vals.astype(complex), a)
            assert got.dtype == np.float64
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_diag_dominant_rejects_large_eps(self):
        with pytest.raises(ValueError):
            MatrixWeightSpec.diag_dominant(
                [ScalarWeightSpec.constant(1.0)] * 2, {}, eps=1.0
            )

    def test_singular_point_raises(self):
        with pytest.raises(SingularWeight):
            self.W.power_values(np.array([[0.0, 0.0]]), 0.5)


class TestNormEquivalence:
    def test_identity(self):
        assert matrix_norm_equivalence_check(np.eye(3), 2.0)

    def test_rank_one(self):
        M = np.zeros((3, 3))
        M[0, 0] = 1.0
        assert matrix_norm_equivalence_check(M, 1.0)

    def test_random_matrices(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = rng.integers(1, 4)
            M = rng.standard_normal((n, n))
            for r in (0.5, 1.0, 2.0, 3.0):
                assert matrix_norm_equivalence_check(M, r)


class TestCompose:
    def test_scalar_composition(self):
        G = DilationGroup(np.diag([1.0, 2.0]))
        T = AffineMap(G, 2.0, np.array([1.0, 0.0]))
        w = ScalarWeightSpec.poly_abs_power({(1, 0): 1.0}, 0.5)
        wt = w.compose(T)
        x = np.array([3.0, 1.0])
        assert wt.values(x) == pytest.approx(w.values(T.apply(x)))
        assert np.shape(wt.values(x)) == np.shape(w.values(x)) == ()
        assert wt.compose(T).values(x) == pytest.approx(w.values(T.apply(T.apply(x))))

    def test_matrix_composition(self):
        G = DilationGroup(np.diag([1.0, 2.0]))
        T = AffineMap(G, 0.5, np.array([0.0, 1.0]))
        W = MatrixWeightSpec.diagonal(
            [ScalarWeightSpec.poly_abs_power({(1, 0): 1.0}, 0.5),
             ScalarWeightSpec.constant(1.0)]
        )
        WT = W.compose(T)
        x = np.array([[1.5, 2.0]])
        assert np.allclose(WT.values(x), W.values(T.apply(x)))
        assert np.allclose(
            WT.power_values(x, 0.5), W.power_values(T.apply(x), 0.5)
        )
        single = x[0]
        assert WT.values(single).shape == W.values(single).shape == (2, 2)
        assert WT.power_values(single, 0.5).shape == W.power_values(single, 0.5).shape
        assert np.allclose(WT.values(single), W.values(T.apply(single)))
