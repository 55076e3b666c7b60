import warnings

import numpy as np
import pytest

from anisoweights.dilation import DilationGroup
from anisoweights.geometry import AffineMap
from anisoweights.weights import (
    MatrixWeightSpec,
    ScalarWeightSpec,
    SingularWeight,
    cholesky_factors,
    hermitian_power,
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

    def test_singular_values_without_warnings(self):
        # a negative power is inf on the singular set and a product there
        # inf * 0 = nan, with no divide or invalid warning
        S = ScalarWeightSpec
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert S.radial_power(-0.5).values(x)[0] == np.inf
            assert S.poly_abs_power({(1, 0): 1.0}, -0.5).values(x)[0] == np.inf
            prod = S.product([S.radial_power(-0.5), S.poly_abs_power({(1, 0): 1.0}, 1.0)])
            assert np.isnan(prod.values(x)[0]) and prod.values(x)[1] > 0

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

    @pytest.mark.parametrize("mode", ["diagonal", "diag_dominant"])
    def test_singular_nodes_carry_mask_and_powers(self, mode):
        # an infinite entry |x|^(-1/2) at the origin is singular in both modes;
        # the error holds the powers of the other nodes, computed as alone
        S = ScalarWeightSpec
        scalars = [S.radial_power(-0.5), S.constant(1.0)]
        W = (MatrixWeightSpec.diagonal(scalars) if mode == "diagonal" else
             MatrixWeightSpec.diag_dominant(scalars, {(0, 1): {(0, 1): 1.0}}, 0.5))
        x = np.array([[1.0, 1.0], [0.0, 0.0], [0.5, -2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = W.values(x)
            with pytest.raises(SingularWeight) as info:
                W.power_values(x, -0.5)
        assert vals[1, 0, 0] == np.inf
        assert np.isnan(vals[1, 0, 1]) == (mode == "diag_dominant")
        assert info.value.singular.tolist() == [False, True, False]
        assert np.isfinite(info.value.values).all()
        for i in (0, 2):
            assert info.value.values[i].tobytes() == W.power_values(x[i], -0.5).tobytes()

    @pytest.mark.parametrize("a", [0.5, -0.5])
    def test_diagonal_and_conjugated_share_the_singular_threshold(self, a):
        # an eigenvalue of exactly 1e-300 is not singular for hermitian_power,
        # so the diagonal closed form takes the entry as it is (and floors it)
        S = ScalarWeightSpec
        scalars = [S.constant(1e-300), S.constant(1.0)]
        x = np.array([[0.3, -0.2], [2.0, 1.0]])
        diag = MatrixWeightSpec.diagonal(scalars).power_values(x, a)
        conj = MatrixWeightSpec.conjugated(np.eye(2), scalars).power_values(x, a)
        assert np.allclose(diag, conj, rtol=1e-14, atol=0)
        assert diag[:, 0, 0] == pytest.approx([(1e-14 / 2) ** a] * 2, rel=1e-14)


def einsum_hermitian_power(W, a):
    """W^a with the three-operand einsum V diag(lambda^a) V^H."""
    vals, vecs = np.linalg.eigh(W)
    floors = 1e-14 * np.real(np.trace(W, axis1=-2, axis2=-1)) / W.shape[-1]
    powed = np.maximum(vals, floors[..., None]) ** a
    return np.einsum("...ij,...j,...kj->...ik", vecs, powed, vecs.conj())


def hermitian_stack(rng, k, n, kind):
    """k random real symmetric or complex Hermitian PD n x n matrices."""
    Z = rng.standard_normal((k, n, n))
    if kind == "complex":
        Z = Z + 1j * rng.standard_normal((k, n, n))
    Q = np.linalg.qr(Z)[0]
    W = (Q * rng.uniform(0.1, 10.0, (k, 1, n))) @ Q.conj().swapaxes(-1, -2)
    return 0.5 * (W + W.conj().swapaxes(-1, -2))


class TestHermitianPower:
    @staticmethod
    def assert_close(W, a):
        ours, ref = hermitian_power(W, a), einsum_hermitian_power(W, a)
        assert ours.shape == ref.shape and ours.dtype == ref.dtype
        scale = np.abs(ref).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(ours - ref) <= 1e-15 * scale)

    @pytest.mark.parametrize("a", [0.5, -0.5, 1.0 / 3.0, -2.0 / 3.0])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_einsum(self, n, kind, a):
        self.assert_close(hermitian_stack(np.random.default_rng(n), 500, n, kind), a)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_einsum_on_clamped_eigenvalues(self, kind):
        # eigenvalue 1e-20 along e_0, above the singular floor and below
        # 1e-14 * trace / 3, and a random 2 x 2 block on the other axes
        W = np.zeros((200, 3, 3), dtype=complex if kind == "complex" else float)
        W[:, 0, 0] = 1e-20
        W[:, 1:, 1:] = hermitian_stack(np.random.default_rng(5), 200, 2, kind)
        vals = np.linalg.eigvalsh(W)
        assert np.all((vals[:, 0] > 1e-300) & (vals[:, 0] < 1e-14 * vals.sum(axis=1) / 3))
        for a in (0.5, -0.5):
            self.assert_close(W, a)


    def test_non_finite_and_singular_matrices(self, monkeypatch):
        # eigh never sees a non-finite entry; every singular matrix is
        # marked, and the others get their powers as if alone
        W = np.stack([2.0 * np.eye(2), [[np.nan, 0.0], [0.0, 1.0]],
                      [[np.inf, 1.0], [1.0, 1.0]], np.zeros((2, 2)), [[1.0, 2.0], [2.0, 1.0]],
                      [[3.0, 1.0], [1.0, 2.0]]])
        eigh = np.linalg.eigh

        def finite_only(M):
            assert np.isfinite(M).all()
            return eigh(M)

        monkeypatch.setattr(np.linalg, "eigh", finite_only)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularWeight) as info:
                hermitian_power(W, -0.5)
        assert info.value.singular.tolist() == [False, True, True, True, True, False]
        assert np.isfinite(info.value.values).all()
        for i in (0, 5):
            assert info.value.values[i].tobytes() == hermitian_power(W[i:i + 1], -0.5)[0].tobytes()


def relative_error(ours, ref):
    return np.max(np.abs(ours - ref) / np.abs(ref).max(axis=(-2, -1), keepdims=True))


def adjoint(M):
    return M.conj().swapaxes(-1, -2)


class TestCholeskyFactors:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_certified_factors_give_w_and_its_inverse(self, n, kind):
        # F and M come from one factorization W = L L^H
        W = hermitian_stack(np.random.default_rng(30 + n), 300, n, kind)
        F, M, ok = cholesky_factors(W)
        assert ok.all()
        assert F.dtype == M.dtype == W.dtype
        assert relative_error(adjoint(F) @ F, W) <= 1e-14
        assert relative_error(M @ adjoint(M), np.linalg.inv(W)) <= 1e-14
        assert relative_error(F @ M, np.broadcast_to(np.eye(n), W.shape)) <= 1e-13
        # upper triangular, as L^H and L^(-H) are
        assert not np.tril(F, -1).any() and not np.tril(M, -1).any()
        for k, w in enumerate(W[:5]):
            alone = cholesky_factors(w[None])
            assert alone[0].tobytes() == F[k:k + 1].tobytes()
            assert alone[1].tobytes() == M[k:k + 1].tobytes()

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_left_out_where_the_floor_may_act(self, n, kind):
        # eigenvalues (lam, 1, ..., 1) in a random frame with lam / tr = c:
        # certified at c = 1e-12, but not between the floor 1e-14 / n and
        # the margin above it, nor below the floor, nor where the matrix is
        # singular or has a NaN entry; a 1 x 1 matrix (c = 1) is left out
        # below the singular floor 1e-300
        u = np.finfo(float).eps / 2
        floor, margin = 1e-14 / n, 4 * (n + 1) * (2 * n + 3) * u
        c = np.array([1e-12, floor + margin / 2, floor / 2, 0.0, 1e-12])
        lam = c * (n - 1) / (1 - c) if n > 1 else np.array([1.0, 1e-310, 1e-310, 0.0, 1.0])
        Q = np.linalg.eigh(hermitian_stack(np.random.default_rng(40 + n), 5, n, kind))[1]
        d = np.ones((5, n))
        d[:, 0] = lam
        W = (Q * d[:, None, :]) @ adjoint(Q)
        W[4, -1, 0] = np.nan
        if n > 1:
            vals = np.linalg.eigvalsh(W[1:3])
            assert floor / 4 < vals[1, 0] / vals[1].sum() < floor < vals[0, 0] / vals[0].sum()
            assert vals[0, 0] / vals[0].sum() < floor + margin
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, ok = cholesky_factors(W)
        assert ok.tolist() == [True, False, False, False, False]


def matrix_norm_equivalence_check(M, r: float) -> bool:
    """Frame the spectral norm between column-norm sums.

    Checks (1/N) sum_j |M e_j|^r <= ||M||^r <= N^(r/2) sum_j |M e_j|^r,
    the explicit-constant form of the norm equivalence used throughout.
    """
    M = np.asarray(M)
    N = M.shape[-1]
    cols = np.linalg.norm(M, axis=0) ** r
    op = np.linalg.norm(M, 2) ** r
    slack = 1e-12 * max(1.0, op)
    return bool(cols.sum() / N <= op + slack and op <= N ** (r / 2) * cols.sum() + slack)


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
