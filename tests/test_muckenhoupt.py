import itertools
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad as spquad

from anisoweights.dilation import DilationGroup
from anisoweights.geometry import AffineMap, AnisoBall, ball_volume, compute_r0, map_ball
from anisoweights import muckenhoupt, weights
from anisoweights.muckenhoupt import (
    _LEVELS,
    BallQuadrature,
    NonIntegrable,
    TruncationNotConverged,
    ap_ball_quantity_ladder,
    averaging_operator_check,
    default_ball_family,
    doubling_check,
    estimate_ap_constant,
    ladder_estimate,
    invariance_report,
    polynomial_ap_validity,
    reducing_operators,
    reverse_holder_search,
    scalar_slice_ap,
    spectral_norms,
    weighted_tail_bound,
    _matrix_quantities,
    _scalar_quantity_at_nodes,
    _span_norms,
    safe_power_values,
    weighted_magnitudes,
)
from anisoweights.spectral import (
    BandLimitedField,
    FourierGrid,
    multiplier_bound_experiment,
    sampling_inequality_experiment,
    weighted_lp_norm,
)
from anisoweights.weights import (MatrixWeightSpec, ScalarWeightSpec, SingularWeight,
                                  cholesky_factors, hermitian_power)


@pytest.fixture(scope="module")
def G1():
    return DilationGroup([[1.0]])


@pytest.fixture(scope="module")
def G2():
    return DilationGroup(np.diag([1.0, 2.0]))


@pytest.fixture(scope="module")
def grid1():
    return BallQuadrature("mapped_grid", 1024)


def sqrt_weight():
    return ScalarWeightSpec.radial_power(0.5)


@dataclass(frozen=True)
class PowerWeight:
    """Scalar weight w^exponent."""

    base: object
    exponent: float
    label: str = "w^r"

    def values(self, pts):
        return np.asarray(self.base.values(pts), dtype=float) ** self.exponent


def sqrt_matrix_weight():
    return MatrixWeightSpec.diagonal(
        [ScalarWeightSpec.poly_abs_power({(1, 0): 1.0}, 0.5),
         ScalarWeightSpec.constant(1.0)]
    )


def lapack_norms(M):
    N = M.shape[-1]
    flat = np.linalg.svd(M.reshape(-1, N, N), compute_uv=False)[:, 0]
    return flat.reshape(M.shape[:-2])


def assert_matches_lapack(M, rtol=1e-13):
    ours, ref = spectral_norms(M), lapack_norms(M)
    assert ours.shape == ref.shape
    assert np.all(np.abs(ours - ref) <= rtol * ref)


def random_unitaries(rng, k, n):
    Z = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=1, axis2=2)
    return Q * (d / np.abs(d))[:, None, :]


def with_singular_values(rng, s):
    """Random complex matrices U diag(s) V^H, one per row of s."""
    k, n = s.shape
    U, V = random_unitaries(rng, k, n), random_unitaries(rng, k, n)
    return np.einsum("kij,kj,klj->kil", U, s, V.conj())


def random_hermitian_pd(rng, k, n):
    A = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    return A @ A.conj().transpose(0, 2, 1) + 0.1 * np.eye(n)


class TestSpectralNorms:
    def test_matches_lapack(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 4):
            M = rng.standard_normal((6, 7, n, n)) + 1j * rng.standard_normal((6, 7, n, n))
            assert_matches_lapack(M)
            assert_matches_lapack(M.real.copy())

    @pytest.mark.parametrize("n", [2, 3])
    def test_products_of_hermitian_powers(self, n):
        # the A_p ladder's stack: W^(1/p)(x_a) W^(-1/p)(t_b) for every pair
        rng = np.random.default_rng(3)
        Px = hermitian_power(random_hermitian_pd(rng, 9, n), 0.5)
        Mt = hermitian_power(random_hermitian_pd(rng, 11, n), -0.5)
        assert_matches_lapack(np.einsum("aij,bjk->abik", Px, Mt))

    @pytest.mark.parametrize("n", [2, 3])
    def test_rank_one_and_scalar(self, n):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((50, n)) + 1j * rng.standard_normal((50, n))
        v = rng.standard_normal((50, n)) + 1j * rng.standard_normal((50, n))
        assert_matches_lapack(np.einsum("ki,kj->kij", u, v.conj()))
        c = np.array([3.0, -0.5, 2 - 3j, 1e-3j])
        ours = spectral_norms(c[:, None, None] * np.eye(n))
        assert np.all(np.abs(ours - np.abs(c)) <= 1e-15 * np.abs(c))

    @pytest.mark.parametrize("n", [2, 3])
    def test_repeated_and_nearly_repeated_singular_values(self, n):
        rng = np.random.default_rng(5)
        assert_matches_lapack(np.diag([1.0] * (n - 1) + [1 - 1e-9])[None])
        for second in (1.0, 1 - 1e-12, 1 - 1e-7, 1 - 1e-3):
            s = np.full((200, n), 0.5)
            s[:, 0], s[:, 1] = 1.0, second
            assert_matches_lapack(with_singular_values(rng, s))

    @pytest.mark.parametrize("n", [2, 3])
    def test_zero_matrix(self, n):
        assert spectral_norms(np.zeros((1, n, n), dtype=complex))[0] == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("scale", [1e-170, 1e-150, 1e150, 1e160])
    def test_extreme_scales(self, n, scale):
        # entries whose squares under- or overflow
        assert spectral_norms(scale * np.eye(n)[None])[0] == pytest.approx(scale, rel=1e-15)
        rng = np.random.default_rng(6)
        M = rng.standard_normal((40, n, n)) + 1j * rng.standard_normal((40, n, n))
        ours = spectral_norms(scale * M)
        assert np.all(np.abs(ours / scale - lapack_norms(M)) <= 1e-13 * lapack_norms(M))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_non_finite_entry_gives_nan(self, n):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
        M[1, 0, n - 1] = np.nan
        M[2, n - 1, 0] = np.inf
        M[3, 1, 1] = -np.inf * 1j
        ours = spectral_norms(M)
        assert np.isnan(ours[1:]).all()
        assert ours[0] == pytest.approx(lapack_norms(M[:1])[0], rel=1e-13)

    def test_non_finite_matrix_keeps_the_hand_off(self, monkeypatch):
        # a NaN matrix in the same chunk as matrices with a repeated top
        # singular value: those still go to LAPACK
        M = np.tile(np.eye(3), (3, 1, 1))
        M[0, 0, 0] = np.nan
        M[2] = np.diag([2.0, 2.0, 1.0])
        calls = count_calls(monkeypatch, muckenhoupt, "_svd_norms")
        ours = spectral_norms(M)
        assert len(calls) == 1 and np.isnan(ours[0])
        assert ours[1:] == pytest.approx([1.0, 2.0], rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_real_stack_matches_complex_cast(self, n):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((300, n, n))
        real, cast = spectral_norms(M), spectral_norms(M.astype(complex))
        assert np.all(np.abs(real - cast) <= 1e-15 * cast)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_norm_does_not_depend_on_the_stack(self, monkeypatch, n, kind):
        # chunks of 8 cut the 21 matrices 8 + 8 + 5; the identities have a
        # repeated top singular value (for n = 3 the LAPACK hand-off)
        monkeypatch.setattr(muckenhoupt, "_CHUNK", 8)
        rng = np.random.default_rng(12)
        M = rng.standard_normal((21, n, n))
        if kind == "complex":
            M = M + 1j * rng.standard_normal(M.shape)
        M[::4] = np.eye(n)
        alone = np.concatenate([spectral_norms(m[None]) for m in M])
        assert spectral_norms(M).tobytes() == alone.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_empty_stack(self, n, dtype):
        assert spectral_norms(np.zeros((0, n, n), dtype=dtype)).shape == (0,)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["real", "complex", "complex-typed real"])
    def test_leaves_the_callers_stack_unchanged(self, monkeypatch, n, kind):
        # the kernel works on scaled copies of the matrices, never on M itself
        monkeypatch.setattr(muckenhoupt, "_CHUNK", 64)  # several chunks
        rng = np.random.default_rng(10)
        M = rng.standard_normal((3, 50, n, n))
        if kind == "complex":
            M = M + 1j * rng.standard_normal(M.shape)
        elif kind == "complex-typed real":
            M = M.astype(complex)
        M[0, :10] = np.eye(n)  # a repeated top singular value: the LAPACK hand-off
        before = M.copy()
        spectral_norms(M)
        assert M.tobytes() == before.tobytes()


def loop_pair_norms(Px, Mt):
    return np.array([[np.linalg.norm(P @ M, 2) for M in Mt] for P in Px])


def random_orthogonal(rng, k, n, kind):
    if kind == "complex":
        return random_unitaries(rng, k, n)
    return np.linalg.qr(rng.standard_normal((k, n, n)))[0]


def pair_factors(rng, n1, n2, n, kind, p=2.0):
    """W^(1/p)(x_a) and W^(-1/p)(t_b) of random real or complex weights."""
    Hx, Ht = random_hermitian_pd(rng, n1, n), random_hermitian_pd(rng, n2, n)
    if kind == "real":  # the real part of a Hermitian PD matrix is symmetric PD
        Hx, Ht = Hx.real, Ht.real
    return hermitian_power(Hx, 1.0 / p), hermitian_power(Ht, -1.0 / p)


def tile_sizes(monkeypatch):
    """The number of pairs in each call of the pair kernel `_tile_norms`."""
    sizes, kernel = [], muckenhoupt._tile_norms

    def counted(*tile):
        norms = kernel(*tile)
        sizes.append(norms.size)
        return norms

    monkeypatch.setattr(muckenhoupt, "_tile_norms", counted)
    return sizes


class TestPairNorms:
    @pytest.mark.parametrize("chunk", [3, 11, None])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_loop(self, monkeypatch, n, kind, chunk):
        # 7 x 5 pairs: _CHUNK 3 splits the columns 3 + 2 and takes one row
        # per block, 11 takes two rows per block, the default one block
        if chunk is not None:
            monkeypatch.setattr(muckenhoupt, "_CHUNK", chunk)
        Px, Mt = pair_factors(np.random.default_rng(10 + n), 7, 5, n, kind)
        assert np.iscomplexobj(Px) == (kind == "complex")
        ours, ref = _span_norms(Px, Mt, 1)[0], loop_pair_norms(Px, Mt)
        assert ours.shape == ref.shape and ours.dtype == np.float64
        assert np.all(np.abs(ours - ref) <= 1e-13 * ref)
        squares = _span_norms(Px, Mt, 1, squared=True)[0]  # p = 2: no square root
        assert np.all(np.abs(squares - ref * ref) <= 2e-13 * ref * ref)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_repeated_top_singular_value_goes_to_lapack(self, monkeypatch, kind):
        # U diag(2, 2, 1) U^H times a multiple of the identity has its two
        # largest singular values equal, where the closed form is handed off
        rng = np.random.default_rng(11)
        U = random_orthogonal(rng, 9, 3, kind)
        Px = np.einsum("kij,j,klj->kil", U, [2.0, 2.0, 1.0], U.conj())
        Mt = pair_factors(rng, 1, 5, 3, kind)[1]
        Mt[::2] = np.array([0.5, 1.0, 3.0])[:, None, None] * np.eye(3)
        calls = count_calls(monkeypatch, muckenhoupt, "_svd_norms")
        monkeypatch.setattr(muckenhoupt, "_CHUNK", 10)
        ours, ref = _span_norms(Px, Mt, 1)[0], loop_pair_norms(Px, Mt)
        assert len(calls) > 0
        assert np.all(np.abs(ours - ref) <= 1e-13 * ref)

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_extreme_scales(self, n, scale):
        # product entries near 1e+-150, whose squares over- or underflow
        Px, Mt = pair_factors(np.random.default_rng(12), 5, 3, n, "complex")
        ours, ref = _span_norms(scale * Px, Mt, 1)[0], loop_pair_norms(Px, Mt)
        assert np.all(np.abs(ours / scale - ref) <= 1e-13 * ref)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nan_entry_gives_nan(self, n, kind):
        Px, Mt = pair_factors(np.random.default_rng(13), 5, 3, n, kind)
        Px[2, 0, n - 1] = np.nan
        ours = _span_norms(Px, Mt, 1)[0]
        assert np.isnan(ours[2]).all() and np.isfinite(np.delete(ours, 2, axis=0)).all()

    @pytest.mark.parametrize("chunk, n1, n2", [(4, 7, 5), (None, 129, 131)])
    def test_kernel_sees_at_most_chunk_pairs(self, monkeypatch, chunk, n1, n2):
        if chunk is not None:
            monkeypatch.setattr(muckenhoupt, "_CHUNK", chunk)
        sizes = tile_sizes(monkeypatch)
        _span_norms(*pair_factors(np.random.default_rng(14), n1, n2, 3, "real"), 1)
        assert max(sizes) <= muckenhoupt._CHUNK
        assert sum(sizes) == n1 * n2

    @pytest.mark.parametrize("chunk", [10, None])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_hand_off_in_a_block_of_balls(self, monkeypatch, kind, chunk):
        # 3 balls of 7 x 5 pairs with a repeated top singular value at row 5
        # of ball 2: _CHUNK 10 cuts each ball into tiles of two rows, so the
        # pair sits in the third tile of ball 2's own span; the default puts
        # all three balls in one tile
        rng = np.random.default_rng(15)
        n1, n2 = 7, 5
        Px, Mt = pair_factors(rng, 3 * n1, 3 * n2, 3, kind)
        U = random_orthogonal(rng, 1, 3, kind)[0]
        Px[2 * n1 + 5] = U @ np.diag([2.0, 2.0, 1.0]) @ U.conj().T
        Mt[2 * n2 + 1] = 0.5 * np.eye(3)
        if chunk is not None:
            monkeypatch.setattr(muckenhoupt, "_CHUNK", chunk)
        calls = count_calls(monkeypatch, muckenhoupt, "_svd_norms")
        for p in (2.0, 0.7):
            ours = _matrix_quantities(Px, Mt, p, 3)
            want = np.array([loop_reduce_pairs(loop_pair_norms(
                Px[b * n1:(b + 1) * n1], Mt[b * n2:(b + 1) * n2]), p) for b in range(3)])
            assert np.all(np.abs(ours - want) <= 1e-13 * want)
        assert len(calls) > 0

    def test_accurate_on_the_singular_line(self, G2):
        # level-0 roots of the ap-matrix-2d balls centred on x1 = 0, where
        # the weight is singular and most ill-conditioned
        W, quad = ap_matrix_weight(), BallQuadrature("mapped_grid", 1024)
        fam = [B for B in default_ball_family(G2, 2.0, radii=[0.25, 0.5, 1.0, 2.0])
               if B.center[0] == 0.0]
        assert len(fam) == 28  # 7 centres, 4 radii
        for B in fam:
            scale = G2.euclidean_radius_bound(B.radius)
            Px, Mt = (safe_power_values(W, quad.ball_nodes(G2, B, 0, shifted, pair=True),
                                        a, scale) for shifted, a in ((False, 0.5), (True, -0.5)))
            ours, ref = _span_norms(Px, Mt, 1)[0], loop_pair_norms(Px, Mt)
            assert np.all(np.abs(ours - ref) <= 1e-13 * ref)


class TestGrid:
    @pytest.mark.parametrize("rule, n", [("monte_carlo", 1024), ("mapped_grid", 63)])
    def test_constructor_rejects(self, rule, n):
        with pytest.raises(ValueError):
            BallQuadrature(rule, n)

    @pytest.mark.parametrize("n", [np.nan, np.inf, 100.5, 1024.0, "1024"])
    def test_node_count_must_be_an_integer(self, n):
        # NaN was accepted (failing only at first use), and 100.5 gave 112
        # level-0 nodes
        with pytest.raises(ValueError, match="n_nodes must be an integer >= 64"):
            BallQuadrature("mapped_grid", n)
        assert BallQuadrature("mapped_grid", np.int64(64)).n_nodes == 64

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_every_level_refines(self, d, n):
        # a width rounded up to even on each level alone repeated a level:
        # 12, 12, 32 pair nodes in 2-D and 192 nodes on every 5-D level at
        # n = 64
        G, quad = DilationGroup(np.eye(d)), BallQuadrature("mapped_grid", n)
        for pair in (False, True):
            for shifted in (False, True):
                counts = []
                for level in range(_LEVELS):
                    try:
                        counts.append(len(quad.reference_nodes(G, level, shifted, pair)))
                    except ValueError:  # the 2^d grid of level 0 misses the unit ball
                        assert (pair, shifted, level) == (True, False, 0) and d >= 4
                assert len(counts) >= _LEVELS - 1
                assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_5d_radial_oracle(self):
        # avg |x|^g over a centred ball in R^5 is 5 / (5 + g) r^g, so at
        # p = 2 the quantity of |x|^(1/2) is 5/5.5 * 5/4.5 = 25/24.75
        G = DilationGroup(np.eye(5))
        lad = ap_ball_quantity_ladder(sqrt_weight(), AnisoBall(np.zeros(5), 1.0), 2.0,
                                      BallQuadrature("mapped_grid", 64), G)
        assert abs(lad.value - 25.0 / 24.75) <= lad.error

    def test_empty_level_raises(self):
        # the level-0 pair side at n = 64 in 4-D is the 2^4 grid of the
        # points (+-1/2, ..., +-1/2), all on the unit sphere
        G = DilationGroup(np.eye(4))
        with pytest.raises(ValueError, match="no node"):
            ap_ball_quantity_ladder(MatrixWeightSpec.identity(2), AnisoBall(np.zeros(4), 1.0),
                                    2.0, BallQuadrature("mapped_grid", 64), G)


class TestScalarQuantity:
    def test_constant_weight_is_one(self, G1, grid1):
        w = ScalarWeightSpec.constant(1.0)
        for r in (0.5, 1.0, 4.0):
            q = ap_ball_quantity_ladder(w, AnisoBall([0.0], r), 2.0, grid1, G1).value
            assert q == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_weight_centered_oracle(self, G1, grid1):
        # avg |x|^(1/2) * avg |x|^(-1/2) over (-r, r) is 4/3 for every r
        w = sqrt_weight()
        for m in range(-3, 4):
            B = AnisoBall([0.0], 2.0 ** m)
            q = ap_ball_quantity_ladder(w, B, 2.0, grid1, G1).value
            assert abs(q - 4.0 / 3.0) <= 1e-4

    def test_offcenter_against_quad_oracle(self, G1, grid1):
        w = sqrt_weight()
        c, r, p = 1.5, 1.0, 2.0
        f = lambda x: np.sqrt(np.abs(x))
        g = lambda x: 1.0 / np.sqrt(np.abs(x))
        m1 = spquad(f, c - r, c + r)[0] / (2 * r)
        m2 = spquad(g, c - r, c + r)[0] / (2 * r)
        oracle = m1 * m2
        lad = ap_ball_quantity_ladder(w, AnisoBall([c], r), p, grid1, G1)
        assert abs(lad.value - oracle) <= max(3 * lad.error, 1e-5)

    def test_a1_quantity_oracle(self, G1, grid1):
        # w = |x|^(-1/4): avg over (-r, r) is (4/3) r^(-1/4) and the
        # essential sup of 1/w on the ball is r^(1/4), so A_1 gives 4/3
        w = ScalarWeightSpec.radial_power(-0.25)
        for r in (0.5, 1.0, 2.0):
            q = ap_ball_quantity_ladder(w, AnisoBall([0.0], r), 1.0, grid1, G1).value
            assert q == pytest.approx(4.0 / 3.0, abs=1e-3)

    def test_a1_detects_unbounded_inverse(self, G1, grid1):
        # for w = |x|^(1/2) the node maximum of 1/w grows under refinement:
        # the true A_1 constant is infinite and the ladder flags it
        w = sqrt_weight()
        with pytest.raises(NonIntegrable):
            ap_ball_quantity_ladder(w, AnisoBall([0.0], 1.0), 1.0, grid1, G1).value

    def test_jensen_lower_bound(self, G1, G2, grid1):
        w1 = sqrt_weight()
        for B in (AnisoBall([0.3], 0.7), AnisoBall([2.0], 2.0)):
            assert ap_ball_quantity_ladder(w1, B, 2.0, grid1, G1).value >= 1 - 1e-9
        w2 = ScalarWeightSpec.poly_abs_power({(1, 0): 1.0}, 0.5)
        for B in (AnisoBall([0.0, 0.0], 1.0), AnisoBall([1.0, 2.0], 0.5)):
            assert ap_ball_quantity_ladder(w2, B, 1.5, grid1, G2).value >= 1 - 1e-9

    def test_nonintegrable_detected(self, G1, grid1):
        w = ScalarWeightSpec.radial_power(-2.0)
        with pytest.raises(NonIntegrable):
            ap_ball_quantity_ladder(w, AnisoBall([0.0], 1.0), 2.0, grid1, G1).value


class TestMatrixQuantity:
    def test_identity_weight(self, G2, grid1):
        W = MatrixWeightSpec.identity(2)
        for p in (0.7, 2.0):
            q = ap_ball_quantity_ladder(W, AnisoBall([0.0, 0.0], 1.0), p, grid1, G2).value
            assert q == pytest.approx(1.0, abs=1e-10)

    def test_scalar_reduction_shared_nodes(self, G1):
        # with the same node sets the N=1 matrix quantity is algebraically
        # the scalar quantity to the power 1/p (p > 1)
        rng = np.random.default_rng(3)
        nodes = rng.uniform(0.1, 2.0, size=200)
        w = nodes ** 0.5
        for p in (2.0, 3.0):
            Px = (w ** (1.0 / p)).reshape(-1, 1, 1).astype(complex)
            Mt = (w ** (-1.0 / p)).reshape(-1, 1, 1).astype(complex)
            mq = _matrix_quantities(Px, Mt, p, 1)[0]
            sq = _scalar_quantity_at_nodes(w, p)
            assert mq == pytest.approx(sq ** (1.0 / p), rel=1e-12)
        # p <= 1 reduces to the scalar A_1 quantity without the root
        p = 0.7
        Px = (w ** (1.0 / p)).reshape(-1, 1, 1).astype(complex)
        Mt = (w ** (-1.0 / p)).reshape(-1, 1, 1).astype(complex)
        assert _matrix_quantities(Px, Mt, p, 1)[0] == pytest.approx(
            _scalar_quantity_at_nodes(w, 1.0), rel=1e-12
        )

    def test_pairwise_loop_oracle(self, monkeypatch):
        # one np.linalg.norm(P @ M, 2) per node pair, averaged by plain loops
        rng = np.random.default_rng(8)
        Hx, Ht = random_hermitian_pd(rng, 7, 3), random_hermitian_pd(rng, 5, 3)
        for p in (2.0, 1.0):
            Px, Mt = hermitian_power(Hx, 1.0 / p), hermitian_power(Ht, -1.0 / p)
            norms = np.array([[np.linalg.norm(P @ M, 2) for M in Mt] for P in Px])
            # a _CHUNK of 2 * len(Mt) takes two rows of pairs per chunk: 4 chunks
            monkeypatch.setattr(muckenhoupt, "_CHUNK", 2 * len(Mt))
            chunked = _span_norms(Px, Mt, 1)[0]
            assert np.all(np.abs(chunked - norms) <= 1e-13 * norms)
            if p > 1:
                pp = p / (p - 1)
                inner = [np.mean(row ** pp) ** (p / pp) for row in norms]
                oracle = np.mean(inner) ** (1 / p)
            else:
                oracle = max(np.mean(norms[:, b] ** p) for b in range(len(Mt)))
            assert _matrix_quantities(Px, Mt, p, 1)[0] == pytest.approx(oracle, rel=1e-13)

    def test_matrix_vs_scalar_whole_op(self, G1, grid1):
        W = MatrixWeightSpec.diagonal([sqrt_weight()])
        w = sqrt_weight()
        B = AnisoBall([0.0], 1.0)
        mq = ap_ball_quantity_ladder(W, B, 2.0, grid1, G1).value
        sq = ap_ball_quantity_ladder(w, B, 2.0, grid1, G1).value
        assert mq == pytest.approx(sq ** 0.5, rel=2e-3)

    def test_duality_relation(self, G1, grid1):
        # q_p(w) equals q_p'(w^(-p'/p))^(p-1) on the same nodes
        w = sqrt_weight()
        p = 2.0
        pp = p / (p - 1)
        dual = PowerWeight(w, -pp / p, label="w^-p'/p")
        B = AnisoBall([0.4], 1.3)
        q1 = ap_ball_quantity_ladder(w, B, p, grid1, G1).value
        q2 = ap_ball_quantity_ladder(dual, B, pp, grid1, G1).value
        assert q1 == pytest.approx(q2 ** (p - 1), rel=1e-9)


class TestFamilyEstimate:
    def test_constant_weight(self, G1, grid1):
        fam = default_ball_family(G1, 4.0, radii=[0.5, 1.0])
        rep = estimate_ap_constant(ScalarWeightSpec.constant(1.0), 2.0, fam, grid1, G1)
        assert rep.constant == pytest.approx(1.0, abs=1e-12)
        assert rep.norm_convention == "spectral"

    def test_sqrt_weight_constant(self, G1, grid1):
        fam = default_ball_family(G1)
        rep = estimate_ap_constant(sqrt_weight(), 2.0, fam, grid1, G1)
        assert rep.constant >= 4.0 / 3.0 * (1 - 1e-3)
        assert np.all(rep.values <= rep.constant)

    def test_superset_monotone(self, G1, grid1):
        w = sqrt_weight()
        small = default_ball_family(G1, 2.0, radii=[1.0])
        big = small + [AnisoBall([0.25], 2.0), AnisoBall([3.0], 0.5)]
        c_small = estimate_ap_constant(w, 2.0, small, grid1, G1).constant
        c_big = estimate_ap_constant(w, 2.0, big, grid1, G1).constant
        assert c_big >= c_small

    @pytest.mark.parametrize("norm", [np.nan, np.inf, -1.0])
    def test_center_norm_outside_zero_to_inf_rejected(self, G1, norm):
        # NaN and inf raised numpy's arange errors
        with pytest.raises(ValueError, match="max_center_norm must satisfy"):
            default_ball_family(G1, norm)
        assert len(default_ball_family(G1, 0.0, radii=[1.0])) == 1

    def test_benchmark_family_pins_solver_round_off(self):
        # (+-2, 0) and (0, +-4) lie exactly on |c|_A = 2 for diag(1, 2); the
        # bisection on the lattice batch keeps the first pair and drops the
        # second, which gives the 92 balls of the A_p benchmark family.  A
        # solver change that moves these values changes the family
        G = DilationGroup(np.diag([1.0, 2.0]))
        fam = default_ball_family(G, 2.0, radii=[0.25, 0.5, 1.0, 2.0])
        assert len(fam) == 92
        axis = np.arange(-4.0, 5.0)
        pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        q = dict(zip(map(tuple, pts), G.quasi_norm(pts)))
        assert q[(2.0, 0.0)] == q[(-2.0, 0.0)] == 1.9999999999998426
        assert q[(0.0, 4.0)] == q[(0.0, -4.0)] == 2.000000000000315

    def test_family_matches_per_ball_ladders_bitwise(self, G1, grid1):
        # each report value is the ball's own ladder whatever else the
        # family holds, and in whatever order the balls are taken
        w = sqrt_weight()
        fam = default_ball_family(G1, 2.0, radii=[0.5, 1.0])
        rep = estimate_ap_constant(w, 2.0, fam, grid1, G1)
        for i in reversed(range(len(fam))):
            one = ap_ball_quantity_ladder(w, fam[i], 2.0, grid1, G1)
            assert rep.values[i] == one.value
            assert rep.errors[i] == one.error
        assert rep.constant == rep.values.max()


class TestAveraging:
    def test_constant_field_fixed(self, G2, grid1):
        W = MatrixWeightSpec.identity(2)
        B = AnisoBall([0.0, 0.0], 1.0)
        ratio = averaging_operator_check(
            W, B, 2.0, grid1, G2, [lambda x: np.tile([1.0, -2.0], (len(x), 1))]
        )
        assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_unweighted_contraction(self, G2, grid1):
        W = MatrixWeightSpec.identity(2)
        B = AnisoBall([0.5, -0.5], 1.5)
        rng = np.random.default_rng(6)
        coefs = rng.standard_normal((5, 2, 3))

        def make(c):
            return lambda x: np.stack(
                [np.sin(c[0, 0] * x[:, 0] + c[0, 1]) + c[0, 2],
                 np.cos(c[1, 0] * x[:, 1] + c[1, 1]) + c[1, 2]], axis=1
            )

        ratio = averaging_operator_check(W, B, 2.0, grid1, G2,
                                         [make(c) for c in coefs])
        assert ratio <= 1.0 + 1e-9

    def test_weighted_between_one_and_bound(self, G1, grid1):
        W = MatrixWeightSpec.diagonal([sqrt_weight()])
        B = AnisoBall([0.0], 1.0)
        q = ap_ball_quantity_ladder(W, B, 2.0, grid1, G1).value
        fields = [
            lambda x: np.sign(x[:, :1]),
            lambda x: np.cos(4 * x[:, :1]),
            lambda x: np.ones((len(x), 1)),
        ]
        ratio = averaging_operator_check(W, B, 2.0, grid1, G1, fields)
        assert np.isfinite(ratio) and 0 < ratio <= 4 * max(q, 1.0)

    def test_scalar_weight_matches_one_by_one_matrix(self, G1, grid1):
        w = sqrt_weight()
        B = AnisoBall([0.25], 1.0)
        fields = [lambda x: np.sign(x[:, :1]), lambda x: np.cos(4 * x[:, 0])]
        scalar = averaging_operator_check(w, B, 2.0, grid1, G1, fields)
        matrix = averaging_operator_check(MatrixWeightSpec.diagonal([w]), B, 2.0,
                                          grid1, G1, fields)
        assert np.isfinite(scalar) and scalar > 0
        assert scalar == pytest.approx(matrix, rel=1e-12)


class TestSlices:
    def test_identity_slice(self, G2, grid1):
        W = MatrixWeightSpec.identity(2)
        fam = [AnisoBall([0.0, 0.0], 1.0)]
        rep = scalar_slice_ap(W, 2.0, [1.0, 1.0], fam, grid1, G2)
        assert rep.constant == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_slice_reduces_to_scalar(self, G1, grid1):
        W = MatrixWeightSpec.diagonal([sqrt_weight(), ScalarWeightSpec.constant(1.0)])
        # direction e_1 picks out the |t|^(1/2) entry; quantity 4/3 centered
        fam = [AnisoBall([0.0], 2.0 ** m) for m in (-1, 0, 2)]
        rep = scalar_slice_ap(W, 2.0, [1.0, 0.0], fam, grid1, G1)
        assert np.max(np.abs(rep.values - 4.0 / 3.0)) <= 1e-4

    def test_slice_uniform_over_directions(self, G1, grid1):
        W = MatrixWeightSpec.diagonal([sqrt_weight(), ScalarWeightSpec.constant(1.0)])
        p = 2.0
        fam = default_ball_family(G1, 2.0, radii=[0.5, 1.0, 2.0])
        matrix_const = estimate_ap_constant(W, p, fam, grid1, G1).constant
        rng = np.random.default_rng(14)
        consts = []
        for _ in range(10):
            v = rng.standard_normal(2)
            consts.append(scalar_slice_ap(W, p, v, fam, grid1, G1).constant)
        consts = np.asarray(consts)
        # uniformity in the direction plus control by the matrix constant
        assert consts.max() / consts.min() <= 4.0
        assert consts.max() <= 4.0 * matrix_const ** p

    @pytest.mark.parametrize("v", [[np.nan, 1.0], [np.inf, 0.0], [[1.0, 0.0]], [0.0, 0.0],
                                   ["a", "b"], [True, False]],
                             ids=["nan", "inf", "row", "zero", "str", "bool"])
    def test_direction_must_be_a_finite_nonzero_vector(self, G2, v):
        with pytest.raises(ValueError, match="direction v must be"):
            scalar_slice_ap(MatrixWeightSpec.identity(2), 2.0, v, [AnisoBall([0.0, 0.0], 1.0)],
                            BallQuadrature("mapped_grid", 64), G2)

    def test_complex_direction(self, G2):
        # |F (i e_1)| = |F e_1| for the complex weight's factors F
        W, quad = conjugated_weight(), BallQuadrature("mapped_grid", 64)
        fam = [AnisoBall([0.2, -0.1], 0.7), AnisoBall([-0.6, 0.5], 0.3)]
        real = scalar_slice_ap(W, 2.0, [1.0, 0.0], fam, quad, G2)
        cplx = scalar_slice_ap(W, 2.0, [1j, 0.0], fam, quad, G2)
        assert cplx.values.tolist() == real.values.tolist()

    @pytest.mark.parametrize("W", [sqrt_weight(), None], ids=["scalar", "none"])
    def test_non_matrix_weight_rejected(self, G1, W):
        with pytest.raises(ValueError, match="matrix weight"):
            scalar_slice_ap(W, 2.0, [1.0], [AnisoBall([0.0], 1.0)],
                            BallQuadrature("mapped_grid", 64), G1)


class TestDoubling:
    def test_lebesgue_exact(self, G2, grid1):
        w = ScalarWeightSpec.constant(1.0)
        fam = [AnisoBall([0.0, 0.0], 1.0), AnisoBall([1.0, 1.0], 0.5)]
        rep = doubling_check(w, 2.0, fam, [2.0, 4.0, 8.0], grid1, G2)
        for (_, _, lam, ratio) in rep.rows:
            assert ratio == pytest.approx(lam ** G2.nu, abs=1e-10)

    def test_sqrt_weight_centered_exact_power(self, G1, grid1):
        w = sqrt_weight()
        fam = [AnisoBall([0.0], 1.0), AnisoBall([0.0], 0.25)]
        rep = doubling_check(w, 2.0, fam, [2.0, 4.0], grid1, G1)
        for (_, _, lam, ratio) in rep.rows:
            assert ratio == pytest.approx(lam ** 1.5, rel=1e-10)
        assert rep.fitted_beta["scalar"] == pytest.approx(1.5, abs=1e-9)
        assert rep.bound_satisfied()

    def test_matrix_components(self, G1, grid1):
        W = MatrixWeightSpec.diagonal(
            [sqrt_weight(), ScalarWeightSpec.constant(1.0)]
        )
        fam = [AnisoBall([0.0], 1.0), AnisoBall([1.5], 0.5)]
        rep = doubling_check(W, 2.0, fam, [2.0, 4.0], grid1, G1)
        names = {r[1] for r in rep.rows}
        assert names == {"slice", "norm", "dual-slice"}
        assert all(r[3] >= 1.0 for r in rep.rows)
        assert rep.bound_satisfied(slack=0.05)

    @pytest.mark.parametrize("N", [3, 4])
    def test_singular_node_of_the_norm_is_nudged(self, G1, grid1, N):
        # the ladder of B(1/2048, 1) meets x = 0, where W has the entry
        # |x|^(-1/2) = inf: its spectral norm is NaN and the node is nudged,
        # for N = 4 (LAPACK SVD) as for N = 3 (closed form)
        S = ScalarWeightSpec
        W = MatrixWeightSpec.diag_dominant([S.radial_power(-0.5)] + [S.constant(1.0)] * (N - 1),
                                           {(0, 1): {(1,): 1.0}}, 0.5)
        rep = doubling_check(W, 2.0, [AnisoBall([1 / 2048], 1.0)], [2.0], grid1, G1)
        assert [r[1] for r in rep.rows] == ["slice", "norm", "dual-slice"]
        assert all(np.isfinite(r[3]) and r[3] >= 1.0 for r in rep.rows)

    def test_empty_family_rejected(self, G1, grid1):
        with pytest.raises(ValueError):
            doubling_check(sqrt_weight(), 2.0, [], [2.0], grid1, G1, bound_constant=2.0)

    def test_missing_weight_rejected(self, G1, grid1):
        with pytest.raises(ValueError, match="W must be a scalar or matrix weight"):
            doubling_check(None, 2.0, [AnisoBall([0.0], 1.0)], [2.0], grid1, G1)

    def test_empty_lambdas_rejected(self, G1, grid1):
        fam = [AnisoBall([0.0], 1.0)]
        with pytest.raises(ValueError):
            doubling_check(sqrt_weight(), 2.0, fam, [], grid1, G1, bound_constant=2.0)

    @pytest.mark.parametrize("lambdas", [[1.0], [1.0, 1.0], [0.5, 2.0], [np.nan, 2.0]])
    def test_lambdas_that_fit_no_beta_rejected(self, G1, grid1, lambdas):
        # with no lambda > 1 every log lambda is 0 and beta would be 0 / 0
        fam = [AnisoBall([0.0], 1.0)]
        with pytest.raises(ValueError, match="some > 1"):
            doubling_check(sqrt_weight(), 2.0, fam, lambdas, grid1, G1, bound_constant=2.0)


class TestReverseHolder:
    def test_constant_passes_everything(self, G1, grid1):
        fam = [AnisoBall([0.0], 1.0), AnisoBall([2.0], 0.5)]
        res = reverse_holder_search(ScalarWeightSpec.constant(1.0), fam,
                                    [1.2, 1.5, 2.0], grid1, G1)
        assert res.r_best == 2.0
        assert res.c1 == pytest.approx(1.0, abs=1e-9)

    def test_sqrt_weight_centered_oracle(self, G1, grid1):
        # closed form at r = 1.5 on centered balls: (4/7)^(2/3) * 3/2
        fam = [AnisoBall([0.0], 2.0 ** m) for m in (-1, 0, 1)]
        res = reverse_holder_search(sqrt_weight(), fam, [1.2, 1.5], grid1, G1)
        assert res.r_best == 1.5
        oracle = (4.0 / 7.0) ** (2.0 / 3.0) * 1.5
        assert res.c1 == pytest.approx(oracle, abs=2e-3)

    def test_default_family_criterion(self, G1, grid1):
        fam = default_ball_family(G1)
        res = reverse_holder_search(sqrt_weight(), fam,
                                    [1.2, 1.5, 2.0], grid1, G1)
        assert res.r_best is not None and res.r_best >= 1.2
        assert res.c1 <= 1.2

    def test_nonintegrable_weight_raises(self, G1, grid1):
        fam = [AnisoBall([0.0], 1.0)]
        with pytest.raises(NonIntegrable):
            reverse_holder_search(ScalarWeightSpec.radial_power(-2.0), fam,
                                  [1.5], grid1, G1)

    def test_divergent_power_skipped(self, G1, grid1):
        # w = |x|^(-1/2) is fine, but w^4 = |x|^(-2) diverges; the search
        # must settle on the smaller exponent
        fam = [AnisoBall([0.0], 1.0)]
        res = reverse_holder_search(ScalarWeightSpec.radial_power(-0.5), fam,
                                    [1.5, 4.0], grid1, G1)
        assert res.r_best == 1.5
        assert res.table[-1][1] is None

    def test_empty_family_rejected(self, G1, grid1):
        with pytest.raises(ValueError):
            reverse_holder_search(sqrt_weight(), [], [1.5, 2.0], grid1, G1)

    @pytest.mark.parametrize("r_grid", [[0.0], [-1.0, 1.5], [0.5], [1.0], [np.nan, 2.0],
                                        [1.5, np.inf]])
    def test_exponents_outside_one_to_inf_rejected(self, monkeypatch, G1, r_grid):
        # r = 0 divided by zero, r <= 1 could come back as r_best, nan gave a
        # silent row and inf came back as r_best; no weight is evaluated
        calls = count_calls(monkeypatch, muckenhoupt, "safe_power_values")
        with pytest.raises(ValueError, match="r_grid"):
            reverse_holder_search(sqrt_weight(), [AnisoBall([0.3], 1.0)], r_grid,
                                  BallQuadrature("mapped_grid", 64), G1)
        assert calls == []

    def test_matrix_weight_rejected(self, monkeypatch, G1, grid1):
        # averaging the entries of W, zeros included, would pass r = 2 here
        W = MatrixWeightSpec.diagonal([sqrt_weight(), ScalarWeightSpec.constant(1.0)])
        calls = count_calls(monkeypatch, muckenhoupt, "safe_power_values")
        with pytest.raises(ValueError, match="scalar weight"):
            reverse_holder_search(W, [AnisoBall([0.3], 1.0)], [1.5, 2.0],
                                  BallQuadrature("mapped_grid", 256), G1)
        assert calls == []


class TestReducing:
    def test_identity(self, G2, grid1):
        W = MatrixWeightSpec.identity(2)
        pair = reducing_operators(W, AnisoBall([0.0, 0.0], 1.0), 2.0, grid1, G2)
        assert np.allclose(pair.A_B, np.eye(2), atol=1e-10)
        assert np.allclose(pair.A_B_sharp, np.eye(2), atol=1e-10)
        assert pair.product_norm == pytest.approx(1.0, abs=1e-10)
        assert pair.distortion == pytest.approx(1.0, abs=1e-10)

    def test_scalar_closed_form(self, G1, grid1):
        W = MatrixWeightSpec.diagonal([sqrt_weight()])
        B = AnisoBall([0.0], 1.0)
        for p in (0.7, 2.0):
            pair = reducing_operators(W, B, p, grid1, G1)
            # N = 1: A_B = (avg w)^(1/p); avg |x|^(1/2) over (-1,1) is 2/3
            assert pair.A_B[0, 0].real == pytest.approx((2.0 / 3.0) ** (1.0 / p),
                                                        rel=2e-3)
            assert pair.distortion == pytest.approx(1.0, abs=1e-9)

    def test_p2_gram_identity(self, G1, grid1):
        W = MatrixWeightSpec.diagonal([sqrt_weight(), ScalarWeightSpec.constant(1.0)])
        B = AnisoBall([0.5], 1.0)
        pair = reducing_operators(W, B, 2.0, grid1, G1)
        nodes = grid1.ball_nodes(G1, B, 2)
        gram = W.values(nodes).mean(axis=0)
        lam, V = np.linalg.eigh(gram)
        root = (V * np.sqrt(lam)) @ V.conj().T
        assert np.max(np.abs(pair.A_B - root)) <= 1e-6
        assert pair.distortion <= np.sqrt(2) * 1.05
        assert not pair.fit_degenerate

    @pytest.mark.parametrize("weight", ["ap-matrix", "conjugated"])
    def test_p2_gram_identity_of_both_operators(self, G2, grid1, weight):
        # A_B = (avg W)^(1/2) and A_B^# = (avg W^(-1))^(1/2); the sharp fit
        # reads |M^H u| = |W^(-1/2) u|, where |M u| would fit another form
        W = ap_matrix_weight() if weight == "ap-matrix" else conjugated_weight()
        B = AnisoBall([0.2, -0.1], 0.7)
        pair = reducing_operators(W, B, 2.0, grid1, G2, q_grid=[])
        values = W.values(grid1.ball_nodes(G2, B, _LEVELS - 1))
        for A, gram in ((pair.A_B, values.mean(axis=0)),
                        (pair.A_B_sharp, np.linalg.inv(values).mean(axis=0))):
            assert np.max(np.abs(A - hermitian_power(gram[None], 0.5)[0])) <= 1e-6 * np.abs(A).max()
        assert pair.product_norm == pytest.approx(
            np.linalg.norm(pair.A_B @ pair.A_B_sharp, 2), rel=1e-15)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_both_fits_take_one_factorization(self, G2, grid1, monkeypatch, p):
        # F for A_B and M for A_B^# come from one `_pair_factors` call
        calls, inner = [], muckenhoupt._pair_factors
        monkeypatch.setattr(muckenhoupt, "_pair_factors", lambda W, pts, p, scale: (
            calls.append(pts) or inner(W, pts, p, scale)))
        B = AnisoBall([0.2, -0.1], 0.7)
        pair = reducing_operators(ap_matrix_weight(), B, p, grid1, G2, q_grid=[])
        assert pair.A_B_sharp is not None
        [nodes] = calls
        assert nodes.tobytes() == grid1.ball_nodes(G2, B, _LEVELS - 1).tobytes()

    def test_optimizer_recovers_gram_at_p2(self, G1, grid1):
        # feed the reweighted least squares the p = 2 data; it must land on
        # the Gram square root, which represents eta exactly
        from anisoweights.muckenhoupt import _directions, _fit_reducing

        W = MatrixWeightSpec.diagonal([sqrt_weight(), ScalarWeightSpec.constant(1.0)])
        B = AnisoBall([0.5], 1.0)
        nodes = grid1.ball_nodes(G1, B, 2)
        dirs = _directions(2, 8, False)
        gram = W.values(nodes).mean(axis=0)
        lam, V = np.linalg.eigh(gram)
        root = (V * np.sqrt(lam)) @ V.conj().T
        fitted, _, positive = _fit_reducing(safe_power_values(W, nodes, 0.5, 1.0), dirs, 2.0)
        assert positive
        assert np.max(np.abs(fitted - root)) <= 1e-6

    @pytest.mark.parametrize("W", [sqrt_weight(), None], ids=["scalar", "none"])
    def test_non_matrix_weight_rejected(self, G1, grid1, W):
        with pytest.raises(ValueError, match="matrix weight"):
            reducing_operators(W, AnisoBall([0.0], 1.0), 2.0, grid1, G1)

    @pytest.mark.parametrize("q_grid", [[1.0, np.nan], [2.5, 2.0], [np.inf]],
                             ids=["below-p-and-nan", "equal-to-p", "inf"])
    def test_q_grid_above_p_only(self, G1, grid1, q_grid):
        with pytest.raises(ValueError, match="q_grid must hold exponents q with p < q < inf"):
            reducing_operators(sqrt_matrix_weight(), AnisoBall([0.3], 1.0), 2.0, grid1, G1,
                               q_grid=q_grid)

    def test_p_not_two_fit(self, G1, grid1):
        W = MatrixWeightSpec.diagonal([sqrt_weight(), ScalarWeightSpec.constant(1.0)])
        B = AnisoBall([0.0], 1.0)
        pair = reducing_operators(W, B, 1.5, grid1, G1)
        assert pair.distortion <= np.sqrt(2) * 1.05
        assert pair.product_norm is not None and np.isfinite(pair.product_norm)
        assert pair.largest_q is not None and pair.largest_q > 1.5
        for q, (v1, v2) in pair.q_values.items():
            assert np.isfinite(v1) and np.isfinite(v2)


class TestInvariance:
    def test_identity_map_zero(self, G1, grid1):
        W = sqrt_weight()
        T = AffineMap(G1, 1.0, np.zeros(1))
        fam = [AnisoBall([0.0], 1.0), AnisoBall([1.0], 0.5)]
        rows = invariance_report(W, 2.0, T, fam, grid1, G1)
        assert max(r.discrepancy for r in rows) == 0.0

    def test_scale_map_closed_form(self, G1, grid1):
        # w = |x|^(1/2), T = 2x, B = (-1, 1): both sides average to 4/3
        w = sqrt_weight()
        T = AffineMap(G1, 2.0, np.zeros(1))
        fam = [AnisoBall([0.0], 1.0)]
        rows = invariance_report(w, 2.0, T, fam, grid1, G1)
        assert rows[0].composed == pytest.approx(4.0 / 3.0, abs=1e-4)
        assert rows[0].transported == pytest.approx(4.0 / 3.0, abs=5e-3)
        assert rows[0].discrepancy <= 2 * rows[0].combined_error

    def test_matrix_weight_2d(self, G2):
        quad = BallQuadrature("mapped_grid", 256)
        W = sqrt_matrix_weight()
        T = AffineMap(G2, 2.0, np.array([1.0, 0.0]))
        fam = [AnisoBall([0.0, 0.0], 1.0), AnisoBall([0.5, 1.0], 2.0)]
        rows = invariance_report(W, 2.0, T, fam, quad, G2)
        for row in rows:
            assert row.discrepancy <= 2 * row.combined_error

    @pytest.mark.parametrize("kind", ["scalar", "matrix"])
    def test_empty_family_gives_no_rows(self, G2, kind):
        W = sqrt_weight() if kind == "scalar" else ap_matrix_weight()
        T = AffineMap(G2, 2.0, np.array([1.0, 0.0]))
        assert invariance_report(W, 2.0, T, [], BallQuadrature("mapped_grid", 64), G2) == []

    def test_change_of_variables_at_rounding(self, G2, grid1):
        # B and T(B) share the reference nodes, so W∘T on B and W on T(B)
        # are one average after y = T(x), up to rounding in the dilations.
        # No node of these balls lies on x1 = 0, where W is singular: a
        # nudge there is sized by the ball, and B and T(B) differ in size
        W = sqrt_matrix_weight()
        fam = default_ball_family(G2, 2.0, radii=[0.25, 0.5, 1.0, 2.0])[::5]
        assert len(fam) == 19
        for t, b in ((2.0, [1.0, 0.0]), (0.5, [0.25, -1.0]), (3.0, [-0.5, 0.75])):
            rows = invariance_report(W, 2.0, AffineMap(G2, t, np.array(b)), fam, grid1, G2)
            assert max(r.discrepancy / r.transported for r in rows) <= 1e-13


class TestPolynomialValidity:
    def test_cases(self):
        assert polynomial_ap_validity(1, 0.5, 2.0)
        assert not polynomial_ap_validity(2, 1.0, 2.0)
        assert polynomial_ap_validity(3, 0.0, 1.5)
        assert not polynomial_ap_validity(1, -1.5, 2.0)


class TestTailBound:
    def test_lebesgue_closed_form(self, G1, grid1):
        # w = 1, A = (1), L = nu + 1 = 2: the full integral is 2/t and the
        # cell mass 2 r0 / t, so the ratio is 1 / r0
        r0 = compute_r0(G1)
        res = weighted_tail_bound(ScalarWeightSpec.constant(1.0), G1, 1.0,
                                  [0.0], 2.0, grid1, beta=1.0)
        assert res.ratio == pytest.approx(1.0 / r0, rel=1e-3)
        assert res.ratio <= res.bound

    def test_monotone_in_L(self, G1, grid1):
        w = ScalarWeightSpec.constant(1.0)
        r_small = weighted_tail_bound(w, G1, 1.0, [0.0], 2.0, grid1, beta=1.0)
        r_big = weighted_tail_bound(w, G1, 1.0, [0.0], 3.0, grid1, beta=1.0)
        assert r_big.ratio < r_small.ratio

    @pytest.mark.parametrize("L", [1.05, 1.1, 1.5, 2.0])
    def test_slow_tails_against_closed_form(self, G1, grid1, L):
        # w = 1, A = (1): the ratio is 1 / ((L - 1) r0).  Annulus terms
        # shrink by about 2^(1 - L), 0.966 at L = 1.05, so the 40 annuli
        # leave a tail that the geometric remainder has to supply
        r0 = compute_r0(G1)
        res = weighted_tail_bound(ScalarWeightSpec.constant(1.0), G1, 1.0,
                                  [0.0], L, grid1, beta=1.0)
        assert res.ratio == pytest.approx(1.0 / ((L - 1.0) * r0), rel=1e-4)
        assert res.ratio <= res.bound

    @pytest.mark.parametrize("L", [1.05, 1.1, 1.5, 2.0])
    def test_bound_sums_the_whole_series(self, G1, grid1, L):
        # 1 + c * sum_m 2^(m beta) (1 + 2^(m - 1) r0)^(-L), the series summed
        # in log space to 5,000 terms; at L = 1.05 its first 60 terms miss
        # 13% of it.  The geometric rest exceeds the true rest by about 1e-17
        # relative, below rounding, so the bound may sit an ulp under it.
        beta, r0 = 1.0, compute_r0(G1)
        res = weighted_tail_bound(ScalarWeightSpec.constant(1.0), G1, 1.0,
                                  [0.0], L, grid1, beta=beta)
        m = np.arange(1, 5_001)
        logs = m * beta * np.log(2.0) - L * np.logaddexp(0.0, (m - 1) * np.log(2.0) + np.log(r0))
        want = 1.0 + res.doubling_constant * np.exp(logs.max()) * np.sum(np.exp(logs - logs.max()))
        assert want * (1 - 1e-15) <= res.bound <= want * (1 + 1e-6)

    def test_depth_cap_raises(self, G1, grid1, monkeypatch):
        # L = beta + 1 converges within the 40 annuli of test_lebesgue_closed_form;
        # after two annuli its term ratio still grows (0.498, then 0.997)
        monkeypatch.setattr(muckenhoupt, "_TAIL_DEPTH", 2)
        with pytest.raises(TruncationNotConverged, match="depth 2"):
            weighted_tail_bound(ScalarWeightSpec.constant(1.0), G1, 1.0, [0.0], 2.0, grid1,
                                beta=1.0)

    def test_sqrt_weight(self, G1, grid1):
        res = weighted_tail_bound(sqrt_weight(), G1, 1.0, [0.0], 3.0, grid1,
                                  beta=1.5)
        assert np.isfinite(res.ratio)
        assert res.ratio <= res.bound

    def test_matrix_weight_rejected(self, monkeypatch, G1, grid1):
        W = MatrixWeightSpec.diagonal([sqrt_weight(), ScalarWeightSpec.constant(1.0)])
        calls = count_calls(monkeypatch, muckenhoupt, "safe_power_values")
        with pytest.raises(ValueError, match="scalar weight"):
            weighted_tail_bound(W, G1, 1.0, [0.0], 3.0, grid1, beta=1.5)
        assert calls == []

    @pytest.mark.parametrize("t_j, L, beta, name", [
        (0.0, 3.0, 1.5, "t_j"), (-1.0, 3.0, 1.5, "t_j"), (np.inf, 3.0, 1.5, "t_j"),
        (np.nan, 3.0, 1.5, "t_j"), (1.0, 3.0, np.nan, "beta"), (1.0, 3.0, -np.inf, "beta"),
        (1.0, np.inf, 1.5, "L"), (1.0, np.nan, 1.5, "L"), (1.0, 1.5, 1.5, "L")])
    def test_numbers_out_of_range_rejected(self, monkeypatch, G1, t_j, L, beta, name):
        # t_j = 0 divided by zero, beta = nan gave a nan bound, L = inf
        # overflowed and L = nan raised TruncationNotConverged
        calls = count_calls(monkeypatch, muckenhoupt, "safe_power_values")
        with pytest.raises(ValueError, match=f"^{name} must"):
            weighted_tail_bound(sqrt_weight(), G1, t_j, [0.0], L,
                                BallQuadrature("mapped_grid", 64), beta=beta)
        assert calls == []

    def test_each_annulus_is_nudged_by_its_own_ball(self, monkeypatch, G1):
        # annulus m takes the nodes of B(x_jl, 2^m r0 / t_j) and that ball's scale
        scales, inner = [], muckenhoupt.safe_power_values

        def recorded(w, pts, a, scale):
            scales.append(scale)
            return inner(w, pts, a, scale)

        monkeypatch.setattr(muckenhoupt, "safe_power_values", recorded)
        res = weighted_tail_bound(sqrt_weight(), G1, 2.0, [1.0], 3.0,
                                  BallQuadrature("mapped_grid", 64), beta=1.5)
        rho = compute_r0(G1) / 2.0
        assert scales == [G1.euclidean_radius_bound(2.0 ** m * rho) for m in range(len(res.terms))]


# The two nudge loops that `safe_power_values` replaced, kept as oracles.  The
# scalar loop evaluates the nudged nodes again; the matrix loop finds the
# singular nodes with `eigvalsh` on the whole stack and then evaluates the
# whole stack again.


def oracle_perturb(pts, mask, scale, attempt):
    d = pts.shape[1]
    shift = 1e-9 * np.asarray(scale) * (attempt + 1) / np.sqrt(d)
    out = pts.copy()
    out[mask] = out[mask] + np.broadcast_to(shift, len(pts))[mask, None]
    return out


def oracle_scalar_values(spec, pts, scale):
    vals = np.asarray(spec.values(pts), dtype=float)
    for attempt in range(3):
        bad = ~np.isfinite(vals) | (vals <= 0.0)
        if not bad.any():
            return vals
        pts = oracle_perturb(pts, bad, scale, attempt)
        vals[bad] = spec.values(pts[bad])
    bad = ~np.isfinite(vals) | (vals <= 0.0)
    if bad.any():
        raise SingularWeight("could not move nodes off the singular set")
    return vals


def oracle_power_values(spec, pts, a, scale):
    if not hasattr(spec, "power_values"):
        return oracle_scalar_values(spec, pts, scale) ** a
    for attempt in range(4):
        try:
            return spec.power_values(pts, a)
        except SingularWeight:
            eig = np.linalg.eigvalsh(spec.values(pts))
            bad = eig[:, 0] < 1e-300
            if not bad.any():
                raise
            pts = oracle_perturb(pts, bad, scale, attempt)
    raise SingularWeight("could not move nodes off the singular set")


# The hand-written ladder loops that the family ladders replaced, kept as
# oracles: each statistic is recomputed from fresh node evaluations on every
# level, for every ball and for every exponent.


def loop_matrix_quantity(Px, Mt, p):
    """One ball's matrix quantity from all of its pair norms at once, squared at p = 2."""
    return loop_reduce_pairs(_span_norms(Px, Mt, 1, p == 2)[0], p, p == 2)


def loop_reduce_pairs(norms, p, squared=False):
    if p > 1:
        pp = p / (p - 1.0)
        inner = np.mean(norms if squared else norms ** pp, axis=1) ** (p / pp)
        return float(np.mean(inner) ** (1.0 / p))
    return float(np.max(np.mean(norms ** p, axis=0)))


def loop_ap_ladder(W, B, p, quad, G):
    """One ball's ladder, level by level, from nodes built for this ball
    alone: the x nodes of a pair unshifted and the t nodes shifted, with
    the factors of the family ladder (`_pair_factors`)."""
    scale = G.euclidean_radius_bound(B.radius)

    def nodes(level, shifted, pair=False):
        return G.dilate(B.radius, quad.reference_nodes(G, level, shifted, pair=pair)) + B.center

    levels = []
    for level in range(_LEVELS):
        if hasattr(W, "power_values"):
            Px = muckenhoupt._pair_factors(W, nodes(level, False, pair=True), p, scale)[0]
            Mt = muckenhoupt._pair_factors(W, nodes(level, True, pair=True), p, scale)[1]
            levels.append(loop_matrix_quantity(Px, Mt, p))
        else:
            w = oracle_scalar_values(W, nodes(level, False), scale)
            levels.append(_scalar_quantity_at_nodes(w, p))
    return ladder_estimate(levels)


def loop_estimate_ap_constant(W, p, family, quad, G):
    """Values and errors of the family, one ball and one level at a time."""
    ladders = [loop_ap_ladder(W, B, p, quad, G) for B in family]
    return np.array([l.value for l in ladders]), np.array([l.error for l in ladders])


def loop_reverse_holder(w, family, r_grid, quad, G):
    for B in family:
        loop_mass_ladder(w, B, quad, G)
    table = []
    best = None
    for r in sorted(r_grid):
        try:
            worst = 0.0
            for B in family:
                scale = G.euclidean_radius_bound(B.radius)
                levels_hi, levels_lo = [], []
                for level in range(_LEVELS):
                    nodes = quad.ball_nodes(G, B, level, shifted=False)
                    vals = oracle_scalar_values(w, nodes, scale)
                    levels_hi.append(np.mean(vals ** r) ** (1.0 / r))
                    levels_lo.append(np.mean(vals))
                hi = ladder_estimate(levels_hi).value
                lo = ladder_estimate(levels_lo).value
                worst = max(worst, hi / lo)
            table.append((float(r), float(worst)))
            if best is None or r > best[0]:
                best = (float(r), float(worst))
        except NonIntegrable:
            table.append((float(r), None))
    if best is None:
        return None, float("inf"), table
    return best[0], best[1], table


def hermitian_roots(W, pts, p, scale):
    """The roots W^(1/p) and W^(-1/p) of `safe_power_values`, which the
    factors of `_pair_factors` stand in for."""
    return safe_power_values(W, pts, 1.0 / p, scale), safe_power_values(W, pts, -1.0 / p, scale)


def loop_q_sweep(W, B, p, quad, G, A_B, A_sharp, q_grid, factors=muckenhoupt._pair_factors):
    """The q-sweep of `reducing_operators`, one q and one level at a time, from
    fresh `factors` (`_pair_factors`, or `hermitian_roots`)."""
    scale = G.euclidean_radius_bound(B.radius)
    q_values, largest_q = {}, None
    for q in q_grid:
        try:
            levels = []
            for level in range(_LEVELS):
                nds = quad.ball_nodes(G, B, level, shifted=False)
                vals = spectral_norms(factors(W, nds, p, scale)[0] @ A_sharp)
                levels.append(np.mean(vals ** q))
            lv = ladder_estimate(levels)
            levels2 = []
            for level in range(_LEVELS):
                nds = quad.ball_nodes(G, B, level, shifted=True)
                vals = spectral_norms(A_B @ factors(W, nds, p, scale)[1])
                levels2.append(np.mean(vals ** q))
            lv2 = ladder_estimate(levels2)
            q_values[float(q)] = (lv.value, lv2.value)
            largest_q = float(q)
        except NonIntegrable:
            break
    return q_values, largest_q


def loop_mass_ladder(w, B, quad, G):
    """One ball's mass ladder, level by level, from nodes built for this ball alone."""
    scale = G.euclidean_radius_bound(B.radius)
    return loop_shadow_ladder(lambda nodes: safe_power_values(w, nodes, 1.0, scale), B, quad, G)


def loop_shadow_ladder(values, B, quad, G, reduce=None):
    """One ball's ladder of vol * avg values(nodes), or of reduce(values(nodes)),
    level by level on its unshifted nodes."""
    vol = ball_volume(G, B.radius)
    return ladder_estimate([
        vol * np.mean(v) if reduce is None else reduce(v)
        for v in (values(quad.ball_nodes(G, B, level)) for level in range(_LEVELS))])


def loop_shadow(W, p, name, B, G, nodes, v=None):
    """One matrix shadow of `doubling_check` at the nodes of the ball B, from
    `_pair_factors` and the engine's formulas: each node nudged by B's
    scale, the centre by its own."""
    F, M = muckenhoupt._pair_factors(W, nodes, p, G.euclidean_radius_bound(B.radius))
    if name == "slice":
        return weighted_magnitudes(F, np.eye(W.N)[0] if v is None else v) ** p
    if name == "norm":
        return spectral_norms(F) ** p
    c = np.array([B.center], dtype=float)
    Fc = muckenhoupt._pair_factors(W, c, p, muckenhoupt._node_scales(c))[0]
    return spectral_norms(np.repeat(Fc, len(nodes), axis=0) @ M) ** (p / (p - 1.0))


@dataclass(frozen=True)
class NormOfW:
    """Scalar weight |W(x)|, the spectral norm of W.values, with no root."""

    W: object

    def values(self, pts):
        return spectral_norms(self.W.values(pts))


def root_shadow(W, p, name, B, G, nodes, v=None):
    """One matrix shadow from the Hermitian roots of `safe_power_values` and,
    for the norm, `W.values` and `spectral_norms`: the formulas that the
    factors of `_pair_factors` stand in for, with `loop_shadow`'s nudges."""
    scale = G.euclidean_radius_bound(B.radius)
    if name == "slice":
        return weighted_magnitudes(safe_power_values(W, nodes, 1.0 / p, scale),
                                   np.eye(W.N)[0] if v is None else v) ** p
    if name == "norm":
        return safe_power_values(NormOfW(W), nodes, 1.0, scale)
    c = np.array([B.center], dtype=float)
    left = safe_power_values(W, c, 1.0 / p, muckenhoupt._node_scales(c))[0]
    right = safe_power_values(W, nodes, -1.0 / p, scale)
    return spectral_norms(np.einsum("ij,mjk->mik", left, right)) ** (p / (p - 1.0))


def loop_doubling(W, p, family, lambdas, quad, G, bound_constant=None, shadow=loop_shadow):
    """Rows, fitted beta and bound constant of `doubling_check`, one mass
    ladder per ball, shadow and lambda, each from nodes built for its ball
    alone; a matrix weight's shadows from `shadow` (`loop_shadow` or `root_shadow`)."""
    names = (["slice", "norm"] + (["dual-slice"] if p > 1 else [])
             if hasattr(W, "power_values") else ["scalar"])

    def values(name, B):
        if name == "scalar":
            scale = G.euclidean_radius_bound(B.radius)
            return lambda nodes: safe_power_values(W, nodes, 1.0, scale)
        return lambda nodes: shadow(W, p, name, B, G, nodes)

    if bound_constant is None:  # the probe's A_max(1,p) constant
        bound_constant = max(loop_shadow_ladder(
            values(names[0], B), B, quad, G,
            lambda v: _scalar_quantity_at_nodes(v, max(1.0, p))).value for B in family)
    rows = []
    logs = {name: ([], []) for name in names}
    for i, B in enumerate(family):
        for name in names:
            base = loop_shadow_ladder(values(name, B), B, quad, G).value
            for lam in lambdas:
                grown_ball = AnisoBall(B.center, lam * B.radius)
                grown = loop_shadow_ladder(values(name, grown_ball), grown_ball, quad, G).value
                ratio = grown / base
                rows.append((i, name, float(lam), float(ratio)))
                logs[name][0].append(np.log(lam))
                logs[name][1].append(np.log(max(ratio, 1e-300)))
    fitted = {}
    for name, (lx, ly) in logs.items():
        lx, ly = np.asarray(lx), np.asarray(ly)
        fitted[name] = float((lx * ly).sum() / (lx * lx).sum())
    return rows, fitted, float(bound_constant)


def loop_slice_ap(W, p, v, family, quad, G, shadow=loop_shadow):
    """Values and errors of `scalar_slice_ap`, one ball and one level at a time."""
    ladders = [loop_shadow_ladder(lambda nodes: shadow(W, p, "slice", B, G, nodes, v),
                                  B, quad, G, lambda s: _scalar_quantity_at_nodes(s, p))
               for B in family]
    return np.array([l.value for l in ladders]), np.array([l.error for l in ladders])


def conjugated_weight():
    th = 0.4
    U = np.array([[np.cos(th), 1j * np.sin(th)], [1j * np.sin(th), np.cos(th)]])
    return MatrixWeightSpec.conjugated(
        U, [ScalarWeightSpec.poly_abs_power({(1, 0): 1.0}, 0.5),
            ScalarWeightSpec.radial_power(-0.3)])


def ap_matrix_weight(a=0.5, b=0.0):
    """The 3x3 weight of the ap-matrix-2d and multiplier-2d benchmarks.

    a = 1/2 and b = 0 is variant 0; `benchmark_variant` gives the others.
    """
    S = ScalarWeightSpec
    return MatrixWeightSpec.diag_dominant(
        [S.poly_abs_power({(1, 0): 1.0}, 0.5), S.radial_power(0.5), S.constant(2.0)],
        {(0, 1): {(0, 1): 1.0, (0, 0): b}, (1, 2): {(1, 0): 1.0, (0, 0): a}},
        0.5,
    )


def benchmark_variant(variant):
    """The benchmark weight of a variant: a in [1/4, 3/4], b in [-1/4, 1/4]."""
    a = 0.25 + 0.5 * np.random.default_rng([variant, 2]).random()
    b = -0.25 + 0.5 * np.random.default_rng([variant, 3]).random()
    return ap_matrix_weight(a, b)


def lm_reducing_fit(dirs, eta, S0):
    """Oracle: least squares of log|S u| on log eta over S = expm(H), H Hermitian.

    Levenberg-Marquardt from the start S0; the rows S u are dirs @ S.T.
    """
    from scipy.optimize import least_squares

    N, complex_ = S0.shape[0], np.iscomplexobj(dirs)
    iu = np.triu_indices(N, k=1)

    def expm(H):
        lam, V = np.linalg.eigh(H)
        return (V * np.exp(lam)) @ V.conj().T

    def unpack(x):
        H = np.zeros((N, N), dtype=complex)
        H[np.diag_indices(N)] = x[:N]
        off = x[N:N + len(iu[0])]
        if complex_:
            off = off + 1j * x[N + len(iu[0]):]
        H[iu] = off
        H[(iu[1], iu[0])] = np.conj(off)
        return H

    lam0, V0 = np.linalg.eigh(S0)
    H0 = (V0 * np.log(np.maximum(lam0, 1e-150))) @ V0.conj().T
    x0 = [np.real(np.diag(H0)), np.real(H0[iu])] + ([np.imag(H0[iu])] if complex_ else [])

    def resid(x):
        mags = np.linalg.norm(dirs @ expm(unpack(x)).T, axis=1)
        return np.log(np.maximum(mags, 1e-150)) - np.log(eta)

    sol = least_squares(resid, np.concatenate(x0), method="lm", max_nfev=400)
    return expm(unpack(sol.x))


def eta_values(root, dirs, exponent):
    """(avg |W^a(t) u|^exponent)^(1/exponent) per direction u, root = W^a."""
    mags = np.linalg.norm(np.einsum("mij,kj->mki", root, dirs), axis=2)
    return np.mean(mags ** exponent, axis=0) ** (1.0 / exponent)


def oracle_distortions(W, B, p, quad, G, monkeypatch):
    """reducing_operators' pair, and the LM oracle's distortion on the same
    directions and eta for A_B and A_B^#, each started from the Gram proxy
    (avg_B W^(2a))^(1/2) of its root W^a."""
    fits = []
    inner = muckenhoupt._fit_reducing

    def recorded(root, dirs, exponent):
        fits.append((dirs, eta_values(root, dirs, exponent)))
        return inner(root, dirs, exponent)

    monkeypatch.setattr(muckenhoupt, "_fit_reducing", recorded)
    pair = reducing_operators(W, B, p, quad, G, q_grid=[])
    nodes = quad.ball_nodes(G, B, _LEVELS - 1)
    scale = G.euclidean_radius_bound(B.radius)
    want = []
    for (dirs, eta), a in zip(fits, (1.0 / p, -1.0 / p)):
        gram = safe_power_values(W, nodes, 2 * a, scale).mean(axis=0)
        S = lm_reducing_fit(dirs, eta, hermitian_power(gram, 0.5))
        ratios = np.linalg.norm(dirs @ S.T, axis=1) / eta
        want.append(ratios.max() / ratios.min())
    return pair, want


def count_calls(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def power_calls(monkeypatch):
    """Stack sizes that `hermitian_power` gets, and those of the calls that raised."""
    calls, raised = [], []
    power = weights.hermitian_power

    def counted(M, a):
        calls.append(len(M))
        try:
            return power(M, a)
        except SingularWeight:
            raised.append(len(M))
            raise

    monkeypatch.setattr(weights, "hermitian_power", counted)
    return calls, raised


@pytest.fixture
def dilate_calls(monkeypatch):
    """The shape of t in each `DilationGroup.dilate` call."""
    calls = []
    dilate = DilationGroup.dilate
    monkeypatch.setattr(DilationGroup, "dilate",
                        lambda self, t, xi: calls.append(np.shape(t)) or dilate(self, t, xi))
    return calls


@pytest.fixture(params=[256, 1024], ids=["mapped_grid", "mapped_grid_1024"])
def any_quad(request):
    # the tests' grid and the benchmarks' one (2-D pair widths 4, 6, 8 and 6, 8, 12)
    return BallQuadrature("mapped_grid", request.param)


class TestReducingFit:
    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("weight", [ap_matrix_weight, conjugated_weight])
    def test_no_worse_than_lm_oracle(self, G2, grid1, monkeypatch, weight, p):
        for B in (AnisoBall([0.2, -0.1], 0.7), AnisoBall([0.5, -0.5], 1.0),
                  AnisoBall([-1.0, 2.0], 0.5)):
            pair, (want, want_sharp) = oracle_distortions(weight(), B, p, grid1, G2, monkeypatch)
            assert pair.distortion <= want * (1 + 1e-5)
            assert pair.sharp_distortion <= want_sharp * (1 + 1e-5)

    def test_complex_weight_convention(self, G2, grid1):
        # the rows A u are dirs @ A.T; measuring |conj(A) u| instead makes
        # the exact p = 2 Gram root of a complex weight look distorted
        # (1.67) and degenerate
        W, B = conjugated_weight(), AnisoBall([0.2, -0.1], 0.7)
        pair = reducing_operators(W, B, 2.0, grid1, G2)
        assert pair.distortion == pytest.approx(1.0, abs=1e-9)
        assert pair.sharp_distortion == pytest.approx(1.0, abs=1e-9)
        assert not pair.fit_degenerate

        p = 1.5
        pair = reducing_operators(W, B, p, grid1, G2)
        nodes = grid1.ball_nodes(G2, B, _LEVELS - 1)
        root = safe_power_values(W, nodes, 1.0 / p, G2.euclidean_radius_bound(B.radius))
        dirs = muckenhoupt._directions(2, 8, True)
        ratios = np.linalg.norm(dirs @ pair.A_B.T, axis=1) / eta_values(root, dirs, p)
        assert ratios.max() / ratios.min() <= 1.01

    def test_singular_centre_gets_complex_directions(self, G2, grid1, monkeypatch):
        # W is infinite at the centre 0; complexness comes from the nodes
        calls = []
        inner = muckenhoupt._directions

        def recorded(N, n, complex_):
            calls.append(complex_)
            return inner(N, n, complex_)

        monkeypatch.setattr(muckenhoupt, "_directions", recorded)
        B = AnisoBall([0.0, 0.0], 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair, (want, _) = oracle_distortions(conjugated_weight(), B, 1.5, grid1, G2,
                                                 monkeypatch)
        assert calls == [True]
        assert pair.distortion == pytest.approx(want, rel=1e-5)


class TestOneLadder:
    @pytest.mark.parametrize("p", [0.7, 1.5, 2.0, 3.0])
    def test_ap_ladder_matches_loop(self, G1, G2, any_quad, p):
        cases = [(sqrt_weight(), AnisoBall([0.3], 1.0), G1),
                 (ScalarWeightSpec.radial_power(-0.3), AnisoBall([0.5], 2.0), G1),
                 (sqrt_matrix_weight(), AnisoBall([0.2], 0.5), G1),
                 (conjugated_weight(), AnisoBall([0.2, -0.1], 0.7), G2)]
        for W, B, G in cases:
            try:
                want = loop_ap_ladder(W, B, p, any_quad, G)
            except NonIntegrable:
                with pytest.raises(NonIntegrable):
                    ap_ball_quantity_ladder(W, B, p, any_quad, G)
                continue
            got = ap_ball_quantity_ladder(W, B, p, any_quad, G)
            assert (got.value, got.error, got.levels) == (want.value, want.error, want.levels)

    @pytest.mark.parametrize("gamma, r_grid", [(0.5, [1.2, 2.0, 1.5]),
                                               (-0.5, [1.5, 4.0]),
                                               (-0.9, [1.5, 2.0])])
    def test_reverse_holder_matches_loop(self, G1, any_quad, gamma, r_grid):
        # gamma = -0.5 diverges at r = 4, and gamma = -0.9 at every r >= 1.5
        w = ScalarWeightSpec.radial_power(gamma)
        fam = default_ball_family(G1, 2.0, radii=[0.5, 1.0])
        try:
            want = loop_reverse_holder(w, fam, r_grid, any_quad, G1)
        except NonIntegrable:
            with pytest.raises(NonIntegrable):
                reverse_holder_search(w, fam, r_grid, any_quad, G1)
            return
        res = reverse_holder_search(w, fam, r_grid, any_quad, G1)
        assert (res.r_best, res.c1, res.table) == want

    @pytest.mark.parametrize("p", [0.7, 1.5, 2.0, 3.0])
    def test_q_sweep_matches_loop(self, G1, G2, any_quad, p):
        for W, B, G in ((sqrt_matrix_weight(), AnisoBall([0.3], 1.0), G1),
                        (conjugated_weight(), AnisoBall([0.2, -0.1], 0.7), G2)):
            q_grid = [p + 0.5, p + 1.0, p + 8.0]
            pair = reducing_operators(W, B, p, any_quad, G, q_grid=q_grid)
            if p <= 1:
                assert (pair.q_values, pair.largest_q) == ({}, None)
                continue
            assert (pair.q_values, pair.largest_q) == loop_q_sweep(
                W, B, p, any_quad, G, pair.A_B, pair.A_B_sharp, q_grid)
            # against the Hermitian roots (no node of these balls is nudged)
            roots, largest = loop_q_sweep(W, B, p, any_quad, G, pair.A_B, pair.A_B_sharp,
                                          q_grid, hermitian_roots)
            assert largest == pair.largest_q and roots.keys() == pair.q_values.keys()
            for q, values in pair.q_values.items():
                assert np.allclose(values, roots[q], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("weight", ["sqrt", "ap-matrix", "conjugated", "ap-matrix-nudged"])
    def test_doubling_matches_loop(self, G1, G2, any_quad, weight, p):
        # on the grid, 2B of the ball at 1/2048 has a finest-level node at
        # the singular point 0, nudged by 2B's own scale inside B's family;
        # B((1/8, 0), 1) puts nodes of 2B (level 0) and 4B (level 1) of the
        # 256-node grid, and of 4B (level 0) of the 1,024-node one, on
        # x1 = 0, where the ap-matrix weight is singular
        W, G, fam = {
            "sqrt": (sqrt_weight(), G1, [AnisoBall([1 / 2048], 1.0), AnisoBall([-1.0], 0.5)]),
            "ap-matrix": (ap_matrix_weight(), G2,
                          [AnisoBall([0.2, -0.1], 0.7), AnisoBall([1.0, 0.0], 2.0)]),
            "conjugated": (conjugated_weight(), G2,
                           [AnisoBall([0.2, -0.1], 0.7), AnisoBall([0.0, 0.0], 1.0)]),
            "ap-matrix-nudged": (ap_matrix_weight(), G2, [AnisoBall([1 / 8, 0.0], 1.0)]),
        }[weight]
        lambdas, bound = [2.0, 4.0], None
        if weight == "ap-matrix-nudged":
            assert singular_node_count(W, fam[0], lambdas, any_quad, G) > 0
        try:
            want = loop_doubling(W, p, fam, lambdas, any_quad, G)
        except NonIntegrable:  # the probe's A_1 quantity is unbounded
            with pytest.raises(NonIntegrable):
                doubling_check(W, p, fam, lambdas, any_quad, G)
            bound = 1.0
            want = loop_doubling(W, p, fam, lambdas, any_quad, G, bound)
        rep = doubling_check(W, p, fam, lambdas, any_quad, G, bound)
        assert (rep.rows, rep.fitted_beta, rep.bound_constant) == want

    def test_reverse_holder_evaluates_each_level_once(self, G1, grid1, monkeypatch):
        # 10 balls of 1,024, 4,096 and 16,384 nodes a level: 4 balls to a
        # block at level 0 (3 blocks), one at levels 1 and 2 (10 each)
        fam = default_ball_family(G1, 2.0, radii=[0.5, 1.0])
        calls = count_calls(monkeypatch, muckenhoupt, "safe_power_values")
        reverse_holder_search(sqrt_weight(), fam, [1.2, 1.5, 2.0], grid1, G1)
        assert len(fam) == 10 and len(calls) == 23

    def test_doubling_evaluates_each_level_once(self, G1, grid1, monkeypatch):
        # every B, 2B and 4B of the 10 balls make one family of 30: 1,024
        # nodes a ball put 4 balls in a block at level 0 (8 blocks), and
        # 4,096 and 16,384 one (30 blocks each); the default bound reads B's
        # values
        fam = default_ball_family(G1, 2.0, radii=[0.5, 1.0])
        calls = count_calls(monkeypatch, muckenhoupt, "safe_power_values")
        for bound in (2.0, None):
            calls.clear()
            doubling_check(sqrt_weight(), 2.0, fam, [2.0, 4.0], grid1, G1, bound_constant=bound)
            assert len(calls) == 8 + 30 + 30

    def test_q_sweep_evaluates_each_level_once(self, G1, grid1, monkeypatch):
        calls = count_calls(monkeypatch, muckenhoupt, "spectral_norms")
        roots = count_calls(monkeypatch, muckenhoupt, "safe_power_values")
        pair = reducing_operators(sqrt_matrix_weight(), AnisoBall([0.3], 1.0), 1.5, grid1, G1)
        assert len(pair.q_values) == 4
        assert len(calls) == 2 * _LEVELS
        # W^(2/p) once for both fits (every node is certified), then x levels
        # 0 and 1 and the three t levels: the finest x level is the fit's F
        assert len(roots) == 1 + (_LEVELS - 1) + _LEVELS


def shadow_case(weight, G1, G2):
    """A matrix weight, its group and a ball whose B and 2B have no node on
    the weight's singular set on either grid of `any_quad`."""
    return {"sqrt": (sqrt_matrix_weight(), G1, AnisoBall([0.3], 1.0)),
            "ap-matrix": (ap_matrix_weight(), G2, AnisoBall([0.2, -0.1], 0.7)),
            "conjugated": (conjugated_weight(), G2, AnisoBall([0.2, -0.1], 0.7))}[weight]


def singular_node_count(W, B, lambdas, quad, G):
    """The unshifted nodes of B and every lambda B where W is not finite or
    has an eigenvalue below 1e-300: every evaluation of W there nudges them."""
    values = W.values(np.concatenate([
        quad.ball_nodes(G, AnisoBall(B.center, lam * B.radius), level)
        for lam in [1.0, *lambdas] for level in range(_LEVELS)]))
    finite = np.isfinite(values).all(axis=(1, 2))
    return int((~finite).sum() + (np.linalg.eigvalsh(values[finite])[:, 0] < 1e-300).sum())


def assert_no_node_is_nudged(W, B, lambdas, quad, G):
    """W is finite and positive definite at B's centre and at the unshifted
    nodes of B and every lambda B, so no evaluation of W there nudges a node."""
    values = W.values(np.concatenate([np.atleast_2d(B.center)] + [
        quad.ball_nodes(G, AnisoBall(B.center, lam * B.radius), level)
        for lam in [1.0, *lambdas] for level in range(_LEVELS)]))
    assert np.isfinite(values).all()
    assert np.linalg.eigvalsh(values)[:, 0].min() > 1e-250


class TestShadows:
    """The matrix shadows of `doubling_check` and `scalar_slice_ap` (`_shadows`)."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("weight", ["sqrt", "ap-matrix", "conjugated"])
    def test_match_hermitian_roots(self, G1, G2, any_quad, weight, p):
        # the factors of `_pair_factors` against the Hermitian roots and the
        # norm of W itself, where no node is nudged
        W, G, B = shadow_case(weight, G1, G2)
        fam, lambdas = [B], [2.0]
        assert_no_node_is_nudged(W, B, lambdas, any_quad, G)
        rep = doubling_check(W, p, fam, lambdas, any_quad, G, 1.0)
        rows, fitted, _ = loop_doubling(W, p, fam, lambdas, any_quad, G, 1.0, root_shadow)
        assert [r[:3] for r in rep.rows] == [r[:3] for r in rows]
        assert np.allclose([r[3] for r in rep.rows], [r[3] for r in rows], rtol=1e-13, atol=0)
        assert np.allclose(list(rep.fitted_beta.values()), list(fitted.values()),
                           rtol=1e-13, atol=0)
        v = np.eye(W.N)[0]
        try:
            want = loop_slice_ap(W, p, v, fam, any_quad, G, root_shadow)
        except NonIntegrable:  # the A_1 quantity of the slice is unbounded
            with pytest.raises(NonIntegrable):
                scalar_slice_ap(W, p, v, fam, any_quad, G)
            return
        slices = scalar_slice_ap(W, p, v, fam, any_quad, G)
        assert np.allclose(slices.values, want[0], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_ball_rows_do_not_depend_on_the_family(self, G1, p):
        # on the 256-node grid 2B of B(1/512, 1) has a level-1 node at the
        # singular point 0 of diag(|x|^1/2, 1), nudged by 2B's scale.  At
        # level 1 a block holds four balls: B, 2B and 4B alone, or with the
        # far ball, which would widen a nudge scale taken over the block
        W, quad = sqrt_matrix_weight(), BallQuadrature("mapped_grid", 256)
        B, far = AnisoBall([1 / 512], 1.0), AnisoBall([40.0], 8.0)
        assert not quad.ball_nodes(G1, AnisoBall(B.center, 2.0), 1).all()
        alone = doubling_check(W, p, [B], [2.0, 4.0], quad, G1)
        both = doubling_check(W, p, [B, far], [2.0, 4.0], quad, G1)
        assert [r for r in both.rows if r[0] == 0] == alone.rows

        def slice_rows(fam):
            rep = scalar_slice_ap(W, p, [1.0, 0.0], fam, quad, G1)
            return rep.values[:2].tobytes(), rep.errors[:2].tobytes()

        assert slice_rows([B, AnisoBall(B.center, 2.0), far]) == slice_rows(
            [B, AnisoBall(B.center, 2.0)])

    def test_certified_weight_takes_no_eigendecomposition_at_p2(self, G2, grid1, power_calls):
        # a constant diagonal makes W certified at every node, so every
        # shadow and reducing operator at p = 2 takes Cholesky factors
        S = ScalarWeightSpec
        W = MatrixWeightSpec.diag_dominant(
            [S.constant(1.0), S.constant(2.0), S.constant(3.0)],
            {(0, 1): {(0, 1): 1.0}, (1, 2): {(1, 0): 1.0, (0, 0): 0.5}}, 0.5)
        fam = [AnisoBall([0.2, -0.1], 0.7), AnisoBall([1.0, 0.0], 2.0)]
        calls, _ = power_calls
        rep = doubling_check(W, 2.0, fam, [2.0, 4.0], grid1, G2)
        pair = reducing_operators(W, fam[1], 2.0, grid1, G2)
        assert calls == []
        assert {r[1] for r in rep.rows} == {"slice", "norm", "dual-slice"}
        assert len(pair.q_values) == 4 and not pair.fit_degenerate

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_dual_slice_evaluates_each_block_once(self, G2, monkeypatch, p):
        # no node of these balls is nudged, so F and M of a block come from
        # one evaluation of W (p = 2) or of W^(2/p) by safe_power_values,
        # and F(c) from one at the centres
        W, quad = ap_matrix_weight(), BallQuadrature("mapped_grid", 256)
        balls = [AnisoBall([0.2, -0.1], 0.7), AnisoBall([0.2, -0.1], 1.4),
                 AnisoBall([-0.6, 0.5], 0.3)]
        for B in balls:
            assert_no_node_is_nudged(W, B, [], quad, G2)
        blocks = sum(len(list(muckenhoupt._blocks(G2, balls, [quad.reference_nodes(G2, level)])))
                     for level in range(_LEVELS))
        values = count_calls(monkeypatch, MatrixWeightSpec, "_values")
        roots = count_calls(monkeypatch, muckenhoupt, "safe_power_values")
        for _ in muckenhoupt._shadows(W, p, balls, quad, G2, ["slice", "norm", "dual-slice"],
                                      np.eye(3)[0]):
            pass
        assert blocks == 5 and len(values) == 1 + blocks
        assert len(roots) == (0 if p == 2 else 1 + blocks)

    def test_one_weight_gives_one_row_however_wrapped(self, G1):
        # on the 256-node grid 2B of B(1/2048, 1) has a level-2 node at 0,
        # where |x|^(-1/2) = inf.  Every node is nudged by its ball's scale,
        # so the scalar weight and its 1 x 1 diagonal give one row
        w = ScalarWeightSpec.radial_power(-0.5)
        quad, B = BallQuadrature("mapped_grid", 256), AnisoBall([1 / 2048], 1.0)
        assert not quad.ball_nodes(G1, AnisoBall(B.center, 2.0), 2).all()
        [(_, _, _, scalar)] = doubling_check(w, 2.0, [B], [2.0], quad, G1).rows
        rows = {r[1]: r[3] for r in doubling_check(MatrixWeightSpec.diagonal([w]), 2.0, [B],
                                                   [2.0], quad, G1).rows}
        assert scalar == rows["slice"] == rows["norm"]
        assert scalar == pytest.approx(6.892867613611662, rel=1e-12)

    @pytest.mark.parametrize("N", [3, 4])
    def test_norm_of_an_infinite_node_is_nudged_by_its_ball_scale(self, G1, N):
        # the node of the last test, now with W's entry |x|^(-1/2) = inf in
        # a 3 x 3 or 4 x 4 weight: the norm read from the factor F equals the
        # norm of W itself nudged by 2B's scale
        S = ScalarWeightSpec
        W = MatrixWeightSpec.diag_dominant([S.radial_power(-0.5)] + [S.constant(1.0)] * (N - 1),
                                           {(0, 1): {(1,): 1.0}}, 0.5)
        quad, B = BallQuadrature("mapped_grid", 256), AnisoBall([1 / 2048], 1.0)
        rows = {r[1]: r[3] for r in doubling_check(W, 2.0, [B], [2.0], quad, G1).rows}
        ball_scaled = (loop_mass_ladder(NormOfW(W), AnisoBall(B.center, 2.0), quad, G1).value
                       / loop_mass_ladder(NormOfW(W), B, quad, G1).value)
        assert ball_scaled == pytest.approx({3: 6.910043387711428, 4: 6.940535208571172}[N],
                                            rel=1e-12)
        assert rows["norm"] == pytest.approx(ball_scaled, rel=1e-12)
        assert rows["slice"] == pytest.approx(6.892867613611662, rel=1e-12)

    def test_balls_with_one_singular_centre_share_one_factor(self, G1):
        # W is infinite at 0, the centre of B, 2B and 4B, so F(c) is nudged;
        # by the centre's own scale, so that all three take one F(c), where
        # the scale of 2B or 4B would give another
        S = ScalarWeightSpec
        W = MatrixWeightSpec.diagonal([S.radial_power(-0.5), S.constant(1.0)])
        quad = BallQuadrature("mapped_grid", 64)
        balls = [AnisoBall([0.0], r) for r in (1.0, 2.0, 4.0)]
        c = np.zeros((1, 1))
        Fc = muckenhoupt._pair_factors(W, c, 2.0, muckenhoupt._node_scales(c))[0]
        assert np.isfinite(Fc).all()
        assert Fc.tobytes() != muckenhoupt._pair_factors(W, c, 2.0, 2.0)[0].tobytes()
        seen = set()
        for level, b, values in muckenhoupt._shadows(W, 2.0, balls, quad, G1,
                                                     ["slice", "dual-slice"], np.eye(2)[0]):
            nodes = quad.ball_nodes(G1, balls[b], level)
            scale = G1.euclidean_radius_bound(balls[b].radius)
            M = muckenhoupt._pair_factors(W, nodes, 2.0, scale)[1]
            want = spectral_norms(np.repeat(Fc, len(nodes), axis=0) @ M) ** 2
            assert values["dual-slice"].tobytes() == want.tobytes()
            seen.add(b)
        assert seen == {0, 1, 2}


def offset_sqrt_weight():
    """|x1 - 1/8|^(1/2): singular on a line that the 8 x 8 mapped grid hits."""
    return ScalarWeightSpec.poly_abs_power({(1, 0): 1.0, (0, 0): -0.125}, 0.5)


class TestFamilyLadder:
    """`estimate_ap_constant` against the per-ball loop, bitwise."""

    # 10 balls: centres 0, (+-1, 0), (0, +-1) with radii 1 and 2; the balls
    # at (+-1, 0) of radius 2 put level-1 x nodes (6 x 6 grid) on x1 = 0
    @staticmethod
    def family(G):
        return default_ball_family(G, 1.0, radii=[1.0, 2.0])

    @pytest.mark.parametrize("chunk", [23, 150, None])
    @pytest.mark.parametrize("p", [2.0, 1.5, 1.0])
    @pytest.mark.parametrize("weight", ["singular-scalar", "scalar", "diag_dominant",
                                        "conjugated"])
    @pytest.mark.parametrize("n", [64, 1024], ids=["mapped_grid", "mapped_grid_1024"])
    def test_matches_per_ball_loop(self, G2, monkeypatch, n, weight, p, chunk):
        # Nodes per ball, side and level: 12-13, 28-32, 52 (pairs) and 52,
        # 208, 812 (scalar).  _CHUNK 23 makes one-ball blocks and splits
        # every ball's pairs; 150 puts several balls in a block at every
        # level (10, 4 and 2 pair sides) and cuts each ball's pairs into
        # row tiles; the default puts the family in one block at every level
        # and several whole balls in a kernel call at levels 0 and 1.  The
        # singular scalar weight is nudged at levels 0 and 1 and the
        # diag_dominant one at level 1; neither has a bounded A_1 quantity,
        # and ladders that grow must raise on both paths.  The benchmarks'
        # 1,024-node grid has 28-32, 52 and 112 nodes per pair side: 150
        # puts 4 and 2 balls in a block at levels 0 and 1 and one at level
        # 2, and the default puts whole balls in a kernel call at level 0 only.
        W = {"singular-scalar": offset_sqrt_weight(),
             "scalar": ScalarWeightSpec.radial_power(-0.5),
             "diag_dominant": ap_matrix_weight(),
             "conjugated": MatrixWeightSpec.conjugated(
                 conjugated_weight().unitary,
                 [ScalarWeightSpec.radial_power(-0.3), ScalarWeightSpec.constant(1.0)])}[weight]
        quad = BallQuadrature("mapped_grid", n)
        fam = self.family(G2)
        if chunk is not None:
            monkeypatch.setattr(muckenhoupt, "_CHUNK", chunk)
        sizes = tile_sizes(monkeypatch)
        try:
            want = loop_estimate_ap_constant(W, p, fam, quad, G2)
        except NonIntegrable:
            with pytest.raises(NonIntegrable):
                estimate_ap_constant(W, p, fam, quad, G2)
            return
        sizes.clear()
        rep = estimate_ap_constant(W, p, fam, quad, G2)
        assert rep.values.tobytes() == want[0].tobytes()
        assert rep.errors.tobytes() == want[1].tobytes()
        assert max(sizes, default=0) <= muckenhoupt._CHUNK

    @pytest.mark.parametrize("p", [3.0, 1.5, 1.0, 0.7])
    def test_reduction_matches_one_ball_form(self, p):
        # 300 balls' worth of random pair norms; numpy's array power differs
        # from the scalar one in the last bit for about 5% of its inputs
        norms = np.random.default_rng(21).uniform(0.2, 5.0, (300, 6, 5))
        ours = muckenhoupt._reduce_pairs(norms, p)
        assert ours.tolist() == [loop_reduce_pairs(n, p) for n in norms]

    def test_benchmark_ball_on_the_singular_line(self, G2, power_calls):
        # ball (1, 0) of radius 2 puts level-0 x nodes of the 1024-node grid
        # on x1 = 0, where the ap-matrix-2d weight is singular
        W, quad = ap_matrix_weight(), BallQuadrature("mapped_grid", 1024)
        fam = [AnisoBall([0.0, 0.0], 2.0), AnisoBall([1.0, 0.0], 2.0),
               AnisoBall([0.0, 1.0], 0.5), AnisoBall([-1.0, 0.0], 2.0)]
        _, raised = power_calls
        want = loop_estimate_ap_constant(W, 2.0, fam, quad, G2)
        assert raised
        raised.clear()
        rep = estimate_ap_constant(W, 2.0, fam, quad, G2)
        assert raised  # the level-0 block, then its singular nodes alone
        assert rep.values.tobytes() == want[0].tobytes()
        assert rep.errors.tobytes() == want[1].tobytes()

    def test_slices_match_per_ball_loop(self, G2):
        quad = BallQuadrature("mapped_grid", 64)
        fam = self.family(G2)
        for W, p in itertools.product((ap_matrix_weight(), conjugated_weight()), (1.5, 2.0, 3.0)):
            v = np.eye(W.N)[0]
            rep = scalar_slice_ap(W, p, v, fam, quad, G2)
            want = loop_slice_ap(W, p, v, fam, quad, G2)
            assert rep.values.tobytes() == want[0].tobytes()
            assert rep.errors.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("n", [64, 1024], ids=["mapped_grid", "mapped_grid_1024"])
    def test_invariance_rows_match_per_ball_loop(self, G2, n):
        quad = BallQuadrature("mapped_grid", n)
        W = ap_matrix_weight()
        T = AffineMap(G2, 2.0, np.array([1.0, 0.0]))
        fam = self.family(G2)
        rows = invariance_report(W, 2.0, T, fam, quad, G2)
        WT = W.compose(T)
        for B, row in zip(fam, rows):
            la = loop_ap_ladder(WT, B, 2.0, quad, G2)
            lb = loop_ap_ladder(W, map_ball(G2, T, B), 2.0, quad, G2)
            assert (row.ball, row.composed, row.transported) == (B, la.value, lb.value)
            assert (row.discrepancy, row.combined_error) == (
                abs(la.value - lb.value), la.error + lb.error)

    def test_one_power_call_per_level_side_and_block(self, G2, monkeypatch, power_calls,
                                                     dilate_calls):
        # the 92-ball ap-matrix-2d family: the weight is factored once per
        # level, side and block; hermitian_power sees only the 84 level-0 x
        # nodes on x1 = 0, which the certificate leaves out, where both roots
        # are singular and then nudged; each block's nodes are placed by one
        # dilation per side (one per ball, level and side would be 552)
        factored, factor = [], muckenhoupt.cholesky_factors
        monkeypatch.setattr(muckenhoupt, "cholesky_factors",
                            lambda M: factored.append(len(M)) or factor(M))
        W, quad = ap_matrix_weight(), BallQuadrature("mapped_grid", 1024)
        fam = default_ball_family(G2, 2.0, radii=[0.25, 0.5, 1.0, 2.0])
        blocks = 0
        for level in range(_LEVELS):
            n = max(len(quad.reference_nodes(G2, level, shifted, pair=True))
                    for shifted in (False, True))
            blocks += -(-len(fam) // (muckenhoupt._CHUNK // n))
        calls, raised = power_calls
        estimate_ap_constant(W, 2.0, fam, quad, G2)
        assert len(fam) == 92 and blocks == 6
        assert len(factored) == 2 * blocks and max(factored) <= muckenhoupt._CHUNK
        assert calls == [84, 84, 84, 84] and raised == [84, 84]
        assert len(dilate_calls) == 2 * blocks
        assert {t[1:] for t in dilate_calls} == {(1,)}  # t of shape (balls, 1)
        assert sum(t[0] for t in dilate_calls) == 2 * _LEVELS * len(fam)

    def test_one_dilation_per_level_and_block_for_a_scalar_weight(self, G2, dilate_calls):
        # _shadows: 52, 208 and 812 nodes per ball put 78, 19 and 5
        # balls in a block, so the 92 balls make 2, 5 and 19 blocks
        quad = BallQuadrature("mapped_grid", 64)
        fam = default_ball_family(G2, 2.0, radii=[0.25, 0.5, 1.0, 2.0])
        blocks = [-(-len(fam) // (muckenhoupt._CHUNK // len(quad.reference_nodes(G2, level))))
                  for level in range(_LEVELS)]
        estimate_ap_constant(sqrt_weight(), 2.0, fam, quad, G2)
        assert blocks == [2, 5, 19]
        assert len(dilate_calls) == sum(blocks)

    @pytest.mark.parametrize("chunk", [23, 104, 150, None])
    @pytest.mark.parametrize("A", [np.diag([1.0, 2.0]), np.array([[1.5, 0.5], [0.5, 1.5]])],
                             ids=["diag", "rotated"])
    def test_blocks_place_nodes_as_ball_nodes(self, monkeypatch, A, chunk):
        # radius 1 takes the copy branch of dilate.  Nodes per ball: 12-13,
        # 28-32 and 52 a pair side, 52, 208 and 812 unpaired; 23 makes
        # one-ball blocks on every side, 150 several balls a block on every
        # pair side and at level 0 unpaired, and the default on every side;
        # 104 is a whole number of 13- and 52-node balls, so a block that
        # would just fit must not be cut
        G = DilationGroup(A)
        quad = BallQuadrature("mapped_grid", 64)
        fam = default_ball_family(G, 1.0, radii=[0.5, 1.0, 3.0])
        if chunk is not None:
            monkeypatch.setattr(muckenhoupt, "_CHUNK", chunk)
        for level in range(_LEVELS):
            for sides in ([(False, False)], [(False, True), (True, True)]):
                refs = [quad.reference_nodes(G, level, shifted, pair=pair)
                        for shifted, pair in sides]
                per_block = max(1, muckenhoupt._CHUNK // max(map(len, refs)))
                first = 0
                for count, placed in muckenhoupt._blocks(G, fam, refs):
                    assert count == min(per_block, len(fam) - first)
                    for (shifted, pair), u, (X, s) in zip(sides, refs, placed):
                        assert X.shape == (count * len(u), G.d) and s.shape == (len(X),)
                        for k, B in enumerate(fam[first:first + count]):
                            rows = slice(k * len(u), (k + 1) * len(u))
                            want = quad.ball_nodes(G, B, level, shifted, pair=pair)
                            assert X[rows].tobytes() == want.tobytes()
                            assert s[rows].tolist() == [G.euclidean_radius_bound(B.radius)] * len(u)
                    first += count
                assert first == len(fam)


class TestHilbertSchmidtBracket:
    """The p = 2 pair form against a bracket that shares no code with the kernel.

    |M|^2 <= |M|_HS^2 <= N |M|^2 and |W^(1/2)(x) W^(-1/2)(t)|_HS^2 is
    tr(W(x) W^(-1)(t)), so on the same nodes the finest-level value Q^2 of
    a ball lies in [tr(avg_x W avg_t W^(-1)) / N, tr(avg_x W avg_t W^(-1))].
    """

    @pytest.mark.parametrize("weight", ["ap-matrix", "conjugated"])
    def test_finest_level_lies_in_the_bracket(self, G2, weight):
        W = ap_matrix_weight() if weight == "ap-matrix" else conjugated_weight()
        quad = BallQuadrature("mapped_grid", 1024)
        fam = default_ball_family(G2, 2.0, radii=[0.25, 0.5, 1.0, 2.0])
        ladders = muckenhoupt._ap_ladders(W, fam, 2.0, quad, G2)
        ratios = []
        for B, ladder in zip(fam, ladders):
            X, T = (quad.ball_nodes(G2, B, _LEVELS - 1, shifted, pair=True)
                    for shifted in (False, True))
            scale = G2.euclidean_radius_bound(B.radius)
            P = safe_power_values(W, X, 0.5, scale)  # Hermitian, so P @ P = W
            M = safe_power_values(W, T, -0.5, scale)
            hs = np.trace(np.mean(P @ P, axis=0) @ np.mean(M @ M, axis=0)).real
            ratios.append(ladder.levels[-1] ** 2 / hs)
        assert 1.0 / W.N - 1e-12 <= min(ratios) and max(ratios) <= 1.0 + 1e-12


def edge_weight(kind):
    """diag(|x1|^(1/2), |x|^(-1/2), 2) coupled: singular on x1 = 0, non-finite at 0.

    "real" couples it as the benchmark weight is coupled (diag_dominant),
    "complex" turns it into a random complex frame (conjugated).
    """
    S = ScalarWeightSpec
    scalars = [S.poly_abs_power({(1, 0): 1.0}, 0.5), S.radial_power(-0.5), S.constant(2.0)]
    if kind == "real":
        return MatrixWeightSpec.diag_dominant(
            scalars, {(0, 1): {(0, 1): 1.0}, (1, 2): {(1, 0): 1.0, (0, 0): 0.5}}, 0.5)
    return MatrixWeightSpec.conjugated(random_unitaries(np.random.default_rng(50), 1, 3)[0],
                                       scalars)


def relative_gap(ours, ref):
    return np.max(np.abs(ours - ref) / np.abs(ref).max(axis=(-2, -1), keepdims=True))


def adjoint(M):
    return M.conj().swapaxes(-1, -2)


class TestPairFactors:
    """`_pair_factors`: both Cholesky factors of W^(2/p) where certified, both roots elsewhere."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_left_out_nodes_take_the_roots(self, monkeypatch, kind):
        # nodes 0-2 are non-finite (and on x1 = 0), singular, and just under
        # the certificate (lambda_min / tr between the floor 1e-14 / 3 and
        # the margin above it); nodes 3 and 4 are certified
        W = edge_weight(kind)
        floor, margin = 1e-14 / 3, 4 * (3 + 1) * (2 * 3 + 3) * np.finfo(float).eps / 2

        def rel(x1):  # lambda_min / tr at (x1, 0.3), which grows as sqrt(x1)
            vals = np.linalg.eigvalsh(W.values([x1, 0.3]))
            return vals[0] / vals.sum()

        x1 = 1e-24 * ((floor + margin / 2) / rel(1e-24)) ** 2
        assert floor < rel(x1) < floor + margin
        pts = np.array([[0.0, 0.0], [0.0, 0.7], [x1, 0.3], [0.5, 0.5], [-1.2, 0.4]])
        scale = np.array([1.0, 2.0, 1.0, 1.0, 3.0])
        masks, power = [], weights.hermitian_power

        def recorded(M, a):
            try:
                return power(M, a)
            except SingularWeight as exc:
                masks.append(exc.singular.tolist())
                raise

        monkeypatch.setattr(weights, "hermitian_power", recorded)
        roots = [safe_power_values(W, pts, a, scale) for a in (0.5, -0.5)]
        assert masks == [[True, True, False, False, False]] * 2
        masks.clear()
        F, M = muckenhoupt._pair_factors(W, pts, 2.0, scale)
        assert masks == [[True, True, False]] * 2  # both roots of the left-out nodes
        assert F[:3].tobytes() == roots[0][:3].tobytes()
        assert M[:3].tobytes() == roots[1][:3].tobytes()
        values = W.values(pts[3:])
        assert relative_gap(adjoint(F[3:]) @ F[3:], values) <= 1e-14
        assert relative_gap(M[3:] @ adjoint(M[3:]), np.linalg.inv(values)) <= 1e-14

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("variant", [0, 5])
    def test_pair_norms_match_svd_of_the_roots(self, G2, variant, p):
        # the level-0 x nodes of ball (1, 0) of radius 2, 6 of them nudged
        # off x1 = 0, against t nodes of a ball on x1 = 0 and nodes up to
        # 1e-8 from it, where W(t) is ill-conditioned
        W, quad = (ap_matrix_weight() if variant == 0 else benchmark_variant(variant),
                   BallQuadrature("mapped_grid", 1024))
        X = quad.ball_nodes(G2, AnisoBall([1.0, 0.0], 2.0), 0, pair=True)
        T = np.concatenate([quad.ball_nodes(G2, AnisoBall([0.0, 1.0], 0.25), 0, True, pair=True),
                            [[1e-8, 0.3], [-1e-6, -0.5], [1e-4, 1.0], [-0.01, 0.0]]])
        assert (X[:, 0] == 0.0).sum() == 6
        scale = G2.euclidean_radius_bound(2.0)
        Px = muckenhoupt._pair_factors(W, X, p, scale)[0]
        Mt = muckenhoupt._pair_factors(W, T, p, scale)[1]
        ref = loop_pair_norms(safe_power_values(W, X, 1.0 / p, scale),
                              safe_power_values(W, T, -1.0 / p, scale))
        squares = _span_norms(Px, Mt, 1, squared=True)[0]
        assert np.all(np.abs(np.sqrt(squares) - ref) <= 1e-13 * ref)
        assert np.all(np.abs(_span_norms(Px, Mt, 1)[0] - ref) <= 1e-13 * ref)

    @pytest.mark.parametrize("p", [1.5, 3.0, 1.0])
    def test_other_exponents_take_one_factorization(self, G2, monkeypatch, p):
        # p != 2: F and M are the Cholesky factors of W^(2/p), with the
        # Gram matrices of the roots W^(+-1/p) to 1e-14; M M^H inverts
        # W^(2/p), so at the level-1 x nodes on x1 = 0, where W^(2/p) and
        # the roots are nudged alike, to 1e-14 times its condition number
        W, quad = ap_matrix_weight(), BallQuadrature("mapped_grid", 256)
        X = quad.ball_nodes(G2, AnisoBall([1.0, 0.0], 2.0), 1, pair=True)
        line = X[:, 0] == 0.0
        assert line.any()
        F, M = muckenhoupt._pair_factors(W, X, p, 1.0)
        assert cholesky_factors(safe_power_values(W, X, 2.0 / p, 1.0))[2].all()
        up, down = hermitian_roots(W, X, p, 1.0)
        assert relative_gap(adjoint(F) @ F, up @ up) <= 1e-14
        eig = np.linalg.eigvalsh(up @ up)
        cond = np.where(line, eig[:, -1] / eig[:, 0], 1.0)
        gaps = [relative_gap(a, b) for a, b in zip(M @ adjoint(M), down @ down)]
        assert np.all(np.array(gaps) <= 1e-14 * cond)
        # one factorization per level, side and block of the ladder
        factored = count_calls(monkeypatch, muckenhoupt, "cholesky_factors")
        fam = default_ball_family(G2, 1.0, radii=[1.0, 2.0])
        refs = [[quad.reference_nodes(G2, level, shifted, pair=True) for shifted in (False, True)]
                for level in range(_LEVELS)]
        blocks = sum(len(list(muckenhoupt._blocks(G2, fam, r))) for r in refs)
        try:
            estimate_ap_constant(W, p, fam, quad, G2)
        except NonIntegrable:
            pass
        assert len(factored) == 2 * blocks


class TestCalderon:
    def test_nested_mass_comparison(self, G1, grid1):
        # nested balls: w(F)/w(E) <= const * (|F|/|E|)^p
        w = sqrt_weight()
        p = 2.0
        fam = default_ball_family(G1, 2.0, radii=[0.25, 0.5, 1.0, 2.0])
        const = estimate_ap_constant(w, p, fam, grid1, G1).constant
        pairs = [
            (AnisoBall([0.0], 0.5), AnisoBall([0.0], 2.0)),
            (AnisoBall([0.5], 0.5), AnisoBall([0.0], 1.5)),
            (AnisoBall([1.0], 0.25), AnisoBall([0.5], 1.0)),
        ]
        for E, F in pairs:
            # verify containment exactly (intervals)
            assert E.center[0] - E.radius >= F.center[0] - F.radius - 1e-12
            assert E.center[0] + E.radius <= F.center[0] + F.radius + 1e-12
            mE = loop_mass_ladder(w, E, grid1, G1).value
            mF = loop_mass_ladder(w, F, grid1, G1).value
            vol_ratio = F.radius / E.radius  # nu = 1
            assert mF / mE <= const * vol_ratio ** p * (1 + 1e-6)


class BandWeight:
    """Test weight 1 + x1, singular (zero) on the band 0 <= x1 < width.

    With scale 1 in 1-D, a node at x1 = 0 sits at 1e-9, 3e-9, 6e-9 and 1e-8
    after one to four nudges.  `sizes` records the nodes of every call.
    """

    def __init__(self, width):
        self.width, self.sizes = width, []

    def values(self, pts):
        self.sizes.append(len(pts))
        x1 = pts[:, 0]
        return np.where((0.0 <= x1) & (x1 < self.width), 0.0, 1.0 + x1)


class BandMatrixWeight(BandWeight):
    """(1 + x1) I_2 on the same band; its power raises as `hermitian_power` does."""

    def values(self, pts):
        return super().values(pts)[:, None, None] * np.eye(2)

    def power_values(self, pts, a):
        w = BandWeight.values(self, pts)
        singular = w == 0.0
        out = np.where(singular, 1.0, w)[:, None, None] ** a * np.eye(2)
        if singular.any():
            raise SingularWeight("on the band", out, singular)
        return out


def multiplier_grid():
    """The 128 x 128 spatial grid of multiplier-2d: 128 of its nodes lie on x1 = 0."""
    return FourierGrid(2, 128, 8 * np.pi).spatial_points()


class TestNudge:
    """`safe_power_values` against the two nudge loops it replaced, bitwise."""

    @pytest.mark.parametrize("variant", [0, 5])
    def test_multiplier_grid_root(self, power_calls, variant):
        W = ap_matrix_weight() if variant == 0 else benchmark_variant(variant)
        pts = multiplier_grid()
        scale = 1.0 + float(np.max(np.abs(pts), initial=0.0))
        calls, raised = power_calls
        got = safe_power_values(W, pts, 0.5, scale)
        assert calls == [16_384, 128] and raised == [16_384]
        calls.clear()
        assert got.tobytes() == oracle_power_values(W, pts, 0.5, scale).tobytes()
        assert calls == [16_384, 16_384]  # the parent's whole-stack retry

    def test_besov_diagonal_root(self, monkeypatch):
        # besov-1d's weight diag(|x|^1/2, 1) on its 256-point grid, which
        # holds the origin; the diagonal closed form, not `hermitian_power`
        W = MatrixWeightSpec.diagonal([ScalarWeightSpec.radial_power(0.5),
                                       ScalarWeightSpec.constant(1.0)])
        pts = FourierGrid(1, 256, 4 * np.pi).spatial_points()
        scale = 1.0 + float(np.max(np.abs(pts), initial=0.0))
        sizes = []
        power = MatrixWeightSpec.power_values
        monkeypatch.setattr(MatrixWeightSpec, "power_values",
                            lambda self, x, a: sizes.append(len(x)) or power(self, x, a))
        got = safe_power_values(W, pts, 0.5, scale)
        assert sizes == [256, 1]
        for a in (0.5, -0.5):
            assert (safe_power_values(W, pts, a, scale).tobytes()
                    == oracle_power_values(W, pts, a, scale).tobytes())
        assert np.isfinite(got).all()

    def test_ap_matrix_pass(self, G2, monkeypatch, power_calls):
        # the ap-matrix-2d pass: the certified Cholesky factors cover every
        # node but the level-0 x block's 84 on x1 = 0, which alone go to
        # safe_power_values for both roots, singular there and then nudged:
        # 336 matrices through hermitian_power, where every node's root took
        # 35,780
        W, quad = ap_matrix_weight(), BallQuadrature("mapped_grid", 1024)
        fam = default_ball_family(G2, 2.0, radii=[0.25, 0.5, 1.0, 2.0])
        blocks = []
        inner = muckenhoupt.safe_power_values

        def recorded(spec, pts, a, scale):
            blocks.append((pts, a, scale))
            return inner(spec, pts, a, scale)

        monkeypatch.setattr(muckenhoupt, "safe_power_values", recorded)
        calls, raised = power_calls
        estimate_ap_constant(W, 2.0, fam, quad, G2)
        assert calls == [84, 84, 84, 84] and raised == [84, 84]
        assert [(len(X), a) for X, a, _ in blocks] == [(84, 0.5), (84, -0.5)]
        for X, a, sx in blocks:
            assert not X[:, 0].any()
            assert inner(W, X, a, sx).tobytes() == oracle_power_values(W, X, a, sx).tobytes()

    @pytest.mark.parametrize("kind", [BandWeight, BandMatrixWeight])
    def test_three_nudges_return(self, kind):
        pts = np.array([[0.0], [0.25], [-0.5], [4.5e-9]])
        w = kind(5e-9)
        got = safe_power_values(w, pts, 0.5, 1.0)
        # node 0 needs three nudges, node 3 one; each evaluates them alone
        assert w.sizes == [4, 2, 1, 1]
        want = oracle_power_values(kind(5e-9), pts, 0.5, 1.0)
        assert got.tobytes() == want.tobytes()
        assert np.ravel(got)[0] ** 2 == 1.0 + ((1e-9 + 2e-9) + 3e-9)

    @pytest.mark.parametrize("kind", [BandWeight, BandMatrixWeight])
    def test_four_nudges_raise(self, kind):
        pts = np.array([[0.0], [0.25], [-0.5]])
        w = kind(8e-9)
        with pytest.raises(SingularWeight, match="could not move"):
            safe_power_values(w, pts, 0.5, 1.0)
        assert w.sizes == [3, 1, 1, 1]
        with pytest.raises(SingularWeight):
            oracle_power_values(kind(8e-9), pts, 0.5, 1.0)

    @pytest.mark.parametrize("mode", ["diagonal", "diag_dominant"])
    def test_non_finite_matrix_node_is_nudged(self, mode):
        # W(0) has the entry |x|^(-1/2) = inf: nudged like the scalar weight,
        # where the parent returned an inf (diagonal) or nan root
        S = ScalarWeightSpec
        scalars = [S.radial_power(-0.5), S.constant(1.0)]
        W = (MatrixWeightSpec.diagonal(scalars) if mode == "diagonal" else
             MatrixWeightSpec.diag_dominant(scalars, {(0, 1): {(0, 1): 1.0}}, 0.5))
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        nudged = x.copy()
        nudged[0] += 1e-9 * 1.0 * 1 / np.sqrt(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = safe_power_values(W, x, 0.5, 1.0)
            scalar = safe_power_values(scalars[0], x, 1.0, 1.0)
        assert got.tobytes() == W.power_values(nudged, 0.5).tobytes()
        assert scalar[0] == pytest.approx(10 ** 4.5, rel=1e-12)  # |x| = 1e-9
        if mode == "diagonal":
            assert (got[:, 0, 0] ** 2).tolist() == scalar.tolist()

    @pytest.mark.parametrize("w", [ScalarWeightSpec.radial_power(-0.5),
                                   ScalarWeightSpec.poly_abs_power({(1, 0): 1.0}, -0.5)],
                             ids=["radial", "poly"])
    def test_negative_power_at_the_singular_set(self, w):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = safe_power_values(w, x, 1.0, 1.0)
        assert np.isfinite(vals).all() and vals[1] == w.values(x[1])


EXPONENT_ENTRY_POINTS = {
    "averaging_operator_check": lambda p, quad, G1: averaging_operator_check(
        sqrt_weight(), AnisoBall([0.3], 1.0), p, quad, G1, [lambda x: np.ones(len(x))]),
    "reducing_operators": lambda p, quad, G1: reducing_operators(
        sqrt_matrix_weight(), AnisoBall([0.3], 1.0), p, quad, G1),
    "doubling_check": lambda p, quad, G1: doubling_check(
        sqrt_matrix_weight(), p, [AnisoBall([0.3], 1.0)], [2.0], quad, G1),
    "estimate_ap_constant": lambda p, quad, G1: estimate_ap_constant(
        sqrt_weight(), p, [AnisoBall([0.3], 1.0)], quad, G1),
    "multiplier_bound_experiment": lambda p, quad, G1: multiplier_bound_experiment(
        sqrt_matrix_weight(), p, lambda eta: np.ones(len(eta)), [1.0], [[0.0]],
        FourierGrid(1, 64, 4 * np.pi), G1),
    "sampling_inequality_experiment": lambda p, quad, G1: sampling_inequality_experiment(
        sqrt_matrix_weight(), p, AnisoBall([0.0], 1.0), [], quad, G1),
    "weighted_lp_norm": lambda p, quad, G1: weighted_lp_norm(
        BandLimitedField.from_values(FourierGrid(1, 8, np.pi), G1, np.ones(8),
                                     AnisoBall([0.0], 1.0)),
        sqrt_matrix_weight(), p),
}


def field_of_size(N):
    grid, G = FourierGrid(2, 8, np.pi), DilationGroup(np.diag([1.0, 2.0]))
    return BandLimitedField.from_values(grid, G, np.ones((N,) + grid.shape),
                                        AnisoBall([0.0, 0.0], 1.0))


@pytest.mark.parametrize("entry", ["N=1 field", "N=3 field", "slice direction"])
def test_vectors_of_another_size_than_the_weight_raise(entry, grid1, G2):
    # numpy would broadcast a 1-vector against a 2 x 2 root without a word
    W = MatrixWeightSpec.identity(2)
    with pytest.raises(ValueError, match="size N = 2 needs vectors of 2 entries, got"):
        if entry == "slice direction":
            scalar_slice_ap(W, 2.0, [1.0], [AnisoBall([0.0, 0.0], 1.0)], grid1, G2)
        else:
            weighted_lp_norm(field_of_size(int(entry[2])), W, 2.0)


def node_last(root):
    """root with the same values, stored as an (N, N, m) C-order array."""
    return np.ascontiguousarray(root.transpose(1, 2, 0)).transpose(2, 0, 1)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("root_kind", ["real", "complex"])
@pytest.mark.parametrize("v_kind", ["real", "complex"])
def test_magnitudes_match_per_node_products(N, root_kind, v_kind):
    # oracle: |root[k] @ v[k]| node by node, for per-node vectors (m, N),
    # stacks (K, m, N), one vector shared by all nodes (N,), and a (K, 1, N)
    # stack whose K vectors each go to every node (as _fit_reducing uses it)
    K, m = 3, 50
    rng = np.random.default_rng(N)

    def draw(shape, kind):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if kind == "complex" else x

    root = draw((m, N, N), root_kind)
    stack, shared = draw((K, m, N), v_kind), draw(N, v_kind)
    want = np.array([[np.linalg.norm(root[k] @ v[k]) for k in range(m)] for v in stack])
    for got, expected in ((weighted_magnitudes(root, stack), want),
                          (weighted_magnitudes(root, stack[1]), want[1]),
                          (weighted_magnitudes(root, shared),
                           [np.linalg.norm(root[k] @ shared) for k in range(m)]),
                          (weighted_magnitudes(root, stack[:, :1]),
                           [[np.linalg.norm(root[k] @ u[0]) for k in range(m)] for u in stack])):
        assert np.shape(got) == np.shape(expected)
        assert np.all(np.abs(got - expected) <= 8 * np.spacing(np.asarray(expected)))


@pytest.mark.parametrize("root", ["none", "scalar", "real matrix", "complex matrix"])
@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_stacked_magnitudes_equal_per_slice_calls(root, layout):
    # the Besov norms weigh a block of K patches' fields in one call; the
    # transposed layout is how besov_norm hands over its (K, N, m) pieces.
    # A matrix root stored node-last (as spectral._grid_root stores it)
    # gives bitwise the magnitudes of its C-order copy.
    K, m, N = 5, 64, 3
    rng = np.random.default_rng(11)
    v = rng.standard_normal((K, m, N)) + 1j * rng.standard_normal((K, m, N))
    if layout == "transposed":
        v = np.ascontiguousarray(v.swapaxes(1, 2)).swapaxes(1, 2)
    roots = {
        "none": None,
        "scalar": rng.uniform(0.1, 2.0, m),
        "real matrix": rng.standard_normal((m, N, N)),
        "complex matrix": rng.standard_normal((m, N, N)) + 1j * rng.standard_normal((m, N, N)),
    }
    stacked = weighted_magnitudes(roots[root], v)
    assert stacked.shape == (K, m)
    assert np.array_equal(stacked, [weighted_magnitudes(roots[root], v[k]) for k in range(K)])
    if root.endswith("matrix"):
        # node-last storage and a real root's complex cast change no bit
        cast = roots[root].astype(complex)
        for other in (node_last(roots[root]), cast, node_last(cast)):
            assert np.array_equal(weighted_magnitudes(other, v), stacked)


@pytest.mark.parametrize("p", [0.0, -1.0, np.nan])
@pytest.mark.parametrize("entry", sorted(EXPONENT_ENTRY_POINTS))
def test_exponent_outside_zero_to_inf_raises(entry, p, grid1, G1):
    with pytest.raises(ValueError, match="0 < p < inf"):
        EXPONENT_ENTRY_POINTS[entry](p, grid1, G1)
