import warnings

import numpy as np
import pytest
from scipy.integrate import quad as spquad

from anisoweights.dilation import DilationGroup
from anisoweights.geometry import AffineMap, AnisoBall, compute_r0
from anisoweights import muckenhoupt
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
    PowerWeight,
    _mass_ladder,
    _matrix_quantity_at_nodes,
    _pair_norms,
    _scalar_quantity_at_nodes,
    safe_power_values,
    safe_scalar_values,
)
from anisoweights.weights import MatrixWeightSpec, ScalarWeightSpec, hermitian_power


@pytest.fixture(scope="module")
def G1():
    return DilationGroup([[1.0]])


@pytest.fixture(scope="module")
def G2():
    return DilationGroup(np.diag([1.0, 2.0]))


@pytest.fixture(scope="module")
def grid1():
    return BallQuadrature("mapped_grid", 1024, seed=0)


@pytest.fixture(scope="module")
def mc1():
    return BallQuadrature("monte_carlo", 1024, seed=5)


def sqrt_weight():
    return ScalarWeightSpec.radial_power(0.5)


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

    @pytest.mark.parametrize("n", [2, 3])
    def test_non_finite_entry_gives_nan(self, n):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
        M[1, 0, n - 1] = np.nan
        M[2, n - 1, 0] = np.inf
        M[3, 1, 1] = -np.inf * 1j
        ours = spectral_norms(M)
        assert np.isnan(ours[1:]).all()
        assert ours[0] == pytest.approx(lapack_norms(M[:1])[0], rel=1e-13)


    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_real_stack_matches_complex_cast(self, n):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((300, n, n))
        real, cast = spectral_norms(M), spectral_norms(M.astype(complex))
        assert np.all(np.abs(real - cast) <= 1e-15 * cast)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["real", "complex", "complex-typed real"])
    def test_leaves_the_callers_stack_unchanged(self, monkeypatch, n, kind):
        # the kernel scales its planes in place, so it must get a copy
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
        ours, ref = _pair_norms(Px, Mt), loop_pair_norms(Px, Mt)
        assert ours.shape == ref.shape and ours.dtype == np.float64
        assert np.all(np.abs(ours - ref) <= 1e-13 * ref)

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
        ours, ref = _pair_norms(Px, Mt), loop_pair_norms(Px, Mt)
        assert len(calls) > 0
        assert np.all(np.abs(ours - ref) <= 1e-13 * ref)

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_extreme_scales(self, n, scale):
        # product entries near 1e+-150, whose squares over- or underflow
        Px, Mt = pair_factors(np.random.default_rng(12), 5, 3, n, "complex")
        ours, ref = _pair_norms(scale * Px, Mt), loop_pair_norms(Px, Mt)
        assert np.all(np.abs(ours / scale - ref) <= 1e-13 * ref)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nan_entry_gives_nan(self, n, kind):
        Px, Mt = pair_factors(np.random.default_rng(13), 5, 3, n, kind)
        Px[2, 0, n - 1] = np.nan
        ours = _pair_norms(Px, Mt)
        assert np.isnan(ours[2]).all() and np.isfinite(np.delete(ours, 2, axis=0)).all()

    @pytest.mark.parametrize("chunk, n1, n2", [(4, 7, 5), (None, 129, 131)])
    def test_kernel_sees_at_most_chunk_pairs(self, monkeypatch, chunk, n1, n2):
        if chunk is not None:
            monkeypatch.setattr(muckenhoupt, "_CHUNK", chunk)
        sizes = []
        kernel = muckenhoupt._plane_norms

        def counted(S):
            sizes.append(S[0, 0].size)
            return kernel(S)

        monkeypatch.setattr(muckenhoupt, "_plane_norms", counted)
        _pair_norms(*pair_factors(np.random.default_rng(14), n1, n2, 3, "real"))
        assert max(sizes) <= muckenhoupt._CHUNK
        assert sum(sizes) == n1 * n2


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
            mq = _matrix_quantity_at_nodes(Px, Mt, p)
            sq = _scalar_quantity_at_nodes(w, p)
            assert mq == pytest.approx(sq ** (1.0 / p), rel=1e-12)
        # p <= 1 reduces to the scalar A_1 quantity without the root
        p = 0.7
        Px = (w ** (1.0 / p)).reshape(-1, 1, 1).astype(complex)
        Mt = (w ** (-1.0 / p)).reshape(-1, 1, 1).astype(complex)
        assert _matrix_quantity_at_nodes(Px, Mt, p) == pytest.approx(
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
            chunked = _pair_norms(Px, Mt)
            assert np.all(np.abs(chunked - norms) <= 1e-13 * norms)
            if p > 1:
                pp = p / (p - 1)
                inner = [np.mean(row ** pp) ** (p / pp) for row in norms]
                oracle = np.mean(inner) ** (1 / p)
            else:
                oracle = max(np.mean(norms[:, b] ** p) for b in range(len(Mt)))
            assert _matrix_quantity_at_nodes(Px, Mt, p) == pytest.approx(oracle, rel=1e-13)

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

    def test_family_matches_per_ball_ladders_bitwise(self, G1, mc1):
        # Monte-Carlo streams are keyed by the ball index, so each report
        # value is the ball's own ladder whatever else the family holds
        w = sqrt_weight()
        fam = default_ball_family(G1, 2.0, radii=[0.5, 1.0])
        rep = estimate_ap_constant(w, 2.0, fam, mc1, G1)
        for i in reversed(range(len(fam))):
            one = ap_ball_quantity_ladder(w, fam[i], 2.0, mc1, G1, task=i)
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

    def test_empty_family_rejected(self, G1, grid1):
        with pytest.raises(ValueError):
            doubling_check(sqrt_weight(), 2.0, [], [2.0], grid1, G1, bound_constant=2.0)

    def test_empty_lambdas_rejected(self, G1, grid1):
        fam = [AnisoBall([0.0], 1.0)]
        with pytest.raises(ValueError):
            doubling_check(sqrt_weight(), 2.0, fam, [], grid1, G1, bound_constant=2.0)


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
        rows = invariance_report(W, 2.0, T, fam, grid1, grid1, G1)
        assert max(r.discrepancy for r in rows) == 0.0

    def test_scale_map_closed_form(self, G1, grid1, mc1):
        # w = |x|^(1/2), T = 2x, B = (-1, 1): both sides average to 4/3
        w = sqrt_weight()
        T = AffineMap(G1, 2.0, np.zeros(1))
        fam = [AnisoBall([0.0], 1.0)]
        rows = invariance_report(w, 2.0, T, fam, grid1, mc1, G1)
        assert rows[0].composed == pytest.approx(4.0 / 3.0, abs=1e-4)
        assert rows[0].transported == pytest.approx(4.0 / 3.0, abs=5e-3)
        assert rows[0].discrepancy <= 2 * rows[0].combined_error

    def test_matrix_weight_2d(self, G2):
        qa = BallQuadrature("monte_carlo", 256, seed=11)
        qb = BallQuadrature("monte_carlo", 256, seed=23)
        W = sqrt_matrix_weight()
        T = AffineMap(G2, 2.0, np.array([1.0, 0.0]))
        fam = [AnisoBall([0.0, 0.0], 1.0), AnisoBall([0.5, 1.0], 2.0)]
        rows = invariance_report(W, 2.0, T, fam, qa, qb, G2)
        for row in rows:
            assert row.discrepancy <= 2 * row.combined_error


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
        r0 = compute_r0(G1, 0.01)
        res = weighted_tail_bound(ScalarWeightSpec.constant(1.0), G1, 1.0,
                                  [0.0], 2.0, grid1, beta=1.0, r0=r0)
        assert res.ratio == pytest.approx(1.0 / r0, rel=1e-3)
        assert res.ratio <= res.bound

    def test_monotone_in_L(self, G1, grid1):
        r0 = compute_r0(G1, 0.01)
        w = ScalarWeightSpec.constant(1.0)
        r_small = weighted_tail_bound(w, G1, 1.0, [0.0], 2.0, grid1, beta=1.0, r0=r0)
        r_big = weighted_tail_bound(w, G1, 1.0, [0.0], 3.0, grid1, beta=1.0, r0=r0)
        assert r_big.ratio < r_small.ratio

    def test_depth_cap_raises(self, G1, grid1, monkeypatch):
        # L = beta + 1 converges within the 40 annuli of test_lebesgue_closed_form;
        # its terms still shrink by less than 5% per annulus after two
        monkeypatch.setattr(muckenhoupt, "_TAIL_DEPTH", 2)
        with pytest.raises(TruncationNotConverged, match="depth 2"):
            weighted_tail_bound(ScalarWeightSpec.constant(1.0), G1, 1.0, [0.0], 2.0, grid1,
                                beta=1.0)

    def test_sqrt_weight(self, G1, grid1):
        res = weighted_tail_bound(sqrt_weight(), G1, 1.0, [0.0], 3.0, grid1,
                                  beta=1.5)
        assert np.isfinite(res.ratio)
        assert res.ratio <= res.bound


# The hand-written ladder loops that `_ladder` replaced, kept as oracles: each
# statistic is recomputed from fresh node evaluations on every level and for
# every exponent.


def loop_ap_ladder(W, B, p, quad, G, task=0):
    scale = G.euclidean_radius_bound(B.radius)
    levels = []
    for level in range(_LEVELS):
        if hasattr(W, "power_values"):
            xs = quad.ball_nodes(G, B, level, task=2 * task, pair=True)
            ts = quad.ball_nodes(G, B, level, task=2 * task + 1, pair=True)
            Px = safe_power_values(W, xs, 1.0 / p, scale)
            Mt = safe_power_values(W, ts, -1.0 / p, scale)
            levels.append(_matrix_quantity_at_nodes(Px, Mt, p))
        else:
            nodes = quad.ball_nodes(G, B, level, task=task)
            w = safe_scalar_values(W, nodes, scale)
            levels.append(_scalar_quantity_at_nodes(w, p))
    return ladder_estimate(levels, stochastic=quad.rule == "monte_carlo")


def loop_reverse_holder(w, family, r_grid, quad, G):
    for i, B in enumerate(family):
        _mass_ladder(w, B, quad, G, task=i)
    table = []
    best = None
    for r in sorted(r_grid):
        try:
            worst = 0.0
            for i, B in enumerate(family):
                scale = G.euclidean_radius_bound(B.radius)
                levels_hi, levels_lo = [], []
                for level in range(_LEVELS):
                    nodes = quad.ball_nodes(G, B, level, task=i)
                    vals = safe_scalar_values(w, nodes, scale)
                    levels_hi.append(np.mean(vals ** r) ** (1.0 / r))
                    levels_lo.append(np.mean(vals))
                stoch = quad.rule == "monte_carlo"
                hi = ladder_estimate(levels_hi, stochastic=stoch).value
                lo = ladder_estimate(levels_lo, stochastic=stoch).value
                worst = max(worst, hi / lo)
            table.append((float(r), float(worst)))
            if best is None or r > best[0]:
                best = (float(r), float(worst))
        except NonIntegrable:
            table.append((float(r), None))
    if best is None:
        return None, float("inf"), table
    return best[0], best[1], table


def loop_q_sweep(W, B, p, quad, G, A_B, A_sharp, q_grid):
    scale = G.euclidean_radius_bound(B.radius)
    q_values, largest_q = {}, None
    for q in q_grid:
        try:
            levels = []
            for level in range(_LEVELS):
                nds = quad.ball_nodes(G, B, level)
                Wp = safe_power_values(W, nds, 1.0 / p, scale)
                vals = spectral_norms(np.einsum("mij,jk->mik", Wp, A_sharp))
                levels.append(np.mean(vals ** q))
            lv = ladder_estimate(levels, stochastic=quad.rule == "monte_carlo")
            levels2 = []
            for level in range(_LEVELS):
                nds = quad.ball_nodes(G, B, level, task=1)
                Wm = safe_power_values(W, nds, -1.0 / p, scale)
                vals = spectral_norms(np.einsum("ij,mjk->mik", A_B, Wm))
                levels2.append(np.mean(vals ** q))
            lv2 = ladder_estimate(levels2, stochastic=quad.rule == "monte_carlo")
            q_values[float(q)] = (lv.value, lv2.value)
            largest_q = float(q)
        except NonIntegrable:
            break
    return q_values, largest_q


def conjugated_weight():
    th = 0.4
    U = np.array([[np.cos(th), 1j * np.sin(th)], [1j * np.sin(th), np.cos(th)]])
    return MatrixWeightSpec.conjugated(
        U, [ScalarWeightSpec.poly_abs_power({(1, 0): 1.0}, 0.5),
            ScalarWeightSpec.radial_power(-0.3)])


def ap_matrix_weight():
    """The 3x3 weight of the ap-matrix-2d benchmark (variant 0)."""
    S = ScalarWeightSpec
    return MatrixWeightSpec.diag_dominant(
        [S.poly_abs_power({(1, 0): 1.0}, 0.5), S.radial_power(0.5), S.constant(2.0)],
        {(0, 1): {(0, 1): 1.0, (0, 0): 0.0}, (1, 2): {(1, 0): 1.0, (0, 0): 0.5}},
        0.5,
    )


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


@pytest.fixture(params=["mapped_grid", "monte_carlo"])
def any_quad(request):
    return BallQuadrature(request.param, 256, seed=3)


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
        for task, (W, B, G) in enumerate(cases):
            try:
                want = loop_ap_ladder(W, B, p, any_quad, G, task=task)
            except NonIntegrable:
                with pytest.raises(NonIntegrable):
                    ap_ball_quantity_ladder(W, B, p, any_quad, G, task=task)
                continue
            got = ap_ball_quantity_ladder(W, B, p, any_quad, G, task=task)
            assert (got.value, got.error, got.levels) == (want.value, want.error, want.levels)

    @pytest.mark.parametrize("gamma, r_grid", [(0.5, [1.2, 2.0, 1.5]),
                                               (-0.5, [1.5, 4.0]),
                                               (-0.9, [1.5, 2.0])])
    def test_reverse_holder_matches_loop(self, G1, any_quad, gamma, r_grid):
        # gamma = -0.5 diverges at r = 4, and gamma = -0.9 at every r >= 1.5
        # (its Monte-Carlo ladder already flags w itself as divergent)
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

    def test_reverse_holder_evaluates_each_level_once(self, G1, grid1, monkeypatch):
        fam = default_ball_family(G1, 2.0, radii=[0.5, 1.0])
        calls = count_calls(monkeypatch, BallQuadrature, "ball_nodes")
        reverse_holder_search(sqrt_weight(), fam, [1.2, 1.5, 2.0], grid1, G1)
        assert len(calls) == len(fam) * _LEVELS

    def test_q_sweep_evaluates_each_level_once(self, G1, grid1, monkeypatch):
        calls = count_calls(monkeypatch, muckenhoupt, "spectral_norms")
        pair = reducing_operators(sqrt_matrix_weight(), AnisoBall([0.3], 1.0), 1.5, grid1, G1)
        assert len(pair.q_values) == 4
        assert len(calls) == 2 * _LEVELS


class TestCalderon:
    def test_nested_mass_comparison(self, G1, grid1):
        # nested balls: w(F)/w(E) <= const * (|F|/|E|)^p
        from anisoweights.muckenhoupt import _mass_ladder

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
            mE = _mass_ladder(w, E, grid1, G1).value
            mF = _mass_ladder(w, F, grid1, G1).value
            vol_ratio = F.radius / E.radius  # nu = 1
            assert mF / mE <= const * vol_ratio ** p * (1 + 1e-6)
