import dataclasses

import numpy as np
import pytest
from scipy.special import gammaln, ndtri
from scipy.stats import qmc

from anisoweights import dilation, geometry
from anisoweights.dilation import DilationGroup
from anisoweights.geometry import (
    AffineMap,
    AnisoBall,
    HeightUnbounded,
    NonPositiveRadius,
    ball_pairs,
    ball_volume,
    build_structured_covering,
    compute_r0,
    covering_intersection_stats,
    euclidean_ball_volume,
    map_ball,
    unit_covering,
)


@pytest.fixture(scope="module")
def G1():
    return DilationGroup([[1.0]])


@pytest.fixture(scope="module")
def Giso():
    return DilationGroup(np.eye(2))


@pytest.fixture(scope="module")
def Gani():
    return DilationGroup(np.diag([1.0, 2.0]))


def mc_volume(G, r, n=2 ** 16, seed=0):
    """Monte-Carlo volume of {|x|_A < r} with a binomial standard error."""
    rng = np.random.default_rng(seed)
    R = G.euclidean_radius_bound(r)
    pts = rng.uniform(-R, R, size=(n, G.d))
    inside_box = np.linalg.norm(pts, axis=1) <= R
    pts = pts[inside_box]
    box_vol = (2 * R) ** G.d
    p_ball = np.mean(G.quasi_norm(pts) < r)
    p = p_ball * len(pts) / n
    est = p * box_vol
    se = np.sqrt(p * (1 - p) / n) * box_vol
    return est, se


class TestBallVolume:
    def test_unit_disc(self, Giso):
        assert ball_volume(Giso, 1.0) == pytest.approx(np.pi)

    def test_anisotropic_against_monte_carlo(self, Gani):
        vol = ball_volume(Gani, 2.0)
        assert vol == pytest.approx(8 * np.pi)
        est, se = mc_volume(Gani, 2.0, seed=42)
        assert abs(est - vol) <= 3 * se

    def test_monte_carlo_across_radii(self, Giso, Gani):
        for G in (Giso, Gani):
            for r in (0.25, 1.0, 4.0):
                est, se = mc_volume(G, r, seed=7)
                assert abs(est - ball_volume(G, r)) <= 3 * se

    def test_precise_doubling(self, Gani):
        for r in (0.3, 1.0, 5.0):
            assert ball_volume(Gani, 2 * r) / ball_volume(Gani, r) == pytest.approx(
                2.0 ** Gani.nu
            )

    def test_rejects_nonpositive_radius(self, Giso):
        with pytest.raises(NonPositiveRadius):
            ball_volume(Giso, 0.0)

    def test_rejects_nan_radius(self, Giso):
        with pytest.raises(NonPositiveRadius):
            ball_volume(Giso, np.nan)
        with pytest.raises(NonPositiveRadius):
            AnisoBall([0.0], np.nan)

    def test_euclidean_exact_on_line_and_plane(self):
        assert euclidean_ball_volume(1) == 2.0
        assert euclidean_ball_volume(2) == np.pi

    @pytest.mark.parametrize("d", range(11))
    def test_euclidean_matches_gamma_form(self, d):
        want = np.exp(0.5 * d * np.log(np.pi) - gammaln(0.5 * d + 1))
        assert abs(euclidean_ball_volume(d) - want) <= 2 * np.spacing(want)


def scipy_halton(n, d, skip=1):
    engine = qmc.Halton(d, scramble=False)
    engine.fast_forward(skip)
    return engine.random(n)


class TestHalton:
    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("n", [1, 7, 1000, 70000])
    def test_matches_scipy_bitwise(self, n, d):
        got, want = geometry._halton(n, d), scipy_halton(n, d)
        assert got.shape == want.shape == (n, d)
        assert got.tobytes() == want.tobytes()
        assert got.flags.f_contiguous == want.flags.f_contiguous

    @pytest.mark.parametrize("offset", [0, 17, 51])
    def test_offset_stream_of_shell_candidates(self, Gani, offset):
        # _shell_candidates takes rows offset.. of the stream: points offset + 1 on
        n, d = 300, Gani.d + 1
        u = geometry._halton(n + offset, d)[offset:]
        assert u.tobytes() == scipy_halton(n, d, skip=offset + 1).tobytes()
        lo, hi = 2.0, 4.0
        cands = geometry._shell_candidates(Gani, lo, hi, n, offset)
        assert np.allclose(Gani.quasi_norm(cands), lo + (hi - lo) * u[:, Gani.d], rtol=1e-10)


def ndtri_directions(u):
    """The normal-quantile path of _normal_directions, in any dimension."""
    g = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    degenerate = norms[:, 0] == 0.0
    g[degenerate, 0] = 1.0
    norms[degenerate] = 1.0
    return g / norms


class TestNdtri:
    def test_matches_scipy_bitwise(self):
        rng = np.random.default_rng(12)
        log_uniform = 10.0 ** rng.uniform(-12, 0, 250_000)
        e2 = np.exp(-2.0)
        edges = [e2, 1 - e2, 1e-12, 1 - 1e-12, 0.5]
        edges += [np.nextafter(x, t) for x in edges[:2] for t in (0.0, 1.0)]
        y = np.concatenate([rng.random(600_000), geometry._halton(50_000, 6).ravel(),
                            log_uniform, 1.0 - log_uniform, edges])
        y = np.clip(y, 1e-12, 1 - 1e-12)
        assert len(y) > 1_000_000
        assert geometry._ndtri(y).tobytes() == ndtri(y).tobytes()


class TestNormalDirections:
    def test_one_dimension_matches_ndtri_bitwise(self):
        u = np.concatenate([geometry._halton(1000, 1),
                            [[0.0], [0.5], [1.0], [1e-300], [0.5 - 2.0 ** -54], [0.5 + 2.0 ** -53]]])
        got = geometry._normal_directions(u)
        assert got.tobytes() == ndtri_directions(u).tobytes()
        assert got[1001, 0] == 1.0 and got[1000, 0] == -1.0

    def test_two_dimensions_are_unit_ndtri_directions(self):
        u = geometry._halton(500, 2)
        got = geometry._normal_directions(u)
        assert got.tobytes() == ndtri_directions(u).tobytes()
        assert np.allclose(np.linalg.norm(got, axis=1), 1.0, rtol=1e-15)


class TestAffine:
    def test_identity_map(self, Gani):
        T = AffineMap(Gani, 1.0, np.zeros(2))
        B = AnisoBall([0.5, -1.0], 2.0)
        out = map_ball(Gani, T, B)
        assert out.center == pytest.approx([0.5, -1.0])
        assert out.radius == pytest.approx(2.0)

    def test_membership_equivariance(self, Gani):
        T = AffineMap(Gani, 1.7, np.array([0.3, -0.8]))
        B = AnisoBall([1.0, 2.0], 1.5)
        TB = map_ball(Gani, T, B)
        rng = np.random.default_rng(21)
        x = rng.uniform(-4, 4, size=(1000, 2))
        lhs = B.contains(Gani, x)
        rhs = TB.contains(Gani, T.apply(x))
        assert np.array_equal(lhs, rhs)

    def test_composition(self, Gani):
        T1 = AffineMap(Gani, 2.0, np.array([1.0, 0.0]))
        T2 = AffineMap(Gani, 0.5, np.array([0.0, 3.0]))
        B = AnisoBall([0.2, 0.2], 1.0)
        one = map_ball(Gani, T2, map_ball(Gani, T1, B))
        two = map_ball(Gani, T2.compose(T1), B)
        assert one.center == pytest.approx(list(two.center))
        assert one.radius == pytest.approx(two.radius)

    def test_inverse(self, Gani):
        T = AffineMap(Gani, 3.0, np.array([1.0, -2.0]))
        x = np.array([[0.4, 0.9], [-1.0, 2.0]])
        back = T.inverse().apply(T.apply(x))
        assert np.max(np.abs(back - x)) < 1e-12

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    def test_rejects_non_finite_scale(self, Gani, scale):
        with pytest.raises(ValueError):
            AffineMap(Gani, scale, np.zeros(2))


def brute_pairs(G, centers, radii, points):
    """All (ball, point) pairs by one quasi-norm call per ball, no prefilter."""
    balls, hits = [], []
    for i, (c, r) in enumerate(zip(centers, radii)):
        inside = np.flatnonzero(G.quasi_norm(points - c) < r)
        balls += [i] * len(inside)
        hits += inside.tolist()
    return np.array(balls, dtype=int), np.array(hits, dtype=int)


class TestBallPairs:
    @pytest.mark.parametrize("A", [[[1.0]], np.eye(2), np.diag([1.0, 2.0]),
                                   [[1.0, 0.4], [0.4, 1.5]]])
    @pytest.mark.parametrize("chunk", [2 ** 14, 37])
    def test_matches_brute_force(self, A, chunk, monkeypatch):
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        G = DilationGroup(A)
        rng = np.random.default_rng(8)
        centers = rng.uniform(-3, 3, size=(40, G.d))
        radii = rng.uniform(0.05, 1.5, size=40)
        points = rng.uniform(-4, 4, size=(600, G.d))
        balls, hits = ball_pairs(G, centers, radii, points)
        want_balls, want_hits = brute_pairs(G, centers, radii, points)
        assert len(want_balls) > 100
        assert np.array_equal(balls, want_balls)
        assert np.array_equal(hits, want_hits)

    def test_exact_ties_match_one_solve_of_the_batch(self, Gani):
        # (+-2, 0) and (0, +-4) lie exactly on |c|_A = 2 for diag(1, 2)
        points = np.array([[0.0, 4.0], [2.0, 0.0], [0.5, -1.0], [-2.0, 0.0],
                           [0.0, -4.0], [1.9, 0.3], [-0.2, 0.1]])
        balls, hits = ball_pairs(Gani, np.zeros((1, 2)), 2.0, points)
        # every point lies in the ball's box, so the batch is in strip order
        order = np.argsort(points[:, 0], kind="stable")
        want = np.sort(order[Gani.quasi_norm(points[order]) < 2.0])
        assert np.array_equal(hits, want) and np.all(balls == 0)
        _, tie = Gani._side(points, 2.0)
        assert tie.tolist() == [True, True, False, True, True, False, False]

    def test_forced_solves_match(self, Gani, monkeypatch):
        rng = np.random.default_rng(10)
        centers = rng.uniform(-3, 3, size=(30, 2))
        radii = rng.uniform(0.05, 1.5, size=30)
        points = rng.uniform(-4, 4, size=(500, 2))
        want = ball_pairs(Gani, centers, radii, points)
        monkeypatch.setattr(dilation, "_TIE_BAND", np.inf)
        got = ball_pairs(Gani, centers, radii, points)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_scalar_radius_and_empty_inputs(self, Gani):
        rng = np.random.default_rng(9)
        centers = rng.uniform(-2, 2, size=(12, 2))
        points = rng.uniform(-2, 2, size=(300, 2))
        one = ball_pairs(Gani, centers, 0.7, points)
        each = ball_pairs(Gani, centers, np.full(12, 0.7), points)
        assert all(np.array_equal(a, b) for a, b in zip(one, each))
        for balls, hits in (ball_pairs(Gani, centers, 0.7, np.empty((0, 2))),
                            ball_pairs(Gani, np.empty((0, 2)), 0.7, points)):
            assert balls.size == 0 and hits.size == 0


class TestComputeR0:
    def test_one_dimensional(self, G1):
        assert compute_r0(G1, 0.01) == pytest.approx(0.505)

    def test_isotropic_plane(self, Giso):
        assert compute_r0(Giso, 0.01) == pytest.approx(np.sqrt(2) / 2 * 1.01, rel=1e-9)

    def test_margin_strict(self, Gani):
        r0 = compute_r0(Gani, 0.01)
        assert r0 > Gani.quasi_radius_bound(np.sqrt(2) / 2)

    def test_rejects_nan_margin(self, G1):
        with pytest.raises(ValueError, match="margin"):
            compute_r0(G1, np.nan)


class TestUnitCovering:
    def test_interval_height(self, G1):
        cov = unit_covering(G1, 0.505)
        assert cov.height_bound == 2

    def test_full_coverage(self, Gani):
        r0 = compute_r0(Gani, 0.01)
        cov = unit_covering(Gani, r0)
        rng = np.random.default_rng(3)
        z = rng.uniform(-3, 3, size=(500, 2))
        assert np.all(cov.cover_count(z) >= 1)

    def test_cell_translation_identity(self, Gani):
        r0 = compute_r0(Gani, 0.01)
        cov = unit_covering(Gani, r0)
        rng = np.random.default_rng(4)
        z = rng.uniform(-2, 2, size=(200, 2))
        k = np.array([1.0, -2.0])
        in_k = cov.cell(k).contains(Gani, z)
        in_0_shifted = cov.cell(np.zeros(2)).contains(Gani, z - k)
        assert np.array_equal(in_k, in_0_shifted)

    def test_cover_count_matches_cell_loop(self, Gani):
        cov = unit_covering(Gani, compute_r0(Gani, 0.01))
        z = np.random.default_rng(5).uniform(-2.5, 2.5, size=(400, 2))
        # cells beyond |k_i| = 4 are farther than r0's Euclidean reach
        cells = [np.array(k) - 4 for k in np.ndindex(9, 9)]
        want = sum(cov.cell(k).contains(Gani, z).astype(int) for k in cells)
        assert np.array_equal(cov.cover_count(z), want)


@pytest.fixture(scope="module")
def cov8(G1):
    return build_structured_covering(G1, c=0.5, max_norm=8.0, seed=11)


@pytest.fixture(scope="module")
def cov2d(Gani):
    return build_structured_covering(Gani, c=0.5, max_norm=2.0, seed=5,
                                     candidates_per_shell=256, validation_samples=256)


def pairwise_disjoint(cov, factor, nodes):
    """Shrunk balls tested pair by pair, skipping pairs too far apart to meet."""
    G = cov.group
    rad = factor * cov.t
    reach = np.array([G.euclidean_radius_bound(r) for r in rad])
    for i in range(len(cov)):
        pts = G.dilate(rad[i], nodes) + cov.centers[i]
        for j in range(len(cov)):
            far = np.linalg.norm(cov.centers[i] - cov.centers[j]) > reach[i] + reach[j]
            if j != i and not far and np.any(G.quasi_norm(pts - cov.centers[j]) < rad[j]):
                return False
    return True


def reference_covering(G, c, max_norm, seed, candidates_per_shell=None,
                       validation_samples=2048):
    """build_structured_covering with the per-candidate greedy loop: one
    quasi-norm call per candidate on its window, grown by np.vstack."""
    c_est = max(1.0, geometry.triangle_constant_estimate(G, 2000, seed))
    sep = c / (4.0 * c_est)
    n_shells = max(1, int(np.ceil(np.log2(max_norm))))
    shells = [(0.0, 1.0)] + [(2.0 ** m, 2.0 ** (m + 1)) for m in range(n_shells)]
    if candidates_per_shell is None:
        candidates_per_shell = int(min(12000, max(256, 6 * (2.0 / sep) ** G.nu)))
    sel_pts, sel_br = np.empty((0, G.d)), np.empty(0)
    shell_slices, offset, prev_start = [], 0, 0
    sqrt_sigma = np.sqrt(G.p_scale)
    for lo, hi in shells:
        cands = geometry._shell_candidates(G, max(lo, 1e-6), hi, candidates_per_shell, offset)
        offset += 17
        br = G.bracket(cands)
        start = len(sel_pts)
        for i in range(len(cands)):
            z, bz = cands[i], br[i]
            ok = True
            window = slice(prev_start, len(sel_pts))
            pts_w, br_w = sel_pts[window], sel_br[window]
            if len(pts_w):
                thresh = sep * np.minimum(br_w, bz)
                reach = np.maximum(thresh ** G.alpha1, thresh ** G.alpha2) / sqrt_sigma
                near = np.flatnonzero(np.abs(pts_w - z).max(axis=1) <= reach)
                if near.size:
                    qd = G.quasi_norm(pts_w[near] - z)
                    ok = bool(np.all(qd > thresh[near]))
            if ok:
                sel_pts = np.vstack([sel_pts, z[None, :]])
                sel_br = np.append(sel_br, bz)
        shell_slices.append((start, len(sel_pts)))
        prev_start = start
    cov = geometry.StructuredCovering(
        group=G, c=c, centers=sel_pts, t=sel_br, radii=c * sel_br, max_norm=max_norm,
        separation_factor=sep, shrink_factor=sep, height=0,
        triangle_estimate=c_est, shells=shell_slices)
    cov.height = int(cov.cover_count(
        geometry._region_samples(G, max_norm, validation_samples)).max())
    cov.shrink_factor = geometry._validated_shrink_factor(cov)
    return cov


def assert_same_covering(got, want):
    for name in ("centers", "t", "radii"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.shells == want.shells
    assert got.height == want.height
    assert got.shrink_factor == want.shrink_factor


# (A, c, max_norm, seed, candidates_per_shell, validation_samples)
GREEDY_CASES = [
    ([[1.0]], 0.5, 8.0, 11, None, 2048),
    ([[1.0]], 0.5, 24.0, 0, 256, 2048),
    (np.diag([0.5, 1.0]), 0.5, 4.0, 7, 256, 512),
    (np.diag([1.0, 2.0]), 0.5, 2.0, 5, 256, 256),
    ([[1.0, 0.3], [0.3, 1.5]], 0.5, 4.0, 3, 256, 512),
]


class TestGreedyNet:
    @pytest.mark.parametrize("case", GREEDY_CASES)
    def test_matches_per_candidate_loop(self, case):
        A, c, max_norm, seed, n, m = case
        G = DilationGroup(A)
        got = build_structured_covering(G, c, max_norm, seed=seed,
                                        candidates_per_shell=n, validation_samples=m)
        assert_same_covering(got, reference_covering(G, c, max_norm, seed, n, m))

    @pytest.mark.parametrize("case", GREEDY_CASES[1:3])
    def test_forced_solves_match(self, case, monkeypatch):
        A, c, max_norm, seed, n, m = case
        G = DilationGroup(A)
        want = build_structured_covering(G, c, max_norm, seed=seed,
                                         candidates_per_shell=n, validation_samples=m)
        # every pair is a tie: each candidate with a live partner in its box
        # gets the per-candidate window solve, and every batch a solve
        monkeypatch.setattr(dilation, "_TIE_BAND", np.inf)
        window_ok, solves = geometry._window_ok, []

        def counted(*args):
            solves.append(args)
            return window_ok(*args)

        monkeypatch.setattr(geometry, "_window_ok", counted)
        got = build_structured_covering(G, c, max_norm, seed=seed,
                                        candidates_per_shell=n, validation_samples=m)
        assert len(solves) > len(got) // 2
        assert_same_covering(got, want)


class TestStructuredCovering:

    def test_radii_by_construction(self, cov8, G1):
        assert np.allclose(cov8.radii, cov8.c * (1.0 + np.abs(cov8.centers[:, 0])))
        assert np.allclose(cov8.t, G1.bracket(cov8.centers))

    def test_interval_coverage_oracle(self, cov8):
        # in one dimension with A=(1) the balls are literal intervals
        lo = cov8.centers[:, 0] - cov8.radii
        hi = cov8.centers[:, 0] + cov8.radii
        order = np.argsort(lo)
        lo, hi = lo[order], hi[order]
        assert lo[0] < -8.0 and np.max(hi) > 8.0
        reach = hi[0]
        for a, b in zip(lo[1:], hi[1:]):
            if a >= reach:
                pytest.fail(f"gap before {a}")
            reach = max(reach, b)
            if reach > 8.0:
                break
        assert reach > 8.0

    def test_height_above_cap_raises(self, Gani, monkeypatch):
        def build():
            return build_structured_covering(Gani, c=0.5, max_norm=1.0, seed=5,
                                             candidates_per_shell=128, validation_samples=128)

        height = build().height
        monkeypatch.setattr(geometry, "_HEIGHT_CAP", height - 1)
        with pytest.raises(HeightUnbounded, match=f"height {height} exceeds cap {height - 1}"):
            build()

    def test_shrunk_disjoint_oracle(self, cov8):
        rad = cov8.shrink_factor * cov8.t
        lo = cov8.centers[:, 0] - rad
        hi = cov8.centers[:, 0] + rad
        order = np.argsort(lo)
        lo, hi = lo[order], hi[order]
        assert np.all(lo[1:] >= hi[:-1] - 1e-12)

    def test_cover_count_matches_per_ball_sum(self, cov8, cov2d):
        rng = np.random.default_rng(6)
        for cov, half in ((cov8, 9.0), (cov2d, 2.5)):
            z = rng.uniform(-half, half, size=(500, cov.group.d))
            want = sum(cov.ball(j).contains(cov.group, z).astype(int) for j in range(len(cov)))
            assert np.array_equal(cov.cover_count(z), want)

    def test_shrunk_disjoint_matches_pairwise_loop(self, cov2d):
        G = cov2d.group
        nodes = geometry._unit_ball_reference_nodes(128, G.d, G.p_scale, boundary_bias=True)
        for factor, disjoint in ((cov2d.shrink_factor, True), (2 * cov2d.shrink_factor, False)):
            assert geometry._shrunk_disjoint(cov2d, factor, nodes) is disjoint
            assert pairwise_disjoint(cov2d, factor, nodes) is disjoint

    def test_geometric_shell_structure(self, cov8):
        # dyadic shells keep a bounded number of balls each
        for start, end in cov8.shells:
            assert 1 <= end - start <= 60
        pos = np.sort(cov8.centers[cov8.centers[:, 0] > 1.0, 0])
        gaps = np.diff(pos)
        assert np.all(gaps > 0)

    def test_validated_height(self, cov8):
        assert 1 <= cov8.height <= 64

    def test_neighbor_count_stable_under_truncation(self, G1):
        c_a = build_structured_covering(G1, c=0.5, max_norm=8.0, seed=11)
        c_b = build_structured_covering(G1, c=0.5, max_norm=64.0, seed=11)
        n_a, r_a = covering_intersection_stats(c_a, c_a)
        n_b, r_b = covering_intersection_stats(c_b, c_b)
        assert n_a >= 1 and n_b >= 1
        assert n_a == n_b
        assert r_a >= 1.0 and r_b >= 1.0

    def test_cross_parameter_stats(self, G1, cov8):
        other = build_structured_covering(G1, c=0.8, max_norm=8.0, seed=13)
        n, ratio = covering_intersection_stats(cov8, other)
        assert n >= 1
        assert ratio >= 1.0

    def test_two_dimensional_small(self, Gani):
        cov = build_structured_covering(
            Gani, c=0.9, max_norm=2.0, seed=5, validation_samples=512
        )
        assert len(cov) >= 3
        assert cov.height >= 1


def loop_intersection_stats(C1, C2, witnesses=128, slack=0.05):
    """covering_intersection_stats as a loop over the pairs of balls, with a
    bracket solve per meeting pair, and the number of dense samples it ran."""
    G = C1.group
    c_est = max(C1.triangle_estimate, C2.triangle_estimate)
    nodes = geometry._unit_ball_reference_nodes(witnesses, G.d, G.p_scale)
    dense = geometry._unit_ball_reference_nodes(8 * witnesses, G.d, G.p_scale,
                                                boundary_bias=True)
    max_neighbors, ratio_bound, dense_runs = 0, 1.0, 0
    for i in range(len(C1)):
        ci, ri = C1.centers[i], C1.radii[i]
        qd = G.quasi_norm(C2.centers - ci)
        possible = np.flatnonzero(qd <= c_est * (ri + C2.radii) * (1.0 + slack))
        pts = G.dilate(ri, nodes) + ci
        br_i = G.bracket(pts)
        count = 0
        for j in possible:
            inside = G._below(pts - C2.centers[j], C2.radii[j])
            if not np.any(inside):
                dense_runs += 1
                dpts = G.dilate(ri, dense) + ci
                inside = G._below(dpts - C2.centers[j], C2.radii[j])
                if not np.any(inside):
                    continue
            count += 1
            pts_j = G.dilate(C2.radii[j], nodes) + C2.centers[j]
            br_j = G.bracket(pts_j)
            r = max(br_i.max() / br_j.min(), br_j.max() / br_i.min())
            ratio_bound = max(ratio_bound, float(r))
        max_neighbors = max(max_neighbors, count)
    return (max_neighbors, ratio_bound), dense_runs


def some_balls(cov, sl):
    """The covering cut to the balls cov.centers[sl]."""
    return dataclasses.replace(cov, centers=cov.centers[sl], t=cov.t[sl], radii=cov.radii[sl])


class TestIntersectionStats:
    # the loop costs a bracket solve per meeting pair, and in these 2-D
    # coverings nearly every pair meets, so C1 keeps a few balls
    @pytest.fixture(scope="class")
    def coverings(self, G1, cov8, cov2d):
        wide = build_structured_covering(cov2d.group, 0.9, 2.0, seed=5, candidates_per_shell=256,
                                         validation_samples=256)
        coupled = build_structured_covering(DilationGroup([[1.0, 0.3], [0.3, 1.5]]), 0.9,
                                            2.0, seed=3, candidates_per_shell=256,
                                            validation_samples=256)
        outer = cov2d.shells[-1][0]
        return {
            "1d": (cov8, cov8),
            "1d-cross": (cov8, build_structured_covering(G1, c=0.8, max_norm=8.0, seed=13)),
            "diag-self": (some_balls(cov2d, slice(outer, outer + 2)), cov2d),
            "coupled-self": (some_balls(coupled, slice(None, None, 25)), coupled),
            "diag-cross": (some_balls(cov2d, slice(-2, None)), wide),
        }

    @pytest.mark.parametrize("case", ["1d", "1d-cross", "diag-self", "coupled-self",
                                      "diag-cross"])
    def test_matches_pairwise_loop(self, coverings, case):
        C1, C2 = coverings[case]
        want, dense_runs = loop_intersection_stats(C1, C2)
        assert covering_intersection_stats(C1, C2) == want
        if case == "diag-self":
            # both results move if the dense fallback is skipped
            assert dense_runs > 0

    def test_quasi_norm_calls(self, coverings, monkeypatch):
        C1, C2 = coverings["1d-cross"]
        want = covering_intersection_stats(C1, C2)
        calls, quasi_norm = [], dilation.DilationGroup.quasi_norm

        def counted(self, xi):
            calls.append(xi)
            return quasi_norm(self, xi)

        monkeypatch.setattr(dilation.DilationGroup, "quasi_norm", counted)
        assert covering_intersection_stats(C1, C2) == want
        assert 0 < len(calls) <= 2 * len(C1) + len(C2)
