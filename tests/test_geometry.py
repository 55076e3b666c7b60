import dataclasses

import numpy as np
import pytest
from scipy.special import gammaln, ndtri
from scipy.stats import qmc

from anisoweights import dilation, geometry
from anisoweights.dilation import DilationGroup, NonFiniteInput
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
)
from search_counts import counted_search


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

    @pytest.mark.parametrize("center, radius", [([0.0, 0.0], np.inf), ([np.nan, 0.0], 1.0),
                                                ([0.0, -np.inf], 1.0)])
    def test_ball_rejects_non_finite_centre_or_radius(self, center, radius):
        # both were accepted
        with pytest.raises(NonFiniteInput, match="finite centre and radius"):
            AnisoBall(center, radius)

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
        # a shell takes rows offset.. of the polar stream: points offset + 1 on
        n, d = 300, Gani.d + 1
        u = geometry._halton(n + offset, d)[offset:]
        assert u.tobytes() == scipy_halton(n, d, skip=offset + 1).tobytes()
        dirs, last = geometry._polar_stream(n + offset, Gani.d)
        assert last[offset:].tobytes() == u[:, Gani.d].tobytes()
        lo, hi = 2.0, 4.0
        cands = Gani.dilate(lo + (hi - lo) * last[offset:], dirs[offset:])
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
        # every point lies in the ball's box, so the batch is the search
        # order: rows of width 2 in x2 (half the reach 4), then x1
        order = np.array([4, 2, 3, 6, 5, 1, 0])
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


def brute_box(centers, reach, points, same=False):
    """(i, j) of the points in ball i's box, ball by ball: the first coordinate
    as the search's segment (between the rounded ends), the others by |diff|."""
    pairs = []
    for i, (c, r) in enumerate(zip(centers, reach)):
        near = (points[:, 0] >= c[0] - r) & (points[:, 0] <= c[0] + r)
        near &= np.all(np.abs(points[:, 1:] - c[1:]) <= r, axis=1)
        if same:
            near &= np.arange(len(points)) < i
        pairs += [(i, j) for j in np.flatnonzero(near)]
    return pairs


def search_pairs(centers, reach, points, same=False):
    batches = list(geometry._box_pairs(centers, reach, points, same))
    return [(int(i), int(j)) for b, k in batches for i, j in zip(b, k)]


def search_case(name):
    """(group, centres, radii, points) of one edge case of the search."""
    rng = np.random.default_rng(12)
    G = DilationGroup(np.diag([1.0, 2.0]))
    centers = rng.uniform(-3, 3, size=(40, 2))
    radii = rng.uniform(0.05, 1.5, size=40)
    points = rng.uniform(-4, 4, size=(500, 2))
    if name == "zero spread":
        points[:, 1] = 0.5
        centers[::2, 1] = 0.5
    elif name == "3-D":
        G = DilationGroup(np.diag([1.0, 1.5, 2.0]))
        centers = rng.uniform(-2, 2, size=(40, 3))
        points = rng.uniform(-3, 3, size=(700, 3))
    elif name == "tiny radii":
        # reaches of 1e-6 over a spread of 2e6: the rows are capped by the points
        points = rng.uniform(-1e6, 1e6, size=(500, 2))
        points[1::2] = points[::2] + [1e-9, 0.0]
        centers = points[::12] + [1e-9, 0.0]
        radii = np.full(len(centers), 1e-6)
    elif name == "duplicates":
        points = np.repeat(points[:200], 3, axis=0)
        centers = np.concatenate([centers, points[:30]])
        radii = rng.uniform(0.05, 1.5, size=len(centers))
    return G, centers, radii, points


SEARCH_CASES = ["plain", "zero spread", "3-D", "tiny radii", "duplicates"]


class TestSearch:
    @pytest.mark.parametrize("name", SEARCH_CASES)
    @pytest.mark.parametrize("chunk", [2 ** 13, 37])
    def test_ball_pairs_match_brute_force(self, name, chunk, monkeypatch):
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        G, centers, radii, points = search_case(name)
        balls, hits = ball_pairs(G, centers, radii, points)
        want_balls, want_hits = brute_pairs(G, centers, radii, points)
        assert len(want_balls) >= len(centers)
        assert np.array_equal(balls, want_balls) and np.array_equal(hits, want_hits)

    @pytest.mark.parametrize("name", SEARCH_CASES)
    @pytest.mark.parametrize("chunk", [2 ** 13, 37])
    def test_box_pairs_match_brute_force(self, name, chunk, monkeypatch):
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        G, centers, radii, points = search_case(name)
        reach = G.euclidean_radius_bound(radii)
        got = search_pairs(centers, reach, points)
        want = brute_box(centers, reach, points)
        assert len(want) > len(centers)
        # ordered by ball; within a ball in search order
        assert [i for i, _ in got] == sorted(i for i, _ in got)
        assert sorted(got) == want

    @pytest.mark.parametrize("name", SEARCH_CASES)
    @pytest.mark.parametrize("chunk", [2 ** 13, 37])
    def test_same_set_pairs_come_once(self, name, chunk, monkeypatch):
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        G, _, _, points = search_case(name)
        scale = 1e-6 if name == "tiny radii" else 1.0
        reach = G.euclidean_radius_bound(scale * np.random.default_rng(13).uniform(
            0.05, 1.0, size=len(points)))
        got = search_pairs(points, reach, points, same=True)
        want = brute_box(points, reach, points, same=True)
        assert len(want) >= len(points) // 2
        assert all(j < i for i, j in got)
        assert [i for i, _ in got] == sorted(i for i, _ in got)
        assert len(set(got)) == len(got) and sorted(got) == want

    def test_row_count_is_capped_by_the_points(self):
        G, centers, radii, points = search_case("tiny radii")
        reach = G.euclidean_radius_bound(radii)
        _, cells, width = geometry._row_grid(points[:, 1:], reach)
        assert cells[0] <= len(points) and width >= np.ptp(points[:, 1]) / len(points)
        _, cells, _ = geometry._row_grid(np.zeros((50, 2)), reach)
        assert cells == [1, 1]

    def test_empty_inputs(self):
        for centers, points in ((np.empty((0, 2)), np.ones((5, 2))),
                                (np.ones((5, 2)), np.empty((0, 2))),
                                (np.empty((0, 2)), np.empty((0, 2)))):
            reach = np.ones(len(centers))
            for same in (False, True):
                assert search_pairs(centers, reach, points, same) == []

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_column_compares_match_the_row_max(self, d):
        rng = np.random.default_rng(14)
        diff = rng.uniform(-2, 2, size=(400, d))
        diff[rng.integers(0, 400, 40), rng.integers(0, d, 40)] = np.nan
        diff[rng.integers(0, 400, 10), rng.integers(0, d, 10)] = -np.inf
        reach = rng.uniform(0, 2, size=400)
        want = np.abs(diff).max(axis=1) <= reach
        assert np.array_equal(geometry._within(diff, reach), want)
        assert np.array_equal(geometry._within(diff, 1.0), np.abs(diff).max(axis=1) <= 1.0)

    @pytest.mark.parametrize("A", [np.diag([0.5, 1.0]), [[1.0, 0.4], [0.4, 1.5]]])
    def test_witness_sets_match_per_ball_dilations(self, A):
        G = DilationGroup(A)
        rng = np.random.default_rng(15)
        centers = rng.uniform(-3, 3, size=(25, 2))
        radii = rng.uniform(0.01, 2.0, size=25)
        radii[[3, 17]] = 1.0  # G.dilate copies the nodes at t = 1
        nodes = unit_ball_nodes(G, 128, boundary_bias=True)
        want = np.stack([G.dilate(r, nodes) + c for c, r in zip(centers, radii)])
        # the witness sets of _shrunk_disjoint and covering_intersection_stats
        got = G.dilate(radii[:, None], nodes) + centers[:, None, :]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if not np.allclose(A, np.diag(np.diag(A))):
            # a rotated generator's product at t = 1 differs from the copy
            Q = G.eigenvectors
            assert not np.array_equal((nodes @ Q) @ Q.T, nodes)


@pytest.fixture(scope="module")
def cover_2d_search():
    """The cover-2d build at seed 7, with its candidate search and the sizes
    of its normal-quantile calls counted."""
    G = DilationGroup(np.diag([0.5, 1.0]))
    ndtri_sizes, ndtri = [], geometry._ndtri

    def counted_ndtri(y):
        ndtri_sizes.append(y.size)
        return ndtri(y)

    with counted_search() as counts, pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_ndtri", counted_ndtri)
        cov = build_structured_covering(G, 0.5, 4.0, seed=7, candidates_per_shell=1024,
                                        validation_samples=1024)
    counts["ndtri"] = ndtri_sizes
    return cov, counts


class TestSearchPin:
    def test_candidates_gathered(self, cover_2d_search):
        # measured: 476,889 gathered for 262,658 box candidates in 124
        # batches of 9 searches; a first-coordinate strip gathered 1.81M
        _, counts = cover_2d_search
        assert counts["box"] > 250_000
        assert counts["gathered"] <= 2 * counts["box"]
        # consecutive batches hold more than _PAIR_CHUNK / d candidates together
        full = counts["gathered"] / (geometry._PAIR_CHUNK // 2)
        assert counts["batches"] <= 2 * full + counts["calls"]

    def test_normal_quantiles_once_per_stream(self, cover_2d_search):
        # one polar stream of 34 + 1024 rows for the three shells, the
        # validation sample and the 128 witness nodes: 2 * 1058 values, and
        # no second draw for the witnesses or per shell
        _, counts = cover_2d_search
        assert counts["ndtri"] == [2 * 1058]

    def test_shrink_validation_memory(self, cover_2d_search):
        # measured: 1.18 MB, of which the 27,904 witnesses take 0.43 MB
        tracemalloc = pytest.importorskip("tracemalloc")
        cov, _ = cover_2d_search
        nodes = unit_ball_nodes(cov.group, 128, boundary_bias=True)
        tracemalloc.start()
        try:
            geometry._validated_shrink_factor(cov, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2 ** 20


class TestComputeR0:
    def test_one_dimensional(self, G1):
        assert compute_r0(G1) == pytest.approx(0.505)

    def test_isotropic_plane(self, Giso):
        assert compute_r0(Giso) == pytest.approx(np.sqrt(2) / 2 * 1.01, rel=1e-9)

    def test_margin_strict(self, Gani):
        r0 = compute_r0(Gani)
        assert r0 > Gani.quasi_radius_bound(np.sqrt(2) / 2)


def lattice_cover_count(G, r0, points):
    """How many cells B_A(l, r0), l in Z^d with |l_i| <= 5, hold each point: the
    unit cells of sampling_inequality_experiment."""
    cells = geometry._lattice([np.arange(-5, 6)] * G.d)
    _, hits = ball_pairs(G, cells, r0, points)
    return np.bincount(hits, minlength=len(points))


class TestUnitCovering:
    def test_interval_height(self, G1):
        counts = lattice_cover_count(G1, 0.505, np.linspace(0, 1, 4096, endpoint=False)[:, None])
        assert counts.min() >= 1 and counts.max() == 2

    def test_full_coverage(self, Gani):
        z = np.random.default_rng(3).uniform(-3, 3, size=(500, 2))
        assert np.all(lattice_cover_count(Gani, compute_r0(Gani), z) >= 1)

    def test_cell_translation_identity(self, Gani):
        r0 = compute_r0(Gani)
        rng = np.random.default_rng(4)
        z = rng.uniform(-2, 2, size=(200, 2))
        k = np.array([1.0, -2.0])
        in_k = AnisoBall(k, r0).contains(Gani, z)
        in_0_shifted = AnisoBall(np.zeros(2), r0).contains(Gani, z - k)
        assert np.array_equal(in_k, in_0_shifted)

    def test_cover_count_matches_cell_loop(self, Gani):
        r0 = compute_r0(Gani)
        z = np.random.default_rng(5).uniform(-2.5, 2.5, size=(400, 2))
        # cells beyond |k_i| = 4 are farther than r0's Euclidean reach
        cells = [np.array(k) - 4 for k in np.ndindex(9, 9)]
        want = sum(AnisoBall(k, r0).contains(Gani, z).astype(int) for k in cells)
        assert np.array_equal(lattice_cover_count(Gani, r0, z), want)


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


def halton_polar(G, n, offset=0):
    """Rows offset.. of the Halton stream in d + 1 dimensions as unit
    directions, with |dir|_A = 1, and last coordinates."""
    u = geometry._halton(n + offset, G.d + 1)[offset:]
    return geometry._normal_directions(u[:, :G.d]), u[:, G.d]


def unit_ball_nodes(G, n, boundary_bias=False):
    """The first n rows of the Halton stream as nodes of B_A(0, 1), the
    Euclidean unit ball: direction dir at radius u^(1/d), or (u^(1/d))^(1/4)
    with boundary_bias."""
    dirs, u = halton_polar(G, n)
    radii = u ** (1.0 / G.d)
    if boundary_bias:
        radii = radii ** 0.25
    return dirs * radii[:, None]


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
    for lo, hi in shells:
        dirs, u = halton_polar(G, candidates_per_shell, offset)
        lo = max(lo, 1e-6)
        cands = G.dilate(lo + (hi - lo) * u, dirs)
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
                reach = np.maximum(thresh ** G.alpha1, thresh ** G.alpha2)
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
    dirs, u = halton_polar(G, validation_samples)
    cov.height = int(cov.cover_count(
        G.dilate(max_norm * np.maximum(u, 1e-9) ** (1.0 / G.nu), dirs)).max())
    cov.shrink_factor = geometry._validated_shrink_factor(
        cov, unit_ball_nodes(G, 128, boundary_bias=True))
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

    @pytest.mark.parametrize("max_norm", [np.nan, np.inf, 0.5])
    def test_max_norm_outside_one_to_inf_rejected(self, G1, max_norm):
        # NaN raised "cannot convert float NaN to integer" and inf OverflowError
        with pytest.raises(ValueError, match="max_norm must satisfy 1 <= max_norm < inf"):
            build_structured_covering(G1, 0.5, max_norm, seed=0)

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
        nodes = unit_ball_nodes(G, 128, boundary_bias=True)
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
    nodes = unit_ball_nodes(G, witnesses)
    dense = unit_ball_nodes(G, 8 * witnesses, boundary_bias=True)
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

    def test_normal_quantiles_once(self, cov2d, monkeypatch):
        # one polar stream of 1,024 rows for the 128 witnesses and the dense
        # sample: 2 * 1024 values, and no second draw for the witnesses
        sizes, ndtri = [], geometry._ndtri

        def counted(y):
            sizes.append(y.size)
            return ndtri(y)

        monkeypatch.setattr(geometry, "_ndtri", counted)
        covering_intersection_stats(some_balls(cov2d, slice(-2, None)), cov2d)
        assert sizes == [2 * 1024]

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
