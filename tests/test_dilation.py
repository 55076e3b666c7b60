import warnings

import numpy as np
import pytest

from anisoweights.dilation import (
    DilationGroup,
    NonFiniteInput,
    NonPositiveScale,
    NonPositiveSpectrum,
    NonSymmetric,
    triangle_constant_estimate,
)
from anisoweights.spectral import FourierGrid


def coupled_group():
    return DilationGroup([[1.5, 0.5], [0.5, 1.5]])


def reference_solve(G, pts):
    """The bisection as an einsum over (m, d) arrays with np.where updates.

    Same bracket, midpoint and stopping rules as DilationGroup._solve; kept
    as the oracle that the planar in-place loop must match.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    c2 = (pts @ G.eigenvectors) ** 2
    u2 = c2.sum(axis=1)
    out = np.zeros(len(u2))
    active = u2 > 0.0
    if not active.any():
        return out
    u = np.sqrt(u2[active])
    ca = c2[active]
    e1, e2 = u ** (1.0 / G.alpha1), u ** (1.0 / G.alpha2)
    lo = np.log(np.minimum(e1, e2))
    hi = np.log(np.maximum(e1, e2))
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        level = np.einsum("ij,ij->i", ca, np.exp(np.outer(mid, -(2.0 * G.eigenvalues))))
        resid = level - 1.0
        if np.all(np.abs(resid) <= 1e-12):
            break
        above = resid > 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
        if np.max(hi - lo) < 1e-16:
            break
        mid = 0.5 * (lo + hi)
    out[active] = np.exp(mid)
    return out


def scaled_points(rng, n, d):
    """Gaussian points at scales 2^-20..2^20; a quarter have first coordinate 0."""
    x = rng.standard_normal((n, d)) * 2.0 ** rng.uniform(-20, 20, (n, 1))
    x[: n // 4, 0] = 0.0
    return x


class TestConstruction:
    def test_identity(self):
        G = DilationGroup(np.eye(2))
        assert G.nu == pytest.approx(2.0)
        assert G.alpha1 == pytest.approx(1.0)
        assert G.alpha2 == pytest.approx(1.0)

    def test_diagonal(self):
        G = DilationGroup(np.diag([1.0, 2.0]))
        assert G.nu == pytest.approx(3.0)
        assert G.alpha1 == pytest.approx(1.0)
        assert G.alpha2 == pytest.approx(2.0)

    def test_coupled_closed_form(self):
        # 2x2 oracle: eigenvalues (tr +- sqrt(tr^2 - 4 det)) / 2
        A = np.array([[1.5, 0.5], [0.5, 1.5]])
        tr, det = A.trace(), np.linalg.det(A)
        disc = np.sqrt(tr ** 2 - 4 * det)
        expected = sorted([(tr - disc) / 2, (tr + disc) / 2])
        G = DilationGroup(A)
        assert G.eigenvalues == pytest.approx(expected)
        assert G.nu == pytest.approx(3.0)
        QtQ = G.eigenvectors.T @ G.eigenvectors
        assert np.max(np.abs(QtQ - np.eye(2))) < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetric):
            DilationGroup([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_nonpositive_spectrum(self):
        with pytest.raises(NonPositiveSpectrum):
            DilationGroup(np.diag([1.0, -1.0]))
        with pytest.raises(NonPositiveSpectrum):
            DilationGroup(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_generator(self, bad):
        # a NaN generator gave nu = nan, and inf gave nu = inf after a warning
        with pytest.raises(NonFiniteInput, match="generator must be finite"):
            DilationGroup([[bad]])
        with pytest.raises(NonFiniteInput):
            DilationGroup([[1.0, 0.0], [0.0, bad]])

    def test_symmetrizes_roundoff(self):
        A = np.array([[1.0, 0.5 + 1e-13], [0.5, 2.0]])
        G = DilationGroup(A)
        assert np.allclose(G.A, G.A.T)


class TestDilate:
    def test_identity_generator(self):
        G = DilationGroup(np.eye(2))
        assert G.dilate(2.0, [1.0, 0.0]) == pytest.approx([2.0, 0.0])

    def test_diagonal_closed_form(self):
        G = DilationGroup(np.diag([1.0, 2.0]))
        assert G.dilate(3.0, [1.0, 1.0]) == pytest.approx([3.0, 9.0])

    def test_group_law(self):
        G = coupled_group()
        rng = np.random.default_rng(5)
        xi = rng.standard_normal((50, 2))
        lhs = G.dilate(2.0, G.dilate(3.0, xi))
        rhs = G.dilate(6.0, xi)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_unit_scale_is_identity(self):
        G = coupled_group()
        xi = np.array([0.3, -1.7])
        assert G.dilate(1.0, xi) == pytest.approx(list(xi), abs=1e-15)
        assert G.dilate(7.0, np.zeros(2)) == pytest.approx([0.0, 0.0])

    def test_rejects_nonpositive_scale(self):
        G = coupled_group()
        with pytest.raises(NonPositiveScale):
            G.dilate(0.0, [1.0, 0.0])
        with pytest.raises(NonPositiveScale):
            G.dilate(-1.0, [1.0, 0.0])

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_dilate_rejects_non_finite_scale(self, t):
        with pytest.raises(NonPositiveScale):
            coupled_group().dilate(t, [1.0, 0.0])

    @pytest.mark.parametrize("A", [np.diag([1.0, 2.0]), [[1.0, 0.4], [0.4, 1.5]],
                                   [[1.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 2.0]]])
    def test_array_scale_matches_scalar_loop(self, A):
        G = DilationGroup(A)
        rng = np.random.default_rng(16)
        xi = rng.standard_normal((300, G.d))
        t = rng.uniform(0.05, 4.0, size=300)
        unit = [5, 12, 250]
        t[unit] = 1.0
        # per point: row i is row i of the scalar dilation of the whole set
        got = G.dilate(t, xi)
        want = np.array([G.dilate(ti, xi)[i] for i, ti in enumerate(t)])
        assert got.shape == xi.shape and got.tobytes() == want.tobytes()
        assert got[unit].tobytes() == xi[unit].tobytes()
        # per set: one copy of the points per t, rows of t = 1 among them
        sets = G.dilate(t[:20, None], xi)
        want = np.stack([G.dilate(ti, xi) for ti in t[:20]])
        assert sets.shape == (20, 300, G.d) and sets.tobytes() == want.tobytes()
        assert sets[5].tobytes() == sets[12].tobytes() == xi.tobytes()
        if not np.allclose(A, np.diag(np.diag(A))):
            # a rotated generator's product at t = 1 differs from the copy
            Q = G.eigenvectors
            assert not np.array_equal((xi @ Q) @ Q.T, xi)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_array_scale_rejects_nonpositive_or_non_finite(self, bad):
        G = coupled_group()
        t = np.array([0.5, bad, 2.0])
        for shape in ((3,), (3, 1)):
            with pytest.raises(NonPositiveScale):
                G.dilate(t.reshape(shape), np.ones((3, 2)))

    def test_radius_bound_takes_arrays(self):
        for G in (coupled_group(), DilationGroup(np.diag([0.5, 2.0]))):
            r = np.array([[1e-3, 0.25, 1.0], [1.5, 3.0, 1e3]])
            want = [[G.euclidean_radius_bound(float(x)) for x in row] for row in r]
            got = G.euclidean_radius_bound(r)
            assert got.shape == r.shape and got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_dilation_matrix_rejects_non_finite_scale(self, t):
        with pytest.raises(NonPositiveScale):
            coupled_group().dilation_matrix(t)


class TestQuasiNorm:
    def test_euclidean_reduction(self):
        G = DilationGroup(np.eye(2))
        assert abs(G.quasi_norm([3.0, 4.0]) - 5.0) < 1e-12

    def test_diagonal_closed_form(self):
        # t^(-4) * 81 = 1 gives t = 3
        G = DilationGroup(np.diag([1.0, 2.0]))
        assert G.quasi_norm([0.0, 9.0]) == pytest.approx(3.0, abs=1e-12)

    def test_one_dimensional_power(self):
        G = DilationGroup([[2.0]])
        assert G.quasi_norm([9.0]) == pytest.approx(3.0, abs=1e-12)

    def test_zero(self):
        G = coupled_group()
        assert G.quasi_norm(np.zeros(2)) == 0.0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                                "ignore:overflow:RuntimeWarning")
    def test_non_finite_input_raises(self):
        # a NaN point must not land inside every ball as |nan|_A = 0
        G = coupled_group()
        for bad in ([np.nan, 0.0], [np.inf, 1.0], [[1.0, 2.0], [0.0, -np.inf]]):
            with pytest.raises(NonFiniteInput):
                G.quasi_norm(bad)
        # finite coordinates whose squares overflow are not rejected
        G.quasi_norm([0.0, 1e200])

    def test_overflowing_envelope_bracket(self):
        # u^(1/alpha1) overflows (1e500) and u^(1/alpha2) underflows
        # (1e-500) for u = 1e150 and 1e-150 on diag(0.3, 3), although u^2
        # does not; the bracket then comes from log u^2
        G = DilationGroup(np.diag([0.3, 3.0]))
        pts = np.array([[0.0, 1e150], [0.0, 1e-150]])
        want = np.array([1e50, 1e-50])
        got = G.quasi_norm(pts)
        assert got == pytest.approx(want, rel=1e-12)
        assert np.array_equal(got, [G.quasi_norm(x) for x in pts])
        assert np.array_equal(G._below(pts, want), got < want)
        assert G._below(pts, want * (1 + 1e-6)).all()
        assert not G._below(pts, want * (1 - 1e-6)).any()

    def test_zero_coordinate_with_overflowing_term(self):
        # on diag(0.3, 3) the term of the zero coordinate, exp(-6 s) * 0,
        # overflows in exp near the roots s = log 1e-267 and log 1e-500; it
        # must add 0, not 0 * inf = NaN
        G = DilationGroup(np.diag([0.3, 3.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert G.quasi_norm([1e-80, 0.0]) == pytest.approx(1e-80 ** (1 / 0.3), rel=1e-12)
            # 1e-500 underflows: the solve converges, and exp(mid) is 0
            assert G.quasi_norm([1e-150, 0.0]) == 0.0

    def test_defining_residual(self):
        G = coupled_group()
        rng = np.random.default_rng(11)
        xi = rng.standard_normal((200, 2)) * 2.0 ** rng.uniform(-6, 6, (200, 1))
        t = G.quasi_norm(xi)
        c2 = (xi @ G.eigenvectors) ** 2
        resid = np.einsum(
            "ij,ij->i", c2, t[:, None] ** (-2.0 * G.eigenvalues)
        ) - 1.0
        assert np.max(np.abs(resid)) <= 1e-11

    def test_homogeneity(self):
        G = DilationGroup(np.diag([1.0, 2.0]))
        rng = np.random.default_rng(3)
        xi = rng.standard_normal((500, 2))
        lhs = G.quasi_norm(G.dilate(2.0, xi))
        rhs = 2.0 * G.quasi_norm(xi)
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-10

    def test_homogeneity_bulk(self):
        G = coupled_group()
        rng = np.random.default_rng(7)
        n = 10_000
        xi = rng.standard_normal((n, 2)) * 2.0 ** rng.uniform(-3, 3, (n, 1))
        t = 2.0 ** rng.uniform(-6, 6, n)
        scaled = (xi @ G.eigenvectors) * t[:, None] ** G.eigenvalues @ G.eigenvectors.T
        lhs = G.quasi_norm(scaled)
        rhs = t * G.quasi_norm(xi)
        assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-9

    def test_envelope_bounds(self):
        G = DilationGroup(np.diag([0.5, 2.0]))
        rng = np.random.default_rng(13)
        n = 10_000
        xi = rng.standard_normal((n, 2)) * 2.0 ** rng.uniform(-8, 8, (n, 1))
        u = np.linalg.norm(xi, axis=1)
        qn = G.quasi_norm(xi)
        small = u <= 1.0
        slop = 1e-9
        assert np.all(qn[small] >= u[small] ** (1 / G.alpha1) * (1 - slop))
        assert np.all(qn[small] <= u[small] ** (1 / G.alpha2) * (1 + slop))
        big = ~small
        assert np.all(qn[big] >= u[big] ** (1 / G.alpha2) * (1 - slop))
        assert np.all(qn[big] <= u[big] ** (1 / G.alpha1) * (1 + slop))

    def test_continuity_at_zero(self):
        G = coupled_group()
        xi = np.array([1.0, -2.0])
        values = [G.quasi_norm(G.dilate(1.0 / n, xi)) for n in (10, 100, 1000)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-2

    def test_summability_1d(self):
        # Riemann sums of <x>^(-nu-1/2) over expanding boxes stay bounded
        G = DilationGroup([[2.0]])
        h = 1.0 / 8
        sums = []
        for k in range(1, 8):
            half = 4.0 ** k
            ax = (np.arange(-half, half, h) + h / 2)[:, None]
            vals = (1.0 + G.quasi_norm(ax)) ** (-G.nu - 0.5)
            sums.append(vals.sum() * h)
        diffs = np.diff(sums)
        assert np.all(diffs > 0)
        # boxes quadruple, so tails eventually shrink like 4^(-eps/2) ~ 0.71
        assert np.all(diffs[3:] < 0.85 * diffs[2:-1])
        limit_bound = sums[-1] + diffs[-1] * 0.85 / (1 - 0.85)
        assert limit_bound < 10.0

    def test_summability_2d(self):
        # boxes expanded along the dilations capture whole quasi-shells, and
        # a fixed lattice makes the sums nested partial sums of one series
        G = DilationGroup(np.diag([1.0, 2.0]))
        h = 0.5
        sums = []
        for k in range(2, 6):
            half = np.array([2.0 ** k, 4.0 ** k])
            axes = [np.arange(-hf, hf, h) + h / 2 for hf in half]
            pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
            vals = (1.0 + G.quasi_norm(pts)) ** (-G.nu - 0.5)
            sums.append(vals.sum() * h ** 2)
        diffs = np.diff(sums)
        assert np.all(diffs > 0)
        assert np.all(diffs[1:] < 0.95 * diffs[:-1])
        assert diffs[-1] / diffs[-2] < 0.85


class TestBitwiseOracle:
    """The planar in-place bisection against the einsum/np.where loop."""

    @pytest.mark.parametrize("R", [1.0, 2.0])
    def test_multiplier_grids(self, R):
        # the 128x128 frequency grid of the multiplier experiment, transported
        # to B_A(0, R), and the shifts of the ensemble's off-centre members
        G = DilationGroup(np.diag([1.0, 2.0]))
        eta = G.dilate(1.0 / R, FourierGrid(2, 128, 8 * np.pi).frequency_points())
        for shift in (0.0, -0.45, -0.4, 0.5):
            pts = eta + np.array([shift, 0.0])
            assert np.array_equal(G.quasi_norm(pts), reference_solve(G, pts))

    @pytest.mark.parametrize("A", [[[1.0]], [[2.0]], np.diag([1.0, 2.0]), np.diag([0.5, 1.0]),
                                   [[1.5, 0.5], [0.5, 1.5]], np.diag([0.3, 3.0])])
    def test_random_batches(self, A):
        G = DilationGroup(A)
        rng = np.random.default_rng(23)
        for n in (1, 2, 3, 4, 5, 6, 7, 300, 20_000):
            pts = scaled_points(rng, n, G.d)
            pts[n // 2::97] = 0.0
            assert np.array_equal(G.quasi_norm(pts), reference_solve(G, pts))

    @pytest.mark.parametrize("A", [np.diag([0.3, 1.0, 3.0]),
                                   [[1.0, 0.2, 0.0], [0.2, 1.5, 0.1], [0.0, 0.1, 2.0]]])
    def test_three_dimensional_within_level_rounding(self, A):
        # einsum adds three terms as (a + c) + b, the planar level as
        # (a + b) + c: f differs by 1 ulp.  Small batches agree to 1e-15;
        # in larger ones the 1-ulp level can pick another sign change of
        # the rounded f near the root, which moves a few points by up to
        # the batch-dependence level of the solve
        G = DilationGroup(A)
        rng = np.random.default_rng(29)
        for n in range(1, 8):
            pts = scaled_points(rng, n, 3)
            want = reference_solve(G, pts)
            got = G.quasi_norm(pts)
            assert np.all(np.abs(got - want) <= 1e-15 * want)
        pts = scaled_points(rng, 5000, 3)
        want = reference_solve(G, pts)
        assert np.all(np.abs(G.quasi_norm(pts) - want) <= 1e-12 * want)


class TestSignRule:
    """_side decides |x|_A < r by the sign of f(r) - 1, _below falls back."""

    @pytest.mark.parametrize("A", [[[1.0]], np.diag([0.5, 1.0]), np.diag([1.0, 2.0]),
                                   [[1.0, 0.3], [0.3, 1.5]], np.diag([0.3, 1.0, 3.0])])
    def test_decisions_match_every_batching(self, A):
        G = DilationGroup(A)
        rng = np.random.default_rng(17)
        x = rng.standard_normal((300, G.d)) * 2.0 ** rng.uniform(-20, 20, (300, 1))
        x[:30, 0] = 0.0
        q = G.quasi_norm(x)
        q_small = np.concatenate([G.quasi_norm(x[i:i + 3]) for i in range(0, len(x), 3)])
        for rel in (0.0, 1e-14, -1e-14, 2e-12, -2e-12, 1e-11, -1e-11, 1e-9, -1e-9, 0.5, -0.5):
            r = q * (1.0 + rel)
            inside, tie = G._side(x, r)
            assert not tie.any() or abs(rel) < 1e-9
            for solved in (q, q_small):
                assert np.array_equal(inside[~tie], (solved < r)[~tie])
            assert np.array_equal(G._below(x, r), q < r)

    def test_exact_ties_fall_back(self):
        # (+-2, 0) and (0, +-4) lie exactly on |c|_A = 2 for diag(1, 2)
        G = DilationGroup(np.diag([1.0, 2.0]))
        pts = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 4.0], [0.0, -4.0], [1.0, 1.0], [3.0, 1.0]])
        inside, tie = G._side(pts, 2.0)
        assert tie.tolist() == [True] * 4 + [False] * 2
        assert inside[4:].tolist() == [True, False]
        assert np.array_equal(G._below(pts, 2.0), G.quasi_norm(pts) < 2.0)

    def test_centre_is_inside_positive_radii(self):
        G = coupled_group()
        inside, tie = G._side(np.zeros((2, 2)), np.array([1e-300, 0.0]))
        assert inside.tolist() == [True, False] and not tie.any()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                                "ignore:overflow:RuntimeWarning")
    def test_non_finite_input_raises(self):
        G = coupled_group()
        for bad in ([[np.nan, 0.0]], [[np.inf, 1.0]], [[1.0, 2.0], [0.0, -np.inf]]):
            with pytest.raises(NonFiniteInput):
                G._side(np.array(bad), 1.0)
            with pytest.raises(NonFiniteInput):
                G._below(np.array(bad), 1.0)

    def test_overflowing_and_underflowing_levels_are_ties(self):
        # r = 1e-200 on diag(0.3, 3): t^(-6) overflows, and on the first
        # axis the level is 0 * inf = NaN, which must not read as outside
        G = DilationGroup(np.diag([0.3, 3.0]))
        axes = np.array([[1.0, 0.0], [0.0, 1.0]])
        with np.errstate(all="raise"):
            inside, tie = G._side(axes, 1e-200)
        assert tie.all()
        assert np.array_equal(G._below(axes, 1e-200), G.quasi_norm(axes) < 1e-200)
        # r = 1e200 on diag(1, 2): every term of the level underflows to 0
        G = DilationGroup(np.diag([1.0, 2.0]))
        inside, tie = G._side(np.array([[1.0, 1.0]]), 1e200)
        assert tie.all() and G._below(np.array([[1.0, 1.0]]), 1e200).all()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_points_outside_the_safe_range_are_ties(self):
        G = DilationGroup(np.diag([1.0, 2.0]))
        pts = np.array([[1e-150, 0.0], [1e150, 1e150]])
        r = np.array([1e-150, 1e100])
        inside, tie = G._side(pts, r)
        assert tie.all()
        assert np.array_equal(G._below(pts, r), G.quasi_norm(pts) < r)


class TestBracket:
    def test_values(self):
        G1 = DilationGroup(np.eye(2))
        assert G1.bracket(np.zeros(2)) == pytest.approx(1.0)
        assert G1.bracket([3.0, 4.0]) == pytest.approx(6.0, abs=1e-12)
        G2 = DilationGroup(np.diag([1.0, 2.0]))
        assert G2.bracket([0.0, 9.0]) == pytest.approx(4.0, abs=1e-12)


class TestTriangleConstant:
    def test_euclidean(self):
        G = DilationGroup(np.eye(2))
        est = triangle_constant_estimate(G, 2000, seed=1)
        assert est <= 1.0 + 1e-10

    def test_monotone_in_samples(self):
        G = DilationGroup(np.diag([0.5, 1.0]))
        estimates = [triangle_constant_estimate(G, n, seed=9) for n in (100, 1000, 4000)]
        assert estimates[0] <= estimates[1] <= estimates[2]

    def test_deterministic(self):
        G = DilationGroup(np.diag([0.5, 1.0]))
        a = triangle_constant_estimate(G, 500, seed=4)
        b = triangle_constant_estimate(G, 500, seed=4)
        assert a == b

    def test_exceeds_one_for_small_eigenvalue(self):
        # lam < 1 makes |2x|_A = 2^(1/lam) |x|_A along that axis, which
        # beats |x|_A + |x|_A, so the sampled estimate must exceed 1.
        G = DilationGroup(np.diag([0.5, 1.0]))
        assert triangle_constant_estimate(G, 4000, seed=2) > 1.0

    def test_triangle_holds_with_unit_ball_calibration(self):
        # With all eigenvalues >= 1 and the Euclidean unit ball as the
        # anisotropic unit ball, |xi+zeta|_A <= |xi|_A + |zeta|_A exactly:
        # |delta_s u| <= s^alpha1 <= s for s <= 1 and unit vectors u.
        G = DilationGroup(np.diag([1.0, 2.0]))
        est = triangle_constant_estimate(G, 4000, seed=2)
        assert est <= 1.0 + 1e-10
        # the pair (0,1), (0,1) shows ratios strictly below 1 here
        num = G.quasi_norm([0.0, 2.0])
        assert num == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert num / 2.0 < 1.0
