import pickle

import numpy as np
import pytest

from anisoweights import spectral
from anisoweights.dilation import DilationGroup
from anisoweights.geometry import AffineMap, AnisoBall, _lattice, ball_volume, compute_r0
from anisoweights.muckenhoupt import (
    _LEVELS,
    BallQuadrature,
    safe_power_values,
    weighted_magnitudes,
)
from anisoweights.spectral import (
    BandLimitedField,
    ExperimentRow,
    FourierGrid,
    MultiplierSpec,
    SizeMismatch,
    SupportViolation,
    _spectral_tail,
    apply_multiplier,
    decay_certificate,
    multiplier_bound_experiment,
    poly_plateau,
    required_decay_order,
    sampling_inequality_experiment,
    smooth_plateau,
    standard_ensemble,
    weighted_lp_norm,
    weighted_lp_norm_with_audit,
)
from anisoweights.weights import MatrixWeightSpec, ScalarWeightSpec


@pytest.fixture(scope="module")
def G1():
    return DilationGroup([[1.0]])


@pytest.fixture(scope="module")
def G2():
    return DilationGroup(np.diag([1.0, 2.0]))


@pytest.fixture(scope="module")
def grid1():
    return FourierGrid(1, 1024, 16 * np.pi)


@pytest.fixture(scope="module")
def grid2():
    return FourierGrid(2, 64, 4 * np.pi)


def bump_profile(eta):
    r = np.linalg.norm(np.atleast_2d(eta), axis=1)
    return smooth_plateau(r, 0.5, 0.95)


def gauss_profile(eta):
    # spatial tails below 1e-8 past x ~ 30, edge amplitude ~1e-7
    r = np.linalg.norm(np.atleast_2d(eta), axis=1)
    return np.exp(-(r / 0.25) ** 2)


class TestTransforms:
    def test_roundtrip(self, grid1):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(grid1.n) + 1j * rng.standard_normal(grid1.n)
        back = grid1.inverse(grid1.forward(f))
        assert np.max(np.abs(back - f)) < 1e-12

    def test_roundtrip_2d(self, grid2):
        rng = np.random.default_rng(2)
        f = rng.standard_normal(grid2.shape) + 1j * rng.standard_normal(grid2.shape)
        back = grid2.inverse(grid2.forward(f))
        assert np.max(np.abs(back - f)) < 1e-12

    def test_plancherel(self, grid1):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(grid1.n).astype(complex)
        fh = grid1.forward(f)
        rhs = np.sqrt(np.sum(np.abs(fh) ** 2) * (np.pi / grid1.L))
        assert abs(grid1.l2_norm(f) - rhs) < 1e-10

    def test_gaussian_self_transform(self, grid1):
        f = np.exp(-grid1.x_axis ** 2 / 2).astype(complex)
        fh = grid1.forward(f)
        assert np.max(np.abs(fh - np.exp(-grid1.xi_axis ** 2 / 2))) < 1e-8

    def test_gaussian_self_transform_2d(self, grid2):
        X, Y = np.meshgrid(grid2.x_axis, grid2.x_axis, indexing="ij")
        f = np.exp(-(X ** 2 + Y ** 2) / 2).astype(complex)
        fh = grid2.forward(f)
        XI, ET = np.meshgrid(grid2.xi_axis, grid2.xi_axis, indexing="ij")
        assert np.max(np.abs(fh - np.exp(-(XI ** 2 + ET ** 2) / 2))) < 1e-8

    @pytest.mark.parametrize("L", [0.0, -np.pi, np.nan, np.inf])
    def test_rejects_bad_length(self, L):
        with pytest.raises(ValueError, match="finite and > 0"):
            FourierGrid(1, 64, L)

    def test_impulse_flat_spectrum(self):
        grid = FourierGrid(1, 64, 4 * np.pi)
        f = np.zeros(grid.n, dtype=complex)
        f[grid.n // 2] = 1.0  # node at x = 0
        fh = grid.forward(f)
        expected = grid.h / np.sqrt(2 * np.pi)
        assert np.max(np.abs(np.abs(fh) - expected)) < 1e-14

    def test_against_direct_dft_oracle(self):
        grid = FourierGrid(1, 64, 4 * np.pi)
        rng = np.random.default_rng(9)
        f = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        oracle = np.array([
            np.sum(f * np.exp(-1j * grid.x_axis * xi)) for xi in grid.xi_axis
        ]) * grid.h / np.sqrt(2 * np.pi)
        assert np.max(np.abs(grid.forward(f) - oracle)) < 1e-10

    def test_linearity(self, grid1):
        rng = np.random.default_rng(4)
        f = rng.standard_normal(grid1.n).astype(complex)
        g = rng.standard_normal(grid1.n).astype(complex)
        lhs = grid1.forward(f + g)
        rhs = grid1.forward(f) + grid1.forward(g)
        assert np.array_equal(lhs, rhs) or np.max(np.abs(lhs - rhs)) < 1e-14

    def test_size_mismatch(self, grid1):
        with pytest.raises(SizeMismatch):
            grid1.forward(np.zeros(grid1.n + 1))


class TestBandLimitedField:
    def test_exact_support_and_tail(self, grid1, G1):
        ball = AnisoBall([0.0], 2.0)
        [f] = [x for x in standard_ensemble(grid1, G1, ball) if x.field_id == "gauss"]
        assert f.tail <= 1e-12
        assert f.is_band_limited()

    def test_tail_computed_on_read(self, grid1, G1, monkeypatch):
        calls = []
        solve = DilationGroup.quasi_norm
        monkeypatch.setattr(DilationGroup, "quasi_norm",
                            lambda self, xi: calls.append(1) or solve(self, xi))
        ball = AnisoBall([0.5], 1.5)
        spec = np.exp(-grid1.xi_axis ** 2)
        fields = [BandLimitedField.from_spectrum(grid1, G1, spec, ball),
                  BandLimitedField.from_values(grid1, G1, grid1.inverse(spec), ball)]
        assert calls == []
        for f in fields:
            tail = f.tail
            assert tail == _spectral_tail(grid1, G1, f.spectrum, ball)
            assert 0.0 < tail < 1.0

    @pytest.mark.parametrize("case", [
        "1d", "1d-boundary-on-lattice", "2d", "2d-boundary-on-lattice", "2d-offcenter"])
    def test_tail_matches_solve(self, grid1, grid2, G1, G2, case):
        # the sign-rule membership against a solve of |xi - c|_A on the whole
        # lattice; on the boundary cases 1.05 R is a lattice |xi|_A (1 in
        # 1-D and at (+-1, 0), (0, +-1) for diag(1, 2)), so _below meets ties
        grid, G = (grid1, G1) if case.startswith("1d") else (grid2, G2)
        radius = 1.0 / 1.05 if "boundary" in case else 1.3
        center = np.full(G.d, 0.7 if "offcenter" in case else 0.0)
        ball = AnisoBall(center, radius)
        xi = grid.frequency_points()
        spec = np.exp(-np.sum((xi - 0.3) ** 2, axis=1)).reshape(grid.shape)
        dist = G.quasi_norm(xi - ball.center)
        if "boundary" in case:
            assert np.any(dist == 1.05 * ball.radius)
        mass = np.abs(spec.ravel()) ** 2
        want = float(mass[dist >= 1.05 * ball.radius].sum() / mass.sum())
        assert _spectral_tail(grid, G, spec[None], ball) == want

    def test_spectral_point_evaluation(self, grid1, G1):
        ball = AnisoBall([0.0], 1.0)
        f = standard_ensemble(grid1, G1, ball)[0]
        node_vals = f.at(grid1.spatial_points())
        assert np.max(np.abs(node_vals - f.values.reshape(f.N, -1))) < 1e-10


class TestMultiplier:
    def test_identity_symbol(self, grid1, G1):
        ball = AnisoBall([0.0], 1.0)
        phi = MultiplierSpec.from_profile(grid1, G1, lambda eta: np.ones(len(eta)), ball)
        f = standard_ensemble(grid1, G1, ball)[0]
        out = apply_multiplier(phi, f)
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_circular_convolution_oracle(self, G1):
        grid = FourierGrid(1, 128, 4 * np.pi)
        ball = AnisoBall([0.0], 2.0)
        phi = MultiplierSpec.from_profile(grid, G1, bump_profile, ball)
        f = standard_ensemble(grid, G1, AnisoBall([0.0], 1.5))[0]
        out = apply_multiplier(phi, f)
        gamma = grid.inverse(phi.symbol)
        n = grid.n
        idx = (np.arange(n)[:, None] - np.arange(n)[None, :] + n // 2) % n
        conv = grid.h / np.sqrt(2 * np.pi) * gamma[idx] @ f.values[0]
        assert np.max(np.abs(out.values[0] - conv)) < 1e-8

    def test_multiplier_composition(self, grid1, G1):
        ball = AnisoBall([0.0], 2.0)
        phi = MultiplierSpec.from_profile(grid1, G1, bump_profile, ball)
        psi = MultiplierSpec.from_profile(
            grid1, G1, lambda eta: 1.0 + 0.3 * np.linalg.norm(eta, axis=1), ball
        )
        f = standard_ensemble(grid1, G1, AnisoBall([0.0], 1.0))[0]
        one = apply_multiplier(phi, apply_multiplier(psi, f))
        prod = MultiplierSpec(grid1, G1, phi.symbol * psi.symbol, ball)
        two = apply_multiplier(prod, f)
        assert np.max(np.abs(one.values - two.values)) < 1e-12

    def test_covariance_of_inverse_transform(self, G1):
        # psi = phi(delta_R . + c) has F^-1 psi(x) = R^-nu e^(-ix delta_R^-1 c)
        # F^-1 phi(delta_R^-1 x); comparable on shared (even) nodes for R = 2
        grid = FourierGrid(1, 2048, 16 * np.pi)
        R, c = 2.0, np.array([3.0])
        phi = MultiplierSpec.from_profile(grid, G1, gauss_profile, AnisoBall(c, R))
        psi = MultiplierSpec.from_profile(grid, G1, gauss_profile, AnisoBall([0.0], 1.0))
        inv_phi = grid.inverse(phi.symbol)
        inv_psi = grid.inverse(psi.symbol)
        n = grid.n
        j = np.arange(0, n, 2)          # even nodes: x_j / 2 is again a node
        half_idx = (j - n // 2) // 2 + n // 2
        x = grid.x_axis[j]
        rhs = R ** (-G1.nu) * np.exp(-1j * x * (c[0] / R)) * inv_phi[half_idx]
        assert np.max(np.abs(inv_psi[j] - rhs)) < 1e-8

    @pytest.mark.parametrize("profile", [
        lambda eta: np.ones(len(eta) + 1),
        lambda eta: np.ones(len(eta) - 1),
        lambda eta: np.ones((len(eta), 2)),
    ], ids=["one more", "one fewer", "two per point"])
    def test_profile_of_wrong_length_raises(self, grid1, G1, profile):
        with pytest.raises(SizeMismatch, match="profile returned"):
            MultiplierSpec.from_profile(grid1, G1, profile, AnisoBall([0.0], 1.0))

    def test_ball_without_lattice_points_gives_zero_symbol(self, grid1, G1):
        # |xi - 0.03| < 0.01 holds no point of the 1/16-spaced lattice
        def profile(eta):
            raise AssertionError("profile called on an empty ball")

        phi = MultiplierSpec.from_profile(grid1, G1, profile, AnisoBall([0.03], 0.01))
        assert phi.symbol.shape == grid1.shape
        assert phi.symbol.dtype == complex
        assert not phi.symbol.any()

    def test_support_violation(self, grid1, G1):
        big_ball = AnisoBall([0.0], 2 * grid1.xi_max)
        spec = np.zeros(grid1.shape, dtype=complex)
        spec[grid1.n // 2] = 1.0
        f = BandLimitedField.from_spectrum(grid1, G1, spec, big_ball)
        phi = MultiplierSpec.from_profile(grid1, G1, bump_profile,
                                          AnisoBall([0.0], 1.0))
        with pytest.raises(SupportViolation):
            apply_multiplier(phi, f)


class TestDecayCertificate:
    def test_finite_and_monotone(self, grid1, G1):
        ball = AnisoBall([0.0], 1.0)
        phi = MultiplierSpec.from_profile(grid1, G1, bump_profile, ball)
        nu = G1.nu
        k1 = decay_certificate(phi, nu + 1)
        k3 = decay_certificate(phi, nu + 3)
        assert np.isfinite(k1) and np.isfinite(k3)
        assert k3 >= k1
        assert phi.certificates[nu + 1] == k1

    def test_scaled_symbol_same_certificate(self, G1):
        grid = FourierGrid(1, 1024, 8 * np.pi)
        M = 3.0
        k_unit = decay_certificate(
            MultiplierSpec.from_profile(grid, G1, bump_profile, AnisoBall([0.0], 1.0)), M
        )
        k_scaled = decay_certificate(
            MultiplierSpec.from_profile(grid, G1, bump_profile, AnisoBall([2.0], 2.0)), M
        )
        assert abs(k_scaled - k_unit) <= 0.05 * k_unit


class TestWeightedNorm:
    def test_plancherel(self, grid1, G1):
        f = standard_ensemble(grid1, G1, AnisoBall([0.0], 1.0))[0]
        lhs = weighted_lp_norm(f, None, 2.0)
        rhs = np.sqrt(np.sum(np.abs(f.spectrum) ** 2) * (np.pi / grid1.L))
        assert abs(lhs - rhs) < 1e-8

    def test_identity_weight_matches_unweighted(self, grid1, G1):
        f = standard_ensemble(grid1, G1, AnisoBall([0.0], 1.0))[0]
        W = MatrixWeightSpec.identity(1)
        assert weighted_lp_norm(f, W, 2.0) == pytest.approx(
            weighted_lp_norm(f, None, 2.0), rel=1e-12
        )

    def test_refinement_oracle(self, G1):
        ball = AnisoBall([0.0], 1.0)
        W = MatrixWeightSpec.diagonal([ScalarWeightSpec.radial_power(0.5)])
        vals = []
        for n in (4096, 8192):
            grid = FourierGrid(1, n, 16 * np.pi)
            f = standard_ensemble(grid, G1, ball)[0]
            vals.append(weighted_lp_norm(f, W, 2.0))
        assert abs(vals[1] - vals[0]) / vals[1] < 1e-4

    @pytest.mark.parametrize("d, n, L", [(1, 256, 4 * np.pi), (1, 1024, 16 * np.pi),
                                         (2, 64, 4 * np.pi), (2, 128, 8 * np.pi)])
    def test_grid_root_nudge_scale(self, d, n, L):
        # the grid root nudges by 1 + L, the largest |coordinate| on the grid
        assert np.abs(FourierGrid(d, n, L).spatial_points()).max() == L

    @pytest.mark.parametrize("p", [1.5, 2.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_grid_root_is_the_node_last_complex_cast(self, d, p):
        # bitwise safe_power_values cast to complex, each (m,) plane
        # root[:, i, j] contiguous; scalar weights and None pass through
        grid = FourierGrid(d, 32, 4 * np.pi)
        S = ScalarWeightSpec
        if d == 1:
            W = MatrixWeightSpec.diagonal([S.radial_power(0.5), S.constant(1.0)])
        else:
            W = MatrixWeightSpec.diag_dominant(
                [S.poly_abs_power({(1, 0): 1.0}, 0.5), S.radial_power(0.5), S.constant(2.0)],
                {(0, 1): {(0, 1): 1.0}, (1, 2): {(1, 0): 1.0, (0, 0): 0.5}}, 0.5)
        root = spectral._grid_root(grid, W, p)
        want = safe_power_values(W, grid.spatial_points(), 1.0 / p, 1.0 + grid.L)
        assert root.dtype == complex and root.shape == want.shape
        assert np.array_equal(root, want.astype(complex))
        assert root.transpose(1, 2, 0).flags.c_contiguous
        scalar = S.radial_power(0.5)
        assert np.array_equal(spectral._grid_root(grid, scalar, p), safe_power_values(
            scalar, grid.spatial_points(), 1.0 / p, 1.0 + grid.L))
        assert spectral._grid_root(grid, None, p) is None

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_riemann_norm_per_row_of_a_stack(self, p):
        # each row's norm as a lone row's: its own sum and a scalar p-th root
        # (** on the whole array of sums can round some of these rows differently)
        mags = np.random.default_rng(17).random((40, 50, 65))
        got = spectral._riemann_norm(mags, p, 0.1)
        want = [[float((0.1 * np.sum(row ** p)) ** (1.0 / p)) for row in rows] for rows in mags]
        assert got.shape == (40, 50) and got.tolist() == want
        assert float(spectral._riemann_norm(mags[2, 1], p, 0.1)) == want[2][1]

    def test_audit_error_estimate(self, grid1, G1):
        f = standard_ensemble(grid1, G1, AnisoBall([0.0], 1.0))[0]
        W = MatrixWeightSpec.diagonal([ScalarWeightSpec.radial_power(0.5)])
        value, err = weighted_lp_norm_with_audit(f, W, 2.0)
        assert err < 1e-3 * value

    def test_change_of_variables(self, G1):
        # ||f(delta_R^-1 .)||^p = R^nu ||f||^p with the weight composed with
        # delta_R.  Matched grids: g lives on the 2L-period grid and f on
        # the L-period grid, so the frequency lattices align index by index
        # and the two Riemann sums match term by term.
        R, p, n = 2.0, 2.0, 1024
        grid_f = FourierGrid(1, n, 8 * np.pi)
        grid_g = FourierGrid(1, n, 16 * np.pi)
        ball = AnisoBall([0.0], 0.9)
        f = standard_ensemble(grid_f, G1, ball)[0]
        # g(x) = f(x / R): ghat(xi) = R^nu fhat(R xi), and R xi_k(grid_g)
        # equals xi_k(grid_f) at the same index
        g = BandLimitedField.from_spectrum(
            grid_g, G1, R ** G1.nu * f.spectrum,
            AnisoBall([0.0], ball.radius / R)
        )
        W = MatrixWeightSpec.diagonal(
            [ScalarWeightSpec.poly_abs_power({(1,): 1.0}, 0.5)]
        )
        WD = W.compose(AffineMap(G1, R, np.zeros(1)))
        lhs = weighted_lp_norm(g, W, p) ** p
        rhs = R ** G1.nu * weighted_lp_norm(f, WD, p) ** p
        assert lhs == pytest.approx(rhs, rel=1e-6)


def per_ball_multiplier_rows(W, p, profile, R_set, c_set, grid, group):
    """multiplier_bound_experiment with the symbol and the ensemble built
    by from_profile and standard_ensemble, each solving |eta|_A itself."""
    root = spectral._grid_root(grid, W, p)
    rows = []
    for R in R_set:
        for c in c_set:
            ball = AnisoBall(np.asarray(c, dtype=float), float(R))
            phi = MultiplierSpec.from_profile(grid, group, profile, ball)
            for f in standard_ensemble(grid, group, ball):
                num, err_n = spectral._audited_norm(apply_multiplier(phi, f), root, p)
                den, err_d = spectral._audited_norm(f, root, p)
                ratio = num / den
                err = ratio * ((err_n / max(num, 1e-300)) + (err_d / max(den, 1e-300)))
                rows.append(ExperimentRow(float(R), tuple(np.ravel(c)), f.field_id,
                                          float(ratio), float(err)))
    return rows


def full_lattice_ensemble(grid, G, ball, seed=0):
    """The closed-form E_B spectra with |.|_A solved on every lattice point."""
    eta = G.dilate(1.0 / ball.radius, grid.frequency_points() - ball.center)
    s = G.quasi_norm(eta)
    r = np.linalg.norm(eta, axis=1)
    e1 = np.eye(G.d)[0]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 77)))
    a, b = rng.standard_normal(4), rng.standard_normal(4)
    wave = sum(a[j] * np.cos((j + 1) * np.pi * np.clip(s, 0, 1))
               + b[j] * np.sin((j + 1) * np.pi * r) for j in range(4))
    specs = {
        "gauss": np.exp(-(r / 0.25) ** 2) * (s < 1.0),
        "offcenter": smooth_plateau(G.quasi_norm(eta - 0.45 * e1), 0.12, 0.38),
        "two_bumps": (smooth_plateau(G.quasi_norm(eta - 0.4 * e1), 0.08, 0.3)
                      + 0.7 * smooth_plateau(G.quasi_norm(eta + 0.5 * e1), 0.08, 0.25)),
        "random_smooth": smooth_plateau(s, 0.72, 0.94) * (1.0 + wave),
    }
    return {name: spec.reshape(grid.shape) for name, spec in specs.items()}


RESTRICTED_GROUPS = {
    "1d": [[1.0]],
    "diag(1,2)": np.diag([1.0, 2.0]),
    # the offcenter support, |eta - 0.45 e1|_A < 0.38, leaves the unit ball
    "diag(0.5,1)": np.diag([0.5, 1.0]),
    "rotated": [[2.0, 0.3], [0.3, 1.0]],
}
RESTRICTED_BALLS = [(0.0, 1.0), (0.3, 2.0), (-1.0, 0.5), (0.0, 3.7)]


def restricted_case(group, center, radius):
    G = DilationGroup(RESTRICTED_GROUPS[group])
    grid = FourierGrid(1, 1024, 16 * np.pi) if G.d == 1 else FourierGrid(2, 64, 4 * np.pi)
    return grid, G, AnisoBall(np.full(G.d, center), radius)


def assert_matches_full_solve(got, want, support):
    """Within 1e-11 of the peak inside the support, bitwise 0 outside it."""
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
    assert np.array_equal(got[~support], want[~support])
    assert not got[~support].any()


class TestRestrictedSolves:
    """Symbols and E_B spectra solve |.|_A only where they can be non-zero;
    the oracle solves every lattice point.  Bisection results depend on the
    batch (~1e-12), so values inside a support are compared to 1e-11."""

    @pytest.mark.parametrize("center, radius", RESTRICTED_BALLS)
    @pytest.mark.parametrize("group", list(RESTRICTED_GROUPS))
    def test_ensemble_matches_full_lattice_solve(self, group, center, radius):
        grid, G, ball = restricted_case(group, center, radius)
        want = full_lattice_ensemble(grid, G, ball)
        # N = 2: the members are (1, 0.4 i) times the scalar spectrum
        scale = np.array([1.0, 0.4 * np.exp(0.5j * np.pi)])[:, None]
        for f in standard_ensemble(grid, G, ball, N=2):
            flat = want[f.field_id].ravel()
            oracle = BandLimitedField.from_spectrum(
                grid, G, (scale * flat).reshape(f.spectrum.shape), ball, normalize=True)
            for got, ref in zip(f.spectrum, oracle.spectrum):
                assert_matches_full_solve(got.ravel(), ref.ravel(), flat != 0)

    @pytest.mark.parametrize("center, radius", RESTRICTED_BALLS)
    @pytest.mark.parametrize("group", list(RESTRICTED_GROUPS))
    def test_symbol_matches_full_lattice_solve(self, group, center, radius):
        grid, G, ball = restricted_case(group, center, radius)
        seen = []

        def profile(eta):
            seen.append(eta)
            return poly_plateau(G.quasi_norm(eta), 0.5, 0.9) * (1.0 + 0.25j * eta[:, 0])

        phi = MultiplierSpec.from_profile(grid, G, profile, ball)
        eta = G.dilate(1.0 / ball.radius, grid.frequency_points() - ball.center)
        s = G.quasi_norm(eta)
        want = np.where(s < 1.0, poly_plateau(s, 0.5, 0.9) * (1.0 + 0.25j * eta[:, 0]), 0.0)
        assert_matches_full_solve(phi.symbol.ravel(), want, s < 1.0)
        # one call, on the support alone: |eta|_2 < 1, but for the rounding of
        # the rotated eigenbasis, which puts (+-1, 0) and (0, +-1) of ball
        # (0, 1) at |eta|_A = 1 - 2^-53 in any batch
        [pts] = seen
        assert np.array_equal(pts, eta[s < 1.0])
        assert np.all(np.linalg.norm(pts, axis=1) < 1.0 + 1e-15)

    @pytest.mark.parametrize("center, radius", RESTRICTED_BALLS)
    @pytest.mark.parametrize("group", list(RESTRICTED_GROUPS))
    def test_support_only_unit_coordinates(self, group, center, radius):
        grid, G, ball = restricted_case(group, center, radius)
        eta, s = spectral._unit_coordinates(grid, G, ball)
        eta_box, s_box = spectral._unit_coordinates(grid, G, ball, support_only=True)
        assert np.array_equal(eta_box, eta)
        inside = s < 1.0
        # no lattice point of these cases lies within the batch dependence
        # (~1e-12) of |eta|_A = 1, so the support is the same here; a point
        # that close could enter or leave it
        assert np.array_equal(s_box < 1.0, inside)
        assert np.all(np.abs(s_box[inside] - s[inside]) <= 1e-11 * s[inside])
        # what is not solved reads inf, and the whole-lattice solve has it at 1 or more
        assert np.all((s_box == np.inf) <= (s >= 1.0))

    @pytest.mark.parametrize("group", ["diag(1,2)", "diag(0.5,1)", "rotated"])
    def test_experiment_matches_per_ball_rows(self, group):
        # the experiment solves the unit boxes only, the per-ball oracle the
        # whole lattice: the rows agree to the solver's batch dependence
        grid, G, _ = restricted_case(group, 0.0, 1.0)
        args = (None, 2.0, bump_profile, [1.0, 1.5, 2.0], [np.zeros(2), np.full(2, 0.3)],
                grid, G)
        rows = multiplier_bound_experiment(*args)
        want = per_ball_multiplier_rows(*args)
        assert [(r.R, r.c, r.field_id) for r in rows] == [(r.R, r.c, r.field_id) for r in want]
        for row, ref in zip(rows, want):
            assert row.ratio == pytest.approx(ref.ratio, rel=1e-11)
            assert row.error == pytest.approx(ref.error, rel=1e-9, abs=1e-15)


class TestMultiplierExperiment:
    def test_identity_profile_ratio_one(self, grid1, G1):
        rows = multiplier_bound_experiment(
            None, 2.0, lambda eta: np.ones(len(eta)), [1.0, 2.0], [np.zeros(1)],
            grid1, G1
        )
        for row in rows:
            assert row.ratio == pytest.approx(1.0, abs=1e-10)

    def test_unweighted_bounded_by_sup(self, grid1, G1):
        rows = multiplier_bound_experiment(
            None, 2.0, bump_profile, [0.5, 1.0, 2.0], [np.zeros(1)], grid1, G1
        )
        for row in rows:
            assert row.ratio <= 1.0 + 1e-8  # sup |phi| = 1

    def test_one_quasi_norm_solve_per_ball(self, grid1, G1, monkeypatch):
        # the symbol's support and the ensemble's plateau variable share one
        # |eta|_A per ball, the unit ball's with the certified symbol; the
        # other solves are the decay certificate's and three per ensemble
        W = ScalarWeightSpec.radial_power(0.5)
        args = (W, 2.0, bump_profile, [1.0, 2.0], [np.zeros(1)], grid1, G1)
        want = per_ball_multiplier_rows(*args)
        calls = []
        quasi_norm = DilationGroup.quasi_norm
        monkeypatch.setattr(DilationGroup, "quasi_norm",
                            lambda self, x: calls.append(len(x)) or quasi_norm(self, x))
        rows = multiplier_bound_experiment(*args)
        assert len(calls) == 1 + 1 + 3 + (1 + 3)
        assert pickle.dumps(rows) == pickle.dumps(want)
        # points per call on the 1/16-spaced lattice: only the decay
        # certificate solves a whole lattice, the 1,024 spatial points.  The
        # rest solve the lattice points eta = xi / R in the box of a support,
        # which holds its boundary: |eta| <= 1 (33 at R = 1, 65 at R = 2),
        # then the ensemble's bumps |eta - 0.45| <= 0.38, |eta - 0.4| <= 0.3
        # and |eta + 0.5| <= 0.25 (12, 10, 9 at R = 1; 24, 19, 17 at R = 2)
        assert calls == [33, grid1.n, 12, 10, 9, 65, 24, 19, 17]

    def test_member_without_support_points_raises(self, G2, grid2):
        # at R = 0.5 the off-center and two-bump members of E_B around
        # c = (0.3, 0.3) hold no lattice point, so their norms are 0
        with pytest.raises(ValueError, match=r"offcenter .* R = 0\.5, c = \(0\.3, 0\.3\)"):
            multiplier_bound_experiment(MatrixWeightSpec.identity(2), 2.0, bump_profile, [0.5],
                                        [np.full(2, 0.3)], grid2, G2, N=2)

    def test_required_decay_order(self, G1, G2):
        assert required_decay_order(G1, 2.0) == pytest.approx(1 + 1 * 2)
        # nu = 3, p = 1/2: max(nu, (nu + beta)/p) with beta = nu
        assert required_decay_order(G2, 0.5) == pytest.approx((3 + 3) / 0.5)


def kernel(x, a=1.0, b=3.0):
    """gamma(x) = (2pi)^(-1/2) integral of poly_plateau(|z|, a, b) e^(ixz) dz: the
    plateau in closed form, the two ramps by a 128-node Gauss-Legendre rule
    (measured 8e-12 from the ramp's closed form on |x| <= 120)."""
    t, w = np.polynomial.legendre.leggauss(128)
    z = a + (b - a) * (t + 1) / 2
    ramp = (b - a) * np.cos(np.multiply.outer(x, z)) @ (w * poly_plateau(z, a, b))
    return (2 * a * np.sinc(a * x / np.pi) + ramp) / np.sqrt(2 * np.pi)


def sampling_error(f, u, truncation):
    """Max grid error of f(x) = (2pi)^(-1/2) sum_l f(l + u) gamma(x - u - l), |l| <= truncation."""
    nodes = np.arange(-truncation, truncation + 1) + u
    recon = f.at(nodes[:, None]) @ np.stack([kernel(f.grid.x_axis - s) for s in nodes])
    return np.max(np.abs(recon / np.sqrt(2 * np.pi) - f.values.reshape(f.N, -1)))


class TestSamplingRepresentation:
    def test_atom_reconstruction(self, G1):
        # measured: 4.63e-8
        grid = FourierGrid(1, 1024, 16 * np.pi)
        f = standard_ensemble(grid, G1, AnisoBall([0.0], 1.0))[0]
        assert sampling_error(f, 0.0, truncation=32) <= 1e-6

    def test_shift_uniformity(self, G1):
        # measured: 4.48e-5, 5.65e-5 and 7.70e-5
        grid = FourierGrid(1, 512, 16 * np.pi)
        f = standard_ensemble(grid, G1, AnisoBall([0.0], 1.0))[0]
        errs = [sampling_error(f, u, truncation=24) for u in (0.0, 0.3, 0.7)]
        assert max(errs) <= 2.0 * max(min(errs), 1e-12)

    def test_kernel_bandwidth_fixed_point(self, grid1, G1):
        # a field with spectrum inside the plateau box is reproduced exactly
        # by the kernel as a multiplier
        ball = AnisoBall([0.0], 0.9)
        f = standard_ensemble(grid1, G1, ball)[0]
        sym = poly_plateau(np.abs(grid1.xi_axis), 1.0, 3.0).astype(complex)
        conv = grid1.inverse(sym[None] * f.spectrum)
        assert np.max(np.abs(conv - f.values)) < 1e-10

    def test_kernel_spectrum_is_smootherstep_ramp(self):
        z = np.linspace(-3.0, 3.0, 601)
        spec = poly_plateau(np.abs(z), 1.0, 2.5)
        plateau, off = np.abs(z) <= 1.0, np.abs(z) >= 2.5
        assert np.all(spec[plateau] == 1.0) and np.all(spec[off] == 0.0)
        t = (2.5 - np.abs(z)) / 1.5
        # 35 t^4 - 84 t^5 + 70 t^6 - 20 t^7, highest power first
        ramp = np.polyval([-20.0, 70.0, -84.0, 35.0, 0.0, 0.0, 0.0, 0.0], t)
        assert np.max(np.abs(spec - ramp)[~plateau & ~off]) <= 1e-15

    def test_kernel_invalid(self, grid1, G1):
        # the kernel spectrum must be 1 on the lattice points of B_A(0, 1):
        # a plateau of half-width 0.8 misses (measured 4.6e-4 off)
        xi = grid1.frequency_points()
        inside = G1.quasi_norm(xi) < 1.0
        off = [np.max(np.abs(poly_plateau(np.abs(xi[inside, 0]), a, 3.0) - 1.0))
               for a in (1.0, 0.8)]
        assert off[0] == 0.0 and off[1] > 1e-12

    def test_requires_unit_ball_support(self, grid1, G1):
        # a field spread over B_A(0, 2) misses the bound that holds for
        # supp in B_A(0, 1) (measured 1.2e-5 against 4.6e-8)
        f = standard_ensemble(grid1, G1, AnisoBall([0.0], 2.0))[0]
        assert sampling_error(f, 0.0, truncation=32) > 1e-6


def loop_sampling(W, p, ball, fields, quad, G):
    """Rows of `sampling_inequality_experiment`, field by field and cell by
    cell: a weight root per kept cell and field, nudged by the cell's scale."""
    R = ball.radius
    rows = []
    for g in fields:
        grid = g.grid
        reach = np.abs(G.dilation_matrix(R)) @ np.full(G.d, grid.L)
        ls = _lattice([np.arange(-np.floor(h), np.floor(h) + 1) for h in reach])
        centers = G.dilate(1.0 / R, ls)
        centers = centers[np.max(np.abs(centers), axis=1) < grid.L]
        samples = g.at(centers)
        mags = np.linalg.norm(samples, axis=0)
        big = mags > 1e-9 * mags.max()
        centers, samples = centers[big], samples[:, big]
        cell_radius = compute_r0(G) / R
        vol = ball_volume(G, cell_radius)
        scale = G.euclidean_radius_bound(cell_radius)
        lhs = 0.0
        for idx in range(len(centers)):
            cell = AnisoBall(centers[idx], cell_radius)
            nodes = quad.ball_nodes(G, cell, _LEVELS - 1, shifted=False)
            root = safe_power_values(W, nodes, 1.0 / p, scale)
            lhs += vol * float(np.mean(weighted_magnitudes(root, samples[:, idx]) ** p))
        den, err = weighted_lp_norm_with_audit(g, W, p)
        ratio = lhs / den ** p if den > 0 else 0.0
        rows.append(ExperimentRow(float(R), tuple(ball.center), g.field_id,
                                  float(ratio), float(p * ratio * err / max(den, 1e-300))))
    return rows


def count_weight_roots(monkeypatch):
    calls = []
    inner = spectral.safe_power_values

    def counted(spec, pts, a, scale):
        calls.append(len(pts))
        return inner(spec, pts, a, scale)

    monkeypatch.setattr(spectral, "safe_power_values", counted)
    return calls


class TestSamplingInequality:
    def test_zero_field(self, grid1, G1):
        quad = BallQuadrature("mapped_grid", 128)
        ball = AnisoBall([0.0], 1.0)
        zero = BandLimitedField.from_spectrum(
            grid1, G1, np.zeros((1,) + grid1.shape, dtype=complex), ball, "zero"
        )
        rows = sampling_inequality_experiment(None, 2.0, ball, [zero], quad, G1)
        assert (rows[0].ratio, rows[0].error) == (0.0, 0.0)
        assert sampling_inequality_experiment(None, 2.0, ball, [], quad, G1) == []

    # every field keeps every cell or none: in 2-D at R = 1/2 the offcenter
    # and two_bumps members miss the 16 x 16 frequency lattice and are 0.
    # "singular" moves the weight's singular line x1 = 0 to x1 = s, the
    # largest x1 of a node of the cell at 0, so that its nodes there are
    # nudged
    @pytest.mark.parametrize("case", ["1d-0.5", "1d-1", "2d-0.5", "2d-1", "2d-1-singular"])
    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_matches_per_cell_loop(self, grid1, G1, G2, monkeypatch, case, p):
        dim, R, *singular = case.split("-")
        quad = BallQuadrature("mapped_grid", 64)
        if dim == "1d":
            W, grid, G, N = ScalarWeightSpec.radial_power(0.5), grid1, G1, 1
        else:
            grid, G, N = FourierGrid(2, 16, 2 * np.pi if R == "1" else 4 * np.pi), G2, 2
            line = {(1, 0): 1.0}
            if singular:
                cell = AnisoBall(np.zeros(2), compute_r0(G) / float(R))
                s = quad.ball_nodes(G, cell, _LEVELS - 1)[:, 0].max()
                line[0, 0] = -s
            W = MatrixWeightSpec.diagonal([ScalarWeightSpec.poly_abs_power(line, 0.5),
                                           ScalarWeightSpec.radial_power(-0.3)])
        ball = AnisoBall(np.zeros(G.d), float(R))
        fields = standard_ensemble(grid, G, ball, N=N)
        evaluated = []
        inner = spectral.safe_power_values
        monkeypatch.setattr(spectral, "safe_power_values",
                            lambda spec, pts, a, scale: evaluated.append(pts) or inner(
                                spec, pts, a, scale))
        rows = sampling_inequality_experiment(W, p, ball, fields, quad, G)
        if singular:
            assert any((pts[:, 0] == s).any() for pts in evaluated)
        assert rows == loop_sampling(W, p, ball, fields, quad, G)
        assert all(np.isfinite(r.ratio) for r in rows)

    def test_row_does_not_depend_on_the_other_fields(self, grid1, G1):
        # the cells that one field drops leave the other fields' rows
        # unchanged: at R = 2 the gauss member drops 8 of the 201 cells and
        # the others none
        quad = BallQuadrature("mapped_grid", 64)
        ball = AnisoBall([0.0], 2.0)
        w = ScalarWeightSpec.radial_power(0.5)
        fields = standard_ensemble(grid1, G1, ball)
        rows = sampling_inequality_experiment(w, 2.0, ball, fields, quad, G1)
        for f, row in zip(fields, rows):
            assert sampling_inequality_experiment(w, 2.0, ball, [f], quad, G1) == [row]

    def test_one_weight_root_per_block(self, grid1, G1, monkeypatch):
        # 101 cells of 2,048 nodes, two to a block, and one grid root; the
        # per-field loop took 4 x (101 + 1) = 408
        quad = BallQuadrature("mapped_grid", 128)
        ball = AnisoBall([0.0], 1.0)
        fields = standard_ensemble(grid1, G1, ball)
        calls = count_weight_roots(monkeypatch)
        sampling_inequality_experiment(ScalarWeightSpec.radial_power(0.5), 2.0, ball,
                                       fields, quad, G1)
        assert len(calls) == 52 and max(calls) <= 2 * 2048

    def test_fields_on_two_grids_rejected(self, grid1, G1):
        quad = BallQuadrature("mapped_grid", 64)
        ball = AnisoBall([0.0], 1.0)
        fields = [standard_ensemble(grid, G1, ball)[0]
                  for grid in (grid1, FourierGrid(1, 512, 16 * np.pi))]
        with pytest.raises(SizeMismatch, match="different grids"):
            sampling_inequality_experiment(None, 2.0, ball, fields, quad, G1)

    def test_unweighted_finite_and_refines(self, G1):
        quad = BallQuadrature("mapped_grid", 128)
        ball = AnisoBall([0.0], 1.0)
        ratios = []
        for n in (512, 1024):
            grid = FourierGrid(1, n, 16 * np.pi)
            f = standard_ensemble(grid, G1, ball)[0]
            rows = sampling_inequality_experiment(None, 2.0, ball, [f], quad, G1)
            ratios.append(rows[0].ratio)
        assert all(np.isfinite(r) and r > 0 for r in ratios)
        assert abs(ratios[1] - ratios[0]) <= 0.05 * ratios[1]

    def test_scale_stability(self, grid1, G1):
        quad = BallQuadrature("mapped_grid", 128)
        w = ScalarWeightSpec.radial_power(0.5)
        per_R = []
        for R in (0.5, 1.0, 2.0):
            ball = AnisoBall([0.0], R)
            fields = standard_ensemble(grid1, G1, ball)
            rows = sampling_inequality_experiment(w, 2.0, ball, fields, quad, G1)
            per_R.append(max(r.ratio for r in rows))
        assert max(per_R) / min(per_R) <= 1.25
