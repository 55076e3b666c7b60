import numpy as np
import pytest

from anisoweights.besov import (
    BesovParams,
    CoefficientArray,
    DenominatorVanishes,
    _full_window,
    _patch_counts,
    _patch_normalizer,
    analyze,
    bapu_independence_check,
    besov_norm,
    build_bapu,
    build_sqrt_bapu,
    discrete_b_norm,
    frame_atom,
    mollifier_bump,
    synthesize,
)
from anisoweights.dilation import new_dilation_group
from anisoweights.geometry import (
    AnisoBall,
    ball_volume,
    build_structured_covering,
    compute_r0,
)
from anisoweights.muckenhoupt import _local_scale, safe_power_values, weighted_magnitudes
from anisoweights.spectral import (
    BandLimitedField,
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


@pytest.fixture(scope="module")
def G2():
    return new_dilation_group(np.diag([1.0, 2.0]))


@pytest.fixture(scope="module")
def sqrt_bapu_2d(G2):
    """74 patches and 37,753 modulations: the dense loops stay cheap here."""
    cov = build_structured_covering(G2, 1.0, 1.0, seed=0, candidates_per_shell=256)
    return build_sqrt_bapu(FourierGrid(2, 16, np.pi), cov)


@pytest.fixture(scope="module")
def random_field_2d(G2, sqrt_bapu_2d):
    """Random spectrum on the whole lattice, so no coefficient is floored."""
    grid = sqrt_bapu_2d.grid
    rng = np.random.default_rng(3)
    spec = (rng.standard_normal((2,) + grid.shape)
            + 1j * rng.standard_normal((2,) + grid.shape))
    return BandLimitedField.from_spectrum(grid, G2, spec, AnisoBall([0.0, 0.0], 4.0),
                                          field_id="random")


@pytest.fixture(scope="module")
def sqrt_bapu_282(G2):
    """282 patches and 521,824 modulations per field: out of the dense loops' reach."""
    cov = build_structured_covering(G2, 0.5, 1.2, seed=0, candidates_per_shell=256)
    return build_sqrt_bapu(FourierGrid(2, 32, 2 * np.pi), cov)


@pytest.fixture(scope="module", params=["1d", "2d"])
def phi_case(request):
    """(sqrt partition, fields) for the 1-D fixture and the small 2-D covering."""
    if request.param == "1d":
        return request.getfixturevalue("sqrt_bapu"), request.getfixturevalue("ensemble")
    return request.getfixturevalue("sqrt_bapu_2d"), [request.getfixturevalue("random_field_2d")]


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


def dense_analyze(f, sqrt_bapu):
    """analyze by one dense exp(i pos.(xi - c_k)) matrix per patch."""
    grid, group = f.grid, f.group
    flat_spec = f.spectrum.reshape(f.N, -1)
    norm2 = f.l2_norm()
    out = CoefficientArray(group, grid, sqrt_bapu.t, compute_r0(group, 0.01))
    lattice_measure = (np.pi / grid.L) ** grid.d
    for k in range(len(sqrt_bapu)):
        t_k = float(sqrt_bapu.t[k])
        c_k = sqrt_bapu.centers[k]
        counts = _patch_counts(group, t_k, grid.L)
        out.counts[k] = counts
        idx = sqrt_bapu.supports[k]
        weighted = flat_spec[:, idx] * sqrt_bapu.values[k]
        xi = grid.frequency_points()[idx]
        ls = _full_window(counts)
        pos = ls.astype(float) * (2 * grid.L / counts)
        E = np.exp(1j * (pos @ (xi - c_k).T))
        coef = lattice_measure * _patch_normalizer(grid, counts) * (E @ weighted.T)
        keep = np.linalg.norm(coef, axis=1) > 1e-12 * max(norm2, 1e-300)
        if keep.any():
            out.patches[k] = (ls[keep], coef[keep])
    return out


def dense_synthesis_spectrum(coeffs, sqrt_bapu):
    """Flat (N, n^d) spectrum of synthesize by one dense matrix per patch."""
    grid = coeffs.grid
    N = next(iter(coeffs.patches.values()))[1].shape[1]
    spec = np.zeros((N, np.prod(grid.shape)), dtype=complex)
    for k in sorted(coeffs.patches):
        ls, coef = coeffs.patches[k]
        c_k = sqrt_bapu.centers[k]
        counts = coeffs.counts[k]
        idx = sqrt_bapu.supports[k]
        xi = grid.frequency_points()[idx]
        pos = ls.astype(float) * (2 * grid.L / counts)
        E = np.exp(-1j * ((xi - c_k) @ pos.T))
        spec[:, idx] += (_patch_normalizer(grid, counts)
                         * sqrt_bapu.values[k] * (E @ coef).T)
    return spec


def frequency_indices(grid):
    """Integer j with xi = j pi / L, one row per flat lattice index."""
    flat = np.arange(np.prod(grid.shape))
    return np.stack(np.unravel_index(flat, grid.shape), axis=1) - grid.n // 2


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


class TestPhiTransform:
    """analyze and synthesize against the dense per-patch loops and frame_atom."""

    def test_analyze_matches_dense_loop(self, phi_case):
        sqrt_bapu, fields = phi_case
        for f in fields:
            got, want = analyze(f, sqrt_bapu), dense_analyze(f, sqrt_bapu)
            assert got.r0 == want.r0
            assert got.counts.keys() == want.counts.keys()
            for k, counts in want.counts.items():
                assert np.array_equal(got.counts[k], counts)
            # the floor keeps the same coefficients, in the same order
            assert got.patches.keys() == want.patches.keys()
            scale = max(np.abs(c).max() for _, c in want.patches.values())
            for k, (ls, coef) in want.patches.items():
                assert np.array_equal(got.patches[k][0], ls)
                assert np.abs(got.patches[k][1] - coef).max() <= 1e-13 * scale

    def test_coefficients_are_atom_inner_products(self, phi_case):
        sqrt_bapu, fields = phi_case
        grid = sqrt_bapu.grid
        # every coefficient in 1-D; every 17th modulation per patch of the
        # 37,753 in 2-D, where the dense loop above checks them all
        stride = 1 if grid.d == 1 else 17
        values = np.concatenate([f.values.reshape(f.N, -1) for f in fields])
        coeffs = [analyze(f, sqrt_bapu) for f in fields]
        for k in range(len(sqrt_bapu)):
            counts = coeffs[0].counts[k]
            window = _full_window(counts)[::stride]
            atoms = np.stack([frame_atom(k, l, sqrt_bapu).values.reshape(-1)
                              for l in window])
            inner = grid.h ** grid.d * (values @ atoms.conj().T)
            rows = np.cumsum([0] + [f.N for f in fields])
            for i, c in enumerate(coeffs):
                if k not in c.patches:
                    continue
                ls, coef = c.patches[k]
                at = np.ravel_multi_index((ls + counts // 2).T, counts)
                sel = at % stride == 0
                want = inner[rows[i]:rows[i + 1], at[sel] // stride].T
                scale = max(np.abs(cc).max() for _, cc in c.patches.values())
                assert np.abs(coef[sel] - want).max() <= 1e-13 * scale

    def test_synthesize_matches_dense_loop(self, phi_case):
        sqrt_bapu, fields = phi_case
        for f in fields:
            c = analyze(f, sqrt_bapu)
            got = synthesize(c, sqrt_bapu).spectrum.reshape(f.N, -1)
            want = dense_synthesis_spectrum(c, sqrt_bapu)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_one_hot_synthesis_is_the_atom(self, phi_case):
        sqrt_bapu, _ = phi_case
        grid, group = sqrt_bapu.grid, sqrt_bapu.group
        for k in range(len(sqrt_bapu)):
            ls = _full_window(_patch_counts(group, float(sqrt_bapu.t[k]), grid.L))
            for i in (0, len(ls) // 3, len(ls) - 1):
                one_hot = CoefficientArray(group, grid, sqrt_bapu.t, 1.0)
                one_hot.patches[k] = (ls[i:i + 1], np.ones((1, 1)))
                got = synthesize(one_hot, sqrt_bapu).spectrum[0]
                want = frame_atom(k, ls[i], sqrt_bapu).spectrum[0]
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("name", ["sqrt_bapu", "sqrt_bapu_2d", "sqrt_bapu_282"])
    def test_support_fits_one_period(self, request, name):
        # per axis the support's integer frequencies j span at most m_k
        # values, so no two of them share a residue j mod m_k: the patch's
        # modulations are an orthonormal basis on its support.  Measured
        # spans are at most 0.26 m_k in 1-D, 0.78 m_k on the 74-patch
        # covering and 0.28 m_k on the 282-patch one.
        sqrt_bapu = request.getfixturevalue(name)
        grid, group = sqrt_bapu.grid, sqrt_bapu.group
        j = frequency_indices(grid)
        for k, idx in enumerate(sqrt_bapu.supports):
            counts = _patch_counts(group, float(sqrt_bapu.t[k]), grid.L)
            span = j[idx].max(axis=0) - j[idx].min(axis=0) + 1
            assert np.all(span <= counts)

    def test_reconstruction_2d(self, G2, sqrt_bapu_282):
        # 1.1e-15 measured; the dense loops take 45 s per field here
        grid = sqrt_bapu_282.grid
        f = standard_ensemble(grid, G2, AnisoBall([0.0, 0.0], 1.0), N=2)[3]
        c = analyze(f, sqrt_bapu_282)
        assert c.n_coefficients() == 521824
        g = synthesize(c, sqrt_bapu_282)
        assert np.abs(g.values - f.values).max() <= 1e-12 * np.abs(f.values).max()
