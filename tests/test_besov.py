import dataclasses
import pickle

import numpy as np
import pytest

from anisoweights import besov
from anisoweights.besov import (
    BesovParams,
    CoefficientArray,
    DenominatorVanishes,
    EquivalenceRow,
    _patch_counts,
    _patch_normalizer,
    analyze,
    bapu_independence_check,
    besov_norm,
    build_bapu,
    build_sqrt_bapu,
    discrete_b_norm,
    mollifier_bump,
    norm_equivalence_experiment,
    synthesize,
)
from anisoweights.dilation import DilationGroup
from anisoweights.geometry import (
    AnisoBall,
    _lattice,
    ball_pairs,
    ball_volume,
    build_structured_covering,
    compute_r0,
)
from anisoweights.muckenhoupt import safe_power_values, weighted_magnitudes
from anisoweights.spectral import (
    BandLimitedField,
    FourierGrid,
    SizeMismatch,
    TruncationInsufficient,
    _grid_root,
    _riemann_norm,
    standard_ensemble,
)
from anisoweights.weights import MatrixWeightSpec, ScalarWeightSpec
from search_counts import counted_search

PARAMS = BesovParams(0.5, 2, 2)


@pytest.fixture(scope="module")
def G1():
    return DilationGroup([[1.0]])


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
    return DilationGroup(np.diag([1.0, 2.0]))


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
    scale = 1.0 + float(np.max(np.abs(pts), initial=0.0))
    root = safe_power_values(W, pts, 1.0 / params.p, scale)
    terms = []
    for k in sorted(coeffs.patches):
        ls, coef = coeffs.patches[k]
        t_k = float(coeffs.t[k])
        rho = coeffs.r0 / t_k
        vol_root = np.sqrt(ball_volume(group, rho))
        field_k = np.zeros((coef.shape[1], len(pts)), dtype=complex)
        reach = group.euclidean_radius_bound(rho)
        centers = ls * (2 * grid.L / coeffs.counts[k])  # the sample positions
        for i in range(len(ls)):
            near = np.flatnonzero(np.max(np.abs(pts - centers[i]), axis=1) <= reach)
            cells = near[group.quasi_norm(pts[near] - centers[i]) < rho]
            field_k[:, cells] += (coef[i] / vol_root)[:, None]
        mags = weighted_magnitudes(root, field_k.T)
        terms.append(t_k ** params.s * _riemann_norm(mags, params.p, grid.h ** grid.d))
    return np.asarray(terms)


def per_patch_besov_norm(f, W, params, bapu):
    """besov_norm by one inverse FFT and one weight product per patch."""
    grid = f.grid
    flat_spec = f.spectrum.reshape(f.N, -1)
    root = _grid_root(grid, W, params.p)
    terms = []
    for k in range(len(bapu)):
        spec_k = np.zeros_like(flat_spec)
        spec_k[:, bapu.supports[k]] = flat_spec[:, bapu.supports[k]] * bapu.values[k]
        piece = grid.inverse(spec_k.reshape(f.spectrum.shape))
        mags = weighted_magnitudes(root, piece.reshape(f.N, -1).T)
        norm_k = _riemann_norm(mags, params.p, grid.h ** grid.d)
        terms.append(float(bapu.t[k]) ** params.s * norm_k)
    return besov._lq_sum(terms, params.q)


def dense_analyze(f, sqrt_bapu):
    """analyze by one dense exp(i pos.(xi - c_k)) matrix per patch."""
    grid, group = f.grid, f.group
    flat_spec = f.spectrum.reshape(f.N, -1)
    norm2 = f.l2_norm()
    out = CoefficientArray(group, grid, sqrt_bapu.t, compute_r0(group))
    lattice_measure = (np.pi / grid.L) ** grid.d
    for k in range(len(sqrt_bapu)):
        t_k = float(sqrt_bapu.t[k])
        c_k = sqrt_bapu.centers[k]
        counts = _patch_counts(group, t_k, grid.L)
        out.counts[k] = counts
        idx = sqrt_bapu.supports[k]
        weighted = flat_spec[:, idx] * sqrt_bapu.values[k]
        xi = grid.frequency_points()[idx]
        ls = full_window(counts)
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


def full_window(counts):
    """Every l of one period of a patch's sample lattice, last axis fastest."""
    return _lattice([np.arange(-(m // 2), m - m // 2) for m in counts])


def per_patch_analyze(f, sqrt_bapu):
    """analyze by one fold, inverse DFT, window read and floor test per patch."""
    grid, group = f.grid, f.group
    flat_spec = f.spectrum.reshape(f.N, -1)
    norm2 = f.l2_norm()
    out = CoefficientArray(group, grid, sqrt_bapu.t, compute_r0(group))
    lattice_measure = (np.pi / grid.L) ** grid.d
    freq = frequency_indices(grid)
    axes = tuple(range(1, grid.d + 1))
    for k in range(len(sqrt_bapu)):
        counts = _patch_counts(group, float(sqrt_bapu.t[k]), grid.L)
        out.counts[k] = counts
        idx = sqrt_bapu.supports[k]
        folded = np.zeros((f.N, *counts), dtype=complex)
        np.add.at(folded, (slice(None), *(freq[idx] % counts).T),
                  flat_spec[:, idx] * sqrt_bapu.values[k])
        ls = full_window(counts)
        sums = np.fft.ifftn(folded, axes=axes, norm="forward")[(slice(None), *(ls % counts).T)]
        phase = np.exp(-1j * ((ls * (2 * grid.L / counts)) @ sqrt_bapu.centers[k]))
        coef = lattice_measure * _patch_normalizer(grid, counts) * phase[:, None] * sums.T
        keep = np.linalg.norm(coef, axis=1) > besov._COEF_FLOOR * max(norm2, 1e-300)
        if keep.any():
            out.patches[k] = (ls[keep], coef[keep])
    return out


def per_patch_synthesize(coeffs, sqrt_bapu):
    """Flat (N, n^d) spectrum of synthesize by one placement, DFT and sum per patch."""
    grid, group = coeffs.grid, sqrt_bapu.group
    N = next(iter(coeffs.patches.values()))[1].shape[1] if coeffs.patches else 1
    spec = np.zeros((N, np.prod(grid.shape)), dtype=complex)
    freq = frequency_indices(grid)
    axes = tuple(range(1, grid.d + 1))
    for k in sorted(coeffs.patches):
        ls, coef = coeffs.patches[k]
        counts = coeffs.counts.get(k)
        if counts is None:
            counts = _patch_counts(group, float(sqrt_bapu.t[k]), grid.L)
        idx = sqrt_bapu.supports[k]
        phase = np.exp(1j * ((ls * (2 * grid.L / counts)) @ sqrt_bapu.centers[k]))
        placed = np.zeros((N, *counts), dtype=complex)
        np.add.at(placed, (slice(None), *(ls % counts).T), (phase[:, None] * coef).T)
        sums = np.fft.fftn(placed, axes=axes)[(slice(None), *(freq[idx] % counts).T)]
        spec[:, idx] += _patch_normalizer(grid, counts) * sqrt_bapu.values[k] * sums
    return spec


def frame_atom(k, l, sqrt_bapu):
    """Atom omega_(k,l) built in the frequency domain (lattice-exact).

    spectrum = N_k psi_k(xi) e^(-i x_(k,l) . (xi - xi_k)) with the sample
    position x_(k,l) on the rounded per-patch lattice and N_k the exact
    orthonormalizer (~ (2pi)^(-d/2) t_k^(-nu/2)).
    """
    grid, group = sqrt_bapu.grid, sqrt_bapu.group
    t_k = float(sqrt_bapu.t[k])
    c_k = sqrt_bapu.centers[k]
    counts = _patch_counts(group, t_k, grid.L)
    pos = np.asarray(l, dtype=float) * (2 * grid.L / counts)
    idx = sqrt_bapu.supports[k]
    xi = grid.frequency_points()[idx]
    phase = np.exp(-1j * (xi - c_k) @ pos)
    spec = np.zeros(np.prod(grid.shape), dtype=complex)
    spec[idx] = _patch_normalizer(grid, counts) * sqrt_bapu.values[k] * phase
    ball = sqrt_bapu.patch_ball(k)
    return BandLimitedField.from_spectrum(
        grid, group, spec.reshape(grid.shape), ball,
        field_id=f"atom[{k},{tuple(int(v) for v in np.atleast_1d(l))}]"
    )


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
    @pytest.mark.parametrize("p, q", [(np.nan, 2), (np.inf, 2), (0, 2), (2, np.nan), (2, 0)])
    def test_params_outside_range_rejected(self, p, q):
        with pytest.raises(ValueError, match="0 < p < inf and q > 0"):
            BesovParams(0.5, p, q)
        assert BesovParams(0.5, 2, np.inf).q == np.inf

    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
    def test_non_finite_smoothness_rejected(self, s):
        # NaN was accepted, and made every term t_j^s NaN
        with pytest.raises(ValueError, match="smoothness s must be finite"):
            BesovParams(s, 2, 2)

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
            window = full_window(counts)[::stride]
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
            ls = full_window(_patch_counts(group, float(sqrt_bapu.t[k]), grid.L))
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


def test_2d_discrete_norm_search_pin(G2, sqrt_bapu_282):
    # measured: 2,100,339 gathered for 1,694,793 box candidates in 534
    # batches of 36 searches, 0.6 s
    f = standard_ensemble(sqrt_bapu_282.grid, G2, AnisoBall([0.0, 0.0], 1.0))[0]
    c = analyze(f, sqrt_bapu_282)
    with counted_search() as counts:
        discrete_b_norm(c, None, PARAMS)
    assert counts["box"] > 1_600_000
    assert counts["gathered"] <= 1.5 * counts["box"]


@pytest.fixture(scope="module")
def benchmark_pass(G1):
    """The besov-1d inputs: fields, weight and both partitions."""
    grid = FourierGrid(1, 256, 4 * np.pi)
    cov = build_structured_covering(G1, 0.5, 24.0, seed=0, candidates_per_shell=256)
    fields = standard_ensemble(grid, G1, AnisoBall([0.0], 16.0), N=2, seed=0)
    return fields, sqrt_weight(), build_bapu(grid, cov), build_sqrt_bapu(grid, cov)


def counting(fn, counter, per_call):
    """fn, appending to per_call how many entries each call adds to counter."""
    def wrapped(*args):
        before = len(counter)
        value = fn(*args)
        per_call.append(len(counter) - before)
        return value

    return wrapped


def test_benchmark_pass_evaluates_each_root_node_once(benchmark_pass, monkeypatch):
    # the besov-1d pass: 20 roots on the 256-point grid, each with one
    # singular node (the origin) that alone is evaluated again; per field
    # two discrete b-norms, ||c||_b serving both r1 and the plain r2, and
    # three Besov norms.  Both norms take their patches in blocks of 16
    # (_BLOCK over N = 2 components of 256 points): one inverse FFT per
    # block of the 43 patches, and one cell search per block of the patches
    # that keep coefficients, 20 of them for "offcenter" and 33 for
    # "two_bumps".
    fields, W, bapu, sqrt_bapu = benchmark_pass
    sizes, searches, ffts, b_norms, B_norms = [], [], [], [], []
    power = MatrixWeightSpec.power_values
    monkeypatch.setattr(MatrixWeightSpec, "power_values",
                        lambda self, x, a: sizes.append(len(x)) or power(self, x, a))
    inverse = FourierGrid.inverse
    monkeypatch.setattr(FourierGrid, "inverse",
                        lambda self, s: ffts.append(1) or inverse(self, s))
    monkeypatch.setattr(besov, "ball_pairs", lambda *args: searches.append(1) or ball_pairs(*args))
    monkeypatch.setattr(besov, "discrete_b_norm", counting(discrete_b_norm, searches, b_norms))
    monkeypatch.setattr(besov, "besov_norm", counting(besov_norm, ffts, B_norms))
    norm_equivalence_experiment(fields, W, [PARAMS], bapu, sqrt_bapu)
    assert sizes == [256, 1] * 20 and sum(sizes) == 5_140
    assert b_norms == [3, 3, 2, 2, 3, 3, 3, 3]
    assert B_norms == [3] * 12


def test_benchmark_pass_takes_one_riemann_sum_per_block(benchmark_pass, monkeypatch):
    # one stacked _riemann_norm call per block, for each of its patch rows:
    # 3 per Besov norm of the 43 patches and one per cell search of the
    # discrete norms (see above); a call per row made 794 a pass
    fields, W, bapu, sqrt_bapu = benchmark_pass
    rows, riemann = [], besov._riemann_norm
    monkeypatch.setattr(besov, "_riemann_norm",
                        lambda mags, p, cell: rows.append(len(mags)) or riemann(mags, p, cell))
    norm_equivalence_experiment(fields, W, [PARAMS], bapu, sqrt_bapu)
    assert len(rows) == 12 * 3 + 22 and sum(rows) == 794


def recomputing_norm_equivalence(ensemble, W, params_list, bapu, sqrt_bapu):
    """norm_equivalence_experiment with every b-norm computed where it is used."""
    rows = []
    for params in params_list:
        for f in ensemble:
            c = analyze(f, sqrt_bapu)
            r1 = discrete_b_norm(c, W, params) / besov_norm(f, W, params, bapu)
            rows.append(EquivalenceRow("coefficient", f.field_id, params.s,
                                       params.p, params.q, float(r1)))
            for tag, cc in (("", c), ("*", c.scaled(0.5 - 0.25j))):
                g = synthesize(cc, sqrt_bapu)
                r2 = besov_norm(g, W, params, bapu) / discrete_b_norm(cc, W, params)
                rows.append(EquivalenceRow("reconstruction", f.field_id + tag,
                                           params.s, params.p, params.q, float(r2)))
    return rows


def test_shared_b_norm_rows_match_recomputed_rows(benchmark_pass):
    fields, W, bapu, sqrt_bapu = benchmark_pass
    rows = norm_equivalence_experiment(fields, W, [PARAMS], bapu, sqrt_bapu)
    want = recomputing_norm_equivalence(fields, W, [PARAMS], bapu, sqrt_bapu)
    assert pickle.dumps(rows) == pickle.dumps(want)


@pytest.fixture(scope="module")
def besov_2d(G2):
    """A small diag(1, 2) case: fields, weight and both 74-patch partitions
    on a 16 x 16 grid of period 4 pi, taken in 5 blocks at N = 2."""
    grid = FourierGrid(2, 16, 2 * np.pi)
    cov = build_structured_covering(G2, 1.0, 1.0, seed=0, candidates_per_shell=256)
    fields = standard_ensemble(grid, G2, AnisoBall([0.0, 0.0], 0.8), N=2)
    return fields, sqrt_weight(), build_bapu(grid, cov), build_sqrt_bapu(grid, cov)


@pytest.fixture(scope="module", params=["1d", "2d"])
def norm_case(request):
    """The besov-1d inputs and the small 2-D case."""
    return request.getfixturevalue("benchmark_pass" if request.param == "1d" else "besov_2d")


@pytest.mark.parametrize("q", [2, np.inf])
@pytest.mark.parametrize("p", [1.5, 2])
def test_besov_norm_matches_per_patch_loop(norm_case, p, q):
    fields, W, bapu, _ = norm_case
    params = BesovParams(0.5, p, q)
    for f in fields:
        for weight in (None, W):
            assert besov_norm(f, weight, params, bapu) == per_patch_besov_norm(
                f, weight, params, bapu)


@pytest.mark.parametrize("split", ["one patch", "halves"])
def test_block_split_changes_nothing(norm_case, split, monkeypatch):
    fields, W, bapu, sqrt_bapu = norm_case
    fields = fields[::3]  # the centred gaussian and the random smooth member
    coeffs = [analyze(f, sqrt_bapu) for f in fields]

    def norms():
        return [(besov_norm(f, W, params, bapu), discrete_b_norm(c, W, params))
                for f, c in zip(fields, coeffs)
                for params in (PARAMS, BesovParams(0.5, 1.5, np.inf))]

    def transforms():
        out = [analyze(f, sqrt_bapu) for f in fields]
        return out, [synthesize(c, sqrt_bapu).spectrum for c in out]

    default, (default_coeffs, default_spectra) = norms(), transforms()
    per_patch = fields[0].spectrum.size  # N components of every grid point
    per_block = 1 if split == "one patch" else (len(bapu) + 1) // 2
    monkeypatch.setattr(besov, "_BLOCK", per_block * per_patch)
    assert norms() == default
    # analyze and synthesize count the entries of the patches' DFT boxes:
    # one patch a block, or the first half of the patches in one block
    boxes = [fields[0].N * counts.prod() for counts in coeffs[0].counts.values()]
    first_half = sum(boxes[:(len(boxes) + 1) // 2])
    monkeypatch.setattr(besov, "_BLOCK", 1 if split == "one patch" else first_half)
    got_coeffs, got_spectra = transforms()
    for got, want in zip(got_coeffs, default_coeffs):
        assert_same_coefficients(got, want)
    for got, want in zip(got_spectra, default_spectra):
        assert np.array_equal(got, want)


def assert_same_coefficients(got, want, rel=0.0):
    """Same r0, counts, patches and l; coefficients bitwise, or within rel
    of the largest one."""
    assert got.r0 == want.r0
    assert got.counts.keys() == want.counts.keys()
    for k, counts in want.counts.items():
        assert np.array_equal(got.counts[k], counts)
    assert got.patches.keys() == want.patches.keys()
    scale = max((np.abs(c).max() for _, c in want.patches.values()), default=0.0)
    for k, (ls, coef) in want.patches.items():
        assert np.array_equal(got.patches[k][0], ls)
        assert got.patches[k][1].flags.c_contiguous
        if rel:
            assert np.abs(got.patches[k][1] - coef).max() <= rel * scale
        else:
            assert np.array_equal(got.patches[k][1], coef)


@pytest.fixture(scope="module", params=["besov-1d", "1d"])
def phi_1d(request):
    """(sqrt partition, fields): the besov-1d inputs and the 1-D fixture."""
    if request.param == "besov-1d":
        fields, _, _, sqrt_bapu = request.getfixturevalue("benchmark_pass")
        return sqrt_bapu, fields
    return request.getfixturevalue("sqrt_bapu"), request.getfixturevalue("ensemble")


def test_phi_transform_matches_per_patch_loops_bitwise(phi_1d):
    # in 1-D the phase argument is the one product of the per-patch loop
    sqrt_bapu, fields = phi_1d
    assert len(fields) == 4
    for f in fields:
        c = analyze(f, sqrt_bapu)
        assert_same_coefficients(c, per_patch_analyze(f, sqrt_bapu))
        for cc in (c, c.scaled(0.5 - 0.25j)):
            got = synthesize(cc, sqrt_bapu).spectrum.reshape(f.N, -1)
            assert np.array_equal(got, per_patch_synthesize(cc, sqrt_bapu))


@pytest.mark.parametrize("name", ["sqrt_bapu_2d", "besov_2d", "sqrt_bapu_282"])
def test_phi_transform_matches_per_patch_loops_2d(request, G2, name):
    # pos_l . xi_k is summed axis by axis, where the per-patch loop's
    # (ls * spacing) @ xi_k is a BLAS product that may fuse its multiply-add:
    # measured at most 1.45e-15 of the largest coefficient and 2.6e-16 of
    # the largest spectral entry (the random field on 74 patches); l, counts
    # and the kept coefficients are the loop's exactly
    if name == "besov_2d":
        fields, _, _, sqrt_bapu = request.getfixturevalue(name)
    elif name == "sqrt_bapu_2d":
        sqrt_bapu = request.getfixturevalue(name)
        fields = [request.getfixturevalue("random_field_2d")]
    else:
        sqrt_bapu = request.getfixturevalue(name)
        fields = standard_ensemble(sqrt_bapu.grid, G2, AnisoBall([0.0, 0.0], 1.0), N=2)[3::3]
    for f in fields:
        c = analyze(f, sqrt_bapu)
        assert_same_coefficients(c, per_patch_analyze(f, sqrt_bapu), rel=4e-15)
        got = synthesize(c, sqrt_bapu).spectrum.reshape(f.N, -1)
        want = per_patch_synthesize(c, sqrt_bapu)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


class TestPhiTransformEdges:
    """Coefficient arrays that `analyze` of a nonzero field does not make."""

    def test_empty_array(self, benchmark_pass):
        fields, _, _, sqrt_bapu = benchmark_pass
        f = fields[0]
        zero = BandLimitedField.from_values(f.grid, f.group, np.zeros_like(f.values), f.ball,
                                            field_id="zero")
        c = analyze(zero, sqrt_bapu)
        assert_same_coefficients(c, per_patch_analyze(zero, sqrt_bapu))
        assert c.patches == {} and len(c.counts) == len(sqrt_bapu)
        for cc in (c, CoefficientArray(f.group, f.grid, sqrt_bapu.t, 1.0)):
            g = synthesize(cc, sqrt_bapu)
            assert g.spectrum.shape == (1,) + f.grid.shape and not g.spectrum.any()
            assert np.array_equal(g.spectrum.reshape(1, -1), per_patch_synthesize(cc, sqrt_bapu))
            assert g.ball.radius == 1e-6 * 1.001
            assert discrete_b_norm(cc, None, PARAMS) == 0.0

    def test_counts_missing_a_patch(self, benchmark_pass):
        # a patch without counts takes _patch_counts, which analyze stored
        fields, _, _, sqrt_bapu = benchmark_pass
        c = analyze(fields[3], sqrt_bapu)
        full = synthesize(c, sqrt_bapu).spectrum
        keys = sorted(c.patches)
        for k in (keys[0], keys[len(keys) // 2], keys[-1]):
            del c.counts[k]
        got = synthesize(c, sqrt_bapu).spectrum
        assert np.array_equal(got, full)
        assert np.array_equal(got.reshape(fields[3].N, -1), per_patch_synthesize(c, sqrt_bapu))

    @pytest.mark.parametrize("counted", [True, False], ids=["counts", "no counts"])
    def test_one_hot(self, benchmark_pass, counted):
        _, _, _, sqrt_bapu = benchmark_pass
        grid, group = sqrt_bapu.grid, sqrt_bapu.group
        for k in (0, 21, len(sqrt_bapu) - 1):
            counts = _patch_counts(group, float(sqrt_bapu.t[k]), grid.L)
            ls = full_window(counts)
            for i in (0, len(ls) // 3, len(ls) - 1):
                one_hot = CoefficientArray(group, grid, sqrt_bapu.t, 1.0,
                                           {k: counts} if counted else {})
                one_hot.patches[k] = (ls[i:i + 1], np.full((1, 1), 0.5 - 0.25j))
                got = synthesize(one_hot, sqrt_bapu).spectrum.reshape(1, -1)
                assert np.array_equal(got, per_patch_synthesize(one_hot, sqrt_bapu))


@pytest.mark.parametrize("grid", [FourierGrid(1, 512, 4 * np.pi), FourierGrid(1, 256, 8 * np.pi)],
                         ids=["512 points", "L = 8 pi"])
def test_field_off_the_partition_lattice_raises(benchmark_pass, G1, grid):
    # besov-1d's partitions live on 256 points with L = 4 pi
    fields, W, bapu, sqrt_bapu = benchmark_pass
    f = standard_ensemble(grid, G1, AnisoBall([0.0], 16.0), N=2)[0]
    with pytest.raises(SizeMismatch):
        besov_norm(f, W, PARAMS, bapu)
    with pytest.raises(SizeMismatch):
        analyze(f, sqrt_bapu)
    c = dataclasses.replace(analyze(fields[0], sqrt_bapu), grid=grid)
    with pytest.raises(SizeMismatch):
        synthesize(c, sqrt_bapu)


@pytest.mark.parametrize("entry", ["norm_equivalence_experiment", "bapu_independence_check"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_zero_field_raises_naming_it(benchmark_pass, entry, weighted):
    # both norms of the zero field are 0, so neither ratio exists
    fields, W, bapu, sqrt_bapu = benchmark_pass
    W = W if weighted else None
    f = fields[0]
    zero = BandLimitedField.from_values(f.grid, f.group, np.zeros_like(f.values), f.ball,
                                        field_id="zero")
    with pytest.raises(ValueError, match="field zero has Besov norm 0"):
        if entry == "norm_equivalence_experiment":
            norm_equivalence_experiment([fields[1], zero], W, [PARAMS], bapu, sqrt_bapu)
        else:
            bapu_independence_check(zero, W, PARAMS, bapu, bapu)
