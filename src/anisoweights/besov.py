"""Frequency-patch partitions, matrix-weighted Besov norms, tight frames.

A structured covering with parameter c0 supplies centers xi_j and scales
t_j = <xi_j>_A; the patches P_j carry radius c1 = 2 c0.  The partition
phi_j = g(T_j^-1 xi) / sum_k g(T_k^-1 xi) and its square-root variant are
tabulated on the frequency lattice, where the partition identities hold
exactly.  Frame coefficients are exact lattice inner products, indexed so
that coefficient (k, l) pairs with the cell
U(k, l) = B_A(delta_{t_k}^{-1} l, r0 / t_k) around the atom's location.
Each patch's sample lattice is rounded so that its modulations are a
discrete Fourier basis, so `analyze` and `synthesize` take one FFT per
patch on the support folded modulo the per-axis sample counts.

Truncation policy: patches cover {|xi|_A <= max_norm} of the covering,
coefficient lattices cover the measured spatial extent of the analyzed
field, and both truncations are recorded on the outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dilation import DilationGroup
from .geometry import AnisoBall, StructuredCovering, _lattice, ball_pairs, ball_volume, compute_r0
# besov.safe_power_values stays bound for perfbench, whose tracer self-test wraps it here
from .muckenhoupt import safe_power_values, weighted_magnitudes  # noqa: F401
from .spectral import (
    BandLimitedField,
    FourierGrid,
    TruncationInsufficient,
    _grid_root,
    _riemann_norm,
    poly_plateau,
    smooth_plateau,
)


# relative size, against ||f||_2, below which `analyze` drops a coefficient
_COEF_FLOOR = 1e-12


class DenominatorVanishes(RuntimeError):
    """A lattice point inside the truncation is uncovered by the bumps."""


def default_bump(c0: float):
    """Profile equal to 1 on B_A(0, c0) and 0 off B_A(0, 1.5 c0).

    A degree-7 polynomial ramp composed with the quasi-norm: the atoms
    then decay like z^(-5) with small constants, which keeps the frame
    identities at their target tolerances on desk-size grids.  Only the
    lattice values of the profile enter; smoothness shows up through the
    measured decay certificates.  The ramp ends inside the patch radius
    c1 = 2 c0.
    """
    def g(quasi_norms):
        return poly_plateau(np.asarray(quasi_norms), c0, 1.5 * c0)

    return g


def mollifier_bump(c0: float):
    """Alternative profile from the standard exp(-1/t) mollifier, same ramp.

    Infinitely smooth but with much heavier spatial tails at fixed ramp
    width; used as the second profile in partition-independence checks.
    """
    def g(quasi_norms):
        return smooth_plateau(np.asarray(quasi_norms), c0, 1.5 * c0)

    return g


@dataclass
class Bapu:
    """Partition of unity subordinate to the doubled covering patches."""

    grid: FourierGrid
    covering: StructuredCovering
    supports: list          # flat lattice indices per patch
    values: list            # phi_j on the support
    kind: str = "plain"

    def __len__(self):
        return len(self.supports)

    @property
    def group(self) -> DilationGroup:
        return self.covering.group

    @property
    def c1(self) -> float:
        """Patch radius factor, twice the covering's c0."""
        return 2 * self.covering.c

    @property
    def max_norm(self) -> float:
        return self.covering.max_norm

    @property
    def t(self) -> np.ndarray:
        return self.covering.t

    @property
    def centers(self) -> np.ndarray:
        return self.covering.centers

    def patch_ball(self, k: int) -> AnisoBall:
        return AnisoBall(self.centers[k], self.c1 * self.t[k])

    def partition_defect(self) -> float:
        """Max |sum_j phi_j - 1| over covered lattice points."""
        total = np.zeros(np.prod(self.grid.shape))
        for idx, vals in zip(self.supports, self.values):
            if self.kind == "sqrt":
                total[idx] += vals ** 2
            else:
                total[idx] += vals
        xi = self.grid.frequency_points()
        region = self.group.quasi_norm(xi) <= self.max_norm
        return float(np.max(np.abs(total[region] - 1.0)))


def _build_partition(grid, covering, bump, kind) -> Bapu:
    group, c0 = covering.group, covering.c
    xi = grid.frequency_points()
    supports, g_values = [], []
    denom = np.zeros(len(xi))
    for j in range(len(covering)):
        t, c = covering.t[j], covering.centers[j]
        # Euclidean box prefilter around the patch
        box = np.abs(group.dilation_matrix(t)) @ np.full(
            group.d, group.euclidean_radius_bound(2 * c0)
        )
        near = np.flatnonzero(np.all(np.abs(xi - c) <= box, axis=1))
        eta = group.dilate(1.0 / t, xi[near] - c)
        g = bump(group.quasi_norm(eta))
        keep = g > 0.0
        idx = near[keep]
        gv = g[keep]
        supports.append(idx)
        g_values.append(gv)
        denom[idx] += gv ** 2 if kind == "sqrt" else gv
    region = group.quasi_norm(xi) <= covering.max_norm
    if np.any(denom[region] < 1.0 - 1e-12):
        worst = float(denom[region].min())
        raise DenominatorVanishes(
            f"partition denominator drops to {worst:.3g} inside the truncation"
        )
    norm = np.sqrt(denom) if kind == "sqrt" else denom
    values = [gv / norm[idx] for idx, gv in zip(supports, g_values)]
    return Bapu(grid, covering, supports, values, kind=kind)


def build_bapu(grid: FourierGrid, covering: StructuredCovering,
               bump=None) -> Bapu:
    """Partition of unity from a covering built at parameter c0."""
    return _build_partition(grid, covering, bump or default_bump(covering.c), "plain")


def build_sqrt_bapu(grid: FourierGrid, covering: StructuredCovering) -> Bapu:
    """Square-root partition (sum of squares 1) from `default_bump`."""
    return _build_partition(grid, covering, default_bump(covering.c), "sqrt")


# -- Besov norm ----------------------------------------------------------------------


@dataclass(frozen=True)
class BesovParams:
    s: float
    p: float
    q: float              # np.inf allowed

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise ValueError("p and q must be positive")


def besov_norm(f: BandLimitedField, W, params: BesovParams, bapu: Bapu) -> float:
    """(sum_j t_j^(sq) ||phi_j(D) f||_(L^p(W))^q)^(1/q), sup when q = inf.

    Raises `TruncationInsufficient` when more than 1e-6 of the spectral
    mass lies beyond the last patch.
    """
    grid, group = f.grid, f.group
    flat_spec = f.spectrum.reshape(f.N, -1)
    covered = np.zeros(flat_spec.shape[1], dtype=bool)
    for idx in bapu.supports:
        covered[idx] = True
    mass = np.abs(flat_spec) ** 2
    total = mass.sum()
    outside = float(mass[:, ~covered].sum() / total) if total > 0 else 0.0
    if outside > 1e-6:
        raise TruncationInsufficient(
            f"spectral mass {outside:.2e} beyond the last patch"
        )
    root = _grid_root(grid, W, params.p)
    terms = []
    for k in range(len(bapu)):
        spec_k = np.zeros_like(flat_spec)
        spec_k[:, bapu.supports[k]] = flat_spec[:, bapu.supports[k]] * bapu.values[k]
        piece = grid.inverse(spec_k.reshape(f.spectrum.shape))
        mags = weighted_magnitudes(root, piece.reshape(f.N, -1).T)
        norm_k = _riemann_norm(mags, params.p, grid.h ** grid.d)
        terms.append(float(bapu.t[k]) ** params.s * norm_k)
    return _lq_sum(terms, params.q)


def _lq_sum(terms, q: float) -> float:
    """(sum terms^q)^(1/q), or the max of the terms when q = inf."""
    terms = np.asarray(terms)
    return float(terms.max() if np.isinf(q) else (terms ** q).sum() ** (1.0 / q))


# -- frame atoms and coefficient arrays --------------------------------------------------


def _patch_counts(group: DilationGroup, t_k: float, L: float) -> np.ndarray:
    """Per-axis sampling counts m_k, rounded so the lattice closes the torus.

    The continuum theory samples at delta_t^(-1) Z^d with per-axis density
    ~ t^(lambda_i); on the period box the count 2 L t^(lambda_i) is rounded
    to an integer m, and the sample positions are pos_l = l * 2L / m per
    axis.  They move by at most half a spacing relative to the continuum
    lattice.  On the frequency lattice xi_j = j * pi / L, so

        pos_l . xi_j = 2 pi l . j / m     (per axis, summed),

    and e^(i pos_l . xi_j) depends on j only through j mod m: the patch's
    modulation system is an exact DFT basis of size prod(m).  A support
    whose integer frequencies span at most m per axis folds onto distinct
    residues, so the modulations are orthonormal on it.
    """
    rows = np.abs(group.dilation_matrix(t_k)) @ np.ones(group.d)
    return np.maximum(4, np.rint(2 * L * rows)).astype(int)


def _patch_normalizer(grid: FourierGrid, counts: np.ndarray) -> float:
    """Makes the modulation system orthonormal in the lattice inner product."""
    return float(((np.pi / grid.L) ** grid.d * counts.prod()) ** -0.5)


@dataclass
class CoefficientArray:
    """Frame coefficients indexed by (patch k, sample lattice l).

    Coefficient (k, l) pairs with the cell U(k, l), the ball of radius
    r0 / t_k around the sample position l * (2L / m_k) (per axis).
    """

    group: DilationGroup
    grid: FourierGrid
    t: np.ndarray
    r0: float
    counts: dict = field(default_factory=dict)   # k -> per-axis counts
    patches: dict = field(default_factory=dict)  # k -> (ls (m,d) int, coef (m,N))

    def n_coefficients(self) -> int:
        return sum(len(ls) for ls, _ in self.patches.values())

    def scaled(self, factor: complex) -> "CoefficientArray":
        out = CoefficientArray(self.group, self.grid, self.t, self.r0,
                               dict(self.counts))
        out.patches = {k: (ls.copy(), factor * c) for k, (ls, c) in self.patches.items()}
        return out

    def spacing(self, k: int) -> np.ndarray:
        return 2 * self.grid.L / self.counts[k]

    def positions(self, k: int, ls=None) -> np.ndarray:
        if ls is None:
            ls = self.patches[k][0]
        return np.asarray(ls, dtype=float) * self.spacing(k)


def _full_window(counts: np.ndarray) -> np.ndarray:
    return _lattice([np.arange(-(m // 2), m - m // 2) for m in counts])


def _frequency_indices(grid: FourierGrid) -> np.ndarray:
    """Integer j with xi = j * pi / L, one row per flat lattice index."""
    flat = np.arange(np.prod(grid.shape))
    return np.stack(np.unravel_index(flat, grid.shape), axis=1) - grid.n // 2


def frame_atom(k: int, l, sqrt_bapu: Bapu) -> BandLimitedField:
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


def analyze(f: BandLimitedField, sqrt_bapu: Bapu) -> CoefficientArray:
    """Frame coefficients <f, omega_(k,l)> as exact lattice sums, one DFT per patch.

    Coefficient (k, l) is the lattice sum over the support of psi_k of
    e^(i pos_l . (xi_j - xi_k)) psi_k(xi_j) fhat(xi_j).  Since
    pos_l . xi_j = 2 pi l . j / m_k (see _patch_counts), folding the
    weighted spectrum onto the residues j mod m_k and taking one unscaled
    inverse DFT gives the sum for every l of the period at once, exactly;
    the phase e^(-i pos_l . xi_k) follows.

    l runs over the full rounded period per patch; entries below
    _COEF_FLOOR * ||f||_2 are dropped.  The cells U(k, l) take
    r0 = compute_r0(group, 0.01).
    """
    grid, group = f.grid, f.group
    r0 = compute_r0(group, 0.01)
    flat_spec = f.spectrum.reshape(f.N, -1)
    norm2 = f.l2_norm()
    out = CoefficientArray(group, grid, sqrt_bapu.t, r0)
    lattice_measure = (np.pi / grid.L) ** grid.d
    freq = _frequency_indices(grid)
    axes = tuple(range(1, grid.d + 1))
    for k in range(len(sqrt_bapu)):
        counts = _patch_counts(group, float(sqrt_bapu.t[k]), grid.L)
        out.counts[k] = counts
        idx = sqrt_bapu.supports[k]
        folded = np.zeros((f.N, *counts), dtype=complex)
        np.add.at(folded, (slice(None), *(freq[idx] % counts).T),
                  flat_spec[:, idx] * sqrt_bapu.values[k])
        ls = _full_window(counts)
        sums = np.fft.ifftn(folded, axes=axes, norm="forward")[(slice(None), *(ls % counts).T)]
        phase = np.exp(-1j * ((ls * (2 * grid.L / counts)) @ sqrt_bapu.centers[k]))
        coef = lattice_measure * _patch_normalizer(grid, counts) * phase[:, None] * sums.T
        keep = np.linalg.norm(coef, axis=1) > _COEF_FLOOR * max(norm2, 1e-300)
        if keep.any():
            out.patches[k] = (ls[keep], coef[keep])
    return out


def synthesize(coeffs: CoefficientArray, sqrt_bapu: Bapu) -> BandLimitedField:
    """sum over (k, l) of c_(k,l) omega_(k,l), accumulated in frequency.

    The adjoint of `analyze`, one DFT per patch: c_(k,l) e^(i pos_l . xi_k)
    is placed at the residue l mod m_k, and one forward DFT read at
    j mod m_k gives sum_l c_(k,l) e^(-i pos_l . (xi_j - xi_k)) on the
    support, exactly, since pos_l . xi_j = 2 pi l . j / m_k.
    """
    grid, group = coeffs.grid, sqrt_bapu.group
    N = next(iter(coeffs.patches.values()))[1].shape[1] if coeffs.patches else 1
    spec = np.zeros((N, np.prod(grid.shape)), dtype=complex)
    freq = _frequency_indices(grid)
    axes = tuple(range(1, grid.d + 1))
    touched = np.zeros(spec.shape[1], dtype=bool)
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
        touched[idx] = True
    max_q = group.quasi_norm(grid.frequency_points())[touched].max(initial=0.0)
    ball = AnisoBall(np.zeros(group.d), max(max_q, 1e-6) * 1.001)
    return BandLimitedField.from_spectrum(
        grid, group, spec.reshape((N,) + grid.shape), ball, field_id="synthesis"
    )


# -- discrete sequence norm -----------------------------------------------------------------


def discrete_b_norm(coeffs: CoefficientArray, W, params: BesovParams,
                    grid: FourierGrid = None) -> float:
    """(sum_k [t_k^s || sum_l |U|^(-1/2) c_(k,l) 1_U ||_(L^p(W))]^q)^(1/q)."""
    grid = grid or coeffs.grid
    group = coeffs.group
    pts = grid.spatial_points()
    root = _grid_root(grid, W, params.p)
    terms = []
    for k in sorted(coeffs.patches):
        ls, coef = coeffs.patches[k]
        t_k = float(coeffs.t[k])
        rho = coeffs.r0 / t_k
        vol_root = np.sqrt(ball_volume(group, rho))
        cells, at = ball_pairs(group, coeffs.positions(k, ls), rho, pts)
        field_k = np.zeros((coef.shape[1], len(pts)), dtype=complex)
        np.add.at(field_k, (slice(None), at), (coef[cells] / vol_root).T)
        mags = weighted_magnitudes(root, field_k.T)
        norm_k = _riemann_norm(mags, params.p, grid.h ** grid.d)
        terms.append(float(t_k) ** params.s * norm_k)
    return _lq_sum(terms, params.q) if terms else 0.0


# -- experiments ------------------------------------------------------------------------------


@dataclass
class EquivalenceRow:
    direction: str
    field_id: str
    s: float
    p: float
    q: float
    ratio: float


def norm_equivalence_experiment(ensemble, W, params_list, bapu: Bapu,
                                sqrt_bapu: Bapu) -> list[EquivalenceRow]:
    """Coefficient and reconstruction ratios across the parameter grid.

    r1 = ||analyze(f)||_b / ||f||_B per ensemble member; r2 =
    ||synthesize(c)||_B / ||c||_b for coefficient sets derived from the
    ensemble (identity and a conjugated copy).
    """
    rows = []
    for params in params_list:
        for f in ensemble:
            c = analyze(f, sqrt_bapu)
            r1 = discrete_b_norm(c, W, params) / besov_norm(f, W, params, bapu)
            rows.append(EquivalenceRow("coefficient", f.field_id, params.s,
                                       params.p, params.q, float(r1)))
            for tag, cc in (("", c), ("*", c.scaled(0.5 - 0.25j))):
                g = synthesize(cc, sqrt_bapu)
                r2 = (besov_norm(g, W, params, bapu)
                      / discrete_b_norm(cc, W, params))
                rows.append(EquivalenceRow("reconstruction", f.field_id + tag,
                                           params.s, params.p, params.q,
                                           float(r2)))
    return rows


def bapu_independence_check(f: BandLimitedField, W, params: BesovParams,
                            bapu1: Bapu, bapu2: Bapu) -> float:
    """Ratio of the Besov norms computed with two partitions."""
    n1 = besov_norm(f, W, params, bapu1)
    n2 = besov_norm(f, W, params, bapu2)
    return float(n1 / n2)
