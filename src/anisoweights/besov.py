"""Frequency-patch partitions, matrix-weighted Besov norms, tight frames.

A structured covering with parameter c0 supplies centers xi_j and scales
t_j = <xi_j>_A; the patches P_j carry radius c1 = 2 c0.  The partition
phi_j = g(T_j^-1 xi) / sum_k g(T_k^-1 xi) and its square-root variant are
tabulated on the frequency lattice, where the partition identities hold
exactly.  Frame coefficients are exact lattice inner products computed
patch by patch, indexed so that coefficient (k, l) pairs with the cell
U(k, l) = B_A(delta_{t_k}^{-1} l, r0 / t_k) around the atom's location.

Truncation policy: patches cover {|xi|_A <= max_norm} of the covering,
coefficient lattices cover the measured spatial extent of the analyzed
field, and both truncations are recorded on the outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dilation import DilationGroup
from .geometry import AnisoBall, StructuredCovering, ball_pairs, ball_volume, compute_r0
from .muckenhoupt import _local_scale, safe_power_values, weighted_magnitudes
from .spectral import (
    BandLimitedField,
    FourierGrid,
    TruncationInsufficient,
    _riemann_norm,
    poly_plateau,
    smooth_plateau,
)


class DenominatorVanishes(RuntimeError):
    """A lattice point inside the truncation is uncovered by the bumps."""


def default_bump(c0: float, ramp_end: float = None):
    """Profile equal to 1 on B_A(0, c0) and 0 off B_A(0, ramp_end).

    A degree-7 polynomial ramp composed with the quasi-norm: the atoms
    then decay like z^(-5) with small constants, which keeps the frame
    identities at their target tolerances on desk-size grids.  Only the
    lattice values of the profile enter; smoothness shows up through the
    measured decay certificates.  ramp_end defaults to 1.5 c0 and must
    stay within 2 c0.
    """
    if ramp_end is None:
        ramp_end = 1.5 * c0
    if not c0 < ramp_end <= 2 * c0 + 1e-12:
        raise ValueError("ramp must end inside (c0, 2 c0]")

    def g(quasi_norms):
        return poly_plateau(np.asarray(quasi_norms), c0, ramp_end)

    return g


def mollifier_bump(c0: float, ramp_end: float = None):
    """Alternative profile from the standard exp(-1/t) mollifier.

    Infinitely smooth but with much heavier spatial tails at fixed ramp
    width; used as the second profile in partition-independence checks.
    """
    if ramp_end is None:
        ramp_end = 1.5 * c0
    if not c0 < ramp_end <= 2 * c0 + 1e-12:
        raise ValueError("ramp must end inside (c0, 2 c0]")

    def g(quasi_norms):
        return smooth_plateau(np.asarray(quasi_norms), c0, ramp_end)

    return g


@dataclass
class Bapu:
    """Partition of unity subordinate to the doubled covering patches."""

    grid: FourierGrid
    group: DilationGroup
    covering: StructuredCovering
    c0: float
    c1: float
    bump: object
    supports: list          # flat lattice indices per patch
    values: list            # phi_j on the support
    g_values: list          # raw bump values on the support
    denominator: np.ndarray
    height: int
    max_norm: float
    kind: str = "plain"

    def __len__(self):
        return len(self.supports)

    @property
    def t(self) -> np.ndarray:
        return self.covering.t

    @property
    def centers(self) -> np.ndarray:
        return self.covering.centers

    def patch_ball(self, k: int) -> AnisoBall:
        return AnisoBall(self.centers[k], self.c1 * self.t[k])

    def patch_volume(self, k: int) -> float:
        return ball_volume(self.group, self.c1 * self.t[k])

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

    def decay_certificate(self, k: int, M: float) -> float:
        """C with |F^-1 phi_k(x)| <= C t_k^nu (1 + t_k |x|_A)^(-M) on the grid."""
        spec = np.zeros(np.prod(self.grid.shape), dtype=complex)
        spec[self.supports[k]] = self.values[k]
        inv = self.grid.inverse(spec.reshape(self.grid.shape))
        pts = self.grid.spatial_points()
        qn = self.group.quasi_norm(pts).reshape(self.grid.shape)
        t = self.t[k]
        return float(np.max(np.abs(inv) * (1 + t * qn) ** M) / t ** self.group.nu)

    def eval_at(self, k: int, xi_points: np.ndarray) -> np.ndarray:
        """phi_k (or psi_k) at arbitrary frequency points, off the lattice."""
        pts = np.atleast_2d(np.asarray(xi_points, dtype=float))
        G = self.group
        gk = None
        denom = np.zeros(len(pts))
        for j in range(len(self)):
            tj, cj = self.t[j], self.centers[j]
            eta = G.dilate(1.0 / tj, pts - cj)
            reach = G.euclidean_radius_bound(2 * self.c0)
            near = np.max(np.abs(eta), axis=1) <= reach
            if not near.any() and j != k:
                continue
            gj = np.zeros(len(pts))
            if near.any():
                gj[near] = self.bump(G.quasi_norm(eta[near]))
            denom += gj ** 2 if self.kind == "sqrt" else gj
            if j == k:
                gk = gj
        if gk is None:
            gk = np.zeros(len(pts))
        good = denom > 0
        out = np.zeros(len(pts))
        if self.kind == "sqrt":
            out[good] = gk[good] / np.sqrt(denom[good])
        else:
            out[good] = gk[good] / denom[good]
        return out


def _build_partition(grid, group, covering, bump, c0, kind) -> Bapu:
    xi = grid.frequency_points()
    nlat = len(xi)
    supports, g_values = [], []
    denom = np.zeros(nlat)
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
    values = []
    counts = np.zeros(nlat, dtype=int)
    for idx, gv in zip(supports, g_values):
        if kind == "sqrt":
            values.append(gv / np.sqrt(denom[idx]))
        else:
            values.append(gv / denom[idx])
        counts[idx] += 1
    height = int(counts[region].max()) if region.any() else 0
    return Bapu(grid, group, covering, c0, 2 * c0, bump, supports, values,
                g_values, denom, height, covering.max_norm, kind=kind)


def build_bapu(grid: FourierGrid, covering: StructuredCovering,
               bump=None) -> Bapu:
    """Partition of unity from a covering built at parameter c0."""
    c0 = covering.c
    bump = bump or default_bump(c0)
    return _build_partition(grid, covering.group, covering, bump, c0, "plain")


def build_sqrt_bapu(grid: FourierGrid, covering: StructuredCovering,
                    bump=None) -> "Bapu":
    c0 = covering.c
    bump = bump or default_bump(c0)
    return _build_partition(grid, covering.group, covering, bump, c0, "sqrt")


# -- Besov norm ----------------------------------------------------------------------


@dataclass(frozen=True)
class BesovParams:
    s: float
    p: float
    q: float              # np.inf allowed
    volume_scale: bool = False   # use |P_j|^(s/nu) instead of t_j^s

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise ValueError("p and q must be positive")


def _patch_scale(bapu: Bapu, k: int, params: BesovParams) -> float:
    if params.volume_scale:
        return bapu.patch_volume(k) ** (params.s / bapu.group.nu)
    return float(bapu.t[k]) ** params.s


def besov_norm(f: BandLimitedField, W, params: BesovParams, bapu: Bapu,
               tail_limit: float = 1e-6) -> float:
    """(sum_j scale_j^q ||phi_j(D) f||_(L^p(W))^q)^(1/q), sup when q = inf."""
    grid, group = f.grid, f.group
    flat_spec = f.spectrum.reshape(f.N, -1)
    covered = np.zeros(flat_spec.shape[1], dtype=bool)
    for idx in bapu.supports:
        covered[idx] = True
    mass = np.abs(flat_spec) ** 2
    total = mass.sum()
    outside = float(mass[:, ~covered].sum() / total) if total > 0 else 0.0
    if outside > tail_limit:
        raise TruncationInsufficient(
            f"spectral mass {outside:.2e} beyond the last patch"
        )
    pts = grid.spatial_points()
    root = safe_power_values(W, pts, 1.0 / params.p, _local_scale(pts))
    terms = []
    for k in range(len(bapu)):
        spec_k = np.zeros_like(flat_spec)
        spec_k[:, bapu.supports[k]] = flat_spec[:, bapu.supports[k]] * bapu.values[k]
        piece = grid.inverse(spec_k.reshape(f.spectrum.shape))
        mags = weighted_magnitudes(root, piece.reshape(f.N, -1).T)
        norm_k = _riemann_norm(mags, params.p, grid.h ** grid.d)
        terms.append(_patch_scale(bapu, k, params) * norm_k)
    return _lq_sum(terms, params.q)


def _lq_sum(terms, q: float) -> float:
    """(sum terms^q)^(1/q), or the max of the terms when q = inf."""
    terms = np.asarray(terms)
    return float(terms.max() if np.isinf(q) else (terms ** q).sum() ** (1.0 / q))


# -- frame atoms and coefficient arrays --------------------------------------------------


def _patch_counts(group: DilationGroup, t_k: float, L: float) -> np.ndarray:
    """Per-axis sampling counts, rounded so the lattice closes the torus.

    The continuum theory samples at delta_t^(-1) Z^d with per-axis density
    ~ t^(lambda_i); on the period box the count 2 L t^(lambda_i) is rounded
    to an integer, which makes the per-patch modulation system an exact
    discrete Fourier basis.  The sample positions move by at most half a
    spacing relative to the continuum lattice.
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

    def total_square_sum(self) -> float:
        return float(sum(np.sum(np.abs(c) ** 2) for _, c in self.patches.values()))

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

    def cell(self, k: int, l) -> AnisoBall:
        center = np.asarray(l, dtype=float) * self.spacing(k)
        return AnisoBall(center, self.r0 / self.t[k])

    def cell_volume(self, k: int) -> float:
        return ball_volume(self.group, self.r0 / self.t[k])

    def rows(self):
        for k in sorted(self.patches):
            ls, coef = self.patches[k]
            for i in range(len(ls)):
                for comp in range(coef.shape[1]):
                    yield (k, tuple(int(v) for v in ls[i]), comp,
                           float(coef[i, comp].real), float(coef[i, comp].imag))


def _full_window(counts: np.ndarray) -> np.ndarray:
    axes = [np.arange(-(m // 2), m - m // 2) for m in counts]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(counts))


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


def frame_atom_direct(k: int, l, sqrt_bapu: Bapu, eta_points: int = 512,
                      wrap_images: int = None) -> np.ndarray:
    """The atom of `frame_atom` by the direct-space formula, approximately.

    omega(x) = N_k t_k^nu mu_k(delta_(t_k)(x - x_(k,l))) e^(i x.xi_k) with
    mu_k the inverse transform of eta -> psi_k(T_k eta), quadratured on an
    independent uniform eta-grid that is alias-free on the evaluated range;
    wrap images of the 2L-periodization are summed when they are visible.
    The routes differ by up to 6e-3 of the atom's sup on a 128-point 4pi
    grid, 3e-5 on 512 points and 16pi, and by O(1) once the patch crosses
    the frequency box, where the lattice atom is clipped.
    """
    grid, group = sqrt_bapu.grid, sqrt_bapu.group
    t_k = float(sqrt_bapu.t[k])
    c_k = sqrt_bapu.centers[k]
    counts = _patch_counts(group, t_k, grid.L)
    pos = np.asarray(l, dtype=float) * (2 * grid.L / counts)
    d = group.d
    if wrap_images is None:
        wrap_images = 1 if t_k < 4.0 else 0
    row = float((np.abs(group.dilation_matrix(t_k)) @ np.ones(d)).max())
    z_range = row * (2 * wrap_images + 2) * grid.L
    m = int(max(eta_points, np.ceil(z_range + 700)))
    ax = (np.arange(m) - m // 2) * (2 * np.pi / m)
    if d == 1:
        etas = ax[:, None]
    else:
        E1, E2 = np.meshgrid(ax, ax, indexing="ij")
        etas = np.stack([E1.ravel(), E2.ravel()], axis=1)
    mu_hat = sqrt_bapu.eval_at(k, group.dilate(t_k, etas) + c_k)
    live = np.flatnonzero(np.abs(mu_hat) > 1e-15)
    dvol = (2 * np.pi / m) ** d
    x0 = grid.spatial_points()
    total = np.zeros(len(x0), dtype=complex)
    shifts = [np.zeros(d)] if wrap_images == 0 else [
        np.asarray(s, dtype=float) * 2 * grid.L
        for s in np.stack(np.meshgrid(
            *([np.arange(-wrap_images, wrap_images + 1)] * d), indexing="ij"
        ), axis=-1).reshape(-1, d)
    ]
    prefactor = _patch_normalizer(grid, counts) * t_k ** group.nu
    for shift in shifts:
        x = x0 + shift
        z = group.dilate(t_k, x - pos)
        phases = np.exp(1j * z @ etas[live].T)
        mu = (2 * np.pi) ** (-d / 2) * dvol * phases @ mu_hat[live]
        carrier = np.exp(1j * x @ c_k)
        total += prefactor * mu * carrier
    return total.reshape(grid.shape)


def analyze(f: BandLimitedField, sqrt_bapu: Bapu, r0: float = None,
            coef_floor: float = 1e-12) -> CoefficientArray:
    """Frame coefficients <f, omega_(k,l)> via exact per-patch lattice sums.

    l runs over the full rounded period per patch; entries below
    coef_floor * ||f||_2 are dropped and the policy recorded.
    """
    grid, group = f.grid, f.group
    if r0 is None:
        r0 = compute_r0(group, 0.01)
    flat_spec = f.spectrum.reshape(f.N, -1)
    norm2 = f.l2_norm()
    out = CoefficientArray(group, grid, sqrt_bapu.t, r0)
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
        E = np.exp(1j * pos @ (xi - c_k).T)
        coef = lattice_measure * _patch_normalizer(grid, counts) * (E @ weighted.T)
        keep = np.linalg.norm(coef, axis=1) > coef_floor * max(norm2, 1e-300)
        if keep.any():
            out.patches[k] = (ls[keep], coef[keep])
    return out


def synthesize(coeffs: CoefficientArray, sqrt_bapu: Bapu) -> BandLimitedField:
    """sum over (k, l) of c_(k,l) omega_(k,l), accumulated in frequency."""
    grid, group = coeffs.grid, sqrt_bapu.group
    N = next(iter(coeffs.patches.values()))[1].shape[1] if coeffs.patches else 1
    spec = np.zeros((N, np.prod(grid.shape)), dtype=complex)
    max_q = 0.0
    for k in sorted(coeffs.patches):
        ls, coef = coeffs.patches[k]
        t_k = float(sqrt_bapu.t[k])
        c_k = sqrt_bapu.centers[k]
        counts = coeffs.counts.get(k)
        if counts is None:
            counts = _patch_counts(group, t_k, grid.L)
        idx = sqrt_bapu.supports[k]
        xi = grid.frequency_points()[idx]
        pos = ls.astype(float) * (2 * grid.L / counts)
        E = np.exp(-1j * (xi - c_k) @ pos.T)
        patch_spec = (_patch_normalizer(grid, counts)
                      * sqrt_bapu.values[k] * (E @ coef).T)
        spec[:, idx] += patch_spec
        max_q = max(max_q, float(group.quasi_norm(xi).max()))
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
    root = safe_power_values(W, pts, 1.0 / params.p, _local_scale(pts))
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
