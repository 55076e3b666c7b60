"""FFT-based band-limited computation on a periodized torus.

Fields live on a period box [-L, L)^d with L a multiple of pi, so the
frequency lattice has spacing pi/L and contains the integers.  The
transform normalization matches (2pi)^(-d/2) * integral of f e^(-ix.xi):
on the centered lattice the discrete transform is exact for band-limited
data up to wrap-around, which the experiments audit by construction
(test fields decay to ~1e-10 at the seam).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dilation import DilationGroup
from .geometry import AnisoBall, _lattice, ball_volume, compute_r0
from .muckenhoupt import (
    BallQuadrature,
    _LEVELS,
    _blocks,
    _check_exponent,
    safe_power_values,
    weighted_magnitudes,
)

_TAIL_FACTOR = 1.05
_TAIL_LIMIT = 1e-8
# relative widening of the box `_norm_within` solves, so that it holds its
# boundary: a point left out has |x|_2 >= (1 + _BOX_MARGIN) R, which its
# solve, rounding |x|_2 in the eigenbasis, would still read as R or more
_BOX_MARGIN = 1e-12


class SizeMismatch(ValueError):
    """Array shape does not match the grid."""


class SupportViolation(ValueError):
    """Declared spectral support exceeds the usable frequency lattice."""


class TruncationInsufficient(ValueError):
    """Spectral mass extends past the covered frequency region."""


# -- grid -----------------------------------------------------------------------


class FourierGrid:
    """Uniform spatial/frequency lattice pair on the torus of period 2L."""

    def __init__(self, d: int, n: int, L: float):
        if d not in (1, 2):
            raise ValueError("d must be 1 or 2")
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError("n must be a power of two, at least 4")
        if not (np.isfinite(L) and L > 0):
            raise ValueError(f"L must be finite and > 0, got {L}")
        k = L / np.pi
        if abs(k - round(k)) > 1e-12:
            raise ValueError("L must be a multiple of pi")
        self.d = d
        self.n = n
        self.L = float(L)
        self.h = 2.0 * L / n
        self.shape = (n,) * d
        ax = (np.arange(n) - n // 2)
        self.x_axis = ax * self.h
        self.xi_axis = ax * (np.pi / L)

    def __repr__(self):
        return f"FourierGrid(d={self.d}, n={self.n}, L={self.L / np.pi:g}*pi)"

    def spatial_points(self) -> np.ndarray:
        return _lattice([self.x_axis] * self.d)

    def frequency_points(self) -> np.ndarray:
        return _lattice([self.xi_axis] * self.d)

    @property
    def xi_max(self) -> float:
        return float(self.xi_axis[-1])

    def _check(self, values):
        values = np.asarray(values)
        if values.shape[-self.d:] != self.shape:
            raise SizeMismatch(f"expected trailing shape {self.shape}")
        return values

    def forward(self, values) -> np.ndarray:
        """Samples on the x-lattice to spectrum on the xi-lattice."""
        values = self._check(values)
        axes = tuple(range(-self.d, 0))
        shifted = np.fft.ifftshift(values, axes=axes)
        out = np.fft.fftshift(np.fft.fftn(shifted, axes=axes), axes=axes)
        return out * (self.h / np.sqrt(2 * np.pi)) ** self.d

    def inverse(self, spectrum) -> np.ndarray:
        spectrum = self._check(spectrum)
        axes = tuple(range(-self.d, 0))
        shifted = np.fft.ifftshift(spectrum, axes=axes)
        out = np.fft.fftshift(np.fft.ifftn(shifted, axes=axes), axes=axes)
        scale = (self.n * np.pi / (self.L * np.sqrt(2 * np.pi))) ** self.d
        return out * scale

    def l2_norm(self, values) -> float:
        values = self._check(values)
        return float(np.sqrt(np.sum(np.abs(values) ** 2) * self.h ** self.d))

    def evaluate_spectrum_at(self, spectrum, points) -> np.ndarray:
        """Exact band-limited evaluation at arbitrary points.

        Direct sum over the non-negligible spectral columns; exact on the
        lattice and legitimate off-lattice for band-limited data.
        """
        spectrum = self._check(spectrum)
        lead = spectrum.shape[:-self.d]
        flat = spectrum.reshape(lead + (-1,))
        mags = np.abs(flat).sum(axis=tuple(range(len(lead))))
        cols = np.flatnonzero(mags > 1e-15 * max(mags.max(), 1e-300))
        xi = self.frequency_points()[cols]
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        phases = np.exp(1j * (pts @ xi.T))
        coef = (np.pi / self.L) ** self.d / (2 * np.pi) ** (self.d / 2)
        return coef * np.einsum("...c,pc->...p", flat[..., cols], phases)


# -- band-limited fields -----------------------------------------------------------


@dataclass
class BandLimitedField:
    """Vector field with declared anisotropic spectral support ball."""

    grid: FourierGrid
    group: DilationGroup
    values: np.ndarray       # (N,) + grid.shape
    spectrum: np.ndarray     # (N,) + grid.shape
    ball: AnisoBall
    field_id: str = "field"

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def tail(self) -> float:
        """Spectral mass fraction outside the ball widened by _TAIL_FACTOR."""
        return _spectral_tail(self.grid, self.group, self.spectrum, self.ball)

    @classmethod
    def from_spectrum(cls, grid, group, spectrum, ball, field_id="field",
                      normalize=False):
        spectrum = np.asarray(spectrum, dtype=complex)
        if spectrum.shape[-grid.d:] != grid.shape:
            raise SizeMismatch(f"expected trailing shape {grid.shape}")
        if spectrum.ndim == grid.d:
            spectrum = spectrum[None]
        values = grid.inverse(spectrum)
        if normalize:
            peak = np.abs(values).max()
            if peak > 0:
                values = values / peak
                spectrum = spectrum / peak
        return cls(grid, group, values, spectrum, ball, field_id)

    @classmethod
    def from_values(cls, grid, group, values, ball, field_id="field"):
        values = np.asarray(values, dtype=complex)
        if values.ndim == grid.d:
            values = values[None]
        return cls(grid, group, values, grid.forward(values), ball, field_id)

    def is_band_limited(self) -> bool:
        return self.tail <= _TAIL_LIMIT

    def l2_norm(self) -> float:
        return self.grid.l2_norm(self.values)

    def at(self, points) -> np.ndarray:
        """Exact evaluation at arbitrary points: (N, m)."""
        return self.grid.evaluate_spectrum_at(self.spectrum, points)


def _spectral_tail(grid, group, spectrum, ball) -> float:
    # |xi - c|_A >= 1.05 R by the sign rule, bitwise the solve's answer
    outside = ~group._below(grid.frequency_points() - ball.center, _TAIL_FACTOR * ball.radius)
    mass = np.abs(spectrum.reshape(spectrum.shape[0], -1)) ** 2
    total = mass.sum()
    if total == 0:
        return 0.0
    return float(mass[:, outside].sum() / total)


# -- multipliers ---------------------------------------------------------------------


@dataclass
class MultiplierSpec:
    """Scalar symbol on the frequency lattice, supported in an aniso ball."""

    grid: FourierGrid
    group: DilationGroup
    symbol: np.ndarray
    ball: AnisoBall
    certificates: dict = field(default_factory=dict)

    @classmethod
    def from_profile(cls, grid, group, profile, ball):
        """Transport a unit-ball profile to B_A(c, R): phi(xi) = profile(T^-1 xi).

        |eta|_A is solved once on the whole lattice (`_unit_coordinates`),
        and the profile is called once, on the (m, d) points eta with
        |eta|_A < 1 only; the symbol is 0 elsewhere.  So the profile must be
        pointwise, and must return m values (`SizeMismatch` otherwise).  A
        profile that solves |eta|_A itself solves that batch alone, so inside
        the support its values may differ from a solve on the whole lattice
        by the solver's batch dependence (~1e-12 relative).  A ball that
        holds no lattice point gives the zero symbol without a profile call.
        """
        return cls._from_unit(grid, group, profile, ball, _unit_coordinates(grid, group, ball))

    @classmethod
    def _from_unit(cls, grid, group, profile, ball, unit):
        """`from_profile` given the ball's `_unit_coordinates`."""
        eta, s = unit
        inside = s < 1.0
        vals = np.zeros(len(s), dtype=complex)
        if inside.any():
            pts = eta[inside]
            got = np.asarray(profile(pts), dtype=complex)
            if got.shape != (len(pts),):
                raise SizeMismatch(f"profile returned shape {got.shape} for {len(pts)} points")
            vals[inside] = got
        return cls(grid, group, vals.reshape(grid.shape), ball)


def _unit_coordinates(grid: FourierGrid, group: DilationGroup, ball: AnisoBall,
                      support_only: bool = False):
    """(eta, |eta|_A) at every lattice point, eta = delta_(1/R)(xi - c) for B_A(c, R).

    |eta|_A is solved in one call on the whole lattice.  With support_only
    the call solves only the box |eta|_inf <= 1 of the unit ball
    (`_norm_within`) and |eta|_A reads inf outside it.  A point left out
    has |eta|_2 > 1, so the solve would give it a bisection bracket at or
    above 1 in any batch: it can never enter the support |eta|_A < 1.  A
    point in the box is solved in another batch than the whole lattice, so
    its value may differ from the whole-lattice solve by the solver's batch
    dependence (~1e-12 relative), and a point within that distance of
    |eta|_A = 1 may enter or leave the support.  The support and the values
    inside it are all a symbol or an ensemble reads.
    """
    eta = group.dilate(1.0 / ball.radius, grid.frequency_points() - ball.center)
    return eta, _norm_within(group, eta, 1.0) if support_only else group.quasi_norm(eta)


def _norm_within(group: DilationGroup, pts: np.ndarray, r: float) -> np.ndarray:
    """|pts|_A inside the Euclidean box of B_A(0, r), inf outside it.

    Only the box |pts|_inf <= euclidean_radius_bound(r) (widened by
    _BOX_MARGIN) is solved, in one call, even if it is empty.  B_A(0, r)
    lies inside it, and outside it the bisection bracket starts at r, so a
    solve there gives r or more up to rounding.  smooth_plateau(s, inner, r)
    is 0 bitwise for every s above r - (r - inner) / 750, so it reads 0
    there from inf as from a solve.
    """
    near = np.max(np.abs(pts), axis=1) < group.euclidean_radius_bound(r) * (1.0 + _BOX_MARGIN)
    out = np.full(len(pts), np.inf)
    out[near] = group.quasi_norm(pts[near])
    return out


def apply_multiplier(phi: MultiplierSpec, f: BandLimitedField) -> BandLimitedField:
    """phi(D) f by pointwise spectral multiplication."""
    if phi.grid is not f.grid and phi.grid.shape != f.grid.shape:
        raise SizeMismatch("multiplier and field live on different grids")
    reach = f.group.euclidean_radius_bound(f.ball.radius)
    if np.max(np.abs(f.ball.center)) + reach > f.grid.xi_max * (1 + 1e-12):
        raise SupportViolation(
            "field support ball exceeds the representable frequency box"
        )
    out_spec = f.spectrum * phi.symbol[None]
    out_ball = phi.ball if phi.ball.radius < f.ball.radius else f.ball
    return BandLimitedField.from_spectrum(
        f.grid, f.group, out_spec, out_ball, field_id=f"phi({f.field_id})"
    )


def decay_certificate(phi: MultiplierSpec, M: float) -> float:
    """K = max |F^-1 phi|(x) (1 + R|x|_A)^M / R^nu over the grid."""
    if M <= 0:
        raise ValueError("M must be positive")
    inv = phi.grid.inverse(phi.symbol)
    pts = phi.grid.spatial_points()
    qn = phi.group.quasi_norm(pts).reshape(phi.grid.shape)
    R = phi.ball.radius
    K = float(np.max(np.abs(inv) * (1.0 + R * qn) ** M) / R ** phi.group.nu)
    phi.certificates[float(M)] = K
    return K


# -- weighted norms -------------------------------------------------------------------


def _grid_root(grid: FourierGrid, W, p: float):
    """W^(1/p) at the spatial grid points, as `safe_power_values` returns it.

    A matrix root comes back complex and node-last in memory: an (m, N, N)
    view of an (N, N, m) C-order array.  The fields it weighs are complex,
    and `weighted_magnitudes` reads the root one contiguous (m,) plane
    root[:, i, j] at a time.  The values are bitwise the cast of
    `safe_power_values`.
    """
    _check_exponent(p)
    pts = grid.spatial_points()
    root = safe_power_values(W, pts, 1.0 / p, 1.0 + grid.L)  # 1 + max |x| on the grid
    if root is None or root.ndim == 1:
        return root
    return np.ascontiguousarray(root.transpose(1, 2, 0), dtype=complex).transpose(2, 0, 1)


def _riemann_norm(mags: np.ndarray, p: float, cell: float) -> np.ndarray:
    """(cell * sum mags^p)^(1/p) over the last axis: L^p norms from magnitudes on a grid.

    A stack of rows gives one norm per row.  Each p-th root is taken on its
    own numpy scalar, as a lone row's is: ** on an array may round
    differently (at p = 2 it takes np.sqrt).
    """
    sums = cell * np.sum(mags ** p, axis=-1)
    return np.array([s ** (1.0 / p) for s in np.ravel(sums)]).reshape(np.shape(sums))


def weighted_lp_norm(f: BandLimitedField, W, p: float) -> float:
    """Grid Riemann sum of |W^(1/p) f|^p over the period box, p-th root."""
    return _audited_norm(f, _grid_root(f.grid, W, p), p)[0]


def weighted_lp_norm_with_audit(f: BandLimitedField, W, p: float) -> tuple[float, float]:
    """Norm plus an error estimate from comparing with the half-resolution sum."""
    return _audited_norm(f, _grid_root(f.grid, W, p), p)


def _audited_norm(f: BandLimitedField, root, p: float) -> tuple[float, float]:
    grid = f.grid
    mags = weighted_magnitudes(root, f.values.reshape(f.N, -1).T)
    value = float(_riemann_norm(mags, p, grid.h ** grid.d))
    mags = mags.reshape(grid.shape)
    sub = mags[::2] if grid.d == 1 else mags[::2, ::2]
    coarse = float(_riemann_norm(sub.ravel(), p, (2 * grid.h) ** grid.d))
    return value, abs(value - coarse)


# -- smooth profiles -------------------------------------------------------------------


def _expstep(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.where(t < 1, 1.0 - t, 1.0)), 0.0)
    return a / (a + b)


def smooth_plateau(s, inner: float, outer: float):
    """1 for s <= inner, 0 for s >= outer, smooth transition between."""
    return _expstep((outer - np.asarray(s)) / (outer - inner))


def poly_plateau(s, inner: float, outer: float):
    """C^3 plateau with a degree-7 ramp; spatial tails decay like x^-5
    with a far smaller constant than the exp-type mollifier at desk scales."""
    t = np.clip((outer - np.asarray(s)) / (outer - inner), 0.0, 1.0)
    return t ** 4 * (35.0 + t * (-84.0 + t * (70.0 - 20.0 * t)))


# -- test-field ensemble ----------------------------------------------------------------


def standard_ensemble(grid: FourierGrid, group: DilationGroup, ball: AnisoBall,
                      N: int = 1, seed: int = 0) -> list[BandLimitedField]:
    """Deterministic catalog of band-limited fields transported into a ball.

    Each member is built from a closed-form spectrum on the unit ball and
    mapped by eta = delta_(1/R)(xi - c), so membership in E_B is exact on
    the lattice.  Fields are sup-normalized.  |eta|_A is solved once on the
    whole lattice (`_unit_coordinates`); each plateau bump solves only the
    points in the Euclidean box of its support (`_norm_within`), and every
    member is evaluated only where |eta|_A < 1, so the spectra are 0
    elsewhere.  Inside a bump's support its values may differ from a solve
    on the whole lattice by the solver's batch dependence (~1e-12 relative).
    """
    return _ensemble(grid, group, ball, _unit_coordinates(grid, group, ball), N, seed)


def _ensemble(grid, group, ball, unit, N, seed):
    """`standard_ensemble` given the ball's `_unit_coordinates`."""
    eta, s = unit
    inside = s < 1.0
    # on the support clip(s, 0, 1) is s, and cut is 0 from s = 0.94 on
    s_in = s[inside]
    r = np.linalg.norm(eta[inside], axis=1)
    e1 = np.eye(group.d)[0]
    cut = smooth_plateau(s_in, 0.72, 0.94)

    rng = np.random.default_rng(np.random.SeedSequence((seed, 77)))
    a = rng.standard_normal(4)
    b = rng.standard_normal(4)

    def on_support(values):
        out = np.zeros(len(s))
        out[inside] = values
        return out

    # the gaussian member is hard-truncated where it has already decayed to
    # ~1e-7, so its spatial tails clear the sampling window and period seam
    specs = {
        "gauss": on_support(np.exp(-(r / 0.25) ** 2)),
        "offcenter": smooth_plateau(_norm_within(group, eta - 0.45 * e1, 0.38), 0.12, 0.38),
        "two_bumps": (
            smooth_plateau(_norm_within(group, eta - 0.4 * e1, 0.3), 0.08, 0.3)
            + 0.7 * smooth_plateau(_norm_within(group, eta + 0.5 * e1, 0.25), 0.08, 0.25)
        ),
        "random_smooth": on_support(cut * (
            1.0 + sum(a[j] * np.cos((j + 1) * np.pi * s_in) +
                      b[j] * np.sin((j + 1) * np.pi * r) for j in range(4))
        )),
    }
    # component k of a member is its spectrum times w_k e^(i pi k / N), w_k from 1 to 0.4
    mix = (np.linspace(1.0, 0.4, N) * np.exp(1j * np.pi * np.arange(N) / N))[:, None]
    return [BandLimitedField.from_spectrum(grid, group, (mix * flat).reshape((N,) + grid.shape),
                                           ball, field_id=name, normalize=True)
            for name, flat in specs.items()]


# -- multiplier experiment -----------------------------------------------------------------


def required_decay_order(group: DilationGroup, p: float) -> float:
    """Decay order the multiplier certificate must beat for L^p(W) bounds."""
    beta = max(group.nu, group.nu * p)
    return max(group.nu + max(0.0, p - 1.0) * beta,
               (group.nu + beta) / min(1.0, p))


@dataclass
class ExperimentRow:
    R: float
    c: tuple
    field_id: str
    ratio: float
    error: float


def multiplier_bound_experiment(W, p: float, profile, R_set, c_set,
                                grid: FourierGrid, group: DilationGroup,
                                ensemble_seed: int = 0, N: int = 1) -> list[ExperimentRow]:
    """Ratios ||phi(D)f|| / ||f|| in L^p(W) over transported supports.

    The profile is certified once at the unit scale with decay order one
    above the theoretical threshold; each (R, c) then transports the symbol
    and the test ensemble by the same affine map, from one solve of
    |delta_(1/R)(xi - c)|_A per ball; the row (1, 0) reuses the certified
    symbol and its solve.  Only the decay certificate solves a whole
    lattice (the spatial one).  The per-ball solve covers the box
    |eta|_inf <= 1 of the unit ball, the profile (which must be pointwise)
    sees only the points with |eta|_A < 1, and the ensemble's plateau
    bumps solve only the boxes of their supports.  Inside a support a
    value may thus differ from that of `from_profile` or
    `standard_ensemble`, which solve the whole lattice, by the solver's
    batch dependence (~1e-12 relative), and a lattice point within that
    distance of |eta|_A = 1 may enter or leave the support; a point outside
    the box never enters it.  Every field lives on `grid`, so
    the weight root is evaluated once for all rows.  A member of E_B with
    no lattice point in its support has norm 0 and raises `ValueError`.
    """
    _check_exponent(p)
    M_req = required_decay_order(group, p) + 1.0
    unit_ball = AnisoBall(np.zeros(group.d), 1.0)
    unit0 = _unit_coordinates(grid, group, unit_ball, support_only=True)
    phi0 = MultiplierSpec._from_unit(grid, group, profile, unit_ball, unit0)
    K = decay_certificate(phi0, M_req)
    if not np.isfinite(K):
        raise ValueError("profile failed its decay certificate")
    root = _grid_root(grid, W, p)
    rows = []
    for R in R_set:
        for c in c_set:
            ball = AnisoBall(np.asarray(c, dtype=float), float(R))
            if ball.radius == 1.0 and not ball.center.any():
                # the same symbol and |eta|_A, bitwise: delta_1 is the identity
                phi, unit = phi0, unit0
            else:
                unit = _unit_coordinates(grid, group, ball, support_only=True)
                phi = MultiplierSpec._from_unit(grid, group, profile, ball, unit)
            for f in _ensemble(grid, group, ball, unit, N, ensemble_seed):
                num, err_n = _audited_norm(apply_multiplier(phi, f), root, p)
                den, err_d = _audited_norm(f, root, p)
                if den == 0:
                    raise ValueError(f"member {f.field_id} of E_B has no lattice point in its "
                                     f"support at R = {R}, c = {tuple(ball.center.tolist())}")
                ratio = num / den
                err = ratio * ((err_n / max(num, 1e-300)) + (err_d / max(den, 1e-300)))
                rows.append(ExperimentRow(float(R), tuple(np.ravel(c)), f.field_id,
                                          float(ratio), float(err)))
    return rows


# -- sampling inequality ---------------------------------------------------------------------


def sampling_inequality_experiment(W, p: float, ball: AnisoBall,
                                   fields: list[BandLimitedField],
                                   quad: BallQuadrature,
                                   G: DilationGroup) -> list[ExperimentRow]:
    """Cell sums of sampled field values against the weighted norm.

    For each field g in E_B computes
        sum_l |U(B,l)|-integral of |W^(1/p)(x) g(delta_R^-1 l)|^p
    over cells U(B,l) = delta_R^-1(B_A(0,r0) + l) inside the period box,
    divided by ||g||_(L^p(W))^p, with r0 = compute_r0(G).  Every field lives
    on one grid (`SizeMismatch` otherwise), so the cells are built once.
    The cells that some field needs run in blocks (`_blocks`), whose nodes
    one dilation of the reference nodes places, with one weight root per
    block, each node nudged off the singular set by its cell's scale; every field adds its own non-negligible cells from that
    root, in cell order.  One grid root serves every denominator.  The
    reconstruction formula of the sampling theorem is checked in
    tests/test_spectral.py.
    """
    _check_exponent(p)
    if not fields:
        return []
    grid = fields[0].grid
    if any(g.grid.shape != grid.shape or g.grid.L != grid.L for g in fields):
        raise SizeMismatch("sampling fields live on different grids")
    R = ball.radius
    # cells whose centers delta_R^-1 l fall inside the period box
    reach = np.abs(G.dilation_matrix(R)) @ np.full(G.d, grid.L)
    ls = _lattice([np.arange(-np.floor(h), np.floor(h) + 1) for h in reach])
    centers = G.dilate(1.0 / R, ls)
    centers = centers[np.max(np.abs(centers), axis=1) < grid.L]
    samples = [g.at(centers) for g in fields]  # (N, cells) each
    mags = [np.linalg.norm(s, axis=0) for s in samples]
    kept = [m > 1e-9 * m.max() for m in mags]
    used = np.flatnonzero(np.any(kept, axis=0))
    cell_radius = compute_r0(G) / R
    cells = [AnisoBall(c, cell_radius) for c in centers[used]]
    vol = ball_volume(G, cell_radius)
    lhs = [0.0] * len(fields)
    done = 0
    for count, [(X, sx)] in _blocks(G, cells, [quad.reference_nodes(G, _LEVELS - 1)]):
        root = safe_power_values(W, X, 1.0 / p, sx)
        roots = [None] * count if root is None else np.split(root, count)
        for i, root in zip(used[done:done + count], roots):
            for k, (s, keep) in enumerate(zip(samples, kept)):
                if keep[i]:
                    lhs[k] += vol * float(np.mean(weighted_magnitudes(root, s[:, i]) ** p))
        done += count
    root = _grid_root(grid, W, p)
    rows = []
    for g, total in zip(fields, lhs):
        den, err = _audited_norm(g, root, p)
        ratio = total / den ** p if den > 0 else 0.0
        rows.append(ExperimentRow(float(R), tuple(ball.center), g.field_id,
                                  float(ratio), float(p * ratio * err / max(den, 1e-300))))
    return rows
