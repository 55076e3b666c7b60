"""FFT-based band-limited computation on a periodized torus.

Fields live on a period box [-L, L)^d with L a multiple of pi, so the
frequency lattice has spacing pi/L and contains the integers.  The
transform normalization matches (2pi)^(-d/2) * integral of f e^(-ix.xi):
on the centered lattice the discrete transform is exact for band-limited
data up to wrap-around, which the experiments audit by construction
(test fields decay to ~1e-10 at the seam).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dilation import DilationGroup
from .geometry import AnisoBall, _lattice, ball_volume, compute_r0
from .muckenhoupt import (
    BallQuadrature,
    _LEVELS,
    _local_scale,
    safe_power_values,
    weighted_magnitudes,
)

_TAIL_FACTOR = 1.05
_TAIL_LIMIT = 1e-8


class SizeMismatch(ValueError):
    """Array shape does not match the grid."""


class SupportViolation(ValueError):
    """Declared spectral support exceeds the usable frequency lattice."""


class KernelInvalid(ValueError):
    """Interpolation kernel spectrum is not 1 on the target ball."""


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
    xi = grid.frequency_points()
    dist = group.quasi_norm(xi - ball.center)
    outside = dist >= _TAIL_FACTOR * ball.radius
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
        """Transport a unit-ball profile to B_A(c, R): phi(xi) = profile(T^-1 xi)."""
        xi = grid.frequency_points()
        eta = group.dilate(1.0 / ball.radius, xi - ball.center)
        vals = np.asarray(profile(eta), dtype=complex)
        inside = group.quasi_norm(eta) < 1.0
        vals = np.where(inside, vals, 0.0)
        return cls(grid, group, vals.reshape(grid.shape), ball)


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

    A matrix root comes back complex: the fields it weighs are complex, and
    `weighted_magnitudes` would otherwise cast a real root on every call.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    pts = grid.spatial_points()
    root = safe_power_values(W, pts, 1.0 / p, _local_scale(pts))
    return root.astype(complex, copy=False) if root is not None and root.ndim == 3 else root


def _riemann_norm(mags: np.ndarray, p: float, cell: float) -> float:
    """(cell * sum mags^p)^(1/p): an L^p norm from magnitudes on a grid."""
    return float((cell * np.sum(mags ** p)) ** (1.0 / p))


def weighted_lp_norm(f: BandLimitedField, W, p: float) -> float:
    """Grid Riemann sum of |W^(1/p) f|^p over the period box, p-th root."""
    return _audited_norm(f, _grid_root(f.grid, W, p), p)[0]


def weighted_lp_norm_with_audit(f: BandLimitedField, W, p: float) -> tuple[float, float]:
    """Norm plus an error estimate from comparing with the half-resolution sum."""
    return _audited_norm(f, _grid_root(f.grid, W, p), p)


def _audited_norm(f: BandLimitedField, root, p: float) -> tuple[float, float]:
    grid = f.grid
    mags = weighted_magnitudes(root, f.values.reshape(f.N, -1).T)
    value = _riemann_norm(mags, p, grid.h ** grid.d)
    mags = mags.reshape(grid.shape)
    sub = mags[::2] if grid.d == 1 else mags[::2, ::2]
    coarse = _riemann_norm(sub, p, (2 * grid.h) ** grid.d)
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
    the lattice.  Fields are sup-normalized.
    """
    xi = grid.frequency_points()
    eta = group.dilate(1.0 / ball.radius, xi - ball.center)
    s = group.quasi_norm(eta)
    r = np.linalg.norm(eta, axis=1)
    cut = smooth_plateau(s, 0.72, 0.94)

    rng = np.random.default_rng(np.random.SeedSequence((seed, 77)))
    a = rng.standard_normal(4)
    b = rng.standard_normal(4)

    # the gaussian member is hard-truncated where it has already decayed to
    # ~1e-7, so its spatial tails clear the sampling window and period seam
    specs = {
        "gauss": np.exp(-(r / 0.25) ** 2) * (s < 1.0),
        "offcenter": smooth_plateau(
            group.quasi_norm(eta - 0.45 * _unit_vector(group)), 0.12, 0.38
        ),
        "two_bumps": (
            smooth_plateau(group.quasi_norm(eta - 0.4 * _unit_vector(group)), 0.08, 0.3)
            + 0.7 * smooth_plateau(group.quasi_norm(eta + 0.5 * _unit_vector(group)), 0.08, 0.25)
        ),
        "random_smooth": cut * (
            1.0 + sum(a[j] * np.cos((j + 1) * np.pi * np.clip(s, 0, 1)) +
                      b[j] * np.sin((j + 1) * np.pi * r) for j in range(4))
        ),
    }
    fields = []
    for name, flat in specs.items():
        base = flat.reshape(grid.shape)
        if N == 1:
            spec = base[None]
        else:
            weights = np.linspace(1.0, 0.4, N)[:, None]
            phases = np.exp(1j * np.pi * np.arange(N) / max(N, 1))[:, None]
            spec = (weights * phases) * flat[None, :]
            spec = spec.reshape((N,) + grid.shape)
        fields.append(BandLimitedField.from_spectrum(
            grid, group, spec, ball, field_id=name, normalize=True
        ))
    return fields


def _unit_vector(group: DilationGroup) -> np.ndarray:
    e = np.zeros(group.d)
    e[0] = 1.0
    return e


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
    and the test ensemble by the same affine map; the row (1, 0) reuses the
    certified symbol.  Every field lives on `grid`, so the weight root is
    evaluated once for all rows.
    """
    M_req = required_decay_order(group, p) + 1.0
    unit_ball = AnisoBall(np.zeros(group.d), 1.0)
    phi0 = MultiplierSpec.from_profile(grid, group, profile, unit_ball)
    K = decay_certificate(phi0, M_req)
    if not np.isfinite(K):
        raise ValueError("profile failed its decay certificate")
    root = _grid_root(grid, W, p)
    rows = []
    for R in R_set:
        for c in c_set:
            ball = AnisoBall(np.asarray(c, dtype=float), float(R))
            if ball.radius == 1.0 and not ball.center.any():
                phi = phi0  # the same symbol, bitwise: delta_1 is the identity
            else:
                phi = MultiplierSpec.from_profile(grid, group, profile, ball)
            for f in standard_ensemble(grid, group, ball, N=N, seed=ensemble_seed):
                num, err_n = _audited_norm(apply_multiplier(phi, f), root, p)
                den, err_d = _audited_norm(f, root, p)
                ratio = num / den
                err = ratio * ((err_n / max(num, 1e-300)) + (err_d / max(den, 1e-300)))
                rows.append(ExperimentRow(float(R), tuple(np.ravel(c)), f.field_id,
                                          float(ratio), float(err)))
    return rows


# -- interpolation kernel ---------------------------------------------------------------------


def _poly_segment_ft(coeffs, z0: float, z1: float, x: np.ndarray) -> np.ndarray:
    """integral of p(z) e^(i x z) over [z0, z1] for p given by coeffs.

    Closed form through the antiderivative for |x| away from 0 and a Taylor
    series near 0; exact to machine precision in both regimes.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    zmax = max(abs(z0), abs(z1))
    small = np.abs(x) * zmax < 2.0
    big = ~small
    if np.any(big):
        xb = x[big]
        ix = 1j * xb
        e1 = np.exp(ix * z1)
        e0 = np.exp(ix * z0)
        acc = np.zeros(xb.shape, dtype=complex)
        for k, c in enumerate(coeffs):
            if c == 0.0:
                continue
            term1 = np.zeros_like(acc)
            term0 = np.zeros_like(acc)
            fact = 1.0
            for m in range(k + 1):
                # antiderivative: sum_m (-1)^m k!/(k-m)! z^(k-m) / (ix)^(m+1)
                term1 += (-1) ** m * fact * z1 ** (k - m) / ix ** (m + 1)
                term0 += (-1) ** m * fact * z0 ** (k - m) / ix ** (m + 1)
                fact *= (k - m)
            acc += c * (e1 * term1 - e0 * term0)
        out[big] = acc
    if np.any(small):
        xs = x[small]
        acc = np.zeros(xs.shape, dtype=complex)
        prev_tiny = False
        for j in range(48):
            seg = sum(c * (z1 ** (k + j + 1) - z0 ** (k + j + 1)) / (k + j + 1)
                      for k, c in enumerate(coeffs) if c != 0.0)
            term = (1j * xs) ** j / math.factorial(j) * seg
            acc += term
            tiny = bool(np.all(np.abs(term) < 1e-18))
            if tiny and prev_tiny:
                break
            prev_tiny = tiny
        out[small] = acc
    return out


def _smootherstep_coeffs():
    """Degree-7 C^3 step on [0,1]: 35 t^4 - 84 t^5 + 70 t^6 - 20 t^7."""
    return np.array([0.0, 0.0, 0.0, 0.0, 35.0, -84.0, 70.0, -20.0])


def _shift_poly(coeffs: np.ndarray, a: float, b: float) -> np.ndarray:
    """Coefficients in z of p((b - z)/(b - a)) given p in t."""
    width = b - a
    t_in_z = np.array([b / width, -1.0 / width])  # t = (b - z)/width
    out = np.zeros(len(coeffs))
    power = np.array([1.0])
    for k, c in enumerate(coeffs):
        if c != 0.0:
            padded = np.zeros(len(coeffs))
            padded[: len(power)] = c * power
            out += padded
        power = np.convolve(power, t_in_z)
    return out


class InterpolationKernel:
    """Separable kernel with spectrum 1 on [-a, a]^d and support in (-b, b)^d.

    The per-axis spectrum is a degree-7 smootherstep ramp, so the spatial
    kernel decays like |x|^(-5) and has a machine-accurate closed form.
    """

    def __init__(self, a: float = 1.0, b: float = None, d: int = 1):
        if b is None:
            b = 3.0 / np.sqrt(d)
        if not 0 < a < b:
            raise KernelInvalid("need 0 < a < b")
        self.a = float(a)
        self.b = float(b)
        self.d = d
        self._ramp = _shift_poly(_smootherstep_coeffs(), self.a, self.b)

    def spectrum_axis(self, z) -> np.ndarray:
        return poly_plateau(np.abs(np.asarray(z, dtype=float)), self.a, self.b)

    def axis_values(self, x) -> np.ndarray:
        """(2pi)^(-1/2) integral of the axis spectrum times e^(ixz)."""
        x = np.asarray(x, dtype=float)
        plateau = _poly_segment_ft([1.0], -self.a, self.a, x)
        up = _poly_segment_ft(self._ramp, self.a, self.b, x)
        # mirrored ramp: even spectrum, flip odd coefficients
        down_coeffs = self._ramp * (-1.0) ** np.arange(len(self._ramp))
        down = _poly_segment_ft(down_coeffs, -self.b, -self.a, x)
        return np.real(plateau + up + down) / np.sqrt(2 * np.pi)

    def values(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.ones(len(pts))
        for i in range(pts.shape[1]):
            out = out * self.axis_values(pts[:, i])
        return out

    def validate(self, grid: FourierGrid, group: DilationGroup,
                 ball: AnisoBall = None) -> None:
        """Spectrum must be exactly 1 on the lattice points of the ball."""
        if ball is None:
            ball = AnisoBall(np.zeros(group.d), 1.0)
        xi = grid.frequency_points()
        inside = group.quasi_norm(xi - ball.center) < ball.radius
        spec = np.ones(len(xi))
        for i in range(xi.shape[1]):
            spec *= self.spectrum_axis(xi[:, i])
        if np.max(np.abs(spec[inside] - 1.0)) > 1e-12:
            raise KernelInvalid("kernel spectrum is not 1 on the ball lattice")


def sampling_representation(f: BandLimitedField, kernel: InterpolationKernel,
                            u, truncation: int) -> float:
    """Max node error of the truncated shifted-lattice reconstruction.

    Rebuilds f(x) as (2pi)^(-d/2) sum_l f(l + u) gamma(x - u - l) over
    |l|_inf <= truncation and compares on the grid (a centered subsample in
    two dimensions).  The (2pi)^(-d/2) factor pairs the unit kernel
    spectrum with the unitary transform normalization.
    """
    grid, group = f.grid, f.group
    if f.ball.radius > 1.0 + 1e-12 or np.any(f.ball.center != 0.0):
        raise SupportViolation("sampling representation needs supp in B_A(0,1)")
    kernel.validate(grid, group, AnisoBall(np.zeros(group.d), 1.0))
    u = np.asarray(u, dtype=float)
    ls = _lattice([np.arange(-truncation, truncation + 1)] * group.d).astype(float)
    samples = f.at(ls + u)  # (N, m)
    if group.d == 1:
        eval_pts = grid.spatial_points()
        truth = f.values.reshape(f.N, -1)
    else:
        step = max(1, grid.n // 64)
        sl = slice(None, None, step)
        mesh = f.values[:, sl, sl]
        truth = mesh.reshape(f.N, -1)
        eval_pts = _lattice([grid.x_axis[sl]] * 2)
    recon = np.zeros_like(truth)
    for i, l in enumerate(ls):
        g = kernel.values(eval_pts - u - l)
        recon += samples[:, i][:, None] * g[None, :]
    recon *= (2 * np.pi) ** (-group.d / 2)
    return float(np.max(np.abs(recon - truth)))


# -- sampling inequality ---------------------------------------------------------------------


def sampling_inequality_experiment(W, p: float, ball: AnisoBall,
                                   fields: list[BandLimitedField],
                                   quad: BallQuadrature,
                                   G: DilationGroup) -> list[ExperimentRow]:
    """Cell sums of sampled field values against the weighted norm.

    For each field g in E_B computes
        sum_l |U(B,l)|-integral of |W^(1/p)(x) g(delta_R^-1 l)|^p
    over cells U(B,l) = delta_R^-1(B_A(0,r0) + l) inside the period box,
    divided by ||g||_(L^p(W))^p, with r0 = compute_r0(G, 0.01).
    """
    R = ball.radius
    r0 = compute_r0(G, 0.01)
    rows = []
    for g in fields:
        grid = g.grid
        # cells whose centers delta_R^-1 l fall inside the period box
        reach = np.abs(G.dilation_matrix(R)) @ np.full(G.d, grid.L)
        ls = _lattice([np.arange(-np.floor(h), np.floor(h) + 1) for h in reach])
        centers = G.dilate(1.0 / R, ls)
        keep = np.max(np.abs(centers), axis=1) < grid.L
        centers = centers[keep]
        samples = g.at(centers)  # (N, m)
        mags = np.linalg.norm(samples, axis=0)
        big = mags > 1e-9 * mags.max()
        centers, samples = centers[big], samples[:, big]
        cell_radius = r0 / R
        vol = ball_volume(G, cell_radius)
        lhs = 0.0
        for idx in range(len(centers)):
            cell = AnisoBall(centers[idx], cell_radius)
            nodes = quad.ball_nodes(G, cell, _LEVELS - 1, task=idx)
            root = safe_power_values(W, nodes, 1.0 / p, _local_scale(nodes))
            m = weighted_magnitudes(root, samples[:, idx])
            lhs += vol * float(np.mean(m ** p))
        den, err = weighted_lp_norm_with_audit(g, W, p)
        ratio = lhs / den ** p if den > 0 else 0.0
        rows.append(ExperimentRow(float(R), tuple(ball.center), g.field_id,
                                  float(ratio), float(p * ratio * err / max(den, 1e-300))))
    return rows


# -- snapshots ----------------------------------------------------------------------------------


def save_field(path, f: BandLimitedField) -> None:
    """Flat binary snapshot with a one-line text header."""
    header = (f"anisofield d={f.grid.d} n={f.grid.n} L_over_pi={f.grid.L / np.pi:.17g} "
              f"N={f.N} layout=row-major dtype=complex128\n")
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(np.ascontiguousarray(f.values).tobytes())


def load_field(path, group: DilationGroup, ball: AnisoBall,
               field_id="loaded") -> BandLimitedField:
    with open(path, "rb") as fh:
        header = fh.readline().decode().strip()
        raw = fh.read()
    parts = dict(kv.split("=") for kv in header.split()[1:])
    grid = FourierGrid(int(parts["d"]), int(parts["n"]),
                       float(parts["L_over_pi"]) * np.pi)
    N = int(parts["N"])
    values = np.frombuffer(raw, dtype=complex).reshape((N,) + grid.shape)
    return BandLimitedField.from_values(grid, group, values, ball, field_id=field_id)
