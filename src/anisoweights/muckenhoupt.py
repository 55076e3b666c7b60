"""Muckenhoupt quantities for scalar and matrix weights over anisotropic balls.

Family-wide constants are maxima over finite, documented ball families and
therefore lower bounds for the supremum over all balls.  Every reported
value comes from a quadrature refinement ladder (node counts n, 4n, 16n)
with a Richardson-style error estimate; essential suprema are approximated
by node maxima, with nodes perturbed off singular sets.  The matrix norm
convention is the spectral norm throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .dilation import DilationGroup
from .geometry import (
    AffineMap,
    AnisoBall,
    _halton,
    _lattice,
    _normal_directions,
    ball_volume,
    compute_r0,
    map_ball,
)
from .weights import SingularWeight

NORM_CONVENTION = "spectral"
_LEVELS = 3
# dyadic annuli `weighted_tail_bound` sums before it gives up
_TAIL_DEPTH = 40


class NonIntegrable(ArithmeticError):
    """Quadrature averages keep growing under node refinement."""


class TruncationNotConverged(RuntimeError):
    """Annulus partial sums failed to go Cauchy within _TAIL_DEPTH annuli."""


# -- spectral norms of stacked matrices ---------------------------------------


# matrices (node pairs) per kernel call: one plane is 32 kB, and at N = 3 the
# planes of one call take 0.3 MB (real) or 0.6 MB (complex).  The kernel
# scales its planes in place.  With a fresh temporary of that size per step
# and a small heap (no scipy imported), an ap-matrix-2d pass took about
# 30,100 minor page faults; in place it takes 0-25.  Half this chunk avoids
# the faults too, but its passes ran 6-10% slower on a 2-core x86 box.
_CHUNK = 1 << 12
# Below this value of 1 + r the two largest Gram eigenvalues are nearly equal
# and cos(acos(r) / 3) loses digits (relative error ~ 1e-16 / sqrt(1 + r),
# 4e-9 at a repeated top singular value); such matrices go to LAPACK.
_NEAR_DOUBLE_TOP = 1e-3


def spectral_norms(M: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (..., N, N) stack.

    Each chunk of `_CHUNK` matrices is copied into planes S[i, j] (entry
    (i, j) of every matrix) and handed to one planar kernel, `_plane_norms`,
    which `_pair_norms` feeds directly from its batched matmul; the kernel
    scales its planes in place, and M is left unchanged.  N = 1 is |M|.
    N = 2 and N = 3 use a closed form: each matrix is scaled by its largest
    |Re| or |Im| entry, the largest eigenvalue of the Hermitian Gram matrix
    S^H S is taken from the quadratic formula (N = 2) or the trigonometric
    formula of Smith (1961) (N = 3), and the norm is scale * sqrt(lambda_max).
    A real stack takes the real path, which has no imaginary plane.  The
    scaling keeps entries from 1e-300 to 1e300 in range.  For N = 3 the few
    matrices whose two largest singular values nearly coincide, where the
    trigonometric formula is ill-conditioned, are gathered back from the
    planes and handed to LAPACK.  Against LAPACK SVD the relative error is below 1e-14.  A matrix
    with a non-finite entry gives NaN for N <= 3 (which `ladder_estimate`
    reports as `NonIntegrable`); N >= 4 uses LAPACK SVD throughout and
    raises `LinAlgError` on such input.
    """
    N = M.shape[-1]
    flat = M.reshape(-1, N, N)
    out = np.empty(len(flat))
    for i in range(0, len(flat), _CHUNK):
        out[i:i + _CHUNK] = _plane_norms(flat[i:i + _CHUNK].transpose(1, 2, 0).copy())
    return out.reshape(M.shape[:-2])


def _svd_norms(flat: np.ndarray) -> np.ndarray:
    return np.linalg.svd(flat, compute_uv=False)[:, 0]


def _plane_norms(S: np.ndarray) -> np.ndarray:
    """Spectral norms of the matrices with entries S[i, j], shape S.shape[2:].

    S has shape (N, N, ...) and each plane S[i, j] holds entry (i, j) of
    every matrix.  The kernel owns S: for N = 2 and 3 it scales S in place.
    """
    N = len(S)
    if N == 1:
        return np.abs(S[0, 0])
    if N <= 3:
        return _gram_norms(S)
    return _svd_norms(_gather(S, ...)).reshape(S.shape[2:])


def _gather(S: np.ndarray, where) -> np.ndarray:
    """The (k, N, N) stack of the matrices S[:, :, where] of planes S."""
    return np.moveaxis(S[:, :, where], (0, 1), (-2, -1)).reshape(-1, *S.shape[:2])


@np.errstate(invalid="ignore")
def _gram_norms(S: np.ndarray) -> np.ndarray:
    """Closed-form spectral norms of the planes S[i, j, ...], N = 2 or 3.

    S is scaled in place (see `_CHUNK`), and the LAPACK hand-off scales the
    norms of the scaled matrices back.
    """
    N = len(S)
    # every step below is an elementwise operation on whole planes
    X, Y = S.real, S.imag if np.iscomplexobj(S) else None  # S_ij = X[i, j] + i Y[i, j]
    scale = np.abs(X).max(axis=(0, 1))
    if Y is not None:
        scale = np.maximum(scale, np.abs(Y).max(axis=(0, 1)))
    safe = np.where(scale > 0, scale, 1.0)
    np.divide(X, safe, out=X)
    diag = np.einsum("ij...,ij...->j...", X, X)  # G_jj
    if Y is not None:
        np.divide(Y, safe, out=Y)
        diag += np.einsum("ij...,ij...->j...", Y, Y)

    def gram(j, k):  # Re and Im (None for real S) of G_jk = sum_i conj(S_ij) S_ik
        if Y is None:
            return (X[:, j] * X[:, k]).sum(axis=0), None
        return ((X[:, j] * X[:, k] + Y[:, j] * Y[:, k]).sum(axis=0),
                (X[:, j] * Y[:, k] - Y[:, j] * X[:, k]).sum(axis=0))

    def abs2(g):
        re, im = g
        return re * re if im is None else re * re + im * im

    if N == 2:
        re, im = gram(0, 1)
        off = np.abs(re) if im is None else np.hypot(re, im)
        lam = 0.5 * (diag[0] + diag[1] + np.hypot(diag[0] - diag[1], 2.0 * off))
        return scale * np.sqrt(lam)

    # Smith: lambda_max = q + 2 p cos(acos(r) / 3) with q = tr G / 3,
    # p = |G - q I|_F / sqrt(6) and r = det((G - q I) / p) / 2
    q = diag.sum(axis=0) / 3.0
    e0, e1, e2 = diag - q
    g01, g02, g12 = gram(0, 1), gram(0, 2), gram(1, 2)
    p = np.sqrt((e0 * e0 + e1 * e1 + e2 * e2
                 + 2.0 * (abs2(g01) + abs2(g02) + abs2(g12))) / 6.0)
    # normalize before the cubic terms, which could underflow otherwise
    inv = 1.0 / np.where(p > 0, p, 1.0)
    e0, e1, e2 = e0 * inv, e1 * inv, e2 * inv
    g01, g02, g12 = (tuple(None if v is None else v * inv for v in g)
                     for g in (g01, g02, g12))
    (r01, i01), (r02, i02), (r12, i12) = g01, g02, g12
    if i01 is None:  # Re(G_01 G_12 G_20)
        cycle = r01 * r12 * r02
    else:
        cycle = (r01 * r12 - i01 * i12) * r02 + (r01 * i12 + i01 * r12) * i02
    det = e0 * e1 * e2 - e0 * abs2(g12) - e1 * abs2(g02) - e2 * abs2(g01) + 2.0 * cycle
    r = np.clip(0.5 * det, -1.0, 1.0)
    out = scale * np.sqrt(q + 2.0 * p * np.cos(np.arccos(r) / 3.0))
    near = r < _NEAR_DOUBLE_TOP - 1.0
    if near.any():  # S now holds the scaled matrices
        out[near] = scale[near] * _svd_norms(_gather(S, near))
    return out


# -- quadrature ----------------------------------------------------------------


def _midpoint_axis(m: int) -> np.ndarray:
    return -1.0 + (np.arange(m) + 0.5) * 2.0 / m


@dataclass
class BallQuadrature:
    """Normalized averaging rule on the reference unit ball.

    Nodes live on B_A(0, 1) (the Euclidean ball of radius 1/sqrt(sigma))
    and carry equal weights, so the average of 1 over any ball is exactly 1.
    Pushforward to B_A(c, r) maps node u to delta_r u + c.  Monte-Carlo
    levels draw from streams keyed by (seed, task, level), which makes the
    family loops order-independent.
    """

    rule: str = "monte_carlo"
    n_nodes: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.rule not in ("monte_carlo", "mapped_grid"):
            raise ValueError(f"unknown rule {self.rule!r}")
        if self.n_nodes < 64:
            raise ValueError("need at least 64 nodes")

    def describe(self) -> str:
        return f"{self.rule}(n={self.n_nodes},seed={self.seed})"

    def level_count(self, level: int, pair: bool = False) -> int:
        if pair:
            # two node sets whose product realizes the n, 4n, 16n ladder
            return int(np.ceil(np.sqrt(self.n_nodes))) * 2 ** level
        return self.n_nodes * 4 ** level

    def reference_nodes(self, G: DilationGroup, level: int, task: int = 0,
                        pair: bool = False) -> np.ndarray:
        d, sigma = G.d, G.p_scale
        n = self.level_count(level, pair=pair)
        if self.rule == "monte_carlo":
            rng = np.random.default_rng(
                np.random.SeedSequence((self.seed, task, level))
            )
            g = rng.standard_normal((n, d))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            radii = rng.random(n) ** (1.0 / d)
            return g * radii[:, None] / np.sqrt(sigma)
        m = int(np.ceil(n ** (1.0 / d)))
        m += m % 2  # even counts keep the origin off the lattice
        shift = 0.25 * (task % 2) * 2.0 / m  # offset stream for double integrals
        pts = _lattice([_midpoint_axis(m) + shift for _ in range(d)])
        pts = pts[np.linalg.norm(pts, axis=1) < 1.0]
        return pts / np.sqrt(sigma)

    def ball_nodes(self, G: DilationGroup, ball: AnisoBall, level: int,
                   task: int = 0, pair: bool = False) -> np.ndarray:
        u = self.reference_nodes(G, level, task, pair=pair)
        return G.dilate(ball.radius, u) + ball.center


@dataclass
class LadderValue:
    value: float
    error: float
    levels: tuple

    def __float__(self):
        return self.value


def ladder_estimate(levels, stochastic: bool) -> LadderValue:
    """Collapse a 3-level refinement into a value and an error estimate.

    Grid ladders get geometric (Aitken) extrapolation when the increments
    behave; Monte-Carlo ladders keep the finest value with the last
    increment as the error.  Systematic growth across levels signals a
    divergent average.
    """
    v1, v2, v3 = (float(v) for v in levels)
    if not np.all(np.isfinite([v1, v2, v3])):
        raise NonIntegrable("non-finite quadrature average")
    if v1 > 0 and v2 > 1.3 * v1 and v3 > 1.3 * v2:
        raise NonIntegrable(
            f"average grows under refinement: {v1:.3g} -> {v2:.3g} -> {v3:.3g}"
        )
    scale = max(abs(v3), 1e-300)
    d1, d2 = v2 - v1, v3 - v2
    if not stochastic and d1 != d2 and abs(d2) < 0.75 * abs(d1) and d1 * d2 > 0:
        value = v3 + d2 * d2 / (d1 - d2)
        error = max(abs(value - v3), 1e-15 * scale)
    elif not stochastic:
        value = v3
        error = max(abs(d2), abs(d1) / 4, 1e-15 * scale)
    else:
        value = v3
        error = max(abs(d2), abs(d1) / 2, 1e-12 * scale)
    return LadderValue(value, error, (v1, v2, v3))


def _ladder(quad: BallQuadrature, stat) -> LadderValue:
    """`ladder_estimate` of stat(level) over the levels of `quad`."""
    return ladder_estimate([stat(level) for level in range(_LEVELS)],
                           stochastic=quad.rule == "monte_carlo")


# -- singular-set safe evaluation ----------------------------------------------


def _is_matrix(spec) -> bool:
    return hasattr(spec, "power_values")


def _perturb(pts: np.ndarray, mask: np.ndarray, scale: float, attempt: int) -> np.ndarray:
    d = pts.shape[1]
    shift = 1e-9 * scale * (attempt + 1) / np.sqrt(d)
    out = pts.copy()
    out[mask] = out[mask] + shift
    return out


def safe_scalar_values(spec, pts: np.ndarray, scale: float) -> np.ndarray:
    """Weight values with nodes nudged off the singular set."""
    vals = np.asarray(spec.values(pts), dtype=float)
    for attempt in range(3):
        bad = ~np.isfinite(vals) | (vals <= 0.0)
        if not bad.any():
            return vals
        pts = _perturb(pts, bad, scale, attempt)
        vals[bad] = spec.values(pts[bad])
    bad = ~np.isfinite(vals) | (vals <= 0.0)
    if bad.any():
        raise SingularWeight("could not move nodes off the singular set")
    return vals


def safe_power_values(spec, pts: np.ndarray, a: float, scale: float):
    """The weight root W^a at the (m, d) nodes, nudged off the singular set.

    This is the one place that tells the kinds of weight apart.  No weight
    (None) gives None, a scalar weight w gives w^a with shape (m,), and a
    matrix weight gives the Hermitian power W^a with shape (m, N, N).
    `weighted_magnitudes` turns any of the three into |W^a(x) v|.
    """
    if spec is None:
        return None
    if not _is_matrix(spec):
        return safe_scalar_values(spec, pts, scale) ** a
    for attempt in range(4):
        try:
            return spec.power_values(pts, a)
        except SingularWeight:
            vals = spec.values(pts)
            eig = np.linalg.eigvalsh(vals)
            bad = eig[:, 0] < 1e-300
            if not bad.any():
                raise
            pts = _perturb(pts, bad, scale, attempt)
    raise SingularWeight("could not move nodes off the singular set")


def weighted_magnitudes(root, v) -> np.ndarray:
    """|W^a(x) v| at every node, for a root returned by `safe_power_values`.

    v is one vector per node, shape (m, N), or one vector shared by all
    nodes, shape (N,).  A scalar root w^a gives w^a |v| and a matrix root
    the Euclidean norm of the product, shape (m,) either way.  Without a
    weight (root None) the result is |v|: shape (m,) for per-node vectors
    and a single number for a shared one.
    """
    v = np.asarray(v)
    if root is None:
        return np.linalg.norm(v, axis=-1)
    if root.ndim == 1:
        return root * np.linalg.norm(v, axis=-1)
    if np.iscomplexobj(v) and not np.iscomplexobj(root):
        root = root.astype(v.dtype)  # einsum on mixed real and complex runs 2-3x slower
    return np.linalg.norm(np.einsum("mij,mj->mi" if v.ndim == 2 else "mij,j->mi",
                                    root, v), axis=1)


# -- per-ball quantities ---------------------------------------------------------


def _scalar_quantity_at_nodes(w: np.ndarray, p: float) -> float:
    if p > 1:
        return float(np.mean(w) * np.mean(w ** (-1.0 / (p - 1))) ** (p - 1))
    return float(np.mean(w) * np.max(1.0 / w))


def _matrix_quantity_at_nodes(Px: np.ndarray, Mt: np.ndarray, p: float) -> float:
    norms = _pair_norms(Px, Mt)
    if p > 1:
        pp = p / (p - 1.0)
        inner = np.mean(norms ** pp, axis=1) ** (p / pp)
        return float(np.mean(inner) ** (1.0 / p))
    return float(np.max(np.mean(norms ** p, axis=0)))


def _pair_norms(Px: np.ndarray, Mt: np.ndarray) -> np.ndarray:
    """Spectral norms of every product Px[a] @ Mt[b], shape (n1, n2).

    Each block of at most `_CHUNK` pairs comes from one batched matmul that
    writes the products as planes, S[i, k] = Px[rows, i, :] @ Mt[cols, :, k].T,
    and goes straight to `_plane_norms`.
    """
    n1, n2 = len(Px), len(Mt)
    out = np.empty((n1, n2))
    cols = max(1, min(n2, _CHUNK))
    rows = max(1, _CHUNK // cols)
    left = Px.transpose(1, 0, 2)[:, None]  # (i, 1, a, j)
    for b in range(0, n2, cols):
        right = np.ascontiguousarray(Mt[b:b + cols].transpose(2, 1, 0))[None]  # (1, k, j, b)
        for a in range(0, n1, rows):
            out[a:a + rows, b:b + cols] = _plane_norms(
                np.matmul(left[:, :, a:a + rows], right))
    return out


def ap_ball_quantity_ladder(W, B: AnisoBall, p: float, quad: BallQuadrature,
                            G: DilationGroup, task: int = 0) -> LadderValue:
    """Muckenhoupt quantity of one ball across the refinement ladder."""
    if p <= 0:
        raise ValueError("p must be positive")
    scale = G.euclidean_radius_bound(B.radius)
    if _is_matrix(W):
        def stat(level):
            xs = quad.ball_nodes(G, B, level, task=2 * task, pair=True)
            ts = quad.ball_nodes(G, B, level, task=2 * task + 1, pair=True)
            Px = safe_power_values(W, xs, 1.0 / p, scale)
            Mt = safe_power_values(W, ts, -1.0 / p, scale)
            return _matrix_quantity_at_nodes(Px, Mt, p)
    else:
        def stat(level):
            nodes = quad.ball_nodes(G, B, level, task=task)
            return _scalar_quantity_at_nodes(safe_scalar_values(W, nodes, scale), p)
    return _ladder(quad, stat)


# -- family reports ---------------------------------------------------------------


@dataclass
class ApReport:
    weight_label: str
    p: float
    balls: list
    values: np.ndarray
    errors: np.ndarray
    constant: float
    family_descriptor: str
    quadrature: str
    norm_convention: str = NORM_CONVENTION

    def rows(self):
        for B, v, e in zip(self.balls, self.values, self.errors):
            yield (B.center.tolist(), B.radius, v, e)


def default_ball_family(G: DilationGroup, max_center_norm: float = 8.0,
                        radii=None) -> list[AnisoBall]:
    """Integer lattice centers inside {|c|_A <= max_center_norm} with dyadic radii."""
    if radii is None:
        radii = [2.0 ** m for m in range(-3, 4)]
    reach = G.euclidean_radius_bound(max_center_norm)
    pts = _lattice([np.arange(-np.floor(reach), np.floor(reach) + 1)] * G.d)
    pts = pts[G.quasi_norm(pts) <= max_center_norm]
    return [AnisoBall(c, r) for c in pts for r in radii]


def family_descriptor(family: list[AnisoBall]) -> str:
    radii = sorted({float(B.radius) for B in family})
    return f"{len(family)} balls, radii {radii[0]:g}..{radii[-1]:g}"


def estimate_ap_constant(W, p: float, family: list[AnisoBall],
                         quad: BallQuadrature, G: DilationGroup) -> ApReport:
    """Max per-ball quantity over the family; a lower bound of the supremum."""
    if not family:
        raise ValueError("family must be nonempty")
    ladders = [ap_ball_quantity_ladder(W, B, p, quad, G, task=i)
               for i, B in enumerate(family)]
    values = np.array([l.value for l in ladders])
    errors = np.array([l.error for l in ladders])
    label = getattr(W, "label", "weight")
    return ApReport(label, p, list(family), values, errors, float(values.max()),
                    family_descriptor(family), quad.describe())


# -- averaging operators -----------------------------------------------------------


def averaging_operator_check(W, B: AnisoBall, p: float, quad: BallQuadrature,
                             G: DilationGroup, test_fields) -> float:
    """Lower bound for the L^p(W) norm of f -> 1_B avg_B(f).

    Both sides are restricted to the ball, so constants give ratio 1 and the
    unweighted case is a contraction by Jensen.
    """
    if p <= 1:
        raise ValueError("averaging check needs p > 1")
    scale = G.euclidean_radius_bound(B.radius)
    nodes = quad.ball_nodes(G, B, _LEVELS - 1)
    Wp = safe_power_values(W, nodes, 1.0 / p, scale)
    best = 0.0
    for f in test_fields:
        vals = np.asarray(f(nodes))
        if vals.ndim == 1:
            vals = vals[:, None]
        num = np.mean(weighted_magnitudes(Wp, vals.mean(axis=0)) ** p)
        den = np.mean(weighted_magnitudes(Wp, vals) ** p)
        if den > 0:
            best = max(best, (num / den) ** (1.0 / p))
    return float(best)


# -- scalar slices ------------------------------------------------------------------


def _local_scale(pts: np.ndarray) -> float:
    return 1.0 + float(np.max(np.abs(pts), initial=0.0))


@dataclass(frozen=True)
class SliceWeight:
    """Scalar weight t -> |W^(1/p)(t) v|^p extracted from a matrix weight."""

    W: object
    p: float
    v: np.ndarray
    label: str = ""

    def values(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        root = safe_power_values(self.W, pts, 1.0 / self.p, _local_scale(pts))
        return weighted_magnitudes(root, self.v) ** self.p


@dataclass(frozen=True)
class NormWeight:
    """Scalar weight t -> ||W(t)|| (spectral norm)."""

    W: object
    label: str = "||W||"

    def values(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return spectral_norms(self.W.values(pts))


@dataclass(frozen=True)
class DualSliceWeight:
    """Scalar weight t -> ||W^(1/p)(x0) W^(-1/p)(t)||^p' for fixed x0.

    The left factor is evaluated once, with x0 nudged off the singular set
    if needed.
    """

    W: object
    p: float
    x0: np.ndarray
    label: str = "dual-slice"

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        left = safe_power_values(self.W, x0[None, :], 1.0 / self.p,
                                 _local_scale(x0[None, :]))[0]
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "_left", left)

    def values(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        pp = self.p / (self.p - 1.0)
        right = safe_power_values(self.W, pts, -1.0 / self.p, _local_scale(pts))
        return spectral_norms(np.einsum("ij,mjk->mik", self._left, right)) ** pp


def scalar_slice_ap(W, p: float, v, family: list[AnisoBall],
                    quad: BallQuadrature, G: DilationGroup) -> ApReport:
    """A_p report for the scalar slice |W^(1/p)(.) v|^p (A_1 when p <= 1)."""
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        raise ValueError("direction v must be nonzero")
    label = f"slice[{getattr(W, 'label', 'W')}]"
    sl = SliceWeight(W, p, v, label=label)
    return estimate_ap_constant(sl, p, family, quad, G)


# -- doubling -----------------------------------------------------------------------


@dataclass
class DoublingReport:
    weight_label: str
    p: float
    nu: float
    bound_constant: float
    rows: list  # (ball index, component, lambda, ratio)
    fitted_beta: dict

    def bound_satisfied(self, slack: float = 1e-9) -> bool:
        return all(
            ratio <= self.bound_constant * lam ** (self.nu * max(1.0, self.p)) * (1 + slack)
            for (_, _, lam, ratio) in self.rows
        )


def _mass_ladder(w, B: AnisoBall, quad: BallQuadrature, G: DilationGroup,
                 task: int = 0) -> LadderValue:
    scale = G.euclidean_radius_bound(B.radius)
    vol = ball_volume(G, B.radius)
    return _ladder(quad, lambda level: vol * np.mean(safe_scalar_values(
        w, quad.ball_nodes(G, B, level, task=task), scale)))


def doubling_check(W, p: float, family: list[AnisoBall], lambdas,
                   quad: BallQuadrature, G: DilationGroup,
                   bound_constant: float | None = None) -> DoublingReport:
    """Mass ratios w(lambda B) / w(B) for the weight and its scalar shadows.

    A matrix weight's shadows are its slice along e_1, its spectral norm
    and, for p > 1, its dual slice at each ball's center.
    """
    if not len(family) or not len(lambdas):
        raise ValueError("family and lambdas must be nonempty")
    if any(lam < 1 for lam in lambdas):
        raise ValueError("lambdas must be >= 1")
    if _is_matrix(W):
        comps = {"slice": SliceWeight(W, p, np.eye(W.N)[0]),
                 "norm": NormWeight(W)}
        if p > 1:
            comps["dual-slice"] = None  # per-ball, needs the center
    else:
        comps = {"scalar": W}
    if bound_constant is None:
        probe = comps.get("scalar") or comps["slice"]
        bound_constant = estimate_ap_constant(
            probe, max(1.0, p), family, quad, G
        ).constant
    rows = []
    logs = {name: ([], []) for name in comps}
    for i, B in enumerate(family):
        for name, comp in comps.items():
            if comp is None:
                comp = DualSliceWeight(W, p, B.center)
            base = _mass_ladder(comp, B, quad, G, task=i).value
            for lam in lambdas:
                grown = _mass_ladder(comp, AnisoBall(B.center, lam * B.radius),
                                     quad, G, task=i).value
                ratio = grown / base
                rows.append((i, name, float(lam), float(ratio)))
                logs[name][0].append(np.log(lam))
                logs[name][1].append(np.log(max(ratio, 1e-300)))
    fitted = {}
    for name, (lx, ly) in logs.items():
        lx, ly = np.asarray(lx), np.asarray(ly)
        fitted[name] = float((lx * ly).sum() / (lx * lx).sum())
    return DoublingReport(getattr(W, "label", "weight"), p, G.nu,
                          float(bound_constant), rows, fitted)


# -- reverse Hoelder -----------------------------------------------------------------


@dataclass
class ReverseHolderResult:
    r_best: float | None
    c1: float
    table: list  # (r, max ratio or None)


@dataclass(frozen=True)
class PowerWeight:
    base: object
    exponent: float
    label: str = "w^r"

    def values(self, pts):
        return np.asarray(self.base.values(pts), dtype=float) ** self.exponent


def reverse_holder_search(w, family: list[AnisoBall], r_grid,
                          quad: BallQuadrature, G: DilationGroup) -> ReverseHolderResult:
    """Largest grid r with (avg w^r)^(1/r) <= c1 * avg w across the family.

    w is evaluated once per ball and level, and every r reuses those values.
    The avg w ladder also checks that w itself is integrable, which must
    hold before any r > 1 makes sense: it raises `NonIntegrable` if not.
    """
    if not family:
        raise ValueError("family must be nonempty")
    r_grid = sorted(r_grid)
    worst = [0.0] * len(r_grid)  # None once r diverges on some ball
    for i, B in enumerate(family):
        scale = G.euclidean_radius_bound(B.radius)

        @cache
        def vals(level):
            return safe_scalar_values(w, quad.ball_nodes(G, B, level, task=i), scale)

        lo = _ladder(quad, lambda level: np.mean(vals(level))).value
        for k, r in enumerate(r_grid):
            if worst[k] is None:
                continue
            try:
                hi = _ladder(quad, lambda level: np.mean(vals(level) ** r) ** (1.0 / r))
                worst[k] = max(worst[k], hi.value / lo)
            except NonIntegrable:
                worst[k] = None
    table = [(float(r), None if v is None else float(v)) for r, v in zip(r_grid, worst)]
    passed = [row for row in table if row[1] is not None]
    if not passed:
        return ReverseHolderResult(None, float("inf"), table)
    return ReverseHolderResult(*passed[-1], table)


# -- reducing operators ---------------------------------------------------------------


@dataclass
class ReducingPair:
    ball: AnisoBall
    p: float
    A_B: np.ndarray
    A_B_sharp: np.ndarray | None
    distortion: float
    sharp_distortion: float | None
    product_norm: float | None
    q_values: dict
    largest_q: float | None
    fit_degenerate: bool


def _directions(N: int, n: int, complex_: bool) -> np.ndarray:
    dirs = _normal_directions(_halton(n, 2 * N if complex_ else N), complex_)
    # make sure the coordinate axes are represented
    dirs[:N] = np.eye(N)
    return dirs


def _fit_reducing(root: np.ndarray, dirs: np.ndarray, exponent: float):
    """Fit |A u| to eta(u) = (avg |W^a(t) u|^exponent)^(1/exponent), root = W^a.

    Returns the Hermitian A, its distortion max/min of |A u| / eta(u) over
    the directions, and whether M = A^H A came out positive definite.
    |A u|^2 = u^H M u is linear in the entries of M, so each pass is one
    `lstsq` on the rows conj(u) u^T weighted by 1 / (previous fit), with
    log(eta^2) linearised at the previous fit: a Gauss-Newton step for the
    sum of log(|A u| / eta(u))^2.  Four passes reach the minimum that a
    Levenberg-Marquardt fit over A = expm(H) finds, to about 1e-9 in the
    distortion.  If eta^2 is a quadratic form (p = 2 and the Gram
    identity), the first pass recovers it.
    """
    # (m, N, N) @ (K, N) -> (m, K, N)
    mags = np.linalg.norm(np.einsum("mij,kj->mki", root, dirs), axis=2)
    eta = np.mean(mags ** exponent, axis=0) ** (1.0 / exponent)
    rows = (dirs.conj()[:, :, None] * dirs[:, None, :]).reshape(len(dirs), -1)
    target = eta ** 2
    fit = target
    for _ in range(4):
        M = np.linalg.lstsq(rows / fit[:, None], 1.0 + np.log(target / fit), rcond=None)[0]
        fit = np.abs(rows @ M)
    N = dirs.shape[1]
    M = M.reshape(N, N)
    lam, V = np.linalg.eigh(0.5 * (M + M.conj().T))
    A = (V * np.sqrt(np.maximum(lam, 1e-150))) @ V.conj().T
    ratios = np.linalg.norm(dirs @ A.T, axis=1) / eta  # rows A u
    return A, float(ratios.max() / ratios.min()), bool(lam[0] > 0)


def reducing_operators(W, B: AnisoBall, p: float, quad: BallQuadrature,
                       G: DilationGroup, q_grid=None) -> ReducingPair:
    """Fit positive definite A_B with |A_B u| ~ (avg_B |W^(1/p) u|^p)^(1/p).

    M = A_B^H A_B is fitted by reweighted least squares (`_fit_reducing`)
    on max(2 N^2, 8) directions; at p = 2 this is the Gram identity
    A_B = (avg_B W)^(1/2).  Directions are complex when the root W^(1/p) at
    the nodes is.  The companion A_B^# uses the dual exponent and W^(-1/p)
    (p > 1 only).  The fit counts as degenerate when M is not positive
    definite or its distortion exceeds 1.05 sqrt(N).
    """
    N = W.N
    scale = G.euclidean_radius_bound(B.radius)
    nodes = quad.ball_nodes(G, B, _LEVELS - 1)
    root = safe_power_values(W, nodes, 1.0 / p, scale)
    complex_ = bool(np.max(np.abs(root.imag)) > 1e-14 * np.max(np.abs(root)))
    dirs = _directions(N, max(2 * N * N, 8), complex_)
    A_B, distortion, positive = _fit_reducing(root, dirs, p)
    if p > 1:
        A_sharp, sharp_distortion, sharp_positive = _fit_reducing(
            safe_power_values(W, nodes, -1.0 / p, scale), dirs, p / (p - 1.0))
        positive &= sharp_positive
        product_norm = float(np.linalg.norm(A_B @ A_sharp, 2))
    else:
        A_sharp, sharp_distortion, product_norm = None, None, None

    q_values, largest_q = {}, None
    if p > 1:
        if q_grid is None:
            q_grid = [p + 0.25, p + 0.5, p + 0.75, p + 1.0]

        # the per-level norms are shared by every q
        @cache
        def left(level):  # |W^(1/p)(x) A_B^#|
            Wp = safe_power_values(W, quad.ball_nodes(G, B, level), 1.0 / p, scale)
            return spectral_norms(np.einsum("mij,jk->mik", Wp, A_sharp))

        @cache
        def right(level):  # |A_B W^(-1/p)(t)|
            Wm = safe_power_values(W, quad.ball_nodes(G, B, level, task=1), -1.0 / p, scale)
            return spectral_norms(np.einsum("ij,mjk->mik", A_B, Wm))

        for q in q_grid:
            try:
                lv = _ladder(quad, lambda level: np.mean(left(level) ** q))
                lv2 = _ladder(quad, lambda level: np.mean(right(level) ** q))
            except NonIntegrable:
                break
            q_values[float(q)] = (lv.value, lv2.value)
            largest_q = float(q)

    degenerate = distortion > np.sqrt(N) * 1.05 or not positive
    return ReducingPair(B, p, A_B, A_sharp, distortion, sharp_distortion,
                        product_norm, q_values, largest_q, degenerate)


# -- affine invariance -----------------------------------------------------------------


@dataclass
class InvarianceRow:
    ball: AnisoBall
    composed: float
    transported: float
    discrepancy: float
    combined_error: float


def invariance_report(W, p: float, T: AffineMap, family: list[AnisoBall],
                      quad_a: BallQuadrature, quad_b: BallQuadrature,
                      G: DilationGroup) -> list[InvarianceRow]:
    """Quantity of W∘T on B against the quantity of W on T(B), per ball."""
    WT = W.compose(T)
    rows = []
    for i, B in enumerate(family):
        la = ap_ball_quantity_ladder(WT, B, p, quad_a, G, task=i)
        lb = ap_ball_quantity_ladder(W, map_ball(G, T, B), p, quad_b, G, task=i)
        rows.append(InvarianceRow(B, la.value, lb.value,
                                  abs(la.value - lb.value), la.error + lb.error))
    return rows


# -- polynomial admissibility ------------------------------------------------------------


def polynomial_ap_validity(k: int, beta: float, p: float) -> bool:
    """Degree-k polynomial to the beta gives an A_p weight iff -1 < k*beta < p-1."""
    if p <= 1:
        raise ValueError("validity predicate applies to p > 1")
    return -1.0 < k * beta < p - 1.0


# -- weighted tail bound -------------------------------------------------------------------


@dataclass
class TailBoundResult:
    ratio: float
    bound: float
    terms: list
    doubling_constant: float


def weighted_tail_bound(w, G: DilationGroup, t_j: float, ell, L: float,
                        quad: BallQuadrature, beta: float,
                        r0: float | None = None) -> TailBoundResult:
    """Integral of w(x) (1 + t_j |x - x_jl|_A)^(-L) against the cell mass.

    Dyadic annuli around the cell are summed until the partial sums go
    Cauchy; the result is compared with the geometric bound implied by the
    measured doubling constant of w at exponent beta.
    """
    if L <= beta:
        raise ValueError("need L > beta")
    if r0 is None:
        r0 = compute_r0(G, 0.01)
    center = G.dilate(1.0 / t_j, np.asarray(ell, dtype=float))
    rho = r0 / t_j
    scale = G.euclidean_radius_bound(rho)

    def annulus_integral(m):
        """Integral over the dyadic annulus m (m = 0 is the core cell)."""
        R = AnisoBall(center, 2.0 ** m * rho)
        nodes = quad.ball_nodes(G, R, _LEVELS - 1)
        qn = G.quasi_norm(nodes - center)
        if m > 0:
            sel = qn >= 2.0 ** (m - 1) * rho
            vol = ball_volume(G, R.radius) - ball_volume(G, R.radius / 2)
            frac_nodes = nodes[sel]
            qn = qn[sel]
        else:
            vol = ball_volume(G, R.radius)
            frac_nodes = nodes
        if len(frac_nodes) == 0:
            return 0.0, 0.0
        vals = safe_scalar_values(w, frac_nodes, scale)
        decay = (1.0 + t_j * qn) ** (-L)
        return vol * np.mean(vals * decay), vol * np.mean(vals)

    core_decay, core_mass = annulus_integral(0)
    if core_mass <= 0:
        raise ValueError("cell mass vanished")
    total = core_decay
    doubling_c = 1.0
    terms = [core_decay]
    prev_masses = core_mass
    m_used = 0
    for m in range(1, _TAIL_DEPTH + 1):
        term, mass = annulus_integral(m)
        terms.append(term)
        prev_masses += mass
        doubling_c = max(doubling_c, prev_masses / (2.0 ** (m * beta) * core_mass))
        total += term
        m_used = m
        if term < 1e-12 * total:
            break
    else:
        recent = terms[-3:]
        if not all(b < 0.95 * a for a, b in zip(recent, recent[1:])):
            raise TruncationNotConverged(
                f"annulus terms not Cauchy at depth {_TAIL_DEPTH}"
            )
    # on the m-th annulus 1 + t_j |x - x_jl|_A >= 1 + 2^(m-1) r0, and the
    # annulus mass is at most c' 2^(m beta) times the cell mass
    tail = sum(2.0 ** (m * beta) * (1.0 + 2.0 ** (m - 1) * r0) ** (-L)
               for m in range(1, max(m_used, 60) + 1))
    bound = 1.0 + doubling_c * tail
    return TailBoundResult(float(total / core_mass), float(bound), terms,
                           float(doubling_c))
