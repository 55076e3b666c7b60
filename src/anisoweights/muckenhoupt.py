"""Muckenhoupt quantities for scalar and matrix weights over anisotropic balls.

Family-wide constants are maxima over finite, documented ball families and
therefore lower bounds for the supremum over all balls.  Every reported
value comes from a quadrature refinement ladder (node counts n, 4n, 16n)
with a Richardson-style error estimate; essential suprema are approximated
by node maxima, with nodes perturbed off singular sets.  The matrix norm
convention is the spectral norm throughout.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .dilation import DilationGroup
from .geometry import (
    AffineMap,
    AnisoBall,
    _lattice,
    _polar_stream,
    _runs,
    ball_volume,
    compute_r0,
    map_ball,
)
from .weights import SingularWeight, cholesky_factors

NORM_CONVENTION = "spectral"
_LEVELS = 3
# dyadic annuli `weighted_tail_bound` sums before it adds a geometric remainder
_TAIL_DEPTH = 40


class NonIntegrable(ArithmeticError):
    """Quadrature averages keep growing under node refinement."""


class TruncationNotConverged(RuntimeError):
    """Annulus terms did not shrink geometrically within _TAIL_DEPTH annuli."""


# -- spectral norms of stacked matrices ---------------------------------------


# matrices (node pairs) per kernel call.  `spectral_norms` scales a chunk
# into N^2 planes of 32 kB, which `_gram_planes` multiplies into the Gram
# planes of the chunk.  The pair kernel (`_tile_norms`) writes 7 real (10
# complex) GEMM planes per tile, 0.2-0.3 MB, and its tail (`_top_norms`)
# works in place on a few more.  A seed-7 ap-matrix-2d pass takes about
# 1,280 minor page faults with the library compiled from source and 1,090
# with cached bytecode, on a 2-core x86 box.  The same number caps the
# nodes per side of one block of balls in the family ladder (`_ap_ladders`),
# so a block's weight factors (F, M with F^H F = W^(2/p) and
# M M^H = W^(-2/p), from `_pair_factors`) take at most 0.3 MB (real) or
# 0.6 MB (complex) per side.
_CHUNK = 1 << 12
# Below this value of 1 + r the two largest Gram eigenvalues are nearly equal
# and cos(acos(r) / 3) loses digits (relative error ~ 1e-16 / sqrt(1 + r),
# 4e-9 at a repeated top singular value); such matrices go to LAPACK.
_NEAR_DOUBLE_TOP = 1e-3
# Below this value of 2 p = |G - q I|_F sqrt(2/3) the cubic terms of
# det(G - q I), of order (2 p)^3, could underflow; `_top_norms` normalizes
# such Gram matrices before it forms the determinant.
_SMALL_SPREAD = 1e-90
# the entries (j, k), j < k, above the diagonal of an N x N matrix
_UPPER = {2: [(0, 1)], 3: [(0, 1), (0, 2), (1, 2)]}


@np.errstate(divide="ignore", invalid="ignore")
def spectral_norms(M: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (..., N, N) stack.

    M is anything `np.asarray` takes; an array with fewer than two axes,
    or whose last two differ or are 0, raises `ValueError`.  N = 1 is |M|,
    and N >= 4 uses LAPACK SVD throughout.  N = 2 and N = 3 use a closed
    form on chunks of `_CHUNK` matrices: `_scaled` divides each matrix by
    its largest |entry|, `_gram_planes` forms the planes of its Gram
    matrix S^H S, q = tr(S^H S) / N is subtracted from the diagonal planes
    in place, and the tail `_top_norms`, which the pair kernel shares,
    takes the largest eigenvalue from the quadratic formula (N = 2) or the
    trigonometric formula of Smith (1961) (N = 3), whose cubic it forms
    on these unscaled planes (normalized first only where the spread of
    the eigenvalues lies below `_SMALL_SPREAD`); the norm is
    scale * sqrt(lambda_max).  A real stack takes the real path, which has
    no imaginary plane.  The scaling keeps entries from 1e-300 to 1e300 in
    range.  For N = 3 the few scaled matrices whose two largest singular
    values nearly coincide, where the trigonometric formula is
    ill-conditioned, are handed to LAPACK.  Against LAPACK SVD the
    relative error is below 1e-14, and M is left unchanged.  For every
    N >= 2 a matrix with a non-finite entry gives NaN (which
    `ladder_estimate` reports as `NonIntegrable`); for N >= 4 only the
    finite matrices go to LAPACK, which raises `LinAlgError` on the others.
    """
    M = np.asarray(M)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or not M.shape[-1]:
        raise ValueError(f"need a stack of square matrices, shape (..., N, N) with N >= 1, "
                         f"got shape {M.shape}")
    N = M.shape[-1]
    if N == 1:
        return np.abs(M[..., 0, 0])
    flat = M.reshape(-1, N, N)
    if N > 3:
        out = np.full(len(flat), np.nan)
        finite = np.isfinite(flat).all(axis=(1, 2))
        out[finite] = _svd_norms(flat[finite])
        return out.reshape(M.shape[:-2])
    out = np.empty(len(flat))
    for i in range(0, len(flat), _CHUNK):
        S, s = _scaled(flat[i:i + _CHUNK])
        G = _gram_planes(S)
        q = sum(G[1:N], G[0]) / N
        G[:N] -= q
        out[i:i + _CHUNK] = _top_norms(q, G, s, lambda near: np.moveaxis(S[:, :, near], -1, 0))
    return out.reshape(M.shape[:-2])


def _svd_norms(flat: np.ndarray) -> np.ndarray:
    return np.linalg.svd(flat, compute_uv=False)[:, 0]


def _scaled(M: np.ndarray):
    """Planes S (N, N, k) of the (k, N, N) stack M over each matrix's largest |entry| s.

    Plane S[i, a] holds entry (i, a) of every matrix divided by its s (0
    counts as 1); returns S and s.
    """
    f = M.reshape(len(M), -1)
    s = np.abs(f[:, 0])
    for col in f.T[1:]:
        np.maximum(s, np.abs(col), out=s)
    return np.divide(M.transpose(1, 2, 0), np.where(s > 0, s, 1.0), order="C"), s


def _gram_planes(S: np.ndarray) -> np.ndarray:
    """Planes of the Gram matrices A = S^H S of the matrices in planes S, N = 2 or 3.

    S holds entry (i, a) of every matrix in plane S[i, a], as `_scaled`
    gives it.  The planes of A are A_aa, then Re A_ab and, for complex S,
    Im A_ab for each (a, b) in `_UPPER[N]`.  Complex products are spelled
    out in real arithmetic and the sum over the rows i runs in a fixed
    order, so a matrix's planes do not depend on its batch.
    """
    N = len(S)
    a, b = np.array([(a, a) for a in range(N)] + _UPPER[N]).T
    re = S.real

    def row(i):  # the part of every plane from row i of the matrices
        if not np.iscomplexobj(S):
            return re[i, a] * re[i, b]
        im, j, k = S.imag, a[N:], b[N:]
        return np.concatenate([re[i, a] * re[i, b] + im[i, a] * im[i, b],
                               re[i, j] * im[i, k] - im[i, j] * re[i, k]])

    return sum(map(row, range(1, N)), row(0))


def _top_norms(q, G, scale: np.ndarray, flagged, squared=False) -> np.ndarray:
    """scale * sqrt(lambda_max) of Hermitian N x N Gram matrices in planes, N = 2 or 3.

    With squared, the squares scale^2 lambda_max, with no square root.  q
    is the plane tr G / N of each Gram matrix G, and G holds the N planes
    G_jj - q, then the planes Re G_jk for each (j, k) in `_UPPER[N]`,
    followed for complex matrices by the planes Im G_jk (3 or 4 planes
    for N = 2, 6 or 9 for N = 3); G is the Gram matrix of a matrix scaled
    to entries of order 1.  lambda_max is q + sqrt(e_0^2 + |G_01|^2) for
    N = 2 and comes from the trigonometric formula of Smith (1961) for
    N = 3: q + 2 p cos(acos(r) / 3), with 2 p = |G - q I|_F sqrt(2/3) and
    r = det(G - q I) / (2 p^3).  The Frobenius norm and the determinant
    are formed on the unscaled planes, each off-diagonal plane squared
    once, and r takes one division.  A pair whose 2 p lies below
    `_SMALL_SPREAD`, where the cubic terms could underflow, takes r from
    its planes divided by 2^(1/3) p instead, so that no pair's norm
    depends on the others of the call.  Where the two largest eigenvalues
    nearly coincide (`_NEAR_DOUBLE_TOP`), flagged(near) gives the scaled
    matrices at the True positions of near, in C order, and LAPACK takes
    their norms.  Callers ignore invalid and divide-by-zero floating-point
    operations: a non-finite matrix gives NaN.
    """
    N = 2 if len(G) < 6 else 3
    U = len(_UPPER[N])
    e, g = G[:N], G[N:]

    def abs2(g):  # |G_jk|^2 for each (j, k), each plane squared once
        sq = g * g
        if len(g) > U:
            sq[:U] += sq[U:]
        return sq[:U]

    def norms(lam):  # scale sqrt(lam), or scale (scale lam), in place
        if squared:
            lam *= scale
        else:
            np.sqrt(lam, out=lam)
        lam *= scale
        return lam

    if N == 2:
        return norms(q + np.sqrt(e[0] * e[0] + abs2(g)[0]))

    # |G - q I|_F^2 = sum_j e_j^2 + 2 sum_jk |G_jk|^2, each sum in index order
    s = abs2(g)
    f, t = e[0] * e[0], e[1] * e[1]
    f += t
    f += np.multiply(e[2], e[2], out=t)
    t = np.add(s[0], s[1], out=t)
    t += s[2]
    t *= 2.0
    f += t
    f *= 2.0 / 3.0
    p2 = np.sqrt(f)  # 2 p
    f *= p2
    f *= 0.25  # 2 p^3
    lam = _det3(e, g, s)
    lam /= f  # r
    if np.fmin.reduce(p2, axis=None) < _SMALL_SPREAD:  # fmin skips NaN pairs
        small = p2 < _SMALL_SPREAD
        # r = det((G - q I) / (2^(1/3) p)), from planes of order 1
        tiny = G[:, small] * (2.0 ** (2.0 / 3.0) / np.maximum(p2[small], 1e-300))
        lam[small] = _det3(tiny[:N], tiny[N:], abs2(tiny[N:]))
    np.clip(lam, -1.0, 1.0, out=lam)
    near = None
    if np.fmin.reduce(lam, axis=None) < _NEAR_DOUBLE_TOP - 1.0:
        near = lam < _NEAR_DOUBLE_TOP - 1.0
    np.arccos(lam, out=lam)
    lam /= 3.0
    np.cos(lam, out=lam)
    lam *= p2
    lam += q
    norms(lam)
    if near is not None:
        top = scale[near] * _svd_norms(flagged(near))
        lam[near] = top * top if squared else top
    return lam


def _det3(e, g, s) -> np.ndarray:
    """det of Hermitian 3 x 3 matrices in planes, in a fresh plane.

    e holds the diagonal planes, g the planes Re G_jk for (j, k) in
    `_UPPER[3]` and, for complex matrices, Im G_jk, and s the planes
    |G_jk|^2.  The terms are summed in one fixed order.
    """
    (e0, e1, e2), (s01, s02, s12) = e, s
    r01, r02, r12 = g[:3]
    det = e1 * e2
    det -= s12
    det *= e0
    w = e1 * s02
    det -= w
    det -= np.multiply(e2, s01, out=w)
    cycle = np.multiply(r01, r12, out=w)  # Re(G_01 G_12 G_20)
    if len(g) > 3:
        i01, i02, i12 = g[3:]
        v = i01 * i12
        cycle -= v
        cycle *= r02
        np.multiply(r01, i12, out=v)
        v += i01 * r12
        v *= i02
        cycle += v
    else:
        cycle *= r02
    cycle *= 2.0
    det += cycle
    return det


# -- quadrature ----------------------------------------------------------------


def _midpoint_axis(m: int) -> np.ndarray:
    return -1.0 + (np.arange(m) + 0.5) * 2.0 / m


@dataclass
class BallQuadrature:
    """Normalized averaging rule on the reference unit ball: a midpoint grid.

    The nodes of a level are the midpoints of an m^d grid on [-1, 1]^d
    that lie in B_A(0, 1), the Euclidean unit ball, with equal weights, so
    the average of 1 over any ball is exactly 1.  The shifted grid, which
    the t side of a double integral takes, moves every node by a quarter
    cell in each coordinate.  Pushforward to B_A(c, r) maps node u to
    delta_r u + c.  `rule` names the one rule, "mapped_grid".
    """

    rule: str = "mapped_grid"
    n_nodes: int = 1024

    def __post_init__(self):
        if self.rule != "mapped_grid":
            raise ValueError(f"unknown rule {self.rule!r}")
        if not (isinstance(self.n_nodes, numbers.Integral) and self.n_nodes >= 64):
            raise ValueError(f"n_nodes must be an integer >= 64, got {self.n_nodes!r}")

    def describe(self) -> str:
        return f"{self.rule}(n={self.n_nodes})"

    def reference_nodes(self, G: DilationGroup, level: int, shifted: bool = False,
                        pair: bool = False) -> np.ndarray:
        """The level's grid nodes in the unit ball; `ValueError` if there are none.

        The grid width m is ceil(n^(1/d)) for the level's node count n,
        rounded up to even (which keeps the origin off the lattice), and at
        least the previous level's m + 2, so every level refines the last.
        n is n_nodes 4^level, or ceil(sqrt(n_nodes)) 2^level for each side
        of a pair, whose product realizes the same ladder.
        """
        n, factor = (int(np.ceil(np.sqrt(self.n_nodes))), 2) if pair else (self.n_nodes, 4)
        m = 0
        for k in range(level + 1):
            m = max(m + 2, int(np.ceil((n * factor ** k) ** (1.0 / G.d))))
            m += m % 2
        shift = 0.5 / m if shifted else 0.0  # a quarter cell
        pts = _lattice([_midpoint_axis(m) + shift for _ in range(G.d)])
        pts = pts[np.linalg.norm(pts, axis=1) < 1.0]
        if not len(pts):
            raise ValueError(f"level {level} of {self.describe()} has no node in the "
                             f"unit ball of R^{G.d}")
        return pts

    def ball_nodes(self, G: DilationGroup, ball: AnisoBall, level: int,
                   shifted: bool = False, pair: bool = False) -> np.ndarray:
        """The level's reference nodes u mapped to the ball: G.dilate(r, u) + c.

        `_blocks` places the nodes of a whole block of balls in one
        dilation, each ball's rows bitwise these.  A ball whose centre is
        not in R^d of G raises `ValueError`.
        """
        _check_dimension(G, [ball])
        u = self.reference_nodes(G, level, shifted, pair=pair)
        return G.dilate(ball.radius, u) + ball.center


@dataclass
class LadderValue:
    value: float
    error: float
    levels: tuple


def ladder_estimate(levels) -> LadderValue:
    """Collapse a 3-level refinement into a value and an error estimate.

    The ladder gets geometric (Aitken) extrapolation when the increments
    behave, and otherwise keeps the finest value with the larger of the
    last increment and a quarter of the first as the error.  Systematic
    growth across levels signals a divergent average.
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
    if d1 != d2 and abs(d2) < 0.75 * abs(d1) and d1 * d2 > 0:
        value = v3 + d2 * d2 / (d1 - d2)
        error = max(abs(value - v3), 1e-15 * scale)
    else:
        value = v3
        error = max(abs(d2), abs(d1) / 4, 1e-15 * scale)
    return LadderValue(value, error, (v1, v2, v3))


def _ladders(levels) -> list[LadderValue]:
    """`ladder_estimate` of each ball from its statistics levels[level][ball]."""
    return [ladder_estimate(ball) for ball in zip(*levels)]


# -- singular-set safe evaluation ----------------------------------------------


def _check_exponent(p: float) -> None:
    """Raise `ValueError` unless 0 < p < inf; nan fails too."""
    if not 0 < p < np.inf:
        raise ValueError(f"p must satisfy 0 < p < inf, got {p}")


def _is_matrix(spec) -> bool:
    return hasattr(spec, "power_values")


def safe_power_values(spec, pts: np.ndarray, a: float, scale):
    """The weight root W^a at the (m, d) nodes, nudged off the singular set.

    This is the one place that tells the kinds of weight apart.  No weight
    (None) gives None, a scalar weight w gives w^a with shape (m,), and a
    matrix weight gives the Hermitian power W^a with shape (m, N, N).
    `weighted_magnitudes` turns any of the three into |W^a(x) v|.  The
    weight is evaluated once; its singular nodes alone (where w is not
    finite and positive, or that `SingularWeight` marks) are then moved by
    1e-9 * scale * k / sqrt(d) in every coordinate at nudge k and evaluated
    again, at most three times before this raises `SingularWeight`.  scale
    is one number, or one per node, shape (m,): a node's value does not
    depend on the rest of the batch.  Every caller sizes it by one rule: a
    node is nudged by the scale of the ball or grid it was placed for (a
    ball's `euclidean_radius_bound`, a grid's 1 + L), and a ball centre by
    its own scale, 1 + its largest |coordinate| (`_node_scales`).
    """
    if spec is None:
        return None
    matrix = _is_matrix(spec)

    def evaluate(x):  # the weight (matrix: its power) and its singular mask
        if not matrix:
            w = np.asarray(spec.values(x), dtype=float)
            return w, ~np.isfinite(w) | (w <= 0.0)
        try:
            return spec.power_values(x, a), np.zeros(len(x), dtype=bool)
        except SingularWeight as exc:
            return exc.values, exc.singular

    out, bad = evaluate(pts)
    rows = np.arange(len(pts))
    for attempt in range(3):
        if not bad.any():
            break
        rows, pts = rows[bad], pts[bad]
        shift = 1e-9 * np.broadcast_to(scale, len(out))[rows] * (attempt + 1)
        pts = pts + (shift / np.sqrt(pts.shape[1]))[:, None]
        out[rows], bad = evaluate(pts)
    if bad.any():
        raise SingularWeight("could not move nodes off the singular set")
    return out if matrix else out ** a


def weighted_magnitudes(root, v) -> np.ndarray:
    """|W^a(x) v| at every node, for a root returned by `safe_power_values`.

    v is one vector per node, shape (m, N), a stack of such arrays,
    shape (..., m, N), or one vector shared by all nodes, shape (N,); a
    stack with m = 1 gives each of its vectors to every node.  A scalar
    root w^a gives w^a |v| and a matrix root the Euclidean norm of the
    product, shape (..., m) either way.  Without a weight (root None) the
    result is |v|: shape (..., m) for per-node vectors and a single number
    for a shared one.  A matrix root of size N needs vectors of N entries;
    other sizes raise `ValueError`.

    A matrix root is read one (m,) plane root[:, i, j] at a time:
    y_i = sum_j root[:, i, j] v[..., j] in order of j, then
    |y|^2 = sum_i (Re y_i^2 + Im y_i^2) in order of i.  Every step is
    elementwise, so each (m, N) slice of a stack gives bitwise what it gives
    alone, and the memory layout of root and v does not change a bit; a
    root stored node-last (`spectral._grid_root`) has contiguous planes.
    A real root is not copied to complex for complex vectors; the result
    is bitwise that of its complex cast.
    """
    v = np.asarray(v)
    if root is None:
        return np.linalg.norm(v, axis=-1)
    if root.ndim == 1:
        return root * np.linalg.norm(v, axis=-1)
    N = root.shape[-1]
    if v.shape[-1] != N:
        raise ValueError(f"a weight of size N = {N} needs vectors of "
                         f"{N} entries, got {v.shape[-1]}")
    sq = None
    for i in range(N):
        y = root[:, i, 0] * v[..., 0]
        for j in range(1, N):
            y += root[:, i, j] * v[..., j]
        term = y.real ** 2 + y.imag ** 2 if np.iscomplexobj(y) else y * y
        sq = term if sq is None else sq + term
    return np.sqrt(sq)


# -- per-ball quantities ---------------------------------------------------------


def _scalar_quantity_at_nodes(w: np.ndarray, p: float) -> float:
    if p > 1:
        return float(np.mean(w) * np.mean(w ** (-1.0 / (p - 1))) ** (p - 1))
    return float(np.mean(w) * np.max(1.0 / w))


def _matrix_quantities(Px: np.ndarray, Mt: np.ndarray, p: float, balls: int) -> np.ndarray:
    """The matrix A_p quantity of each of `balls` balls from their stacked factors.

    Ball b owns the rows b n1 ... (b + 1) n1 - 1 of Px = P(x) and
    b n2 ... (b + 1) n2 - 1 of Mt = M(t), where n1 = len(Px) / balls and
    n2 = len(Mt) / balls; P and M are any factors with P^H P = W^(2/p) and
    M M^H = W^(-2/p), such as L^H and L^(-H) of W^(2/p) = L L^H, so that
    |P(x) M(t)| = |W^(1/p)(x) W^(-1/p)(t)|.  Its quantity is
    (avg_x (avg_t |Px Mt|^p')^(p/p'))^(1/p) for p > 1 and
    max_t avg_x |Px Mt|^p for p <= 1.  The balls are walked in spans, the
    `_runs` of their n1 n2 pairs under `_CHUNK`: as many whole balls as
    fit, or one ball when its pairs exceed `_CHUNK` (`_span_norms` then
    splits it into row tiles).  Each span's norms are reduced to its
    balls' quantities at once: no more norms are held than one span's.  At
    p = 2 (p' = 2) the pair kernel hands over squared norms, with no
    square root to undo.
    """
    n1, n2 = len(Px) // balls, len(Mt) // balls
    return np.concatenate([
        _reduce_pairs(_span_norms(Px[a * n1:b * n1], Mt[a * n2:b * n2], b - a, p == 2), p)
        for a, b in _runs(np.full(balls, n1 * n2), _CHUNK)])


def _reduce_pairs(norms: np.ndarray, p: float) -> np.ndarray:
    """Ball quantities of the pair norms of whole balls, shape (balls, n1, n2).

    At p = 2 the norms come squared.
    """
    if p > 1:
        pp = p / (p - 1.0)
        inner = np.mean(norms if p == 2 else norms ** pp, axis=2) ** (p / pp)
        # the last power in scalar arithmetic (libm pow), as the one-ball
        # form of this reduction takes it; numpy's array power differs from
        # it in the last bit for about 5% of inputs
        return np.array([m ** (1.0 / p) for m in np.mean(inner, axis=1)])
    return np.mean(norms ** p, axis=1).max(axis=1)


@np.errstate(divide="ignore", invalid="ignore")
def _span_norms(Px: np.ndarray, Mt: np.ndarray, balls: int, squared=False) -> np.ndarray:
    """Pair norms (balls, n1, n2) of `balls` whole balls stacked as in `_matrix_quantities`.

    Px and Mt hold any factors P(x) and M(t) of the weight (see
    `_matrix_quantities`); with squared the result is the squared norms.
    For N = 2 and 3 the per-node work (`_node_features`) is done once per
    span and each tile goes to the pair kernel `_tile_norms`; for other N
    `_product_norms` hands each tile's products to `spectral_norms`.
    Per-node arrays keep their nodes on the last axis, split here into
    (ball, node).  A span of at most `_CHUNK` pairs is one tile; a larger
    one is cut, ball by ball, into tiles of up to `_CHUNK` columns and as
    many whole rows as fit.  A ball's tiles and GEMM shapes do not depend
    on the rest of its span, so no norm depends on how the family is split.
    """
    N = Px.shape[-1]
    n1, n2 = len(Px) // balls, len(Mt) // balls
    if N in (2, 3):
        kernel, (x, t) = _tile_norms, _node_features(Px, Mt)
    else:
        kernel, x, t = _product_norms, [Px.transpose(1, 2, 0)], [Mt.transpose(1, 2, 0)]
    x = [a.reshape(*a.shape[:-1], balls, n1) for a in x]
    t = [a.reshape(*a.shape[:-1], balls, n2) for a in t]
    out = np.empty((balls, n1, n2))
    tiles = [(slice(None),) * 3]
    if balls * n1 * n2 > _CHUNK:
        cols = min(n2, _CHUNK)
        rows = max(1, _CHUNK // cols)
        tiles = [(slice(b, b + 1), slice(i, i + rows), slice(j, j + cols))
                 for b in range(balls) for j in range(0, n2, cols) for i in range(0, n1, rows)]
    for b, i, j in tiles:
        out[b, i, j] = kernel(*(a[..., b, i] for a in x), *(a[..., b, j] for a in t), squared)
    return out


def _node_features(Px: np.ndarray, Mt: np.ndarray):
    """Per-node data of the pair kernel for factors Px = P(x) and Mt = M(t), N = 2 or 3.

    P and M are any factors of the weight (see `_matrix_quantities`), such
    as the two of one factorization of W^(2/p) (`_pair_factors`).  Each is
    divided by its largest |entry| s (`_scaled`).  The Gram matrix of P M
    is G = M^H A M with A = P^H P, so tr G / N, each G_jj - tr G / N and
    each G_jk (j < k) is bilinear in the unique entries of A(x) and the
    products conj(M_aj) M_bk (`_FEATURES`).  Returns [P / s, s, L] for x
    and [M / s, s, R] for t, nodes on the last axis, with L the planes of A
    from `_gram_planes` and plane e of G equal to sum_f L[f] R[e, f].
    Complex products are spelled out in real arithmetic and every sum runs
    in a fixed order, so a node's features do not depend on its batch.
    """
    N, n = Px.shape[-1], len(Px)
    S, s = _scaled(np.concatenate([Px, Mt]))
    # C[u N^2 + v] = conj(M_u) M_v for the flat entries u, v of each t factor,
    # followed by the imaginary parts for complex factors
    f = S[..., n:].reshape(N * N, -1)
    re = f.real
    C = re[:, None] * re[None]
    if np.iscomplexobj(f):
        im = f.imag
        C = np.concatenate([C + im[:, None] * im[None], re[:, None] * im[None] - im[:, None] * re[None]])
    C = C.reshape(-1, f.shape[1])
    i1, c1, i2, c2 = _FEATURES[N, np.iscomplexobj(f)]
    R = C[i1] * c1 + C[i2] * c2  # the parts of G_jj and G_jk
    q = sum(R[1:N], R[0]) / N
    R[:N] -= q
    return ([S[..., :n], s[:n], _gram_planes(S[..., :n])],
            [S[..., n:], s[n:], np.concatenate([q[None], R])])


def _feature_tables(N: int, cplx: bool):
    """The tables of `_node_features` for N x N real or complex roots.

    The features f are the planes of A that `_gram_planes` gives: A_aa,
    Re A_ab and, for complex roots, Im A_ab (a < b); the Gram entries
    G_jj, Re G_jk and Im G_jk (j < k) follow the same order.  Indices point
    into the rows of C.  A feature's term in G_jk is
    conj(M_aj) A_ab M_bk + conj(M_bj) A_ba M_ak, so R[e, f] is
    c1 C[i1] + c2 C[i2] with C[i1] and C[i2] the part of conj(M_aj) M_bk
    and conj(M_bj) M_ak that G_e takes: its own part, or the other one for
    the factor i of Im A_ab (sign -1 onto Re G_jk).
    """
    up = _UPPER[N]
    kind = np.array([0] * N + [1] * len(up) + [2] * (len(up) if cplx else 0))
    a, b = np.array([(a, a) for a in range(N)] + up + (up if cplx else [])).T
    j, k = a[:, None], b[:, None]

    def index(u, v, im):  # part of conj(M_u) M_v for flat entries u, v
        return im * N ** 4 + u * N * N + v

    im = (kind[:, None] == 2) != (kind == 2)
    c1 = np.where((kind == 2) & (kind[:, None] != 2), -1.0, 1.0)[..., None]
    return (index(a * N + j, b * N + k, im), c1,
            index(b * N + j, a * N + k, im), c1 * np.array([0.0, 1.0, -1.0])[kind, None])


_FEATURES = {(N, cplx): _feature_tables(N, cplx) for N in (2, 3) for cplx in (False, True)}


def _tile_norms(P, sx, L, M, st, R, squared) -> np.ndarray:
    """The pair kernel: norms of P[:, :, b, i] @ M[:, :, b, j] times sx[b, i] st[b, j].

    With squared, their squares (`_top_norms`).  The arguments are a tile's
    rows of `_node_features` for x and its columns for t, (ball, node) on
    the last two axes; the result has shape (balls, rows, cols).  Each
    plane of G is one GEMM per ball, L[:, b].T (rows x F) @ R[e, :, b] (F x
    cols), and the planes go to the shared tail `_top_norms`, which hands
    the pairs whose two top singular values nearly coincide to LAPACK as
    the products P @ M.
    """
    G = np.matmul(L.transpose(1, 2, 0)[None], R.transpose(0, 2, 1, 3))  # (plane, ball, row, col)

    def flagged(near):
        b, i, j = np.nonzero(near)
        return np.moveaxis(P[:, :, b, i], -1, 0) @ np.moveaxis(M[:, :, b, j], -1, 0)

    return _top_norms(G[0], G[1:], sx[:, :, None] * st[:, None, :], flagged, squared)


def _product_norms(P: np.ndarray, M: np.ndarray, squared) -> np.ndarray:
    """Norms of P[:, :, b, i] @ M[:, :, b, j] for N = 1 and N >= 4, by `spectral_norms`.

    With squared, their squares.
    """
    norms = spectral_norms(np.moveaxis(np.einsum("iabr,akbc->ikbrc", P, M), (0, 1), (-2, -1)))
    return norms * norms if squared else norms


def _blocks(G: DilationGroup, balls, refs):
    """Blocks of consecutive balls with at most `_CHUNK` nodes per side.

    refs holds the level's reference node sets, one per side, so every
    ball has as many nodes on a side as its set.  The blocks are the
    `_runs` of the larger count under `_CHUNK`: as many whole balls as
    fit, or one ball with more nodes than `_CHUNK`.  A block is yielded as
    its ball count and, per side, its balls' nodes G.dilate(r, u) + c
    stacked ball by ball from one dilation (each ball's rows bitwise its
    `ball_nodes`), with each node's ball scale.  A ball whose centre is
    not in R^d of G raises `ValueError` at the call, before any block.
    """
    _check_dimension(G, balls)
    radii = np.array([B.radius for B in balls], dtype=float)[:, None]
    centers = np.array([B.center for B in balls]).reshape(-1, 1, G.d)
    # one scalar pow per ball, as the ball alone takes it; numpy's array
    # power can differ in the last bit (see _reduce_pairs)
    scales = np.array([G.euclidean_radius_bound(B.radius) for B in balls])
    return ((b - a, [((G.dilate(radii[a:b], u) + centers[a:b]).reshape(-1, G.d),
                      np.repeat(scales[a:b], len(u))) for u in refs])
            for a, b in _runs(np.full(len(balls), max(map(len, refs))), _CHUNK))


def _check_dimension(G: DilationGroup, balls) -> None:
    """`ValueError` naming the first ball whose centre is not in R^d of G."""
    for i, B in enumerate(balls):
        if len(B.center) != G.d:
            raise ValueError(f"ball {i} (centre {B.center.tolist()}, radius {B.radius}) has a "
                             f"centre in R^{len(B.center)}, but G.d = {G.d}")


def _pair_factors(W, pts: np.ndarray, p: float, scale):
    """Factors F and M of a matrix weight at the (m, d) nodes, from one factorization.

    F^H F = W^(2/p) and M M^H = W^(-2/p), so F = U W^(1/p) and
    M = W^(-1/p) V (U, V unitary): a consumer reads F u and |F| (`_shadows`,
    the fit of A_B), M^H u (the fit of A_B^#; M^H, not M, has Gram matrix
    W^(-2/p)) or products F(x) M(t), F A, A M (pair kernel, dual slice,
    q-sweep).  B = W^(2/p) is evaluated once, as `W.values` at p = 2 and by
    `safe_power_values` elsewhere, and the nodes that
    `weights.cholesky_factors` certifies take F = L^H and M = L^(-H) of
    B = L L^H.  The others take both roots of `safe_power_values`
    (U = V = I) as they would alone.  A node's factors do not depend on the
    batch.
    """
    B = W.values(pts) if p == 2 else safe_power_values(W, pts, 2.0 / p, scale)
    F, M, certified = cholesky_factors(B)
    if not certified.all():
        rest = ~certified
        scale = np.broadcast_to(scale, len(pts))[rest]
        F[rest], M[rest] = (safe_power_values(W, pts[rest], a, scale) for a in (1 / p, -1 / p))
    return F, M


def _ap_ladders(W, family, p: float, quad: BallQuadrature,
                G: DilationGroup) -> list[LadderValue]:
    """Muckenhoupt ladders of the balls of a family.

    Each level runs over blocks of consecutive balls (`_blocks`) with one
    dilation and one weight evaluation per side and block (a scalar weight
    through `_per_ball`); see `estimate_ap_constant`.
    """
    _check_exponent(p)
    if not _is_matrix(W):
        return _ladders(_per_ball(W, p, family, quad, G, ["scalar"], lambda b, values: [
            _scalar_quantity_at_nodes(values["scalar"], p)])[0])
    levels = []
    for level in range(_LEVELS):  # the x and the shifted t nodes of the double integral
        refs = [quad.reference_nodes(G, level, shifted, pair=True) for shifted in (False, True)]
        levels.append(np.concatenate([
            _matrix_quantities(_pair_factors(W, X, p, sx)[0], _pair_factors(W, T, p, st)[1],
                               p, count)
            for count, [(X, sx), (T, st)] in _blocks(G, family, refs)]))
    return _ladders(levels)


def ap_ball_quantity_ladder(W, B: AnisoBall, p: float, quad: BallQuadrature,
                            G: DilationGroup) -> LadderValue:
    """Muckenhoupt quantity of one ball across the refinement ladder.

    This is the one-ball family of `estimate_ap_constant`: the ball gets
    the nodes, value and error it has as a member of any family, bitwise.
    """
    return _ap_ladders(W, [B], p, quad, G)[0]


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


def default_ball_family(G: DilationGroup, max_center_norm: float = 8.0,
                        radii=None) -> list[AnisoBall]:
    """Integer lattice centers inside {|c|_A <= max_center_norm} with dyadic radii."""
    if not 0 <= max_center_norm < np.inf:
        raise ValueError(f"max_center_norm must satisfy 0 <= max_center_norm < inf, "
                         f"got {max_center_norm}")
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
    """Max per-ball quantity over the family; a lower bound of the supremum.

    The ladder runs one level at a time over blocks of consecutive balls
    with at most `_CHUNK` nodes per side (one ball at least).  The grid is
    built once per level and side (a matrix weight's t side is the shifted
    grid), and one dilation per block and side maps it into every ball of
    the block, delta_r u + c.  A scalar weight is evaluated once on the
    block's stacked nodes, and a matrix weight once per side
    (`_pair_factors`): F on the x side and M on the t side, with
    F^H F = W^(2/p) and M M^H = W^(-2/p), are L^H and L^(-H) of one
    factorization W^(2/p) = L L^H wherever it is certified to give the
    roots' products up to rounding, and the roots W^(+-1/p) elsewhere.
    Each nudge off a singular set is sized by the node's own ball.  Pair
    norms come from the pair kernel (`_span_norms`): each factor is squared
    into per-node features once per span of balls, each Gram plane of a
    tile of at most `_CHUNK` pairs is one GEMM, a span holds several whole
    balls when they fit, and each span is reduced to its balls' quantities
    at once (from squared norms at p = 2).  Where the weight is evaluated
    pointwise (its value at a node does not depend on the other nodes of
    the batch), each value and error is bitwise that of
    `ap_ball_quantity_ladder` on the ball alone, so the report does not
    depend on how the family is blocked.
    """
    if not family:
        raise ValueError("family must be nonempty")
    return _ap_report(getattr(W, "label", "weight"), p, family,
                      _ap_ladders(W, family, p, quad, G), quad)


def _ap_report(label: str, p: float, family, ladders, quad: BallQuadrature) -> ApReport:
    values = np.array([l.value for l in ladders])
    errors = np.array([l.error for l in ladders])
    return ApReport(label, p, list(family), values, errors, float(values.max()),
                    family_descriptor(family), quad.describe())


# -- averaging operators -----------------------------------------------------------


def averaging_operator_check(W, B: AnisoBall, p: float, quad: BallQuadrature,
                             G: DilationGroup, test_fields) -> float:
    """Lower bound for the L^p(W) norm of f -> 1_B avg_B(f).

    Both sides are restricted to the ball, so constants give ratio 1 and the
    unweighted case is a contraction by Jensen.
    """
    _check_exponent(p)
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


# -- matrix shadows -----------------------------------------------------------------


def _node_scales(pts: np.ndarray) -> np.ndarray:
    """A nudge scale per point, 1 + its largest |coordinate|, so that a
    point's value does not depend on the batch it is evaluated in."""
    return 1.0 + np.max(np.abs(pts), axis=1, initial=0.0)


def _shadows(W, p: float, balls, quad: BallQuadrature, G: DilationGroup, names, v=None):
    """Yield (level, ball index, {name: values at its unshifted nodes}), level by level.

    This is the one per-ball family pass: each level runs through `_blocks`
    once, and every node is nudged off a singular set by the scale of its
    own ball.  A scalar weight gives "scalar", w itself.  A matrix weight is
    factored once per block (`_pair_factors`), F and M together, and gives the
    "slice" |F v|^p = |W^(1/p) v|^p and, if named, the "norm" |F|^p = |W|
    and the "dual-slice" |F(c) M|^p' = |W^(1/p)(c) W^(-1/p)|^p' (p > 1).
    F(c) is taken once per ball, at its centre c, nudged by the centre's
    own `_node_scales`, so that balls with one centre (B and lambda B)
    share one F(c).
    """
    levels = [_blocks(G, balls, [quad.reference_nodes(G, level)]) for level in range(_LEVELS)]
    if "dual-slice" in names:
        centres = np.array([B.center for B in balls], dtype=float)
        left = _pair_factors(W, centres, p, _node_scales(centres))[0]
    for level, blocks in enumerate(levels):
        first = 0
        for count, [(X, sx)] in blocks:
            if not _is_matrix(W):
                out = {"scalar": safe_power_values(W, X, 1.0, sx)}
            else:
                F, M = _pair_factors(W, X, p, sx)
                out = {"slice": weighted_magnitudes(F, v) ** p}
                if "norm" in names:
                    out["norm"] = spectral_norms(F) ** p
                if "dual-slice" in names:
                    Fc = np.repeat(left[first:first + count], len(X) // count, axis=0)
                    out["dual-slice"] = spectral_norms(Fc @ M) ** (p / (p - 1.0))
            for b, values in enumerate(zip(*(np.split(s, count) for s in out.values()))):
                yield level, first + b, dict(zip(out, values))
            first += count


def _per_ball(W, p: float, balls, quad: BallQuadrature, G: DilationGroup, names, stat,
              v=None) -> list:
    """Columns of per-ball statistics on every level of `_shadows`.

    stat(ball index, values) lists a ball's statistics on a level, as many
    for every ball; column k holds the k-th as `_ladders` reads them,
    levels[level][ball].
    """
    levels = [[] for _ in range(_LEVELS)]
    for level, b, values in _shadows(W, p, balls, quad, G, names, v):
        levels[level].append(stat(b, values))
    return [[[s[k] for s in level] for level in levels] for k in range(len(levels[0][0]))]


def scalar_slice_ap(W, p: float, v, family: list[AnisoBall],
                    quad: BallQuadrature, G: DilationGroup) -> ApReport:
    """A_p report for the scalar slice |W^(1/p)(.) v|^p (A_1 when p <= 1).

    The slice values come from `_shadows`.  W must be a matrix weight and v
    a finite, nonzero 1-D vector of W.N real or complex entries, or
    `ValueError`.
    """
    _check_exponent(p)
    if not _is_matrix(W):
        raise ValueError("scalar slices need a matrix weight")
    v = np.asarray(v)
    if (v.ndim != 1 or not np.issubdtype(v.dtype, np.number) or not np.isfinite(v).all()
            or not v.any()):
        raise ValueError(f"direction v must be a finite, nonzero 1-D vector, got {v!r}")
    if not family:
        raise ValueError("family must be nonempty")
    [levels] = _per_ball(W, p, family, quad, G, ["slice"], lambda b, values: [
        _scalar_quantity_at_nodes(values["slice"], p)], v)
    return _ap_report(f"slice[{getattr(W, 'label', 'W')}]", p, family, _ladders(levels), quad)


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


def doubling_check(W, p: float, family: list[AnisoBall], lambdas,
                   quad: BallQuadrature, G: DilationGroup,
                   bound_constant: float | None = None) -> DoublingReport:
    """Mass ratios w(lambda B) / w(B) for the weight and its scalar shadows.

    A matrix weight's shadows (`_shadows`) are its slice along e_1, its
    spectral norm and, for p > 1, its dual slice at each ball's centre.
    Every B and lambda B make one family.  Without a bound_constant the
    bound is the A_max(1,p) constant of the probe (a scalar weight, or the
    e_1 slice), each ball's quantity taken from the values of B on its
    levels.  W must be a weight, every lambda finite and >= 1, and fitting
    beta needs some lambda > 1; `ValueError` otherwise, as for a ball not
    in R^d of G, numbered in the family of every B and its dilates.
    """
    _check_exponent(p)
    if not hasattr(W, "values"):
        raise ValueError(f"W must be a scalar or matrix weight, got {W!r}")
    if not len(family):
        raise ValueError("family must be nonempty")
    if not all(1 <= lam < np.inf for lam in lambdas) or not any(lam > 1 for lam in lambdas):
        raise ValueError(f"lambdas must satisfy 1 <= lambda < inf, and some > 1, "
                         f"got {list(lambdas)}")
    if _is_matrix(W):
        names, v = ["slice", "norm"] + ["dual-slice"] * (p > 1), np.eye(W.N)[0]
    else:
        names, v = ["scalar"], None
    k = 1 + len(lambdas)  # B of the family's ball i is ball i k, its dilates follow it
    balls = [b for B in family
             for b in [B] + [AnisoBall(B.center, lam * B.radius) for lam in lambdas]]

    def stat(b, values):  # each shadow's mass, then the probe's quantity if b is a B
        vol = ball_volume(G, balls[b].radius)
        return [vol * np.mean(values[name]) for name in names] + [
            _scalar_quantity_at_nodes(values[names[0]], max(1.0, p))
            if bound_constant is None and b % k == 0 else None]

    *masses, quantities = _per_ball(W, p, balls, quad, G, names, stat, v)
    ladders = {name: _ladders(m) for name, m in zip(names, masses)}
    rows = []
    for i in range(len(family)):
        for name in names:
            base, *grown = ladders[name][i * k:(i + 1) * k]
            rows += [(i, name, float(lam), mass.value / base.value)
                     for lam, mass in zip(lambdas, grown)]
    fitted = {}
    for name in names:
        lx, ly = np.array([(np.log(lam), np.log(max(r, 1e-300)))
                           for _, n, lam, r in rows if n == name]).T
        fitted[name] = float((lx * ly).sum() / (lx * lx).sum())
    if bound_constant is None:
        bound_constant = max(l.value for l in _ladders([q[::k] for q in quantities]))
    return DoublingReport(getattr(W, "label", "weight"), p, G.nu,
                          float(bound_constant), rows, fitted)


# -- reverse Hoelder -----------------------------------------------------------------


@dataclass
class ReverseHolderResult:
    r_best: float | None
    c1: float
    table: list  # (r, max ratio or None)


def reverse_holder_search(w, family: list[AnisoBall], r_grid,
                          quad: BallQuadrature, G: DilationGroup) -> ReverseHolderResult:
    """Largest grid r with (avg w^r)^(1/r) <= c1 * avg w across the family.

    w is evaluated once per level and block of balls (`_per_ball`), each
    node nudged off the singular set by its ball's scale, and every r
    reuses those values.  The avg w ladder also checks that w itself is
    integrable, which must hold before any r > 1 makes sense: it raises
    `NonIntegrable` if not.  A matrix weight, an empty family, or an r of
    r_grid outside 1 < r < inf raises `ValueError`.
    """
    if _is_matrix(w):
        raise ValueError("reverse Hoelder search needs a scalar weight")
    if not family:
        raise ValueError("family must be nonempty")
    if not all(1 < r < np.inf for r in r_grid):
        raise ValueError(f"r_grid must hold exponents r with 1 < r < inf, got {list(r_grid)}")
    r_grid = sorted(r_grid)
    # avg w, then (avg w^r)^(1/r) for each r
    means, *powers = _per_ball(w, 1.0, family, quad, G, ["scalar"], lambda b, values: [
        np.mean(values["scalar"])] + [np.mean(values["scalar"] ** r) ** (1.0 / r) for r in r_grid])
    lo = [lv.value for lv in _ladders(means)]
    table = []
    for r, stats in zip(r_grid, powers):
        try:
            hi = _ladders(stats)
            worst = float(max(h.value / low for h, low in zip(hi, lo)))
        except NonIntegrable:  # r diverges on some ball
            worst = None
        table.append((float(r), worst))
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
    """n unit vectors of R^N, or of C^N read from unit vectors of R^2N (real
    parts first), from the Halton polar stream, the first N being the axes."""
    dirs, _ = _polar_stream(n, 2 * N if complex_ else N)
    if complex_:
        dirs = dirs[:, :N] + 1j * dirs[:, N:]
    # make sure the coordinate axes are represented
    dirs[:N] = np.eye(N)
    return dirs


def _fit_reducing(root: np.ndarray, dirs: np.ndarray, exponent: float):
    """Fit |A u| to eta(u) = (avg |R(t) u|^exponent)^(1/exponent), R = root, R^H R = W^(2a).

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
    mags = weighted_magnitudes(root, dirs[:, None, :])  # (K, m)
    eta = np.mean(mags ** exponent, axis=1) ** (1.0 / exponent)
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

    M = A_B^H A_B is fitted by reweighted least squares (`_fit_reducing`) to
    |F u| on max(2 N^2, 8) directions, complex when F is, with F and M from
    one `_pair_factors` call nudged by the ball's scale; at p = 2 this is
    the Gram identity A_B = (avg_B W)^(1/2).  A_B^# is fitted to |M^H u|
    with the dual exponent (p > 1 only).  The fit is degenerate when M is
    not positive definite or its distortion exceeds 1.05 sqrt(N).  For p > 1
    the q-sweep takes |F(x) A_B^#| and |A_B M(t)| to each q of q_grid,
    p < q < inf (or `ValueError`).
    """
    _check_exponent(p)
    if not _is_matrix(W):
        raise ValueError("reducing operators need a matrix weight")
    if q_grid is not None and not all(p < q < np.inf for q in q_grid):
        raise ValueError(f"q_grid must hold exponents q with p < q < inf, got {list(q_grid)}")
    N = W.N
    scale = G.euclidean_radius_bound(B.radius)
    nodes = quad.ball_nodes(G, B, _LEVELS - 1)
    F, M = _pair_factors(W, nodes, p, scale)
    complex_ = bool(np.max(np.abs(F.imag)) > 1e-14 * np.max(np.abs(F)))
    dirs = _directions(N, max(2 * N * N, 8), complex_)
    A_B, distortion, positive = _fit_reducing(F, dirs, p)
    if p > 1:
        A_sharp, sharp_distortion, sharp_positive = _fit_reducing(
            M.conj().swapaxes(-1, -2), dirs, p / (p - 1.0))
        positive &= sharp_positive
        product_norm = float(np.linalg.norm(A_B @ A_sharp, 2))
    else:
        A_sharp, sharp_distortion, product_norm = None, None, None

    q_values, largest_q = {}, None
    if p > 1 and q_grid is None:
        q_grid = [p + 0.25, p + 0.5, p + 0.75, p + 1.0]
    if p > 1 and len(q_grid):  # a fit-only call (q_grid = []) evaluates no more roots
        # the per-level norms |F(x) A_B^#| and |A_B M(t)| are shared by
        # every q; the finest x level is the fit's F
        left = [spectral_norms(f @ A_sharp) for f in [_pair_factors(
            W, quad.ball_nodes(G, B, level), p, scale)[0] for level in range(_LEVELS - 1)] + [F]]
        right = [spectral_norms(A_B @ _pair_factors(
            W, quad.ball_nodes(G, B, level, shifted=True), p, scale)[1])
            for level in range(_LEVELS)]
        for q in q_grid:
            try:
                lv, lv2 = _ladders([[np.mean(a ** q), np.mean(b ** q)]
                                    for a, b in zip(left, right)])
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
                      quad: BallQuadrature, G: DilationGroup) -> list[InvarianceRow]:
    """Quantity of W∘T on B against the quantity of W on T(B), per ball.

    B and T(B) are dilates of one unit ball and share its reference nodes,
    so each side is the other after the change of variables y = T(x).  An
    empty family gives no rows.
    """
    if not family:
        return []
    composed = _ap_ladders(W.compose(T), family, p, quad, G)
    transported = _ap_ladders(W, [map_ball(G, T, B) for B in family], p, quad, G)
    return [InvarianceRow(B, la.value, lb.value, abs(la.value - lb.value), la.error + lb.error)
            for B, la, lb in zip(family, composed, transported)]


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
                        quad: BallQuadrature, beta: float) -> TailBoundResult:
    """Integral of w(x) (1 + t_j |x - x_jl|_A)^(-L) against the cell mass.

    Dyadic annuli around the cell are summed until a term falls below 1e-12
    of the sum, or for `_TAIL_DEPTH` annuli followed by the geometric
    remainder of the last terms; the result is compared with the geometric
    bound implied by the measured doubling constant of w at exponent beta.
    Annulus m takes the nodes of its ball B(x_jl, 2^m r0 / t_j), each
    nudged off the singular set by that ball's scale.  A matrix weight, an
    ell that is not a point of R^d (shape (d,)), or numbers outside
    0 < t_j < inf, finite beta and beta < L < inf, raise `ValueError`.
    """
    if _is_matrix(w):
        raise ValueError("weighted tail bound needs a scalar weight")
    if not 0 < t_j < np.inf:
        raise ValueError(f"t_j must satisfy 0 < t_j < inf, got {t_j}")
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if not beta < L < np.inf:
        raise ValueError(f"L must satisfy beta < L < inf, got L = {L} with beta = {beta}")
    ell = np.asarray(ell, dtype=float)
    if ell.shape != (G.d,):
        raise ValueError(f"ell must be a point of R^d, got shape {ell.shape} with G.d = {G.d}")
    r0 = compute_r0(G)
    center = G.dilate(1.0 / t_j, ell)
    rho = r0 / t_j

    def annulus_integral(m):
        """Integral over the dyadic annulus m (m = 0 is the core cell)."""
        R = AnisoBall(center, 2.0 ** m * rho)
        nodes = quad.ball_nodes(G, R, _LEVELS - 1)
        qn = G.quasi_norm(nodes - center)
        vol = ball_volume(G, R.radius)
        if m > 0:  # R less its inner half
            keep = qn >= 2.0 ** (m - 1) * rho
            vol, nodes, qn = vol - ball_volume(G, R.radius / 2), nodes[keep], qn[keep]
        if not len(nodes):
            return 0.0, 0.0
        vals = safe_power_values(w, nodes, 1.0, G.euclidean_radius_bound(R.radius))
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
        # Past the core the terms shrink geometrically, at a ratio that
        # settles from above (2^(1 - L) for the constant weight in 1-D).
        # When the ratio rho of the last two terms is below 1 and no larger
        # than the ratio before it, and later ratios grow no more, the rest
        # of the series is at most term * rho / (1 - rho).  A ratio that is
        # not below 1, or still grows, bounds nothing.
        rho, before = terms[-1] / terms[-2], terms[-2] / terms[-3]
        if not rho < 1.0 or rho > before:
            raise TruncationNotConverged(
                f"annulus terms not shrinking geometrically at depth {_TAIL_DEPTH}: "
                f"ratios {before:.3g}, {rho:.3g}"
            )
        total += terms[-1] * rho / (1.0 - rho)
    # on the m-th annulus 1 + t_j |x - x_jl|_A >= 1 + 2^(m-1) r0, and the
    # annulus mass is at most c' 2^(m beta) times the cell mass.  Past M
    # terms, 1 + 2^(m-1) r0 > 2^(m-1) r0 bounds the rest by the geometric
    # series (2 / r0)^L 2^(m (beta - L)), m > M.
    M = max(m_used, 60)
    tail = sum(2.0 ** (m * beta) * (1.0 + 2.0 ** (m - 1) * r0) ** (-L)
               for m in range(1, M + 1))
    tail += (2.0 / r0) ** L * 2.0 ** ((M + 1) * (beta - L)) / (1.0 - 2.0 ** (beta - L))
    bound = 1.0 + doubling_c * tail
    return TailBoundResult(float(total / core_mass), float(bound), terms,
                           float(doubling_c))
