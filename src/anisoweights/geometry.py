"""Anisotropic balls, affine transport, lattice cells, structured coverings.

Balls are B_A(c, r) = {x : |x - c|_A < r}.  Coverings here are truncated to
a bounded region {|xi|_A <= max_norm}; coverage, overlap height, and
disjointness of shrunk cores are validated by sampling rather than proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dilation import DilationGroup, NonFiniteInput, triangle_constant_estimate


class NonPositiveRadius(ValueError):
    """Ball radius must be strictly positive."""


class VerificationFailed(RuntimeError):
    """A sampled geometric invariant did not hold."""


class CoverageGap(RuntimeError):
    """A sampled point of the target region is not covered by any ball."""


class HeightUnbounded(RuntimeError):
    """Measured covering height exceeds _HEIGHT_CAP."""


@dataclass(frozen=True)
class AnisoBall:
    """Ball B_A(center, radius) for the quasi-norm of some dilation group."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).ravel())
        if not self.radius > 0:
            raise NonPositiveRadius(f"radius must be > 0, got {self.radius}")
        if not (self.radius < np.inf and np.isfinite(self.center).all()):
            raise NonFiniteInput(f"ball needs a finite centre and radius, got "
                                 f"{self.center.tolist()} and {self.radius}")

    def contains(self, G: DilationGroup, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return G._below(pts - self.center, self.radius)


@dataclass(frozen=True)
class AffineMap:
    """x -> delta_scale x + shift for a fixed dilation group."""

    group: DilationGroup
    scale: float
    shift: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shift", np.asarray(self.shift, dtype=float).ravel())
        if not 0 < self.scale < np.inf:
            raise ValueError(f"scale must be finite and > 0, got {self.scale}")

    def apply(self, points):
        return self.group.dilate(self.scale, points) + self.shift

    def inverse(self) -> "AffineMap":
        s = 1.0 / self.scale
        return AffineMap(self.group, s, -self.group.dilate(s, self.shift))

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: x -> self(other(x))."""
        return AffineMap(
            self.group,
            self.scale * other.scale,
            self.group.dilate(self.scale, other.shift) + self.shift,
        )


def euclidean_ball_volume(d: int) -> float:
    """Volume of the Euclidean unit ball in R^d.

    The recurrence omega_d = omega_(d-2) * (2 pi / d) from omega_0 = 1 and
    omega_1 = 2 is exact in d = 1 and 2 and equals the gamma-function form
    bitwise for d = 4 and 8 (within 2 ulp for d <= 10).
    """
    omega = 2.0 if d % 2 else 1.0
    for k in range(2 + d % 2, d + 1, 2):
        omega *= 2.0 * np.pi / k
    return omega


def ball_volume(G: DilationGroup, r: float) -> float:
    """|B_A(xi, r)| = r^nu * omega_d: B_A(0, 1) is the Euclidean unit ball,
    and det delta_r = r^nu."""
    if not r > 0:
        raise NonPositiveRadius(f"radius must be > 0, got {r}")
    return r ** G.nu * euclidean_ball_volume(G.d)


def map_ball(G: DilationGroup, T: AffineMap, B: AnisoBall) -> AnisoBall:
    """Affine image: T(B_A(xi, r)) = B_A(delta_t xi + c, r t)."""
    return AnisoBall(T.apply(B.center), B.radius * T.scale)


_PAIR_CHUNK = 2 ** 13  # candidate coordinates (pairs times d) per batch, (ball, row) pairs per run


def _within(diff: np.ndarray, reach) -> np.ndarray:
    """|diff|_inf <= reach row by row, one column compare at a time (NaN is outside)."""
    near = np.abs(diff[:, 0]) <= reach
    for col in diff.T[1:]:
        near &= np.abs(col) <= reach
    return near


def _row_grid(coords: np.ndarray, reach: np.ndarray) -> tuple[np.ndarray, list[int], float]:
    """Origin, cells per axis and cell width of the rows over the columns of coords.

    The cell width starts at the larger of half the median reach (the upper
    median) and the largest spread over the point count, and doubles while
    the rows outnumber the points.  Without a column, a point, or a finite
    spread and width, there is one row.
    """
    n, k = coords.shape
    if not (n and k):
        return np.zeros(k), [1] * k, np.inf
    origin = coords.min(axis=0)
    span = coords.max(axis=0) - origin
    width = 0.5 * float(reach[np.argsort(reach, kind="stable")[len(reach) // 2]])
    if not (np.all(np.isfinite(span)) and 0 < width < np.inf):
        return origin, [1] * k, np.inf
    width = max(width, float(span.max(initial=0.0)) / n)
    while True:
        cells = [int(s // width) + 1 for s in span]
        if math.prod(cells) <= n:
            return origin, cells, width
        width *= 2.0


def _cell_of(values: np.ndarray, origin, width: float, count) -> np.ndarray:
    """floor((values - origin) / width), at most count - 1, computed in place."""
    values -= origin
    values /= width
    np.floor(values, out=values)
    return np.minimum(values, count - 1, out=values)


def _runs(sizes: np.ndarray, limit: int):
    """Ranges [first, last) of whole consecutive entries of sizes, in order.

    Each range sums to at most limit, unless it is a single larger entry.
    """
    ends = np.cumsum(sizes)
    first = 0
    while first < len(sizes):
        base = ends[first] - sizes[first]
        last = max(first + 1, int(np.searchsorted(ends, base + limit, "right")))
        yield first, last
        first = last


def _row_keys(coords: np.ndarray, order: np.ndarray, origin, cells, width) -> np.ndarray:
    """The sorted keys row * n + rank of the points coords[order[rank]] (see _segments)."""
    n = len(order)
    keys = np.zeros(n)
    for axis, count in enumerate(cells):  # row-major: the last axis runs fastest
        keys *= count
        keys += _cell_of(coords[order, axis], origin[axis], width, count)
    keys = keys.astype(np.int64)
    keys *= n
    keys += np.arange(n)
    keys.sort()
    return keys


def _row_ranges(coords: np.ndarray, reach: np.ndarray, origin, cells, width):
    """First cell and cell count per axis and ball, as (axes, balls) integers.

    Ball i's range holds the cells of coords[i] +- reach[i] on each axis,
    the ends widened past their rounding; an empty range, or one with a NaN
    end, has count 0.
    """
    per_axis = np.array(cells, dtype=float)[:, None]
    with np.errstate(invalid="ignore"):
        pad = np.abs(coords.T) + reach
        pad *= 1e-9
        pad += reach
        first = _cell_of(coords.T - pad, origin[:, None], width, per_axis)
        np.fmax(first, 0.0, out=first)
        pad += coords.T
        last = _cell_of(pad, origin[:, None], width, per_axis)
        last -= first
        last += 1.0
        return first.astype(np.int64), np.fmax(last, 0.0).astype(np.int64)


def _ball_rows(first: np.ndarray, counts: np.ndarray, cells: list[int]):
    """Runs (a, b, ball, row) of the (ball, row) pairs of the row ranges (_row_ranges).

    Balls a..b-1 visit at most _PAIR_CHUNK rows together, unless a single
    ball visits more (_runs); the pairs come in the order of ball and then
    row.
    """
    rows = counts.prod(axis=0)
    for a, b in _runs(rows, _PAIR_CHUNK):
        ball = np.repeat(np.arange(a, b), rows[a:b])
        local = np.arange(len(ball)) - np.repeat(np.cumsum(rows[a:b]) - rows[a:b], rows[a:b])
        row = np.zeros(len(ball), dtype=np.int64)
        for axis, count in enumerate(cells):
            digit, local = np.divmod(local, counts[axis + 1:, ball].prod(axis=0))
            row = row * count + first[axis, ball] + digit
        yield a, b, ball, row


def _segments(centers: np.ndarray, reach: np.ndarray, points: np.ndarray):
    """The search of _box_pairs: one contiguous segment of points per (ball, row).

    Coordinates 1..d-1 are bucketed into rows of cells (_row_grid), and the
    points are ordered by row, then by first coordinate, ties by index.  A
    ball visits the rows its box touches (_row_ranges), and in each row the
    points with centers[i, 0] - reach[i] <= x <= centers[i, 0] + reach[i],
    found by searchsorted on the integer keys row * n + (rank of x)
    (_row_keys).  With one row, as in 1-D, the segment is the ball's strip
    on the first coordinate.  The (ball, row) pairs are searched in runs
    (_ball_rows), so that few are at work at once, and empty segments are
    dropped.  Returns the point order; per segment, in the order of ball
    and then row, the start in that order and the size; and the offset of
    each ball's first segment.
    """
    n = len(points)
    order = np.argsort(points[:, 0], kind="stable")
    x = points[order, 0]
    lo = np.searchsorted(x, centers[:, 0] - reach, "left")
    hi = np.searchsorted(x, centers[:, 0] + reach, "right")
    del x
    grid = _row_grid(points[:, 1:], reach)
    if math.prod(grid[1]) == 1:  # one row: the segment is the strip
        return order, lo, np.maximum(hi - lo, 0), np.arange(len(centers) + 1)
    keys = _row_keys(points[:, 1:], order, *grid)
    per_ball, starts, sizes = [], [], []
    for a, b, ball, row in _ball_rows(*_row_ranges(centers[:, 1:], reach, *grid), grid[1]):
        row *= n
        start = np.searchsorted(keys, row + lo[ball], "left")
        size = np.searchsorted(keys, row + hi[ball], "left") - start
        full = size > 0
        per_ball.append(np.bincount(ball[full] - a, minlength=b - a))
        starts.append(start[full])
        sizes.append(size[full])
    keys %= n
    offsets = np.concatenate([[0], np.cumsum(np.concatenate(per_ball))])
    return order[keys], np.concatenate(starts), np.concatenate(sizes), offsets


def _box_pairs(centers: np.ndarray, reach: np.ndarray, points: np.ndarray, same: bool = False):
    """Batches (i, j) of the points j in the box |points[j] - centers[i]|_inf <= reach[i].

    Each ball gathers its segments (_segments), which decide the first
    coordinate, and the box tests the others one column at a time.  With
    same, points are the centres themselves and each pair comes once, with
    j < i.  A batch holds whole balls, ordered by ball and then by segment,
    of at most _PAIR_CHUNK / d candidates unless a single ball's set is
    longer (_runs): the (candidates, d) arrays of a batch's differences set
    its memory.
    """
    if not len(centers):
        return
    order, start, size, seg_offsets = _segments(centers, reach, points)
    seg_ends = np.cumsum(size)
    ends = np.concatenate([[0], seg_ends])[seg_offsets[1:]]
    sizes = np.diff(ends, prepend=0)

    def batch(first: int, last: int):
        segs = slice(seg_offsets[first], seg_offsets[last])
        shift = np.repeat(start[segs] - seg_ends[segs] + size[segs], size[segs])
        j = order[np.arange(ends[first] - sizes[first], ends[last - 1]) + shift]
        b = np.repeat(np.arange(first, last), sizes[first:last])
        near = j < b if same else None
        for axis in range(1, points.shape[1]):
            box = np.abs(points[j, axis] - centers[b, axis]) <= reach[b]
            near = box if near is None else near & box
        return (b, j) if near is None else (b[near], j[near])

    for first, last in _runs(sizes, _PAIR_CHUNK // points.shape[1]):
        yield batch(first, last)  # its temporaries are freed before the caller's work


def ball_pairs(G: DilationGroup, centers, radii, points) -> tuple[np.ndarray, np.ndarray]:
    """Ball and point indices (i, j) of |points[j] - centers[i]|_A < radii[i].

    Pairs come ordered by ball, then by point: a sum over them adds each
    point's balls in the order of a loop over the balls, bitwise the same.
    Candidates are the points in each ball's Euclidean box (radii may be a
    scalar), found by one search over every coordinate (_box_pairs) in
    batches of whole balls; each batch's pairs are sorted by ball and point.
    Each batch is decided by the sign of the defining function at the
    radius (DilationGroup._side), with no solve; a batch holding a pair
    within the tie band is solved by one quasi-norm call, so the pairs
    equal those of quasi_norm(batch) < radii bitwise.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    radii = np.broadcast_to(np.asarray(radii, dtype=float), len(centers))
    keys = [np.empty(0, dtype=int)]
    for b, j in _box_pairs(centers, G.euclidean_radius_bound(radii), points):
        inside = G._below(points[j] - centers[b], radii[b])
        keys.append(np.sort(b[inside] * len(points) + j[inside]))
    keys = np.concatenate(keys)  # frees the per-batch pieces before the split
    return np.divmod(keys, len(points))


# -- low-discrepancy helpers -------------------------------------------------


def _first_primes(d: int) -> list[int]:
    primes = []
    k = 2
    while len(primes) < d:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def _halton(n: int, d: int) -> np.ndarray:
    """Points 1..n of the unscrambled Halton stream in [0, 1)^d, shape (n, d).

    Column k is the radical inverse of the index in the k-th prime base.
    Index 0, the degenerate origin, is skipped.  The digits are summed in
    the order of scipy's van der Corput kernel (add digit * base^-j, then
    divide the weight by the base), so the points equal those of
    ``qmc.Halton(d, scramble=False)`` after ``fast_forward(1)`` bitwise,
    with the same column-major layout; ``_halton(n + k, d)[k:]`` is the
    stream from index k + 1 on.
    """
    out = np.zeros((d, n))
    for col, base in zip(out, _first_primes(d)):
        q = np.arange(1, n + 1)
        weight = 1.0 / base
        while q.any():
            q, digit = np.divmod(q, base)
            col += digit * weight
            weight /= base
    return out.T


# Cephes' ndtri (S. L. Moshier), the normal quantile that scipy.special ships:
# a rational function of y - 1/2 for e^-2 < y < 1 - e^-2 (P0/Q0), and of
# 1/x with x = sqrt(-2 log y) out to y = e^-32 (P1/Q1).  Cephes' far-tail
# branch (P2/Q2, y < e^-32 = 1.3e-14) is left out: `_normal_directions`
# clips its input to [1e-12, 1 - 1e-12].  The Q tuples carry Cephes'
# implicit leading 1.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)


# libm's log, as scipy's ndtri takes it: numpy's SIMD log can differ in the last bit
_libm_log = np.frompyfunc(math.log, 1, 1)


def _polevl(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """Horner's rule in Cephes' order, highest coefficient first."""
    out = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        out = out * x + c
    return out


def _ndtri(y: np.ndarray) -> np.ndarray:
    """Normal quantile of y in [1e-12, 1 - 1e-12], bitwise `scipy.special.ndtri`."""
    upper = y > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y, y)
    out = np.empty_like(y)
    mid = y > _EXP_M2
    c = y[mid] - 0.5
    c2 = c * c
    out[mid] = (c + c * (c2 * _polevl(c2, _P0) / _polevl(c2, _Q0))) * _S2PI
    x = np.sqrt(-2.0 * _libm_log(y[~mid]).astype(float))
    z = 1.0 / x
    tail = x - _libm_log(x).astype(float) / x - z * _polevl(z, _P1) / _polevl(z, _Q1)
    out[~mid] = np.where(upper[~mid], tail, -tail)
    return out


def _normal_directions(u: np.ndarray) -> np.ndarray:
    """Unit vectors from uniform coordinates u of shape (n, k).

    Each row goes through the normal quantile and is normalised; a row that
    maps to the zero vector becomes e_1.  In one dimension the result is
    the sign of u - 1/2, with +1 at u = 1/2, and needs no normal quantile.
    """
    if u.shape[1] == 1:
        return np.where(u < 0.5, -1.0, 1.0)
    g = _ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    degenerate = norms[:, 0] == 0.0
    g[degenerate, 0] = 1.0
    norms[degenerate] = 1.0
    return g / norms


def _polar_stream(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (n, d) and last coordinates (n,) of Halton points 1..n in d + 1
    dimensions; the rows are independent, so a window is bitwise that of a longer stream.
    Every Halton reference set reads it: node i of a set in B_A(0, 1), the Euclidean unit
    ball, lies on direction i at radius u^(1/d), or (u^(1/d))^(1/4) near the boundary."""
    u = _halton(n, d + 1)
    return _normal_directions(u[:, :d]), u[:, d]


# -- lattices and the unit cell radius -----------------------------------------


def _lattice(axes) -> np.ndarray:
    """The product of the 1-D axes as (m, len(axes)) points, last axis fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


_R0_MARGIN = 0.01  # relative room between the unit cube's envelope and r0


def _cube_boundary_grid(d: int) -> np.ndarray:
    """The 9^d grid on [-1/2, 1/2]^d, restricted to the cube's boundary."""
    pts = _lattice([np.linspace(-0.5, 0.5, 9) for _ in range(d)])
    on_boundary = np.any(np.isclose(np.abs(pts), 0.5), axis=1)
    return pts[on_boundary]


def compute_r0(G: DilationGroup) -> float:
    """Radius with the unit cube [-1/2, 1/2)^d inside B_A(0, r0).

    Uses the exact quasi-norm envelope for the Euclidean radius sqrt(d)/2
    of the cube, widened by `_R0_MARGIN`, then verifies on a
    corner-and-face grid.
    """
    r0 = (1.0 + _R0_MARGIN) * G.quasi_radius_bound(np.sqrt(G.d) / 2.0)
    grid = _cube_boundary_grid(G.d)
    qn = G.quasi_norm(grid)
    if np.any(qn >= r0):
        raise VerificationFailed(
            f"cube point with |x|_A = {qn.max():.6g} >= r0 = {r0:.6g}"
        )
    return float(r0)


# -- structured coverings ------------------------------------------------------


# largest overlap height a structured covering may measure
_HEIGHT_CAP = 256
# reference nodes per ball in the shrink validation and the intersection stats
_WITNESSES = 128


@dataclass
class StructuredCovering:
    """Balls B_A(zeta_j, c * <zeta_j>_A) covering {|xi|_A <= max_norm}.

    shrink_factor is the validated factor c'' such that the balls with radii
    c'' * <zeta_j>_A are pairwise disjoint on the sampled witness sets; the
    greedy packing separation factor is recorded separately.
    """

    group: DilationGroup
    c: float
    centers: np.ndarray
    t: np.ndarray
    radii: np.ndarray
    max_norm: float
    separation_factor: float
    shrink_factor: float
    height: int
    triangle_estimate: float
    shells: list = field(default_factory=list)

    def __len__(self):
        return len(self.centers)

    def ball(self, j: int) -> AnisoBall:
        return AnisoBall(self.centers[j], self.radii[j])

    def cover_count(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        _, hits = ball_pairs(self.group, self.centers, self.radii, pts)
        return np.bincount(hits, minlength=len(pts))


def build_structured_covering(
    G: DilationGroup,
    c: float,
    max_norm: float,
    seed: int,
    candidates_per_shell: int | None = None,
    validation_samples: int = 2048,
) -> StructuredCovering:
    """Greedy net construction on dyadic shells, then sampled validation.

    On the core {|zeta|_A < 1} and each shell {2^m <= |zeta|_A < 2^(m+1)}
    a maximal subset of deterministic candidates is kept whose pairwise
    quasi-distances exceed sep * min(<zeta_i>, <zeta_j>), where
    sep = c / (4 * C_est) and C_est is the sampled triangle constant.
    Candidates are taken in order, each against the previous shell's
    selections and the candidates kept before it.  Every such pair in a
    Euclidean box, found by one candidate search over every coordinate
    (_box_pairs, which also serves the coverage, height and shrink checks
    through ball_pairs), is decided without a solve by the sign rule
    |x|_A <= thresh <=> f(thresh) <= 1 (DilationGroup._side).  Only a
    candidate whose sole conflicts with kept partners lie within the tie
    band, |f - 1| <= 4e-12 alpha2/alpha1, is decided by one quasi-norm solve
    over its window, as a loop of such solves would, so the net is that
    loop's net bitwise.

    Every point comes from one Halton polar stream (_polar_stream) drawn
    once, whose unit directions have |dir|_A = 1.  Shell m (the core is
    m = 0) takes candidates_per_shell rows from row 17 m on, at delta_s(dir)
    with s = lo + (hi - lo) u, so |delta_s(dir)|_A = s; the validation
    sample takes the first rows, with s = max_norm * u^(1/nu); and the
    shrink validation's `_WITNESSES` nodes in B_A(0, 1) are the first rows
    too, at Euclidean radius (u^(1/d))^(1/4), biased to the boundary.
    """
    if not 0 < c <= 1:
        raise ValueError("require 0 < c <= 1")
    if not 1 <= max_norm < np.inf:
        raise ValueError(f"max_norm must satisfy 1 <= max_norm < inf, got {max_norm}")
    c_est = max(1.0, triangle_constant_estimate(G, 2000, seed))
    sep = c / (4.0 * c_est)

    n_shells = max(1, int(np.ceil(np.log2(max_norm))))
    shells = [(0.0, 1.0)] + [(2.0 ** m, 2.0 ** (m + 1)) for m in range(n_shells)]
    if candidates_per_shell is None:
        candidates_per_shell = int(min(12000, max(256, 6 * (2.0 / sep) ** G.nu)))

    n = max(17 * n_shells + candidates_per_shell, validation_samples, _WITNESSES)
    dirs, u = _polar_stream(n, G.d)
    sel_pts, sel_br, shell_slices = [np.empty((0, G.d))], [np.empty(0)], []
    start = 0
    for m, (lo, hi) in enumerate(shells):
        rows = slice(17 * m, 17 * m + candidates_per_shell)
        lo = max(lo, 1e-6)
        cands = G.dilate(lo + (hi - lo) * u[rows], dirs[rows])
        br = G.bracket(cands)
        # points two or more shells below cannot conflict at this sep
        keep = _shell_net(G, sep, cands, br, sel_pts[-1], sel_br[-1])
        shell_slices.append((start, start + len(keep)))
        start += len(keep)
        sel_pts.append(cands[keep])
        sel_br.append(br[keep])

    centers = np.concatenate(sel_pts)
    t = np.concatenate(sel_br)
    radii = c * t

    cov = StructuredCovering(
        group=G, c=c, centers=centers, t=t, radii=radii, max_norm=max_norm,
        separation_factor=sep, shrink_factor=sep, height=0,
        triangle_estimate=c_est, shells=shell_slices,
    )

    # coverage and height on a sampled region
    rows = slice(validation_samples)
    pts = G.dilate(max_norm * np.maximum(u[rows], 1e-9) ** (1.0 / G.nu), dirs[rows])
    counts = cov.cover_count(pts)
    if counts.min() < 1:
        j = int(np.argmin(counts))
        raise CoverageGap(
            f"point {pts[j]} with |x|_A <= {max_norm} uncovered; "
            "decrease the separation or increase candidate density"
        )
    height = int(counts.max())
    if height > _HEIGHT_CAP:
        raise HeightUnbounded(f"measured height {height} exceeds cap {_HEIGHT_CAP}")
    cov.height = height

    rows = slice(_WITNESSES)
    nodes = dirs[rows] * ((u[rows] ** (1.0 / G.d)) ** 0.25)[:, None]
    cov.shrink_factor = _validated_shrink_factor(cov, nodes)
    return cov


def _window_ok(G: DilationGroup, sep: float, pts_w, br_w, z, bz) -> bool:
    """No point of the window within sep * min(<w>, <z>) of z: one solve."""
    thresh = sep * np.minimum(br_w, bz)
    near = np.flatnonzero(_within(pts_w - z, G.euclidean_radius_bound(thresh)))
    return not near.size or bool(np.all(G.quasi_norm(pts_w[near] - z) > thresh[near]))


def _conflicts(G: DilationGroup, sep: float, cands, br, partners, partner_br, same: bool):
    """Candidate-partner pairs (i, k) that conflict or tie, with the tie flags.

    A pair counts when the partner lies in the box of the window test
    (_window_ok) and |partners[k] - cands[i]|_A <= thresh; the sign rule
    decides it or flags a tie.  The pairs come from one search over every
    coordinate (_box_pairs) in boxes of the largest reach a candidate's
    pairs can have.  With same, partners are the candidates themselves and
    each pair comes once, with k < i.  Pairs come ordered by candidate, as
    the search's batches are.
    """
    reach = G.euclidean_radius_bound(sep * br)  # thresh <= sep * br[i]
    # widen the boxes past the rounding of their ends, so that the search
    # holds every pair the exact per-pair box test below keeps
    reach += 1e-9 * (reach + np.abs(cands[:, 0]))
    found = [(np.empty(0, dtype=int),) * 2 + (np.empty(0, dtype=bool),)]
    for i, k in _box_pairs(cands, reach, partners, same):
        thresh = sep * np.minimum(partner_br[k], br[i])
        diff = partners[k] - cands[i]
        inside, tie = G._side(diff, thresh)
        hit = np.flatnonzero(inside | tie)
        hit = hit[_within(diff[hit], G.euclidean_radius_bound(thresh[hit]))]
        found.append((i[hit], k[hit], tie[hit]))
    return [np.concatenate(part) for part in zip(*found)]


def _shell_net(G: DilationGroup, sep: float, cands, br, prev, prev_br) -> np.ndarray:
    """Indices of the candidates a greedy pass in order keeps.

    A candidate is kept when no partner in its window -- the previous
    shell's selections and the candidates kept before it -- lies within
    sep * min(<zeta_i>, <zeta_j>).  Every candidate-partner pair is first
    decided by the sign rule in a few batches; a candidate whose only
    conflicts with live partners are ties gets the per-candidate window
    test (_window_ok) on the window it would have had, so the net is
    bitwise the one of that test alone.
    """
    pi, _, p_tie = _conflicts(G, sep, cands, br, prev, prev_br, same=False)
    si, sk, s_tie = _conflicts(G, sep, cands, br, cands, br, same=True)
    keep = np.ones(len(cands), dtype=bool)
    keep[pi[~p_tie]] = False
    unsure = np.zeros(len(cands), dtype=bool)
    unsure[pi[p_tie]] = True
    bounds = np.searchsorted(si, np.arange(len(cands) + 1))
    todo = keep & (unsure | (np.diff(bounds) > 0))
    for i in np.flatnonzero(todo):
        live = keep[sk[bounds[i]:bounds[i + 1]]]
        ties = s_tie[bounds[i]:bounds[i + 1]]
        if (live & ~ties).any():
            keep[i] = False
        elif unsure[i] or (live & ties).any():
            window = np.concatenate([prev, cands[:i][keep[:i]]])
            window_br = np.concatenate([prev_br, br[:i][keep[:i]]])
            keep[i] = _window_ok(G, sep, window, window_br, cands[i], br[i])
    return np.flatnonzero(keep)


def _validated_shrink_factor(cov: StructuredCovering, nodes: np.ndarray) -> float:
    """Largest tested factor c'' <= sep/(2*C_est) with disjoint shrunk balls,
    each ball witnessed by the nodes of B_A(0, 1) dilated and moved onto it."""
    factor = cov.separation_factor / (2.0 * cov.triangle_estimate * 1.05)
    for _ in range(8):
        if _shrunk_disjoint(cov, factor, nodes):
            return factor
        factor *= 0.5
    raise VerificationFailed("no disjoint shrink factor found")


def _shrunk_disjoint(cov: StructuredCovering, factor: float, nodes: np.ndarray) -> bool:
    """True when no shrunk ball holds a witness of another shrunk ball."""
    G, rad = cov.group, factor * cov.t
    witnesses = (G.dilate(rad[:, None], nodes) + cov.centers[:, None, :]).reshape(-1, G.d)
    balls, hits = ball_pairs(G, cov.centers, rad, witnesses)
    return bool(np.all(balls == hits // len(nodes)))


def covering_intersection_stats(C1: StructuredCovering,
                                C2: StructuredCovering) -> tuple[int, float]:
    """Max neighbor count of C1-balls in C2 and the bracket ratio bound.

    A pair of balls (i, j) meets when it passes three steps in turn.  The
    quasi-distance filter first declares every pair empty whose center
    distance exceeds 1.05*C_est*(r1+r2).  A witness of ball i inside
    ball j then declares a candidate pair nonempty: each ball carries
    `_WITNESSES` reference nodes, and one ball_pairs search decides all C1
    witnesses against the C2 balls.  Only candidates with no witness hit
    get a denser boundary-biased sample of ball i, one ball_pairs search per
    C1 ball.  The witnesses are the first rows of one polar stream, the
    dense sample all 8 * `_WITNESSES` of them.  The ratio bound is the largest
    max(br_i.max() / br_j.min(), br_j.max() / br_i.min()) over meeting
    pairs, where br holds the bracket <x>_A of a ball's witnesses; these
    extremes are solved once per ball.
    """
    G = C1.group
    c_est = max(C1.triangle_estimate, C2.triangle_estimate)
    dirs, u = _polar_stream(8 * _WITNESSES, G.d)
    radii = u ** (1.0 / G.d)
    nodes = dirs[:_WITNESSES] * radii[:_WITNESSES, None]
    dense = dirs * (radii ** 0.25)[:, None]

    def extremes(sets):
        br = np.array([G.bracket(w) for w in sets])  # each ball's set is one batch
        return br.min(axis=1), br.max(axis=1)

    sets1 = G.dilate(C1.radii[:, None], nodes) + C1.centers[:, None, :]
    lo1, hi1 = extremes(sets1)
    lo2, hi2 = (lo1, hi1) if C2 is C1 else extremes(
        G.dilate(C2.radii[:, None], nodes) + C2.centers[:, None, :])

    near = np.array([G.quasi_norm(C2.centers - ci) <= c_est * (ri + C2.radii) * 1.05
                     for ci, ri in zip(C1.centers, C1.radii)])
    hit = np.zeros_like(near)
    balls, pts = ball_pairs(G, C2.centers, C2.radii, sets1.reshape(-1, G.d))
    hit[pts // len(nodes), balls] = True
    meets, unsure = near & hit, near & ~hit
    for i in np.flatnonzero(unsure.any(axis=1)):
        js = np.flatnonzero(unsure[i])
        inside, _ = ball_pairs(G, C2.centers[js], C2.radii[js],
                               G.dilate(C1.radii[i], dense) + C1.centers[i])
        meets[i, js[inside]] = True
    i, j = np.nonzero(meets)
    ratio = np.maximum(hi1[i] / lo2[j], hi2[j] / lo1[i])
    return int(meets.sum(axis=1).max(initial=0)), float(ratio.max(initial=1.0))
