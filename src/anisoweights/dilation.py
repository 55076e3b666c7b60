"""One-parameter dilation groups and the induced anisotropic quasi-norm.

A real symmetric matrix A with positive spectrum generates the dilations
delta_t = exp(A log t).  The quasi-norm |xi|_A is the unique t > 0 with
sum_i t^(-2*lam_i) * c_i^2 = 1, where c are the coordinates of xi in the
eigenbasis of A, so the unit ball B_A(0,1) is exactly the Euclidean unit
ball and every ball B_A(c, r) = delta_r B_A(0, 1) + c is a dilate of it.
"""

from __future__ import annotations

import numpy as np


class NonSymmetric(ValueError):
    """Generator matrix is not symmetric within tolerance."""


class NonPositiveSpectrum(ValueError):
    """Generator matrix has an eigenvalue <= 0."""


class NonPositiveScale(ValueError):
    """Dilation parameter t must be strictly positive."""


class NonFiniteInput(ValueError):
    """A point has a NaN or infinite coordinate."""


_SYMMETRY_TOL = 1e-10
_RESIDUAL_TOL = 1e-12
_MAX_BISECT = 200
# Tie band of the sign rule |x|_A < r <=> f(r) < 1, in units of
# alpha2 / alpha1.  L(s) = log f(e^s) has slope in [-2 alpha2, -2 alpha1].
# The solve stops with |f(mid) - 1| <= _RESIDUAL_TOL for every point, or
# with a ~1 ulp bracket whose computed signs can be wrong only within
# e_f / (2 alpha1) of the root, so that |L(mid)| <= alpha2/alpha1 * e_f.
# On the safe range below, every exponent 2 lam s near a root stays under
# 600 in magnitude: the evaluation error e_f of f (600 * 2^-53 from the
# rounded exponent, plus a few ulps) and the rounding of log r and of
# exp(mid) (2 alpha2 |s| 2^-53 <= 600 * 2^-53 each, in L) stay below
# alpha2/alpha1 * 3e-13 together.  L is monotone, so f(r) - 1 beyond
# alpha2/alpha1 * (_RESIDUAL_TOL + 3e-13) already has the sign of
# quasi_norm(x) - r in any batch; the band leaves a factor 3 over that.
_TIE_BAND = 4.0 * _RESIDUAL_TOL
# |log |c|^2| below _SAFE_LOG_U2 * alpha1 / alpha2 keeps the solve's
# bracket, and with it every exponent the solve meets, within +-600.
_SAFE_LOG_U2 = 600.0
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max
# exp overflows above this argument
_LOG_HUGE = float(np.log(_HUGE))


class DilationGroup:
    """Spectral data of the generator A and the quasi-norm solver.

    Immutable after construction; all methods are pure, so instances are
    safe to share across threads and to map over point sets.

    Attributes
    ----------
    A : (d, d) ndarray, symmetrized generator
    eigenvalues : (d,) ndarray, ascending, all > 0
    eigenvectors : (d, d) ndarray, orthonormal columns
    nu : float, homogeneous dimension trace(A)
    alpha1, alpha2 : float, min and max eigenvalue
    """

    def __init__(self, A):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise NonSymmetric(f"generator must be square, got shape {A.shape}")
        if not np.isfinite(A).all():
            raise NonFiniteInput(f"generator must be finite, got {A.tolist()}")
        defect = np.max(np.abs(A - A.T)) if A.size else 0.0
        scale = max(1.0, np.max(np.abs(A))) if A.size else 1.0
        if defect > _SYMMETRY_TOL * scale:
            raise NonSymmetric(f"symmetry defect {defect:.3e} above tolerance")
        # average away an asymmetry within _SYMMETRY_TOL (rounding in the
        # caller's arithmetic): eigh reads one triangle, and self.A must be
        # the matrix it diagonalises
        A = 0.5 * (A + A.T)
        lam, Q = np.linalg.eigh(A)
        if np.any(lam <= 0):
            raise NonPositiveSpectrum(f"eigenvalues must be > 0, got {lam}")
        self.A = A
        self.d = A.shape[0]
        self.eigenvalues = lam
        self.eigenvectors = Q
        self.nu = float(lam.sum())
        self.alpha1 = float(lam.min())
        self.alpha2 = float(lam.max())
        self._neg_lam2 = -(2.0 * lam)
        cap = _SAFE_LOG_U2 * self.alpha1 / self.alpha2
        self._safe_u2 = (np.exp(-cap), np.exp(cap))

    def __repr__(self):
        return (f"DilationGroup(d={self.d}, nu={self.nu:.6g}, "
                f"alpha1={self.alpha1:.6g}, alpha2={self.alpha2:.6g})")

    # -- dilations ---------------------------------------------------------

    def dilation_matrix(self, t: float) -> np.ndarray:
        """Matrix of delta_t = exp(A log t)."""
        if not 0 < t < np.inf:
            raise NonPositiveScale(f"t must be finite and > 0, got {t}")
        Q, lam = self.eigenvectors, self.eigenvalues
        return (Q * t ** lam) @ Q.T

    def dilate(self, t, xi) -> np.ndarray:
        """Apply delta_t to one point or to an (m, d) array of points.

        t may also be an array: shape (m,) dilates point i by t[i], bitwise
        row i of the scalar dilate(t[i], xi), and shape (k, 1) gives
        (k, m, d), copy i bitwise the scalar dilate(t[i, 0], xi).  Where t
        is 1 the points are copied unchanged, as the scalar t = 1 copies
        them.
        """
        Q, lam = self.eigenvectors, self.eigenvalues
        xi = np.asarray(xi, dtype=float)
        if np.isscalar(t):
            if not 0 < t < np.inf:
                raise NonPositiveScale(f"t must be finite and > 0, got {t}")
            return xi.copy() if t == 1.0 else (xi @ Q) * t ** lam @ Q.T
        t = np.expand_dims(np.asarray(t, dtype=float), -1)
        if not (t.min(initial=np.inf) > 0 and t.max(initial=1.0) < np.inf):
            raise NonPositiveScale("every t must be finite and > 0")
        out = (xi @ Q) * t ** lam @ Q.T
        unit = t == 1.0
        if unit.any():
            np.copyto(out, xi, where=unit)
        return out

    # -- quasi-norm --------------------------------------------------------

    def quasi_norm(self, xi) -> np.ndarray | float:
        """|xi|_A for one point or an (m, d) array of finite points; 0 at 0."""
        xi = np.asarray(xi, dtype=float)
        single = xi.ndim == 1
        out = self._solve(np.atleast_2d(xi))
        return float(out[0]) if single else out

    def _squares(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Squared eigenbasis coordinates c2 as (d, m) rows, and |c|^2.

        Row i holds the squared coordinates along eigenvector i for every
        point, contiguously, so the level is built one row at a time.
        """
        c2 = np.square((pts @ self.eigenvectors).T, order="C")
        u2 = c2.sum(axis=0)
        # the largest u2 is NaN or inf only if a coordinate is or c2
        # overflows, so finite input pays no separate scan of pts
        if not u2.max(initial=0.0) < np.inf and not np.isfinite(pts).all():
            raise NonFiniteInput("quasi_norm needs finite coordinates")
        return c2, u2

    def _level(self, c2: np.ndarray, s: np.ndarray, out: np.ndarray | None = None,
               term: np.ndarray | None = None, zero: np.ndarray | None = None) -> np.ndarray:
        """The defining function f = sum(c2 * t^(-2 lam)) at t = e^s.

        c2 holds (d, m) rows as _squares gives them.  f is summed into out
        row by row in eigenvalue order, each term exp(s * (-2 lam_i)) * c2_i
        built in the scratch row term; a caller that passes out and term
        allocates nothing.  For d <= 2 f is bitwise the einsum "ij,ij->i"
        over (m, d) arrays; for d >= 3 einsum adds the terms in another
        order ((a + c) + b at d = 3), so f can differ from it in the last
        bit (1 ulp at d = 3).  zero, the (d, m)
        mask c2 == 0, is for a caller whose exp can overflow: a masked term
        is exp(-inf) * 0 = 0, where it would be 0 * inf = NaN.
        """
        out = np.empty(len(s)) if out is None else out
        term = np.empty(len(s)) if term is None else term
        for i, (row, neg_lam2) in enumerate(zip(c2, self._neg_lam2)):
            acc = term if i else out
            np.multiply(s, neg_lam2, out=acc)
            if zero is not None:
                np.copyto(acc, -np.inf, where=zero[i])
            np.exp(acc, out=acc)
            acc *= row
            if i:
                out += term
        return out

    def _solve(self, pts: np.ndarray) -> np.ndarray:
        """Bisection on log t for sum(c2 * t^(-2 lam)) = 1.

        The defining function is strictly decreasing in t, and the envelope
        bounds give an exact initial bracket, so convergence is guaranteed.
        Points whose envelope u^(1/alpha) over- or underflows although u^2
        does not take the same bracket ends in log form, log(u^2) / (2 alpha).
        Every point iterates until the whole batch has converged, so a
        point's result depends on its batch, by up to ~1e-12 relative.
        A membership test |x|_A < r needs no solve: f is decreasing, so it
        holds exactly when f(r) < 1.  _side decides it by that sign wherever
        |f(r) - 1| exceeds the tie band alpha2/alpha1 * _TIE_BAND (4e-12
        alpha2/alpha1), and _below solves only a call that holds a tie.

        The loop allocates nothing: f, one scratch row and one int64 mask
        are made once per call, the level reads the (d, m) rows of
        _squares, and lo and hi take mid's bits where the mask selects them
        (lo ^= (lo ^ mid) & mask on int64 views), an exact copy.  For
        d <= 2 the result is bitwise that of the same bisection written with
        einsum and np.where (the oracle in the tests); for d >= 3 the level
        can differ from it in the last bit (see _level).
        """
        c2, u2 = self._squares(pts)
        out = np.zeros(len(u2))
        active = u2 > 0.0
        if not active.any():
            return out
        u2 = u2[active]
        ca = np.compress(active, c2, axis=1)
        u = np.sqrt(u2)
        # an end u^(1/alpha) that over- or underflows is replaced from log
        # u^2, and a level that overflows only says the root lies above mid
        with np.errstate(over="ignore", divide="ignore"):
            e1, e2 = u ** (1.0 / self.alpha1), u ** (1.0 / self.alpha2)
            lo = np.log(np.minimum(e1, e2))
            hi = np.log(np.maximum(e1, e2))
            edge = (lo == -np.inf) | (hi == np.inf)
            if edge.any():
                half_log = 0.5 * np.log(u2[edge])
                b1, b2 = half_log / self.alpha1, half_log / self.alpha2
                lo[edge] = np.minimum(b1, b2)
                hi[edge] = np.maximum(b1, b2)
            mid = 0.5 * (lo + hi)
            f, term = np.empty_like(mid), np.empty_like(mid)
            mask = np.empty(len(mid), dtype=np.int64)
            lo_bits, hi_bits, mid_bits, term_bits = (a.view(np.int64) for a in (lo, hi, mid, term))
            # every mid stays above lo, so while lo * (-2 lam_max) stays below
            # _LOG_HUGE no exp overflows and a zero coordinate needs no mask
            zero = ca == 0.0 if lo.min() * self._neg_lam2[-1] > _LOG_HUGE else None
            for _ in range(_MAX_BISECT):
                resid = self._level(ca, mid, f, term, zero)
                resid -= 1.0
                if np.abs(resid, out=term).max() <= _RESIDUAL_TOL:
                    break
                # f decreasing: the root lies above mid where resid > 0, and
                # there the mask is all ones and lo takes mid; elsewhere hi does
                np.greater(resid, 0.0, out=mask)
                np.negative(mask, out=mask)
                np.bitwise_xor(lo_bits, mid_bits, out=term_bits)
                term_bits &= mask
                lo_bits ^= term_bits
                np.invert(mask, out=mask)
                np.bitwise_xor(hi_bits, mid_bits, out=term_bits)
                term_bits &= mask
                hi_bits ^= term_bits
                if np.subtract(hi, lo, out=term).max() < 1e-16:
                    break
                np.add(lo, hi, out=mid)
                mid *= 0.5
        out[active] = np.exp(mid)
        return out

    def _side(self, pts: np.ndarray, r) -> tuple[np.ndarray, np.ndarray]:
        """|pts|_A < r by the sign of f(r) - 1, with the undecided points.

        Returns (inside, tie): where tie is False, inside equals
        quasi_norm(pts) < r bitwise, for any batch the solve runs on.  Ties
        are the points with f(r) within alpha2/alpha1 * _TIE_BAND of 1, a
        level f(r) that is NaN, overflows or underflows, and points whose
        solve bracket leaves the safe range.  A point at the centre is
        inside exactly when r > 0, as the solve returns 0 there.
        """
        c2, u2 = self._squares(pts)
        with np.errstate(all="ignore"):
            level = self._level(c2, np.log(np.broadcast_to(r, len(u2))))
        band = _TIE_BAND * self.alpha2 / self.alpha1
        lo, hi = self._safe_u2
        decided = ((u2 > lo) & (u2 < hi) & (np.abs(level - 1.0) > band)
                   & (level >= _TINY) & (level <= _HUGE))
        centre = u2 == 0.0
        inside = np.where(centre, 0.0 < np.asarray(r), level < 1.0)
        return inside, ~(decided | centre)

    def _below(self, pts: np.ndarray, r) -> np.ndarray:
        """quasi_norm(pts) < r, bitwise, solving the whole call on a tie."""
        inside, tie = self._side(pts, r)
        if tie.any():
            return self.quasi_norm(pts) < r
        return inside

    def bracket(self, xi) -> np.ndarray | float:
        """Bracket function 1 + |xi|_A."""
        return 1.0 + self.quasi_norm(xi)

    # -- envelope bounds ---------------------------------------------------

    def euclidean_radius_bound(self, r):
        """Smallest R with B_A(0, r) contained in the Euclidean ball |x| < R.

        r may be an array of radii; each R is that of its radius alone.
        """
        return np.maximum(r ** self.alpha1, r ** self.alpha2)

    def quasi_radius_bound(self, R: float) -> float:
        """Smallest r with the Euclidean ball |x| < R contained in B_A(0, r)."""
        return max(R ** (1.0 / self.alpha1), R ** (1.0 / self.alpha2))


def triangle_constant_estimate(G: DilationGroup, n_samples: int, seed: int) -> float:
    """Sampled lower bound for the quasi-triangle constant.

    Maximum of |xi + zeta|_A / (|xi|_A + |zeta|_A) over n_samples random
    pairs.  Scale and direction draws come from two independent child
    streams of the seed, so the sample set for n is a prefix of the set
    for any n' > n and the estimate is nondecreasing in n_samples.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng_dir = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    rng_scale = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    dirs = rng_dir.standard_normal((n_samples, 2, G.d))
    scales = 2.0 ** rng_scale.uniform(-4, 4, size=(n_samples, 2, 1))
    pairs = dirs * scales
    xi, zeta = pairs[:, 0, :], pairs[:, 1, :]
    num = G.quasi_norm(xi + zeta)
    den = G.quasi_norm(xi) + G.quasi_norm(zeta)
    ok = den > 0
    return float(np.max(num[ok] / den[ok]))
