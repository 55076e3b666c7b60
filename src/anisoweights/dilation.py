"""One-parameter dilation groups and the induced anisotropic quasi-norm.

A real symmetric matrix A with positive spectrum generates the dilations
delta_t = exp(A log t).  The quasi-norm |xi|_A is the unique t > 0 with
sigma * sum_i t^(-2*lam_i) * c_i^2 = 1, where c are the coordinates of xi
in the eigenbasis of A and sigma is the scale of the quadratic form
P = sigma * Id used to calibrate the unit ball.  With sigma = 1 the unit
ball B_A(0,1) is exactly the Euclidean unit ball.
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
# |log sigma |c|^2| below _SAFE_LOG_U2 * alpha1 / alpha2 keeps the solve's
# bracket, and with it every exponent the solve meets, within +-600.
_SAFE_LOG_U2 = 600.0
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


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
    p_scale : float, the sigma in P = sigma * Id (eigenbasis quadratic form)
    """

    def __init__(self, A, p_scale: float = 1.0):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise NonSymmetric(f"generator must be square, got shape {A.shape}")
        defect = np.max(np.abs(A - A.T)) if A.size else 0.0
        scale = max(1.0, np.max(np.abs(A))) if A.size else 1.0
        if defect > _SYMMETRY_TOL * scale:
            raise NonSymmetric(f"symmetry defect {defect:.3e} above tolerance")
        if p_scale <= 0:
            raise NonPositiveScale("p_scale must be > 0")
        # tolerate text-format round-trips
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
        self.p_scale = float(p_scale)
        self._neg_lam2 = -(2.0 * lam)
        cap = _SAFE_LOG_U2 * self.alpha1 / self.alpha2
        self._safe_u2 = (np.exp(-cap), np.exp(cap))

    def __repr__(self):
        return (f"DilationGroup(d={self.d}, nu={self.nu:.6g}, "
                f"alpha1={self.alpha1:.6g}, alpha2={self.alpha2:.6g})")

    # -- dilations ---------------------------------------------------------

    def dilation_matrix(self, t: float) -> np.ndarray:
        """Matrix of delta_t = exp(A log t)."""
        if t <= 0:
            raise NonPositiveScale(f"t must be > 0, got {t}")
        Q, lam = self.eigenvectors, self.eigenvalues
        return (Q * t ** lam) @ Q.T

    def dilate(self, t: float, xi) -> np.ndarray:
        """Apply delta_t to one point or to an (m, d) array of points."""
        if t <= 0:
            raise NonPositiveScale(f"t must be > 0, got {t}")
        xi = np.asarray(xi, dtype=float)
        if t == 1.0:
            return xi.copy()
        Q, lam = self.eigenvectors, self.eigenvalues
        return (xi @ Q) * t ** lam @ Q.T

    # -- quasi-norm --------------------------------------------------------

    def quasi_norm(self, xi) -> np.ndarray | float:
        """|xi|_A for one point or an (m, d) array of finite points; 0 at 0."""
        xi = np.asarray(xi, dtype=float)
        single = xi.ndim == 1
        out = self._solve(np.atleast_2d(xi))
        return float(out[0]) if single else out

    def _squares(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Squared eigenbasis coordinates c2 and sigma * |c|^2 of each point."""
        c2 = (pts @ self.eigenvectors) ** 2
        u2 = self.p_scale * c2.sum(axis=1)
        # the largest u2 is NaN or inf only if a coordinate is or c2
        # overflows, so finite input pays no separate scan of pts
        if not u2.max(initial=0.0) < np.inf and not np.isfinite(pts).all():
            raise NonFiniteInput("quasi_norm needs finite coordinates")
        return c2, u2

    def _level(self, c2: np.ndarray, s: np.ndarray) -> np.ndarray:
        """The defining function f = sigma * sum(c2 * t^(-2 lam)) at t = e^s."""
        return self.p_scale * np.einsum("ij,ij->i", c2, np.exp(np.outer(s, self._neg_lam2)))

    def _solve(self, pts: np.ndarray) -> np.ndarray:
        """Bisection on log t for sigma * sum(c2 * t^(-2 lam)) = 1.

        The defining function is strictly decreasing in t, and the envelope
        bounds give an exact initial bracket, so convergence is guaranteed.
        Every point iterates until the whole batch has converged, so a
        point's result depends on its batch, by up to ~1e-12 relative.
        A membership test |x|_A < r needs no solve: f is decreasing, so it
        holds exactly when f(r) < 1.  _side decides it by that sign wherever
        |f(r) - 1| exceeds the tie band alpha2/alpha1 * _TIE_BAND (4e-12
        alpha2/alpha1), and _below solves only a call that holds a tie.
        """
        c2, u2 = self._squares(pts)
        out = np.zeros(len(u2))
        active = u2 > 0.0
        if not active.any():
            return out
        u = np.sqrt(u2[active])
        ca = c2[active]
        e1, e2 = u ** (1.0 / self.alpha1), u ** (1.0 / self.alpha2)
        lo = np.log(np.minimum(e1, e2))
        hi = np.log(np.maximum(e1, e2))
        mid = 0.5 * (lo + hi)
        for _ in range(_MAX_BISECT):
            resid = self._level(ca, mid) - 1.0
            if np.all(np.abs(resid) <= _RESIDUAL_TOL):
                break
            above = resid > 0.0  # f decreasing: root lies above mid
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
            if np.max(hi - lo) < 1e-16:
                break
            mid = 0.5 * (lo + hi)
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

    def euclidean_radius_bound(self, r: float) -> float:
        """Smallest R with B_A(0, r) contained in the Euclidean ball |x| < R."""
        return max(r ** self.alpha1, r ** self.alpha2) / np.sqrt(self.p_scale)

    def quasi_radius_bound(self, R: float) -> float:
        """Smallest r with the Euclidean ball |x| < R contained in B_A(0, r)."""
        u = np.sqrt(self.p_scale) * R
        return max(u ** (1.0 / self.alpha1), u ** (1.0 / self.alpha2))


def new_dilation_group(A, p_scale: float = 1.0) -> DilationGroup:
    """Construct a dilation group from a real symmetric matrix."""
    return DilationGroup(A, p_scale=p_scale)


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
