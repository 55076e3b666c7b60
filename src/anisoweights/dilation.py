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

    def _solve(self, pts: np.ndarray) -> np.ndarray:
        """Bisection on log t for sigma * sum(c2 * t^(-2 lam)) = 1.

        The defining function is strictly decreasing in t, and the envelope
        bounds give an exact initial bracket, so convergence is guaranteed.
        Every point iterates until the whole batch has converged, so a
        point's result depends on its batch, by up to ~1e-12 relative.
        """
        sigma = self.p_scale
        lam2 = 2.0 * self.eigenvalues
        c2 = (pts @ self.eigenvectors) ** 2
        u2 = sigma * c2.sum(axis=1)
        out = np.zeros(len(u2))
        # the largest u2 is NaN or inf only if a coordinate is or c2
        # overflows, so finite input pays no separate scan of pts
        top = u2.max(initial=0.0)
        if not top < np.inf and not np.isfinite(pts).all():
            raise NonFiniteInput("quasi_norm needs finite coordinates")
        if top == 0.0:
            return out
        active = u2 > 0.0
        u = np.sqrt(u2[active])
        ca = c2[active]
        e1, e2 = u ** (1.0 / self.alpha1), u ** (1.0 / self.alpha2)
        lo = np.log(np.minimum(e1, e2))
        hi = np.log(np.maximum(e1, e2))
        mid = 0.5 * (lo + hi)
        for _ in range(_MAX_BISECT):
            f = sigma * np.einsum("ij,ij->i", ca, np.exp(np.outer(mid, -lam2)))
            resid = f - 1.0
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
