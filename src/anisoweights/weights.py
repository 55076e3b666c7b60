"""Closed-form scalar and matrix weights with Hermitian fractional powers.

All weights are positive (definite) off an explicit measure-zero singular
set.  Evaluation is vectorized over point arrays of shape (m, d); matrix
values are Hermitian (m, N, N) arrays.  Fractional powers go through the
eigendecomposition with a relative eigenvalue floor, so quadrature nodes
that land near a singular set stay usable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HARD_FLOOR = 1e-300
EIGEN_FLOOR_SCALE = 1e-14


class SingularWeight(ArithmeticError):
    """Evaluation hit the singular set exactly; perturb the node."""


def _as_points(x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def _polynomial(coeffs: dict, pts: np.ndarray) -> np.ndarray:
    """P(x) at (m, d) points for a multi-index coefficient table."""
    p = np.zeros(len(pts))
    for alpha, c in coeffs.items():
        term = np.full(len(pts), c)
        for i, a in enumerate(alpha):
            if a:
                term = term * pts[:, i] ** a
        p += term
    return p


# -- scalar weights ------------------------------------------------------------


class ScalarWeightSpec:
    """Scalar weight given in closed form.

    Kinds: constant, radial_power (|x|^gamma, Euclidean norm), poly_abs_power
    (|P(x)|^beta with P from a multi-index coefficient table), product.
    """

    def __init__(self, kind, *, value=None, gamma=None, coeffs=None, beta=None,
                 factors=None, label=None):
        self.kind = kind
        self.value = value
        self.gamma = gamma
        self.coeffs = coeffs
        self.beta = beta
        self.factors = factors
        self.label = label or kind

    @classmethod
    def constant(cls, value=1.0):
        if value <= 0:
            raise ValueError("constant weight must be positive")
        return cls("constant", value=float(value), label=f"const({value})")

    @classmethod
    def radial_power(cls, gamma):
        return cls("radial_power", gamma=float(gamma), label=f"|x|^{gamma}")

    @classmethod
    def poly_abs_power(cls, coeffs, beta):
        """|P(x)|^beta, coeffs maps multi-index tuples to coefficients."""
        coeffs = {tuple(int(a) for a in k): float(v) for k, v in coeffs.items()}
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        return cls("poly_abs_power", coeffs=coeffs, beta=float(beta),
                   label=f"|poly|^{beta}")

    @classmethod
    def product(cls, factors):
        return cls("product", factors=list(factors),
                   label="*".join(f.label for f in factors))

    @property
    def degree(self):
        """Polynomial degree k where meaningful, else None."""
        if self.kind == "constant":
            return 0
        if self.kind == "poly_abs_power":
            return max(sum(a) for a in self.coeffs)
        if self.kind == "product":
            degs = [f.degree for f in self.factors]
            return None if any(d is None for d in degs) else sum(degs)
        return None

    def locally_integrable(self, d: int) -> bool:
        if self.kind == "constant":
            return True
        if self.kind == "radial_power":
            return self.gamma > -d
        if self.kind == "poly_abs_power":
            # restriction to lines: k*beta > -1
            return self.degree * self.beta > -1
        return all(f.locally_integrable(d) for f in self.factors)

    def values(self, x) -> np.ndarray:
        pts, single = _as_points(x)
        out = self._values(pts)
        return out[0] if single else out

    def _values(self, pts: np.ndarray) -> np.ndarray:
        if self.kind == "constant":
            return np.full(len(pts), self.value)
        if self.kind == "radial_power":
            return np.linalg.norm(pts, axis=1) ** self.gamma
        if self.kind == "poly_abs_power":
            return np.abs(_polynomial(self.coeffs, pts)) ** self.beta
        prod = np.ones(len(pts))
        for f in self.factors:
            prod *= f._values(pts)
        return prod

    def compose(self, T) -> "ComposedScalarWeight":
        return ComposedScalarWeight(self, T)

    def __repr__(self):
        return f"ScalarWeightSpec({self.label})"


@dataclass(frozen=True)
class ComposedScalarWeight:
    """w(T x) for an affine map T; evaluation pre-maps the points."""

    base: object
    T: object

    @property
    def label(self):
        return f"{self.base.label}∘T({self.T.scale:g})"

    def values(self, x):
        return self.base.values(self.T.apply(x))

    def _values(self, pts):
        return self.base.values(self.T.apply(pts))

    def locally_integrable(self, d):
        return self.base.locally_integrable(d)

    def compose(self, T):
        return ComposedScalarWeight(self, T)


# -- matrix weights ------------------------------------------------------------


def hermitian_power(W: np.ndarray, a: float) -> np.ndarray:
    """W^a for a batch (m, N, N) of Hermitian positive matrices.

    Eigenvalues below 1e-300 signal evaluation exactly on the singular set
    and raise; otherwise they are clamped to 1e-14 * trace / N before the
    power, which preserves ball averages to quadrature accuracy.
    """
    vals, vecs = np.linalg.eigh(W)
    if np.any(vals[..., 0] < HARD_FLOOR):
        raise SingularWeight("weight is singular at an evaluation point")
    n = W.shape[-1]
    floors = EIGEN_FLOOR_SCALE * np.real(np.trace(W, axis1=-2, axis2=-1)) / n
    vals = np.maximum(vals, floors[..., None])
    powed = vals ** a
    return np.einsum("...ij,...j,...kj->...ik", vecs, powed, vecs.conj())


class MatrixWeightSpec:
    """Hermitian positive definite N x N weight field.

    Modes: diagonal (independent scalar entries), conjugated (constant
    unitary change of frame), diag_dominant (bounded Hermitian off-diagonal
    perturbation with dominance factor eps < 1, positive definite by
    construction).
    """

    def __init__(self, mode, *, scalars=None, unitary=None, offdiag=None,
                 eps=None, label=None):
        self.mode = mode
        self.scalars = scalars
        self.unitary = unitary
        self.offdiag = offdiag
        self.eps = eps
        self.label = label or mode

    @classmethod
    def identity(cls, N):
        return cls.diagonal([ScalarWeightSpec.constant(1.0) for _ in range(N)],
                            label=f"I_{N}")

    @classmethod
    def diagonal(cls, scalars, label=None):
        scalars = list(scalars)
        return cls("diagonal", scalars=scalars,
                   label=label or "diag(" + ",".join(s.label for s in scalars) + ")")

    @classmethod
    def conjugated(cls, unitary, scalars, label=None):
        """U diag(scalars) U^*, real when U is."""
        U = np.asarray(unitary, dtype=complex if np.iscomplexobj(unitary) else float)
        N = len(list(scalars))
        if U.shape != (N, N) or not np.allclose(U @ U.conj().T, np.eye(N), atol=1e-12):
            raise ValueError("conjugator must be unitary and match the dimension")
        return cls("conjugated", scalars=list(scalars), unitary=U,
                   label=label or "U*diag*U^*")

    @classmethod
    def diag_dominant(cls, scalars, offdiag, eps, label=None):
        """Diagonal part plus eps-scaled bounded Hermitian off-diagonal.

        offdiag maps index pairs (i, j), i < j, to polynomial coefficient
        tables; each entry is squashed to modulus < 1/(N-1) so the Gershgorin
        bound keeps W positive definite for any eps < 1.
        """
        if not 0 <= eps < 1:
            raise ValueError("dominance factor eps must satisfy 0 <= eps < 1")
        scalars = list(scalars)
        polys = {}
        for (i, j), coeffs in offdiag.items():
            if not 0 <= i < j < len(scalars):
                raise ValueError(f"bad off-diagonal index pair {(i, j)}")
            polys[(i, j)] = ScalarWeightSpec.poly_abs_power(coeffs, 1.0)
        return cls("diag_dominant", scalars=scalars, offdiag=polys, eps=float(eps),
                   label=label or f"diag_dominant(eps={eps})")

    @property
    def N(self) -> int:
        return len(self.scalars)

    def values(self, x) -> np.ndarray:
        pts, single = _as_points(x)
        out = self._values(pts)
        return out[0] if single else out

    def _values(self, pts: np.ndarray) -> np.ndarray:
        m, N = len(pts), self.N
        diag = np.stack([s._values(pts) for s in self.scalars], axis=1)
        if self.mode == "diagonal":
            W = np.zeros((m, N, N))
            idx = np.arange(N)
            W[:, idx, idx] = diag
            return W
        if self.mode == "conjugated":
            U = self.unitary
            return np.einsum("ij,mj,kj->mik", U, diag.astype(U.dtype), U.conj())
        # diag_dominant: D^(1/2) (I + eps C) D^(1/2), |C_ij| < 1/(N-1)
        C = np.zeros((m, N, N))
        bound = 1.0 / max(1, N - 1)
        for (i, j), poly in self.offdiag.items():
            q = _polynomial(poly.coeffs, pts)
            c = bound * q / (1.0 + np.abs(q))
            C[:, i, j] = c
            C[:, j, i] = c
        root = np.sqrt(diag)
        core = np.eye(N)[None, :, :] + self.eps * C
        return root[:, :, None] * core * root[:, None, :]

    def power_values(self, x, a: float) -> np.ndarray:
        pts, single = _as_points(x)
        if self.mode == "diagonal":
            # entrywise closed form, exact for diagonal specs
            diag = np.stack([s._values(pts) for s in self.scalars], axis=1)
            if np.any(diag <= HARD_FLOOR):
                raise SingularWeight("diagonal entry vanished at a node")
            floors = EIGEN_FLOOR_SCALE * diag.sum(axis=1, keepdims=True) / self.N
            diag = np.maximum(diag, floors)
            out = np.zeros((len(pts), self.N, self.N))
            idx = np.arange(self.N)
            out[:, idx, idx] = diag ** a
        else:
            out = hermitian_power(self._values(pts), a)
        return out[0] if single else out

    def compose(self, T) -> "ComposedMatrixWeight":
        return ComposedMatrixWeight(self, T)

    def __repr__(self):
        return f"MatrixWeightSpec({self.label}, N={self.N})"


@dataclass(frozen=True)
class ComposedMatrixWeight:
    """W(T x) for an affine map T."""

    base: object
    T: object

    @property
    def N(self):
        return self.base.N

    @property
    def label(self):
        return f"{self.base.label}∘T({self.T.scale:g})"

    def values(self, x):
        return self.base.values(self.T.apply(x))

    def power_values(self, x, a):
        return self.base.power_values(self.T.apply(x), a)

    def compose(self, T):
        return ComposedMatrixWeight(self, T)


# -- matrix norm equivalence ---------------------------------------------------


def matrix_norm_equivalence_check(M, r: float) -> bool:
    """Frame the spectral norm between column-norm sums.

    Checks (1/N) sum_j |M e_j|^r <= ||M||^r <= N^(r/2) sum_j |M e_j|^r,
    the explicit-constant form of the norm equivalence used throughout.
    """
    M = np.asarray(M)
    N = M.shape[-1]
    cols = np.linalg.norm(M, axis=0) ** r
    op = np.linalg.norm(M, 2) ** r
    slack = 1e-12 * max(1.0, op)
    return bool(cols.sum() / N <= op + slack and op <= N ** (r / 2) * cols.sum() + slack)
