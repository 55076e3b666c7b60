"""Closed-form scalar and matrix weights with Hermitian fractional powers.

All weights are positive (definite) off an explicit measure-zero singular
set.  Evaluation is vectorized over point arrays of shape (m, d); matrix
values are Hermitian (m, N, N) arrays.  Fractional powers go through the
eigendecomposition with a relative eigenvalue floor, so quadrature nodes
that land near a singular set stay usable.  Where the roots W^(+-1/p)
matter only up to a unitary factor (the A_p ladders, shadows and reducing
operators), the two factors of one Cholesky factorization of W^(2/p) stand
in for both at the matrices that are certified to lie above that floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HARD_FLOOR = 1e-300
EIGEN_FLOOR_SCALE = 1e-14


class SingularWeight(ArithmeticError):
    """Evaluation hit the singular set; perturb the singular nodes.

    A matrix power raises it with the powers of every node, `values`, and
    the mask `singular` of the nodes whose rows there are placeholders.
    """

    def __init__(self, message, values=None, singular=None):
        super().__init__(message)
        self.values, self.singular = values, singular


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
        # a negative power is inf on the singular set, and a product there
        # may be inf * 0 = nan: documented values, not warnings
        with np.errstate(divide="ignore", invalid="ignore"):
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

    A matrix with a non-finite entry (replaced before `eigh`) or an
    eigenvalue below 1e-300 is singular: then this raises `SingularWeight`
    with every matrix's power, unit eigenvalues for the singular ones.
    Other eigenvalues are clamped to 1e-14 * trace / N before the power,
    which preserves ball averages to quadrature accuracy.  The pairs of
    roots W^(+-1/p) of `muckenhoupt._pair_factors` (A_p ladders, shadows,
    reducing operators) are the factors of one Cholesky factorization of
    W^(2/p) (`cholesky_factors`) wherever it certifies that neither can
    happen; at p = 2 those nodes take no `eigh`.
    """
    finite = np.isfinite(W).all(axis=(-2, -1))
    if not finite.all():
        W = np.where(finite[..., None, None], W, np.eye(W.shape[-1]))
    vals, vecs = np.linalg.eigh(W)
    singular = ~finite | (vals[..., 0] < HARD_FLOOR)
    n = W.shape[-1]
    floors = EIGEN_FLOOR_SCALE * np.real(np.trace(W, axis1=-2, axis2=-1)) / n
    vals = np.maximum(vals, floors[..., None])
    vals[singular] = 1.0
    powed = vals ** a
    # V diag(powed) V^H as one batched matmul: 2-3x faster than the
    # three-operand einsum on real 3x3 stacks, and within ~4e-16 of it
    out = (vecs * powed[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    if singular.any():
        raise SingularWeight("weight is singular at an evaluation point", out, singular)
    return out


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def cholesky_factors(B: np.ndarray):
    """Factors F = L^H and M = L^(-H) of B = L L^H for a batch (m, N, N), and where they hold.

    B is factored from its lower triangles (which `eigh` reads) by one loop
    over the entries, vectorized over the matrices, so a matrix's factors
    do not depend on its batch; L^(-1) follows by forward substitution.
    F^H F = B and M M^H = B^(-1), so for B = W^(2/p), |F(x) M(t)| =
    |W^(1/p)(x) W^(-1/p)(t)| for all x and t.  Returns F, M and the mask of
    the certified matrices.  A certified matrix is finite and proven to
    have lambda_min >= max(1e-14 tr / N, 1e-300), so the floors of
    `hermitian_power` cannot act on it beyond rounding, and any product of
    its factors equals that of its roots up to rounding.  The proof: the
    other eigenvalues multiply to at most (tr / (N - 1))^(N - 1) (AM-GM),
    so lambda_min / tr >= b = (N - 1)^(N - 1) prod_k (d_k / tr) for the
    pivots d_k, and b <= 1.  The computed factor is exact for B + E with
    |E| <= (N + 1) u tr to first order (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 10.3; u the unit roundoff), and b's own
    rounding is below 2 (N + 1)^2 u.  So b above the floor by
    4 (N + 1)(2N + 3) u, a factor 4 over both for complex arithmetic,
    proves the floor for B.  The other matrices' factors are arbitrary,
    non-finite after a zero or negative pivot.
    """
    n = B.shape[-1]
    tr = np.real(np.trace(B, axis1=-2, axis2=-1))
    bound = float((n - 1) ** (n - 1))
    L = [[None] * n for _ in range(n)]
    for j in range(n):
        for i in range(j, n):
            s = B[:, i, j]
            for k in range(j):
                s = s - L[i][k] * L[j][k].conj()
            if i == j:
                bound = bound * (s.real / tr)
                L[j][j] = np.sqrt(s.real)
            else:
                L[i][j] = s / L[j][j]
    inv = [[None] * n for _ in range(n)]  # L^(-1), column by column
    for j in range(n):
        inv[j][j] = 1.0 / L[j][j]
        for i in range(j + 1, n):
            s = sum((L[i][k] * inv[k][j] for k in range(j + 1, i)), L[i][j] * inv[j][j])
            inv[i][j] = -s / L[i][i]
    F, M = np.zeros_like(B), np.zeros_like(B)
    for i in range(n):
        for j in range(i + 1):
            F[:, j, i], M[:, j, i] = L[i][j].conj(), inv[i][j].conj()
    margin = 4 * (n + 1) * (2 * n + 3) * np.finfo(float).eps / 2
    floor = np.maximum(EIGEN_FLOOR_SCALE / n, HARD_FLOOR / tr)
    return F, M, np.isfinite(B).all(axis=(-2, -1)) & (bound >= floor + margin)


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
        # an infinite entry on the singular set meets the zeros of core:
        # inf * 0 = nan, which counts as singular
        with np.errstate(invalid="ignore"):
            return root[:, :, None] * core * root[:, None, :]

    def power_values(self, x, a: float) -> np.ndarray:
        pts, single = _as_points(x)
        if self.mode == "diagonal":
            # entrywise closed form, exact for diagonal specs; a node is
            # singular unless all its entries are finite and at least
            # 1e-300, the eigenvalue test of `hermitian_power`
            diag = np.stack([s._values(pts) for s in self.scalars], axis=1)
            singular = ~((diag >= HARD_FLOOR) & (diag < np.inf)).all(axis=1)
            diag[singular] = 1.0
            floors = EIGEN_FLOOR_SCALE * diag.sum(axis=1, keepdims=True) / self.N
            diag = np.maximum(diag, floors)
            out = np.zeros((len(pts), self.N, self.N))
            idx = np.arange(self.N)
            out[:, idx, idx] = diag ** a
            if singular.any():
                raise SingularWeight("diagonal entry is singular at a node", out, singular)
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
