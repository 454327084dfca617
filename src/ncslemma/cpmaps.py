"""Choi-matrix machinery for linear maps on square matrices.

A linear map phi: R^{s x s} -> R^{t x t} is represented exclusively by its
Choi matrix J = sum_ab phi(E_ab) (x) E_ab, an (st) x (st) symmetric matrix
whose t x t grid of s x s blocks J_ij satisfies phi(M)_ij = <J_ij, M>.
Complete positivity is exactly positive semidefiniteness of J, which is what
makes the certificate search a conic feasibility problem.

Only real matrices are handled; complete positivity over the complex field
is a genuinely different notion and out of scope.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, ShapeMismatch
from .linalg import checked_symmetric_part, regroup, ungroup
from .poly import MatTuple, NCQuadPoly


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a linear map from s x s to t x t matrices."""

    s: int
    t: int
    J: np.ndarray = field(repr=False)

    def grid(self) -> np.ndarray:
        """View as a 4-index array indexed [i, a, j, b] with i, j < t and a, b < s."""
        return self.J.reshape(self.t, self.s, self.t, self.s)


@dataclass(frozen=True)
class ShuffleMatrix:
    """Permutation exchanging the two tensor factors of R^q (x) R^m."""

    q: int
    m: int
    u: np.ndarray = field(repr=False)


def new_choi(J, s: int, t: int) -> ChoiMatrix:
    """Wrap and validate a Choi matrix; non-symmetric J cannot be CP and is rejected."""
    J = np.asarray(J, dtype=float)
    if J.shape != (s * t, s * t):
        raise ShapeMismatch(f"Choi matrix must be {(s * t, s * t)}, got {J.shape}")
    Jsym = checked_symmetric_part(J, J.T, "Choi matrix")
    Jsym.flags.writeable = False
    return ChoiMatrix(s=s, t=t, J=Jsym)


def identity_choi(q: int) -> ChoiMatrix:
    """Choi matrix of the identity map on q x q matrices (rank one, trace q)."""
    v = np.eye(q).reshape(-1)  # sum_i e_i (x) e_i
    return new_choi(np.outer(v, v), q, q)


def apply_map(phi: ChoiMatrix, M) -> np.ndarray:
    """Apply the map to a matrix: output entries are <J_ij, M>."""
    M = np.asarray(M, dtype=float)
    if M.shape != (phi.s, phi.s):
        raise ShapeMismatch(f"input must be {phi.s}x{phi.s}, got {M.shape}")
    return np.einsum("iajb,ab->ij", phi.grid(), M)


def apply_map_blockwise(phi: ChoiMatrix, M) -> np.ndarray:
    """(phi (x) 1_k) M for M an s x s grid of k x k blocks (shape (s*k, s*k)).

    The map contracts the grid index, which is how evaluations transform.
    Coefficient matrices transform by (1_m (x) phi) instead, the map acting
    on each block: that is slemma._map_coefficients.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeMismatch("block matrix must be square")
    d = M.shape[0]
    if d % phi.s:
        raise ShapeMismatch(f"dimension {d} is not a multiple of s={phi.s}")
    return _map_stack(phi.J, M, phi.s, phi.t)[0]


def _map_stack(J: np.ndarray, stack: np.ndarray, s: int, t: int) -> np.ndarray:
    """(phi_J (x) 1_n) on each matrix of a (k, sn, sn) stack, as one matrix product.

    regroup puts the grid index (a, b) of every matrix in the stack on the
    rows of one matrix, which the regrouped Choi matrix then multiplies.
    """
    n = stack.shape[-1] // s
    return ungroup(regroup(J, t, s, t, s) @ regroup(stack, s, n, s, n), t, n, t, n)


def shuffle(q: int, m: int) -> ShuffleMatrix:
    """The permutation u with u (beta_i (x) alpha_a) = alpha_a (x) beta_i.

    Rows are indexed q-major, columns m-major; u is orthogonal with exactly
    one unit entry per row and column.
    """
    if q < 1 or m < 1:
        raise InvalidInput("q and m must be positive")
    u = np.zeros((q * m, q * m))
    for a in range(q):
        for i in range(m):
            u[a * m + i, i * q + a] = 1.0
    return ShuffleMatrix(q=q, m=m, u=u)


def rearrange(p: NCQuadPoly) -> ChoiMatrix:
    """Reindex the coefficient matrix into the Choi matrix of M -> sum_ij A_ij M_ij.

    The (a, b) block of the result has (i, j) entry A_ij[a, b]; this equals
    the conjugation u A u^T of the coefficient matrix by shuffle(q, m) (the
    orientation is pinned down by the Gram identity:
    evaluate(p, X) == apply_map_blockwise(rearrange(p), gram(X))).
    """
    arranged = p.blocks.transpose(2, 0, 3, 1).reshape(p.q * p.m, p.q * p.m)
    return new_choi(arranged, p.m, p.q)


def gram(X: MatTuple) -> np.ndarray:
    """The mn x mn Gram matrix with (i, j) block X_i X_j^T (= X_i X_j when symmetric)."""
    stack = X.mats.reshape(X.m * X.n, X.n)
    G = stack @ stack.T
    G *= 0.5  # halved before the sum, which then cannot overflow
    return G + G.T
