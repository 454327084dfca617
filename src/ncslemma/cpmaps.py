"""Choi-matrix machinery for linear maps on square matrices.

A linear map phi: R^{s x s} -> R^{t x t} is represented exclusively by its
Choi matrix J = sum_ab phi(E_ab) (x) E_ab, an (st) x (st) symmetric matrix
whose t x t grid of s x s blocks J_ij satisfies phi(M)_ij = <J_ij, M>.
Complete positivity is exactly positive semidefiniteness of J, which is what
makes the certificate search a spectraplex problem.

Only real matrices are handled; complete positivity over the complex field
is a genuinely different notion and out of scope.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInput, ShapeMismatch, SymmetryBroken
from .linalg import DEFAULT_TOL, checked_symmetric_part, fro, is_psd
from .poly import MatTuple, NCQuadPoly, new_quad_poly


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


def choi_from_action(action: Callable[[np.ndarray], np.ndarray], s: int, t: int) -> ChoiMatrix:
    """Build the Choi matrix of a map given by its action on the matrix units E_ab."""
    J = np.zeros((t * s, t * s))
    for a in range(s):
        for b in range(s):
            E = np.zeros((s, s))
            E[a, b] = 1.0
            img = np.asarray(action(E), dtype=float)
            if img.shape != (t, t):
                raise ShapeMismatch(f"action must return {t}x{t} matrices")
            J += np.kron(img, E)
    return new_choi(J, s, t)


def identity_choi(q: int) -> ChoiMatrix:
    """Choi matrix of the identity map on q x q matrices (rank one, trace q)."""
    v = np.eye(q).reshape(-1)  # sum_i e_i (x) e_i
    return new_choi(np.outer(v, v), q, q)


def trace_choi(q: int) -> ChoiMatrix:
    """Choi matrix of the trace functional M -> [tr M]."""
    return new_choi(np.eye(q), q, 1)


def apply_map(phi: ChoiMatrix, M) -> np.ndarray:
    """Apply the map to a matrix: output entries are <J_ij, M>."""
    M = np.asarray(M, dtype=float)
    if M.shape != (phi.s, phi.s):
        raise ShapeMismatch(f"input must be {phi.s}x{phi.s}, got {M.shape}")
    return np.einsum("iajb,ab->ij", phi.grid(), M)


def is_completely_positive(phi: ChoiMatrix, tol: float = DEFAULT_TOL) -> bool:
    """Complete positivity test: PSD-ness of the Choi matrix."""
    return is_psd(phi.J, tol)


def apply_map_blockwise(phi: ChoiMatrix, M, layout: str = "inner") -> np.ndarray:
    """Apply the map across one tensor factor of a block matrix.

    layout "inner": M is a g x g grid of s x s blocks (shape (g*s, g*s)) and
    the map hits each block, giving (1_g (x) phi) M; this is how coefficient
    matrices transform.  layout "outer": M is an s x s grid of k x k blocks
    (shape (s*k, s*k)) and the map contracts the grid index, giving
    (phi (x) 1_k) M; this is how evaluations transform.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeMismatch("block matrix must be square")
    d = M.shape[0]
    J4 = phi.grid()
    if layout == "inner":
        if d % phi.s:
            raise ShapeMismatch(f"dimension {d} is not a multiple of s={phi.s}")
        g = d // phi.s
        M4 = M.reshape(g, phi.s, g, phi.s)
        out = np.einsum("iajb,uavb->uivj", J4, M4)
        return out.reshape(g * phi.t, g * phi.t)
    if layout == "outer":
        if d % phi.s:
            raise ShapeMismatch(f"dimension {d} is not a multiple of s={phi.s}")
        k = d // phi.s
        M4 = M.reshape(phi.s, k, phi.s, k)
        out = np.einsum("iajb,axby->ixjy", J4, M4)
        return out.reshape(phi.t * k, phi.t * k)
    raise InvalidInput(f"unknown layout {layout!r}")


def apply_map_to_poly(phi: ChoiMatrix, g: NCQuadPoly) -> NCQuadPoly:
    """Map coefficient blocks: (phi g)(x) = sum_ij phi(B_ij) x_i x_j."""
    if phi.s != g.q:
        raise ShapeMismatch(f"map input dimension {phi.s} != polynomial q={g.q}")
    out = np.einsum("iajb,mnab->mnij", phi.grid(), g.blocks)
    flipped = out.transpose(1, 0, 3, 2)
    gap = np.abs(out - flipped).max()
    if gap > 1e-10 * (1.0 + fro(out)):
        raise SymmetryBroken(f"phi(B_ij) != phi(B_ji)^T by {gap:.3e}")
    return new_quad_poly((out + flipped) / 2.0)


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
    evaluate(p, X) == apply_map_blockwise(rearrange(p), gram(X), "outer")).
    """
    arranged = p.blocks.transpose(2, 0, 3, 1).reshape(p.q * p.m, p.q * p.m)
    return new_choi(arranged, p.m, p.q)


def gram(X: MatTuple) -> np.ndarray:
    """The mn x mn Gram matrix with (i, j) block X_i X_j^T (= X_i X_j when symmetric)."""
    stack = X.mats.reshape(X.m * X.n, X.n)
    G = stack @ stack.T
    return (G + G.T) / 2.0
