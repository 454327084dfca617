"""Quadratic homogeneous matrix-valued NC polynomials and their evaluation.

A polynomial f = sum_ij A_ij x_i x_j is stored by its coefficient blocks
A_ij (each q x q, with A_ij = A_ji^T), kept unassembled because blockwise
operations dominate; the full mq x mq coefficient matrix is assembled on
demand.  Evaluation at an m-tuple of n x n matrices substitutes
f(X) = sum_ij A_ij (x) X_i X_j, a qn x qn symmetric matrix.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AsymmetricCoefficients, InvalidInput, ShapeMismatch
from .linalg import checked_symmetric_part, regroup, ungroup

SYMMETRIC = "symmetric"
GENERAL = "general"


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class NCQuadPoly:
    """Symmetric quadratic homogeneous matrix-valued polynomial.

    blocks has shape (m, m, q, q); blocks[i, j] is the coefficient of x_i x_j.
    """

    m: int
    q: int
    blocks: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class MatTuple:
    """An m-tuple of n x n real matrices, the evaluation point.

    kind is "symmetric" for tuples in (SR^n)^m and "general" for the
    hereditary setting, where the X_i need not be symmetric.
    """

    m: int
    n: int
    mats: np.ndarray = field(repr=False)
    kind: str = SYMMETRIC


@dataclass(frozen=True)
class ScalarQuad:
    """Commutative quadratic x^T A x + a^T x + a0 (homogeneous when a, a0 vanish)."""

    m: int
    A: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)
    a0: float = 0.0


def new_quad_poly(blocks) -> NCQuadPoly:
    """Validate coefficient blocks and build a polynomial.

    Accepts an (m, m, q, q) array or nested lists.  Violations of
    A_ij = A_ji^T beyond 1e-12 (relative) are rejected; smaller ones are
    symmetrized away.
    """
    b = np.asarray(blocks, dtype=float)
    if b.ndim != 4 or b.shape[0] != b.shape[1] or b.shape[2] != b.shape[3]:
        raise ShapeMismatch(f"blocks must have shape (m, m, q, q), got {b.shape}")
    m, q = b.shape[0], b.shape[2]
    flipped = b.transpose(1, 0, 3, 2)  # A_ji^T at slot (i, j)
    b = checked_symmetric_part(b, flipped, "coefficient blocks", AsymmetricCoefficients)
    return NCQuadPoly(m=m, q=q, blocks=_readonly(b))


def new_tuple(mats, kind: str = SYMMETRIC) -> MatTuple:
    """Build an evaluation tuple; symmetric kind enforces symmetry of each X_i."""
    a = np.asarray(mats, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ShapeMismatch(f"mats must have shape (m, n, n), got {a.shape}")
    if kind not in (SYMMETRIC, GENERAL):
        raise InvalidInput(f"unknown tuple kind {kind!r}")
    if kind == SYMMETRIC:
        flipped = a.transpose(0, 2, 1)
        a = checked_symmetric_part(a, flipped, "symmetric tuple")
    elif not np.isfinite(a).all():
        raise InvalidInput("tuple has non-finite entries")
    return MatTuple(m=a.shape[0], n=a.shape[1], mats=_readonly(a), kind=kind)


def new_scalar_quad(A, a=None, a0: float = 0.0) -> ScalarQuad:
    """Validate and build x^T A x + a^T x + a0: A square, symmetric, all of it finite."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"A must be square, got {A.shape}")
    m = A.shape[0]
    A = checked_symmetric_part(A, A.T, "scalar coefficient matrix", AsymmetricCoefficients)
    vec = np.zeros(m) if a is None else np.asarray(a, dtype=float)
    if vec.shape != (m,):
        raise ShapeMismatch(f"linear part must have shape ({m},)")
    a0 = float(a0)
    if not (np.isfinite(vec).all() and math.isfinite(a0)):
        raise InvalidInput("linear part or constant of a scalar quadratic is not finite")
    return ScalarQuad(m=m, A=_readonly(A), a=_readonly(vec), a0=a0)


def coefficient_matrix(p: NCQuadPoly) -> np.ndarray:
    """Assemble the mq x mq block matrix with (i, j) block A_ij."""
    return p.blocks.transpose(0, 2, 1, 3).reshape(p.m * p.q, p.m * p.q).copy()


def blocks_from_matrix(mat, m: int, q: int) -> np.ndarray:
    """Inverse of coefficient_matrix: split an mq x mq matrix into (m, m, q, q)."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (m * q, m * q):
        raise ShapeMismatch(f"expected {(m * q, m * q)}, got {mat.shape}")
    return mat.reshape(m, q, m, q).transpose(0, 2, 1, 3).copy()


def _check_point(p: NCQuadPoly, X: MatTuple):
    if X.m != p.m:
        raise ShapeMismatch(f"polynomial has m={p.m} but tuple has m={X.m}")


def _gram_form(p: NCQuadPoly, mats: np.ndarray) -> np.ndarray:
    """sum_ij A_ij (x) Y_i Y_j^T, symmetrized, as two matrix products.

    mats holds one tuple of l x n matrices Y_i, shape (m, l, n), or a
    (k, m, l, n) stack of tuples; the second product then serves the whole
    stack at once.  The result is q*l x q*l.  The Y_i may be rectangular:
    evaluate_compressed passes the compressed rows Q^T X_i.
    """
    m, q = p.m, p.q
    l, n = mats.shape[-2:]
    stack = mats.reshape(-1, m * l, n)
    prods = regroup(stack @ stack.transpose(0, 2, 1), m, l, m, l)  # row (i, j) holds Y_i Y_j^T
    out = ungroup(p.blocks.reshape(m * m, q * q).T @ prods, q, l, q, l)
    out *= 0.5  # halved before the sum, which then cannot overflow
    out = out + out.transpose(0, 2, 1)
    return out if mats.ndim == 4 else out[0]


def evaluate(p: NCQuadPoly, X: MatTuple) -> np.ndarray:
    """Evaluate f(X) = sum_ij A_ij (x) X_i X_j at a symmetric tuple."""
    _check_point(p, X)
    if X.kind != SYMMETRIC:
        raise ShapeMismatch("evaluate requires a symmetric tuple; "
                            "use evaluate_hereditary for general ones")
    return _gram_form(p, X.mats)  # X_j = X_j^T exactly in a symmetric tuple


def evaluate_hereditary(p: NCQuadPoly, X: MatTuple) -> np.ndarray:
    """Evaluate the hereditary form sum_ij A_ij (x) X_i X_j^T (any tuple kind)."""
    _check_point(p, X)
    return _gram_form(p, X.mats)


def evaluate_compressed(p: NCQuadPoly, X: MatTuple, Q) -> np.ndarray:
    """Compressed evaluation (Id_q (x) Q^T) f(X) (Id_q (x) Q), for either tuple kind.

    Q must have n rows; it may be a square projection or any rectangular
    matrix, in which case the result is q*l x q*l for Q with l columns.
    The tuple is compressed first: the result is the Gram form
    sum_ij A_ij (x) (Q^T X_i)(Q^T X_j)^T, so the qn x qn evaluation is never
    formed.  For a general tuple that is the compressed hereditary form;
    for a symmetric one it is the compressed f(X), since X_j = X_j^T.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != X.n:
        raise ShapeMismatch(f"Q must have {X.n} rows, got shape {Q.shape}")
    _check_point(p, X)
    return _gram_form(p, Q.T @ X.mats)


def direct_sum_repeat(p: NCQuadPoly, k: int) -> NCQuadPoly:
    """Replace every coefficient block by k block-diagonal copies (q -> k*q)."""
    if k < 1:
        raise InvalidInput("k must be at least 1")
    if k == 1:
        return p
    qk = p.q * k
    blocks = np.zeros((p.m, p.m, qk, qk))
    for c in range(k):
        sl = slice(c * p.q, (c + 1) * p.q)
        blocks[:, :, sl, sl] = p.blocks
    return new_quad_poly(blocks)


def pad_coefficients(p: NCQuadPoly, q_new: int) -> NCQuadPoly:
    """Embed each block top-left into a q_new x q_new zero matrix."""
    if q_new < p.q:
        raise InvalidInput(f"cannot pad q={p.q} down to {q_new}")
    if q_new == p.q:
        return p
    blocks = np.zeros((p.m, p.m, q_new, q_new))
    blocks[:, :, : p.q, : p.q] = p.blocks
    return new_quad_poly(blocks)


def scalar_to_nc(s: ScalarQuad) -> NCQuadPoly:
    """Lift a commutative quadratic form to the q = 1 matrix-valued setting."""
    return new_quad_poly(s.A.reshape(s.m, s.m, 1, 1))

