"""Global positivity of quadratic matrix-valued polynomials and the scalar S-lemma.

Global positive semidefiniteness of f = sum_ij A_ij x_i x_j over symmetric
tuples of every size is equivalent to positive semidefiniteness of the
assembled coefficient matrix.  The equivalence is constructive in both
directions: a PSD coefficient matrix factors into a sum-of-squares form
f(x) = L(x)^T L(x) with L linear, and a negative eigenvalue yields an
explicit evaluation point and witness vector where f fails.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    InvalidInput,
    NotGloballyPSD,
    PreconditionViolated,
    SlaterViolated,
    SplitFailed,
    WitnessConstructionFailed,
)
from .linalg import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    DEFAULT_TOL,
    DEFAULT_TOL_STRICT,
    fro,
    is_psd,
    maximize_spectral,
    psd_factor,
    sym_eig,
    symmetrize,
)
from .poly import MatTuple, NCQuadPoly, ScalarQuad, coefficient_matrix, evaluate, new_tuple


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of the global PSD test.

    On a not-psd verdict with enough margin, carries the standard evaluation
    point (an (m+1)-dimensional tuple) and a vector w with w^T f(X0) w < 0.
    """

    verdict: str  # "psd" | "not-psd"
    eigenvalues: np.ndarray = field(repr=False)
    witness_point: Optional[MatTuple] = None
    witness_vector: Optional[np.ndarray] = None
    witness_value: Optional[float] = None


@dataclass(frozen=True)
class SOSFactor:
    """Linear polynomial L(x) = sum_i W_i x_i with f(x) = L(x)^T L(x).

    factors[i] is the r x q coefficient W_i, r being the numerical rank of
    the coefficient matrix (at most mq).
    """

    rank: int
    factors: np.ndarray = field(repr=False)  # shape (m, r, q)


@dataclass(frozen=True)
class ScalarSLemmaResult:
    outcome: str  # "certificate" | "counterexample" | "inconclusive"
    lam: Optional[float] = None
    x: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)


def witness_tuple(m: int) -> MatTuple:
    """The canonical (m+1)-dimensional tuple exposing non-PSD coefficient matrices.

    X_i has ones at entries (0, i+1) and (i+1, 0) and zeros elsewhere, so
    X_i X_j = delta_ij E_00 + E_{i+1, j+1}.
    """
    mats = np.zeros((m, m + 1, m + 1))
    for i in range(m):
        mats[i, 0, i + 1] = 1.0
        mats[i, i + 1, 0] = 1.0
    return new_tuple(mats, kind="symmetric")


def is_globally_psd(
    f: NCQuadPoly,
    tol: float = DEFAULT_TOL,
    tol_strict: float = DEFAULT_TOL_STRICT,
) -> PositivityReport:
    """Decide whether f(X) >= 0 for all symmetric tuples of every dimension.

    The verdict is the PSD test on the coefficient matrix.  When it fails by
    at least tol_strict, the report carries the witness evaluation: the
    bottom eigenvector of the coefficient matrix is re-indexed (zero block
    first, then the tensor-factor swap) into the coordinates of f(X0), and
    the negativity of w^T f(X0) w is verified before returning.
    """
    calA = coefficient_matrix(f)
    eig = sym_eig(calA)
    lam_min = float(eig.values[-1])
    scale = 1.0 + fro(calA)
    if lam_min >= -tol * scale:
        return PositivityReport(verdict="psd", eigenvalues=eig.values)

    if lam_min > -tol_strict:
        # Negative but inside the dead zone: no witness at the strict tolerance.
        return PositivityReport(verdict="not-psd", eigenvalues=eig.values)

    m, q = f.m, f.q
    X0 = witness_tuple(m)
    z = eig.vectors[:, -1]
    # Coordinates of f(X0) are (q outer) x (m+1 inner); the coefficient-space
    # vector z lives on (m, q) and lands in the blocks 1..m of the inner index.
    w = np.zeros(q * (m + 1))
    for i in range(m):
        for a in range(q):
            w[a * (m + 1) + (i + 1)] = z[i * q + a]
    val = float(w @ evaluate(f, X0) @ w)
    if not (val < 0.0 and val <= -0.5 * tol_strict):
        raise WitnessConstructionFailed(
            f"witness value {val:.3e} inconsistent with lambda_min {lam_min:.3e}"
        )
    return PositivityReport(
        verdict="not-psd",
        eigenvalues=eig.values,
        witness_point=X0,
        witness_vector=w,
        witness_value=val,
    )


def sos_factor(f: NCQuadPoly, tol: float = DEFAULT_TOL) -> SOSFactor:
    """Sum-of-squares factorization of a globally PSD polynomial."""
    calA = coefficient_matrix(f)
    if not is_psd(calA, tol):
        raise NotGloballyPSD("coefficient matrix has a negative eigenvalue")
    V = psd_factor(calA, tol)  # mq x r, calA = V V^T
    r = V.shape[1]
    factors = np.stack([V[i * f.q : (i + 1) * f.q, :].T for i in range(f.m)])
    return SOSFactor(rank=r, factors=factors)


def evaluate_factor(sf: SOSFactor, X: MatTuple) -> np.ndarray:
    """Evaluate L(X)^T L(X) for a factorization L(x) = sum_i W_i x_i."""
    m, r, q = sf.factors.shape
    if X.m != m:
        raise PreconditionViolated(f"tuple has m={X.m}, factor has m={m}")
    L = sum(np.kron(sf.factors[i], X.mats[i]) for i in range(m))
    return L.T @ L


def _golden_max(h, lo: float, hi: float, iters: int = 300):
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    hc, hd = h(c), h(d)
    for _ in range(iters):
        if hc >= hd:
            b, d, hd = d, c, hc
            c = b - inv_phi * (b - a)
            hc = h(c)
        else:
            a, c, hc = c, d, hd
            d = a + inv_phi * (b - a)
            hd = h(d)
    x = (a + b) / 2.0
    return x, h(x)


def scalar_slemma(
    f: ScalarQuad,
    g: ScalarQuad,
    slater,
    tol: float = DEFAULT_TOL,
    tol_strict: float = DEFAULT_TOL_STRICT,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
) -> ScalarSLemmaResult:
    """Decide x^T B x >= 0 => x^T A x >= 0, with multiplier or counterexample.

    Maximizes the concave function lambda -> lambda_min(A - lambda B) over
    lambda >= 0 (bracket doubling, then golden section).  A maximum above
    -tol yields the certificate multiplier.  A maximum below -tol_strict
    triggers a separator search over the spectraplex followed by rank-one
    splitting, producing an explicit x with x^T B x >= -tol and
    x^T A x <= -tol_strict.  Values between the two tolerances are reported
    inconclusive rather than forced into either branch.
    """
    if np.any(f.a) or np.any(g.a) or f.a0 or g.a0:
        raise InvalidInput("scalar_slemma handles homogeneous quadratics only")
    if f.m != g.m:
        raise InvalidInput("f and g must have the same number of variables")
    A, B = f.A, g.A
    s = np.asarray(slater, dtype=float)
    if s.shape != (f.m,):
        raise InvalidInput(f"slater point must be a vector of length {f.m}")
    if not np.isfinite(s).all():
        raise InvalidInput("slater point has non-finite entries")
    slater_value = float(s @ B @ s)
    if not slater_value > tol_strict:  # a NaN value fails too
        raise SlaterViolated(f"slater value {slater_value:.3e} <= {tol_strict}")

    def h(lam):
        return float(np.linalg.eigvalsh(A - lam * B)[0])

    hi = 1.0
    while hi < 2.0**60 and h(hi) >= h(hi / 2.0):
        hi *= 2.0
    lam_star, val = _golden_max(h, 0.0, hi)
    endpoint = h(0.0)
    if endpoint > val:
        lam_star, val = 0.0, endpoint
    diagnostics = {"best_value": val, "lambda": lam_star, "bracket_hi": hi}

    if val >= -tol:
        return ScalarSLemmaResult(outcome="certificate", lam=max(lam_star, 0.0),
                                  diagnostics=diagnostics)
    if val > -tol_strict:
        return ScalarSLemmaResult(outcome="inconclusive", diagnostics=diagnostics)

    cA = 1.0 + fro(A)
    cB = 1.0 + fro(B)

    def oracle(S):
        t1 = float(np.sum(B * S)) / cB
        t2 = -float(np.sum(A * S)) / cA
        if t1 <= t2:
            return t1, B / cB
        return t2, -A / cA

    S, margin = maximize_spectral(oracle, f.m, budget, seed, min_step=max(1e-14, tol * 1e-2))
    diagnostics["separator_margin"] = margin
    if float(np.sum(A * S)) > -tol_strict or float(np.sum(B * S)) < -tol:
        return ScalarSLemmaResult(outcome="inconclusive", diagnostics=diagnostics)
    x = rank_one_split(S, A, B, tol=tol, tol_strict=tol_strict)
    # Scale so the strict inequality holds with an absolute margin; scaling
    # can only happen when the B-form value is nonnegative.
    ax = float(x @ A @ x)
    if -ax < tol_strict and float(x @ B @ x) >= 0.0:
        x = x * np.sqrt(2.0 * tol_strict / -ax)
        ax = float(x @ A @ x)
    if ax > -tol_strict or float(x @ B @ x) < -tol:
        return ScalarSLemmaResult(outcome="inconclusive", diagnostics=diagnostics)
    return ScalarSLemmaResult(outcome="counterexample", x=x, diagnostics=diagnostics)


def rank_one_split(
    S,
    A,
    B,
    tol: float = DEFAULT_TOL,
    tol_strict: float = 0.0,
) -> np.ndarray:
    """Extract x with x^T A x < 0 and x^T B x >= -tol from a separator S.

    Requires S PSD, <S, A> <= -tol_strict and <S, B> >= -tol; the default
    strictness 0 admits boundary separators like <S, A> = 0, where the sign
    choice below can still make x^T A x strictly negative.

    The construction is exact (Sturm and Zhang, 2003).  With S = V V^T and
    W = V U, U the eigenvectors of V^T B V, the matrix W^T B W is diagonal,
    so every sign vector s gives (W s)^T B (W s) = tr V^T B V = <B, S>.  With
    C = W^T A W, s_1 = 1 and s_k = -1 exactly when sum_{i<k} s_i C_ik > 0,
    each cross term of (W s)^T A (W s) is at most 0, so that value is at most
    tr C = <A, S>.  W s is returned normalized if that passes the accept
    check, else as is if that passes, and SplitFailed is raised otherwise.
    """
    S = symmetrize(S)
    A = symmetrize(A)
    B = symmetrize(B)
    if not is_psd(S, tol):
        raise PreconditionViolated("S is not PSD at tolerance")
    if float(np.sum(S * A)) > -tol_strict:
        raise PreconditionViolated("<S, A> is not strictly negative")
    if float(np.sum(S * B)) < -tol:
        raise PreconditionViolated("<S, B> is negative beyond tolerance")

    def accept(x):
        return float(x @ A @ x) < 0.0 and float(x @ B @ x) >= -tol

    V = psd_factor(S, tol)
    BV = V.T @ B @ V
    W = V @ np.linalg.eigh(BV + BV.T)[1]  # twice the symmetric part: the same eigenvectors
    C = W.T @ A @ W
    signs = np.ones(W.shape[1])
    for k in range(1, signs.size):
        if signs[:k] @ C[:k, k] > 0:
            signs[k] = -1.0
    x = W @ signs
    nx = fro(x)
    if nx > 0 and accept(x / nx):
        return x / nx
    if accept(x):
        return x
    raise SplitFailed(
        f"no vector found: <S,A>={float(np.sum(S * A)):.3e}, "
        f"<S,B>={float(np.sum(S * B)):.3e}, rank={W.shape[1]}"
    )
