"""Global positivity of quadratic matrix-valued polynomials and the scalar S-lemma.

Global positive semidefiniteness of f = sum_ij A_ij x_i x_j over symmetric
tuples of every size is equivalent to positive semidefiniteness of the
assembled coefficient matrix.  The equivalence is constructive in both
directions: a PSD coefficient matrix factors into a sum-of-squares form
f(x) = L(x)^T L(x) with L linear, and a negative eigenvalue yields an
explicit evaluation point and witness vector where f fails.  The scalar
S-lemma needs no search: a multiplier is any point where a concave
function of one variable is nonnegative, a bisection toward its maximizer
stops at the first one, and a bracket of that bisection holds the
separator that rank-one splitting turns into a counterexample.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    InvalidInput,
    NotGloballyPSD,
    NotPSD,
    PreconditionViolated,
    SlaterViolated,
    SplitFailed,
    WitnessConstructionFailed,
)
from .linalg import (
    DEFAULT_BUDGET,
    DEFAULT_TOL,
    DEFAULT_TOL_STRICT,
    binade,
    fro,
    is_psd,
    maximize_spectral,  # unused: slemma searches; bench/spans.py wraps this name here
    psd_factor,
    scalar_multiplier,
    sym_eig,
    symmetrize,
    times_pow2,
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
    the negativity of w^T f(X0) w is verified before returning.  Thresholds are relative to 2^e > ||A||_F.
    """
    calA = coefficient_matrix(f)
    eig = sym_eig(calA)
    e = binade(calA)
    lam_min = times_pow2(float(eig.values[-1]), -e)  # relative to 2^e, so below 1 in magnitude
    if lam_min >= -tol * (1.0 + times_pow2(fro(calA), -e)):
        return PositivityReport(verdict="psd", eigenvalues=eig.values)

    if lam_min > -tol_strict:
        # Negative but inside the dead zone: no witness at the strict tolerance.
        return PositivityReport(verdict="not-psd", eigenvalues=eig.values)

    m, q = f.m, f.q
    X0 = witness_tuple(m)
    z = eig.vectors[:, -1]
    # Coordinates of f(X0) are (q outer) x (m+1 inner); the coefficient-space
    # vector z lives on (m, q) and lands in the blocks 1..m of the inner index.
    W = np.zeros((q, m + 1))
    W[:, 1:] = z.reshape(m, q).T
    w = W.ravel()
    val = float(w @ evaluate(f, X0) @ w)
    if not (val < 0.0 and times_pow2(val, -e) <= -0.5 * tol_strict):
        raise WitnessConstructionFailed(
            f"witness value {val:.3e} inconsistent with lambda_min {lam_min:.3e} (over 2^{e})"
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
    try:
        V = psd_factor(coefficient_matrix(f), tol)  # mq x r, calA = V V^T
    except NotPSD as exc:  # psd_factor's test is is_psd's, at the same tolerance
        raise NotGloballyPSD("coefficient matrix has a negative eigenvalue") from exc
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


def scalar_slemma(
    f: ScalarQuad,
    g: ScalarQuad,
    slater,
    tol: float = DEFAULT_TOL,
    tol_strict: float = DEFAULT_TOL_STRICT,
    budget: int = DEFAULT_BUDGET,
) -> ScalarSLemmaResult:
    """Decide x^T B x >= 0 => x^T A x >= 0, with multiplier or counterexample.

    Runs no search: linalg.scalar_multiplier bisects the concave
    h(lambda) = lambda_min(A - lambda B) over lambda >= 0 on the sign of its
    right derivative until it decides: it settles at the first lambda with
    h >= 0, and is cut once its bracket bounds every h by -2 tol_strict
    (``diagnostics``: ``best_value``, ``lambda``, ``bracket_hi``,
    ``multiplier_evals``, its evaluations of h, and ``bound``, that upper
    bound on every h, None when no bracket formed).  A best value at or
    above -tol yields the certificate multiplier.  One at or below
    -tol_strict is refuted from the bisection's last bracket: its separator
    M goes through rank_one_split, producing an explicit x with
    x^T B x >= -tol and x^T A x <= -tol_strict.  Values between the two
    tolerances, a bracket still rising at the 2^60 cap, and refutations
    that fail (``diagnostics["counterexample_error"]``) are reported
    inconclusive.  ``budget`` is accepted for compatibility and unused.  The Slater test is in the
    caller's units; the others are relative to the 2^e above ||A||_F, ||B||_F (best_value and
    bound are times 2^e).
    """
    if np.any(f.a) or np.any(g.a) or f.a0 or g.a0:
        raise InvalidInput("scalar_slemma handles homogeneous quadratics only")
    if f.m != g.m:
        raise InvalidInput("f and g must have the same number of variables")
    s = np.asarray(slater, dtype=float)
    if s.shape != (f.m,):
        raise InvalidInput(f"slater point must be a vector of length {f.m}")
    if not np.isfinite(s).all():
        raise InvalidInput("slater point has non-finite entries")
    b = binade(s)
    s = np.ldexp(s, -b)
    slater_value = float(s @ g.A @ s)  # at most ||B||_F, as ||s||_2 < 1
    if not slater_value > times_pow2(tol_strict, -2 * b):
        raise SlaterViolated(f"slater value {times_pow2(slater_value, 2 * b):.3e} <= {tol_strict}")

    e = binade(f.A, g.A)
    A, B = np.ldexp(f.A, -e), np.ldexp(g.A, -e)
    mult = scalar_multiplier(A, B, tol_strict)
    diagnostics = {"best_value": times_pow2(mult.value, e), "lambda": mult.lam,
                   "bracket_hi": mult.bracket_hi, "multiplier_evals": mult.evals,
                   "bound": None if mult.bound is None else times_pow2(mult.bound, e)}
    if mult.value >= -tol:
        return ScalarSLemmaResult(outcome="certificate", lam=mult.lam, diagnostics=diagnostics)
    if mult.value > -tol_strict or mult.M is None:
        return ScalarSLemmaResult(outcome="inconclusive", diagnostics=diagnostics)
    try:
        x = rank_one_split(mult.M, A, B, tol=tol, tol_strict=tol_strict)
    except (PreconditionViolated, SplitFailed) as exc:
        diagnostics["counterexample_error"] = str(exc)
        return ScalarSLemmaResult(outcome="inconclusive", diagnostics=diagnostics)
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
