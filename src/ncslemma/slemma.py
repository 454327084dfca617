"""Certificate search and counterexample construction for matrix-valued domination.

Given symmetric quadratic homogeneous matrix-valued polynomials f and g with
a strict feasibility point for g, the domination question "compressions of
g(X) PSD imply compressions of f(X) PSD" has exactly two verifiable answers:

* a completely positive map phi (its PSD Choi matrix, of any trace) whose
  residual coefficient matrix A - (1_m (x) phi) B is PSD, or
* a separator M (trace-one PSD) with sum_ij B_ij (x) M_ij PSD and
  <A, M> < 0, from which an explicit evaluation point, projection and
  witness vector are assembled and re-verified from scratch.

A failed certificate search is never treated as a refutation on its own:
only a verified counterexample refutes, and only a verified certificate
confirms; everything else is reported inconclusive.

The two searches are the two sides of one duality, so at most one can
reach its target.  decide races them once, each within the budget: one
oracle evaluation from each in turn, and the first side to settle the
question ends the race.  Every separator point also bounds the
certificate search's values from above, and the certificate search stops
once that bound rules it out.  At q = 1 there is nothing to race: a CP map
is a scalar, and one bisection over it (linalg.scalar_multiplier) decides.
"""

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    DimensionTooLarge,
    InvalidInput,
    NotPSD,
    PreconditionViolated,
    ShapeMismatch,
    SlaterViolated,
    VerificationFailed,
)
from .linalg import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    DEFAULT_TOL,
    DEFAULT_TOL_STRICT,
    MAX_DIM,
    _ascent,
    _min_eigpair,
    binade,
    fro,
    is_psd,
    lambda_min,
    min_eigpair,  # unused: the loop calls _min_eigpair; bench/spans.py wraps this name here
    psd_factor,
    regroup,
    scalar_multiplier,
    spectral_search,
    spectraplex_project,  # unused: spectral_search projects; bench/spans.py wraps this name here
    supergradient_ascent,
    symmetrize,
    times_pow2,
)
from .cpmaps import ChoiMatrix, _map_stack, new_choi
from .poly import (
    GENERAL,
    MatTuple,
    NCQuadPoly,
    _gram_form,
    blocks_from_matrix,
    coefficient_matrix,
    direct_sum_repeat,
    evaluate,
    evaluate_compressed,
    evaluate_hereditary,
    new_quad_poly,
    new_tuple,
    pad_coefficients,
)


@dataclass(frozen=True)
class CPCertificate:
    """PSD Choi matrix of a CP map (any trace) whose residual coefficient matrix is PSD."""

    J: ChoiMatrix
    residual: np.ndarray = field(repr=False)
    residual_lambda_min: float = 0.0


@dataclass(frozen=True)
class Counterexample:
    """Refutation of the projected domination condition.

    X is a symmetric (r+q)-dimensional tuple, P the square projection onto
    its last q coordinates, and E the vector sum_i e_i (x) e_i; the
    compressed g(X) is PSD while E^T (compressed f(X)) E = violation < 0.
    """

    M: np.ndarray = field(repr=False)
    rank: int = 0
    X: Optional[MatTuple] = None
    P: Optional[np.ndarray] = field(default=None, repr=False)
    E: Optional[np.ndarray] = field(default=None, repr=False)
    violation: float = 0.0


@dataclass(frozen=True)
class HereditaryCounterexample:
    """Refutation of hereditary domination: g(X) PSD but E^T f(X) E < 0."""

    M: np.ndarray = field(repr=False)
    rank: int = 0
    X: Optional[MatTuple] = None
    E: Optional[np.ndarray] = field(default=None, repr=False)
    violation: float = 0.0


@dataclass(frozen=True)
class HomogenizationResult:
    feasible: bool
    h_blocks: np.ndarray = field(repr=False)  # H_i0 per variable, shape (m, q, q)
    coefficient: np.ndarray = field(repr=False)  # (m+1)q coefficient matrix of h
    lambda_min: float = 0.0


@dataclass(frozen=True)
class CertifySearch:
    certificate: Optional[CPCertificate]
    best_value: float


@dataclass(frozen=True)
class SeparatorSearch:
    M: Optional[np.ndarray]
    best_value: float
    b_margin: float = -np.inf
    a_value: float = np.inf
    evals: int = 0


@dataclass(frozen=True)
class Decision:
    kind: str  # "certificate" | "counterexample" | "inconclusive"
    certificate: Optional[CPCertificate] = None
    counterexample: object = None
    diagnostics: dict = field(default_factory=dict)


def reconcile(f: NCQuadPoly, g: NCQuadPoly):
    """Equalize coefficient dimensions: pad f, or repeat g blockwise then pad f."""
    if f.m != g.m:
        raise ShapeMismatch(f"f has m={f.m} but g has m={g.m}")
    if f.q == g.q:
        return f, g
    if f.q < g.q:
        return pad_coefficients(f, g.q), g
    k = math.ceil(f.q / g.q)
    g2 = direct_sum_repeat(g, k)
    return pad_coefficients(f, g2.q), g2


def _times(p: NCQuadPoly, e: int) -> NCQuadPoly:
    """p 2^e, built directly: p's blocks were validated when p was built."""
    return NCQuadPoly(m=p.m, q=p.q, blocks=np.ldexp(p.blocks, e))


def _scaled(f: NCQuadPoly, g: NCQuadPoly):
    """(f / 2^e, g / 2^e, e), 2^e = 2^binade(A, B), e of either sign: the one scale rule of every
    entry point taking (f, g).  One 2^e for both: apart, they would move certify's trace-one slice."""
    e = binade(f.blocks, g.blocks)
    return _times(f, -e), _times(g, -e), e


def _map_coefficients(J: np.ndarray, blocks: np.ndarray, q: int) -> np.ndarray:
    """(1_m (x) phi_J) applied to coefficient blocks, assembled as an mq x mq matrix."""
    m = blocks.shape[0]
    out = blocks.reshape(m * m, q * q) @ regroup(J, q, q, q, q).T
    return regroup(out, m, m, q, q)


def _b_term(M: np.ndarray, blocks: np.ndarray, q: int) -> np.ndarray:
    """sum_ij B_ij (x) M_ij for a separator candidate M (an mq x mq matrix)."""
    m = blocks.shape[0]
    out = blocks.reshape(m * m, q * q).T @ regroup(M, m, q, m, q)
    return regroup(out, q, q, q, q)


def _certify_oracle(calA: np.ndarray, blocks: np.ndarray, q: int):
    """oracle(J) -> (value, supergradient) of J -> lambda_min(A - (1_m (x) phi_J) B).

    The supergradient is minus the adjoint block map at v v^T, v the bottom eigenvector.
    """
    m = blocks.shape[0]
    rows = blocks.reshape(m * m, q * q)

    def oracle(J):
        R = calA - _map_coefficients(J, blocks, q)
        val, v = _min_eigpair(R)
        G = -regroup(regroup(v[:, None] * v, m, q, m, q).T @ rows, q, q, q, q)
        return val, (G + G.T) / 2.0

    return oracle


def _separator_oracle(calA: np.ndarray, blocks: np.ndarray, q: int, c: float):
    """oracle(M) -> (value, supergradient, bound) of the separator objective.

    The B-side supergradient is the adjoint block map at the rank-one point
    u u^T, u the bottom eigenvector of T = sum B_ij (x) M_ij.  ``bound`` is
    <A, M> - lambda_min(T).  At a trace-one PSD M it is weak duality's upper
    bound on every certify value: for every trace-one PSD J,
    lambda_min(A - (1_m (x) phi_J) B) <= <A - (1 (x) phi_J) B, M>
    = <A, M> - <T, s J s^T> <= bound, s the tensor swap.
    """
    m = blocks.shape[0]
    rows = blocks.reshape(m * m, q * q)

    def oracle(M):
        T = _b_term(M, blocks, q)
        t1, u = _min_eigpair(T)
        a = float((calA * M).sum())
        t2 = -a / c
        if t1 <= t2:
            G = regroup(rows @ regroup(u[:, None] * u, q, q, q, q), m, m, q, q)
            return t1, (G + G.T) / 2.0, a - t1
        return t2, -calA / c, a - t1

    return oracle


def _certify_side(f: NCQuadPoly, g: NCQuadPoly, budget: int):
    """certify's oracle and its spectral search, not yet started."""
    q = f.q
    return _certify_oracle(coefficient_matrix(f), g.blocks, q), spectral_search(q * q, budget, 0.0)


def _certified(f: NCQuadPoly, g: NCQuadPoly, e: int, best_J, best_v: float, tol: float):
    """certify's answer for the best point it reached on _scaled's f and g, in the caller's units."""
    if best_v < -tol:
        return CertifySearch(certificate=None, best_value=times_pow2(best_v, e))
    q = f.q
    residual = symmetrize(coefficient_matrix(f) - _map_coefficients(best_J, g.blocks, q))
    return CertifySearch(
        certificate=CPCertificate(
            J=new_choi(best_J, q, q),
            residual=np.ldexp(residual, e),
            residual_lambda_min=times_pow2(lambda_min(residual), e),
        ),
        best_value=times_pow2(best_v, e),
    )


def certify(
    f: NCQuadPoly,
    g: NCQuadPoly,
    budget: int = DEFAULT_BUDGET,
    tol: float = DEFAULT_TOL,
) -> CertifySearch:
    """Search the trace-one slice for a PSD Choi matrix J with A - (1_m (x) phi_J) B PSD.

    Maximizes the concave objective J -> lambda_min(A - (1 (x) phi_J) B)
    over the spectraplex, in one ascent of ``budget`` evaluations from the
    maximally mixed point I / q^2 (linalg.spectral_search).  A best value
    >= -tol yields a certificate, the search's point as it is; otherwise the
    best value is returned as a (one-sided) diagnostic: it is not a proof
    that no certificate exists, since a certificate may have any trace.
    The search runs on _scaled's f and g: tol is relative to their 2^e.
    """
    if f.m != g.m or f.q != g.q:
        raise ShapeMismatch("certify requires matching (m, q); reconcile first")
    f, g, e = _scaled(f, g)
    best_J, best_v, _ = supergradient_ascent(*_certify_side(f, g, budget))
    return _certified(f, g, e, best_J, best_v, tol)


def _separator_side(f: NCQuadPoly, g: NCQuadPoly, budget: int, tol_strict: float):
    """find_separator's oracle, its spectral search (not yet started) and its margin.

    The margin tol_strict / c is the value a separator must clear; the
    search stops at twice that.
    """
    q, m = f.q, f.m
    calA = coefficient_matrix(f)
    c = 1.0 + fro(calA)
    margin = tol_strict / c
    search = spectral_search(m * q, budget, 2.0 * margin)
    return _separator_oracle(calA, g.blocks, q, c), search, margin


def find_separator(
    f: NCQuadPoly,
    g: NCQuadPoly,
    budget: int = DEFAULT_BUDGET,
    tol: float = DEFAULT_TOL,
    tol_strict: float = DEFAULT_TOL_STRICT,
) -> SeparatorSearch:
    """Search for a trace-one PSD M with sum B_ij (x) M_ij PSD and <A, M> < 0.

    Maximizes min(lambda_min(sum B_ij (x) M_ij), -<A, M>/c) with
    c = 1 + ||A||_F, in one ascent from the maximally mixed point I / mq
    (linalg.spectral_search), up to the target 2 tol_strict / c in ``evals``
    evaluations, at most ``budget``; success requires the optimum to clear
    tol_strict/c so both separator inequalities hold with a quantitative
    margin.  As in certify, the tolerances are relative to _scaled's 2^e.
    """
    if f.m != g.m or f.q != g.q:
        raise ShapeMismatch("find_separator requires matching (m, q); reconcile first")
    f, g, e = _scaled(f, g)
    oracle, search, margin = _separator_side(f, g, budget, tol_strict)
    M, best_v, evals = supergradient_ascent(lambda M: oracle(M)[:2], search)
    T = _b_term(M, g.blocks, f.q)
    b_margin = lambda_min(T)
    a_value = float(np.sum(coefficient_matrix(f) * M))
    if best_v < margin or not is_psd(T, tol) or a_value > -tol_strict:
        M = None
    return SeparatorSearch(M=M, best_value=times_pow2(best_v, e), b_margin=times_pow2(b_margin, e),
                           a_value=times_pow2(a_value, e), evals=evals)


def _checked_separator(f, g, M, tol, tol_strict) -> np.ndarray:
    """M, symmetrized, once sum B_ij (x) M_ij is PSD and <A, M> < 0; _build tests M itself."""
    M = symmetrize(M)
    q, m = f.q, f.m
    if M.shape != (m * q, m * q):
        raise ShapeMismatch(f"separator must be {(m * q, m * q)}, got {M.shape}")
    if not is_psd(_b_term(M, g.blocks, q), tol):
        raise PreconditionViolated("sum B_ij (x) M_ij is not PSD")
    if float(np.sum(coefficient_matrix(f) * M)) > -tol_strict:
        raise PreconditionViolated("<A, M> is not strictly negative")
    return M


def _projected_point(rows, r: int, q: int) -> dict:
    """Bordered symmetric X_i = [[0, V_i^T], [V_i, 0]], P onto the last q coordinates.

    rows holds the q x r factor slices V_i, shape (m, q, r).
    """
    n = r + q
    mats = np.zeros((len(rows), n, n))
    mats[:, :r, r:] = rows.transpose(0, 2, 1)
    mats[:, r:, :r] = rows
    P = np.zeros((n, n))
    P[r:, r:] = np.eye(q)
    return {"X": new_tuple(mats, kind="symmetric"), "P": P, "E": np.eye(q).reshape(-1)}


def _hereditary_point(rows, r: int, q: int) -> dict:
    """X_i = V_i zero-padded to max(r, q) square, E' = sum_i e_i (x) f_i; rows as above."""
    n = max(r, q)
    mats = np.zeros((len(rows), n, n))
    mats[:, :q, :r] = rows
    return {"X": new_tuple(mats, kind=GENERAL), "E": np.eye(q, n).reshape(-1)}


def _support(nonzero: np.ndarray):
    """The boolean mask ``nonzero``, or every index when it holds nowhere."""
    return nonzero if nonzero.any() else slice(None)


def _sides(ce, f: NCQuadPoly, g: NCQuadPoly, e: int = 0):
    """The g side that must be PSD and the violation E^T (f side) E at ce's stored point, over 2^e.

    Both counterexample kinds are accepted through this one computation,
    by the builders and by verify_counterexample alike.  Each side is the
    compressed evaluation on the support of the point, the coordinates
    where it can be nonzero, so the qn x qn evaluation is never formed:

    * projected kind: g is compressed by the columns of P that are not
      exactly zero (the last q for the builders' P = 0 (+) I_q), f by the
      last q columns of P;
    * hereditary kind: both are evaluated at the rows where some X_i is
      nonzero, and E is restricted to those rows.

    The rows and columns dropped are exactly zero in the full evaluation,
    so its lambda_min is min(lambda_min(support), 0) and its norm is the
    same: lambda_min >= -tol (1 + ||.||_F) gives the same verdict on both,
    and so does the violation, since E is finite (a non-finite E is
    InvalidInput).  A point that is zero everywhere keeps every coordinate.
    """
    E = np.asarray(ce.E, dtype=float)
    if not np.isfinite(E).all():
        raise InvalidInput("witness E has non-finite entries")
    if isinstance(ce, HereditaryCounterexample):
        n = ce.X.n
        if E.shape != (f.q * n,):
            raise ShapeMismatch(f"E must have shape ({f.q * n},), got {E.shape}")
        keep = _support(ce.X.mats.any(axis=(0, 2)))
        rows = ce.X.mats[:, keep]
        E = E.reshape(f.q, n)[:, keep].ravel()
        g_side = _gram_form(g, rows)
        f_side = _gram_form(f, rows)
    else:
        r = ce.X.n - f.q
        if r < 0:
            raise ShapeMismatch(f"evaluation point of size {ce.X.n} is below q = {f.q}")
        P = np.asarray(ce.P, dtype=float)
        if P.ndim != 2:
            raise ShapeMismatch(f"P must be a matrix, got shape {P.shape}")
        g_side = evaluate_compressed(g, ce.X, P[:, _support(P.any(axis=0))])
        f_side = evaluate_compressed(f, ce.X, P[:, r:])
    if e:  # both sides, before the violation's sum of q^2 entries can overflow
        g_side, f_side = np.ldexp(g_side, -e), np.ldexp(f_side, -e)
    return g_side, float(E @ f_side @ E)


def _build(kind, point, f, g, e, M, tol, tol_strict):
    """Factor a checked separator M = V V^T and accept the ``kind`` built at ``point``.

    f and g are _scaled's; the violation is the caller's, times 2^e.
    The factoring at cutoff ``tol`` is also the test that M is PSD, the
    one eigensolve of M: an M it rejects is not a separator
    (PreconditionViolated).  Accepts through _sides, requires the factor to
    reproduce every block M_ij, and retries once at a 10x finer rank
    cutoff; an M that is not PSD there fails as a check does, with
    VerificationFailed.
    """
    M = _checked_separator(f, g, M, tol, tol_strict)
    q, m = f.q, f.m
    last_error = None
    for cutoff in (tol, tol / 10.0):
        try:
            V = psd_factor(M, cutoff)
        except NotPSD as exc:
            if cutoff == tol:
                raise PreconditionViolated("separator is not PSD") from exc
            last_error = f"rank cutoff {cutoff:.1e}: {exc}"
            continue
        r = V.shape[1]
        ce = kind(M=M, rank=r, **point(V.reshape(m, q, r), r, q))
        g_side, violation = _sides(ce, f, g)
        # the Frobenius norm of every block of V V^T - M in one pass
        block_err = np.linalg.norm((V @ V.T - M).reshape(m, q, m, q), axis=(1, 3)).max()
        if is_psd(g_side, tol) and violation <= -tol_strict and block_err <= 1e-8:
            return replace(ce, violation=times_pow2(violation, e))
        last_error = (
            f"lambda_min(g side)={lambda_min(g_side):.3e}, "
            f"violation={violation:.3e}, block error={block_err:.3e}"
        )
    raise VerificationFailed(f"{kind.__name__} checks failed: {last_error}")


def build_counterexample(
    f: NCQuadPoly,
    g: NCQuadPoly,
    M,
    tol: float = DEFAULT_TOL,
    tol_strict: float = DEFAULT_TOL_STRICT,
) -> Counterexample:
    """Assemble and verify the explicit refutation carried by a separator M.

    With M = sum_k v_k v_k^T, the evaluation point consists of bordered
    symmetric matrices pairing the rank directions against the last q
    coordinates, so that P X_i X_j P reproduces the blocks M_ij exactly;
    the compressed g is then PSD by the separator inequality while the
    witness E = sum_i e_i (x) e_i evaluates the compressed f to <A, M> < 0.
    All three facts are re-verified from scratch before returning, with one
    retry at a 10x finer rank cutoff, on _scaled's f and g (tolerances relative to their 2^e).
    """
    return _build(Counterexample, _projected_point, *_scaled(f, g), M, tol, tol_strict)


def build_counterexample_hereditary(
    f: NCQuadPoly,
    g: NCQuadPoly,
    M,
    tol: float = DEFAULT_TOL,
    tol_strict: float = DEFAULT_TOL_STRICT,
) -> HereditaryCounterexample:
    """Refutation for the hereditary setting: rectangular factors, no projection.

    The variables are the zero-padded q x r factor slices of M, so
    X_i X_j^T embeds M_ij directly and g(X) is PSD outright; the witness
    E' = sum_i e_i (x) f_i evaluates f(X) to <A, M> < 0.  Checked as build_counterexample is.
    """
    return _build(HereditaryCounterexample, _hereditary_point, *_scaled(f, g), M, tol, tol_strict)


def _check_slater(g: NCQuadPoly, slater: MatTuple, tol_strict: float, hereditary: bool):
    """SlaterViolated unless lambda_min(g(slater)) > tol_strict: g / 2^a at slater / 2^b against
    2^-(a + 2b) tol_strict, a and b their own binades (the instance's 2^e can make g 2^-1024)."""
    if slater.m != g.m:
        raise ShapeMismatch(f"slater tuple has m={slater.m}, g has m={g.m}")
    a, b = binade(g.blocks), binade(slater.mats)
    X = MatTuple(m=slater.m, n=slater.n, mats=np.ldexp(slater.mats, -b), kind=slater.kind)
    val = (evaluate_hereditary if hereditary else evaluate)(_times(g, -a), X)
    lm = float(np.linalg.eigvalsh(val)[0])  # val is finite and exactly symmetric: no validation
    if not lm > times_pow2(tol_strict, -(a + 2 * b)):
        raise SlaterViolated(f"lambda_min(g(slater)) = {times_pow2(lm, a + 2 * b):.3e} <= {tol_strict}")


# Roundoff allowance of the duality cut, per unit of 1 + ||A||_F + ||B||_F.
# Both searches only evaluate outputs of _spectraplex_project (the start is
# the center as it rounds it), each within O(n u) of a trace-one PSD matrix
# (n <= MAX_DIM its side, u = 2^-53), and form certify values, <A, M> and
# lambda_min(sum B_ij (x) M_ij) through GEMMs, sums and eigh whose a-priori
# errors are also O(n u) times those norms.  Summed, a computed certify
# value exceeds the computed bound of a separator point by less than about
# 12 n u times 1 + ||A||_F + ||B||_F, which is 5.5e-12 times it at
# n = MAX_DIM: 1e-10 leaves a factor of 18.
CUT_ROUNDOFF = 1e-10


def _race(searches, settles, cut):
    """The certify and separator searches of one decision, one evaluation each in turn.

    A generator for supergradient_ascent, driven as each search is: ``next``
    yields ``(side, point)``, side 0 (certify) first, and ``send`` takes the
    oracle's output for it back; the separator's output carries a third
    element, the bound its point puts on every certify value.  A side's
    next point is asked of its search only when its turn comes, so a side
    cut short forms no point it would not evaluate.  A side whose search
    finishes leaves the turn; the race ends once both have finished, or as
    soon as one finishes with a best value of at least ``settles[side]``,
    which cuts the other short.  A separator bound below ``cut`` cuts
    certify short as well, since certify can then no longer settle.
    Returns, per side, ``[best point or None if cut short, best value
    reached, evaluations]``, and the lowest bound (inf if the separator
    made no evaluation): a pair, so that supergradient_ascent's evaluation
    count stays its third element.
    """
    tally = [[None, -np.inf, 0], [None, -np.inf, 0]]
    bound = np.inf
    live = list(searches)
    while True:
        for side in (0, 1):
            if live[side] is None:
                continue
            out = yield side, next(live[side])
            rec = tally[side]
            rec[2] += 1
            if out[0] > rec[1]:
                rec[1] = out[0]
            if side and out[2] < bound:
                bound = out[2]
                if bound < cut:
                    live[0] = None
            try:
                live[side].send(out[:2])
            except StopIteration as done:
                live[side] = None
                rec[0] = done.value[0]
                if done.value[1] >= settles[side]:
                    live[1 - side] = None
            if not (live[0] or live[1]):
                return tally, bound
            yield


def _race_sides(f, g, e, budget, tol, tol_strict):
    """Race certify against the separator search (q >= 2): (J, certify value, M, diagnostics).

    f and g are _scaled's.  J is certify's best point, None if it was cut short; M is the
    separator's, None unless it cleared its margin; the diagnostics are the caller's (times 2^e)."""
    # A separator bound below cut puts every certify value below -tol.
    scale = 1.0 + fro(coefficient_matrix(f)) + fro(coefficient_matrix(g))
    cut = -tol - CUT_ROUNDOFF * scale
    cert_oracle, cert_search = _certify_side(f, g, budget)
    sep_oracle, sep_search, margin = _separator_side(f, g, budget, tol_strict)
    sides = (cert_oracle, sep_oracle)

    def oracle(step):
        side, X = step
        return sides[side](X)

    # Weak duality: a separator value >= 2 margin puts every certify value
    # at or below -2 tol_strict, so when that is below -tol the separator's
    # target settles the race; certify finishing at >= -tol always does.
    settles = (-tol, 2.0 * margin if 2.0 * tol_strict > tol else np.inf)
    ((J, cert_best, cert_evals), (M, sep_best, sep_evals)), bound, _ = supergradient_ascent(
        oracle, _race((cert_search, sep_search), settles, cut),
    )
    diagnostics = {"certify_best": times_pow2(cert_best, e),
                   "certify_bound": times_pow2(bound, e) if bound < np.inf else None,
                   "separator_best": times_pow2(sep_best, e) if sep_evals else None,
                   "certify_evals": cert_evals, "separator_evals": sep_evals}
    return J, cert_best, M if sep_best >= margin else None, diagnostics


def _multiplier_sides(f, g, e, tol, tol_strict):
    """Decide q = 1 without a search: (J, certify value, M, diagnostics) as _race_sides gives them.

    A CP map is then a scalar lambda >= 0: linalg.scalar_multiplier maximizes h(lambda) =
    lambda_min(A - lambda B) over all of them, read by decide's q = 1 rule.
    """
    mult = scalar_multiplier(coefficient_matrix(f), coefficient_matrix(g))
    value = times_pow2(mult.value, e)
    diagnostics = {"certify_best": value, "certify_bound": value, "separator_best": None,
                   "certify_evals": 0, "separator_evals": 0, "multiplier": mult.lam,
                   "multiplier_value": value, "multiplier_evals": mult.evals}
    if mult.value >= -tol:
        return np.full((1, 1), mult.lam), mult.value, None, diagnostics
    return None, mult.value, mult.M if mult.value <= -tol_strict else None, diagnostics


def _concluded(f, g, e, J, cert_best, M, diagnostics, tol, tol_strict, hereditary) -> Decision:
    """The Decision on _scaled's f and g: a certificate from J, else a counterexample from M."""
    if J is not None:
        cert = _certified(f, g, e, J, cert_best, tol)
        if cert.certificate is not None:
            return Decision(kind="certificate", certificate=cert.certificate,
                            diagnostics=diagnostics)
    if M is not None:
        kind, point = ((HereditaryCounterexample, _hereditary_point) if hereditary
                       else (Counterexample, _projected_point))
        try:
            ce = _build(kind, point, f, g, e, M, tol, tol_strict)
            return Decision(kind="counterexample", counterexample=ce, diagnostics=diagnostics)
        except (PreconditionViolated, VerificationFailed) as exc:
            diagnostics["counterexample_error"] = str(exc)
    return Decision(kind="inconclusive", diagnostics=diagnostics)


def _decide_common(f, g, slater, budget, tol, tol_strict, hereditary):
    _check_slater(g, slater, tol_strict, hereditary)
    f2, g2 = reconcile(f, g)
    m, q = f2.m, f2.q
    if max(q * q, m * q) > MAX_DIM:
        raise DimensionTooLarge(
            f"(m, q) = ({m}, {q}) needs {q * q}x{q * q} and {m * q}x{m * q} search "
            f"matrices; the limit is {MAX_DIM}"
        )
    f2, g2, e = _scaled(f2, g2)
    if q == 1:
        sides = _multiplier_sides(f2, g2, e, tol, tol_strict)
    else:
        sides = _race_sides(f2, g2, e, budget, tol, tol_strict)
    return _concluded(f2, g2, e, *sides, tol, tol_strict, hereditary)


def decide(
    f: NCQuadPoly,
    g: NCQuadPoly,
    slater: MatTuple,
    budget: int = DEFAULT_BUDGET,
    tol: float = DEFAULT_TOL,
    tol_strict: float = DEFAULT_TOL_STRICT,
) -> Decision:
    """Full decision for the projected domination question.

    Requires lambda_min(g(slater)) > tol_strict.  Coefficient dimensions are
    reconciled automatically (pad f, or replace g by repeated blocks).  The
    certificate search and the separator search each run one ascent of at
    most ``budget`` evaluations from the center of their spectraplex
    (linalg.spectral_search), so no random number is drawn and the same
    inputs give the same decision, and take one evaluation each in turn,
    certificate side first.  The race ends once certify finishes at >= -tol
    or the separator reaches its target; weak duality lets at most one side
    do so.  Each separator point M also bounds every certify value from
    above by <A, M> - lambda_min(sum B_ij (x) M_ij); once a bound is below
    -tol by more than a roundoff allowance (CUT_ROUNDOFF), certify can no
    longer settle and stops, and the separator goes on alone.  So the
    objects returned are those of certify then find_separator run in full.
    The report is inconclusive when neither yields a verified object:
    certify ended below -tol or was ruled out, and the separator ended
    without a verified counterexample (a builder's failure, a rejected
    separator's PreconditionViolated included, is ``counterexample_error``).
    ``diagnostics`` holds, for every outcome, the evaluations each side
    spent (``certify_evals``, ``separator_evals``), the best value each
    reached before the race ended (``certify_best``, ``separator_best``)
    and ``certify_bound``, the lowest of those bounds; ``separator_best``
    and ``certify_bound`` are None if the separator made no evaluation.  A
    bound below -tol shows, up to roundoff, that no trace-one certificate
    exists.

    At a reconciled q = 1 no search runs and ``budget`` is unused: a CP
    map is a scalar lambda >= 0, and linalg.scalar_multiplier maximizes
    h(lambda) = lambda_min(A - lambda B) over all of them, read by
    positivity.scalar_slemma's rule.  A maximum at or above -tol gives the
    certificate J = [[lambda]] (J = [[0]] when f alone is PSD), one at or
    below -tol_strict hands its bracket separator to the builder, and one
    between is inconclusive.  ``certify_best`` and ``certify_bound`` are
    both that maximum, ``certify_evals`` and ``separator_evals`` are 0,
    ``separator_best`` is None, and ``multiplier``, ``multiplier_value``
    and ``multiplier_evals`` are lambda, h(lambda) and the evaluations of
    h.  Past the Slater test, in the caller's units, f and g are divided by their 2^e (_scaled):
    tol and tol_strict are relative to 2^e, and the values come back times 2^e; J, M, X, P, E do not.
    Reconciled sizes with q^2 or mq above MAX_DIM raise DimensionTooLarge.
    """
    return _decide_common(f, g, slater, budget, tol, tol_strict, hereditary=False)


def decide_hereditary(
    f: NCQuadPoly,
    g: NCQuadPoly,
    slater: MatTuple,
    budget: int = DEFAULT_BUDGET,
    tol: float = DEFAULT_TOL,
    tol_strict: float = DEFAULT_TOL_STRICT,
) -> Decision:
    """Decision for hereditary domination (general, not-necessarily-symmetric tuples).

    The certificate condition is the same coefficient-matrix inequality; the
    counterexample uses the rectangular construction without projection.
    """
    return _decide_common(f, g, slater, budget, tol, tol_strict, hereditary=True)


def homogenize(
    quad: NCQuadPoly,
    linear,
    constant,
    budget: int = DEFAULT_BUDGET,
    tol: float = DEFAULT_TOL,
) -> HomogenizationResult:
    """Search for a PSD homogenization of sum A_ij x_i x_j + sum A_i x_i + A_0.

    The homogenization introduces a variable x_0 with mixed blocks
    H_i0 = A_i/2 + K_i (K_i skew-symmetric, H_0i = H_i0^T), the only freedom
    allowed by H_i0 + H_0i = A_i and symmetry.  The concave function
    K -> lambda_min(coefficient matrix of h) is maximized by supergradient
    ascent over the unconstrained skew parameters; success means the
    optimum reaches -tol.  A0 and the quadratic part are principal blocks
    of every homogenization, so lambda_min(C) is at most the smaller of
    their lambda_mins (Cauchy interlacing) whatever K is: when that is
    below -tol no K helps, no search runs, and the result is at K = 0.
    """
    m, q = quad.m, quad.q
    linear = np.asarray(linear, dtype=float)
    if linear.shape != (m, q, q):
        raise ShapeMismatch(f"linear part must have shape {(m, q, q)}")
    lin = np.stack([symmetrize(linear[i]) for i in range(m)])
    A0 = symmetrize(constant)
    if A0.shape != (q, q):
        raise ShapeMismatch(f"constant part must be {q}x{q}")

    iu = np.triu_indices(q, 1)
    n_skew = len(iu[0])
    quad_coeff = coefficient_matrix(quad)

    def h_blocks(x):
        K = np.zeros((m, q, q))
        K[:, iu[0], iu[1]] = x.reshape(m, n_skew)
        return lin / 2.0 + (K - K.transpose(0, 2, 1))

    def coeff(H):
        side = H.reshape(m * q, q)
        return np.block([[A0, side.T], [side, quad_coeff]])

    def oracle(x):
        val, v = _min_eigpair(coeff(h_blocks(x)))
        W = (v[q:, None] * v[:q]).reshape(m, q, q)
        return val, 2.0 * (W - W.transpose(0, 2, 1))[:, iu[0], iu[1]].ravel()

    best_x = np.zeros(m * n_skew)
    if min(lambda_min(A0), lambda_min(quad_coeff)) >= -tol:
        best_x, _, _ = supergradient_ascent(oracle, _ascent(best_x, budget, target=-0.1 * tol))
    H = h_blocks(best_x)
    C = coeff(H)
    lam = lambda_min(C)
    return HomogenizationResult(
        feasible=bool(lam >= -tol),
        h_blocks=H,
        coefficient=C,
        lambda_min=lam,
    )


def homogenized_poly(quad: NCQuadPoly, result: HomogenizationResult) -> NCQuadPoly:
    """The homogenization as a polynomial in m+1 variables (x_0 first)."""
    return new_quad_poly(blocks_from_matrix(result.coefficient, quad.m + 1, quad.q))


SPOT_CHECKS = 10


@functools.lru_cache(maxsize=32)
def _spot_tuples(m: int, seed: int) -> tuple:
    """The SPOT_CHECKS seeded symmetric tuples, drawn one by one, stacked by size.

    Each draw takes its size n in 1..4, then its (m, n, n) matrices; the
    tuples of one size form one (k, m, n, n) stack, in draw order.  The
    stacks are cached per (m, seed) and read-only, since every certificate
    verified at that seed is checked at the same tuples.
    """
    rng = np.random.default_rng(seed)
    by_size = {}
    for _ in range(SPOT_CHECKS):
        n = int(rng.integers(1, 5))
        by_size.setdefault(n, []).append(rng.standard_normal((m, n, n)))
    stacks = []
    for raws in by_size.values():
        raw = np.stack(raws)
        stack = (raw + raw.transpose(0, 1, 3, 2)) / 2.0
        stack.flags.writeable = False
        stacks.append(stack)
    return tuple(stacks)


def _slack(tol: float, floor: float, f: NCQuadPoly, g: NCQuadPoly, J) -> float:
    """f's tolerance tol (floor + ||A||_F) on verify's scaled f, g and J, less the roundoff bound of
    applying phi_J (q^2 products an entry) and of an eigensolve of side at most 4mq: no J widens it."""
    return tol * (floor + fro(f.blocks)) - 2.0 ** -52 * f.q * (f.q + 4 * f.m) * fro(J) * fro(g.blocks)


def _spot_checks_pass(f: NCQuadPoly, g: NCQuadPoly, floor: float, J, tol: float, seed: int) -> bool:
    """Whether f(X) - (phi_J (x) 1_n) g(X) is PSD at every spot-check tuple X.

    f, g, J and floor are verify_certificate's, all of norm below 1, so no gap leaves the float
    range.  A gap passes iff lambda_min(gap) >= -s _slack, s = sum_i ||X_i||_F^2: lambda_min(gap)
    >= s lambda_min(residual) when that is negative, so a residual that passes passes here too.
    Each size is one batch: one evaluation of f and g, one product for phi, one eigensolve.
    """
    slack = _slack(tol, floor, f, g, J)
    for X in _spot_tuples(f.m, seed):
        gap = _gram_form(f, X) - _map_stack(J, _gram_form(g, X), f.q, f.q)
        gap = 0.5 * (gap + gap.transpose(0, 2, 1))
        if not (np.linalg.eigvalsh(gap)[:, 0] >= -slack * (X * X).sum(axis=(1, 2, 3))).all():
            return False  # a NaN fails as well
    return True


def verify_certificate(
    cert: CPCertificate,
    f: NCQuadPoly,
    g: NCQuadPoly,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> bool:
    """Independent re-check of a certificate against the instance it claims.

    Recomputes the residual A - (1_m (x) phi) B from the inputs and re-runs
    the checks: J PSD (of any trace: nothing fixes phi's scale), the
    residual PSD, and SPOT_CHECKS spot checks of f(X) - (phi (x) 1_n) g(X)
    PSD at seeded random symmetric tuples X of sizes n in 1..4.  The last two
    take phi from J + |lambda_min(J)| I when J is not PSD, and f's tolerance
    (_slack), so neither J's own tolerance nor its scale loosens them.
    f and g are _scaled as decide scales them, and J and f further divided by J's 2^j (j >= 0), so
    no gap leaves the float range; the residual passes at lambda_min >= -tol (2^e + ||A||_F).
    """
    try:
        f2, g2 = reconcile(f, g)
    except ShapeMismatch:
        return False
    j = max(0, binade(cert.J.J))
    floor = math.ldexp(1.0, -j)  # the 1 of tol (1 + ||.||_F), divided by 2^j
    J = np.ldexp(cert.J.J, -j)
    low = lambda_min(J)
    if (cert.J.s, cert.J.t) != (f2.q, f2.q) or not low >= -tol * (floor + fro(J)):
        return False
    J = J - min(low, 0.0) * np.eye(len(J))  # PSD, so phi_J is CP
    e = binade(f2.blocks, g2.blocks)  # _scaled's 2^e, with f further divided by 2^j in one step
    f2, g2 = _times(f2, -e - j), _times(g2, -e)
    residual = coefficient_matrix(f2) - _map_coefficients(J, g2.blocks, f2.q)
    slack = _slack(tol, floor, f2, g2, J)
    if np.linalg.eigvalsh(symmetrize(residual))[0] < -slack:
        return False
    return _spot_checks_pass(f2, g2, floor, J, tol, seed)


def verify_counterexample(
    ce,
    f: NCQuadPoly,
    g: NCQuadPoly,
    tol: float = DEFAULT_TOL,
    tol_strict: float = DEFAULT_TOL_STRICT,
) -> bool:
    """Re-check a counterexample's two inequalities from its stored evaluation point.

    Both are checked on the support of the point (see _sides), which gives the verdict of the
    whole evaluation, with both sides over the instance's 2^e, as the builders check them.  Any
    structural inconsistency in the stored object (wrong shapes, missing pieces, a non-finite
    witness E) counts as a failed verification rather than an error.
    """
    try:
        f2, g2 = reconcile(f, g)
        if ce.X is None or ce.X.m != f2.m:
            return False
        g_side, violation = _sides(ce, f2, g2, binade(f2.blocks, g2.blocks))
        return bool(is_psd(g_side, tol) and violation <= -tol_strict)
    except (ShapeMismatch, ValueError, TypeError):  # TypeError: e.g. a 2-D E
        return False
