"""Certificate search and counterexample construction for matrix-valued domination.

Given symmetric quadratic homogeneous matrix-valued polynomials f and g with
a strict feasibility point for g, the domination question "compressions of
g(X) PSD imply compressions of f(X) PSD" has exactly two verifiable answers:

* a completely positive map phi (a trace-normalized PSD Choi matrix) whose
  residual coefficient matrix A - (1_m (x) phi) B is PSD, or
* a separator M (trace-one PSD) with sum_ij B_ij (x) M_ij PSD and
  <A, M> < 0, from which an explicit evaluation point, projection and
  witness vector are assembled and re-verified from scratch.

A failed certificate search is never treated as a refutation on its own:
only a verified counterexample refutes, and only a verified certificate
confirms; everything else is reported inconclusive.

The two searches are the two sides of one duality, so at most one can
reach its target.  decide races them: one oracle evaluation from each in
turn, and the first side to settle the question ends the round.  Every
separator point also bounds the certificate search's values from above,
and the certificate search stops once that bound rules it out.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    DimensionTooLarge,
    InvalidInput,
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
    _min_eigpair,
    fro,
    is_psd,
    lambda_min,
    min_eigpair,  # unused: the loop calls _min_eigpair; bench/spans.py wraps this name here
    psd_factor,
    regroup,
    spectral_search,
    spectraplex_project,  # unused: spectral_search projects; bench/spans.py wraps this name here
    supergradient_ascent,
    symmetrize,
)
from .cpmaps import ChoiMatrix, identity_choi, new_choi
from .poly import (
    GENERAL,
    MatTuple,
    NCQuadPoly,
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
    """Trace-normalized Choi matrix whose residual coefficient matrix is PSD."""

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


def _pair_products(V: np.ndarray) -> np.ndarray:
    """kron(V, V): the matrix with entry ((i, j), (a, b)) equal to V[i, a] V[j, b]."""
    r, c = V.shape
    return (V[:, None, :, None] * V[None, :, None, :]).reshape(r * r, c * c)


def _certify_gradient(v: np.ndarray, rows: np.ndarray, m: int, q: int) -> np.ndarray:
    """-sum_ij W_ij (x) B_ij for W = v v^T as an m x m grid of q x q blocks W_ij.

    ``rows`` holds the blocks B_ij one per row, blocks.reshape(m*m, q*q).
    The result, indexed ((a, c), (b, d)), is minus the adjoint of
    J -> (1_m (x) phi_J) B at v v^T.
    """
    return -regroup(_pair_products(v.reshape(m, q)).T @ rows, q, q, q, q)


def _separator_gradient(u: np.ndarray, rows: np.ndarray, m: int, q: int) -> np.ndarray:
    """The mq x mq matrix with (i, j) block U^T B_ij U, where U = u.reshape(q, q).

    This is the adjoint of M -> sum_ij B_ij (x) M_ij at u u^T.
    """
    return regroup(rows @ _pair_products(u.reshape(q, q)), m, m, q, q)


def _certify_oracle(calA: np.ndarray, blocks: np.ndarray, q: int):
    m = blocks.shape[0]
    rows = blocks.reshape(m * m, q * q)

    def oracle(J):
        R = calA - _map_coefficients(J, blocks, q)
        val, v = _min_eigpair(R)
        G = _certify_gradient(v, rows, m, q)
        return val, (G + G.T) / 2.0

    return oracle


def _separator_oracle(calA: np.ndarray, blocks: np.ndarray, q: int, c: float):
    """oracle(M) -> (value, supergradient, bound) of the separator objective.

    ``bound`` is <A, M> - lambda_min(sum B_ij (x) M_ij).  At a trace-one PSD
    M it is weak duality's upper bound on every certify value: for every
    trace-one PSD J, lambda_min(A - (1_m (x) phi_J) B) <= <A - (1 (x) phi_J) B, M>
    = <A, M> - <sum B_ij (x) M_ij, u J u^T> <= bound, u the tensor swap.
    """
    m = blocks.shape[0]
    rows = blocks.reshape(m * m, q * q)

    def oracle(M):
        T = _b_term(M, blocks, q)
        t1, u = _min_eigpair(T)
        a = float(np.sum(calA * M))
        t2 = -a / c
        if t1 <= t2:
            G = _separator_gradient(u, rows, m, q)
            return t1, (G + G.T) / 2.0, a - t1
        return t2, -calA / c, a - t1

    return oracle


def _certify_side(f: NCQuadPoly, g: NCQuadPoly, budget: int, seed: int):
    """certify's oracle and its spectral search, not yet started."""
    q = f.q
    starts = [identity_choi(q).J / q, np.eye(q * q) / (q * q)]
    oracle = _certify_oracle(coefficient_matrix(f), g.blocks, q)
    return oracle, spectral_search(q * q, budget, seed, starts=starts, target=0.0)


def _certified(f: NCQuadPoly, g: NCQuadPoly, best_J, best_v: float, tol: float) -> CertifySearch:
    """certify's answer for the best point its search reached."""
    if best_v < -tol:
        return CertifySearch(certificate=None, best_value=best_v)
    q = f.q
    J = best_J / np.trace(best_J)
    residual = symmetrize(coefficient_matrix(f) - _map_coefficients(J, g.blocks, q))
    return CertifySearch(
        certificate=CPCertificate(
            J=new_choi(J, q, q),
            residual=residual,
            residual_lambda_min=lambda_min(residual),
        ),
        best_value=best_v,
    )


def certify(
    f: NCQuadPoly,
    g: NCQuadPoly,
    budget: int = DEFAULT_BUDGET,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> CertifySearch:
    """Search for a trace-one PSD Choi matrix J with A - (1_m (x) phi_J) B PSD.

    Maximizes the concave objective J -> lambda_min(A - (1 (x) phi_J) B)
    over the spectraplex, starting from the scaled identity map, then the
    maximally mixed point, then a seeded random point.  A best value >= -tol
    yields a certificate; otherwise the best value is returned as a
    (one-sided) diagnostic; it is not a proof that no certificate exists.
    """
    if f.m != g.m or f.q != g.q:
        raise ShapeMismatch("certify requires matching (m, q); reconcile first")
    best_J, best_v, _ = supergradient_ascent(*_certify_side(f, g, budget, seed))
    return _certified(f, g, best_J, best_v, tol)


def _separator_side(f: NCQuadPoly, g: NCQuadPoly, budget: int, tol_strict: float, seed: int):
    """find_separator's oracle, its spectral search (not yet started) and its margin.

    The margin tol_strict / c is the value a separator must clear; the
    search stops at twice that.
    """
    q, m = f.q, f.m
    calA = coefficient_matrix(f)
    c = 1.0 + fro(calA)
    margin = tol_strict / c
    search = spectral_search(
        m * q, budget, seed, starts=[np.eye(m * q) / (m * q)], target=2.0 * margin,
    )
    return _separator_oracle(calA, g.blocks, q, c), search, margin


def _separated(f, g, M, best_v, margin, tol, tol_strict) -> SeparatorSearch:
    """find_separator's answer for the best point its search reached."""
    T = _b_term(M, g.blocks, f.q)
    b_margin = lambda_min(T)
    a_value = float(np.sum(coefficient_matrix(f) * M))
    if best_v < margin or not is_psd(T, tol) or a_value > -tol_strict:
        M = None
    return SeparatorSearch(M=M, best_value=best_v, b_margin=b_margin, a_value=a_value)


def find_separator(
    f: NCQuadPoly,
    g: NCQuadPoly,
    budget: int = DEFAULT_BUDGET,
    tol: float = DEFAULT_TOL,
    tol_strict: float = DEFAULT_TOL_STRICT,
    seed: int = DEFAULT_SEED,
) -> SeparatorSearch:
    """Search for a trace-one PSD M with sum B_ij (x) M_ij PSD and <A, M> < 0.

    Maximizes min(lambda_min(sum B_ij (x) M_ij), -<A, M>/c) with
    c = 1 + ||A||_F; success requires the optimum to clear tol_strict/c so
    both separator inequalities hold with a quantitative margin.
    """
    if f.m != g.m or f.q != g.q:
        raise ShapeMismatch("find_separator requires matching (m, q); reconcile first")
    oracle, search, margin = _separator_side(f, g, budget, tol_strict, seed)
    M, best_v, _ = supergradient_ascent(lambda M: oracle(M)[:2], search)
    return _separated(f, g, M, best_v, margin, tol, tol_strict)


def _checked_separator(f, g, M, tol, tol_strict) -> np.ndarray:
    """M, symmetrized, once it is a separator: PSD, sum B_ij (x) M_ij PSD, <A, M> < 0."""
    M = symmetrize(M)
    q, m = f.q, f.m
    if M.shape != (m * q, m * q):
        raise ShapeMismatch(f"separator must be {(m * q, m * q)}, got {M.shape}")
    if not is_psd(M, tol):
        raise PreconditionViolated("separator is not PSD")
    if not is_psd(_b_term(M, g.blocks, q), tol):
        raise PreconditionViolated("sum B_ij (x) M_ij is not PSD")
    if float(np.sum(coefficient_matrix(f) * M)) > -tol_strict:
        raise PreconditionViolated("<A, M> is not strictly negative")
    return M


def _projected_point(rows, r: int, q: int) -> dict:
    """Bordered symmetric X_i = [[0, V_i^T], [V_i, 0]], P onto the last q coordinates."""
    n = r + q
    mats = np.zeros((len(rows), n, n))
    for i, V in enumerate(rows):
        mats[i, :r, r:] = V.T
        mats[i, r:, :r] = V
    P = np.zeros((n, n))
    P[r:, r:] = np.eye(q)
    return {"X": new_tuple(mats, kind="symmetric"), "P": P, "E": np.eye(q).reshape(-1)}


def _hereditary_point(rows, r: int, q: int) -> dict:
    """X_i = V_i zero-padded to max(r, q) square, E' = sum_i e_i (x) f_i."""
    n = max(r, q)
    mats = np.zeros((len(rows), n, n))
    for i, V in enumerate(rows):
        mats[i, :q, :r] = V
    return {"X": new_tuple(mats, kind=GENERAL), "E": np.eye(q, n).reshape(-1)}


def _sides(ce, f: NCQuadPoly, g: NCQuadPoly):
    """The g side that must be PSD and the violation E^T (f side) E at ce's stored point.

    Both counterexample kinds are accepted through this one computation,
    by the builders and by verify_counterexample alike.
    """
    if isinstance(ce, HereditaryCounterexample):
        g_side = evaluate_hereditary(g, ce.X)
        f_side = evaluate_hereditary(f, ce.X)
    else:
        r = ce.X.n - f.q
        if r < 0:
            raise ShapeMismatch(f"evaluation point of size {ce.X.n} is below q = {f.q}")
        g_side = evaluate_compressed(g, ce.X, ce.P)
        f_side = evaluate_compressed(f, ce.X, ce.P[:, r:])
    return g_side, float(ce.E @ f_side @ ce.E)


def _build(kind, point, f, g, M, tol, tol_strict):
    """Factor a checked separator M = V V^T and accept the ``kind`` built at ``point``.

    Accepts through _sides, requires the factor to reproduce every block
    M_ij, and retries once at a 10x finer rank cutoff.
    """
    M = _checked_separator(f, g, M, tol, tol_strict)
    q, m = f.q, f.m
    last_error = None
    for cutoff in (tol, tol / 10.0):
        V = psd_factor(M, cutoff)
        r = V.shape[1]
        rows = [V[i * q : (i + 1) * q, :] for i in range(m)]
        ce = kind(M=M, rank=r, **point(rows, r, q))
        g_side, violation = _sides(ce, f, g)
        block_err = max(
            fro(rows[i] @ rows[j].T - M[i * q : (i + 1) * q, j * q : (j + 1) * q])
            for i in range(m) for j in range(m)
        )
        if is_psd(g_side, tol) and violation <= -tol_strict and block_err <= 1e-8:
            return replace(ce, violation=violation)
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
    retry at a 10x finer rank cutoff.
    """
    return _build(Counterexample, _projected_point, f, g, M, tol, tol_strict)


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
    E' = sum_i e_i (x) f_i evaluates f(X) to <A, M> < 0.
    """
    return _build(HereditaryCounterexample, _hereditary_point, f, g, M, tol, tol_strict)


def _check_slater(g: NCQuadPoly, slater: MatTuple, tol_strict: float, hereditary: bool):
    if slater.m != g.m:
        raise ShapeMismatch(f"slater tuple has m={slater.m}, g has m={g.m}")
    val = evaluate_hereditary(g, slater) if hereditary else evaluate(g, slater)
    if not np.isfinite(val).all():
        raise InvalidInput("g(slater) overflows the float range; rescale g or the slater tuple")
    lm = lambda_min(val)
    if lm <= tol_strict:
        raise SlaterViolated(f"lambda_min(g(slater)) = {lm:.3e} <= {tol_strict}")


SLICE = 500

# Roundoff allowance of the duality cut, per unit of 1 + ||A||_F + ||B||_F.
# Both searches only evaluate outputs of _spectraplex_project, each within
# O(n u) of a trace-one PSD matrix (n <= MAX_DIM its side, u = 2^-53), and
# form certify values, <A, M> and lambda_min(sum B_ij (x) M_ij) through
# GEMMs, sums and eigh whose a-priori errors are also O(n u) times those
# norms.  Summed, a computed certify value exceeds the computed bound of a
# separator point by less than about 12 n u times 1 + ||A||_F + ||B||_F,
# which is 5.5e-12 times it at n = MAX_DIM: 1e-10 leaves a factor of 18.
CUT_ROUNDOFF = 1e-10


def _race(searches, settles, cut):
    """The certify and separator searches of one round, one evaluation each in turn.

    A generator for supergradient_ascent: it yields ``(side, point)``, side
    0 (certify) first, and takes the oracle's output for it back; the
    separator's output carries a third element, the bound its point puts on
    every certify value.  A side whose search finishes leaves the turn; the
    round ends once both have finished, or as soon as one finishes with a
    best value of at least ``settles[side]``, which cuts the other short.
    A separator bound below ``cut`` cuts certify short as well, since
    certify can then no longer settle.  Returns, per side, ``[best point or
    None if cut short, best value reached, evaluations]``, and the lowest
    bound (inf if the separator made no evaluation): a pair, so that
    supergradient_ascent's evaluation count stays its third element.
    """
    tally = [[None, -np.inf, 0], [None, -np.inf, 0]]
    bound = np.inf
    live = list(searches)
    points = [search.send(None) for search in live]
    while live[0] or live[1]:
        for side in (0, 1):
            if live[side] is None:
                continue
            out = yield side, points[side]
            rec = tally[side]
            rec[2] += 1
            if out[0] > rec[1]:
                rec[1] = out[0]
            if side and out[2] < bound:
                bound = out[2]
                if bound < cut:
                    live[0] = None
            try:
                points[side] = live[side].send(out[:2])
            except StopIteration as done:
                live[side] = None
                rec[0] = done.value[0]
                if done.value[1] >= settles[side]:
                    live[1 - side] = None
                    break
    return tally, bound


def _decide_common(f, g, budget, tol, tol_strict, seed, hereditary):
    f2, g2 = reconcile(f, g)
    m, q = f2.m, f2.q
    if max(q * q, m * q) > MAX_DIM:
        raise DimensionTooLarge(
            f"(m, q) = ({m}, {q}) needs {q * q}x{q * q} and {m * q}x{m * q} search "
            f"matrices; the limit is {MAX_DIM}"
        )
    builder = build_counterexample_hereditary if hereditary else build_counterexample
    diagnostics = {"certify_best": -np.inf, "certify_bound": None, "separator_best": -np.inf,
                   "certify_evals": 0, "separator_evals": 0}
    lowest = np.inf
    # A separator bound below cut puts every certify value below -tol.
    scale = 1.0 + fro(coefficient_matrix(f2)) + fro(coefficient_matrix(g2))
    cut = -tol - CUT_ROUNDOFF * scale
    rounds = max(1, math.ceil(budget / SLICE))
    for rnd in range(1, rounds + 1):
        slice_budget = min(budget, rnd * SLICE)
        cert_oracle, cert_search = _certify_side(f2, g2, slice_budget, seed)
        sep_oracle, sep_search, margin = _separator_side(f2, g2, slice_budget, tol_strict, seed + 1)
        sides = (cert_oracle, sep_oracle)

        def oracle(step):
            side, X = step
            return sides[side](X)

        # Weak duality: a separator value >= 2 margin puts every certify value
        # at or below -2 tol_strict, so when that is below -tol the separator's
        # target settles the round; certify finishing at >= -tol always does.
        settles = (-tol, 2.0 * margin if 2.0 * tol_strict > tol else np.inf)
        ((J, cert_best, cert_evals), (M, sep_best, sep_evals)), bound, _ = supergradient_ascent(
            oracle, _race((cert_search, sep_search), settles, cut),
        )
        lowest = min(lowest, bound)
        diagnostics["certify_best"] = max(diagnostics["certify_best"], cert_best)
        diagnostics["certify_bound"] = lowest if lowest < np.inf else None
        diagnostics["separator_best"] = max(diagnostics["separator_best"], sep_best)
        diagnostics["certify_evals"] += cert_evals
        diagnostics["separator_evals"] += sep_evals
        if J is not None:
            cert = _certified(f2, g2, J, cert_best, tol)
            if cert.certificate is not None:
                return Decision(kind="certificate", certificate=cert.certificate,
                                diagnostics=diagnostics)
        if M is not None:
            sep = _separated(f2, g2, M, sep_best, margin, tol, tol_strict)
            if sep.M is None:
                continue
            try:
                ce = builder(f2, g2, sep.M, tol=tol, tol_strict=tol_strict)
            except VerificationFailed as exc:
                diagnostics["counterexample_error"] = str(exc)
                continue
            return Decision(kind="counterexample", counterexample=ce,
                            diagnostics=diagnostics)
    return Decision(kind="inconclusive", diagnostics=diagnostics)


def decide(
    f: NCQuadPoly,
    g: NCQuadPoly,
    slater: MatTuple,
    budget: int = DEFAULT_BUDGET,
    tol: float = DEFAULT_TOL,
    tol_strict: float = DEFAULT_TOL_STRICT,
    seed: int = DEFAULT_SEED,
) -> Decision:
    """Full decision for the projected domination question.

    Requires lambda_min(g(slater)) > tol_strict.  Coefficient dimensions are
    reconciled automatically (pad f, or replace g by repeated blocks).  The
    budget is spent in rounds: round r runs each search afresh with
    min(budget, r * SLICE) evaluations.  In a round the certificate search
    and the separator search take one evaluation each in turn, certificate
    side first, and the round ends once certify finishes at >= -tol or the
    separator reaches its target; weak duality lets at most one side do
    so.  Each separator point M also bounds every certify value from above
    by <A, M> - lambda_min(sum B_ij (x) M_ij); once a bound is below -tol
    by more than a roundoff allowance (CUT_ROUNDOFF), certify can no longer
    settle and stops, and the separator goes on alone.  So the objects
    returned are those of certify then find_separator run in full.  The
    first verified object wins.  The report is inconclusive when no round
    yields one: certify ended below -tol or was ruled out, and the
    separator ended without a verified counterexample.
    ``diagnostics`` holds, for every outcome, the evaluations each side
    spent (``certify_evals``, ``separator_evals``, summed over rounds), the
    best value each reached before its round ended (``certify_best``,
    ``separator_best``) and ``certify_bound``, the lowest of those bounds
    over all rounds (None if the separator made no evaluation).  A bound
    below -tol shows, up to roundoff, that no trace-one certificate exists.
    Reconciled sizes with q^2 or mq above MAX_DIM raise DimensionTooLarge.
    """
    _check_slater(g, slater, tol_strict, hereditary=False)
    return _decide_common(f, g, budget, tol, tol_strict, seed, hereditary=False)


def decide_hereditary(
    f: NCQuadPoly,
    g: NCQuadPoly,
    slater: MatTuple,
    budget: int = DEFAULT_BUDGET,
    tol: float = DEFAULT_TOL,
    tol_strict: float = DEFAULT_TOL_STRICT,
    seed: int = DEFAULT_SEED,
) -> Decision:
    """Decision for hereditary domination (general, not-necessarily-symmetric tuples).

    The certificate condition is the same coefficient-matrix inequality; the
    counterexample uses the rectangular construction without projection.
    """
    _check_slater(g, slater, tol_strict, hereditary=True)
    return _decide_common(f, g, budget, tol, tol_strict, seed, hereditary=True)


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
    optimum reaches -tol.
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

    def unpack(x):
        Ks = np.zeros((m, q, q))
        for i in range(m):
            Ki = np.zeros((q, q))
            Ki[iu] = x[i * n_skew : (i + 1) * n_skew]
            Ks[i] = Ki - Ki.T
        return Ks

    def coeff(Ks):
        d = (m + 1) * q
        C = np.zeros((d, d))
        C[:q, :q] = A0
        for i in range(m):
            H = lin[i] / 2.0 + Ks[i]
            C[(i + 1) * q : (i + 2) * q, :q] = H
            C[:q, (i + 1) * q : (i + 2) * q] = H.T
        C[q:, q:] = coefficient_matrix(quad)
        return C

    def oracle(x):
        C = coeff(unpack(x))
        val, v = _min_eigpair(C)
        W = np.outer(v, v)
        G = np.zeros_like(x)
        for i in range(m):
            Wi0 = W[(i + 1) * q : (i + 2) * q, :q]
            skew = Wi0 - Wi0.T
            G[i * n_skew : (i + 1) * n_skew] = 2.0 * skew[iu]
        return val, G

    x0 = np.zeros(m * n_skew)
    if n_skew == 0:
        best_x, best_v = x0, oracle(x0)[0]
    else:
        best_x, best_v, _ = supergradient_ascent(
            oracle, x0, budget, target=-0.1 * tol
        )
    Ks = unpack(best_x)
    C = coeff(Ks)
    lam = lambda_min(C)
    h_blocks = np.stack([lin[i] / 2.0 + Ks[i] for i in range(m)])
    return HomogenizationResult(
        feasible=bool(lam >= -tol),
        h_blocks=h_blocks,
        coefficient=C,
        lambda_min=lam,
    )


def homogenized_poly(quad: NCQuadPoly, result: HomogenizationResult) -> NCQuadPoly:
    """The homogenization as a polynomial in m+1 variables (x_0 first)."""
    m, q = quad.m, quad.q
    from .poly import blocks_from_matrix

    return new_quad_poly(blocks_from_matrix(result.coefficient, m + 1, q))


SPOT_CHECKS = 10


def verify_certificate(
    cert: CPCertificate,
    f: NCQuadPoly,
    g: NCQuadPoly,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> bool:
    """Independent re-check of a certificate against the instance it claims.

    Recomputes the residual from the inputs, re-runs both PSD tests and the
    trace normalization, and spot-checks f(X) - (phi (x) 1) g(X) on
    SPOT_CHECKS seeded random symmetric tuples of size up to 4.
    """
    try:
        f2, g2 = reconcile(f, g)
    except ShapeMismatch:
        return False
    q = f2.q
    J = cert.J
    if J.s != q or J.t != q:
        return False
    if abs(np.trace(J.J) - 1.0) > 1e-6:
        return False
    if not is_psd(J.J, tol):
        return False
    residual = symmetrize(coefficient_matrix(f2) - _map_coefficients(J.J, g2.blocks, q))
    if not is_psd(residual, tol):
        return False

    from .cpmaps import apply_map_blockwise

    rng = np.random.default_rng(seed)
    for _ in range(SPOT_CHECKS):
        n = int(rng.integers(1, 5))
        raw = rng.standard_normal((f2.m, n, n))
        X = new_tuple((raw + raw.transpose(0, 2, 1)) / 2.0, kind="symmetric")
        gap = evaluate(f2, X) - apply_map_blockwise(J, evaluate(g2, X))
        if not is_psd(gap, tol):
            return False
    return True


def verify_counterexample(
    ce,
    f: NCQuadPoly,
    g: NCQuadPoly,
    tol: float = DEFAULT_TOL,
    tol_strict: float = DEFAULT_TOL_STRICT,
) -> bool:
    """Re-check a counterexample's two inequalities from its stored evaluation point.

    Any structural inconsistency in the stored object (wrong shapes, missing
    pieces) counts as a failed verification rather than an error.
    """
    try:
        f2, g2 = reconcile(f, g)
        if ce.X is None or ce.X.m != f2.m:
            return False
        g_side, violation = _sides(ce, f2, g2)
        return bool(is_psd(g_side, tol) and violation <= -tol_strict)
    except (ShapeMismatch, ValueError, TypeError):  # TypeError: e.g. a 2-D E
        return False
