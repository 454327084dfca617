"""Dense symmetric linear algebra and spectral-optimization primitives.

Everything operates on plain numpy arrays.  Matrices handed to the public
symmetric routines are validated (finite entries, symmetry within a relative
tolerance) and exactly symmetrized before use, so downstream code never sees
asymmetry beyond roundoff.

The cores ``_min_eigpair`` and ``_spectraplex_project`` skip those checks,
for the matrices the search loops build from inputs validated once; each
public kernel is ``symmetrize`` followed by its core.  The cores also skip
numpy's Python wrapper around LAPACK: ``_eigh`` calls the gufunc that
``np.linalg.eigh`` calls, on the float64 square matrices the cores always
pass, so the results are the same bits (``tests/test_linalg.py`` checks
this) for a fraction of the cost on the small matrices of a search step.

Every spectraplex search is one engine, ``spectral_search``: a single
projected supergradient ascent (``_ascent``) from the center I / dim with
the whole budget.  The certificate and separator searches are the two
sides of one concave duality, so an interior start reaches either optimum
and no search draws a random number.  An ascent is a generator driven by
``next``, which yields the point to evaluate, and ``send``, which takes the
oracle's output and is the only call that ends it.  It starts at its given
point (for ``spectral_search``, the center as ``_spectraplex_project``
rounds it, formed without an eigensolve) and projects a step only when
``next`` asks for its point, so every projection it makes is evaluated.
"""

import math
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InvalidInput, NotPSD

DEFAULT_TOL = 1e-8
DEFAULT_TOL_STRICT = 1e-6
DEFAULT_BUDGET = 5000
DEFAULT_SEED = 42

# Hard cap on the side of the q^2 x q^2 and mq x mq matrices the searches
# allocate; large-scale sizes are a non-goal and silently huge allocations
# are worse than an error.
MAX_DIM = 4096

SYM_ATOL = 1e-12

STAGE_LEN = 30  # steps of one constant-step stage of supergradient_ascent

_HALF_MAX = float(np.finfo(float).max) / 2.0
_SHIFT_EXACT = 2.0 ** 52  # below this, 1 - u loses no bit of the 1 in _simplex_shift


def checked_symmetric_part(a: np.ndarray, flipped: np.ndarray, what: str,
                           error=InvalidInput) -> np.ndarray:
    """(a + flipped) / 2, once ``a`` is finite and equals ``flipped`` within SYM_ATOL (relative).

    ``flipped`` is the transpose ``a`` must equal (``a.T`` for a matrix, the
    block transpose for coefficient blocks).  Non-finite entries, and a
    Frobenius norm past the largest float (it would make every relative
    tolerance infinite), raise InvalidInput; asymmetry beyond
    SYM_ATOL * (1 + ||a||_F) raises ``error``.  No entry exceeds the norm, so below
    half the largest float the plain sum cannot overflow and is used; above
    it, each term is halved first.
    """
    if not np.isfinite(a).all():
        raise InvalidInput(f"{what}: non-finite entries")
    norm = fro(a)
    if norm == math.inf:
        raise InvalidInput(f"{what}: Frobenius norm exceeds the float range")
    # a - flipped is exactly antisymmetric, so its largest entry is its largest magnitude
    gap = (a - flipped).max()
    bound = SYM_ATOL * (1.0 + norm)
    if gap > bound:
        raise error(f"{what}: asymmetry {gap:.3e} beyond tolerance {bound:.3e}")
    if norm <= _HALF_MAX:
        return (a + flipped) / 2.0
    return a / 2.0 + flipped / 2.0


def symmetrize(a) -> np.ndarray:
    """Return the symmetric part of ``a``; reject asymmetry beyond SYM_ATOL (relative)."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    return checked_symmetric_part(m, m.T, "matrix")


def fro(a) -> float:
    """Frobenius norm of an array of any shape (the value np.linalg.norm gives).

    When the plain sum of squares overflows, or the norm is below 2^-480, where squares may have
    underflowed, the entries are first divided by the power of two above their largest magnitude:
    then fro(2^k a) = 2^k fro(a) exactly; every other result is the plain one, bit for bit.
    """
    flat = np.asarray(a, dtype=float).ravel(order="K")
    norm = math.sqrt(np.vdot(flat, flat))  # the sum flat @ flat forms, minus its overflow warning
    if (norm == math.inf or norm < 2.0 ** -480) and flat.size:
        big = float(np.abs(flat).max())
        if 0.0 < big < math.inf:
            e = math.frexp(big)[1]
            scaled = np.ldexp(flat, -e)
            return times_pow2(math.sqrt(np.vdot(scaled, scaled)), e)
    return norm


def binade(*arrays) -> int:
    """The e with 2^(e-1) <= max ||a||_F < 2^e (0 for zeros): the scale every entry point divides by."""
    return math.frexp(max(map(fro, arrays)))[1]


def times_pow2(x: float, e: int) -> float:
    """x 2^e, exact unless it leaves the float range: +-inf above it (math.ldexp raises there)."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def regroup(x, a: int, b: int, c: int, d: int) -> np.ndarray:
    """Move entry ((i, j), (k, l)) of an ab x cd matrix to ((i, k), (j, l)) of an ac x bd one.

    This is the index shuffle between an assembled block matrix (rows
    (i, k)) and its blocks flattened one per row (rows (i, j)), which turns
    every blockwise contraction into a single matrix product.

    A (k, ab, cd) stack regroups to one ac x kbd matrix whose columns run
    over (stack index, j, l), so one product serves the whole stack;
    ``ungroup`` takes such a product back to a stack.
    """
    return x.reshape(-1, a, b, c, d).transpose(1, 3, 0, 2, 4).reshape(a * c, -1)


def ungroup(y, a: int, b: int, c: int, d: int) -> np.ndarray:
    """Inverse of regroup on a stack: an ac x kbd matrix to the (k, ab, cd) stack."""
    return y.reshape(a, c, -1, b, d).transpose(2, 0, 3, 1, 4).reshape(-1, a * b, c * d)


class EigDecomp(NamedTuple):
    """Spectral decomposition with eigenvalues sorted in descending order."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eig(S) -> EigDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Satisfies ||V^T V - I||_F <= 1e-10 * dim and
    ||S - V diag(w) V^T||_F <= 1e-9 * (1 + ||S||_F).
    """
    S = symmetrize(S)
    w, V = np.linalg.eigh(S)
    return EigDecomp(values=w[::-1].copy(), vectors=V[:, ::-1].copy())


def lambda_min(S) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(symmetrize(S))[0])


def _eigh(S: np.ndarray):
    """np.linalg.eigh of a float64 square matrix: the LAPACK gufunc it calls, without its wrapper.

    The wrapper checks the shape and dtype, which the loop's matrices always
    pass, and turns a LAPACK convergence failure into LinAlgError; here that
    failure gives NaN and numpy's invalid-value warning, and NaN input gives
    NaN through either.  The searches reject a NaN value as InvalidInput.
    """
    return _umath_linalg.eigh_lo(S, signature="d->dd")


def _sym_eigh(S: np.ndarray):
    """Ascending eigenvalues and eigenvectors of the symmetric part of a square float64 matrix."""
    h = S * 0.5  # halved before the symmetrizing sum, which then cannot overflow
    return _eigh(h + h.T)


def _min_eigpair(S: np.ndarray):
    """min_eigpair without validation, for square finite matrices built in the loop.

    It also skips np.linalg.eigh's Python wrapper: ``_eigh`` calls the same
    LAPACK gufunc, and a test checks that both give the same bits.
    """
    w, V = _sym_eigh(S)
    return float(w[0]), V[:, 0].copy()


def min_eigpair(S):
    """Smallest eigenvalue and a unit eigenvector for it.

    With a degenerate bottom eigenvalue the vector returned is the
    lowest-index eigenvector, which makes supergradients deterministic.
    """
    return _min_eigpair(symmetrize(S))


def is_psd(S, tol: float = DEFAULT_TOL) -> bool:
    """True iff lambda_min(S) >= -tol * (1 + ||S||_F)."""
    if tol < 0:
        raise InvalidInput("tol must be nonnegative")
    S = symmetrize(S)
    return float(np.linalg.eigvalsh(S)[0]) >= -tol * (1.0 + fro(S))


def _simplex_shift(u: np.ndarray) -> float:
    """The t with sum(max(u + t, 0)) = 1, for u sorted in descending order.

    t is (1 - (u_1 + ... + u_k)) / k for the last k with u_k + t_k > 0.  The
    running sum is the one np.cumsum forms, term by term, so a plain Python
    pass gives its floats with fewer calls on the short vectors the searches
    project.  k = 1 always qualifies in exact arithmetic and is the fallback
    when roundoff rejects it, which happens once u_1 exceeds about 2^53.
    """
    total, shift = 0.0, None
    for k, x in enumerate(u.tolist(), 1):
        total += x
        t = (1.0 - total) / k
        if x + t > 0 or k == 1:
            shift = t
    return shift


def simplex_project(v) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    return np.maximum(v + _simplex_shift(np.sort(v)[::-1]), 0.0)


def _spectraplex_project(S: np.ndarray) -> np.ndarray:
    """spectraplex_project without validation, for square finite matrices built in the loop.

    It also skips np.linalg.eigh's Python wrapper: ``_eigh`` calls the same
    LAPACK gufunc, and a test checks that both give the same bits.
    """
    w, V = _sym_eigh(S)  # ascending, so w[::-1] is sorted for the shift
    if max(w[-1], -w[0]) > _SHIFT_EXACT:
        # The shift would round the 1 away or overflow.  Moving w by its largest
        # entry leaves the projection as it is, and entries below -1 get no weight.
        w = np.maximum(w - w[-1], -2.0)
    return (V * np.maximum(w + _simplex_shift(w[::-1]), 0.0)) @ V.T


def spectraplex_project(S) -> np.ndarray:
    """Euclidean projection onto {M symmetric : M >= 0, tr M = 1}."""
    return _spectraplex_project(symmetrize(S))


def psd_factor(S, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Factor a PSD matrix as S = V V^T.

    Columns of V are scaled eigenvectors; the column count equals the number
    of eigenvalues above tol * (1 + ||S||_F).  Raises NotPSD when the input
    fails the is_psd test at the same tolerance.
    """
    S = symmetrize(S)
    w, V = np.linalg.eigh(S)
    scale = 1.0 + fro(S)
    if w[0] < -tol * scale:
        raise NotPSD(f"lambda_min = {w[0]:.3e} below -{tol * scale:.3e}")
    keep = w > tol * scale
    return V[:, keep] * np.sqrt(w[keep])


def _ascent(
    x0: np.ndarray,
    budget: int,
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    target: Optional[float] = None,
):
    """Two-phase projected supergradient ascent for a concave objective, one step at a time.

    A generator driven by ``next`` and ``send``: ``next`` yields the point
    to evaluate, ``x0`` first, taken as given (it must be feasible), then
    each step projected; ``send`` takes the oracle's ``(value,
    supergradient)`` for it and returns None, or ends the search, returning
    ``(best_x, best_value)``.  Only ``send`` ends a search, so a step is
    projected only when its point is asked for.  ``supergradient_ascent``
    drives it.  Phase one runs the classic diminishing 1/sqrt(k) schedule
    (normalized directions) with best-iterate tracking; phase two restarts
    from the best point and takes raw supergradient steps with a constant
    size that halves whenever a stage fails to improve, which converges
    linearly on sharp maxima and is what pushes boundary-supported optima
    down to 1e-8 and beyond.  A restart drops the step it replaces.  The
    search ends at the budget, at ``target``, or once the step halves to
    1e-14.

    ``project`` is called on every step without validation: it must accept
    the finite arrays the loop builds.  A step whose value or supergradient
    norm is not finite raises InvalidInput, since past that point no
    iterate would be finite.
    """
    if project is None:
        project = lambda x: x
    x, step = x0, None  # step is None while x needs no projection
    best_x, best_v, evals = None, -np.inf, 0
    s, stop = None, max(1, budget // 4)  # s is None in phase one
    while True:
        if step is not None:
            x = project(x + step * G)
        v, G = yield x
        norm = fro(G)
        if not (math.isfinite(v) and math.isfinite(norm)):
            raise InvalidInput(
                f"search step {evals + 1}: value {v!r}, supergradient norm {norm!r}"
            )
        evals += 1
        if v > best_v:
            best_v, best_x = v, x.copy()
            if target is not None and best_v >= target:
                return best_x, best_v
        if norm < 1e-15:  # constant objective: nothing to ascend
            return best_x, best_v
        if s is None:  # 1 / (sqrt(k) norm), split where the product overflows
            d = math.sqrt(evals) * norm
            step = 1.0 / d if d < math.inf else 1.0 / math.sqrt(evals) / norm
        else:
            step = s
        if evals >= stop:  # the stage ends
            if s is None:
                s, x, step = 1.0, best_x.copy(), None
            elif best_v < stage_base + 0.01 * s:
                s, x, step = 0.5 * s, best_x.copy(), None
            if evals >= budget or s <= 1e-14:
                return best_x, best_v
            stage_base, stop = best_v, min(budget, evals + STAGE_LEN)
        yield


def supergradient_ascent(oracle: Callable, search):
    """Drive a steppable search with ``oracle``; return ``(*its result, evals)``.

    ``search`` is a generator returning a pair, such as an ``_ascent`` (the
    one ``spectral_search`` returns, or homogenize's unconstrained one) or
    the race of ``slemma.decide``: each ``next`` gives a point, ``oracle``
    is called on it, and ``send`` hands the output back, until a ``send``
    ends the search.  ``evals`` is the number of ``oracle`` calls, so every
    search's evaluations can be counted here.
    """
    evals = 0
    while True:
        out = oracle(next(search))
        evals += 1
        try:
            search.send(out)
        except StopIteration as done:
            return (*done.value, evals)


def spectral_search(dim: int, budget: int, target: Optional[float] = None):
    """maximize_spectral one step at a time: ``_ascent`` from the center, returning (best, value).

    The center is I / dim as ``_spectraplex_project`` rounds it, formed
    without the eigensolve: c + _simplex_shift of dim copies of c = 1 / dim
    on the diagonal, the same bits.
    """
    if dim < 1:
        raise InvalidInput("dim must be positive")
    c = 1.0 / dim
    return _ascent(np.eye(dim) * (c + _simplex_shift(np.full(dim, c))), budget,
                   _spectraplex_project, target)


def maximize_spectral(
    oracle: Callable[[np.ndarray], tuple],
    dim: int,
    budget: int = DEFAULT_BUDGET,
    *,
    target: Optional[float] = None,
):
    """Maximize a concave spectral objective over the spectraplex.

    ``oracle(M)`` must return the objective value and a symmetric
    supergradient at any trace-one PSD ``M``.  One ascent runs from the
    center I / dim, an interior point, with the whole ``budget``, and stops
    once its best value reaches ``target``; no random number is drawn, so
    runs are deterministic.  Budget exhaustion is not an error: the best
    iterate found and its value are always returned.  ``spectral_search``
    is the same search, one step at a time.
    """
    best, best_v, _ = supergradient_ascent(oracle, spectral_search(dim, budget, target))
    return best, best_v


class Multiplier(NamedTuple):
    """The maximum of h(lambda) = lambda_min(A - lambda B) over lambda >= 0 (see scalar_multiplier)."""

    lam: float
    value: float  # h(lam)
    bracket_hi: float  # the upper end the doubling reached, 0 when h falls at 0
    evals: int  # evaluations of h
    M: Optional[np.ndarray]  # the bracket separator, None when h still rises at the cap


def _scalar_probe(A: np.ndarray, B: np.ndarray, k: int):
    """probe(mu) -> (h(lam), b, v) at lam = mu 2^k, v a unit bottom eigenvector of A - lam B.

    h rises at lam iff b < 0: -b is h's right derivative at lam.  For a simple bottom eigenvalue b is
    v^T B v.  At an exactly tied one any unit vector of the tied eigenspace V
    may come back, so v is the top eigenvector of V^T B V and b its
    eigenvalue, lambda_max(V^T B V), which takes a second, small eigensolve.
    """
    def probe(mu):
        w, V = _sym_eigh(A - math.ldexp(mu, k) * B)
        if w.size > 1 and w[1] == w[0]:
            tied = V[:, w == w[0]]
            c, U = _sym_eigh(tied.T @ B @ tied)
            v, b = tied @ U[:, -1], float(c[-1])
        else:
            v = V[:, 0].copy()
            b = float(v @ B @ v)
        return float(w[0]), b, v

    return probe


def _probe_point(lo: float, hi: float) -> float:
    """The next multiplier to probe in [lo, hi]: a power of two while hi > 2 lo, else the midpoint.

    Before that, hi = 2^-b (b >= 0) and lo is 0 or 2^-a.  From lo = 0 the
    probe is 2^-(2b + 1), so the exponent roughly doubles (2^-1, 2^-3,
    2^-7, ...) down to the smallest subnormal; from lo = 2^-a it is
    2^-((a + b) // 2).  Either way the binade [2^-j, 2^-(j-1)] that holds the
    maximum is found in about 2 log2(j) probes, where halving [0, 1]
    arithmetically takes j, and it is found with the same two probes at its
    ends, so the halving inside it goes as before, bit for bit.
    """
    if hi <= 2.0 * lo:
        return (lo + hi) / 2.0
    b = 1 - math.frexp(hi)[1]
    e = 2 * b + 1 if lo == 0.0 else (b + 1 - math.frexp(lo)[1]) // 2
    return math.ldexp(1.0, -min(e, 1074))


# theta's relative tilt toward v_hi in the bracket separator.  In exact
# arithmetic it makes <B, M> = TILT b_hi >= 0 whichever way theta rounds, for
# a rise in <A, M> of about TILT lambda b_hi.  The computed <B, M> can still
# be -O(eps ||B||), from the rounding of v and b, which the -tol allowances of
# the builders and rank_one_split absorb.
TILT = 2.0 ** -40


def scalar_multiplier(A: np.ndarray, B: np.ndarray) -> Multiplier:
    """Maximize the concave h(lambda) = lambda_min(A - lambda B) over lambda >= 0, with a separator.

    B is first moved into A's binade: the search runs over mu = lambda / 2^k, k = binade(A) -
    binade(B) (at most 1023), as on B 2^k, so the cap below bounds lambda B relative to A.
    Bisection on the sign of h's right derivative (``_scalar_probe``), one
    evaluation of h per step: mu = 0 if h does not rise at 0, else the
    upper end doubles from 1 while h rises, up to 2^60 or as far as lambda
    is a float (``bracket_hi``, times 2^k), and [lo, hi] is halved until no
    float lies between them, at powers of two while it spans more than one
    binade (``_probe_point``).  lam is the better end, times 2^k.

    The last bracket holds a trace-one separator (Sturm and Zhang, 2003):
    with v_lo, v_hi the probes' vectors at its ends, b_lo < 0 <= b_hi, and
    theta = b_hi / (b_hi - b_lo) tilted by TILT toward v_hi,
    M = theta v_lo v_lo^T + (1 - theta) v_hi v_hi^T has, in exact
    arithmetic, <B, M> >= 0 and <A, M> = theta h(lo) + (1 - theta) h(hi) +
    theta |b_lo| (hi - lo), which is h's maximum up to one float step of
    lambda.  When h falls at 0, M is v_0 v_0^T, with <A, M> = h(0); when h
    still rises at the cap, the bracket holds no separator and M is None.  Inputs must be
    symmetric, finite and of norm below 1, as the entry points leave them: no probe overflows.
    """
    k = min(binade(A) - binade(B), 1023)
    cap = math.ldexp(1.0, min(60, 1023 - k))
    probe = _scalar_probe(A, B, k)
    evals = 1
    lo = hi = 0.0
    h_lo, b_lo, v_lo = h_hi, b_hi, v_hi = probe(lo)
    while b_hi < 0.0 and hi < cap:  # the upper end doubles from 1 while h rises there
        lo, h_lo, b_lo, v_lo, hi = hi, h_hi, b_hi, v_hi, max(2.0 * hi, 1.0)
        (h_hi, b_hi, v_hi), evals = probe(hi), evals + 1
    bracket_hi = hi
    while lo < (mid := _probe_point(lo, hi)) < hi:
        (h, b, v), evals = probe(mid), evals + 1
        if b < 0.0:
            lo, h_lo, b_lo, v_lo = mid, h, b, v
        else:
            hi, h_hi, b_hi, v_hi = mid, h, b, v
    lam, value = (lo, h_lo) if h_lo >= h_hi else (hi, h_hi)
    M = None
    if b_hi >= 0.0:
        theta = b_hi / (b_hi - b_lo) * (1.0 - TILT) if b_lo < 0.0 else 0.0
        M = theta * (v_lo[:, None] * v_lo) + (1.0 - theta) * (v_hi[:, None] * v_hi)
    return Multiplier(math.ldexp(lam, k), value, math.ldexp(bracket_hi, k), evals, M)
