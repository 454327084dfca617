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

Every search oracle reads only the bottom eigenpair of its matrix, so
from side SELECTIVE_MIN_SIDE on ``_min_eigpair`` asks LAPACK's selective
eigensolver dsyevr for that one pair (bisection and inverse iteration on
the tridiagonal form) instead of every pair: about a third of a full
``eigh`` at sides 48 and 64.  The routine is numpy's own LAPACK, bound
through ctypes from the library numpy's linalg extension loads
(``_dsyevr``); where that library does not export it, ``_min_eigpair``
is ``_eigh`` at every side.

There are two searches.  ``spectral_search`` is a single projected
supergradient ascent (``_ascent``) over the spectraplex from the center
I / dim with the whole budget, behind ``maximize_spectral``; no decision
runs it.  ``conic_feasibility`` is the domination search, for both
answers at once: Douglas-Rachford splitting for a PSD Choi matrix of
any trace, started from the spectral search's first two points, whose
dual iterate gives a separator candidate at every step.  No search draws
a random number.  Each is a generator that ``supergradient_ascent``
drives: ``next`` yields the first point to evaluate, and ``send`` takes
the oracle's output and yields the next one, or ends the search.
"""

import ctypes
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
    failure gives NaN and numpy's invalid-value warning.  NaN input gives
    the same output through either: often NaN, but not always (with numpy
    2.4's OpenBLAS, an identity with one NaN entry off its first row keeps a
    finite w[0]).  The searches reject a NaN value as InvalidInput.
    """
    return _umath_linalg.eigh_lo(S, signature="d->dd")


def _sym_eigh(S: np.ndarray):
    """Ascending eigenvalues and eigenvectors of the symmetric part of a square float64 matrix."""
    h = S * 0.5  # halved before the symmetrizing sum, which then cannot overflow
    return _eigh(h + h.T)


# From this side on, dsyevr's one pair beats eigh's all.  Best-of-runs times on a 2-vCPU Xeon
# VM (numpy 2.4, OpenBLAS 0.3.31, one BLAS thread), dsyevr against eigh: 20 us against 23 us
# at side 14, 21 against 28 at 16, 70-85 against 200 at 48, 110 against 300 at 64; at 13 they
# tie, and below it the ~10 us of the ctypes call are most of the cost (15 against 10 at 8).
SELECTIVE_MIN_SIDE = 14

_ILP64 = getattr(_umath_linalg, "_ilp64", None)  # numpy's LAPACK takes 64-bit integers
_LAPACK_INT = np.int64 if _ILP64 else np.int32
_COL_MAJOR = 102  # LAPACK_COL_MAJOR: LAPACKE makes no transposed copy


def _bind_dsyevr():
    """LAPACKE_dsyevr of the LAPACK numpy's linalg extension is linked to, or None.

    numpy's wheels link scipy-openblas, whose symbols carry the prefix
    ``scipy_`` and, in an ILP64 build, the suffix ``64_``.  The symbol is
    looked up through the extension's own handle, which searches the
    libraries already loaded with it, so no second LAPACK is loaded.
    """
    if _ILP64 is None:
        return None
    try:
        fn = getattr(ctypes.CDLL(_umath_linalg.__file__),
                     "scipy_LAPACKE_dsyevr64_" if _ILP64 else "scipy_LAPACKE_dsyevr")
    except (OSError, AttributeError):
        return None
    integer, ptr, char, dbl = (ctypes.c_int64 if _ILP64 else ctypes.c_int32,
                               ctypes.c_void_p, ctypes.c_char, ctypes.c_double)
    # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz
    fn.argtypes = [ctypes.c_int, char, char, char, integer, ptr, integer, dbl, dbl,
                   integer, integer, dbl, ptr, ptr, ptr, integer, ptr]
    fn.restype = integer
    return fn


_dsyevr = _bind_dsyevr()


def _min_eigpair(S: np.ndarray):
    """min_eigpair without validation, for square finite matrices built in the loop.

    Below SELECTIVE_MIN_SIDE, or without ``_dsyevr``, it is the bottom pair
    of ``_sym_eigh``: it skips np.linalg.eigh's Python wrapper, as ``_eigh``
    calls the same LAPACK gufunc, and a test checks that both give the same
    bits.  From that side on, dsyevr computes the one pair on the same
    symmetric part (RANGE = 'I', IL = IU = 1, ABSTOL = 0), which overwrites
    it.  There a NaN or inf entry, which makes the sum of squares of the
    matrix non-finite, gives a NaN value and vector, which the ascent
    rejects (bisection on a NaN tridiagonal may return a finite number, and
    so may ``_eigh``); ``_sym_eigh`` still runs when that sum overflows
    (entries past about 1e154) and when dsyevr reports a failure.
    """
    n = len(S)
    if n >= SELECTIVE_MIN_SIDE and _dsyevr is not None and S.shape == (n, n):
        h = S * 0.5  # as in _sym_eigh, into the contiguous float64 block dsyevr reads
        a = np.add(h, h.T, dtype=np.float64, order="C")
        if math.isfinite(np.vdot(a, a)):
            w, z = np.empty(n), np.empty(n)
            ints = np.empty(3, _LAPACK_INT)  # M, the number of pairs found, then ISUPPZ
            p = ints.ctypes.data
            if _dsyevr(_COL_MAJOR, b"V", b"I", b"L", n, a.ctypes.data, n, 0.0, 0.0, 1, 1, 0.0,
                       p, w.ctypes.data, z.ctypes.data, n, p + ints.itemsize) == 0:
                return float(w[0]), z
        elif not np.isfinite(a).all():
            return math.nan, np.full(n, math.nan)
    w, V = _sym_eigh(S)
    return float(w[0]), V[:, 0].copy()


def min_eigpair(S):
    """Smallest eigenvalue and a unit eigenvector for it.

    With a degenerate bottom eigenvalue the vector is some unit vector of
    the bottom eigenspace, each a valid supergradient direction; the same
    matrix always gives the same vector.
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
    if tol < 0:
        raise InvalidInput("tol must be nonnegative")
    S = symmetrize(S)
    w, V = np.linalg.eigh(S)
    scale = 1.0 + fro(S)
    if w[0] < -tol * scale:
        raise NotPSD(f"lambda_min = {w[0]:.3e} below -{tol * scale:.3e}")
    keep = w > tol * scale
    return V[:, keep] * np.sqrt(w[keep])


def _ascent(x0: np.ndarray, budget: int, target: Optional[float] = None):
    """Two-phase projected supergradient ascent on the spectraplex, one step at a time.

    A search for ``supergradient_ascent``: it yields ``x0`` first, taken as
    given (it must be feasible), then each step projected, and takes the
    oracle's ``(value, supergradient)`` for each point, returning
    ``(best_x, best_value)`` when it ends.  Phase one runs the classic
    diminishing 1/sqrt(k) schedule (normalized directions) with
    best-iterate tracking; phase two restarts
    from the best point and takes raw supergradient steps with a constant
    size that halves whenever a stage fails to improve, which converges
    linearly on sharp maxima and is what pushes boundary-supported optima
    down to 1e-8 and beyond.  A restart drops the step it replaces.  The
    search ends at the budget, at ``target``, or once the step halves to
    1e-14.

    A step whose value or supergradient norm is not finite raises
    InvalidInput, since past that point no iterate would be finite.
    """
    x, step = x0, None  # step is None while x needs no projection
    best_x, best_v, evals = None, -np.inf, 0
    s, stop = None, max(1, budget // 4)  # s is None in phase one
    while True:
        if step is not None:
            x = _spectraplex_project(x + step * G)
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
        step = 1.0 / (math.sqrt(evals) * norm) if s is None else s
        if evals >= stop:  # the stage ends
            if s is None:
                s, x, step = 1.0, best_x.copy(), None
            elif best_v < stage_base + 0.01 * s:
                s, x, step = 0.5 * s, best_x.copy(), None
            if evals >= budget or s <= 1e-14:
                return best_x, best_v
            stage_base, stop = best_v, min(budget, evals + STAGE_LEN)


def supergradient_ascent(oracle: Callable, search):
    """Drive a search with ``oracle``; return ``(*its result, evals)``.

    ``search`` is a generator returning a tuple: an ``_ascent`` (the one
    ``spectral_search`` returns), a ``conic_feasibility`` or homogenize's
    Douglas-Rachford search.  Its first point comes from ``next``; ``oracle``
    is called on each point, and ``send`` hands the output back and gives
    the next point, until a ``send`` ends the search.  ``evals`` is the
    number of ``oracle`` calls, so every search's evaluations can be
    counted here.
    """
    point, evals = next(search), 0
    while True:
        out = oracle(point)
        evals += 1
        try:
            point = search.send(out)
        except StopIteration as done:
            return (*done.value, evals)


def _center(dim: int) -> np.ndarray:
    """I / dim as ``_spectraplex_project`` rounds it, formed without the eigensolve: c +
    _simplex_shift of dim copies of c = 1 / dim on the diagonal, the same bits."""
    c = 1.0 / dim
    return np.eye(dim) * (c + _simplex_shift(np.full(dim, c)))


def spectral_search(dim: int, budget: int, target: Optional[float] = None):
    """maximize_spectral one step at a time: ``_ascent`` from ``_center(dim)``, returning (best, value)."""
    if dim < 1:
        raise InvalidInput("dim must be positive")
    return _ascent(_center(dim), budget, target)


def _psd_part(S: np.ndarray) -> np.ndarray:
    """The projection of S's symmetric part onto the PSD cone: its negative eigenvalues set to 0."""
    w, V = _sym_eigh(S)
    return (V * np.maximum(w, 0.0)) @ V.T


def _choi_map(J: np.ndarray, rows: np.ndarray, m: int, q: int) -> np.ndarray:
    """L(J) = (1_m (x) phi_J) B, rows = B's blocks flattened one per row (m^2 x q^2)."""
    return regroup(rows @ regroup(J, q, q, q, q).T, m, m, q, q)


def _choi_adjoint(R: np.ndarray, rows: np.ndarray, m: int, q: int) -> np.ndarray:
    """L^T(R), the adjoint of _choi_map: <L(J), R> = <J, L^T(R)> for every J."""
    return regroup(regroup(R, m, q, m, q).T @ rows, q, q, q, q)


# Douglas-Rachford's scaling of the map: its variables are (J', R) with J = DR_SIGMA J', on
# the scaled pair (norms below 1).  On the bench generator's 90 tight and scale-gap cases at
# q >= 2 of seeds 0-9 (budget 500), 0.25, 1, 4, 8, 16 and 64 decide 37, 74, 86, 86, 86 and 83
# of them, 8 with the fewest evaluations (9,092 against 12,374 at 4 and 9,944 at 16).
DR_SIGMA = 8.0


def _repair(t: float, a: float, lam0: float, a0: float, margin: float):
    """The Slater repair of a separator candidate M: (theta, <A, M'>), M' = (1 - theta) M + theta M0.

    t = lambda_min T(M) and a = <A, M>, T(M) = sum_ij B_ij (x) M_ij; M0 is trace-one PSD with
    lam0 = lambda_min T(M0) > 0, and a0 = <A, M0>.  With delta = max(0, -t) + margin and
    theta = delta / (delta + lam0), T's linearity gives lambda_min T(M') >= (1 - theta) t +
    theta lam0 >= margin lam0 / (delta + lam0), and <A, M'> = lam0 U_s(M) / (delta + lam0),
    U_s(M) = a + s delta, s = a0 / lam0, which bounds the trace of every certificate J (0 <=
    <A - L(J), M0> <= a0 - lam0 tr J): a candidate with U_s(M) < 0 becomes a separator, strict
    with a positive margin.
    """
    delta = max(0.0, -t) + margin
    theta = delta / (delta + lam0)
    return theta, (1.0 - theta) * a + theta * a0


def conic_feasibility(A: np.ndarray, rows: np.ndarray, q: int, M0: np.ndarray, budget: int,
                      tol: float, tol_strict: float):
    """Both answers of the paper's alternative in one search: Douglas-Rachford for a PSD J, of
    any trace, with A - L(J) PSD (L = _choi_map), and a separator from each of its steps.

    A search for ``supergradient_ascent``: it yields ``(side, X)`` and takes the oracle's output
    for it.  Side 0 is a candidate J, answered by ``(lambda_min(A - L(J)), v)``, v a unit bottom
    eigenvector; side 1 a trace-one PSD candidate separator M, answered by ``(lambda_min T(M),
    <A, M>)``, T(M) = sum_ij B_ij (x) M_ij.  T is L's adjoint up to a swap, so lambda_min(A -
    L(J)) <= <A, M> - lambda_min T(M) tr J for every PSD J and M: a tested M with T(M) PSD
    bounds every certify value, of any trace, by <A, M>.

    The candidates J: the center I / q^2 as _spectraplex_project rounds it, then the projection
    of the center plus the unit supergradient -L^T(v v^T) there (skipped when it vanishes: no J
    does better than the center then), then, from the better of the two, s, Douglas-Rachford
    splitting on the variables z = (J', R), J = DR_SIGMA J', between the affine set R +
    DR_SIGMA L(J') = A and the product of PSD cones (Lions and Mercier, 1979; Henrion and
    Malick, 2011): x = P_aff(z), y = P_+(2 x - z), z += y - x, from z = (s / DR_SIGMA, P_+(A -
    L(s))), each candidate DR_SIGMA y's J' part.  In the regrouped coordinates of _choi_map,
    I + DR_SIGMA^2 L^T L is right multiplication by I + DR_SIGMA^2 rows^T rows, so P_aff is one
    product with that q^2 x q^2 matrix's inverse, formed once the candidates before it failed.

    The candidate separators, each tested after the J it pairs with: the center I / mq with the
    first J, then with each Douglas-Rachford J the R part of y - (2 x - z), the part of the
    reflection its cone projection cut off, P_+(z_R - 2 x_R), normalized to trace one (none
    when it is zero).  That is the R part of z's next value less x, the iteration's dual
    iterate.  When no certificate exists, z_k / k converges to a certificate of infeasibility,
    the limit of the step z_{k+1} - z_k (Liu, Ryu and Yin, Math. Program. 177, 2019; Banjac,
    Goulart, Stellato and Boyd, JOTA 183, 2019), and so does this iterate over k: its R part
    is an M with T(M) PSD and <A, M> < 0.  On the bench generator's tight pairs moved across the
    boundary it finds more separators, and sooner, than the step itself.

    A candidate with lambda_min T(M) < tol_strict is repaired toward M0 (_repair), a trace-one
    PSD matrix with T(M0) positive definite, such as the Slater tuple's (slemma._slater_separator).
    M0 is tested as a candidate the first time a repair needs its lambda_min T, but not before
    the second J: the center's repair waits for it, and a second J that certifies saves the
    test.  Without a positive lambda_min T(M0) no candidate is repaired.  Repaired with no
    margin (none at all where T(M) is PSD), every candidate bounds every certify value, of any
    trace, by its <A, M'>, and ``bound`` is the least of these (inf before the first).  Repaired
    with margin 2 tol_strict, where one is needed, the first candidate with <A, M'> <= -2
    tol_strict is the separator, and lambda_min T(M') is then positive; the best one at or
    below -tol_strict is the separator when the search ends otherwise.

    J is tested only while ``bound`` >= -tol: below, weak duality puts every certify value below
    -tol.  The search ends at a certify value of at least -tol, at the first separator, or after
    ``budget`` steps, each forming one J and the separator candidate it pairs with: at most
    ``budget`` evaluations of each side, and one of M0.  It returns
    ((best J, its value, certify evaluations), (the separator or None, bound, separator
    evaluations)).  No random number is drawn: the same inputs give the same candidates.  A
    value that is not finite raises InvalidInput, and so does an iterate z that is not, since
    _sym_eigh may give finite output on NaN input.
    """
    m, n = len(A) // q, q * q
    sigma, cut = DR_SIGMA, -2.0 * tol_strict
    best_J, best_v, bound = None, -math.inf, math.inf
    kept_a, kept_M = -tol_strict, None  # the best repaired candidate at or below -tol_strict
    evals, lam0, a0 = [0, 0], None, None

    def tested(side, X):
        """The oracle's output for (side, X), its values checked finite."""
        out = yield side, X
        evals[side] += 1
        values = out[:1] if side == 0 else out
        if not all(map(math.isfinite, values)):
            raise InvalidInput(f"search step {sum(evals)}: value " + ", ".join(map(repr, values)))
        return out

    def separated(M, t, a):
        """Record candidate M, t = lambda_min T(M) and a = <A, M>, testing M0 first if its repair
        needs it: whether the search found its separator."""
        nonlocal bound, kept_a, kept_M, lam0, a0
        if t < tol_strict and lam0 is None:
            lam0, a0 = yield from tested(1, M0)
            if (yield from separated(M0, lam0, a0)):
                return True
        if t >= 0.0:  # T(M) is PSD: <A, M> bounds as it is
            bound = min(bound, a)
        if t < tol_strict:
            if not lam0 > 0.0:  # T(M0) is not positive definite as computed: no repair
                return False
            bound = min(bound, _repair(t, a, lam0, a0, 0.0)[1])
            theta, a = _repair(t, a, lam0, a0, 2.0 * tol_strict)
            M = (1.0 - theta) * M + theta * M0
        if a <= kept_a:
            kept_a, kept_M = a, M
        return a <= cut

    J, inv, held, steps = _center(n), None, None, 0
    while True:
        steps += 1
        if bound >= -tol:  # else every certify value is below -tol
            v, u = yield from tested(0, J)
            if v > best_v:
                best_J, best_v = J, v
            if best_v >= -tol:
                break
        M = None
        if steps == 1:  # the spectral search's first step is along the supergradient here
            G = -_choi_adjoint(u[:, None] * u, rows, m, q)
            G = (G + G.T) / 2.0
            norm = fro(G)
            if not math.isfinite(norm):
                raise InvalidInput(f"search step 1: supergradient norm {norm!r}")
            M = _center(len(A))
        elif inv is not None:  # the R part the cone projection cut off the reflection, P_+(-r_R)
            dropped = np.maximum(-w, 0.0)
            if dropped.sum() > 0.0:
                M = (V * (dropped / dropped.sum())) @ V.T
        if held is not None:  # the center, whose repair waited for the second J
            if (yield from separated(*held)):
                break
            held = None
        if M is not None:
            t, a = yield from tested(1, M)
            if steps == 1 and t < tol_strict:
                held = M, t, a
            elif (yield from separated(M, t, a)):
                break
        if steps >= budget:
            break
        if steps == 1 and norm >= 1e-15:  # else v^T L(J) v = 0 for every J: none does better
            J = _spectraplex_project(J + (1.0 / norm) * G)
            continue
        if inv is None:  # Douglas-Rachford from the better of the candidates so far
            inv = np.linalg.inv(np.eye(n) + sigma * sigma * (rows.T @ rows))
            rows_inv = rows @ inv
            zJ, zR = best_J / sigma, _psd_part(A - _choi_map(best_J, rows, m, q))
        # x = P_aff(z), its J' part in _choi_map's regrouped coordinates first
        xJ = (regroup(zJ, q, q, q, q) @ inv
              + sigma * (regroup(A - zR, m, q, m, q).T @ rows_inv))
        xR = A - sigma * regroup(rows @ xJ.T, m, m, q, q)
        xJ = regroup(xJ, q, q, q, q)
        w, V = _sym_eigh(2.0 * xR - zR)
        yJ, yR = _psd_part(2.0 * xJ - zJ), (V * np.maximum(w, 0.0)) @ V.T
        zJ, zR = zJ + (yJ - xJ), zR + (yR - xR)
        if not math.isfinite(np.vdot(zJ, zJ) + np.vdot(zR, zR)):
            raise InvalidInput(f"search step {sum(evals) + 1}: the iterate is not finite")
        J = sigma * yJ
    # a pair, so that supergradient_ascent's evaluation count is its third element
    return (best_J, best_v, evals[0]), (kept_M, bound, evals[1])


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
    """Where scalar_multiplier's bisection of h(lambda) = lambda_min(A - lambda B) stopped."""

    lam: float
    value: float  # h(lam), the best probe's
    bracket_hi: float  # the upper end the doubling reached, 0 when it did not leave 0
    evals: int  # evaluations of h
    M: Optional[np.ndarray]  # the bracket separator, None while the upper end still rises
    bound: Optional[float]  # <A, M>: in exact arithmetic, at least every h(lambda); None with M


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


def scalar_multiplier(A: np.ndarray, B: np.ndarray, tol_strict: float) -> Multiplier:
    """Bisect the concave h(lambda) = lambda_min(A - lambda B) over lambda >= 0 until it decides.

    B is first moved into A's binade: the search runs over mu = lambda / 2^k, k = binade(A) -
    binade(B) (at most 1023), as on B 2^k, so the cap below bounds lambda B relative to A.
    Bisection on the sign of h's right derivative (``_scalar_probe``), one
    evaluation of h per step: mu = 0 if h does not rise at 0, else the
    upper end doubles from 1 while h rises, up to 2^60 or as far as lambda
    is a float (``bracket_hi``, times 2^k), and [lo, hi] is halved, at
    powers of two while it spans more than one binade (``_probe_point``).
    lam is the better end, times 2^k.

    Once the upper end falls, the bracket holds a trace-one separator (Sturm
    and Zhang, 2003): with v_lo, v_hi the probes' vectors at its ends,
    b_lo < 0 <= b_hi, and theta = b_hi / (b_hi - b_lo) tilted by TILT toward
    v_hi, M = theta v_lo v_lo^T + (1 - theta) v_hi v_hi^T has, in exact
    arithmetic, <B, M> >= 0, so every h(lambda) <= <A - lambda B, M> <= <A, M>:
    ``bound`` is <A, M> = theta (h_lo + lam_lo b_lo) + (1 - theta) (h_hi +
    lam_hi b_hi), as v^T A v = h + lam b at each end, lam = mu 2^k.  When h
    falls at 0, M is v_0 v_0^T and the bound h(0); while the upper end
    still rises (at the cap, or settled during the doubling), M and the
    bound are None.

    The bisection stops as soon as it decides, by the two rules that end the
    q >= 2 search: it settles at the first probe with h >= 0, certify's target,
    which is then lam; and it is cut once the bound is at most -2 tol_strict,
    the separator's target, when every h is too.  Otherwise (a maximum
    between -2 tol_strict and 0) it runs until no float lies between the
    ends, when the bound is h's maximum up to one float step of lambda.
    Inputs must be symmetric, finite and of norm below 1, as the entry
    points leave them: no probe overflows.
    """
    k = min(binade(A) - binade(B), 1023)
    cap = math.ldexp(1.0, min(60, 1023 - k))
    cut = -2.0 * tol_strict
    probe = _scalar_probe(A, B, k)
    evals = 1
    lo = hi = bracket_hi = 0.0
    h_lo, b_lo, v_lo = h_hi, b_hi, v_hi = probe(lo)
    bound = None
    while True:
        if b_hi >= 0.0:  # a bracket
            theta = b_hi / (b_hi - b_lo) * (1.0 - TILT) if b_lo < 0.0 else 0.0
            bound = (theta * (h_lo + math.ldexp(lo, k) * b_lo)
                     + (1.0 - theta) * (h_hi + math.ldexp(hi, k) * b_hi))
            if bound <= cut:
                break
        if max(h_lo, h_hi) >= 0.0:  # settled at the last probe, the better end
            break
        if b_hi < 0.0 and hi < cap:  # the upper end doubles from 1 while h rises there
            lo, h_lo, b_lo, v_lo, hi = hi, h_hi, b_hi, v_hi, max(2.0 * hi, 1.0)
            h_hi, b_hi, v_hi = probe(hi)
            bracket_hi = hi
        elif lo < (mid := _probe_point(lo, hi)) < hi:
            h, b, v = probe(mid)
            if b < 0.0:
                lo, h_lo, b_lo, v_lo = mid, h, b, v
            else:
                hi, h_hi, b_hi, v_hi = mid, h, b, v
        else:
            break
        evals += 1
    lam, value = (lo, h_lo) if h_lo >= h_hi else (hi, h_hi)
    M = None
    if bound is not None:
        M = theta * (v_lo[:, None] * v_lo) + (1.0 - theta) * (v_hi[:, None] * v_hi)
    return Multiplier(math.ldexp(lam, k), value, math.ldexp(bracket_hi, k), evals, M, bound)
