"""Dense symmetric linear algebra and spectral-optimization primitives.

Everything operates on plain numpy arrays.  Matrices handed to the public
symmetric routines are validated (finite entries, symmetry within a relative
tolerance) and exactly symmetrized before use, so downstream code never sees
asymmetry beyond roundoff.

The cores ``_min_eigpair`` and ``_spectraplex_project`` skip those checks,
for the matrices the search loops build from inputs validated once; each
public kernel is ``symmetrize`` followed by its core.
"""

import math
from types import GeneratorType
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

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
                           error=InvalidInput, tol: float = SYM_ATOL) -> np.ndarray:
    """(a + flipped) / 2, once ``a`` is finite and equals ``flipped`` within ``tol`` (relative).

    ``flipped`` is the transpose ``a`` must equal (``a.T`` for a matrix, the
    block transpose for coefficient blocks).  Non-finite entries, and a
    Frobenius norm past the largest float (it would make every relative
    tolerance infinite), raise InvalidInput; asymmetry beyond
    tol * (1 + ||a||_F) raises ``error``.  No entry exceeds the norm, so below
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
    if gap > tol * (1.0 + norm):
        raise error(f"{what}: asymmetry {gap:.3e} beyond tolerance {tol * (1.0 + norm):.3e}")
    if norm <= _HALF_MAX:
        return (a + flipped) / 2.0
    return a / 2.0 + flipped / 2.0


def symmetrize(a, tol: float = SYM_ATOL) -> np.ndarray:
    """Return the symmetric part of ``a``; reject asymmetry beyond ``tol`` (relative)."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    return checked_symmetric_part(m, m.T, "matrix", tol=tol)


def fro(a) -> float:
    """Frobenius norm of an array of any shape (the value np.linalg.norm gives).

    When the plain sum of squares overflows, the entries are first scaled by
    their largest magnitude, so the norm stays finite up to the largest float;
    every other result is the plain one, bit for bit.
    """
    flat = np.asarray(a, dtype=float).ravel(order="K")
    norm = math.sqrt(np.vdot(flat, flat))  # the sum flat @ flat forms, minus its overflow warning
    if norm == math.inf:
        big = float(np.abs(flat).max())
        if big < math.inf:
            scaled = flat / big
            return big * math.sqrt(np.vdot(scaled, scaled))
    return norm


def regroup(x, a: int, b: int, c: int, d: int) -> np.ndarray:
    """Move entry ((i, j), (k, l)) of an ab x cd matrix to ((i, k), (j, l)) of an ac x bd one.

    This is the index shuffle between an assembled block matrix (rows
    (i, k)) and its blocks flattened one per row (rows (i, j)), which turns
    every blockwise contraction into a single matrix product.
    """
    return x.reshape(a, b, c, d).transpose(0, 2, 1, 3).reshape(a * c, b * d)


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


def _min_eigpair(S: np.ndarray):
    """min_eigpair without validation, for square finite matrices built in the loop."""
    h = S * 0.5  # halved before the symmetrizing sum, which then cannot overflow
    w, V = np.linalg.eigh(h + h.T)
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
    """spectraplex_project without validation, for square finite matrices built in the loop."""
    h = S * 0.5  # halved before the symmetrizing sum, which then cannot overflow
    w, V = np.linalg.eigh(h + h.T)  # ascending, so w[::-1] is sorted for the shift
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
    min_step: float = 1e-14,
):
    """Two-phase projected supergradient ascent for a concave objective, one step at a time.

    A generator: it yields each point to evaluate and takes back the
    oracle's ``(value, supergradient)`` for it; it returns
    ``(best_x, best_value)``.  ``supergradient_ascent`` drives it.  Phase one
    runs the classic diminishing 1/sqrt(k) schedule (normalized directions)
    with best-iterate tracking; phase two restarts from the best point and
    takes raw supergradient steps with a constant size that halves whenever
    a stage fails to improve, which converges linearly on sharp maxima and
    is what pushes boundary-supported optima down to 1e-8 and beyond.

    ``project`` is called on every step without validation: it must accept
    the finite arrays the loop builds.  A step whose value or supergradient
    norm is not finite raises InvalidInput, since past that point no
    iterate would be finite.
    """
    if project is None:
        project = lambda x: x
    x = project(np.array(x0, dtype=float))
    best_x, best_v, evals = None, -np.inf, 0
    s, stop = None, max(1, budget // 4)  # s is None in phase one
    while True:
        k = 0
        while evals < stop:
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
            k += 1
            if s is None:  # 1 / (sqrt(k) norm), split where the product overflows
                d = math.sqrt(k) * norm
                step = 1.0 / d if d < math.inf else 1.0 / math.sqrt(k) / norm
            else:
                step = s
            x = project(x + step * G)
        if s is None:
            s, x = 1.0, best_x.copy()
        elif best_v < stage_base + 0.01 * s:
            s *= 0.5
            x = best_x.copy()
        if evals >= budget or s <= min_step:
            return best_x, best_v
        stage_base, stop = best_v, min(budget, evals + STAGE_LEN)


def supergradient_ascent(
    oracle: Callable,
    x0,
    budget: Optional[int] = None,
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    target: Optional[float] = None,
    min_step: float = 1e-14,
):
    """Drive a steppable search with ``oracle``; return ``(*its result, evals)``.

    ``x0`` is the start point of one ``_ascent`` (with ``budget``,
    ``project``, ``target`` and ``min_step``), which then returns
    ``(best_x, best_value, evals)``.  Or it is a search already built, a
    generator such as ``_ascent`` or ``spectral_search`` returning a pair:
    ``oracle`` is called on each point it yields and the output sent back,
    and the other arguments are unused.  ``evals`` is the number of
    ``oracle`` calls.
    """
    search = x0 if isinstance(x0, GeneratorType) else _ascent(x0, budget, project, target, min_step)
    evals, out = 0, None
    while True:
        try:
            x = search.send(out)
        except StopIteration as done:
            return (*done.value, evals)
        out = oracle(x)
        evals += 1


def spectral_search(
    dim: int,
    budget: int,
    seed: int,
    starts: Sequence[np.ndarray] = (),
    target: Optional[float] = None,
    min_step: float = 1e-14,
):
    """maximize_spectral one step at a time: a generator of ``_ascent``s, returning (best, value)."""
    if dim < 1:
        raise InvalidInput("dim must be positive")
    raw = np.random.default_rng(seed).standard_normal((dim, dim))
    starts = [*starts, (raw + raw.T) / 2.0]
    share = max(1, budget // len(starts))
    best, best_v = None, -np.inf
    for M0 in starts:
        M, v = yield from _ascent(
            spectraplex_project(M0), share, _spectraplex_project, target, min_step,
        )
        if v > best_v:
            best, best_v = M, v
        if target is not None and best_v >= target:
            break
    return best, best_v


def maximize_spectral(
    oracle: Callable[[np.ndarray], tuple],
    dim: int,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    starts: Sequence[np.ndarray] = (),
    target: Optional[float] = None,
    min_step: float = 1e-14,
):
    """Maximize a concave spectral objective over the spectraplex, from several starts.

    ``oracle(M)`` must return the objective value and a symmetric
    supergradient at any trace-one PSD ``M``.  One ascent runs from the
    spectraplex projection of each of ``starts`` in turn, then one from that
    of a seeded random symmetric matrix, so runs are deterministic for a
    fixed seed.  Each ascent gets an equal share of ``budget`` (at least one
    evaluation), and the search stops once the best value reaches
    ``target``.  ``min_step`` is the ascent's step-size floor.  Budget
    exhaustion is not an error: the best iterate found and its value are
    always returned.  ``spectral_search`` is the same search, one step at a
    time.
    """
    best, best_v, _ = supergradient_ascent(
        oracle, spectral_search(dim, budget, seed, starts, target, min_step),
    )
    return best, best_v
