"""The search loops run trusted kernels; these tests pin that they give the
same floats as the public validating kernels, and that a search step that
stops being finite is still an error."""

import numpy as np
import pytest

import ncslemma as ns
from ncslemma import linalg, slemma
from ncslemma.errors import InvalidInput
from ncslemma.linalg import _simplex_shift, supergradient_ascent
from ncslemma.positivity import scalar_slemma

from helpers import (
    random_poly,
    random_psd_poly,
    random_sym,
    refutable_instance,
    scale_gap_instance,
    slater_poly,
)

SIZES = [(1, 1), (2, 2), (3, 2), (4, 4)]
BUDGET = 200


def recorded(run, validating):
    """``run()`` with the argument of every oracle call recorded.

    With ``validating``, the loop's eigensolver and projections are swapped
    for the public ``min_eigpair`` and ``spectraplex_project`` (the
    projection core behind ``symmetrize``, which is what the public kernel
    runs), and the PSD-cone projection core for itself behind ``symmetrize``.
    A point of the domination search is recorded as it is, ``(side, X)``.
    """
    iterates = []
    with pytest.MonkeyPatch.context() as mp:
        for mod in (slemma, linalg):

            def ascent(oracle, *args, _ascent=mod.supergradient_ascent, **kwargs):
                def recording(x):
                    iterates.append((x[0], x[1].copy()) if isinstance(x, tuple) else x.copy())
                    return oracle(x)

                return _ascent(recording, *args, **kwargs)

            mp.setattr(mod, "supergradient_ascent", ascent)
        if validating:
            mp.setattr(slemma, "_min_eigpair", linalg.min_eigpair)
            core = linalg._spectraplex_project
            mp.setattr(linalg, "_spectraplex_project", lambda S: core(linalg.symmetrize(S)))
            cone = linalg._psd_part
            mp.setattr(linalg, "_psd_part", lambda S: cone(linalg.symmetrize(S)))
        result = run()
    return result, iterates


def same_runs(run):
    trusted, trusted_xs = recorded(run, validating=False)
    checked, checked_xs = recorded(run, validating=True)
    assert len(trusted_xs) == len(checked_xs)
    for a, b in zip(trusted_xs, checked_xs):
        if isinstance(a, tuple):
            assert a[0] == b[0]
            a, b = a[1], b[1]
        assert np.array_equal(a, b)
    return trusted, checked, len(trusted_xs)


def same_array(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert np.array_equal(a, b)


def refutable(rng, m, q):
    """(f, g, slater tuple) with a planted strict separator."""
    g, x = slater_poly(rng, m, q)
    f, g, _ = refutable_instance(rng, m, q, g=g)
    return f, g, ns.new_tuple(x.reshape(m, 1, 1))


@pytest.mark.parametrize("m,q", SIZES)
def test_certify_and_separator_trusted_equals_validating(m, q):
    rng = np.random.default_rng(100 * m + q)
    f, g, slater = refutable(rng, m, q)
    a, b, steps = same_runs(lambda: slemma.certify(f, g, slater, budget=BUDGET))
    assert steps > 0
    assert a.best_value == b.best_value
    assert a.certificate is None and b.certificate is None  # refutable: no map exists

    a, b, steps = same_runs(lambda: slemma.find_separator(f, g, slater, budget=BUDGET))
    assert steps > 0
    assert (a.b_margin, a.a_value, a.evals) == (b.b_margin, b.a_value, b.evals)
    same_array(a.M, b.M)


@pytest.mark.parametrize("m,q", SIZES)
def test_homogenize_trusted_equals_validating(m, q):
    rng = np.random.default_rng(200 * m + q)
    quad = random_psd_poly(rng, m, q)
    linear = np.stack([random_sym(rng, q) for _ in range(m)]) * 3.0
    R = random_sym(rng, q)
    constant = R @ R  # PSD, like quad: an indefinite principal block skips the search
    a, b, steps = same_runs(lambda: slemma.homogenize(quad, linear, constant, budget=BUDGET))
    assert steps > 0 or q == 1  # q = 1 leaves no skew freedom, hence no search
    assert (a.feasible, a.lambda_min) == (b.feasible, b.lambda_min)
    same_array(a.h_blocks, b.h_blocks)
    same_array(a.coefficient, b.coefficient)


@pytest.mark.parametrize("m,q", SIZES)
def test_scalar_separator_trusted_equals_validating(m, q):
    # A negative definite: no multiplier exists, and the multiplier search's
    # last bracket is the separator, so no search runs in either loop.
    d = m * q
    rng = np.random.default_rng(300 * m + q)
    A = random_sym(rng, d)
    A -= (1.0 + np.linalg.norm(A)) * np.eye(d)
    B = random_sym(rng, d) + 2.0 * np.eye(d)
    f, g = ns.new_scalar_quad(A), ns.new_scalar_quad(B)
    slater = np.linalg.eigh(B)[1][:, -1]
    a, b, steps = same_runs(lambda: scalar_slemma(f, g, slater, budget=BUDGET))
    assert steps == 0
    assert a.outcome == b.outcome == "counterexample"
    assert a.diagnostics == b.diagnostics
    same_array(a.x, b.x)


@pytest.mark.parametrize("m,q", SIZES)
def test_the_search_keeps_its_start_schedule(m, q):
    # The search runs on f and g over their 2^e, and reports values times 2^e.  Its first two
    # candidates J are the spectral search's first two points, bit for bit: the center, then
    # a unit supergradient step from it.  The separator candidate tested between them is the
    # center I / mq as the projection rounds it.  A scale-gap pair is dominated only off the
    # trace-one slice, so neither J settles, and no separator exists.
    rng = np.random.default_rng(400 * m + q)
    f, g, x = scale_gap_instance(rng, m, q)
    slater = ns.new_tuple(x.reshape(m, 1, 1))
    f2, g2, e = slemma._scaled(f, g)
    calA = ns.coefficient_matrix(f2)
    oracle = slemma._oracle(calA, g2.blocks, q)
    rows = g2.blocks.reshape(m * m, q * q)
    search, points, values = linalg.spectral_search(q * q, BUDGET, 0.0), [], []
    point = next(search)
    for _ in range(2):  # the spectral search's first two points, read as it reads them
        points.append(point)
        val, v = oracle((0, point))
        G = -linalg._choi_adjoint(np.outer(v, v), rows, m, q)
        values.append(val)
        point = search.send((val, (G + G.T) / 2.0))
    _, searched = recorded(lambda: slemma.certify(f, g, slater, budget=BUDGET), validating=False)
    certify_points = [X for side, X in searched if side == 0]
    assert searched[1][0] == 1
    assert np.array_equal(searched[1][1], linalg._spectraplex_project(np.eye(m * q) / (m * q)))
    for a, b in zip(certify_points[:2], points):
        assert np.array_equal(a, b)
    cert = slemma.certify(f, g, slater, budget=2)  # two steps: the first two J
    assert cert.certificate is None
    assert cert.best_value == np.ldexp(max(values), e)


# --- the simplex shift ---------------------------------------------------------

def numpy_shift(u):
    css = np.cumsum(u)
    idx = np.arange(1, u.size + 1)
    rho = np.nonzero(u + (1.0 - css) / idx > 0)[0][-1]
    return (1.0 - css[rho]) / (rho + 1.0)


def test_simplex_shift_matches_numpy_formula():
    rng = np.random.default_rng(7)
    for k in range(3000):
        n = int(rng.integers(1, 65))
        if k % 3 == 0:  # ties
            raw = rng.integers(-3, 4, n).astype(float)
        else:
            raw = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 4)
        u = np.sort(raw)[::-1]
        assert _simplex_shift(u) == numpy_shift(u)


def test_simplex_shift_falls_back_to_the_top_entry():
    # 1 - u_1 rounds to -u_1, so no index passes the floating-point test.
    u = np.array([1e17, 0.0, -1e17])
    assert not np.any(u + (1.0 - np.cumsum(u)) / np.arange(1, 4) > 0)
    assert _simplex_shift(u) == 1.0 - 1e17


# --- the per-step finite guard -------------------------------------------------

def test_ascent_rejects_nan_value():
    calls = []

    def oracle(x):
        calls.append(1)
        value = 0.0 if len(calls) < 5 else float("nan")
        return value, -x + 1.0

    with pytest.raises(InvalidInput):
        supergradient_ascent(oracle, linalg._ascent(np.zeros(3), 100))
    assert len(calls) == 5


def test_ascent_rejects_infinite_supergradient():
    def oracle(x):
        return 0.0, np.array([np.inf, 0.0])

    with pytest.raises(InvalidInput):
        supergradient_ascent(oracle, linalg._ascent(np.zeros(2), 100))
