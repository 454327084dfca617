"""Counterexamples are evaluated and re-verified on the support of their point.

The references below are the evaluate-then-compress code the library ran
before: they form the whole qn x qn evaluation and test it in full.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ncslemma as ns
from ncslemma import slemma
from ncslemma.errors import ShapeMismatch
from ncslemma.slemma import HereditaryCounterexample, _b_term

from helpers import poly_from_matrix, random_poly, random_sym


def reference_compressed(p, X, Q):
    """(Id_q (x) Q^T) f(X) (Id_q (x) Q), from the full evaluation."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != X.n:
        raise ShapeMismatch(f"Q must have {X.n} rows, got shape {Q.shape}")
    val = ns.evaluate(p, X) if X.kind == "symmetric" else ns.evaluate_hereditary(p, X)
    q, n, l = p.q, X.n, Q.shape[1]
    comp = np.matmul(Q.T, val.reshape(q, n, q * n))
    comp = (comp.reshape(q * l * q, n) @ Q).reshape(q * l, q * l)
    comp *= 0.5
    return comp + comp.T


def reference_sides(ce, f, g):
    """The g side and the violation, each on the whole evaluation."""
    if isinstance(ce, HereditaryCounterexample):
        g_side = ns.evaluate_hereditary(g, ce.X)
        f_side = ns.evaluate_hereditary(f, ce.X)
    else:
        r = ce.X.n - f.q
        if r < 0:
            raise ShapeMismatch("evaluation point below q")
        g_side = reference_compressed(g, ce.X, ce.P)
        f_side = reference_compressed(f, ce.X, ce.P[:, r:])
    return g_side, float(ce.E @ f_side @ ce.E)


def reference_verify(ce, f, g, tol=ns.DEFAULT_TOL, tol_strict=ns.DEFAULT_TOL_STRICT):
    try:
        f2, g2 = slemma.reconcile(f, g)
        if ce.X is None or ce.X.m != f2.m:
            return False
        g_side, violation = reference_sides(ce, f2, g2)
        return bool(ns.is_psd(g_side, tol) and violation <= -tol_strict)
    except (ShapeMismatch, ValueError, TypeError):
        return False


# --- evaluate_compressed against evaluate-then-compress ----------------------

@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    m=st.integers(1, 3), q=st.integers(1, 3), n=st.integers(1, 5), l=st.integers(1, 6),
    kind=st.sampled_from(["symmetric", "general"]), square=st.booleans(),
    zeros=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_compressed_matches_evaluate_then_compress(m, q, n, l, kind, square, zeros,
                                                            seed):
    rng = np.random.default_rng(seed)
    p = random_poly(rng, m, q)
    raw = rng.standard_normal((m, n, n))
    X = ns.new_tuple((raw + raw.transpose(0, 2, 1)) / 2.0 if kind == "symmetric" else raw,
                     kind=kind)
    Q = rng.standard_normal((n, n if square else l))
    Q[:, : min(zeros, Q.shape[1])] = 0.0  # zero columns, as a projection has
    got = ns.evaluate_compressed(p, X, Q)
    want = reference_compressed(p, X, Q)
    assert got.shape == want.shape == (q * Q.shape[1],) * 2
    assert np.array_equal(got, got.T)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 * (1.0 + np.abs(want).max()))


@pytest.mark.parametrize("kind", ["symmetric", "general"])
def test_identity_compression_keeps_the_evaluation_bits(kind):
    # Q^T X_i is X_i exactly when Q = I, so the Gram form sees the same input
    rng = np.random.default_rng(11)
    p = random_poly(rng, 3, 2)
    raw = rng.standard_normal((3, 4, 4))
    X = ns.new_tuple((raw + raw.transpose(0, 2, 1)) / 2.0 if kind == "symmetric" else raw,
                     kind=kind)
    assert np.array_equal(ns.evaluate_compressed(p, X, np.eye(4)), ns.evaluate_hereditary(p, X))


# --- verify_counterexample against the full evaluation -----------------------

def planted_refutation(rng, m, q):
    """(f, g, M): a full-rank trace-one separator M for a random g.

    The diagonal blocks of g after the first (the only one when m = 1) are
    shifted until sum B_ij (x) M_ij is positive definite, and f is tilted so
    that <A, M> = -0.5 (1 + ||A0||_F).  B_00 stays random when m > 1.
    """
    d = m * q
    W = rng.standard_normal((d, d))
    M = W @ W.T
    M /= np.trace(M)
    blocks = random_poly(rng, m, q).blocks.copy()
    while np.linalg.eigvalsh(_b_term(M, blocks, q))[0] < 0.1:
        for i in range(1 if m > 1 else 0, m):
            blocks[i, i] += np.eye(q)
    A0 = random_sym(rng, d)
    delta = 0.5 * (1.0 + np.linalg.norm(A0))
    calA = A0 - ((np.sum(A0 * M) + delta) / np.sum(M * M)) * M
    return poly_from_matrix(calA, m, q), ns.new_quad_poly(blocks), M


BUILDERS = {"projected": ns.build_counterexample,
            "hereditary": ns.build_counterexample_hereditary}


def built(kind, m, q, seed=0):
    f, g, M = planted_refutation(np.random.default_rng(seed), m, q)
    return BUILDERS[kind](f, g, M), f, g


def same_verdict(ce, f, g):
    got = ns.verify_counterexample(ce, f, g)
    assert type(got) is bool
    assert got == reference_verify(ce, f, g)
    return got


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@pytest.mark.parametrize("m,q", [(1, 1), (2, 3), (6, 8)])
def test_builder_outputs_verify_as_on_the_full_evaluation(kind, m, q):
    ce, f, g = built(kind, m, q)
    assert ce.rank == m * q
    assert same_verdict(ce, f, g)
    g_side, violation = slemma._sides(ce, f, g)
    want_g, want_violation = reference_sides(ce, f, g)
    assert violation == pytest.approx(want_violation, rel=1e-14)
    assert violation == ce.violation
    # the full evaluation is the support's padded with zero rows and columns: the
    # same norm, and the same lambda_min, or 0 when some rows were dropped
    low = np.linalg.eigvalsh(g_side)[0]
    if g_side.shape != want_g.shape:
        low = min(low, 0.0)
    assert low == pytest.approx(np.linalg.eigvalsh(want_g)[0], abs=1e-12)
    assert np.linalg.norm(g_side) == pytest.approx(np.linalg.norm(want_g), rel=1e-14)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_degenerate_and_tampered_points_verify_as_on_the_full_evaluation(kind):
    ce, f, g = built(kind, 2, 3)
    X, n = ce.X, ce.X.n
    zero_X = dataclasses.replace(ce, X=ns.new_tuple(np.zeros_like(X.mats), kind=X.kind))
    assert same_verdict(zero_X, f, g) is False  # every coordinate kept, as in full

    mats = X.mats.copy()
    row = 0 if kind == "hereditary" else ce.rank  # a row in the support
    mats[0, row] *= -30.0
    if kind == "projected":
        mats[0, :, row] = mats[0, row]
    tampered = dataclasses.replace(ce, X=ns.new_tuple(mats, kind=X.kind))
    assert np.linalg.eigvalsh(reference_sides(tampered, f, g)[0])[0] < -1e-3
    assert same_verdict(tampered, f, g) is False

    for E in (ce.E[:-1], np.append(ce.E, 0.0), ce.E.reshape(1, -1), ce.E.reshape(-1, 1),
              np.outer(ce.E, ce.E)):
        assert same_verdict(dataclasses.replace(ce, E=E), f, g) is False

    if kind == "projected":
        assert same_verdict(dataclasses.replace(ce, P=np.zeros((n, n))), f, g) is False
        # the whole-tuple compression is not PSD here, so identity P does not verify
        assert same_verdict(dataclasses.replace(ce, P=np.eye(n)), f, g) is False
        for P in (np.zeros(n), np.eye(n)[:-1], None):
            assert same_verdict(dataclasses.replace(ce, P=P), f, g) is False


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_witness_is_rejected(kind, bad):
    # dropping E's entries off the support is exact only for a finite E; the full
    # evaluation turned an infinite E into a violation of -inf and accepted it
    ce, f, g = built(kind, 2, 3)
    for at in (0, -1):  # for the hereditary kind: on the support, and off it
        E = ce.E.copy()
        E[at] = bad
        assert ns.verify_counterexample(dataclasses.replace(ce, E=E), f, g) is False


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_a_zero_point_keeps_every_coordinate(kind):
    # with tol_strict = 0 the zero compression verifies, as the whole one does:
    # its g side 0 is PSD and its violation is 0
    ce, f, g = built(kind, 2, 3)
    n = ce.X.n
    if kind == "projected":
        zero = dataclasses.replace(ce, P=np.zeros((n, n)))
    else:
        zero = dataclasses.replace(ce, X=ns.new_tuple(np.zeros_like(ce.X.mats), kind="general"))
    assert ns.verify_counterexample(zero, f, g, tol_strict=0.0) is True
    assert reference_verify(zero, f, g, tol_strict=0.0) is True


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_builder_tests_the_g_side_on_the_support(monkeypatch, kind):
    # at (6, 8) the separator has rank 48: the full evaluation would be 448 x 448
    # (projected) or 384 x 384 (hereditary), its support is q * q = 64 square
    f, g, M = planted_refutation(np.random.default_rng(0), 6, 8)
    shapes, factored = [], []
    is_psd, psd_factor = slemma.is_psd, slemma.psd_factor
    monkeypatch.setattr(slemma, "is_psd", lambda S, *a: shapes.append(np.shape(S)) or is_psd(S, *a))
    monkeypatch.setattr(slemma, "psd_factor",
                        lambda S, *a: factored.append(np.shape(S)) or psd_factor(S, *a))
    ce = BUILDERS[kind](f, g, M)
    assert ce.rank == 48
    assert shapes == [(64, 64), (64, 64)]  # sum B_ij (x) M_ij, the g side
    assert factored == [(48, 48)]  # M is tested by the factoring, its one eigensolve
    assert ns.verify_counterexample(ce, f, g)
    assert shapes[2:] == [(64, 64)]
