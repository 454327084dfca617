"""The matrix-product kernels of the search loop and of evaluation, against
the 4-index einsum formulas they replace, plus the cheaper validation
primitives against the checks they must keep."""

import numpy as np
import pytest

import ncslemma as ns
from ncslemma.errors import InvalidInput
from ncslemma.linalg import (
    fro,
    min_eigpair,
    simplex_project,
    spectraplex_project,
    symmetrize,
)
from ncslemma.slemma import (
    _b_term,
    _certify_gradient,
    _certify_oracle,
    _map_coefficients,
    _separator_gradient,
    _separator_oracle,
)

from helpers import random_gen_tuple, random_poly, random_psd_poly, random_sym, random_sym_tuple

SIZES = [(1, 1), (3, 1), (2, 3), (6, 8)]


def close(got, ref):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.linalg.norm(ref))


# --- einsum references -------------------------------------------------------

def ref_map_coefficients(J, blocks, q):
    m = blocks.shape[0]
    out = np.einsum("acbd,ijcd->iajb", J.reshape(q, q, q, q), blocks)
    return out.reshape(m * q, m * q)


def ref_b_term(M, blocks, q):
    m = blocks.shape[0]
    M4 = M.reshape(m, q, m, q).transpose(0, 2, 1, 3)
    return np.einsum("ijab,ijcd->acbd", blocks, M4).reshape(q * q, q * q)


def ref_certify_gradient(v, blocks, q):
    m = blocks.shape[0]
    W = np.outer(v, v).reshape(m, q, m, q).transpose(0, 2, 1, 3)
    return -np.einsum("ijab,ijcd->acbd", W, blocks).reshape(q * q, q * q)


def ref_separator_gradient(u, blocks, q):
    m = blocks.shape[0]
    W = np.outer(u, u).reshape(q, q, q, q)
    return np.einsum("ijab,acbd->icjd", blocks, W).reshape(m * q, m * q)


def ref_evaluate(p, mats, hereditary):
    spec = "iab,jcb->ijac" if hereditary else "iab,jbc->ijac"
    prods = np.einsum(spec, mats, mats)
    n = mats.shape[1]
    out = np.einsum("ijpq,ijxy->pxqy", p.blocks, prods).reshape(p.q * n, p.q * n)
    return (out + out.T) / 2.0


def ref_compress(val, q, Q):
    comp = np.kron(np.eye(q), Q.T) @ val @ np.kron(np.eye(q), Q)
    return (comp + comp.T) / 2.0


def unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


# --- slemma kernels ----------------------------------------------------------

@pytest.mark.parametrize("m,q", SIZES)
def test_map_coefficients_matches_einsum(m, q):
    rng = np.random.default_rng(10 * m + q)
    g = random_poly(rng, m, q)
    J = random_sym(rng, q * q)
    close(_map_coefficients(J, g.blocks, q), ref_map_coefficients(J, g.blocks, q))


@pytest.mark.parametrize("m,q", SIZES)
def test_b_term_matches_einsum(m, q):
    rng = np.random.default_rng(20 * m + q)
    g = random_poly(rng, m, q)
    M = random_sym(rng, m * q)
    close(_b_term(M, g.blocks, q), ref_b_term(M, g.blocks, q))


@pytest.mark.parametrize("m,q", SIZES)
def test_gradients_match_einsum(m, q):
    rng = np.random.default_rng(30 * m + q)
    g = random_poly(rng, m, q)
    rows = g.blocks.reshape(m * m, q * q)
    v, u = unit(rng, m * q), unit(rng, q * q)
    close(_certify_gradient(v, rows, m, q), ref_certify_gradient(v, g.blocks, q))
    close(_separator_gradient(u, rows, m, q), ref_separator_gradient(u, g.blocks, q))


@pytest.mark.parametrize("m,q", SIZES)
def test_certify_oracle_matches_einsum(m, q):
    rng = np.random.default_rng(40 * m + q)
    f, g = random_poly(rng, m, q), random_poly(rng, m, q)
    calA = ns.coefficient_matrix(f)
    J = spectraplex_project(random_sym(rng, q * q))
    val, G = _certify_oracle(calA, g.blocks, q)(J)

    w, V = np.linalg.eigh(calA - ref_map_coefficients(J, g.blocks, q))
    G_ref = ref_certify_gradient(V[:, 0], g.blocks, q)
    assert val == pytest.approx(w[0], abs=1e-12 * (1.0 + np.linalg.norm(calA)))
    close(G, (G_ref + G_ref.T) / 2.0)


@pytest.mark.parametrize("m,q", SIZES)
@pytest.mark.parametrize("branch", ["b-term", "a-term"])
def test_separator_oracle_matches_einsum(m, q, branch):
    # With sign = +1 (-1), g's coefficient matrix is PSD (NSD), so is the
    # B-term at a PSD M, and <A, M> > 0 (< 0): the A-term (B-term) is smaller.
    sign = 1.0 if branch == "a-term" else -1.0
    rng = np.random.default_rng(50 * m + q)
    f = random_poly(rng, m, q)
    g = ns.new_quad_poly(sign * random_psd_poly(rng, m, q).blocks)
    calA = sign * np.eye(m * q) + 0.01 * ns.coefficient_matrix(f)
    c = 1.0 + np.linalg.norm(calA)
    M = spectraplex_project(random_sym(rng, m * q))
    val, G, bound = _separator_oracle(calA, g.blocks, q, c)(M)

    w, V = np.linalg.eigh(ref_b_term(M, g.blocks, q))
    t2 = -float(np.sum(calA * M)) / c
    assert bound == pytest.approx(float(np.sum(calA * M)) - w[0],
                                  abs=1e-12 * (1.0 + np.linalg.norm(calA) + abs(w[0])))
    assert (w[0] <= t2) == (branch == "b-term")
    if branch == "b-term":
        G_ref = ref_separator_gradient(V[:, 0], g.blocks, q)
        val_ref, G_ref = w[0], (G_ref + G_ref.T) / 2.0
    else:
        val_ref, G_ref = t2, -calA / c
    assert val == pytest.approx(val_ref, abs=1e-12 * (1.0 + abs(val_ref)))
    close(G, G_ref)


# --- poly kernels ------------------------------------------------------------

@pytest.mark.parametrize("m,q", SIZES)
def test_evaluations_match_einsum(m, q):
    rng = np.random.default_rng(60 * m + q)
    p = random_poly(rng, m, q)
    n = 4
    X = random_sym_tuple(rng, m, n)
    Y = random_gen_tuple(rng, m, n)
    close(ns.evaluate(p, X), ref_evaluate(p, X.mats, hereditary=False))
    close(ns.evaluate_hereditary(p, X), ref_evaluate(p, X.mats, hereditary=True))
    close(ns.evaluate_hereditary(p, Y), ref_evaluate(p, Y.mats, hereditary=True))

    Q = rng.standard_normal((n, 3))  # rectangular
    close(ns.evaluate_compressed(p, X, Q), ref_compress(ref_evaluate(p, X.mats, False), q, Q))
    close(ns.evaluate_compressed(p, Y, Q), ref_compress(ref_evaluate(p, Y.mats, True), q, Q))


# --- linalg primitives -------------------------------------------------------

def test_spectraplex_project_is_simplex_project_of_eigenvalues():
    rng = np.random.default_rng(70)
    for d in (1, 2, 5, 16):
        for _ in range(10):
            S = random_sym(rng, d) * 3.0
            w, V = np.linalg.eigh(S)
            P = spectraplex_project(S)
            close(P, (V * simplex_project(w)) @ V.T)
            assert np.allclose(np.linalg.eigvalsh(P), np.sort(simplex_project(w)), atol=1e-12)


def test_fro_is_numpy_norm():
    rng = np.random.default_rng(71)
    for shape in [(1,), (3, 4), (2, 2, 3, 3)]:
        a = rng.standard_normal(shape)
        assert fro(a) == np.linalg.norm(a)
    a = rng.standard_normal((5, 7))
    assert fro(a.T) == np.linalg.norm(a.T)
    assert fro([[3, 4]]) == 5.0


BAD_INPUTS = {
    "non-finite": np.array([[1.0, np.nan], [np.nan, 1.0]]),
    "infinite": np.array([[np.inf, 0.0], [0.0, 1.0]]),
    "non-square": np.zeros((2, 3)),
    "not-a-matrix": np.zeros(3),
    "asymmetric": np.array([[1.0, 1.0], [1.0 + 1e-10, 1.0]]),
}


@pytest.mark.parametrize("fn", [symmetrize, min_eigpair, spectraplex_project])
@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
def test_validation_still_raises(fn, bad):
    with pytest.raises(InvalidInput):
        fn(BAD_INPUTS[bad])


def test_asymmetry_threshold_is_relative():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    scale = 1.0 + np.linalg.norm(a)
    a[0, 1] = 0.9e-12 * scale
    symmetrize(a)
    a[0, 1] = 1.1e-12 * scale
    with pytest.raises(InvalidInput):
        symmetrize(a)
