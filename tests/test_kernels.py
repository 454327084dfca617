"""The matrix-product kernels of the search loop and of evaluation, against
the 4-index einsum formulas (for homogenize, the per-variable loops) they
replace, plus the cheaper validation primitives against the checks they
must keep."""

import numpy as np
import pytest

import ncslemma as ns
from ncslemma import slemma
from ncslemma.errors import InvalidInput
from ncslemma.linalg import (
    _choi_adjoint,
    fro,
    min_eigpair,
    simplex_project,
    spectraplex_project,
    symmetrize,
)
from ncslemma.slemma import _b_term, _map_coefficients, _oracle

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


def ref_homogenize_oracle(x, quad, lin, A0):
    """homogenize's oracle as per-variable loops: value and supergradient at x."""
    m, q = quad.m, quad.q
    iu = np.triu_indices(q, 1)
    n_skew = len(iu[0])
    C = np.zeros(((m + 1) * q, (m + 1) * q))
    C[:q, :q] = A0
    for i in range(m):
        K = np.zeros((q, q))
        K[iu] = x[i * n_skew : (i + 1) * n_skew]
        H = lin[i] / 2.0 + (K - K.T)
        C[(i + 1) * q : (i + 2) * q, :q] = H
        C[:q, (i + 1) * q : (i + 2) * q] = H.T
    C[q:, q:] = ns.coefficient_matrix(quad)
    val, v = min_eigpair(C)
    W = np.outer(v, v)
    G = np.zeros_like(x)
    for i in range(m):
        Wi0 = W[(i + 1) * q : (i + 2) * q, :q]
        G[i * n_skew : (i + 1) * n_skew] = 2.0 * (Wi0 - Wi0.T)[iu]
    return val, G


def ref_evaluate(p, mats, hereditary):
    spec = "iab,jcb->ijac" if hereditary else "iab,jbc->ijac"
    prods = np.einsum(spec, mats, mats)
    n = mats.shape[1]
    out = np.einsum("ijpq,ijxy->pxqy", p.blocks, prods).reshape(p.q * n, p.q * n)
    return (out + out.T) / 2.0


def ref_compress(val, q, Q):
    comp = np.kron(np.eye(q), Q.T) @ val @ np.kron(np.eye(q), Q)
    return (comp + comp.T) / 2.0


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
def test_certify_oracle_matches_einsum(m, q):
    rng = np.random.default_rng(40 * m + q)
    f, g = random_poly(rng, m, q), random_poly(rng, m, q)
    calA = ns.coefficient_matrix(f)
    J = spectraplex_project(random_sym(rng, q * q))
    val, v = _oracle(calA, g.blocks, q)((0, J))

    w, V = np.linalg.eigh(calA - ref_map_coefficients(J, g.blocks, q))
    assert val == pytest.approx(w[0], abs=1e-12 * (1.0 + np.linalg.norm(calA)))
    # the supergradient the search forms from v: minus the adjoint map at v v^T
    G = -_choi_adjoint(np.outer(v, v), g.blocks.reshape(m * m, q * q), m, q)
    close(G, ref_certify_gradient(v, g.blocks, q))
    assert abs(abs(v @ V[:, 0]) - 1.0) <= 1e-8  # the bottom eigenvalue is simple here


@pytest.mark.parametrize("m,q", SIZES)
def test_choi_adjoint_is_the_adjoint_of_the_map(m, q):
    rng = np.random.default_rng(45 * m + q)
    g = random_poly(rng, m, q)
    J, R = random_sym(rng, q * q), random_sym(rng, m * q)
    lhs = float(np.sum(_map_coefficients(J, g.blocks, q) * R))
    rhs = float(np.sum(J * _choi_adjoint(R, g.blocks.reshape(m * m, q * q), m, q)))
    assert lhs == pytest.approx(rhs, abs=1e-12 * (1.0 + abs(lhs)) * (q * q + m * q))


@pytest.mark.parametrize("m,q", SIZES)
def test_separator_oracle_matches_einsum(m, q):
    # side 1: lambda_min of T = sum B_ij (x) M_ij and <A, M>, at a full-rank trace-one M
    rng = np.random.default_rng(50 * m + q)
    f, g = random_poly(rng, m, q), random_poly(rng, m, q)
    calA = ns.coefficient_matrix(f)
    M = 0.5 * spectraplex_project(random_sym(rng, m * q)) + 0.5 * np.eye(m * q) / (m * q)
    t, a = _oracle(calA, g.blocks, q)((1, M))
    t_ref = np.linalg.eigvalsh(ref_b_term(M, g.blocks, q))[0]
    assert t == pytest.approx(t_ref, abs=1e-12 * (1.0 + np.linalg.norm(g.blocks)))
    assert a == pytest.approx(float(np.sum(calA * M)), abs=1e-12 * (1.0 + np.linalg.norm(calA)))


@pytest.mark.parametrize("m,q", SIZES)
def test_homogenize_oracle_matches_loops(monkeypatch, m, q):
    # the array expressions do the loops' arithmetic, so the results are equal
    rng = np.random.default_rng(55 * m + q)
    quad = random_psd_poly(rng, m, q)  # PSD principal blocks, so the search runs
    lin = np.stack([random_sym(rng, q) for _ in range(m)])
    R = random_sym(rng, q)
    A0 = R @ R
    oracles = []
    ascent = slemma.supergradient_ascent
    monkeypatch.setattr(slemma, "supergradient_ascent",
                        lambda oracle, search: oracles.append(oracle) or ascent(oracle, search))
    ns.homogenize(quad, lin, A0, budget=1)
    x = rng.standard_normal(m * (q * (q - 1) // 2))
    val, G = oracles[0](x)
    ref_val, ref_G = ref_homogenize_oracle(x, quad, lin, A0)
    assert val == ref_val
    assert np.array_equal(G, ref_G)


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
