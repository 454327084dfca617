import numpy as np
import pytest

import ncslemma as ns
from ncslemma.errors import (
    InvalidInput,
    NotGloballyPSD,
    PreconditionViolated,
    SlaterViolated,
)
from ncslemma.poly import blocks_from_matrix
from ncslemma.slemma import _map_coefficients

from helpers import random_poly, random_psd_poly, random_sym, random_sym_tuple
from test_poly import example_62_f, example_62_g


def proof_block_matrix(p):
    """Independent oracle: assemble sum_ij X0_i X0_j (x) A_ij by literal kron loops."""
    m, q = p.m, p.q
    X = ns.witness_tuple(m).mats
    out = np.zeros(((m + 1) * q, (m + 1) * q))
    for i in range(m):
        for j in range(m):
            out += np.kron(X[i] @ X[j], p.blocks[i, j])
    return out


def test_witness_tuple_products():
    X = ns.witness_tuple(3).mats
    for i in range(3):
        for j in range(3):
            expected = np.zeros((4, 4))
            if i == j:
                expected[0, 0] = 1.0
            expected[i + 1, j + 1] += 1.0
            assert np.array_equal(X[i] @ X[j], expected)


def test_globally_psd_sum_of_squares():
    p = ns.scalar_to_nc(ns.new_scalar_quad(np.eye(2)))  # x1x1 + x2x2
    report = ns.is_globally_psd(p)
    assert report.verdict == "psd"
    assert report.witness_point is None


def test_globally_psd_swap_witness():
    p = ns.scalar_to_nc(ns.new_scalar_quad([[0.0, 1.0], [1.0, 0.0]]))  # x1x2 + x2x1
    report = ns.is_globally_psd(p)
    assert report.verdict == "not-psd"
    # the proof's block matrix is diag(sum A_ii, calA) = diag(0, swap)
    blockmat = proof_block_matrix(p)
    expected = np.zeros((3, 3))
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.array_equal(blockmat, expected)
    assert float(np.linalg.eigvalsh(blockmat)[0]) == pytest.approx(-1.0)
    # stored witness actually exhibits negativity
    w, X0 = report.witness_vector, report.witness_point
    val = float(w @ ns.evaluate(p, X0) @ w)
    assert val == pytest.approx(report.witness_value)
    assert val == pytest.approx(-1.0, abs=1e-10)


def test_globally_psd_zero_difference():
    # the worked pair: f - phi2 g is the zero polynomial, trivially PSD
    from test_cpmaps import phi2

    f, g = example_62_f(), example_62_g()
    mapped = blocks_from_matrix(_map_coefficients(phi2().J, g.blocks, 2), 2, 2)
    diff = ns.new_quad_poly(f.blocks - mapped)
    assert np.abs(diff.blocks).max() == 0.0
    assert ns.is_globally_psd(diff).verdict == "psd"


def test_globally_psd_matches_proof_matrix():
    rng = np.random.default_rng(0)
    for _ in range(60):
        m = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        p = random_poly(rng, m, q) if rng.random() < 0.5 else random_psd_poly(rng, m, q)
        report = ns.is_globally_psd(p)
        blockmat = proof_block_matrix(p)
        scale = 1.0 + np.linalg.norm(blockmat)
        oracle_psd = float(np.linalg.eigvalsh(blockmat)[0]) >= -1e-8 * scale
        assert (report.verdict == "psd") == oracle_psd
        if report.verdict == "psd":
            for _ in range(20):
                X = random_sym_tuple(rng, m, int(rng.integers(1, 5)))
                assert ns.is_psd(ns.evaluate(p, X), 1e-8)
        elif report.witness_point is not None:
            # the re-indexed bottom eigenvector reproduces lambda_min exactly
            lam_min = float(np.linalg.eigvalsh(ns.coefficient_matrix(p))[0])
            assert report.witness_value == pytest.approx(lam_min, abs=1e-9 * scale)


def test_sos_factor_single_square():
    p = ns.new_quad_poly(np.ones((1, 1, 1, 1)))
    sf = ns.sos_factor(p)
    assert sf.rank == 1
    assert sf.factors.shape == (1, 1, 1)
    assert abs(abs(sf.factors[0, 0, 0]) - 1.0) <= 1e-12


def test_sos_factor_identity_coefficients():
    from ncslemma.poly import blocks_from_matrix

    p = ns.new_quad_poly(blocks_from_matrix(np.eye(6), 3, 2))
    sf = ns.sos_factor(p)
    assert sf.rank == 6
    rng = np.random.default_rng(1)
    X = random_sym_tuple(rng, 3, 2)
    val = ns.evaluate(p, X)
    assert np.linalg.norm(ns.evaluate_factor(sf, X) - val) <= 1e-10 * (1 + np.linalg.norm(val))


def test_sos_factor_planted():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        p = random_psd_poly(rng, m, q)
        sf = ns.sos_factor(p)
        assert sf.rank <= m * q
        for _ in range(20):
            X = random_sym_tuple(rng, m, int(rng.integers(1, 4)))
            val = ns.evaluate(p, X)
            err = np.linalg.norm(val - ns.evaluate_factor(sf, X))
            assert err <= 1e-8 * (1 + np.linalg.norm(val))


def test_sos_factor_rejects_indefinite():
    p = ns.scalar_to_nc(ns.new_scalar_quad([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NotGloballyPSD):
        ns.sos_factor(p)


def test_scalar_slemma_certificate():
    f = ns.new_scalar_quad(np.eye(2))
    g = ns.new_scalar_quad(np.diag([1.0, -1.0]))
    res = ns.scalar_slemma(f, g, [1.0, 0.0])
    assert res.outcome == "certificate"
    assert 0.0 <= res.lam <= 1.0
    lam = res.lam
    assert float(np.linalg.eigvalsh(f.A - lam * g.A)[0]) >= -1e-8


def test_scalar_slemma_counterexample():
    f = ns.new_scalar_quad([[0.0, 1.0], [1.0, 0.0]])
    g = ns.new_scalar_quad(np.diag([1.0, 0.0]))
    res = ns.scalar_slemma(f, g, [1.0, 0.0])
    assert res.outcome == "counterexample"
    x = res.x
    assert x @ f.A @ x <= -1e-6
    assert x @ g.A @ x >= -1e-8


def test_scalar_slemma_self():
    rng = np.random.default_rng(3)
    A = random_sym(rng, 3)
    A = A - (np.linalg.eigvalsh(A)[0] - 0.1) * np.eye(3) * 0  # keep indefinite allowed
    f = ns.new_scalar_quad(A)
    w, V = np.linalg.eigh(A)
    if w[-1] <= 1e-3:  # ensure Slater exists
        A = A + (1.0 - w[-1]) * np.eye(3)
        f = ns.new_scalar_quad(A)
        w, V = np.linalg.eigh(A)
    res = ns.scalar_slemma(f, f, V[:, -1])
    assert res.outcome == "certificate"
    assert res.lam == pytest.approx(1.0, abs=1e-5)


def test_scalar_slemma_slater_violation():
    f = ns.new_scalar_quad(np.eye(2))
    g = ns.new_scalar_quad(np.diag([1.0, -1.0]))
    with pytest.raises(SlaterViolated):
        ns.scalar_slemma(f, g, [0.0, 1.0])


def test_scalar_slemma_requires_homogeneous():
    f = ns.new_scalar_quad(np.eye(2), a=[1.0, 0.0])
    g = ns.new_scalar_quad(np.eye(2))
    with pytest.raises(InvalidInput):
        ns.scalar_slemma(f, g, [1.0, 0.0])


def test_rank_one_split_rank_one():
    A = np.diag([-1.0, 1.0])
    B = np.diag([1.0, 1.0])
    x = np.array([1.0, 0.0])
    out = ns.rank_one_split(np.outer(x, x), A, B)
    assert np.allclose(np.abs(out), x)


def test_rank_one_split_balanced():
    # <S, A> = 0 here, yet a rotation still produces a strictly negative direction
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    B = np.diag([1.0, 0.0])
    S = np.eye(2) / 2
    x = ns.rank_one_split(S, A, B)
    assert x @ A @ x < 0
    assert x @ B @ x >= -1e-8
    # brute force over the circle confirms such directions exist
    thetas = np.linspace(0, 2 * np.pi, 721)
    ok = [(np.cos(t), np.sin(t)) for t in thetas
          if np.array([np.cos(t), np.sin(t)]) @ A @ np.array([np.cos(t), np.sin(t)]) < 0]
    assert ok


def test_rank_one_split_planted():
    rng = np.random.default_rng(4)
    done = 0
    while done < 20:
        m = int(rng.integers(2, 5))
        x = rng.standard_normal(m)
        x /= np.linalg.norm(x)
        B = random_sym(rng, m)
        if x @ B @ x < 0.1:
            B = B + (0.2 - x @ B @ x) * np.outer(x, x)
        A = random_sym(rng, m)
        A = A - (x @ A @ x + 0.5) * np.outer(x, x)
        noise = rng.standard_normal((m, m)) * 0.02
        S = np.outer(x, x) + noise @ noise.T
        S /= np.trace(S)
        if float(np.sum(S * A)) > -1e-6 or float(np.sum(S * B)) < 0.0:
            continue
        out = ns.rank_one_split(S, A, B, tol_strict=1e-6)
        assert out @ A @ out < 0
        assert out @ B @ out >= -1e-8
        done += 1
    # separators of every rank, with <S, A> < 0 <= <S, B>
    for m in range(1, 7):
        for r in range(1, m + 1):
            for _ in range(5):
                G = rng.standard_normal((m, r))
                S = G @ G.T / np.sum(G * G)  # trace one, so <S, I> = 1
                A = random_sym(rng, m)
                A -= (float(np.sum(S * A)) + rng.uniform(1e-3, 1.0)) * np.eye(m)
                B = random_sym(rng, m)
                B -= (float(np.sum(S * B)) - rng.uniform(0.0, 1.0)) * np.eye(m)
                assert np.linalg.matrix_rank(S) == r
                out = ns.rank_one_split(S, A, B, tol_strict=1e-6)
                assert out @ A @ out < 0
                assert out @ B @ out >= -1e-8


def test_rank_one_split_preconditions():
    A = np.eye(2)
    B = np.eye(2)
    with pytest.raises(PreconditionViolated):
        ns.rank_one_split(np.eye(2) / 2, A, B, tol_strict=1e-6)  # <S, A> > 0
    with pytest.raises(PreconditionViolated):
        ns.rank_one_split(np.diag([1.0, -1.0]), -A, B)  # S not PSD


def test_lambda_min_concavity_midpoint():
    rng = np.random.default_rng(5)
    A = random_sym(rng, 4)
    B = random_sym(rng, 4)

    def h(lam):
        return float(np.linalg.eigvalsh(A - lam * B)[0])

    for _ in range(50):
        l1, l2 = rng.uniform(0, 10, size=2)
        assert h((l1 + l2) / 2) >= (h(l1) + h(l2)) / 2 - 1e-10
