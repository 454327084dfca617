import numpy as np
import pytest

import ncslemma as ns
from ncslemma.errors import InvalidInput, ShapeMismatch
from ncslemma.poly import blocks_from_matrix
from ncslemma.slemma import _map_coefficients

from helpers import random_poly, random_psd_poly, random_sym, random_sym_tuple, random_gen_tuple
from test_poly import example_62_f, example_62_g


def phi2():
    """The map [[a, b], [c, d]] -> [[d, 0], [0, a]] from the worked example."""
    return ns.new_choi(np.diag([0.0, 1.0, 1.0, 0.0]), 2, 2)


def test_identity_choi_reproduces_input():
    J = ns.identity_choi(3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        M = rng.standard_normal((3, 3))
        assert np.allclose(ns.apply_map(J, M), M, atol=1e-14)


def test_phi2_action_and_cp():
    J = phi2()
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(ns.apply_map(J, M), np.array([[4.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(ns.apply_map(J, np.diag([1.0, 0.0])), np.diag([0.0, 1.0]))
    assert np.allclose(ns.apply_map(J, np.diag([0.0, 1.0])), np.diag([1.0, 0.0]))
    assert ns.is_psd(J.J)
    assert np.array_equal(J.J, np.diag([0.0, 1.0, 1.0, 0.0]))


def test_zero_map():
    J = ns.new_choi(np.zeros((4, 4)), 2, 2)
    assert np.array_equal(ns.apply_map(J, np.ones((2, 2))), np.zeros((2, 2)))


def test_transpose_map_not_cp():
    J = ns.new_choi(ns.shuffle(2, 2).u, 2, 2)
    # the Choi matrix is the swap operator, eigenvalue -1
    assert float(np.linalg.eigvalsh(J.J)[0]) == pytest.approx(-1.0)
    assert not ns.is_psd(J.J)
    # yet the map itself is positive: the violation needs the block level
    omega = ns.identity_choi(2).J  # PSD rank-one input
    assert ns.is_psd(omega, 1e-10)
    out = ns.apply_map_blockwise(J, omega)
    assert not ns.is_psd(out, 1e-8)
    assert np.allclose(out, J.J)  # (phi (x) 1) on sum E_ab (x) E_ab gives the Choi matrix


def test_new_choi_rejects_asymmetric():
    J = np.zeros((4, 4))
    J[0, 1] = 1.0
    with pytest.raises(InvalidInput):
        ns.new_choi(J, 2, 2)
    with pytest.raises(ShapeMismatch):
        ns.new_choi(np.zeros((3, 3)), 2, 2)


def test_cp_maps_preserve_psd():
    rng = np.random.default_rng(2)
    for _ in range(20):
        W = rng.standard_normal((4, 6))
        J = ns.new_choi(W @ W.T, 2, 2)
        assert ns.is_psd(J.J)
        V = rng.standard_normal((2, 3))
        M = V @ V.T
        assert ns.is_psd(ns.apply_map(J, M), 1e-9)
        V6 = rng.standard_normal((6, 6))
        big = V6 @ V6.T  # 3x3 grid of 2x2 blocks, (1_3 (x) phi) maps each block
        assert ns.is_psd(_map_coefficients(J.J, blocks_from_matrix(big, 3, 2), 2), 1e-9)
        big4 = rng.standard_normal((4, 4))
        big4 = big4 @ big4.T  # 2x2 grid of 2x2 blocks, (phi (x) 1_2) contracts the grid
        assert ns.is_psd(ns.apply_map_blockwise(J, big4), 1e-9)


def test_non_cp_has_violating_psd_input():
    # whenever J has a clearly negative eigenvalue, the rank-one Gram of the
    # matrix units is a PSD input whose image under (phi (x) 1) is J itself
    rng = np.random.default_rng(3)
    found = 0
    for _ in range(20):
        J = ns.new_choi(random_sym(rng, 4), 2, 2)
        if float(np.linalg.eigvalsh(J.J)[0]) < -1e-6:
            omega = ns.identity_choi(2).J
            out = ns.apply_map_blockwise(J, omega)
            assert not ns.is_psd(out, 1e-8)
            found += 1
    assert found > 0


def test_apply_map_blockwise_identity():
    J = ns.identity_choi(2)
    rng = np.random.default_rng(4)
    M = random_sym(rng, 6)
    assert np.allclose(_map_coefficients(J.J, blocks_from_matrix(M, 3, 2), 2), M, atol=1e-13)
    M4 = random_sym(rng, 4)
    assert np.allclose(ns.apply_map_blockwise(J, M4), M4, atol=1e-13)


def test_apply_map_blockwise_example_62():
    f, g = example_62_f(), example_62_g()
    mapped = _map_coefficients(phi2().J, g.blocks, 2)  # (1 (x) phi2) B = A
    assert np.allclose(mapped, ns.coefficient_matrix(f), atol=1e-13)


def test_apply_map_blockwise_rank_one_preserves_psd():
    rng = np.random.default_rng(5)
    w = rng.standard_normal(4)
    J = ns.new_choi(np.outer(w, w), 2, 2)
    for _ in range(10):
        V = rng.standard_normal((6, 6))
        M = V @ V.T
        assert ns.is_psd(_map_coefficients(J.J, blocks_from_matrix(M, 3, 2), 2), 1e-9)


def test_shuffle_trivial_and_swap():
    assert np.array_equal(ns.shuffle(1, 4).u, np.eye(4))
    assert np.array_equal(ns.shuffle(3, 1).u, np.eye(3))
    u = ns.shuffle(2, 2).u
    expected = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    assert np.array_equal(u, expected)


def test_shuffle_orthogonal():
    for q in range(1, 5):
        for m in range(1, 5):
            u = ns.shuffle(q, m).u
            assert np.array_equal(u.T @ u, np.eye(q * m))
            assert np.all(u.sum(axis=0) == 1) and np.all(u.sum(axis=1) == 1)


def test_rearrange_q1_is_identity():
    rng = np.random.default_rng(7)
    p = random_poly(rng, 3, 1)
    assert np.array_equal(ns.rearrange(p).J, ns.coefficient_matrix(p))


def test_rearrange_preserves_eigenvalues():
    p = example_62_f()
    ev1 = np.sort(np.linalg.eigvalsh(ns.coefficient_matrix(p)))
    ev2 = np.sort(np.linalg.eigvalsh(ns.rearrange(p).J))
    assert np.allclose(ev1, ev2, atol=1e-12)


def test_rearrange_is_shuffle_conjugation():
    rng = np.random.default_rng(8)
    for _ in range(10):
        m, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        p = random_poly(rng, m, q)
        u = ns.shuffle(q, m).u
        calA = ns.coefficient_matrix(p)
        assert np.array_equal(ns.rearrange(p).J, u @ calA @ u.T)


def test_rearrange_psd_equivalence():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        p = random_poly(rng, m, q)
        lhs = ns.is_psd(ns.coefficient_matrix(p), 1e-10)
        rhs = ns.is_psd(ns.rearrange(p).J, 1e-10)
        assert lhs == rhs


def test_gram_basics():
    X = ns.new_tuple([np.eye(3)])
    assert np.array_equal(ns.gram(X), np.eye(3))
    rng = np.random.default_rng(10)
    for _ in range(10):
        X = random_sym_tuple(rng, 3, 3)
        G = ns.gram(X)
        assert float(np.linalg.eigvalsh(G)[0]) >= -1e-9
        for i in range(3):
            for j in range(3):
                assert np.allclose(G[i * 3:(i + 1) * 3, j * 3:(j + 1) * 3],
                                   X.mats[i] @ X.mats[j], atol=1e-12)


def test_gram_identity():
    # evaluation equals the rearranged map applied across the Gram matrix
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        q = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        p = random_poly(rng, m, q)
        X = random_sym_tuple(rng, m, n)
        val = ns.evaluate(p, X)
        via_map = ns.apply_map_blockwise(ns.rearrange(p), ns.gram(X))
        assert np.linalg.norm(val - via_map) <= 1e-9 * (1 + np.linalg.norm(val))


def test_gram_identity_hereditary():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        q = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        p = random_poly(rng, m, q)
        X = random_gen_tuple(rng, m, n)
        val = ns.evaluate_hereditary(p, X)
        via_map = ns.apply_map_blockwise(ns.rearrange(p), ns.gram(X))
        assert np.linalg.norm(val - via_map) <= 1e-9 * (1 + np.linalg.norm(val))

