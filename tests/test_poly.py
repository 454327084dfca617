import numpy as np
import pytest

import ncslemma as ns
from ncslemma.errors import AsymmetricCoefficients, InvalidInput, ShapeMismatch
from ncslemma.poly import blocks_from_matrix

from helpers import random_poly, random_psd_poly, random_sym_tuple, random_gen_tuple


def example_62_f():
    return ns.new_quad_poly([
        [np.diag([1.0, 1.0]), np.zeros((2, 2))],
        [np.zeros((2, 2)), np.diag([0.0, -1.0])],
    ])


def example_62_g():
    return ns.new_quad_poly([
        [np.diag([1.0, 1.0]), np.zeros((2, 2))],
        [np.zeros((2, 2)), np.diag([-1.0, 0.0])],
    ])


def example_61_f():
    # 4x4 coefficients; only the (1,1) entry is x1x2 + x2x1 - x2x2
    E11 = np.zeros((4, 4))
    E11[0, 0] = 1.0
    blocks = np.zeros((2, 2, 4, 4))
    blocks[0, 1] = E11
    blocks[1, 0] = E11
    blocks[1, 1] = -E11
    return ns.new_quad_poly(blocks)


def example_61_g():
    # entries: (1,1) x1x1 - x2x2, (2,2) x1x2 + x2x1, (3,4)/(4,3) +-(x1x2 - x2x1)
    def unit(i, j):
        M = np.zeros((4, 4))
        M[i, j] = 1.0
        return M

    blocks = np.zeros((2, 2, 4, 4))
    blocks[0, 0] = unit(0, 0)
    blocks[1, 1] = -unit(0, 0)
    blocks[0, 1] = unit(1, 1) + unit(2, 3) - unit(3, 2)
    blocks[1, 0] = unit(1, 1) - unit(2, 3) + unit(3, 2)
    return ns.new_quad_poly(blocks)


def example_61_point():
    X1 = np.zeros((6, 6))
    X1[1, 2] = X1[2, 1] = np.sqrt(2.0)
    X2 = np.zeros((6, 6))
    X2[0, 2] = X2[2, 0] = 1.0
    return ns.new_tuple([X1, X2], kind="symmetric")


def example_61_projection():
    return np.diag([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])


def test_new_quad_poly_accepts_swap():
    p = ns.new_quad_poly([[[[0.0]], [[1.0]]], [[[1.0]], [[0.0]]]])
    assert (p.m, p.q) == (2, 1)


def test_new_quad_poly_accepts_example_62():
    p = example_62_f()
    assert (p.m, p.q) == (2, 2)


def test_new_quad_poly_rejects_asymmetric():
    blocks = np.zeros((2, 2, 1, 1))
    blocks[0, 1, 0, 0] = 1.0
    blocks[1, 0, 0, 0] = 2.0
    with pytest.raises(AsymmetricCoefficients):
        ns.new_quad_poly(blocks)


def test_new_quad_poly_rejects_bad_shape():
    with pytest.raises(ShapeMismatch):
        ns.new_quad_poly(np.zeros((2, 3, 1, 1)))


def test_coefficient_matrix_example_62():
    calA = ns.coefficient_matrix(example_62_f())
    assert np.array_equal(calA, np.diag([1.0, 1.0, 0.0, -1.0]))


def test_coefficient_matrix_zero():
    assert np.array_equal(ns.coefficient_matrix(ns.new_quad_poly(np.zeros((3, 3, 2, 2)))), np.zeros((6, 6)))


def test_coefficient_matrix_h1():
    # homogenization h1 of [[x^2, x], [x, 1]], variables ordered (x0, x)
    H10 = np.array([[0.0, 1.0], [0.0, 0.0]])
    blocks = np.zeros((2, 2, 2, 2))
    blocks[0, 0] = np.diag([0.0, 1.0])
    blocks[0, 1] = H10.T
    blocks[1, 0] = H10
    blocks[1, 1] = np.diag([1.0, 0.0])
    h1 = ns.new_quad_poly(blocks)
    expected = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    assert np.array_equal(ns.coefficient_matrix(h1), expected)


def test_blocks_from_matrix_roundtrip():
    rng = np.random.default_rng(0)
    p = random_poly(rng, 3, 2)
    again = blocks_from_matrix(ns.coefficient_matrix(p), 3, 2)
    assert np.array_equal(again, p.blocks)


def test_evaluate_example_62_values():
    f, g = example_62_f(), example_62_g()
    X = ns.new_tuple([[[1.0]], [[2.0]]])
    v = np.array([0.0, 1.0])
    gX = ns.evaluate(g, X)
    fX = ns.evaluate(f, X)
    assert np.allclose(gX, np.diag([-3.0, 1.0]), atol=1e-12)
    assert np.allclose(fX, np.diag([1.0, -3.0]), atol=1e-12)
    assert abs(v @ gX @ v - 1.0) <= 1e-12
    assert abs(v @ fX @ v + 3.0) <= 1e-12


def test_evaluate_square_is_psd():
    p = ns.new_quad_poly(np.ones((1, 1, 1, 1)))  # x1 x1
    rng = np.random.default_rng(1)
    for _ in range(10):
        X = random_sym_tuple(rng, 1, 4)
        val = ns.evaluate(p, X)
        assert np.allclose(val, X.mats[0] @ X.mats[0])
        assert ns.is_psd(val, 1e-10)


def test_evaluate_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        ns.evaluate(example_62_f(), ns.new_tuple([[[1.0]]]))


def test_evaluate_hereditary_matches_symmetric():
    rng = np.random.default_rng(2)
    p = random_poly(rng, 2, 2)
    X = random_sym_tuple(rng, 2, 3)
    assert np.allclose(ns.evaluate_hereditary(p, X), ns.evaluate(p, X), atol=1e-12)


def test_evaluate_hereditary_psd_for_psd_coefficients():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = random_psd_poly(rng, 2, 2)
        X = random_gen_tuple(rng, 2, 3)
        assert ns.is_psd(ns.evaluate_hereditary(p, X), 1e-9)


def test_evaluate_hereditary_square():
    p = ns.new_quad_poly(np.ones((1, 1, 1, 1)))
    rng = np.random.default_rng(4)
    X = random_gen_tuple(rng, 1, 3)
    assert np.allclose(ns.evaluate_hereditary(p, X), X.mats[0] @ X.mats[0].T)


def test_evaluate_compressed_identity():
    rng = np.random.default_rng(5)
    p = random_poly(rng, 2, 2)
    X = random_sym_tuple(rng, 2, 3)
    assert np.allclose(ns.evaluate_compressed(p, X, np.eye(3)), ns.evaluate(p, X))


def test_evaluate_compressed_example_61():
    g, f = example_61_g(), example_61_f()
    X0 = example_61_point()
    P = example_61_projection()

    comp_g = ns.evaluate_compressed(g, X0, P)
    expected_g = np.zeros((24, 24))
    expected_g[2, 2] = 1.0  # single entry from P (X1^2 - X2^2) P
    assert np.abs(comp_g - expected_g).max() <= 1e-12
    assert ns.is_psd(comp_g, 1e-10)

    comp_f = ns.evaluate_compressed(f, X0, P)
    expected_f = np.zeros((24, 24))
    expected_f[2, 2] = -1.0
    assert np.abs(comp_f - expected_f).max() <= 1e-12
    assert not ns.is_psd(comp_f, 1e-10)


def test_evaluate_compressed_rectangular():
    rng = np.random.default_rng(6)
    p = random_poly(rng, 2, 2)
    X = random_sym_tuple(rng, 2, 4)
    Q = rng.standard_normal((4, 2))
    comp = ns.evaluate_compressed(p, X, Q)
    iq = np.eye(2)
    direct = np.kron(iq, Q.T) @ ns.evaluate(p, X) @ np.kron(iq, Q)
    assert np.allclose(comp, direct, atol=1e-12)
    with pytest.raises(ShapeMismatch):
        ns.evaluate_compressed(p, X, rng.standard_normal((3, 2)))


def test_direct_sum_repeat_identity():
    p = example_62_g()
    assert ns.direct_sum_repeat(p, 1) is p
    with pytest.raises(InvalidInput):
        ns.direct_sum_repeat(p, 0)


def test_direct_sum_repeat_blocks():
    g = example_62_g()
    g2 = ns.direct_sum_repeat(g, 2)
    assert (g2.m, g2.q) == (2, 4)
    for i in range(2):
        for j in range(2):
            expected = np.zeros((4, 4))
            expected[:2, :2] = g.blocks[i, j]
            expected[2:, 2:] = g.blocks[i, j]
            assert np.array_equal(g2.blocks[i, j], expected)


def test_direct_sum_repeat_evaluation_commutes():
    rng = np.random.default_rng(7)
    g = random_poly(rng, 2, 2)
    g2 = ns.direct_sum_repeat(g, 2)
    X = random_sym_tuple(rng, 2, 3)
    gX = ns.evaluate(g, X)
    stacked = np.zeros((12, 12))
    stacked[:6, :6] = gX
    stacked[6:, 6:] = gX
    assert np.allclose(ns.evaluate(g2, X), stacked, atol=1e-12)


def test_pad_coefficients():
    p = ns.new_quad_poly([[[[2.0]]]])
    assert ns.pad_coefficients(p, 1) is p
    padded = ns.pad_coefficients(p, 2)
    assert np.array_equal(padded.blocks[0, 0], np.array([[2.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(InvalidInput):
        ns.pad_coefficients(padded, 1)


def test_pad_preserves_nonzero_eigenvalues():
    rng = np.random.default_rng(8)
    p = random_poly(rng, 2, 2)
    padded = ns.pad_coefficients(p, 3)
    ev1 = np.linalg.eigvalsh(ns.coefficient_matrix(p))
    ev2 = np.linalg.eigvalsh(ns.coefficient_matrix(padded))
    nz1 = np.sort(ev1[np.abs(ev1) > 1e-10])
    nz2 = np.sort(ev2[np.abs(ev2) > 1e-10])
    assert np.allclose(nz1, nz2, atol=1e-9)


def test_scalar_to_nc():
    s = ns.new_scalar_quad(np.eye(2))
    p = ns.scalar_to_nc(s)
    assert np.array_equal(ns.coefficient_matrix(p), np.eye(2))
    swap = ns.scalar_to_nc(ns.new_scalar_quad([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(ns.coefficient_matrix(swap), [[0.0, 1.0], [1.0, 0.0]])


def test_scalar_to_nc_quadratic_form():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((3, 3))
    A = (A + A.T) / 2
    p = ns.scalar_to_nc(ns.new_scalar_quad(A))
    x = rng.standard_normal(3)
    X = ns.new_tuple(x.reshape(3, 1, 1))
    assert abs(ns.evaluate(p, X)[0, 0] - x @ A @ x) <= 1e-10 * (1 + abs(x @ A @ x))


def test_evaluate_exactly_symmetric():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = random_poly(rng, 3, 2)
        X = random_sym_tuple(rng, 3, 3)
        val = ns.evaluate(p, X)
        assert np.abs(val - val.T).max() <= 1e-12


def test_evaluate_linearity():
    rng = np.random.default_rng(11)
    p = random_poly(rng, 2, 3)
    r = random_poly(rng, 2, 3)
    X = random_sym_tuple(rng, 2, 2)
    alpha, beta = 0.7, -1.3
    combo = ns.evaluate(ns.new_quad_poly(alpha * p.blocks + beta * r.blocks), X)
    direct = alpha * ns.evaluate(p, X) + beta * ns.evaluate(r, X)
    assert np.abs(combo - direct).max() <= 1e-10 * (1 + np.abs(direct).max())


def test_commutative_reduction():
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = random_poly(rng, 3, 1)
        x = rng.standard_normal(3)
        X = ns.new_tuple(x.reshape(3, 1, 1))
        A = ns.coefficient_matrix(p)
        assert abs(ns.evaluate(p, X)[0, 0] - x @ A @ x) <= 1e-10 * (1 + abs(x @ A @ x))


def test_compression_preserves_psd():
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = random_psd_poly(rng, 2, 2)
        X = random_sym_tuple(rng, 2, 4)
        Q = rng.standard_normal((4, int(rng.integers(1, 5))))
        assert ns.is_psd(ns.evaluate_compressed(p, X, Q), 1e-9)


def test_tuple_validation():
    with pytest.raises(InvalidInput):
        ns.new_tuple([[[0.0, 1.0], [0.5, 0.0]]], kind="symmetric")
    X = ns.new_tuple([[[0.0, 1.0], [0.5, 0.0]]], kind="general")
    assert X.kind == "general"
    with pytest.raises(InvalidInput):
        ns.new_tuple(np.zeros((1, 2, 2)), kind="diagonal")
    with pytest.raises(ShapeMismatch):
        ns.new_tuple(np.zeros((2, 3)))


@pytest.mark.parametrize("A,a,a0,error", [
    ([[np.nan, 0.0], [0.0, -1.0]], None, 0.0, InvalidInput),
    ([[1.0, 0.0], [0.0, np.inf]], None, 0.0, InvalidInput),
    ([[1.0, 0.0], [0.0, 1.0]], [np.nan, 0.0], 0.0, InvalidInput),
    ([[1.0, 0.0], [0.0, 1.0]], None, -np.inf, InvalidInput),
    ([[1.0, 1.0], [0.0, 1.0]], None, 0.0, AsymmetricCoefficients),
])
def test_new_scalar_quad_validation(A, a, a0, error):
    with pytest.raises(error):
        ns.new_scalar_quad(A, a=a, a0=a0)


def test_constructors_keep_entries_near_the_largest_float():
    # (a + a^T) / 2 overflows above ~9e307; the stored symmetric part must not
    big = 1.5e308
    assert ns.new_quad_poly(np.full((1, 1, 1, 1), big)).blocks.max() == big
    assert ns.new_tuple(np.full((1, 1, 1), big)).mats.max() == big
    assert ns.new_scalar_quad(np.full((1, 1), big)).A.max() == big
    assert ns.new_choi(np.full((1, 1), big), 1, 1).J.max() == big


@pytest.mark.parametrize("evaluator", [
    ns.evaluate,
    ns.evaluate_hereditary,
    lambda p, X: ns.evaluate_compressed(p, X, np.eye(1)),
], ids=["evaluate", "evaluate_hereditary", "evaluate_compressed"])
def test_evaluation_near_the_largest_float(evaluator):
    # the value 1e308 is representable; (V + V^T) / 2 would overflow to inf
    p = ns.new_quad_poly([[[[1e308]]]])
    X = ns.new_tuple(np.ones((1, 1, 1)))
    assert np.array_equal(evaluator(p, X), [[1e308]])


def test_constructors_reject_norms_past_the_largest_float():
    # finite entries whose Frobenius norm is inf would make every tolerance infinite
    big = 1.5e308
    with pytest.raises(InvalidInput, match="float range"):
        ns.new_quad_poly(np.full((2, 2, 1, 1), big))
    with pytest.raises(InvalidInput, match="float range"):
        ns.new_tuple(np.full((1, 2, 2), big))
    with pytest.raises(InvalidInput, match="float range"):
        ns.new_scalar_quad(np.full((2, 2), big))
    with pytest.raises(InvalidInput, match="float range"):
        ns.new_choi(np.full((2, 2), big), 1, 2)
