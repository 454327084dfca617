import numpy as np
import pytest

import ncslemma as ns
from ncslemma import linalg
from ncslemma.errors import InvalidInput, NotPSD
from ncslemma.linalg import lambda_min, simplex_project, supergradient_ascent


def test_sym_eig_identity():
    eig = ns.sym_eig(np.eye(3))
    assert np.allclose(eig.values, [1, 1, 1])


def test_sym_eig_diagonal():
    eig = ns.sym_eig(np.diag([2.0, -1.0]))
    assert np.allclose(eig.values, [2.0, -1.0])
    assert np.allclose(np.abs(eig.vectors), np.eye(2))


def test_sym_eig_residual_oracle():
    rng = np.random.default_rng(0)
    S = rng.standard_normal((5, 5))
    S = (S + S.T) / 2
    eig = ns.sym_eig(S)
    recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
    assert np.linalg.norm(S - recon) <= 1e-9 * (1 + np.linalg.norm(S))


def test_sym_eig_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        ns.sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_sym_eig_residuals_bulk():
    # reconstruction and orthogonality bounds over many random matrices
    rng = np.random.default_rng(1)
    for _ in range(1000):
        d = int(rng.integers(1, 31))
        S = rng.standard_normal((d, d)) * rng.uniform(0.1, 10.0)
        S = (S + S.T) / 2
        eig = ns.sym_eig(S)
        assert np.all(np.diff(eig.values) <= 1e-12)
        V = eig.vectors
        assert np.linalg.norm(V.T @ V - np.eye(d)) <= 1e-10 * d
        recon = (V * eig.values) @ V.T
        assert np.linalg.norm(S - recon) <= 1e-9 * (1 + np.linalg.norm(S))


def test_is_psd_examples():
    assert ns.is_psd(np.eye(2), 1e-8)
    assert not ns.is_psd(np.array([[0.0, 1.0], [1.0, 0.0]]), 1e-8)
    assert ns.is_psd(np.zeros((3, 3)), 1e-8)


def test_is_psd_known_integer_spectra():
    # [[a, b], [b, a]] has eigenvalues a +- b; all-ones J_d has d-1 and 0
    for a in range(-3, 4):
        for b in range(-3, 4):
            S = np.array([[a, b], [b, a]], dtype=float)
            assert ns.is_psd(S, 1e-10) == (min(a + b, a - b) >= 0)
    for d in (2, 3, 5):
        assert ns.is_psd(np.ones((d, d)), 1e-10)
        assert not ns.is_psd(np.ones((d, d)) - 2 * np.eye(d), 1e-10)


def test_large_entries_keep_their_verdict():
    # The plain sum of squares overflows once ||S||_F exceeds ~1.3e154; an
    # infinite norm would make the PSD tolerance -inf and accept anything.
    assert ns.linalg.fro(np.full(4, 1e160)) == 2e160
    assert ns.linalg.fro(np.array([np.inf, 1.0])) == np.inf
    assert not ns.is_psd(-1e160 * np.eye(2))
    assert not ns.is_psd(np.diag([1e300, -1e300]))
    assert ns.is_psd(1e160 * np.eye(2))
    with pytest.raises(InvalidInput):
        ns.linalg.symmetrize([[0.0, 1e200], [-1e200, 0.0]])


def test_spectraplex_project_examples():
    q = 3
    assert np.allclose(ns.spectraplex_project(np.eye(q) / q), np.eye(q) / q)
    assert np.allclose(ns.spectraplex_project(np.diag([2.0, 0.0])), np.diag([1.0, 0.0]))


def test_spectraplex_project_properties():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        S = rng.standard_normal((d, d)) * 3
        S = (S + S.T) / 2
        P = ns.spectraplex_project(S)
        assert abs(np.trace(P) - 1.0) <= 1e-12
        assert lambda_min(P) >= -1e-12
        again = ns.spectraplex_project(P)
        assert np.linalg.norm(P - again) <= 1e-10


def test_simplex_project_matches_direct():
    v = np.array([2.0, 0.0])
    assert np.allclose(simplex_project(v), [1.0, 0.0])
    rng = np.random.default_rng(6)
    for _ in range(50):
        v = rng.standard_normal(5) * 2
        p = simplex_project(v)
        assert abs(p.sum() - 1.0) <= 1e-12 and np.all(p >= 0)


def test_psd_factor_examples():
    V = ns.psd_factor(np.eye(2))
    assert V.shape == (2, 2)
    assert np.allclose(V @ V.T, np.eye(2))

    v = np.array([1.0, -2.0, 0.5])
    V = ns.psd_factor(np.outer(v, v))
    assert V.shape == (3, 1)
    assert np.allclose(np.abs(V[:, 0]), np.abs(v))

    rng = np.random.default_rng(7)
    W = rng.standard_normal((6, 6))
    S = W @ W.T
    V = ns.psd_factor(S)
    assert np.linalg.norm(V @ V.T - S) <= 1e-8 * (1 + np.linalg.norm(S))


def test_psd_factor_rejects():
    with pytest.raises(NotPSD):
        ns.psd_factor(np.diag([1.0, -1.0]))


def _linear_oracle(C):
    def oracle(M):
        return float(np.sum(C * M)), C

    return oracle


def test_maximize_spectral_linear_objective():
    C = np.diag([1.0, 0.0])
    M, value = ns.maximize_spectral(_linear_oracle(C), 2, budget=2000, seed=0)
    assert abs(value - 1.0) <= 1e-8
    assert np.linalg.norm(M - np.diag([1.0, 0.0])) <= 1e-6


def test_maximize_spectral_lambda_min_objective():
    from ncslemma.linalg import min_eigpair

    def oracle(M):
        val, v = min_eigpair(M)
        return val, np.outer(v, v)

    M, value = ns.maximize_spectral(oracle, 2, budget=2000, seed=0)
    assert abs(value - 0.5) <= 1e-6
    assert np.linalg.norm(M - np.eye(2) / 2) <= 1e-4


def test_maximize_spectral_constant_objective():
    def oracle(M):
        return 7.5, np.zeros_like(M)

    M, value = ns.maximize_spectral(oracle, 3, budget=100, seed=11)
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((3, 3))
    expected = ns.spectraplex_project((raw + raw.T) / 2)
    assert value == 7.5
    assert np.allclose(M, expected, atol=1e-12)


def test_maximize_spectral_attains_top_eigenvalue():
    rng = np.random.default_rng(8)
    for d in (2, 5, 10, 20):
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        C = Q @ np.diag(np.arange(d, dtype=float)) @ Q.T
        _, value = ns.maximize_spectral(_linear_oracle(C), d, budget=5000, seed=1)
        top = float(np.linalg.eigvalsh(C)[-1])
        assert abs(value - top) <= 1e-6


def test_maximize_spectral_deterministic():
    rng = np.random.default_rng(9)
    C = rng.standard_normal((4, 4))
    C = (C + C.T) / 2
    M1, v1 = ns.maximize_spectral(_linear_oracle(C), 4, budget=500, seed=3)
    M2, v2 = ns.maximize_spectral(_linear_oracle(C), 4, budget=500, seed=3)
    assert v1 == v2
    assert np.array_equal(M1, M2)


def test_supergradient_ascent_unconstrained():
    # concave, sharp at x = (1, 2): -(|x1 - 1| + |x2 - 2|)
    def oracle(x):
        return -abs(x[0] - 1.0) - abs(x[1] - 2.0), np.array(
            [-np.sign(x[0] - 1.0), -np.sign(x[1] - 2.0)]
        )

    x, v, _ = supergradient_ascent(oracle, np.zeros(2), 3000)
    assert v >= -1e-9
    assert np.allclose(x, [1.0, 2.0], atol=1e-8)


@pytest.mark.parametrize("sign,verdict", [(1.0, True), (-1.0, False)])
def test_is_psd_near_the_largest_float(sign, verdict):
    # (S + S^T) / 2 overflows above ~9e307; the symmetric part must not
    S = sign * 1e308 * np.eye(2)
    assert ns.is_psd(S) is verdict
    assert np.array_equal(linalg.symmetrize(S), S)
    assert lambda_min(S) == sign * 1e308


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_public_search_kernels_near_the_largest_float(sign):
    # (S + S^T) / 2 overflows above ~9e307, and the simplex shift's 1 - w
    # rounds the 1 away; the kernels avoid both
    S = sign * 1e308 * np.eye(2)
    value, v = linalg.min_eigpair(S)
    assert value == sign * 1e308
    assert np.array_equal(v, [1.0, 0.0])
    assert np.array_equal(linalg.spectraplex_project(S), np.eye(2) / 2.0)
    assert np.array_equal(linalg.spectraplex_project(np.diag([sign * 1e308, 0.0])),
                          np.diag([1.0, 0.0] if sign > 0 else [0.0, 1.0]))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_min_eigpair_core_near_the_largest_float(sign):
    # the search loops call the core on matrices they build; it must not overflow
    S = sign * 1e308 * np.eye(2)
    value, v = linalg._min_eigpair(S)
    assert np.isfinite(value) and np.isfinite(v).all()
    public = linalg.min_eigpair(S)
    assert value == public[0] and np.array_equal(v, public[1])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_spectraplex_project_core_near_the_largest_float(sign):
    for S in (sign * 1e308 * np.eye(2), np.diag([sign * 1e308, 0.0])):
        M = linalg._spectraplex_project(S)
        assert np.isfinite(M).all()
        assert np.array_equal(M, linalg.spectraplex_project(S))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_norm_past_the_largest_float_is_rejected(sign):
    # finite entries, but ||S||_F ~ 2.12e308 is inf: a tolerance -tol * (1 + inf)
    # would pass every matrix, so each kernel rejects the input instead
    S = sign * 1.5e308 * np.eye(2)
    for kernel in (ns.is_psd, ns.psd_factor, linalg.symmetrize, linalg.min_eigpair):
        with pytest.raises(InvalidInput, match="Frobenius norm exceeds the float range"):
            kernel(S)


def test_is_psd_validates_once(monkeypatch):
    calls = []
    checked = linalg.checked_symmetric_part

    def counting(a, *args, **kwargs):
        calls.append(1)
        return checked(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "checked_symmetric_part", counting)
    S = np.diag([1.0, -1e-12])
    assert ns.is_psd(S)
    assert len(calls) == 1


def test_maximize_spectral_start_schedule():
    # one ascent per given start, then the seeded random start, in that order
    seen = []

    def oracle(M):
        seen.append(M.copy())
        return 1.0, np.zeros_like(M)  # constant: each ascent stops after one step

    starts = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    M, value = ns.maximize_spectral(oracle, 2, budget=90, seed=4, starts=starts)
    raw = np.random.default_rng(4).standard_normal((2, 2))
    expected = starts + [ns.spectraplex_project((raw + raw.T) / 2.0)]
    assert len(seen) == 3
    for got, want in zip(seen, expected):
        assert np.allclose(got, want, atol=1e-15)
    assert value == 1.0 and np.array_equal(M, seen[0])  # ties keep the earliest


def test_maximize_spectral_budget_shares_and_target():
    C = np.diag([1.0, 0.0, 0.0])
    evals = []

    def oracle(M):
        evals.append(1)
        return float(np.sum(C * M)), C

    # the first start is already optimal: the target stops the search there
    _, value = ns.maximize_spectral(oracle, 3, budget=300, starts=[C], target=1.0)
    assert value == 1.0 and len(evals) == 1
    # an unreachable target: two ascents of budget // 2 each, no more
    evals.clear()
    _, value = ns.maximize_spectral(oracle, 3, budget=300, starts=[np.eye(3)], target=2.0)
    assert len(evals) == 300 and value <= 1.0
