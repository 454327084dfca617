import os
import subprocess
import sys
from pathlib import Path

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
    M, value = ns.maximize_spectral(_linear_oracle(C), 2, budget=2000)
    assert abs(value - 1.0) <= 1e-8
    assert np.linalg.norm(M - np.diag([1.0, 0.0])) <= 1e-6


def test_maximize_spectral_lambda_min_objective():
    from ncslemma.linalg import min_eigpair

    def oracle(M):
        val, v = min_eigpair(M)
        return val, np.outer(v, v)

    M, value = ns.maximize_spectral(oracle, 2, budget=2000)
    assert abs(value - 0.5) <= 1e-6
    assert np.linalg.norm(M - np.eye(2) / 2) <= 1e-4


def test_maximize_spectral_constant_objective():
    def oracle(M):
        return 7.5, np.zeros_like(M)

    M, value = ns.maximize_spectral(oracle, 3, budget=100)
    assert value == 7.5
    assert np.allclose(M, np.eye(3) / 3, atol=1e-12)


def test_maximize_spectral_attains_top_eigenvalue():
    rng = np.random.default_rng(8)
    for d in (2, 5, 10, 20):
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        C = Q @ np.diag(np.arange(d, dtype=float)) @ Q.T
        _, value = ns.maximize_spectral(_linear_oracle(C), d, budget=5000)
        top = float(np.linalg.eigvalsh(C)[-1])
        assert abs(value - top) <= 1e-6


def test_maximize_spectral_deterministic():
    rng = np.random.default_rng(9)
    C = rng.standard_normal((4, 4))
    C = (C + C.T) / 2
    M1, v1 = ns.maximize_spectral(_linear_oracle(C), 4, budget=500)
    M2, v2 = ns.maximize_spectral(_linear_oracle(C), 4, budget=500)
    assert v1 == v2
    assert np.array_equal(M1, M2)


def test_supergradient_ascent_reaches_a_sharp_maximum_on_the_spectraplex():
    # concave, sharp where diag(M) = (1/4, 3/4): -(|M_11 - 1/4| + |M_22 - 3/4|)
    def oracle(M):
        d = np.diag(M) - [0.25, 0.75]
        return -float(np.abs(d).sum()), -np.diag(np.sign(d))

    M, v, _ = supergradient_ascent(oracle, linalg.spectral_search(2, 3000))
    assert v >= -1e-9
    assert np.allclose(np.diag(M), [0.25, 0.75], atol=1e-9)


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


@pytest.mark.parametrize("n", [2, 13, 14, 15, 16, 17, 48, 64])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_min_eigpair_core_near_the_largest_float(sign, n):
    # the search loops call the core on matrices they build; it must not overflow.
    # 1e308 I_2 padded with zeros: ||S||_F stays below the largest float, and at
    # every side the sum of squares overflows, which the selective path leaves to eigh
    S = np.zeros((n, n))
    S[0, 0] = S[1, 1] = sign * 1e308
    value, v = linalg._min_eigpair(S)
    assert np.isfinite(value) and np.isfinite(v).all()
    assert value == (sign * 1e308 if sign < 0 or n == 2 else 0.0)
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
    # one ascent, from the center I / dim of the spectraplex
    seen = []

    def oracle(M):
        seen.append(M.copy())
        return 1.0, np.zeros_like(M)  # constant: the ascent stops after one step

    M, value = ns.maximize_spectral(oracle, 2, budget=90)
    assert len(seen) == 1
    assert np.allclose(seen[0], np.eye(2) / 2.0, atol=1e-15)
    assert value == 1.0 and np.array_equal(M, seen[0])


def test_maximize_spectral_budget_shares_and_target():
    C = np.diag([1.0, 0.0, 0.0])
    evals = []

    def oracle(M):
        evals.append(1)
        return float(np.sum(C * M)), C

    # the center reaches a low target: the search stops at its first evaluation
    _, value = ns.maximize_spectral(oracle, 3, budget=300, target=0.25)
    assert value == pytest.approx(1.0 / 3.0) and len(evals) == 1
    # an unreachable target: one ascent of the whole budget, no more
    evals.clear()
    _, value = ns.maximize_spectral(oracle, 3, budget=300, target=2.0)
    assert len(evals) == 300 and value <= 1.0


def test_maximize_spectral_takes_target_by_keyword_only():
    # a fourth positional argument was the seed; it must not become the target
    with pytest.raises(TypeError):
        ns.maximize_spectral(_linear_oracle(np.eye(2)), 2, 100, 42)


# --- _eigh: the LAPACK gufunc np.linalg.eigh wraps, called without the wrapper ---

def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _eigh_inputs():
    rng = np.random.default_rng(20)
    for n in (1, 2, 3, 4, 8, 16, 36, 48, 64):
        raw = rng.standard_normal((n, n))
        yield pytest.param(raw + raw.T, id=f"random-{n}")
    yield pytest.param(1e308 * np.eye(2), id="1e308-I")
    yield pytest.param(-1e308 * np.eye(2), id="-1e308-I")
    yield pytest.param(np.diag([1e308, 0.0]), id="diag-1e308-0")


@pytest.mark.parametrize("S", _eigh_inputs())
def test_eigh_core_is_numpy_eigh_bit_for_bit(S):
    # the search loops decide through _eigh: a numpy release that changes the
    # private gufunc must fail here, not move a decision
    w, V = linalg._eigh(S)
    want_w, want_V = np.linalg.eigh(S)
    assert _same_bits(w, want_w) and _same_bits(V, want_V)


def test_eigh_core_gives_nan_on_nan_input_as_numpy_does():
    S = np.array([[1.0, np.nan], [np.nan, 2.0]])
    w, V = linalg._eigh(S)  # RuntimeWarnings are errors in this suite
    want_w, want_V = np.linalg.eigh(S)
    assert np.isnan(w).all() and np.isnan(want_w).all()
    assert np.array_equal(V, want_V, equal_nan=True)


def test_search_cores_skip_the_numpy_wrapper(monkeypatch):
    def wrapper(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called from a search core")

    S = np.array([[2.0, 1.0], [1.0, -1.0]])
    want = linalg._min_eigpair(S), linalg._spectraplex_project(S)
    monkeypatch.setattr(np.linalg, "eigh", wrapper)
    value, v = linalg._min_eigpair(S)
    assert value == want[0][0] and np.array_equal(v, want[0][1])
    assert np.array_equal(linalg._spectraplex_project(S), want[1])


# --- _min_eigpair: dsyevr's one pair from SELECTIVE_MIN_SIDE on, _sym_eigh's below ---

PAIR_SIDES = [13, 14, 15, 16, 17, 48, 64]  # around the crossover, and the oracles' (6, 8) sides
U = 2.0 ** -53


def _pair_bound(S):
    return 8 * S.shape[0] * U * np.linalg.norm(S)


def test_selective_min_side_is_among_the_tested_sides():
    assert linalg.SELECTIVE_MIN_SIDE - 1 in PAIR_SIDES and linalg.SELECTIVE_MIN_SIDE in PAIR_SIDES


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 500, 2.0 ** -500])
@pytest.mark.parametrize("n", PAIR_SIDES)
def test_min_eigpair_core_is_a_bottom_eigenpair(n, scale):
    # within 8 n u ||S||_F of eigh's value, with that residual; the scales take
    # dsyevr through its scaling of matrices far from 1
    raw = np.random.default_rng(n).standard_normal((n, n)) * scale
    S = raw + raw.T
    value, v = linalg._min_eigpair(S)
    bound = _pair_bound(S)
    assert abs(value - linalg._sym_eigh(S)[0][0]) <= bound
    assert abs(v @ v - 1.0) <= 8 * n * U
    assert np.linalg.norm(S @ v - value * v) <= bound
    again = linalg._min_eigpair(S)
    assert again[0] == value and np.array_equal(again[1], v)  # deterministic


@pytest.mark.parametrize("n", PAIR_SIDES)
def test_min_eigpair_core_on_an_exactly_tied_bottom_eigenvalue(n):
    # Q diag(1, 1, 2, 3, ...) Q^T: any unit vector of span(Q[:, :2]) is a bottom eigenvector
    Q, _ = np.linalg.qr(np.random.default_rng(100 + n).standard_normal((n, n)))
    S = (Q * np.r_[1.0, 1.0, 2.0 + np.arange(n - 2)]) @ Q.T
    value, v = linalg._min_eigpair(S)
    bound = _pair_bound(S)
    assert abs(value - 1.0) <= bound
    assert abs(v @ v - 1.0) <= 8 * n * U
    tied = Q[:, :2]
    assert np.linalg.norm(v - tied @ (tied.T @ v)) <= bound  # the gap to the next value is 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [s for s in PAIR_SIDES if s >= linalg.SELECTIVE_MIN_SIDE])
def test_min_eigpair_core_gives_nan_on_non_finite_input(n, bad):
    # five placements, among them ones where _eigh keeps a finite w[0]
    for i, j in [(0, 0), (0, n - 1), (1, 2), (1, n - 1), (n - 1, n - 1)]:
        S = np.eye(n)
        S[i, j] = S[j, i] = bad
        value, v = linalg._min_eigpair(S)
        assert np.isnan(value) and np.isnan(v).all(), (i, j)


@pytest.mark.parametrize("n", [1, 2, 8, 13, 14, 16, 48, 64])
def test_min_eigpair_core_without_the_binding_is_sym_eighs_bits(monkeypatch, n):
    monkeypatch.setattr(linalg, "_dsyevr", None)
    raw = np.random.default_rng(n).standard_normal((n, n))
    S = raw + raw.T
    w, V = linalg._sym_eigh(S)
    value, v = linalg._min_eigpair(S)
    assert value == w[0] and _same_bits(v, V[:, 0].copy())


@pytest.mark.parametrize("n", [16, 48])
def test_min_eigpair_core_falls_back_when_dsyevr_fails(monkeypatch, n):
    calls = []
    monkeypatch.setattr(linalg, "_dsyevr", lambda *args: calls.append(args[4]) or -1)
    raw = np.random.default_rng(n).standard_normal((n, n))
    S = raw + raw.T
    w, V = linalg._sym_eigh(S)
    value, v = linalg._min_eigpair(S)
    assert calls == [n]
    assert value == w[0] and _same_bits(v, V[:, 0].copy())


def _numpy_lapack():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return None
    return config.get("Build Dependencies", {}).get("lapack", {}).get("name")


def test_dsyevr_is_bound_where_numpy_links_scipy_openblas():
    # a numpy release that renames the symbol fails here instead of quietly
    # sending every oracle back to the full eigh
    if _numpy_lapack() != "scipy-openblas":
        pytest.skip(f"numpy's LAPACK is {_numpy_lapack()!r}")
    assert linalg._dsyevr is not None


def test_a_decision_loads_no_scipy():
    # dsyevr is numpy's own: neither the import nor a (6, 8) decision brings scipy's LAPACK in
    code = """
import sys
import numpy as np
import ncslemma as ns
from test_counterexample_support import planted_refutation
f, g, _ = planted_refutation(np.random.default_rng(0), 6, 8)
slater = np.zeros(6)
slater[2] = 1.0
assert ns.decide(f, g, ns.new_tuple(slater.reshape(6, 1, 1))).kind == "counterexample"
sys.exit("scipy" in sys.modules)
"""
    tests, src = Path(__file__).parent, Path(linalg.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
