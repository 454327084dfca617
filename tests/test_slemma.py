import dataclasses

import numpy as np
import pytest

import ncslemma as ns
from ncslemma import slemma
from ncslemma.errors import (
    DimensionTooLarge,
    InvalidInput,
    PreconditionViolated,
    ShapeMismatch,
    SlaterViolated,
)
from ncslemma.poly import blocks_from_matrix
from ncslemma.slemma import _b_term, _map_coefficients

from helpers import (
    planted_certificate_instance,
    poly_from_matrix,
    random_poly,
    random_sym_tuple,
    refutable_instance,
)
from test_poly import example_62_f, example_62_g


def scalar_embedded_pair():
    """f = x1x2 + x2x1, g = x1x1 as q=1 matrix-valued polynomials."""
    f = ns.scalar_to_nc(ns.new_scalar_quad([[0.0, 1.0], [1.0, 0.0]]))
    g = ns.scalar_to_nc(ns.new_scalar_quad([[1.0, 0.0], [0.0, 0.0]]))
    return f, g


def unit_slater():
    return ns.new_tuple([[[1.0]], [[0.0]]])


def test_certify_example_62():
    f, g = example_62_f(), example_62_g()
    out = ns.certify(f, g)
    cert = out.certificate
    assert cert is not None
    assert cert.residual_lambda_min >= -1e-6
    assert abs(np.trace(cert.J.J) - 1.0) <= 1e-12
    assert ns.is_psd(cert.J.J, 1e-10)
    assert ns.verify_certificate(cert, f, g)


def test_certify_identity_map_on_psd_self():
    rng = np.random.default_rng(0)
    for _ in range(5):
        m, q = int(rng.integers(1, 3)), int(rng.integers(2, 4))
        from helpers import random_psd_poly

        f = random_psd_poly(rng, m, q)
        calA = ns.coefficient_matrix(f)
        # the scaled identity map is feasible by hand
        J_id = ns.identity_choi(q).J / q
        residual = calA - _map_coefficients(J_id, f.blocks, q)
        assert np.allclose(residual, (1.0 - 1.0 / q) * calA, atol=1e-10)
        out = ns.certify(f, f)
        assert out.certificate is not None
        assert ns.verify_certificate(out.certificate, f, f)


def test_certify_planted():
    rng = np.random.default_rng(1)
    for _ in range(8):
        m = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        f, g, _ = planted_certificate_instance(rng, m, q)
        out = ns.certify(f, g)
        assert out.certificate is not None
        assert out.certificate.residual_lambda_min >= -1e-6
        assert ns.verify_certificate(out.certificate, f, g)


def test_certify_shape_mismatch():
    f, _ = scalar_embedded_pair()
    with pytest.raises(ShapeMismatch):
        ns.certify(f, example_62_g())


def test_find_separator_scalar_embedding():
    f, g = scalar_embedded_pair()
    sep = ns.find_separator(f, g)
    assert sep.M is not None
    assert sep.a_value <= -1e-6
    assert sep.b_margin >= -1e-8
    # the optimum is known in closed form for this instance
    expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.linalg.norm(sep.M - expected) <= 1e-4


def test_find_separator_not_found_when_certificate_exists():
    f, g = example_62_f(), example_62_g()
    sep = ns.find_separator(f, g, budget=3000)
    assert sep.M is None


def test_build_counterexample_scalar_embedding():
    f, g = scalar_embedded_pair()
    sep = ns.find_separator(f, g)
    ce = ns.build_counterexample(f, g, sep.M)
    assert ce.violation <= -1e-6
    assert ce.violation == pytest.approx(float(np.sum(ns.coefficient_matrix(f) * ce.M)),
                                         abs=1e-8)
    assert ns.verify_counterexample(ce, f, g)
    # block identity P X_i X_j P == M_ij on the embedded coordinates
    q, r = f.q, ce.rank
    for i in range(f.m):
        for j in range(f.m):
            prod = ce.P @ ce.X.mats[i] @ ce.X.mats[j] @ ce.P
            Mij = ce.M[i * q:(i + 1) * q, j * q:(j + 1) * q]
            assert np.linalg.norm(prod[r:, r:] - Mij) <= 1e-8


def test_build_counterexample_rank_one():
    f, g = scalar_embedded_pair()
    w = np.array([1.0, -1.0]) / np.sqrt(2.0)
    M = np.outer(w, w)
    ce = ns.build_counterexample(f, g, M)
    assert ce.rank == 1
    assert ce.X.n == 2  # (r + q) with r = q = 1
    for i in range(2):
        # arrowhead shape: only the off-diagonal border is populated
        assert ce.X.mats[i][0, 0] == 0.0 and ce.X.mats[i][1, 1] == 0.0
    for i in range(2):
        for j in range(2):
            prod = ce.P @ ce.X.mats[i] @ ce.X.mats[j] @ ce.P
            assert prod[1, 1] == pytest.approx(M[i, j], abs=1e-12)


def test_build_counterexample_zero_blocks():
    # supported on the first variable only: blocks reproduce exactly
    f = ns.scalar_to_nc(ns.new_scalar_quad([[-1.0, 0.0], [0.0, 1.0]]))
    g = ns.scalar_to_nc(ns.new_scalar_quad([[1.0, 0.0], [0.0, 0.0]]))
    M = np.diag([1.0, 0.0])
    ce = ns.build_counterexample(f, g, M)
    assert ce.rank == 1
    for i in range(2):
        for j in range(2):
            prod = ce.P @ ce.X.mats[i] @ ce.X.mats[j] @ ce.P
            assert abs(prod[1, 1] - M[i, j]) <= 1e-10


def test_build_counterexample_preconditions():
    f, g = scalar_embedded_pair()
    with pytest.raises(PreconditionViolated):
        ns.build_counterexample(f, g, np.diag([1.0, -1.0]))  # not PSD
    with pytest.raises(PreconditionViolated):
        ns.build_counterexample(f, g, np.diag([0.0, 1.0]))  # <A, M> = 0


def test_decide_example_62():
    f, g = example_62_f(), example_62_g()
    slater = unit_slater()
    decision = ns.decide(f, g, slater)
    assert decision.kind == "certificate"
    assert decision.certificate.residual_lambda_min >= -1e-6


def test_decide_counterexample():
    f, g = scalar_embedded_pair()
    decision = ns.decide(f, g, unit_slater())
    assert decision.kind == "counterexample"
    assert ns.verify_counterexample(decision.counterexample, f, g)


def test_decide_self_psd():
    from helpers import random_psd_poly

    rng = np.random.default_rng(2)
    f = random_psd_poly(rng, 2, 2)
    slater_mats = np.stack([np.eye(2), np.eye(2)])
    # f(I, I) = sum A_ij (x) I; make the tuple definite by shifting if needed
    X = ns.new_tuple(slater_mats)
    val = ns.evaluate(f, X)
    if not ns.is_psd(val - 1e-3 * np.eye(val.shape[0]), 0.0):
        f = poly_from_matrix(
            ns.coefficient_matrix(f) + np.eye(4), 2, 2
        )
        val = ns.evaluate(f, X)
    decision = ns.decide(f, f, X)
    assert decision.kind == "certificate"


def test_decide_slater_violation():
    f, g = example_62_f(), example_62_g()
    bad = ns.new_tuple([[[0.0]], [[1.0]]])  # g = diag(-1, 0) at this point
    with pytest.raises(SlaterViolated):
        ns.decide(f, g, bad)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("hereditary", [False, True])
def test_decide_slater_overflow_is_named(hereditary):
    # valid at 3e307, but g(slater) = 3e307 * (2 + 1 + 1 + 2) is past the largest float
    f = ns.new_quad_poly(3e307 * np.array([[1.0, 0.5], [0.5, -1.0]]).reshape(2, 2, 1, 1))
    g = ns.new_quad_poly(3e307 * np.array([[2.0, 1.0], [1.0, 2.0]]).reshape(2, 2, 1, 1))
    slater = ns.new_tuple(np.ones((2, 1, 1)), kind="general" if hereditary else "symmetric")
    decider = ns.decide_hereditary if hereditary else ns.decide
    with pytest.raises(InvalidInput, match=r"g\(slater\) overflows"):
        decider(f, g, slater)


@pytest.mark.parametrize("hereditary", [False, True])
def test_decide_past_the_dimension_limit(hereditary):
    # (m, q) = (1, 65): the certificate search would hold 4225 x 4225 matrices
    q = 65
    f = ns.new_quad_poly(-np.eye(q).reshape(1, 1, q, q))
    g = ns.new_quad_poly(np.eye(q).reshape(1, 1, q, q))
    slater = ns.new_tuple(np.ones((1, 1, 1)), kind="general" if hereditary else "symmetric")
    decider = ns.decide_hereditary if hereditary else ns.decide
    with pytest.raises(DimensionTooLarge, match="4225x4225"):
        decider(f, g, slater)


def test_decide_reconciles_smaller_qf():
    # f has q=1, g has q=2; f is padded before the search
    f = ns.new_quad_poly(np.ones((1, 1, 1, 1)))  # x1 x1
    g = ns.new_quad_poly(np.stack([np.stack([np.eye(2)])]))  # diag(x1x1, x1x1)
    slater = ns.new_tuple([[[1.0]]])
    decision = ns.decide(f, g, slater)
    assert decision.kind == "certificate"
    assert decision.certificate.J.s == 2
    assert ns.verify_certificate(decision.certificate, f, g)


def test_decide_reconciles_larger_qf():
    # f has q=2, g has q=1; g is repeated blockwise
    f = ns.new_quad_poly(np.stack([np.stack([np.eye(2)])]))
    g = ns.new_quad_poly(np.ones((1, 1, 1, 1)))
    slater = ns.new_tuple([[[1.0]]])
    decision = ns.decide(f, g, slater)
    assert decision.kind == "certificate"
    assert decision.certificate.J.s == 2
    assert ns.verify_certificate(decision.certificate, f, g)


def test_decide_hereditary_counterexample():
    f, g = scalar_embedded_pair()
    decision = ns.decide_hereditary(f, g, unit_slater())
    assert decision.kind == "counterexample"
    ce = decision.counterexample
    assert isinstance(ce, ns.HereditaryCounterexample)
    assert ns.verify_counterexample(ce, f, g)
    # no projection needed: g at the point is PSD outright
    assert ns.is_psd(ns.evaluate_hereditary(g, ce.X), 1e-8)


def test_hereditary_counterexample_q1_structure():
    f, g = scalar_embedded_pair()
    sep = ns.find_separator(f, g)
    ce = ns.build_counterexample_hereditary(f, g, sep.M)
    # q = 1: the variables are zero-padded rows and g(X) embeds <B, M> at (0, 0)
    gX = ns.evaluate_hereditary(g, ce.X)
    assert gX[0, 0] == pytest.approx(float(np.sum(ns.coefficient_matrix(g) * ce.M)),
                                     abs=1e-10)
    fX = ns.evaluate_hereditary(f, ce.X)
    assert float(ce.E @ fX @ ce.E) == pytest.approx(ce.violation)


@pytest.mark.parametrize("hereditary", [False, True])
def test_builders_accept_through_the_verifier_evaluations(monkeypatch, hereditary):
    # the builder evaluates g and f once at its point, as verify_counterexample does
    f, g = scalar_embedded_pair()
    sep = ns.find_separator(f, g)
    name = "evaluate_hereditary" if hereditary else "evaluate_compressed"
    build = ns.build_counterexample_hereditary if hereditary else ns.build_counterexample
    calls = []
    evaluate = getattr(slemma, name)
    monkeypatch.setattr(slemma, name, lambda *args: calls.append(args[0]) or evaluate(*args))
    ce = build(f, g, sep.M)
    assert calls == [g, f]
    assert ns.verify_counterexample(ce, f, g)
    assert calls == [g, f, g, f]


def test_decide_hereditary_certificate():
    from helpers import random_psd_poly

    rng = np.random.default_rng(3)
    f = random_psd_poly(rng, 2, 2)
    f = poly_from_matrix(ns.coefficient_matrix(f) + np.eye(4), 2, 2)
    slater = ns.new_tuple(np.stack([np.eye(2), np.eye(2)]), kind="general")
    decision = ns.decide_hereditary(f, f, slater)
    assert decision.kind == "certificate"


def test_homogenize_worked_example():
    quad = ns.new_quad_poly(np.array([[np.diag([1.0, 0.0])]]))
    A1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    A0 = np.diag([0.0, 1.0])
    res = ns.homogenize(quad, [A1], A0)
    assert res.feasible
    assert res.lambda_min >= -1e-8
    H = res.h_blocks[0]
    assert np.linalg.norm(H + H.T - A1) <= 1e-10
    # the found coefficient matrix matches the PSD homogenization up to skew freedom
    expected = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    assert np.linalg.norm(res.coefficient - expected) <= 1e-4


def test_homogenize_recovers_affine_evaluation():
    rng = np.random.default_rng(4)
    quad = ns.new_quad_poly(blocks_from_matrix(np.eye(4) * 2.0, 2, 2))
    linear = np.stack([np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2))])
    const = np.eye(2)
    res = ns.homogenize(quad, linear, const)
    assert res.feasible
    h = ns.homogenized_poly(quad, res)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        X = random_sym_tuple(rng, 2, n)
        ext = ns.new_tuple(np.concatenate([np.eye(n)[None], X.mats]))
        direct = ns.evaluate(quad, X)
        for i in range(2):
            direct += np.kron(linear[i], X.mats[i])
        direct += np.kron(const, np.eye(n))
        assert np.linalg.norm(ns.evaluate(h, ext) - direct) <= 1e-8
    # a feasible homogenization evaluates PSD everywhere
    for _ in range(50):
        ext = random_sym_tuple(rng, 3, int(rng.integers(1, 4)))
        assert ns.is_psd(ns.evaluate(h, ext), 1e-8)


def test_homogenize_trivial_cases():
    from helpers import random_psd_poly

    rng = np.random.default_rng(5)
    quad = random_psd_poly(rng, 2, 2)
    res = ns.homogenize(quad, np.zeros((2, 2, 2)), np.eye(2))
    assert res.feasible
    assert np.abs(res.h_blocks).max() <= 1e-9  # K = 0 suffices

    bad = ns.homogenize(ns.new_quad_poly(np.zeros((1, 1, 2, 2))),
                        np.zeros((1, 2, 2)), np.diag([1.0, -1.0]))
    assert not bad.feasible
    assert bad.lambda_min == pytest.approx(-1.0)


def test_verify_certificate_rejects_tampering():
    f, g = example_62_f(), example_62_g()
    cert = ns.certify(f, g).certificate
    assert ns.verify_certificate(cert, f, g)

    J = cert.J.J.copy()
    J[0, 0] -= 1e-3
    tampered = ns.CPCertificate(J=ns.new_choi(J, 2, 2), residual=cert.residual,
                                residual_lambda_min=cert.residual_lambda_min)
    assert not ns.verify_certificate(tampered, f, g)

    zero = ns.CPCertificate(J=ns.new_choi(np.zeros((4, 4)), 2, 2),
                            residual=cert.residual, residual_lambda_min=0.0)
    assert not ns.verify_certificate(zero, f, g)


def test_verify_certificate_rejects_on_huge_coefficients():
    # f = 1e200 (x1x2 + x2x1) is not dominated by g = 1e200 x1x1, and the
    # residual's plain sum of squares overflows.
    f, g = scalar_embedded_pair()
    f = ns.new_quad_poly(1e200 * f.blocks)
    g = ns.new_quad_poly(1e200 * g.blocks)
    J = ns.new_choi(np.eye(1), 1, 1)
    residual = ns.coefficient_matrix(f) - _map_coefficients(J.J, g.blocks, 1)
    cert = ns.CPCertificate(J=J, residual=residual, residual_lambda_min=-1e200)
    assert not ns.verify_certificate(cert, f, g)


def huge_block_identity_instance():
    """Random 2 x 2 f over g = block identity (g(X) = sum X_i^2 (x) 1), scaled by 1e17."""
    rng = np.random.default_rng(0)
    f = random_poly(rng, 2, 2, scale=1e17)
    g = ns.new_quad_poly(1e17 * np.einsum("ij,ab->ijab", np.eye(2), np.eye(2)))
    return f, g, ns.new_tuple(np.ones((2, 1, 1)))


@pytest.mark.parametrize("hereditary", [False, True])
def test_decide_huge_coefficients_returns_verified_object(hereditary):
    # The searches project matrices whose top eigenvalue exceeds 2^53, where
    # roundoff rejects every index of the simplex shift.
    f, g, slater = huge_block_identity_instance()
    decider = ns.decide_hereditary if hereditary else ns.decide
    d = decider(f, g, slater, budget=300)
    assert d.kind in ("certificate", "counterexample")
    if d.kind == "certificate":
        assert ns.verify_certificate(d.certificate, f, g)
    else:
        assert ns.verify_counterexample(d.counterexample, f, g)


@pytest.mark.parametrize("hereditary", [False, True])
def test_decide_supergradient_norm_near_the_largest_float(hereditary):
    # The certify supergradient has norm ~1.1e308, so sqrt(k) * norm in the
    # first step size overflows; the filterwarnings setting turns the
    # overflow warning into an error.
    f = ns.new_quad_poly((5e307 * np.diag([-1.0, 0.3])).reshape(1, 1, 2, 2))
    g = ns.new_quad_poly((5e307 * np.diag([1.0, 0.5])).reshape(1, 1, 2, 2))
    decider = ns.decide_hereditary if hereditary else ns.decide
    d = decider(f, g, ns.new_tuple([[[0.5]]]))
    assert d.kind == "counterexample"
    assert ns.verify_counterexample(d.counterexample, f, g)
    assert ns.certify(f, g, budget=200).certificate is None  # the whole certify search


@pytest.mark.parametrize("hereditary", [False, True])
def test_verify_counterexample_rejects_a_2d_witness(hereditary):
    f, g = scalar_embedded_pair()
    decider = ns.decide_hereditary if hereditary else ns.decide
    ce = decider(f, g, unit_slater()).counterexample
    assert ns.verify_counterexample(ce, f, g)
    for E in (ce.E.reshape(-1, 1), ce.E.reshape(1, -1)):
        assert ns.verify_counterexample(dataclasses.replace(ce, E=E), f, g) is False


def test_verify_certificate_wrong_instance():
    f, g = example_62_f(), example_62_g()
    cert = ns.certify(f, g).certificate
    other = ns.scalar_to_nc(ns.new_scalar_quad([[0.0, 1.0], [1.0, 0.0]]))
    other = ns.pad_coefficients(other, 2)
    assert not ns.verify_certificate(cert, other, g)


def test_certificate_soundness_with_compressions():
    rng = np.random.default_rng(6)
    f, g, _ = planted_certificate_instance(rng, 2, 2)
    cert = ns.certify(f, g).certificate
    assert cert is not None
    for _ in range(20):
        n = int(rng.integers(2, 5))
        X = random_sym_tuple(rng, 2, n)
        gap = ns.evaluate(f, X) - ns.apply_map_blockwise(
            cert.J, ns.evaluate(g, X))
        assert ns.is_psd(gap, 1e-8)
        # orthogonal projection compression
        k = int(rng.integers(1, n + 1))
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        P = U[:, :k] @ U[:, :k].T
        gap_p = ns.evaluate_compressed(f, X, P) - ns.apply_map_blockwise(
            cert.J, ns.evaluate_compressed(g, X, P))
        assert ns.is_psd(gap_p, 1e-8)
        # rectangular compression
        Q = rng.standard_normal((n, int(rng.integers(1, 4))))
        gap_q = ns.evaluate_compressed(f, X, Q) - ns.apply_map_blockwise(
            cert.J, ns.evaluate_compressed(g, X, Q))
        assert ns.is_psd(gap_q, 1e-8)


def test_mutual_exclusion_sample():
    rng = np.random.default_rng(7)
    both = 0
    for trial in range(40):
        m = int(rng.integers(1, 3))
        q = int(rng.integers(1, 3))
        roll = rng.random()
        if roll < 0.4:
            f, g, _ = planted_certificate_instance(rng, m, q)
        elif roll < 0.8:
            f, g, _ = refutable_instance(rng, m, q)
        else:
            f, g = random_poly(rng, m, q), random_poly(rng, m, q)
        cert = ns.certify(f, g, budget=1200, seed=trial)
        sep = ns.find_separator(f, g, budget=1200, seed=trial + 1)
        cert_ok = cert.certificate is not None and cert.best_value >= 1e-6
        sep_ok = (sep.M is not None and sep.b_margin >= 1e-6
                  and sep.a_value <= -1e-6)
        if cert_ok and sep_ok:
            both += 1
    assert both == 0


def test_decide_inconclusive_scale_gap():
    # f = x1x1, g = 4 x1x1: dominated with multiplier 1/4, but the trace-one
    # normalization pins lambda = 1 at q = 1 and no separator exists either,
    # so the honest outcome is inconclusive
    f = ns.new_quad_poly(np.ones((1, 1, 1, 1)))
    g = ns.new_quad_poly(4.0 * np.ones((1, 1, 1, 1)))
    decision = ns.decide(f, g, ns.new_tuple([[[1.0]]]), budget=1500)
    assert decision.kind == "inconclusive"
    assert decision.diagnostics["certify_best"] == pytest.approx(-3.0)


def test_weak_duality_identity():
    # <A, M> = <residual, M> + <(1 (x) phi) B, M>, and the second term is
    # <sum B_ij (x) M_ij, J> up to the tensor-factor swap
    rng = np.random.default_rng(8)
    for _ in range(20):
        m, q = 2, 2
        g = random_poly(rng, m, q)
        f = random_poly(rng, m, q)
        from helpers import random_sym

        J = ns.spectraplex_project(random_sym(rng, q * q))
        M = ns.spectraplex_project(random_sym(rng, m * q))
        calA = ns.coefficient_matrix(f)
        residual = calA - _map_coefficients(J, g.blocks, q)
        lhs = float(np.sum(calA * M))
        mid = float(np.sum(residual * M)) + float(
            np.sum(_map_coefficients(J, g.blocks, q) * M))
        assert lhs == pytest.approx(mid, abs=1e-10)
        # pairing identity for the B-term
        u = ns.shuffle(q, q).u
        pair1 = float(np.sum(_map_coefficients(J, g.blocks, q) * M))
        pair2 = float(np.sum(_b_term(M, g.blocks, q) * (u @ J @ u.T)))
        assert pair1 == pytest.approx(pair2, abs=1e-10)
