import dataclasses
import warnings

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
    VerificationFailed,
)
from ncslemma.poly import blocks_from_matrix
from ncslemma.slemma import _b_term, _map_coefficients

from helpers import (
    decided_both_ways,
    planted_certificate,
    planted_certificate_instance,
    poly_from_matrix,
    random_poly,
    random_sym_tuple,
    refutable_instance,
    slater_poly,
)
from test_poly import example_62_f, example_62_g
from test_race import evals  # noqa: F401  (the bench's evaluation counter, a fixture)


def scalar_embedded_pair():
    """f = x1x2 + x2x1, g = x1x1 as q=1 matrix-valued polynomials."""
    f = ns.scalar_to_nc(ns.new_scalar_quad([[0.0, 1.0], [1.0, 0.0]]))
    g = ns.scalar_to_nc(ns.new_scalar_quad([[1.0, 0.0], [0.0, 0.0]]))
    return f, g


def unit_slater():
    return ns.new_tuple([[[1.0]], [[0.0]]])


def test_certify_example_62():
    f, g = example_62_f(), example_62_g()
    out = ns.certify(f, g, unit_slater())
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
        out = ns.certify(f, f, ns.new_tuple(np.ones((m, 1, 1))))  # f's coefficients are PD
        assert out.certificate is not None
        assert ns.verify_certificate(out.certificate, f, f)


def test_certify_planted():
    rng = np.random.default_rng(1)
    for _ in range(8):
        m = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        g, x = slater_poly(rng, m, q)
        f, g, _ = planted_certificate_instance(rng, m, q, g=g)
        out = ns.certify(f, g, ns.new_tuple(x.reshape(m, 1, 1)))
        assert out.certificate is not None
        assert out.certificate.residual_lambda_min >= -1e-6
        assert ns.verify_certificate(out.certificate, f, g)


def test_certify_shape_mismatch():
    f, _ = scalar_embedded_pair()
    with pytest.raises(ShapeMismatch):
        ns.certify(f, example_62_g(), unit_slater())


def test_find_separator_scalar_embedding():
    f, g = scalar_embedded_pair()
    sep = ns.find_separator(f, g, unit_slater())
    assert sep.M is not None
    assert sep.a_value <= -2e-6  # the search's cut, -2 tol_strict
    assert sep.a_value == pytest.approx(float(np.sum(ns.coefficient_matrix(f) * sep.M)), abs=1e-12)
    assert sep.b_margin >= 0.0
    assert np.trace(sep.M) == pytest.approx(1.0) and np.linalg.eigvalsh(sep.M)[0] >= -1e-12


def test_find_separator_not_found_when_certificate_exists():
    f, g = example_62_f(), example_62_g()
    sep = ns.find_separator(f, g, unit_slater(), budget=3000)
    assert sep.M is None


def test_build_counterexample_scalar_embedding():
    f, g = scalar_embedded_pair()
    sep = ns.find_separator(f, g, unit_slater())
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


@pytest.mark.parametrize("hereditary", [False, True])
def test_builders_reject_a_separator_whose_b_term_is_not_psd(hereditary):
    # f = -x1x1, g = x1x1 - x2x2: at M = e2 e2^T the B-term B_22 M_22 = -1 is
    # rejected first (<A, M> = 0 would fail too)
    f = ns.scalar_to_nc(ns.new_scalar_quad([[-1.0, 0.0], [0.0, 0.0]]))
    g = ns.scalar_to_nc(ns.new_scalar_quad([[1.0, 0.0], [0.0, -1.0]]))
    build = ns.build_counterexample_hereditary if hereditary else ns.build_counterexample
    with pytest.raises(PreconditionViolated, match=r"sum B_ij \(x\) M_ij is not PSD"):
        build(f, g, np.diag([0.0, 1.0]))


@pytest.mark.parametrize("hereditary", [False, True])
def test_builders_reject_a_separator_that_is_not_psd(hereditary):
    # f = -I, g = I: M = diag(1, -0.5) passes both separator inequalities
    # (B-term 0.5, <A, M> = -0.5 before the scale), but M itself is not PSD
    f = ns.scalar_to_nc(ns.new_scalar_quad(-np.eye(2)))
    g = ns.scalar_to_nc(ns.new_scalar_quad(np.eye(2)))
    build = ns.build_counterexample_hereditary if hereditary else ns.build_counterexample
    with pytest.raises(PreconditionViolated, match="separator is not PSD"):
        build(f, g, np.diag([1.0, -0.5]))


def retry_pair():
    """f = diag(-1, 0) x^2 and g = I_2 x^2: every PSD M with M_00 > 0 separates."""
    return ns.new_quad_poly([[np.diag([-1.0, 0.0])]]), ns.new_quad_poly([[np.eye(2)]])


@pytest.mark.parametrize("hereditary", [False, True])
@pytest.mark.parametrize("eps, rank, cutoffs", [
    # 1.5e-8 is below the first cutoff 1e-8 (1 + ||M||_F), so rank 1 leaves a block
    # error of 1.5e-8 > 1e-8; the retry at a 10x finer cutoff keeps it
    (1.5e-8, 2, [1e-8, 1e-9]),
    (1e-12, 1, [1e-8]),
])
def test_builders_retry_at_a_finer_rank_cutoff(monkeypatch, hereditary, eps, rank, cutoffs):
    f, g = retry_pair()
    build = ns.build_counterexample_hereditary if hereditary else ns.build_counterexample
    seen = []
    factor = slemma.psd_factor
    monkeypatch.setattr(slemma, "psd_factor", lambda S, tol: seen.append(tol) or factor(S, tol))
    ce = build(f, g, np.diag([1.0 - eps, eps]))
    assert (ce.rank, seen) == (rank, cutoffs)
    assert ns.verify_counterexample(ce, f, g)


@pytest.mark.parametrize("hereditary", [False, True])
def test_builders_report_the_block_error_when_both_cutoffs_fail(hereditary):
    # with ||M||_F = 1000 both cutoffs (~1e-5 and ~1e-6) drop the eigenvalue 5e-7
    f, g = retry_pair()
    build = ns.build_counterexample_hereditary if hereditary else ns.build_counterexample
    with pytest.raises(VerificationFailed, match=r"block error=5\.000e-07"):
        build(f, g, np.diag([1e3, 5e-7]))


@pytest.mark.parametrize("hereditary", [False, True])
def test_builders_fail_verification_when_the_finer_cutoff_rejects_m(hereditary):
    # lambda_min(M) = -5e-9 passes the separator checks at tol (2e-8 here), but
    # rank 1 leaves a block error of 1.6e-8, and at tol / 10 M is not PSD: that
    # retry fails as a check does, not with linalg's NotPSD
    f = ns.new_quad_poly([[np.diag([-1.0, 0.0, 0.0])]])
    g = ns.new_quad_poly([[np.eye(3)]])
    build = ns.build_counterexample_hereditary if hereditary else ns.build_counterexample
    with pytest.raises(VerificationFailed, match=r"rank cutoff 1\.0e-09: lambda_min = -5\.000e-09"):
        build(f, g, np.diag([1.0 - 1.5e-8, 1.5e-8, -5e-9]))


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


def test_searches_draw_no_random_numbers(monkeypatch):
    # Each search is one ascent from the center of its spectraplex: no seed,
    # no random start, so no generator is ever built.
    rng = np.random.default_rng(23)
    g, x = slater_poly(rng, 2, 2)
    slater = ns.new_tuple(x.reshape(2, 1, 1))
    f_cert, _, _ = planted_certificate_instance(rng, 2, 2, g=g)
    f_ref, _, _ = refutable_instance(rng, 2, 2, g=g)

    def no_rng(*args, **kwargs):
        raise AssertionError("a search drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    monkeypatch.setattr(np.random, "RandomState", no_rng)
    for f, kind in ((f_cert, "certificate"), (f_ref, "counterexample")):
        assert ns.decide(f, g, slater, budget=300).kind == kind
        assert ns.decide_hereditary(f, g, slater, budget=300).kind == kind
    assert ns.certify(f_cert, g, slater, budget=300).certificate is not None
    assert ns.find_separator(f_ref, g, slater, budget=300).M is not None
    _, value = ns.maximize_spectral(lambda M: (float(M[0, 0]), np.diag([1.0, 0.0])), 2,
                                    budget=300)
    assert value == pytest.approx(1.0)


def test_decide_records_a_separator_the_builder_rejects(monkeypatch):
    # the builder's separator checks are the only ones decide applies: their
    # PreconditionViolated ends the decision inconclusive, with its message kept
    rng = np.random.default_rng(9)
    g, x = slater_poly(rng, 2, 2)
    f, g, _ = refutable_instance(rng, 2, 2, g=g)

    def reject(*args):
        raise PreconditionViolated("separator rejected")

    monkeypatch.setattr(slemma, "_checked_separator", reject)
    decision = ns.decide(f, g, ns.new_tuple(x.reshape(2, 1, 1)))
    assert decision.kind == "inconclusive"
    assert decision.diagnostics["counterexample_error"] == "separator rejected"


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


@pytest.mark.parametrize("hereditary", [False, True])
def test_decide_with_g_slater_past_the_float_range_refutes(hereditary):
    # valid at 3e307, but g(slater) = 3e307 * (2 + 1 + 1 + 2) is past the largest
    # float: the Slater test evaluates g / 2^a at slater / 2^b instead, and f
    # is not PSD at x = (0, 1), where g is, so the verdict is a counterexample
    # that verifies, without an overflow warning
    f = ns.new_quad_poly(3e307 * np.array([[1.0, 0.5], [0.5, -1.0]]).reshape(2, 2, 1, 1))
    g = ns.new_quad_poly(3e307 * np.array([[2.0, 1.0], [1.0, 2.0]]).reshape(2, 2, 1, 1))
    slater = ns.new_tuple(np.ones((2, 1, 1)), kind="general" if hereditary else "symmetric")
    decider = ns.decide_hereditary if hereditary else ns.decide
    d = decider(f, g, slater)
    assert d.kind == "counterexample"
    assert ns.verify_counterexample(d.counterexample, f, g)


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
    sep = ns.find_separator(f, g, unit_slater())
    ce = ns.build_counterexample_hereditary(f, g, sep.M)
    # q = 1: the variables are zero-padded rows and g(X) embeds <B, M> at (0, 0)
    gX = ns.evaluate_hereditary(g, ce.X)
    assert gX[0, 0] == pytest.approx(float(np.sum(ns.coefficient_matrix(g) * ce.M)),
                                     abs=1e-10)
    fX = ns.evaluate_hereditary(f, ce.X)
    assert float(ce.E @ fX @ ce.E) == pytest.approx(ce.violation)


@pytest.mark.parametrize("hereditary", [False, True])
def test_builders_accept_through_the_verifier_evaluations(monkeypatch, hereditary):
    # the builder and verify_counterexample each evaluate g and f once at the
    # point, both on f and g over their 2^e, so verify sees the builder's
    # sides, bit for bit.  Both compress to the point's support.
    from ncslemma import poly

    f, g = (ns.new_quad_poly(3.0 * p.blocks) for p in scalar_embedded_pair())
    sep = ns.find_separator(f, g, unit_slater())
    build = ns.build_counterexample_hereditary if hereditary else ns.build_counterexample
    calls = []
    gram_form = poly._gram_form

    def recording(p, mats):
        calls.append(p.blocks)
        return gram_form(p, mats)

    for mod in (poly, slemma):  # evaluate_compressed calls poly's, the hereditary side slemma's
        monkeypatch.setattr(mod, "_gram_form", recording)
    f2, g2, e = slemma._scaled(f, g)
    assert e == 3  # ||A||_F = 3 sqrt(2)
    ce = build(f, g, sep.M)
    assert ns.verify_counterexample(ce, f, g)
    assert len(calls) == 4
    for got, want in zip(calls, [g2, f2, g2, f2]):
        np.testing.assert_array_equal(got, want.blocks)
    assert slemma._sides(ce, f2, g2)[1] == ce.violation / 2.0 ** e


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


def test_homogenize_q1_is_one_counted_evaluation(evals):
    # at q = 1 there is no skew freedom: the search stops after one
    # evaluation, K = 0, and the bench counts it
    quad = ns.new_quad_poly(np.array([[[[2.0]]]]))
    res = ns.homogenize(quad, [[[1.0]]], [[1.0]])
    assert evals == [1]
    assert res.feasible
    assert res.h_blocks.tolist() == [[[0.5]]]
    assert res.coefficient.tolist() == [[1.0, 0.5], [0.5, 2.0]]
    assert res.lambda_min == pytest.approx((3.0 - np.sqrt(2.0)) / 2.0)


@pytest.mark.parametrize("shift,searched", [(-1e-3, False), (-0.5e-9, True)])
@pytest.mark.parametrize("block", ["constant", "quad"])
def test_homogenize_searches_only_if_the_principal_blocks_allow(evals, block, shift, searched):
    # A0 and the quadratic part are principal blocks of every homogenization:
    # with lambda_min below -tol on either, none is PSD and no evaluation runs
    from helpers import random_psd_poly, random_sym

    rng = np.random.default_rng(17)
    m, q, tol = 2, 3, 1e-9
    linear = np.stack([random_sym(rng, q) for _ in range(m)])
    quad, constant = random_psd_poly(rng, m, q), np.eye(q)
    if block == "constant":
        constant = np.diag([1.0, 2.0, shift])
    else:
        calA = ns.coefficient_matrix(quad)
        shifted = calA - (np.linalg.eigvalsh(calA)[0] - shift) * np.eye(m * q)
        quad = ns.new_quad_poly(blocks_from_matrix(shifted, m, q))
    res = ns.homogenize(quad, linear, constant, budget=50, tol=tol)
    assert (evals[0] > 0) == searched
    assert res.lambda_min == np.linalg.eigvalsh(res.coefficient)[0]
    assert res.lambda_min <= shift + 1e-12
    if not searched:
        assert not res.feasible
        assert np.array_equal(res.h_blocks, linear / 2.0)  # K = 0


def test_a_planted_rank_deficient_homogenization_is_found():
    # C = W W^T / 9, W 9 x 5, so C has rank 5 and no PSD margin, and its mixed blocks are not
    # symmetric, so K = 0 is not PSD.  The supergradient ascent this search replaced ended at
    # lambda_min -5.5e-7 within the same budget.
    m, q = 2, 3
    W = np.random.default_rng(6).standard_normal((9, 5))
    C = W @ W.T / 9
    H = np.stack([C[(i + 1) * q:(i + 2) * q, :q] for i in range(m)])
    linear = H + H.transpose(0, 2, 1)
    quad = ns.new_quad_poly(blocks_from_matrix(C[q:, q:], m, q))
    at_zero = C.copy()
    at_zero[q:, :q] = (linear / 2.0).reshape(m * q, q)
    at_zero[:q, q:] = at_zero[q:, :q].T
    assert np.linalg.eigvalsh(at_zero)[0] < -1e-3
    res = ns.homogenize(quad, linear, C[:q, :q], budget=500)
    assert res.feasible
    assert np.abs(res.h_blocks + res.h_blocks.transpose(0, 2, 1) - linear).max() <= 1e-12


def test_verify_certificate_rejects_tampering():
    f, g = example_62_f(), example_62_g()
    cert = ns.certify(f, g, unit_slater()).certificate
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
    assert ns.certify(f, g, ns.new_tuple([[[0.5]]]), budget=200).certificate is None


@pytest.mark.parametrize("hereditary", [False, True])
def test_verify_counterexample_rejects_a_2d_witness(hereditary):
    f, g = scalar_embedded_pair()
    decider = ns.decide_hereditary if hereditary else ns.decide
    ce = decider(f, g, unit_slater()).counterexample
    assert ns.verify_counterexample(ce, f, g)
    for E in (ce.E.reshape(-1, 1), ce.E.reshape(1, -1)):
        assert ns.verify_counterexample(dataclasses.replace(ce, E=E), f, g) is False


@pytest.mark.parametrize("hereditary", [False, True])
def test_verify_counterexample_rejects_a_missing_or_mismatched_point(hereditary):
    f, g = scalar_embedded_pair()
    decider = ns.decide_hereditary if hereditary else ns.decide
    ce = decider(f, g, unit_slater()).counterexample
    assert ns.verify_counterexample(ce, f, g)
    other_m = ns.new_tuple(ce.X.mats[:1], kind=ce.X.kind)  # one variable where f has two
    for X in (None, other_m):
        assert ns.verify_counterexample(dataclasses.replace(ce, X=X), f, g) is False


def test_verify_certificate_rejects_instances_of_different_m():
    f, g = example_62_f(), example_62_g()
    cert = ns.certify(f, g, unit_slater()).certificate
    assert ns.verify_certificate(cert, f, g)
    g3 = ns.new_quad_poly(np.zeros((3, 3, g.q, g.q)))  # m = 3 against f's 2: reconcile refuses
    assert ns.verify_certificate(cert, f, g3) is False


def test_verify_certificate_wrong_instance():
    f, g = example_62_f(), example_62_g()
    cert = ns.certify(f, g, unit_slater()).certificate
    other = ns.scalar_to_nc(ns.new_scalar_quad([[0.0, 1.0], [1.0, 0.0]]))
    other = ns.pad_coefficients(other, 2)
    assert not ns.verify_certificate(cert, other, g)


def test_certificate_soundness_with_compressions():
    rng = np.random.default_rng(6)
    g, x = slater_poly(rng, 2, 2)
    f, g, _ = planted_certificate_instance(rng, 2, 2, g=g)
    cert = ns.certify(f, g, ns.new_tuple(x.reshape(2, 1, 1))).certificate
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
    # Certificates and counterexamples exclude each other.  Each pair is decided in both kinds,
    # which must agree, against the planted answer: a planted certificate, verified, must not
    # meet a verified counterexample, and a counterexample built from a planted separator
    # must not meet a verified certificate.  Random pairs, f and g both drawn at random, go
    # through the same checks whenever the drawn point is a Slater point of g.
    rng = np.random.default_rng(7)
    kinds = []
    for trial in range(40):
        m = int(rng.integers(1, 3))
        q = int(rng.integers(1, 3))
        roll = rng.random()
        if roll < 0.8:
            g, x = slater_poly(rng, m, q)
        else:
            g, x = random_poly(rng, m, q), rng.standard_normal(m)
        slater = ns.new_tuple(x.reshape(m, 1, 1))
        if roll < 0.4:
            f, g, J0 = planted_certificate_instance(rng, m, q, g=g)
            planted, want = [planted_certificate(f, g, J0)], "certificate"
        elif roll < 0.8:
            f, g, Mstar = refutable_instance(rng, m, q, g=g)  # g gains a PSD shift: x stays Slater
            planted, want = [ns.build_counterexample(f, g, Mstar)], "counterexample"
        else:
            f, planted, want = random_poly(rng, m, q), [], None
        try:
            kind = decided_both_ways(f, g, slater, 1200, planted)
        except ns.SlaterViolated:
            assert want is None
            continue
        assert kind == want or want is None
        kinds.append((want, kind))
    assert sum(want is None for want, _ in kinds) >= 1


def test_decide_certifies_the_scale_gap_at_q1():
    # f = x1x1, g = 4 x1x1: every multiplier in [0, 1/4] certifies, none of
    # them on the trace-one slice J = [[1]].  A certificate's scale is not
    # fixed, and f alone is PSD, so h(lambda) = 1 - 4 lambda falls at 0 and
    # the certificate is J = [[0]]
    f = ns.new_quad_poly(np.ones((1, 1, 1, 1)))
    g = ns.new_quad_poly(4.0 * np.ones((1, 1, 1, 1)))
    decision = ns.decide(f, g, ns.new_tuple([[[1.0]]]), budget=1500)
    assert decision.kind == "certificate"
    assert decision.certificate.J.J.tolist() == [[0.0]]
    assert decision.diagnostics["certify_best"] == decision.certificate.residual_lambda_min == 1.0
    assert ns.verify_certificate(decision.certificate, f, g)


def test_verify_accepts_a_certificate_of_any_trace():
    # f = x1x1 (x) I_2, g = 4 x1x1 (x) I_2: phi = id / 4, of trace 1/2, leaves
    # the residual I_2 - 4 phi(I_2) = 0, and every f(X) - (phi (x) 1) g(X) is 0
    f = ns.new_quad_poly(np.eye(2).reshape(1, 1, 2, 2))
    g = ns.new_quad_poly(4.0 * np.eye(2).reshape(1, 1, 2, 2))
    J = ns.new_choi(ns.identity_choi(2).J / 4.0, 2, 2)
    residual = ns.coefficient_matrix(f) - _map_coefficients(J.J, g.blocks, 2)
    cert = ns.CPCertificate(J=J, residual=residual, residual_lambda_min=0.0)
    assert np.trace(J.J) == 0.5 and not residual.any()
    assert ns.verify_certificate(cert, f, g)


def test_verify_rejects_a_residual_however_large_phi_is():
    # f = -1e-6 x1x1, g = -x2x2 is not dominated: X = (1, 0) gives g = 0, f < 0.
    # The residual diag(-1e-6, lambda) is not PSD for any lambda, and a large
    # lambda must not widen the tolerance it is held to.
    f = ns.scalar_to_nc(ns.new_scalar_quad(np.diag([-1e-6, 0.0])))
    g = ns.scalar_to_nc(ns.new_scalar_quad(np.diag([0.0, -1.0])))
    for lam in [0.0, 1.0, 1e4, 1e12, 1e300]:
        J = ns.new_choi(np.full((1, 1), lam), 1, 1)
        cert = ns.CPCertificate(J=J, residual=np.diag([-1e-6, lam]))
        assert not ns.verify_certificate(cert, f, g)


def test_verify_checks_the_map_of_the_psd_part_of_j():
    # f = -1e-6 x1x1 (x) I_2, g = x1x1 (x) diag(1, 0) is not dominated: X = 1
    # gives g = diag(1, 0), f < 0.  J = 1e4 k k^T - 1e-6 (l1 l1^T + l2 l2^T)
    # passes J's own PSD test at 1e-8 (1 + ||J||_F), and its negative part
    # cancels the residual exactly; the CP map of J's PSD part leaves f's
    # -1e-6 I_2, which fails.
    f = ns.new_quad_poly(-1e-6 * np.eye(2).reshape(1, 1, 2, 2))
    g = ns.new_quad_poly(np.diag([1.0, 0.0]).reshape(1, 1, 2, 2))
    k, l1, l2 = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2.0), np.eye(4)[0], np.eye(4)[2]
    J = 1e4 * np.outer(k, k) - 1e-6 * (np.outer(l1, l1) + np.outer(l2, l2))
    residual = ns.coefficient_matrix(f) - _map_coefficients(J, g.blocks, 2)
    assert ns.is_psd(J) and not residual.any()
    assert not ns.verify_certificate(ns.CPCertificate(J=ns.new_choi(J, 2, 2), residual=residual), f, g)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_verify_of_a_choi_matrix_near_the_float_range_fails_or_verifies(sign):
    # phi = 4e307 id on x1x1 (x) I_2 against +-4 x1x1 (x) I_2: the residual is
    # about -+1.6e308 I_2, so the residual check fails for +; for - phi is a
    # certificate, and the spot-check gaps, past the float range at the
    # seeded tuples, are recomputed at the tuples scaled down.  Neither
    # warns nor reaches an eigensolve error.
    f = ns.new_quad_poly(np.eye(2).reshape(1, 1, 2, 2))
    g = ns.new_quad_poly(sign * 4.0 * np.eye(2).reshape(1, 1, 2, 2))
    cert = ns.CPCertificate(J=ns.new_choi(4e307 * ns.identity_choi(2).J, 2, 2), residual=np.zeros((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ns.verify_certificate(cert, f, g) == (sign < 0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("scale", [1e160, 1e200, 4e307])
def test_verify_divides_a_huge_choi_matrix_by_its_own_power_of_two(scale, sign):
    # phi = scale id against +-4 x1x1 (x) I_2: the gaps at the seeded tuples
    # would be past the float range, but verify divides J and f by J's 2^j,
    # so every gap it forms is finite.  For - phi is a certificate and passes
    # the residual and every spot check; for + the residual fails, and so do
    # the spot checks.  No warning either way.
    f = ns.new_quad_poly(np.eye(2).reshape(1, 1, 2, 2))
    g = ns.new_quad_poly(sign * 4.0 * np.eye(2).reshape(1, 1, 2, 2))
    J = scale * ns.identity_choi(2).J
    cert = ns.CPCertificate(J=ns.new_choi(J, 2, 2), residual=np.zeros((2, 2)))
    f2, g2, e = slemma._scaled(f, g)
    j = ns.linalg.binade(J)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ns.verify_certificate(cert, f, g) == (sign < 0)
        spot = slemma._spot_checks_pass(slemma._times(f2, -j), g2, 2.0 ** -j, np.ldexp(J, -j),
                                        ns.DEFAULT_TOL, 42)
        assert spot == (sign < 0)
        # phi(E_11) = -scale E_11 puts about -scale X^2 / 2 in the first diagonal block
        # of each gap; J's own PSD test rejects it before any gap is formed
        flipped = J.copy()
        flipped[0, 0] = -scale
        assert not ns.verify_certificate(ns.CPCertificate(J=ns.new_choi(flipped, 2, 2),
                                                          residual=np.zeros((2, 2))), f, g)


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


def test_refutable_instance_builds_the_largest_bench_size():
    # the diagonal shift is chosen in closed form, so (6, 8) builds, and its
    # planted separator has the margin asked for
    rng = np.random.default_rng(68)
    f, g, Mstar = refutable_instance(rng, 6, 8)
    assert np.linalg.eigvalsh(_b_term(Mstar, g.blocks, 8))[0] >= 0.05 - 1e-12
    assert float(np.sum(ns.coefficient_matrix(f) * Mstar)) < 0.0
    g_at = np.einsum("ijab->ab", g.blocks)  # g at the 1x1 tuple (1, ..., 1)
    assert np.linalg.eigvalsh(g_at)[0] > 1e-6
    decision = ns.decide(f, g, ns.new_tuple(np.ones((6, 1, 1))), budget=500)
    assert decision.kind == "counterexample"
    assert ns.verify_counterexample(decision.counterexample, f, g)


@pytest.mark.parametrize("hereditary", [False, True])
def test_decide_at_q1_certifies_opposite_huge_blocks(hereditary):
    # f = x1x1 + 1.7e308 x2x2 against g = x1x1 - 1.7e308 x2x2, where A - B is
    # past the float range: f alone is PSD, so h falls at 0, A - B is never
    # formed, and the certificate is J = [[0]], with residual f
    f = ns.scalar_to_nc(ns.new_scalar_quad(np.diag([1.0, 1.7e308])))
    g = ns.scalar_to_nc(ns.new_scalar_quad(np.diag([1.0, -1.7e308])))
    decision = (ns.decide_hereditary if hereditary else ns.decide)(f, g, unit_slater())
    assert decision.kind == "certificate"
    assert decision.certificate.J.J.tolist() == [[0.0]]
    assert decision.certificate.residual_lambda_min == 1.0
    assert ns.verify_certificate(decision.certificate, f, g)


def past_the_float_range_pair():
    """f = -1.7e308 x1x1 against g = -1e300 x1x1 + x2x2, with the Slater point (0, 1).

    h rises while -1.7e308 + 1e300 lambda is its bottom eigenvalue, so on the
    caller's scale the doubling would reach lambda = 2^28, where 1e300 lambda
    is past the float range.
    """
    f = ns.scalar_to_nc(ns.new_scalar_quad(np.diag([-1.7e308, 0.0])))
    g = ns.scalar_to_nc(ns.new_scalar_quad(np.diag([-1e300, 1.0])))
    return f, g, ns.new_tuple([[[0.0]], [[1.0]]])


@pytest.mark.parametrize("hereditary", [False, True])
def test_decide_at_q1_past_the_float_range_certifies(hereditary):
    # on f and g over 2^1024 no probe leaves the float range: h's maximum is
    # -1.7e8 at lambda = 1.7e8, which is -1e-300 relative to 2^1024, so J =
    # [[1.7e8]] is a certificate, and verify accepts it under the same rule;
    # no NaN and no overflow warning (a RuntimeWarning fails the test run)
    f, g, slater = past_the_float_range_pair()
    decider = ns.decide_hereditary if hereditary else ns.decide
    d = decider(f, g, slater)
    assert d.kind == "certificate"
    assert d.certificate.J.J.tolist() == [[1.7e8]]
    assert d.certificate.residual_lambda_min == d.diagnostics["certify_best"] == -1.7e8
    assert ns.verify_certificate(d.certificate, f, g)


def test_slemma_cli_at_q1_past_the_float_range_certifies_and_verifies(tmp_path, capsys):
    from ncslemma import cli, serialize

    f, g, slater = past_the_float_range_pair()
    path, cert = tmp_path / "opposite.json", tmp_path / "cert.json"
    path.write_text(serialize.dumps({
        "format": serialize.FORMAT, "kind": "slemma", "f": serialize.poly_to_json(f),
        "g": serialize.poly_to_json(g), "slater": serialize.tuple_to_json(slater),
    }))
    assert cli.main(["slemma", "-o", str(cert), str(path)]) == 0
    assert cli.main(["verify", str(cert), str(path)]) == 0
    capsys.readouterr()


def dominated_scalar_pair(rng, m):
    """(f, g, slater): A = t B + a PSD matrix with t in [0, 2], so t is a multiplier."""
    B = random_sym_matrix(rng, m)
    w, V = np.linalg.eigh(B)
    if w[-1] < 0.5:
        B += (0.5 - w[-1]) * np.eye(m)
    W = rng.standard_normal((m, m))
    A = rng.uniform(0.0, 2.0) * B + W @ W.T / m
    return ns.new_scalar_quad(A), ns.new_scalar_quad(B), np.linalg.eigh(B)[1][:, -1]


def random_sym_matrix(rng, m):
    raw = rng.standard_normal((m, m))
    return (raw + raw.T) / 2.0


def test_decide_at_q1_agrees_with_scalar_slemma():
    # on the q = 1 lifts, decide reads the multiplier bisection by the rule
    # scalar_slemma reads it with: the same kind, the same probes, the
    # certificate J = [[lambda]], and every object emitted verifies
    from helpers import random_scalar_pair

    tol = ns.DEFAULT_TOL
    rng = np.random.default_rng(2718)
    kinds = []
    for k in range(300):
        m = 2 + k % 4
        f, g, x = dominated_scalar_pair(rng, m) if k % 3 == 0 else random_scalar_pair(rng, m)
        res = ns.scalar_slemma(f, g, x)
        F, G = ns.scalar_to_nc(f), ns.scalar_to_nc(g)
        hereditary = k % 2 == 1
        decider = ns.decide_hereditary if hereditary else ns.decide
        dec = decider(F, G, ns.new_tuple(x.reshape(m, 1, 1)))
        d, s = dec.diagnostics, res.diagnostics
        assert dec.kind == res.outcome, k
        assert (d["multiplier"], d["multiplier_value"], d["multiplier_evals"]) == (
            s["lambda"], s["best_value"], s["multiplier_evals"]), k
        if res.outcome == "certificate":
            assert dec.certificate.J.J.tolist() == [[res.lam]], k
            assert res.lam >= 0.0 and ns.is_psd(f.A - res.lam * g.A)
        if res.outcome == "counterexample":
            assert res.x @ f.A @ res.x <= -ns.DEFAULT_TOL_STRICT
            assert res.x @ g.A @ res.x >= -tol
        if dec.kind == "certificate":
            assert ns.verify_certificate(dec.certificate, F, G)
        if dec.kind == "counterexample":
            assert ns.verify_counterexample(dec.counterexample, F, G)
        kinds.append((res.outcome, res.lam is not None and res.lam > 0.0))
    # certificates at lambda = 0 and at lambda > 0, and counterexamples
    assert {("certificate", False), ("certificate", True), ("counterexample", False)} <= set(kinds)
