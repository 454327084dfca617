import math

import numpy as np
import pytest

import ncslemma as ns
from ncslemma import linalg
from ncslemma.errors import (
    InvalidInput,
    NotGloballyPSD,
    PreconditionViolated,
    SlaterViolated,
)
from ncslemma.poly import blocks_from_matrix
from ncslemma.slemma import _map_coefficients

from helpers import random_poly, random_psd_poly, random_scalar_pair, random_sym, random_sym_tuple
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


def test_scalar_slemma_multiplier_is_exactly_zero_when_h_falls_at_zero():
    # h(lambda) = min(1 - lambda, 1 + lambda): the search stops at its first eigensolve
    f = ns.new_scalar_quad(np.eye(2))
    g = ns.new_scalar_quad(np.diag([1.0, -1.0]))
    res = ns.scalar_slemma(f, g, [1.0, 0.0])
    assert res.lam == 0.0
    d = res.diagnostics
    assert (d["best_value"], d["bracket_hi"], d["multiplier_evals"]) == (1.0, 0.0, 1)


def test_scalar_slemma_bisects_to_an_interior_kink():
    # h(lambda) = min(3 - lambda, -1 + 2 lambda) peaks at 4/3; the halving ends
    # when no float lies between its ends
    f = ns.new_scalar_quad(np.diag([3.0, -1.0]))
    g = ns.new_scalar_quad(np.diag([1.0, -2.0]))
    res = ns.scalar_slemma(f, g, [1.0, 0.0])
    assert res.outcome == "certificate"
    ulp = np.spacing(4.0 / 3.0)
    assert abs(res.lam - 4.0 / 3.0) <= 2 * ulp
    d = res.diagnostics
    assert d["bracket_hi"] == 2.0  # h rises at 0 and 1, falls at 2
    assert d["best_value"] == pytest.approx(5.0 / 3.0, abs=1e-14)
    assert d["multiplier_evals"] <= 2 + 1 + 53


def test_scalar_slemma_multiplier_search_steps_stay_bounded():
    # one eigensolve at 0, at most 61 doublings, then about 53 halvings of a
    # binade-wide bracket plus one per binade the maximum lies below 1
    rng = np.random.default_rng(77)
    steps = []
    for k in range(200):
        f, g, slater = random_scalar_pair(rng, m=2 + k % 4)
        d = ns.scalar_slemma(f, g, slater, budget=100).diagnostics
        steps.append(d["multiplier_evals"])
        if d["bracket_hi"] == 0.0:
            assert d["multiplier_evals"] == 1 and d["lambda"] == 0.0
    assert max(steps) <= 70, max(steps)
    assert 1 in steps and max(steps) > 1


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 2.0, np.pi / 2])
@pytest.mark.parametrize("signs", [(1.0, -1.0), (-1.0, 1.0)], ids=["plus-minus", "minus-plus"])
def test_scalar_slemma_reads_the_whole_tied_bottom_eigenspace(theta, signs):
    # f = I: h(lambda) = min(1 - lambda, 1 + lambda) falls at 0, but any unit
    # vector is a bottom eigenvector of A - 0 B, and v^T B v < 0 for some of
    # them; h's right derivative is -lambda_max(B) = -1 over the whole eigenspace
    Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    f = ns.new_scalar_quad(np.eye(2))
    g = ns.new_scalar_quad(Q @ np.diag(signs) @ Q.T)
    res = ns.scalar_slemma(f, g, Q[:, int(signs[0] < 0)])
    assert res.outcome == "certificate" and res.lam == 0.0
    d = res.diagnostics
    assert (d["best_value"], d["bracket_hi"], d["multiplier_evals"]) == (1.0, 0.0, 1)


def test_scalar_slemma_halves_bit_patterns_from_zero():
    # the maximum sits at 1e-300, about 1000 binades below 1: halving [0, 1]
    # arithmetically would take one eigensolve per binade.  B is moved into
    # A's binade first, by 2^k with k = -996, so the bracket is [0, 1] in
    # lambda / 2^k and bracket_hi is 2^-996
    f = ns.new_scalar_quad(np.diag([1e-300, -1e-300]))
    g = ns.new_scalar_quad(np.diag([1.0, -1.0]))
    res = ns.scalar_slemma(f, g, [1.0, 0.0])
    assert res.outcome == "certificate"
    assert abs(res.lam - 1e-300) <= 2 * np.spacing(1e-300)
    d = res.diagnostics
    assert d["bracket_hi"] == 2.0 ** -996 and d["multiplier_evals"] < 80


def test_scalar_slemma_certifies_a_multiplier_far_above_the_cap():
    # lambda = 1e300 is far above the 2^60 cap on the doubling, but B moved
    # into A's binade puts it at 1.49 2^996; the q = 1 decision reads the
    # same bisection, and its certificate verifies
    f = ns.new_scalar_quad(np.diag([1e300, -1e300]))
    g = ns.new_scalar_quad(np.diag([1.0, -1.0]))
    res = ns.scalar_slemma(f, g, [1.0, 0.0])
    assert (res.outcome, res.lam, res.diagnostics["multiplier_evals"]) == ("certificate", 1e300, 55)
    f, g = ns.scalar_to_nc(f), ns.scalar_to_nc(g)
    d = ns.decide(f, g, ns.new_tuple([[[1.0]], [[0.0]]]))
    assert d.kind == "certificate" and d.certificate.J.J.tolist() == [[1e300]]
    assert ns.verify_certificate(d.certificate, f, g)


def balanced(f, g):
    """(A', B', e, k): the pair scalar_multiplier bisects on for scalar_slemma's (f, g).

    A' = A / 2^e and B' = B 2^k / 2^e, 2^e the power of two above both
    norms and B' moved into A's binade; lambda is then 2^k times the
    multiplier of (A', B'), and h(lambda) 2^e times its value.
    """
    e = linalg.binade(f.A, g.A)
    A, B = np.ldexp(f.A, -e), np.ldexp(g.A, -e)
    k = linalg.binade(A) - linalg.binade(B)
    return A, np.ldexp(B, k), e, k


def _halving_multiplier(A, B):
    """The multiplier search with plain halving from [0, 1]: (lambda, h(lambda), probes)."""
    def probe(lam):
        h = (A - lam * B) * 0.5
        w, V = np.linalg.eigh(h + h.T)
        v = V[:, 0].copy()
        return float(w[0]), float(v @ B @ v) < 0.0

    lo = hi = 0.0
    h_lo, rises = probe(lo)
    h_hi, probes = h_lo, 1
    while rises and hi < 2.0**60:
        lo, h_lo, hi = hi, h_hi, max(2.0 * hi, 1.0)
        (h_hi, rises), probes = probe(hi), probes + 1
    while lo < (mid := (lo + hi) / 2.0) < hi:
        (h_mid, rises), probes = probe(mid), probes + 1
        if rises:
            lo, h_lo = mid, h_mid
        else:
            hi, h_hi = mid, h_mid
    return (lo, h_lo, probes) if h_lo >= h_hi else (hi, h_hi, probes)


def test_scalar_slemma_power_of_two_probes_end_where_halving_does():
    # the powers of two find the binade plain halving from [0, 1] would reach,
    # with the same probes at its ends, so the multiplier is the same bits
    rng = np.random.default_rng(5)
    for k in range(200):
        f, g, slater = random_scalar_pair(rng, m=2 + k % 4)
        d = ns.scalar_slemma(f, g, slater, budget=1).diagnostics
        A, B, e, shift = balanced(f, g)
        lam, value, probes = _halving_multiplier(A, B)
        assert (d["lambda"], d["best_value"]) == (math.ldexp(lam, shift), math.ldexp(value, e))
        assert d["multiplier_evals"] <= probes + 1


def test_scalar_slemma_refutes_a_pair_its_multiplier_search_rules_out():
    rng = np.random.default_rng(12345)
    for k in range(1059):
        f, g, slater = random_scalar_pair(rng, m=2 + k % 4)
    res = ns.scalar_slemma(f, g, slater)
    assert res.diagnostics["best_value"] == pytest.approx(-0.00248, abs=1e-5)
    assert res.outcome == "counterexample"


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


# --- the references: the multiplier search and the separator search scalar_slemma ran before ---

def reference_multiplier(A, B):
    """The multiplier search as scalar_slemma ran it before its bracket refuted: (lambda, h, probes).

    The same bisection, written out with np.linalg.eigh and its own copy of
    the probe rule: powers of two while hi > 2 lo, then midpoints.
    """
    def probe(lam):
        h = (A - lam * B) * 0.5
        w, V = np.linalg.eigh(h + h.T)
        if w.size > 1 and w[1] == w[0]:
            tied = V[:, w == w[0]]
            t = (tied.T @ B @ tied) * 0.5
            return float(w[0]), np.linalg.eigh(t + t.T)[0][-1] < 0.0
        v = V[:, 0].copy()
        return float(w[0]), float(v @ B @ v) < 0.0

    def point(lo, hi):
        if hi <= 2.0 * lo:
            return (lo + hi) / 2.0
        b = 1 - math.frexp(hi)[1]
        e = 2 * b + 1 if lo == 0.0 else (b + 1 - math.frexp(lo)[1]) // 2
        return math.ldexp(1.0, -min(e, 1074))

    lo = hi = 0.0
    (h_lo, rises), probes = probe(lo), 1
    h_hi = h_lo
    while rises and hi < 2.0**60:
        lo, h_lo, hi = hi, h_hi, max(2.0 * hi, 1.0)
        (h_hi, rises), probes = probe(hi), probes + 1
    while lo < (mid := point(lo, hi)) < hi:
        (h_mid, rises), probes = probe(mid), probes + 1
        if rises:
            lo, h_lo = mid, h_mid
        else:
            hi, h_hi = mid, h_mid
    return (lo, h_lo, probes) if h_lo >= h_hi else (hi, h_hi, probes)


def reference_scalar_outcome(f, g, best_value, budget, tol=1e-8, tol_strict=1e-6, seed=42):
    """The outcome scalar_slemma reached from its multiplier search's ``best_value`` by a search.

    The refutation is the one scalar_slemma ran with its own oracle
    min(<B, S>/c_B, -<A, S>/c_A), c_X = 1 + ||X||_F, and no target: one
    projected ascent of the whole budget from the spectraplex projection of
    a seeded random symmetric matrix, as maximize_spectral then ran it,
    followed by the same rank-one split and margin checks.  On the draws below, the separator search scalar_slemma ran
    afterwards (find_separator on the q = 1 lifts) reached the same outcomes.
    """
    if best_value >= -tol:
        return "certificate"
    if best_value > -tol_strict:
        return "inconclusive"
    A, B = f.A, g.A
    cA, cB = 1.0 + np.linalg.norm(A), 1.0 + np.linalg.norm(B)

    def oracle(S):
        t1, t2 = float(np.sum(B * S)) / cB, -float(np.sum(A * S)) / cA
        return (t1, B / cB) if t1 <= t2 else (t2, -A / cA)

    raw = np.random.default_rng(seed).standard_normal((f.m, f.m))
    S, _, _ = linalg.supergradient_ascent(oracle, linalg._ascent(
        ns.spectraplex_project((raw + raw.T) / 2.0), budget, linalg._spectraplex_project))
    if float(np.sum(A * S)) > -tol_strict or float(np.sum(B * S)) < -tol:
        return "inconclusive"
    x = ns.rank_one_split(S, A, B, tol=tol, tol_strict=tol_strict)
    ax = float(x @ A @ x)
    if -ax < tol_strict and float(x @ B @ x) >= 0.0:
        x = x * np.sqrt(2.0 * tol_strict / -ax)
        ax = float(x @ A @ x)
    if ax > -tol_strict or float(x @ B @ x) < -tol:
        return "inconclusive"
    return "counterexample"


def planted_violation(rng, m):
    """(f, g, x): x^T B x >= 1 and x^T A x <= -(1 + ||A||_F) / 2, so x refutes domination."""
    x = rng.standard_normal(m)
    x /= np.linalg.norm(x)
    B = random_sym(rng, m)
    B += max(0.0, 1.0 - x @ B @ x) * np.outer(x, x)
    A = random_sym(rng, m)
    A -= (x @ A @ x + 0.5 * (1.0 + np.linalg.norm(A))) * np.outer(x, x)
    return ns.new_scalar_quad(A), ns.new_scalar_quad(B), x


def test_scalar_slemma_refutes_as_its_own_separator_search_did():
    # the multiplier search is unchanged, bit for bit; the bracket separator
    # refutes every pair the searches refuted, and maybe more
    rng = np.random.default_rng(2031)
    budget, kinds = 100, []
    for k in range(200):
        m = 2 + k % 4
        f, g, slater = planted_violation(rng, m) if k % 2 else random_scalar_pair(rng, m)
        res = ns.scalar_slemma(f, g, slater, budget=budget)
        d = res.diagnostics
        A, B, e, shift = balanced(f, g)
        lam, value, probes = reference_multiplier(A, B)
        assert (d["lambda"], d["best_value"], d["multiplier_evals"]) == \
            (math.ldexp(lam, shift), math.ldexp(value, e), probes)
        assert "separator_evals" not in d
        # the outcome the searches reached on the instance scalar_slemma reads, A and B over 2^e
        want = reference_scalar_outcome(ns.new_scalar_quad(A), ns.new_scalar_quad(np.ldexp(B, -shift)),
                                        value, budget)
        assert res.outcome == want or (want, res.outcome) == ("inconclusive", "counterexample"), k
        kinds.append(res.outcome)
        if res.outcome == "counterexample":
            x = res.x
            assert x @ f.A @ x <= -1e-6
            assert x @ g.A @ x >= -1e-8
    assert kinds.count("counterexample") >= 100 and "certificate" in kinds


def test_scalar_slemma_past_the_float_range_is_a_certificate():
    # h rises while -1.7e308 + 1e300 lambda is the bottom eigenvalue; on A and
    # B over 2^1024 the bisection never leaves the float range, and the maximum
    # -1.7e8 at lambda = 1.7e8 is -1e-300 relative to 2^1024, a certificate
    f = ns.new_scalar_quad(np.diag([-1.7e308, 0.0]))
    g = ns.new_scalar_quad(np.diag([-1e300, 1.0]))
    res = ns.scalar_slemma(f, g, [0.0, 1.0])
    assert (res.outcome, res.lam) == ("certificate", 1.7e8)
    assert res.diagnostics["best_value"] == -1.7e8


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
