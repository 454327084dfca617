"""The domination search, linalg.conic_feasibility: Douglas-Rachford splitting
on the paper's condition, PSD J of any trace with A - (1_m (x) phi_J) B PSD,
started from the spectral search's first two points, with a separator
candidate from each step's dual iterate, repaired toward the Slater point's
separator."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import ncslemma as ns
from ncslemma import linalg, serialize, slemma
from ncslemma.errors import InvalidInput

from helpers import (
    planted_certificate_instance,
    random_poly,
    random_sym,
    scale_gap_instance,
    slater_poly,
)
from test_race import evals  # noqa: F401  (the bench's evaluation counter, a fixture)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def decided(kind, rng, m, q, budget=500, hereditary=False):
    """(f, g, slater tuple, decision) for a planted dominated pair of ``kind``."""
    if kind == "scale-gap":
        f, g, x = scale_gap_instance(rng, m, q)
    else:
        g, x = slater_poly(rng, m, q)
        f, g, _ = planted_certificate_instance(rng, m, q, noise_margin=0.0, g=g)
    decider = ns.decide_hereditary if hereditary else ns.decide
    slater = ns.new_tuple(x.reshape(m, 1, 1))
    return f, g, slater, decider(f, g, slater, budget=budget)


@pytest.mark.parametrize("hereditary", [False, True])
@pytest.mark.parametrize("m,q", [(2, 2), (3, 2), (3, 3)])
def test_scale_gap_certifies_off_the_trace_one_slice(m, q, hereditary):
    # f = t g with t in [0.2, 0.6] / q: t id (trace t q) certifies, no trace-one map does
    f, g, _, decision = decided("scale-gap", np.random.default_rng(10 * m + q), m, q,
                                hereditary=hereditary)
    assert decision.kind == "certificate"
    J = decision.certificate.J.J
    assert abs(np.trace(J) - 1.0) > 0.1
    assert decision.diagnostics["certify_evals"] > 2  # past the spectral search's two points
    assert ns.verify_certificate(decision.certificate, f, g)


def recorded_search(f, g, slater, budget, shift=0.0, tol=ns.DEFAULT_TOL):
    """The search on _scaled's f and g, every oracle output recorded by side, and M0's values.

    The search is shown every certify value less ``shift``; the values recorded are the
    oracle's own.  Returns (the search's output, [(J, value)], [(t, a)], (lam0, a0)).
    """
    f2, g2, _ = slemma._scaled(f, g)
    m, q = f2.m, f2.q
    calA = ns.coefficient_matrix(f2)
    oracle = slemma._oracle(calA, g2.blocks, q)
    M0 = slemma._slater_separator(slater, q)
    sides = ([], [])

    def recording(step):
        out = oracle(step)
        if step[0] == 0:
            sides[0].append((step[1], out[0]))
            return out[0] - shift, out[1]
        sides[1].append(out)
        return out

    out = linalg.supergradient_ascent(recording, linalg.conic_feasibility(
        calA, g2.blocks.reshape(m * m, q * q), q, M0, budget, tol, ns.DEFAULT_TOL_STRICT))
    return out, sides[0], sides[1], oracle((1, M0))


ROUNDOFF = 1e-12  # a certify value above a separator bound, on the scaled pair (norms below 1)
SHIFT = 2.0 ** 10  # far beyond every certify value and bound on the scaled pair


@pytest.mark.parametrize("kind", ["planted", "scale-gap"])
@pytest.mark.parametrize("m,q", [(2, 2), (3, 2), (2, 3)])
def test_no_certify_value_of_any_trace_exceeds_a_separator_bound(kind, m, q):
    # Weak duality: lambda_min(A - L(J)) <= <A, M> for every PSD J and every trace-one M with
    # sum B_ij (x) M_ij PSD.  The decision's own bound holds its best certify value.  Then 300
    # steps of the search with every certify value shown SHIFT lower and tol = SHIFT / 2: no J
    # settles, and the bound never rules the J side out, so each step tests its J (of many
    # traces on the scale gap).  Every separator candidate it tests, repaired with no margin
    # toward M0, has T PSD and bounds every certify value, and the search's bound is the least
    # of them.  A dominated pair has no separator, and the search finds none.
    rng = np.random.default_rng(100 * m + q + len(kind))
    f, g, slater, decision = decided(kind, rng, m, q)
    assert decision.kind == "certificate"
    d = decision.diagnostics
    if d["certify_bound"] is not None:
        e = slemma._scaled(f, g)[2]
        assert d["certify_best"] <= d["certify_bound"] + math.ldexp(ROUNDOFF, e)

    ((_, best, n_cert), (sep, bound, n_sep), _), certs, seps, (lam0, a0) = recorded_search(
        f, g, slater, 300, SHIFT, SHIFT / 2.0)
    assert sep is None and n_cert == 300 and len(seps) == n_sep > 0
    assert lam0 > 0.0
    values = [v for _, v in certs]
    assert best == max(values) - SHIFT
    if kind == "scale-gap":  # from trace one to about t q
        traces = [np.trace(J) for J, _ in certs]
        assert max(traces) - min(traces) > 0.1
    bounds = [linalg._repair(t, a, lam0, a0, 0.0)[1] for t, a in seps]
    assert bound == min(bounds)
    assert max(values) <= bound + ROUNDOFF


def test_the_repair_makes_t_psd_at_the_predicted_value():
    # An M with lambda_min T(M) < 0 mixed toward M0 with theta = delta / (delta + lam0),
    # delta = -lambda_min T(M) + margin: T(M') is PSD, with lambda_min at least margin lam0 /
    # (delta + lam0), and <A, M'> = lam0 U_s(M) / (delta + lam0), U_s(M) = <A, M> + s delta,
    # s = <A, M0> / lam0.
    rng = np.random.default_rng(12)
    m, q = 3, 2
    g, x = slater_poly(rng, m, q)
    f = random_poly(rng, m, q)
    f2, g2, _ = slemma._scaled(f, g)
    calA = ns.coefficient_matrix(f2)
    oracle = slemma._oracle(calA, g2.blocks, q)
    M0 = slemma._slater_separator(ns.new_tuple(x.reshape(m, 1, 1)), q)
    assert np.allclose(M0, np.kron(np.outer(x, x) / (x @ x), np.eye(q) / q), rtol=0.0, atol=1e-15)
    lam0, a0 = oracle((1, M0))
    assert lam0 > 0.0
    checked = 0
    for _ in range(20):
        M = ns.spectraplex_project(random_sym(rng, m * q) * 4.0)
        t, a = oracle((1, M))
        if t >= 0.0:
            continue
        for margin in (0.0, 2.0 * ns.DEFAULT_TOL_STRICT):
            theta, a_rep = linalg._repair(t, a, lam0, a0, margin)
            repaired = (1.0 - theta) * M + theta * M0
            t_rep, a_direct = oracle((1, repaired))
            delta = -t + margin
            assert t_rep >= margin * lam0 / (delta + lam0) - 1e-14
            u_s = a + a0 / lam0 * delta
            assert a_rep == pytest.approx(lam0 * u_s / (delta + lam0), rel=1e-12, abs=1e-15)
            assert a_direct == pytest.approx(a_rep, rel=1e-12, abs=1e-15)
        checked += 1
    assert checked >= 5


def test_a_value_that_is_not_finite_is_invalid_input(monkeypatch):
    f, g, x = scale_gap_instance(np.random.default_rng(1), 3, 2)
    calls, core = [0], slemma._min_eigpair

    def third_is_nan(S):
        calls[0] += 1
        val, v = core(S)
        return (math.nan if calls[0] == 3 else val), v

    monkeypatch.setattr(slemma, "_min_eigpair", third_is_nan)
    with pytest.raises(InvalidInput, match="search step 3"):
        ns.certify(f, g, ns.new_tuple(x.reshape(3, 1, 1)), budget=100)


def test_an_iterate_that_is_not_finite_is_invalid_input():
    # A NaN in A reaches the Douglas-Rachford iterate through the affine projection; the
    # eigensolve behind the PSD projections may still give finite output for it, so the
    # iterate itself is checked before a candidate is formed from it.  Its first three
    # evaluations are the first two J and, between them, the center I / mq.
    m, q = 2, 2
    rng = np.random.default_rng(2)
    A = -np.eye(m * q)
    A[1, 2] = A[2, 1] = math.nan
    rows = rng.standard_normal((m * m, q * q))
    v = np.ones(m * q) / math.sqrt(m * q)
    search = linalg.conic_feasibility(A, rows, q, np.eye(m * q) / (m * q), 100, 0.0,
                                      ns.DEFAULT_TOL_STRICT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(InvalidInput, match="search step 4: the iterate is not finite"):
            linalg.supergradient_ascent(lambda step: (-1.0, v) if step[0] == 0 else (1.0, 1.0),
                                        search)


def test_the_same_inputs_give_the_same_certificate_bits():
    runs = [decided("scale-gap", np.random.default_rng(7), 3, 3) for _ in range(2)]
    (_, _, _, a), (_, _, _, b) = runs
    assert a.kind == b.kind == "certificate"
    assert a.certificate.J.J.tobytes() == b.certificate.J.J.tobytes()
    assert a.certificate.residual.tobytes() == b.certificate.residual.tobytes()
    assert a.diagnostics == b.diagnostics


def test_example62_decides_within_three_evaluations():
    # the spectral step certifies; between the two J the center I / mq is tested, whose T is
    # not safely PSD: its repair waits for the second J, which certifies, and M0 is never tested
    with open(FIXTURES / "example62.json") as fh:
        inst = serialize.instance_from_json(json.load(fh))
    decision = ns.decide(inst["f"], inst["g"], inst["slater"])
    d = decision.diagnostics
    assert decision.kind == "certificate"
    assert d["certify_evals"] + d["separator_evals"] <= 3


@pytest.mark.parametrize("m,q", [(1, 2), (2, 2), (2, 3), (3, 3), (4, 4)])
def test_loose_certificates_decide_at_the_first_evaluation(m, q):
    rng = np.random.default_rng(30 * m + q)
    g, x = slater_poly(rng, m, q)
    f, g, _ = planted_certificate_instance(rng, m, q, noise_margin=2.0, g=g)
    decision = ns.decide(f, g, ns.new_tuple(x.reshape(m, 1, 1)))
    assert decision.kind == "certificate"
    assert (decision.diagnostics["certify_evals"], decision.diagnostics["separator_evals"]) == (1, 0)


def test_the_bench_counter_sees_every_candidate(evals):
    evals[0] = 0
    f, g, _, decision = decided("scale-gap", np.random.default_rng(3), 3, 2)
    d = decision.diagnostics
    assert decision.kind == "certificate" and d["certify_evals"] > 2
    assert evals[0] == d["certify_evals"] + d["separator_evals"]
