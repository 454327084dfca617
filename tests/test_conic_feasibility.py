"""certify's search, linalg.conic_feasibility: Douglas-Rachford splitting on
the paper's condition, PSD J of any trace with A - (1_m (x) phi_J) B PSD,
started from the spectral search's first two points."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import ncslemma as ns
from ncslemma import linalg, serialize, slemma
from ncslemma.errors import InvalidInput

from helpers import planted_certificate_instance, scale_gap_instance, slater_poly
from test_race import evals  # noqa: F401  (the bench's evaluation counter, a fixture)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def decided(kind, rng, m, q, budget=500, hereditary=False):
    """(f, g, decision) for a planted dominated pair of ``kind``."""
    if kind == "scale-gap":
        f, g, x = scale_gap_instance(rng, m, q)
    else:
        g, x = slater_poly(rng, m, q)
        f, g, _ = planted_certificate_instance(rng, m, q, noise_margin=0.0, g=g)
    decider = ns.decide_hereditary if hereditary else ns.decide
    return f, g, decider(f, g, ns.new_tuple(x.reshape(m, 1, 1)), budget=budget)


@pytest.mark.parametrize("hereditary", [False, True])
@pytest.mark.parametrize("m,q", [(2, 2), (3, 2), (3, 3)])
def test_scale_gap_certifies_off_the_trace_one_slice(m, q, hereditary):
    # f = t g with t in [0.2, 0.6] / q: t id (trace t q) certifies, no trace-one map does
    f, g, decision = decided("scale-gap", np.random.default_rng(10 * m + q), m, q,
                             hereditary=hereditary)
    assert decision.kind == "certificate"
    J = decision.certificate.J.J
    assert abs(np.trace(J) - 1.0) > 0.1
    assert decision.diagnostics["certify_evals"] > 2  # past the spectral search's two points
    assert ns.verify_certificate(decision.certificate, f, g)


def separator_bounds(monkeypatch):
    """The list every bound the separator oracle gives is appended to, on the scaled pair."""
    bounds, make = [], slemma._separator_oracle

    def separator_oracle(*args):
        oracle = make(*args)

        def recorded(M):
            out = oracle(M)
            bounds.append(out[2])
            return out

        return recorded

    monkeypatch.setattr(slemma, "_separator_oracle", separator_oracle)
    return bounds


@pytest.mark.parametrize("kind", ["planted", "scale-gap"])
@pytest.mark.parametrize("m,q", [(2, 2), (3, 2), (2, 3)])
def test_no_certify_value_of_any_trace_exceeds_a_separator_bound(monkeypatch, kind, m, q):
    # Weak duality: lambda_min(A - L(J)) <= <A, M> for every PSD J and every trace-one M with
    # sum B_ij (x) M_ij PSD.  300 candidates of the search (its target out of reach; of many
    # traces on the scale gap) against every bound of find_separator's 300 points; in the
    # race the cut never fires.
    rng = np.random.default_rng(100 * m + q + len(kind))
    f, g, decision = decided(kind, rng, m, q)
    assert decision.kind == "certificate"
    bound = decision.diagnostics["certify_bound"]
    f2, g2, e = slemma._scaled(f, g)
    if bound is not None:
        assert bound >= math.ldexp(-ns.DEFAULT_TOL - slemma.CUT_ROUNDOFF, e)

    calA = ns.coefficient_matrix(f2)
    oracle = slemma._certify_oracle(calA, g2.blocks, q)
    values, traces = [], []

    def recorded(J):
        out = oracle(J)
        values.append(out[0])
        traces.append(np.trace(J))
        return out

    rows = g2.blocks.reshape(m * m, q * q)
    linalg.supergradient_ascent(recorded, linalg.conic_feasibility(calA, rows, q, 300, math.inf))
    bounds = separator_bounds(monkeypatch)
    ns.find_separator(f, g, budget=300)
    finite = [b for b in bounds if b < math.inf]
    assert len(values) == 300 and finite
    if kind == "scale-gap":  # from trace one to about t q
        assert max(traces) - min(traces) > 0.1
    assert max(values) <= min(finite) + slemma.CUT_ROUNDOFF


def test_a_value_that_is_not_finite_is_invalid_input(monkeypatch):
    f, g, _ = scale_gap_instance(np.random.default_rng(1), 3, 2)
    calls, core = [0], slemma._min_eigpair

    def third_is_nan(S):
        calls[0] += 1
        val, v = core(S)
        return (math.nan if calls[0] == 3 else val), v

    monkeypatch.setattr(slemma, "_min_eigpair", third_is_nan)
    with pytest.raises(InvalidInput, match="search step 3"):
        ns.certify(f, g, budget=100)


def test_an_iterate_that_is_not_finite_is_invalid_input():
    # A NaN in A reaches the Douglas-Rachford iterate through the affine projection; the
    # eigensolve behind the PSD projections may still give finite output for it, so the
    # iterate itself is checked before a candidate is formed from it.
    m, q = 2, 2
    rng = np.random.default_rng(2)
    A = -np.eye(m * q)
    A[1, 2] = A[2, 1] = math.nan
    rows = rng.standard_normal((m * m, q * q))
    v = np.ones(m * q) / math.sqrt(m * q)
    search = linalg.conic_feasibility(A, rows, q, 100, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(InvalidInput, match="search step 3: the iterate is not finite"):
            linalg.supergradient_ascent(lambda J: (-1.0, v), search)


def test_the_same_inputs_give_the_same_certificate_bits():
    runs = [decided("scale-gap", np.random.default_rng(7), 3, 3) for _ in range(2)]
    (_, _, a), (_, _, b) = runs
    assert a.kind == b.kind == "certificate"
    assert a.certificate.J.J.tobytes() == b.certificate.J.J.tobytes()
    assert a.certificate.residual.tobytes() == b.certificate.residual.tobytes()
    assert a.diagnostics == b.diagnostics


def test_example62_decides_within_three_evaluations():
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
    f, g, decision = decided("scale-gap", np.random.default_rng(3), 3, 2)
    d = decision.diagnostics
    assert decision.kind == "certificate" and d["certify_evals"] > 2
    assert evals[0] == d["certify_evals"] + d["separator_evals"]
