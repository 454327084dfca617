"""decide and decide_hereditary run one search for both answers at q >= 2,
linalg.conic_feasibility, which certify and find_separator run too: every
candidate certificate J, and the separator candidate each step pairs with it,
is one oracle evaluation, and one budget caps the search's steps.  By weak
duality at most one side can reach its target, and every separator candidate,
repaired toward the Slater point's separator, bounds every certify value, of a
map of any trace, from above.  Each pair is checked against independent
references: its planted answer, decided in both kinds, and the planted
object, verified.  certify and find_separator return the decision's parts,
with the same evaluations.  Evaluations are counted as bench/spans.py counts
them, from what every supergradient_ascent call returns.  At q = 1 decide
runs the multiplier bisection instead, and the search is driven there
through certify and find_separator."""

import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ncslemma as ns
from ncslemma import linalg, slemma
from ncslemma.errors import VerificationFailed

from helpers import (
    decided_both_ways,
    planted_certificate,
    planted_certificate_instance,
    refutable_instance,
    scale_gap_instance,
    slater_poly,
)

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
SIZES = [(1, 1), (2, 2), (3, 2), (2, 3)]
BUDGET = 600


@pytest.fixture
def evals(monkeypatch):
    """A one-element list the benchmark's evaluation counter adds into."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod in (slemma, linalg):  # restored by monkeypatch at teardown
        monkeypatch.setattr(mod, "supergradient_ascent", mod.supergradient_ascent)
    counter = [0]
    spans.count_evals(SimpleNamespace(slemma=slemma, linalg=linalg), counter)
    return counter


def instance(kind, rng, m, q):
    """(f, g, slater tuple, planted object) of one planted kind.

    The scale-gap kinds, f = t g with t != 1/q and f = 0, are dominated by
    maps off the trace-one slice: t id and 0.  The planted object is the
    certificate of the planted map, or the counterexample the builder makes of
    the planted separator.
    """
    if kind in ("scale-gap", "zero-f"):
        t = 0.0 if kind == "zero-f" else rng.uniform(0.2, 0.6) / q
        f, g, x = scale_gap_instance(rng, m, q, t=t)
        planted = planted_certificate(f, g, t * ns.identity_choi(q).J)
    else:
        g, x = slater_poly(rng, m, q)
        if kind == "certificate":
            f, g, J0 = planted_certificate_instance(rng, m, q, g=g)
            planted = planted_certificate(f, g, J0)
        else:
            f, g, Mstar = refutable_instance(rng, m, q, g=g)
            planted = ns.build_counterexample(f, g, Mstar)
    return f, g, ns.new_tuple(x.reshape(m, 1, 1)), planted


def decider(hereditary):
    return ns.decide_hereditary if hereditary else ns.decide


def engine_answer(f, g, slater, budget, hereditary, evals, tol=ns.DEFAULT_TOL,
                  tol_strict=ns.DEFAULT_TOL_STRICT):
    """The answer of certify and find_separator on the reconciled pair, then the builder.

    Returns the kind, the object and the evaluations each of the two calls counted, which
    must be the same: both run the whole search, of at most ``budget`` steps.
    """
    f2, g2 = slemma.reconcile(f, g)
    builder = ns.build_counterexample_hereditary if hereditary else ns.build_counterexample
    counted = []
    before = evals[0]
    cert = ns.certify(f2, g2, slater, budget=budget, tol=tol, tol_strict=tol_strict)
    counted.append(evals[0] - before)
    before = evals[0]
    sep = ns.find_separator(f2, g2, slater, budget=budget, tol=tol, tol_strict=tol_strict)
    counted.append(evals[0] - before)
    assert counted[0] == counted[1] <= 2 * budget + 1
    assert (cert.certificate is None) or (sep.M is None)  # the search ends at one or the other
    if cert.certificate is not None:
        return "certificate", cert.certificate, counted[0]
    if sep.M is not None:
        assert sep.a_value <= -tol_strict * 2.0 ** slemma._scaled(f2, g2)[2]
        assert sep.b_margin > 0.0
        try:
            return "counterexample", builder(f2, g2, sep.M, tol=tol, tol_strict=tol_strict), counted[0]
        except VerificationFailed:
            pass
    return "inconclusive", None, counted[0]


def same_object(kind, a, b):
    if kind == "certificate":
        pairs = [(a.J.J, b.J.J), (a.residual, b.residual)]
        assert a.residual_lambda_min == b.residual_lambda_min
    elif kind == "counterexample":
        pairs = [(a.M, b.M), (a.X.mats, b.X.mats), (a.E, b.E)]
        assert (a.rank, a.violation) == (b.rank, b.violation)
        if isinstance(a, ns.Counterexample):
            pairs.append((a.P, b.P))
    else:
        pairs = []
    for x, y in pairs:
        assert np.array_equal(x, y)


def roundoff(e):
    """Allowance for a certify value above a bound, on the scaled pair, in the caller's units."""
    return math.ldexp(1e-12, e)


@pytest.mark.parametrize("hereditary", [False, True])
@pytest.mark.parametrize("kind", ["certificate", "counterexample", "scale-gap", "zero-f"])
@pytest.mark.parametrize("m,q", SIZES)
def test_decide_returns_the_planted_answer_in_both_kinds(evals, kind, m, q, hereditary):
    rng = np.random.default_rng(100 * m + 10 * q + len(kind))
    f, g, slater, planted = instance(kind, rng, m, q)
    # the planted answer, in both kinds, beside the planted object: the scale-gap kinds are
    # certified off the trace-one slice
    want = "counterexample" if kind == "counterexample" else "certificate"
    assert decided_both_ways(f, g, slater, BUDGET, [planted]) == want

    evals[0] = 0
    decision = decider(hereditary)(f, g, slater, budget=BUDGET)
    counted = evals[0]
    got, obj, searched = engine_answer(f, g, slater, BUDGET, hereditary, evals)
    assert decision.kind == got == want
    if want == "certificate":
        assert ns.verify_certificate(decision.certificate, f, g)
    else:
        assert ns.verify_counterexample(decision.counterexample, f, g)
    d = decision.diagnostics
    if q == 1:  # the multiplier bisection decides, and no search runs
        assert counted == d["certify_evals"] == d["separator_evals"] == 0
        return
    same_object(want, decision.certificate or decision.counterexample, obj)
    assert d["certify_evals"] + d["separator_evals"] == counted == searched
    # weak duality, as computed: no certify value above the bound of any repaired separator
    if d["certify_bound"] is not None:
        e = slemma._scaled(*slemma.reconcile(f, g))[2]
        assert d["certify_best"] <= d["certify_bound"] + roundoff(e)
        if want == "certificate":  # a planted certificate rules every separator out
            assert d["certify_bound"] > -2.0 * ns.DEFAULT_TOL_STRICT * 2.0 ** e


@pytest.mark.parametrize("m,q", SIZES)
def test_a_certificate_within_tol_ends_the_search_before_its_separator(evals, m, q):
    # At tol = 10 a refutable instance's first candidate J is within tol, and it is tested
    # before the separator it pairs with, the planted separator's center I / mq: the answer
    # is that certificate, after one evaluation.
    rng = np.random.default_rng(100 * m + 10 * q)
    f, g, slater, _ = instance("counterexample", rng, m, q)
    tols = {"tol": 10.0, "tol_strict": ns.DEFAULT_TOL_STRICT}
    decision = decider(False)(f, g, slater, budget=BUDGET, **tols)
    want, obj, searched = engine_answer(f, g, slater, BUDGET, False, evals, **tols)
    assert decision.kind == want == "certificate"
    assert searched == 1
    if q > 1:
        same_object(want, decision.certificate, obj)
        assert (decision.diagnostics["certify_evals"], decision.diagnostics["separator_evals"]) == (1, 0)


TOL, TOL_STRICT = 2.0 ** -27, 2.0 ** -20


@pytest.mark.parametrize("hereditary", [False, True])
@pytest.mark.parametrize("delta,kind,counts,direct", [
    ((1.0 - 2.0 ** -10) * TOL, "certificate", (3, 1), "certificate"),
    (TOL, "certificate", (3, 1), "certificate"),
    ((1.0 + 2.0 ** -10) * TOL, "inconclusive", (1, 499), "inconclusive"),
    ((1.0 - 2.0 ** -10) * 2.0 * TOL_STRICT, "counterexample", (1, 499), "counterexample"),
    (TOL_STRICT, "counterexample", (1, 499), "counterexample"),
    (2.0 * TOL_STRICT, "counterexample", (1, 1), "counterexample"),
])
def test_the_search_settles_at_tol_and_cuts_at_twice_tol_strict(evals, delta, kind, counts, direct,
                                                                 hereditary):
    # (m, q) = (1, 1), f = -delta x^2 and g = b x^2: every certify value is -delta - J b <=
    # -delta, reached at J = 0, and the only trace-one M = 1 has T = b > 0 and <A, M> = -delta,
    # exactly.  b = 1/2 is its own scale (2^e = 1), so the tolerances are not rescaled, and
    # with dyadic ones -delta is exact.  The search's first two candidates are J = 1 (the
    # trace-one slice is the point 1), and its first Douglas-Rachford candidate is J = 0, its
    # third; the separator M = 1 is tested after the first.  A certificate within tol ends the
    # search there; the separator ends it at once when -delta <= -2 tol_strict.  Otherwise its
    # bound -delta < -tol leaves no J in reach, and the search tests M = 1 at each of its 500
    # steps but the second, whose J has no separator candidate; at the end it hands its best
    # separator to the builder when -delta <= -tol_strict, as the multiplier bisection does.
    # decide itself runs that bisection at q = 1, whose one evaluation of h(0) = -delta
    # decides.  ``counts`` are the evaluations of each side.
    b = 0.5
    f = ns.new_quad_poly(np.full((1, 1, 1, 1), -delta))
    g = ns.new_quad_poly(np.full((1, 1, 1, 1), b))
    slater = ns.new_tuple(np.full((1, 1, 1), 10.0))
    tols = {"tol": TOL, "tol_strict": TOL_STRICT}
    got, obj, searched = engine_answer(f, g, slater, 500, hereditary, evals, **tols)
    assert got == kind
    assert searched == sum(counts)
    f2, g2, e = slemma._scaled(f, g)
    assert e == 0
    calA = ns.coefficient_matrix(f2)
    (J, best, n_cert), (M, bound, n_sep), _ = linalg.supergradient_ascent(
        slemma._oracle(calA, g2.blocks, 1),
        linalg.conic_feasibility(calA, g2.blocks.reshape(1, 1), 1, np.ones((1, 1)), 500, TOL,
                                 TOL_STRICT))
    assert (n_cert, n_sep) == counts
    assert bound == -delta
    assert best == (-delta - b if n_cert == 1 else -delta)
    if kind == "certificate":
        assert J.tolist() == [[0.0]] and obj.J.J.tolist() == [[0.0]]
        assert ns.verify_certificate(obj, f, g, tol=TOL)
    if kind == "counterexample":
        assert M.tolist() == [[1.0]]
        assert ns.verify_counterexample(obj, f, g, **tols)

    d = decider(hereditary)(f, g, slater, budget=500, **tols)
    assert d.kind == direct
    assert d.diagnostics["certify_bound"] == d.diagnostics["certify_best"] == -delta
    assert (d.diagnostics["certify_evals"], d.diagnostics["separator_evals"],
            d.diagnostics["multiplier_evals"]) == (0, 0, 1)
