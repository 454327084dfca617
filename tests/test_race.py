"""decide and decide_hereditary race the certify search against the separator
search, one evaluation each in turn.  By weak duality at most one side can
reach its target, and each separator point whose sum B_ij (x) M_ij is PSD
bounds every certify value, of a map of any trace, from above, so the race
must return what the two searches return run one after the other at the
same budget: certify, then find_separator, then the builder.  Evaluations are counted as bench/spans.py counts them, from what
every supergradient_ascent call returns.  At q = 1 decide runs no race, so
the race is driven there through the sides decide builds for q >= 2."""

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
    """(f, g, slater tuple) of one planted kind.

    The scale-gap kinds, f = t g with t != 1/q and f = 0, are dominated by
    maps off the trace-one slice: t id and 0.
    """
    if kind in ("scale-gap", "zero-f"):
        f, g, x = scale_gap_instance(rng, m, q, t=0.0 if kind == "zero-f" else None)
    else:
        g, x = slater_poly(rng, m, q)
        make = planted_certificate_instance if kind == "certificate" else refutable_instance
        f, g, _ = make(rng, m, q, g=g)
    return f, g, ns.new_tuple(x.reshape(m, 1, 1))


def racing(hereditary, q):
    """decide or decide_hereditary, or at q = 1, where they run no search, the race they run above it."""
    decider = ns.decide_hereditary if hereditary else ns.decide
    if q > 1:
        return decider

    def race(f, g, slater, budget=ns.DEFAULT_BUDGET, tol=ns.DEFAULT_TOL,
             tol_strict=ns.DEFAULT_TOL_STRICT):
        f2, g2, e = slemma._scaled(*slemma.reconcile(f, g))
        sides = slemma._race_sides(f2, g2, e, budget, tol, tol_strict)
        return slemma._concluded(f2, g2, e, *sides, tol, tol_strict, hereditary)

    return race


def cut_value(tol=ns.DEFAULT_TOL):
    """The separator bound below which no certify value reaches -tol, on the scaled pair.

    A bound is <A, M> at a separator point M whose sum B_ij (x) M_ij is PSD,
    inf at the others.
    """
    return -tol - slemma.CUT_ROUNDOFF


def separator_with_bounds(*args, **kwargs):
    """find_separator's result and the bound the oracle gave at each point it evaluated."""
    bounds, make = [], slemma._separator_oracle

    def recording(*oracle_args):
        oracle = make(*oracle_args)

        def recorded(M):
            out = oracle(M)
            bounds.append(out[2])
            return out

        return recorded

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(slemma, "_separator_oracle", recording)
        return ns.find_separator(*args, **kwargs), bounds


def sequential(f, g, budget, hereditary, evals, tol=ns.DEFAULT_TOL,
               tol_strict=ns.DEFAULT_TOL_STRICT):
    """The decision run one search after the other: certify, then find_separator, then the builder.

    Returns the kind, the object, the evaluations find_separator used, the
    evaluations each side makes in the race, and the bound the race reports:
    one evaluation each in turn, certify first, until certify finishes at >=
    -tol, which settles the race, or certify stops after the separator's
    k-th evaluation, the first whose bound is below cut_value; when certify
    wins, no bound is.  A separator at its target has a bound below the cut,
    so it stops certify too.  The race's bound is the lowest of the bounds
    of the separator points it evaluated, None if every one is inf.
    """
    f2, g2 = slemma.reconcile(f, g)
    builder = ns.build_counterexample_hereditary if hereditary else ns.build_counterexample
    # the searches run on the scaled pair, where the cut and the oracle's
    # bounds live; find_separator's best value comes back times 2^e
    cut = cut_value(tol)
    before = evals[0]
    cert = ns.certify(f2, g2, budget=budget, tol=tol)
    n_cert = evals[0] - before
    before = evals[0]
    sep, bounds = separator_with_bounds(f2, g2, budget=budget, tol_strict=tol_strict)
    n_sep = evals[0] - before
    assert len(bounds) == n_sep
    k = next((i for i, b in enumerate(bounds, 1) if b < cut), math.inf)
    e = slemma._scaled(f2, g2)[2]

    def reported(race):
        low = min(bounds[:race[1]], default=math.inf)
        return math.ldexp(low, e) if low < math.inf else None

    if cert.certificate is not None:
        assert k == math.inf
        race = [n_cert, min(n_cert - 1, n_sep)]
        return "certificate", cert.certificate, n_sep, race, reported(race)
    race = [min(n_cert, k), n_sep]
    if sep.M is not None:
        try:
            ce = builder(f2, g2, sep.M, tol=tol, tol_strict=tol_strict)
            return "counterexample", ce, n_sep, race, reported(race)
        except VerificationFailed:
            pass
    return "inconclusive", None, n_sep, race, reported(race)


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


@pytest.mark.parametrize("hereditary", [False, True])
@pytest.mark.parametrize("kind", ["certificate", "counterexample", "scale-gap", "zero-f"])
@pytest.mark.parametrize("m,q", SIZES)
def test_race_returns_the_sequential_decision(evals, kind, m, q, hereditary):
    rng = np.random.default_rng(100 * m + 10 * q + len(kind))
    f, g, slater = instance(kind, rng, m, q)

    evals[0] = 0
    decision = racing(hereditary, q)(f, g, slater, budget=BUDGET)
    raced = evals[0]
    want, obj, separator_alone, race, bound = sequential(f, g, BUDGET, hereditary, evals)

    assert decision.kind == want
    # the planted answer: the scale-gap kinds are certified off the trace-one slice
    assert want == ("counterexample" if kind == "counterexample" else "certificate")
    if want == "certificate" and kind != "certificate":
        assert ns.verify_certificate(decision.certificate, f, g)
    if q == 1:  # decide runs no race there; it reaches the race's kind
        direct = (ns.decide_hereditary if hereditary else ns.decide)(f, g, slater)
        assert direct.kind == want
    same_object(want, decision.certificate or decision.counterexample, obj)
    d = decision.diagnostics
    assert d["certify_evals"] + d["separator_evals"] == raced
    assert [d["certify_evals"], d["separator_evals"]] == race
    if kind == "counterexample":
        assert raced <= 2 * separator_alone
    # Weak duality, as computed: no certify value above any separator bound.
    assert d["certify_bound"] == bound
    if bound is not None:
        e = slemma._scaled(*slemma.reconcile(f, g))[2]
        cut = math.ldexp(cut_value(), e)
        assert bound >= d["certify_best"] - (math.ldexp(-ns.DEFAULT_TOL, e) - cut)
        if kind == "certificate":
            assert bound >= cut  # a planted certificate is never cut


@pytest.mark.parametrize("m,q", SIZES)
def test_race_keeps_certify_going_when_tol_exceeds_twice_tol_strict(evals, m, q):
    # At tol = 10 a refutable instance's certify search finishes above -tol,
    # which a separator at its target no longer rules out, so the separator
    # must not cut certify short: the sequential answer is a certificate.
    rng = np.random.default_rng(100 * m + 10 * q)
    f, g, slater = instance("counterexample", rng, m, q)
    tols = {"tol": 10.0, "tol_strict": ns.DEFAULT_TOL_STRICT}
    decision = racing(False, q)(f, g, slater, budget=BUDGET, **tols)
    want, obj, _, race, _ = sequential(f, g, BUDGET, False, evals, **tols)
    assert decision.kind == want == "certificate"
    same_object(want, decision.certificate, obj)
    d = decision.diagnostics
    assert [d["certify_evals"], d["separator_evals"]] == race


@pytest.mark.parametrize("hereditary", [False, True])
@pytest.mark.parametrize("ratio,kind,certify_evals", [
    (1.0 - 2.0 ** -10, "certificate", 3),
    (1.0, "certificate", 3),
    (1.0 + 2.0 ** -10, "inconclusive", 500),  # within the roundoff allowance: not cut
    (1.0 + 2.0 ** -6, "inconclusive", 1),  # 1.16e-10 past -tol: just past the allowance
    (1.125, "inconclusive", 1),  # cut at the separator's first evaluation
])
def test_cut_spares_certify_until_the_bound_clears_the_roundoff_allowance(
        ratio, kind, certify_evals, hereditary):
    # (m, q) = (1, 1), f = -delta x^2 and g = b x^2: every certify value is
    # -delta - J b <= -delta, reached at J = 0, and the separator's only
    # point M = 1 has T = b > 0 and bound <A, M> = -delta, exactly.  b = 1/2
    # is its own scale (2^e = 1), so tol is not rescaled, and with tol =
    # 2^-27 and a dyadic ratio -delta is exact; the roundoff allowance is
    # 1e-10, 1.3% of tol.  certify starts at J = 1 (twice: the trace-one
    # slice is the point 1), and its first Douglas-Rachford candidate is
    # J = 0, its third evaluation; the separator, one behind, has taken two.
    # Without the cut certify runs all 500 evaluations.  decide itself runs
    # no race at q = 1: h(lambda) = -delta - lambda b falls at 0, so one
    # evaluation of h decides, the certificate J = [[0]] when -delta >= -tol.
    tol = 2.0 ** -27
    b, delta = 0.5, ratio * tol
    f = ns.new_quad_poly(np.full((1, 1, 1, 1), -delta))
    g = ns.new_quad_poly(np.full((1, 1, 1, 1), b))
    slater = ns.new_tuple(np.full((1, 1, 1), 10.0))
    decision = racing(hereditary, 1)(f, g, slater, budget=500, tol=tol)
    d = decision.diagnostics
    assert (decision.kind, d["certify_evals"]) == (kind, certify_evals)
    assert d["separator_evals"] == (2 if kind == "certificate" else 500)
    assert d["certify_bound"] == -delta
    assert d["certify_best"] == (-delta - b if certify_evals == 1 else -delta)
    if kind == "certificate":
        assert decision.certificate.J.J.tolist() == [[0.0]]
        assert ns.verify_certificate(decision.certificate, f, g, tol=tol)

    direct = (ns.decide_hereditary if hereditary else ns.decide)(f, g, slater, budget=500, tol=tol)
    d = direct.diagnostics
    assert direct.kind == kind
    assert d["certify_bound"] == d["certify_best"] == -delta
    assert (d["certify_evals"], d["separator_evals"], d["multiplier_evals"]) == (0, 0, 1)
    if kind == "certificate":
        assert direct.certificate.J.J.tolist() == [[0.0]]
        assert ns.verify_certificate(direct.certificate, f, g, tol=tol)
