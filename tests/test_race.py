"""decide and decide_hereditary race the certify search against the separator
search, one evaluation each in turn.  By weak duality at most one side can
reach its target, and each separator point bounds every certify value from
above, so the race must return what the two searches return run one after
the other at the same budget: certify, then find_separator, then the
builder.  Evaluations are counted as bench/spans.py counts them, from what
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

    At f = 0 the separator search finishes early, below its target, and
    certify goes on alone.
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
    """The separator bound below which no certify value reaches -tol, on the scaled pair."""
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

    Returns the kind, the object, the evaluations find_separator used, and
    the evaluations each side makes in the race: one each in turn, certify
    first, until certify finishes at >= -tol, which settles the race, or
    certify stops after the separator's k-th evaluation, the first whose
    bound is below cut_value; when certify wins, no bound is.  A separator
    at its target has a bound below the cut, so it stops certify too.
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
    if cert.certificate is not None:
        assert k == math.inf
        return "certificate", cert.certificate, n_sep, [n_cert, min(n_cert - 1, n_sep)]
    race = [min(n_cert, k), n_sep]
    if sep.M is not None:
        try:
            ce = builder(f2, g2, sep.M, tol=tol, tol_strict=tol_strict)
            return "counterexample", ce, n_sep, race
        except VerificationFailed:
            pass
    return "inconclusive", None, n_sep, race


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
    want, obj, separator_alone, race = sequential(f, g, BUDGET, hereditary, evals)

    assert decision.kind == want
    if kind in ("certificate", "counterexample"):
        assert want == kind  # the planted answer
    if q == 1:  # decide runs no race there; it reaches the race's kind, and also
        # certifies f = t g, which at m = q = 1 is t b x^2 with b > 0: f alone is
        # PSD, so h falls at 0 and J = [[0]], off the trace-one slice
        direct = (ns.decide_hereditary if hereditary else ns.decide)(f, g, slater)
        if kind in ("scale-gap", "zero-f"):
            assert (want, direct.kind) == ("inconclusive", "certificate")
            assert direct.certificate.J.J.tolist() == [[0.0]]
            assert ns.verify_certificate(direct.certificate, f, g)
        else:
            assert direct.kind == want
    same_object(want, decision.certificate or decision.counterexample, obj)
    d = decision.diagnostics
    assert d["certify_evals"] + d["separator_evals"] == raced
    assert [d["certify_evals"], d["separator_evals"]] == race
    if kind == "counterexample":
        assert raced <= 2 * separator_alone
    # Weak duality, as computed: no certify value above any separator bound.
    bound = d["certify_bound"]
    assert (bound is None) == (d["separator_evals"] == 0)
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
    want, obj, _, race = sequential(f, g, BUDGET, False, evals, **tols)
    assert decision.kind == want == "certificate"
    same_object(want, decision.certificate, obj)
    d = decision.diagnostics
    assert [d["certify_evals"], d["separator_evals"]] == race


@pytest.mark.parametrize("hereditary", [False, True])
@pytest.mark.parametrize("ratio,kind,certify_evals", [
    (1.0 - 2.0 ** -10, "certificate", 500),
    (1.0, "certificate", 500),
    (1.0 + 2.0 ** -10, "inconclusive", 500),  # within the roundoff allowance: not cut
    (1.0 + 2.0 ** -6, "inconclusive", 1),  # 1.16e-10 past -tol: just past the allowance
    (1.125, "inconclusive", 1),  # cut at the separator's first evaluation
])
def test_cut_spares_certify_until_the_bound_clears_the_roundoff_allowance(
        ratio, kind, certify_evals, hereditary):
    # (m, q) = (1, 1), f = (b - delta) x^2 and g = b x^2: J = 1 is forced, so
    # every certify value and every separator bound is -delta, exactly at the
    # first point.  b = 1/2 is its own scale (2^e = 1), so tol is not
    # rescaled, and with tol = 2^-27 and a dyadic ratio b - delta is exact;
    # the roundoff allowance is 1e-10, 1.3% of tol.  Without the cut certify
    # runs one ascent of all 500 evaluations; the first three rows are also
    # what the race decides without the cut.  decide itself runs no race at
    # q = 1, and no multiplier is forced: f = (b - delta) x^2 is PSD alone,
    # so h falls at 0 and every row is the certificate J = [[0]], residual f.
    tol = 2.0 ** -27
    b, delta = 0.5, ratio * tol
    f = ns.new_quad_poly(np.full((1, 1, 1, 1), b - delta))
    g = ns.new_quad_poly(np.full((1, 1, 1, 1), b))
    slater = ns.new_tuple(np.full((1, 1, 1), 10.0))
    decision = racing(hereditary, 1)(f, g, slater, budget=500, tol=tol)
    d = decision.diagnostics
    assert (decision.kind, d["certify_evals"]) == (kind, certify_evals)
    assert d["certify_bound"] == pytest.approx(-delta, rel=1e-12, abs=0.0)
    assert d["certify_best"] == pytest.approx(-delta, rel=1e-12, abs=0.0)
    assert d["separator_evals"] == (500 if kind == "inconclusive" else 499)

    direct = (ns.decide_hereditary if hereditary else ns.decide)(f, g, slater, budget=500, tol=tol)
    d = direct.diagnostics
    assert direct.kind == "certificate"
    assert direct.certificate.J.J.tolist() == [[0.0]]
    assert d["certify_bound"] == d["certify_best"] == direct.certificate.residual_lambda_min
    assert d["certify_bound"] == b - delta
    assert (d["certify_evals"], d["separator_evals"], d["multiplier_evals"]) == (0, 0, 1)
    assert ns.verify_certificate(direct.certificate, f, g, tol=tol)
