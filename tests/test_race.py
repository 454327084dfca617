"""decide and decide_hereditary race the certify search against the separator
search, one evaluation each in turn.  By weak duality at most one side can
reach its target, and each separator point bounds every certify value from
above, so the race must return what the two searches return run one after
the other: certify, then find_separator, then the builder, round by round at
the same budget.  Evaluations are counted as bench/spans.py counts them,
from what every supergradient_ascent call returns."""

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
BUDGET = 600  # two rounds of slemma.SLICE
SEED = 5


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


def cut_value(f2, g2, tol=ns.DEFAULT_TOL):
    """The separator bound below which no certify value reaches -tol."""
    scale = 1.0 + linalg.fro(ns.coefficient_matrix(f2)) + linalg.fro(ns.coefficient_matrix(g2))
    return -tol - slemma.CUT_ROUNDOFF * scale


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


def sequential(f, g, budget, seed, hereditary, evals, tol=ns.DEFAULT_TOL,
               tol_strict=ns.DEFAULT_TOL_STRICT):
    """The parent decision: certify, then find_separator, then the builder, per round.

    Returns the kind, the object, the evaluations find_separator used, and
    the evaluations each side makes in the race: one each in turn, certify
    first, until certify finishes at >= -tol or the separator reaches its
    target, which settles the round only while 2 tol_strict > tol.  Certify
    also stops after the separator's k-th evaluation when that one's bound
    is the first below cut_value; in a round certify wins, no bound is.
    """
    f2, g2 = slemma.reconcile(f, g)
    builder = ns.build_counterexample_hereditary if hereditary else ns.build_counterexample
    target = 2.0 * tol_strict / (1.0 + linalg.fro(ns.coefficient_matrix(f2)))
    cut = cut_value(f2, g2, tol)
    separator_alone, race = 0, [0, 0]
    for rnd in range(1, max(1, math.ceil(budget / slemma.SLICE)) + 1):
        slice_budget = min(budget, rnd * slemma.SLICE)
        before = evals[0]
        cert = ns.certify(f2, g2, budget=slice_budget, tol=tol, seed=seed)
        n_cert = evals[0] - before
        before = evals[0]
        sep, bounds = separator_with_bounds(f2, g2, budget=slice_budget, tol=tol,
                                            tol_strict=tol_strict, seed=seed + 1)
        n_sep = evals[0] - before
        assert len(bounds) == n_sep
        k = next((i for i, b in enumerate(bounds, 1) if b < cut), math.inf)
        if cert.certificate is not None:
            assert k == math.inf
            race[0] += n_cert
            race[1] += min(n_cert - 1, n_sep)
            return "certificate", cert.certificate, separator_alone, race
        separator_alone += n_sep
        settled = sep.best_value >= target and 2.0 * tol_strict > tol
        race[0] += min(n_cert, n_sep if settled else n_cert, k)
        race[1] += n_sep
        if sep.M is not None:
            try:
                return ("counterexample", builder(f2, g2, sep.M, tol=tol, tol_strict=tol_strict),
                        separator_alone, race)
            except VerificationFailed:
                continue
    return "inconclusive", None, separator_alone, race


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
    decider = ns.decide_hereditary if hereditary else ns.decide

    evals[0] = 0
    decision = decider(f, g, slater, budget=BUDGET, seed=SEED)
    raced = evals[0]
    want, obj, separator_alone, race = sequential(f, g, BUDGET, SEED, hereditary, evals)

    assert decision.kind == want
    if kind in ("certificate", "counterexample"):
        assert want == kind  # the planted answer
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
        f2, g2 = slemma.reconcile(f, g)
        cut = cut_value(f2, g2)
        assert bound >= d["certify_best"] - (-ns.DEFAULT_TOL - cut)
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
    decision = ns.decide(f, g, slater, budget=BUDGET, seed=SEED, **tols)
    want, obj, _, race = sequential(f, g, BUDGET, SEED, False, evals, **tols)
    assert decision.kind == want == "certificate"
    same_object(want, decision.certificate, obj)
    d = decision.diagnostics
    assert [d["certify_evals"], d["separator_evals"]] == race


@pytest.mark.parametrize("hereditary", [False, True])
@pytest.mark.parametrize("ratio,kind,certify_evals", [
    (0.999, "certificate", 498),
    (1.0, "certificate", 498),
    (1.001, "inconclusive", 498),  # within the roundoff allowance: not cut
    (1.1, "inconclusive", 1),  # cut at the separator's first evaluation
])
def test_cut_spares_certify_until_the_bound_clears_the_roundoff_allowance(
        ratio, kind, certify_evals, hereditary):
    # (m, q) = (1, 1), f = (b - delta) x^2 and g = b x^2: J = 1 is forced, so
    # every certify value and every separator bound is -delta, exactly at the
    # first point (b = 2 tol makes b - delta exact).  Without the cut certify
    # runs 3 starts of 500 // 3 evaluations; the first three rows are also
    # what the race decides without the cut.
    tol = ns.DEFAULT_TOL
    b, delta = 2.0 * tol, ratio * tol
    f = ns.new_quad_poly(np.full((1, 1, 1, 1), b - delta))
    g = ns.new_quad_poly(np.full((1, 1, 1, 1), b))
    slater = ns.new_tuple(np.full((1, 1, 1), 10.0))
    decider = ns.decide_hereditary if hereditary else ns.decide
    decision = decider(f, g, slater, budget=slemma.SLICE)
    d = decision.diagnostics
    assert (decision.kind, d["certify_evals"]) == (kind, certify_evals)
    assert d["certify_bound"] == pytest.approx(-delta, rel=1e-12, abs=0.0)
    assert d["certify_best"] == pytest.approx(-delta, rel=1e-12, abs=0.0)
    assert d["separator_evals"] == (slemma.SLICE if kind == "inconclusive" else 497)
