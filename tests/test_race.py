"""decide and decide_hereditary race the certify search against the separator
search, one evaluation each in turn.  By weak duality at most one side can
reach its target, so the race must return what the two searches return run
one after the other: certify, then find_separator, then the builder, round
by round at the same budget.  Evaluations are counted as bench/spans.py
counts them, from what every supergradient_ascent call returns."""

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


def sequential(f, g, budget, seed, hereditary, evals, tol=ns.DEFAULT_TOL,
               tol_strict=ns.DEFAULT_TOL_STRICT):
    """The parent decision: certify, then find_separator, then the builder, per round.

    Returns the kind, the object, the evaluations find_separator used, and
    the evaluations each side makes in the race: one each in turn, certify
    first, until certify finishes at >= -tol or the separator reaches its
    target, which settles the round only while 2 tol_strict > tol.
    """
    f2, g2 = slemma.reconcile(f, g)
    builder = ns.build_counterexample_hereditary if hereditary else ns.build_counterexample
    target = 2.0 * tol_strict / (1.0 + linalg.fro(ns.coefficient_matrix(f2)))
    separator_alone, race = 0, [0, 0]
    for rnd in range(1, max(1, math.ceil(budget / slemma.SLICE)) + 1):
        slice_budget = min(budget, rnd * slemma.SLICE)
        before = evals[0]
        cert = ns.certify(f2, g2, budget=slice_budget, tol=tol, seed=seed)
        n_cert = evals[0] - before
        before = evals[0]
        sep = ns.find_separator(f2, g2, budget=slice_budget, tol=tol, tol_strict=tol_strict,
                                seed=seed + 1)
        n_sep = evals[0] - before
        if cert.certificate is not None:
            race[0] += n_cert
            race[1] += min(n_cert - 1, n_sep)
            return "certificate", cert.certificate, separator_alone, race
        separator_alone += n_sep
        settled = sep.best_value >= target and 2.0 * tol_strict > tol
        race[0] += min(n_cert, n_sep) if settled else n_cert
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
