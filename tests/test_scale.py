"""Decisions do not depend on the units of the input.

The paper's conditions are homogeneous: the residual A - (1_m (x) phi) B
and every compression of f(X) and g(X) scale with (f, g).  Every entry
point divides f and g by one power of two 2^e, the least above both
coefficient norms, so scaling f and g by 2^k (and the Slater tuple by
2^(-k/2), which leaves g(slater) where it was relative to g) gives the same
bits everywhere past it: the same verdict and the same J, M, X, P and E,
with every reported residual, violation and diagnostics value exactly 2^k
times the one at k = 0.
"""

import json
import math
import os

import numpy as np
import pytest

import ncslemma as ns
from ncslemma import cli, linalg, serialize

from helpers import planted_certificate_instance, refutable_instance, scale_gap_instance, slater_poly
from test_race import evals  # noqa: F401  (the bench's evaluation counter, a fixture)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
KS = [-900, -300, -40, -2, 0, 2, 40, 300, 900]
BUDGET = 200

# diagnostics values in the caller's units; every other key is a count or lambda
SCALED_KEYS = {"certify_best", "certify_bound", "multiplier_value", "best_value",
               "bound"}


def fixture_instances():
    """(name, kind, f, g, slater) of every fixture with all three."""
    out = []
    for name in sorted(os.listdir(FIXTURES)):
        with open(os.path.join(FIXTURES, name)) as fh:
            doc = json.load(fh)
        if not all(key in doc for key in ("f", "g", "slater")):
            continue
        try:
            inst = serialize.instance_from_json(doc)
        except ns.NCSLemmaError:  # bad_dimensions.json
            continue
        out.append((name, inst["kind"], inst["f"], inst["g"], inst["slater"]))
    return out


def planted_instances():
    """The planted kinds of tests/helpers.py, each with a Slater point of its g."""
    out = []
    for m, q in [(1, 1), (2, 2), (2, 3)]:
        rng = np.random.default_rng(10 * m + q)
        for make in (planted_certificate_instance, refutable_instance):
            g, x = slater_poly(rng, m, q)
            f, g, _ = make(rng, m, q, g=g)
            out.append((f"{make.__name__}-{m}-{q}", "slemma", f, g, ns.new_tuple(x.reshape(m, 1, 1))))
        f, g, x = scale_gap_instance(rng, m, q)
        out.append((f"scale_gap_instance-{m}-{q}", "slemma", f, g, ns.new_tuple(x.reshape(m, 1, 1))))
    return out


INSTANCES = fixture_instances() + planted_instances()


def exact(a, k):
    """a 2^k, or None when that is not exact (past the float range, or into the subnormals)."""
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        out = np.ldexp(a, k)
    return out if np.isfinite(out).all() and np.array_equal(np.ldexp(out, -k), a) else None


def scaled(kind, f, g, slater, k):
    """(f 2^k, g 2^k, slater 2^(-k/2)), or None when one of them is not exact."""
    if kind == "scalar-slemma":
        parts = [exact(f.A, k), exact(g.A, k), exact(slater, -k // 2)]
        if any(p is None for p in parts):
            return None
        return ns.new_scalar_quad(parts[0]), ns.new_scalar_quad(parts[1]), parts[2]
    parts = [exact(f.blocks, k), exact(g.blocks, k), exact(slater.mats, -k // 2)]
    if any(p is None for p in parts):
        return None
    return (ns.new_quad_poly(parts[0]), ns.new_quad_poly(parts[1]),
            ns.new_tuple(parts[2], kind=slater.kind))


def same_diagnostics(got, want, k):
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key in SCALED_KEYS and value is not None:
            assert got[key] == math.ldexp(value, k), key
        else:
            assert got[key] == value, key


def outcome(kind, f, g, slater, slater_violated=False):
    """The decision at (f, g, slater), and what verify says of its object.

    With ``slater_violated`` the decider must raise SlaterViolated, reported
    as a Decision of that kind; any other instance that raises it fails.
    """
    if kind == "scalar-slemma":
        return ns.scalar_slemma(f, g, slater), None
    decider = ns.decide_hereditary if kind == "slemma-hereditary" else ns.decide
    if slater_violated:
        with pytest.raises(ns.SlaterViolated):
            decider(f, g, slater, budget=BUDGET)
        return ns.Decision(kind="slater-violated"), None
    d = decider(f, g, slater, budget=BUDGET)
    if d.kind == "certificate":
        return d, ns.verify_certificate(d.certificate, f, g)
    if d.kind == "counterexample":
        return d, ns.verify_counterexample(d.counterexample, f, g)
    return d, None


@pytest.mark.parametrize("name,kind,f,g,slater", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_decisions_are_scale_equivariant(name, kind, f, g, slater):
    # slater_violated.json raises at every scale: g(slater) does not move
    violated = name == "slater_violated.json"
    base, base_ok = outcome(kind, f, g, slater, violated)
    tried = 0
    for k in KS:
        inst = scaled(kind, f, g, slater, k)
        if inst is None:  # huge_scale.json has no room above it
            continue
        tried += 1
        got, ok = outcome(kind, *inst, violated)
        assert ok == base_ok, k
        if kind == "scalar-slemma":
            assert (got.outcome, got.lam) == (base.outcome, base.lam)
            assert np.array_equal(got.x, base.x) if base.x is not None else got.x is None
            same_diagnostics(got.diagnostics, base.diagnostics, k)
            continue
        assert got.kind == base.kind, k
        same_diagnostics(got.diagnostics, base.diagnostics, k)
        if base.kind == "certificate":
            a, b = got.certificate, base.certificate
            assert np.array_equal(a.J.J, b.J.J)
            assert np.array_equal(a.residual, np.ldexp(b.residual, k))
            assert a.residual_lambda_min == math.ldexp(b.residual_lambda_min, k)
        elif base.kind == "counterexample":
            a, b = got.counterexample, base.counterexample
            for x, y in [(a.M, b.M), (a.X.mats, b.X.mats), (a.E, b.E)]:
                assert np.array_equal(x, y)
            if isinstance(b, ns.Counterexample):
                assert np.array_equal(a.P, b.P)
            assert a.violation == math.ldexp(b.violation, k)
    assert tried >= 5


def test_a_small_refutable_pair_is_refuted():
    # f = -1e-10 x1x1 against g = 1e-10 x1x1: g(X) is PSD everywhere and f(X) is
    # not, so the answer is a counterexample.  Read against an absolute tol,
    # f alone was "PSD" within 1e-8 and J = [[0]] a certificate.
    f = ns.new_quad_poly(np.full((1, 1, 1, 1), -1e-10))
    g = ns.new_quad_poly(np.full((1, 1, 1, 1), 1e-10))
    d = ns.decide(f, g, ns.new_tuple([[[1000.0]]]))
    assert d.kind == "counterexample"
    assert ns.verify_counterexample(d.counterexample, f, g)


@pytest.mark.parametrize("k", [-300, -30, 300])
def test_the_counterexample_fixture_is_refuted_at_every_scale(k, tmp_path):
    # at 2^-30 f alone was within an absolute 1e-8 of PSD, and J = [[0]] came
    # out as a certificate that verify accepted
    path = os.path.join(FIXTURES, "slemma_counterexample.json")
    with open(path) as fh:
        doc = json.load(fh)
    inst = serialize.instance_from_json(doc)
    f, g, slater = scaled("slemma", inst["f"], inst["g"], inst["slater"], k)
    d = ns.decide(f, g, slater)
    assert d.kind == "counterexample"
    assert ns.verify_counterexample(d.counterexample, f, g)
    # and through the command line, from a fresh instance file
    doc.update(f=serialize.poly_to_json(f), g=serialize.poly_to_json(g),
               slater=serialize.tuple_to_json(slater))
    scaled_path, ce = tmp_path / "scaled.json", tmp_path / "ce.json"
    scaled_path.write_text(serialize.dumps(doc))
    assert cli.main(["slemma", "-o", str(ce), str(scaled_path)]) == cli.EXIT_COUNTEREXAMPLE
    assert cli.main(["verify", str(ce), str(scaled_path)]) == cli.EXIT_OK


@pytest.mark.parametrize("k", [-900, -300, 300, 900])
def test_fro_is_exact_under_powers_of_two(k):
    # the plain sum of squares underflows below about 1e-154 and overflows above
    # about 1e154; both ends rescale by a power of two, so the exponent every
    # entry point divides by moves with the input
    S = np.random.default_rng(3).standard_normal((4, 5))
    assert linalg.fro(np.ldexp(S, k)) == math.ldexp(linalg.fro(S), k)
    assert linalg.binade(np.ldexp(S, k)) == linalg.binade(S) + k
    tiny = math.sqrt(3.0) * 1e-200  # its plain sum of squares is 0
    assert abs(linalg.fro(np.full(3, 1e-200)) - tiny) <= np.spacing(tiny)


@pytest.mark.parametrize("k", [-40, 0, 40])
@pytest.mark.parametrize("m,q,size", [(1, 2, 3.0), (2, 3, 3.0), (2, 2, 1.0), (2, 3, 0.5)])
def test_homogenize_is_scale_equivariant(m, q, size, k, evals):
    # instances whose search takes several candidates, the first two without a PSD
    # homogenization and the last two with one: the same verdict, the same evaluations
    # and the same objects, times 2^k
    from helpers import random_psd_poly, random_sym

    rng = np.random.default_rng(10 * m + q)
    quad = random_psd_poly(rng, m, q)
    linear = np.stack([random_sym(rng, q) for _ in range(m)]) * size
    R = random_sym(rng, q)
    constant = R @ R + np.eye(q)
    base = ns.homogenize(quad, linear, constant, budget=BUDGET)
    base_evals, evals[0] = evals[0], 0
    assert base_evals > 1
    assert base.feasible == (size < 3.0)
    got = ns.homogenize(ns.new_quad_poly(np.ldexp(quad.blocks, k)), np.ldexp(linear, k),
                        np.ldexp(constant, k), budget=BUDGET)
    assert evals == [base_evals]
    assert got.feasible == base.feasible
    assert got.lambda_min == math.ldexp(base.lambda_min, k)
    assert np.array_equal(got.h_blocks, np.ldexp(base.h_blocks, k))
    assert np.array_equal(got.coefficient, np.ldexp(base.coefficient, k))


@pytest.mark.parametrize("k", [0, -30, -40])
def test_a_small_affine_scalar_without_a_psd_homogenization_is_infeasible(k):
    # x^2 + 3x + 1 takes negative values: C = [[1, 3/2], [3/2, 1]] has lambda_min -1/2.
    # Read against an absolute tol, at 2^-30 and 2^-40 it was "PSD within 1e-8".
    t = math.ldexp(1.0, k)
    res = ns.homogenize(ns.new_quad_poly([[[[t]]]]), [[[3.0 * t]]], [[t]])
    assert not res.feasible
    assert res.lambda_min == pytest.approx(-0.5 * t, rel=1e-12)
