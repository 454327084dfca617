"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import functools
import json
import os
import time

import numpy as np
import pytest

import ncslemma as ns
from ncslemma import cli

from helpers import (
    decided_both_ways,
    planted_certificate,
    planted_certificate_instance,
    random_poly,
    random_psd_poly,
    random_scalar_pair,
    random_sym_tuple,
    refutable_instance,
    slater_poly,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def criterion(number, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE CRITERION {number}: FAIL ({summary})")
                raise
            print(f"ACCEPTANCE CRITERION {number}: PASS ({summary})")

        return run

    return wrap


@criterion(1, "worked certificate example reproduced, runtime < 5 s")
def test_criterion_1_certificate_example(capsys):
    start = time.perf_counter()
    code = cli.main(["slemma", fx("example62.json")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["type"] == "cp-certificate"
    assert doc["residual_lambda_min"] >= -1e-6

    from test_poly import example_62_f, example_62_g

    f, g = example_62_f(), example_62_g()
    X = ns.new_tuple([[[1.0]], [[2.0]]])
    v = np.array([0.0, 1.0])
    assert abs(v @ ns.evaluate(g, X) @ v - 1.0) <= 1e-12
    assert abs(v @ ns.evaluate(f, X) @ v + 3.0) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion(2, "compressed evaluations match the displayed matrices to 1e-12")
def test_criterion_2_compressed_example():
    from test_poly import (
        example_61_f,
        example_61_g,
        example_61_point,
        example_61_projection,
    )

    X0 = example_61_point()
    P = example_61_projection()
    comp_g = ns.evaluate_compressed(example_61_g(), X0, P)
    expected_g = np.zeros((24, 24))
    expected_g[2, 2] = 1.0
    assert np.abs(comp_g - expected_g).max() <= 1e-12
    assert ns.is_psd(comp_g, 1e-10)

    comp_f = ns.evaluate_compressed(example_61_f(), X0, P)
    expected_f = np.zeros((24, 24))
    expected_f[2, 2] = -1.0
    assert np.abs(comp_f - expected_f).max() <= 1e-12


@criterion(3, "homogenization example: h1 psd, h2 not, search feasible; < 5 s")
def test_criterion_3_homogenization(capsys):
    start = time.perf_counter()
    code = cli.main(["check-positivity", fx("h1.json")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["verdict"] == "psd"

    code = cli.main(["check-positivity", fx("h2.json")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 10 and doc["verdict"] == "not-psd"
    assert min(doc["eigenvalues"]) == pytest.approx(-1.0, abs=1e-10)

    code = cli.main(["homogenize", fx("homogenize_affine.json")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["feasible"] is True
    assert doc["lambda_min"] >= -1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion(4, "global PSD test agrees with the evaluation-point oracle; < 60 s")
def test_criterion_4_positivity_oracle():
    from test_positivity import proof_block_matrix

    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    psd_seen = 0
    while checked < 200:
        m = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        p = random_psd_poly(rng, m, q) if rng.random() < 0.5 else random_poly(rng, m, q)
        report = ns.is_globally_psd(p)
        blockmat = proof_block_matrix(p)
        scale = 1.0 + np.linalg.norm(blockmat)
        oracle_psd = float(np.linalg.eigvalsh(blockmat)[0]) >= -1e-8 * scale
        assert (report.verdict == "psd") == oracle_psd
        if report.verdict == "psd":
            psd_seen += 1
            for _ in range(100):
                X = random_sym_tuple(rng, m, int(rng.integers(1, 5)))
                val = ns.evaluate(p, X)
                lm = float(np.linalg.eigvalsh(val)[0])
                assert lm >= -1e-8 * (1.0 + np.linalg.norm(val))
        checked += 1
    assert psd_seen >= 50
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


@criterion(5, "sum-of-squares factorization residuals within 1e-8 relative")
def test_criterion_5_sos():
    rng = np.random.default_rng(2025)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        p = random_psd_poly(rng, m, q)
        sf = ns.sos_factor(p)
        for _ in range(20):
            X = random_sym_tuple(rng, m, int(rng.integers(1, 4)))
            val = ns.evaluate(p, X)
            err = np.linalg.norm(val - ns.evaluate_factor(sf, X))
            assert err <= 1e-8 * (1.0 + np.linalg.norm(val))


@criterion(6, "50 planted certificates recovered within budget; < 120 s total")
def test_criterion_6_planted_certificates():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    shapes = [(m, q) for m in range(1, 5) for q in range(1, 4) if m * q <= 12]
    for trial in range(50):
        m, q = shapes[int(rng.integers(0, len(shapes)))]
        g, x = slater_poly(rng, m, q)
        f, g, _ = planted_certificate_instance(rng, m, q, g=g)
        out = ns.certify(f, g, ns.new_tuple(x.reshape(m, 1, 1)), budget=5000)
        assert out.certificate is not None, f"trial {trial} ({m},{q}): {out.best_value}"
        assert out.certificate.residual_lambda_min >= -1e-6
        assert ns.verify_certificate(out.certificate, f, g, seed=trial)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.2f}s"


@criterion(7, "50 separator instances yield verified counterexamples")
def test_criterion_7_counterexamples():
    rng = np.random.default_rng(2027)
    built = 0
    trial = 0
    # the canonical scalar embedding is always part of the batch
    f0 = ns.scalar_to_nc(ns.new_scalar_quad([[0.0, 1.0], [1.0, 0.0]]))
    g0 = ns.scalar_to_nc(ns.new_scalar_quad([[1.0, 0.0], [0.0, 0.0]]))
    instances = [(f0, g0, ns.new_tuple([[[1.0]], [[0.0]]]))]
    while len(instances) < 50:
        m = int(rng.integers(1, 4))
        q = int(rng.integers(1, 3))
        g, x = slater_poly(rng, m, q)
        f, g, _ = refutable_instance(rng, m, q, g=g)  # g gains a PSD shift: x stays Slater
        instances.append((f, g, ns.new_tuple(x.reshape(m, 1, 1))))
    for f, g, slater in instances:
        trial += 1
        sep = ns.find_separator(f, g, slater, budget=4000)
        assert sep.M is not None, f"separator search failed on trial {trial}"
        ce = ns.build_counterexample(f, g, sep.M)
        assert ns.verify_counterexample(ce, f, g)
        q_, r = f.q, ce.rank
        for i in range(f.m):
            for j in range(f.m):
                prod = ce.P @ ce.X.mats[i] @ ce.X.mats[j] @ ce.P
                Mij = ce.M[i * q_:(i + 1) * q_, j * q_:(j + 1) * q_]
                assert np.linalg.norm(prod[r:, r:] - Mij) <= 1e-8
        built += 1
    assert built == 50


@criterion(8, "no instance admits both a certificate and a separator at margin 1e-6")
def test_criterion_8_mutual_exclusion():
    # Certificates and counterexamples exclude each other.  Each pair is decided in both kinds,
    # which must agree, against the planted answer: a planted certificate, verified, must not
    # meet a verified counterexample, and a counterexample built from a planted separator
    # must not meet a verified certificate.  Random pairs, f and g both drawn at random, go
    # through the same checks whenever the drawn point is a Slater point of g.
    rng = np.random.default_rng(2028)
    kinds = []
    for trial in range(200):
        m = int(rng.integers(1, 3))
        q = int(rng.integers(1, 3))
        roll = rng.random()
        if roll < 0.7:
            g, x = slater_poly(rng, m, q)
        else:
            g, x = random_poly(rng, m, q), rng.standard_normal(m)
        slater = ns.new_tuple(x.reshape(m, 1, 1))
        if roll < 0.35:
            f, g, J0 = planted_certificate_instance(rng, m, q, g=g)
            planted, want = [planted_certificate(f, g, J0)], "certificate"
        elif roll < 0.7:
            f, g, Mstar = refutable_instance(rng, m, q, g=g)  # g gains a PSD shift: x stays Slater
            planted, want = [ns.build_counterexample(f, g, Mstar)], "counterexample"
        else:
            f, planted, want = random_poly(rng, m, q), [], None
        try:
            kind = decided_both_ways(f, g, slater, 900, planted)
        except ns.SlaterViolated:
            assert want is None
            continue
        assert kind == want or want is None
        kinds.append((want, kind))
    assert sum(want is None for want, _ in kinds) >= 10


def _brute_force_lambda_max(A, B):
    """Independent oracle: grid search of lambda_min(A - lam B) on [0, 2^10]."""

    def h(lam):
        return float(np.linalg.eigvalsh(A - lam * B)[0])

    lo, hi = 0.0, 2.0 ** 10
    step = 1.0
    grid = np.arange(lo, hi + step, step)
    vals = [h(x) for x in grid]
    k = int(np.argmax(vals))
    best_x, best_v = grid[k], vals[k]
    while step > 2.0 ** -10:
        lo = max(0.0, best_x - step)
        hi = best_x + step
        step = (hi - lo) / 64.0
        grid = np.arange(lo, hi + step, step)
        vals = [h(x) for x in grid]
        k = int(np.argmax(vals))
        best_x, best_v = grid[k], vals[k]
    return best_x, best_v


def _circle_has_counterexample(A, B):
    thetas = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    xs = np.stack([np.cos(thetas), np.sin(thetas)])
    a_vals = np.einsum("it,ij,jt->t", xs, A, xs)
    b_vals = np.einsum("it,ij,jt->t", xs, B, xs)
    return bool(np.any((b_vals >= 0.0) & (a_vals < -1e-9)))


@criterion(9, "scalar decisions match brute-force grid search outside the dead zone")
def test_criterion_9_scalar_vs_brute_force():
    rng = np.random.default_rng(2029)
    compared = 0
    trials = 0
    while compared < 100:
        trials += 1
        assert trials < 400, "too many dead-zone instances"
        f, g, slater = random_scalar_pair(rng, m=2)
        _, best = _brute_force_lambda_max(f.A, g.A)
        if -1e-6 < best < -1e-8:
            continue  # declared dead zone: either branch is acceptable
        result = ns.scalar_slemma(f, g, slater)
        if best >= -1e-8:
            assert result.outcome == "certificate", (best, result.diagnostics)
            lam = result.lam
            assert float(np.linalg.eigvalsh(f.A - lam * g.A)[0]) >= -1e-6
        else:
            assert _circle_has_counterexample(f.A, g.A)
            assert result.outcome == "counterexample", (best, result.diagnostics)
            x = result.x
            assert x @ f.A @ x <= -1e-6
            assert x @ g.A @ x >= -1e-8
        compared += 1
