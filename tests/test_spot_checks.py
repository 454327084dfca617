"""The batched spot checks of verify_certificate against the per-tuple loop they replace."""

import contextlib
import io
import json
import os
import warnings

import numpy as np
import pytest

import ncslemma as ns
from ncslemma import cli, serialize, slemma
from ncslemma.slemma import SPOT_CHECKS, _map_coefficients, _scaled, _spot_checks_pass, _spot_tuples

from helpers import poly_from_matrix, random_poly
from test_poly import example_62_f, example_62_g

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

SIZES = [(1, 1), (2, 2), (3, 2), (2, 3), (6, 8)]
TRIPLES_PER_SIZE = 40


# --- the reference: the loop verify_certificate ran, one tuple at a time ------

def reference_tuples(m, seed):
    """Draw the SPOT_CHECKS tuples in the loop's order: a size, then that size's matrices."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(SPOT_CHECKS):
        n = int(rng.integers(1, 5))
        raw = rng.standard_normal((m, n, n))
        out.append(ns.new_tuple((raw + raw.transpose(0, 2, 1)) / 2.0, kind="symmetric"))
    return out


def reference_map(J, M, q):
    """(phi_J (x) 1_n) M by the grid contraction, as apply_map_blockwise computed it."""
    n = M.shape[0] // q
    out = np.einsum("iajb,axby->ixjy", J.reshape(q, q, q, q), M.reshape(q, n, q, n))
    return out.reshape(q * n, q * n)


def reference_gaps(f, g, J, seed):
    """(gap, margin) at each tuple X: the margin (1 + ||A||_F) sum_i ||X_i||_F^2 is tol's unit."""
    for X in reference_tuples(f.m, seed):
        margin = (1.0 + np.linalg.norm(f.blocks)) * sum(np.linalg.norm(Xi) ** 2 for Xi in X.mats)
        yield ns.evaluate(f, X) - reference_map(J, ns.evaluate(g, X), f.q), margin


def reference_spot_checks(f, g, J, tol, seed):
    """Each gap PSD up to tol times its margin: the instance sets it, not phi.

    Run it on the scaled instance (``scaled_pair``), which is where verify's
    tolerance tol (2^e + ||A||_F) is this margin's.
    """
    return all(np.linalg.eigvalsh(gap)[0] >= -tol * margin
               for gap, margin in reference_gaps(f, g, J, seed))


def scaled_pair(f, g):
    """f and g over their 2^e, as verify_certificate scales them."""
    return _scaled(f, g)[:2]


def spot_checks(f, g, J, tol, seed):
    """The batched checks on f and g as verify_certificate hands them over: scaled, J of norm below 2."""
    return _spot_checks_pass(*scaled_pair(f, g), 1.0, J, tol, seed)


# --- random (f, g, J, tol, seed) triples, about half of them failing -----------

def random_triple(rng, m, q):
    """f = (1 (x) phi_J) g + R, R = P P^T / 2d - s I: the gap at X is R(X), often indefinite.

    tol puts the worst tuple's -lambda_min(gap) / margin at a log-uniform
    factor in [1/2, 2] of it, on the scaled instance, so a case with an
    indefinite gap fails iff the factor is below one.  J has trace one, so
    the roundoff the batched checks charge (about 1e-15 of the margin)
    cannot turn a verdict.
    """
    d = m * q
    g = random_poly(rng, m, q)
    W = rng.standard_normal((q * q, q * q))
    J = W @ W.T / np.trace(W @ W.T)
    P = rng.standard_normal((d, 2 * d))
    R = P @ P.T / (2 * d) - rng.uniform(0.0, 2.5) * np.eye(d)
    f = poly_from_matrix(_map_coefficients(J, g.blocks, q) + R, m, q)
    seed = int(rng.integers(0, 2 ** 31))
    worst = min(np.linalg.eigvalsh(gap)[0] / margin
                for gap, margin in reference_gaps(*scaled_pair(f, g), J, seed))
    tol = -worst * 2.0 ** rng.uniform(-1.0, 1.0) if worst < 0 else 1e-8
    return f, g, J, tol, seed


@pytest.fixture(scope="module")
def triples():
    rng = np.random.default_rng(2024)
    return [random_triple(rng, m, q) for m, q in SIZES for _ in range(TRIPLES_PER_SIZE)]


def test_batched_spot_checks_match_the_reference_loop(triples):
    want = [reference_spot_checks(*scaled_pair(f, g), *rest) for f, g, *rest in triples]
    got = [spot_checks(*t) for t in triples]
    assert got == want
    assert 0.3 * len(want) < want.count(False) < 0.7 * len(want)
    for m, q in SIZES:  # every size both passes and fails somewhere
        mine = [w for (f, *_), w in zip(triples, want) if (f.m, f.q) == (m, q)]
        assert True in mine and False in mine


def test_a_residual_that_passes_passes_every_spot_check():
    # lambda_min(gap) >= s(X) lambda_min(R), so a tol at which the residual R
    # of (f, g, J), both over their 2^e, just passes lets every spot check pass as well
    rng = np.random.default_rng(7)
    for m, q in SIZES:
        for _ in range(5):
            f, g, J, _, seed = random_triple(rng, m, q)
            f2, g2 = scaled_pair(f, g)
            low = np.linalg.eigvalsh(ns.coefficient_matrix(f2) - _map_coefficients(J, g2.blocks, q))[0]
            tol = -1.01 * low / (1.0 + np.linalg.norm(f2.blocks)) if low < 0 else 1e-8
            cert = ns.CPCertificate(J=ns.new_choi(J, q, q), residual=np.zeros((m * q, m * q)))
            assert ns.verify_certificate(cert, f, g, tol=tol, seed=seed)
            assert spot_checks(f, g, J, tol, seed)


def test_spot_checks_past_the_reference_range_keep_its_verdicts(triples):
    # At 2^1000 every evaluation of the reference loop overflows.  The checks
    # run on f and g over their 2^e, the same bits at 2^1000 as at 1, so they
    # give the reference's verdicts on the scaled instance.
    def scaled(p, e):
        return ns.new_quad_poly(np.ldexp(p.blocks, e))

    for f, g, J, tol, seed in triples[::5]:
        assert spot_checks(scaled(f, 1000), scaled(g, 1000), J, tol, seed) == \
            reference_spot_checks(*scaled_pair(f, g), J, tol, seed)


def reference_groups(m, seed):
    """The reference draws, stacked by size in the order each size first appears."""
    by_size = {}
    for X in reference_tuples(m, seed):
        by_size.setdefault(X.n, []).append(X.mats)
    return [np.stack(mats) for mats in by_size.values()]


@pytest.mark.parametrize("m", [1, 2, 6])
def test_spot_tuples_are_the_reference_draws_grouped_by_size(m):
    for seed in range(21):
        want = reference_groups(m, seed)
        got = _spot_tuples(m, seed)
        assert len(got) == len(want)
        for stack, ref in zip(got, want):
            np.testing.assert_array_equal(stack, ref)
            assert not stack.flags.writeable  # cached: shared by every later check


def test_verify_certificate_evaluates_at_the_reference_draws(monkeypatch):
    f, g = example_62_f(), example_62_g()
    cert = ns.certify(f, g, ns.new_tuple([[[1.0]], [[0.0]]])).certificate
    seen = []
    gram_form = slemma._gram_form

    def recording(p, mats):
        seen.append(mats)
        return gram_form(p, mats)

    monkeypatch.setattr(slemma, "_gram_form", recording)
    for seed in range(21):
        seen.clear()
        assert ns.verify_certificate(cert, f, g, seed=seed)
        want = reference_groups(f.m, seed)
        assert len(seen) == 2 * len(want)  # f and g at each stack
        for k, stack in enumerate(want):
            np.testing.assert_array_equal(seen[2 * k], stack)
            np.testing.assert_array_equal(seen[2 * k + 1], stack)


# --- a gap whose eigenvalue is NaN never passes ------------------------------

def _instance(q=2, m=2):
    rng = np.random.default_rng(5)
    return random_poly(rng, m, q), random_poly(rng, m, q)


def test_a_nan_eigenvalue_fails_the_check(monkeypatch):
    f, g = _instance()
    J = np.eye(4) / 4.0
    calA = _map_coefficients(J, g.blocks, 2) + 5.0 * np.eye(4)
    f = poly_from_matrix(calA, 2, 2)
    assert spot_checks(f, g, J, 1e-8, 0)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(a.shape[:-1], np.nan))
    assert not spot_checks(f, g, J, 1e-8, 0)


# --- the command line ----------------------------------------------------------

def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, json.loads(out.getvalue())


def test_huge_scale_certificate_verifies_without_a_warning(tmp_path):
    # f = 1.7e308 x1x1 over g = x1x1: f(X) - g(X) at a spot-check tuple
    # overflows unless the check scales f and g down first.
    inst = os.path.join(FIXTURES, "huge_scale.json")
    cert = str(tmp_path / "cert.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = _run("slemma", "-o", cert, inst)
        assert code == cli.EXIT_OK and doc["type"] == "cp-certificate"
        code, doc = _run("verify", cert, inst)
    assert code == cli.EXIT_OK
    assert doc["verified"] is True


def test_residual_of_opposite_huge_blocks_verifies_at_the_spot_checks_scale(tmp_path):
    # f = x1x1 + 1.7e308 x2x2, g = x1x1 - 1.7e308 x2x2, phi = 1: the residual
    # diag(0, 3.4e308) is past the float range unless it is formed from the
    # scaled f and g the spot checks use.
    f = ns.scalar_to_nc(ns.new_scalar_quad(np.diag([1.0, 1.7e308])))
    g = ns.scalar_to_nc(ns.new_scalar_quad(np.diag([1.0, -1.7e308])))
    J = ns.new_choi(np.eye(1), 1, 1)
    cert = ns.CPCertificate(J=J, residual=np.zeros((2, 2)))
    assert ns.verify_certificate(cert, f, g)
    inst, cert_path = tmp_path / "inst.json", tmp_path / "cert.json"
    inst.write_text(serialize.dumps({"format": serialize.FORMAT, "kind": "slemma",
                                     "f": serialize.poly_to_json(f),
                                     "g": serialize.poly_to_json(g),
                                     "slater": serialize.tuple_to_json(ns.new_tuple([[[1.0]], [[0.0]]]))}))
    cert_path.write_text(serialize.dumps(serialize.certificate_to_json(cert, {})))
    code, doc = _run("verify", str(cert_path), str(inst))
    assert (code, doc["verified"]) == (cli.EXIT_OK, True)


def test_verify_accepts_the_example62_certificate_at_every_seed(tmp_path):
    inst = os.path.join(FIXTURES, "example62.json")
    cert = str(tmp_path / "cert.json")
    assert _run("slemma", "-o", cert, inst)[0] == cli.EXIT_OK
    for seed in range(21):
        code, doc = _run("verify", "--seed", str(seed), cert, inst)
        assert (code, doc["verified"], doc["options"]["seed"]) == (cli.EXIT_OK, True, seed)
