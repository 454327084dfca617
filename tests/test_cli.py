import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ncslemma as ns
from ncslemma import cli, serialize

from helpers import planted_certificate_instance, random_poly, slater_poly

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    return code, doc, captured.err


def test_check_positivity_h1_psd(capsys):
    code, doc, _ = run(capsys, "check-positivity", fx("h1.json"))
    assert code == 0
    assert doc["verdict"] == "psd"


def test_check_positivity_h2_not_psd(capsys):
    code, doc, _ = run(capsys, "check-positivity", fx("h2.json"))
    assert code == 10
    assert doc["verdict"] == "not-psd"
    assert min(doc["eigenvalues"]) == pytest.approx(-1.0)
    assert "witness" in doc


def test_check_positivity_zero(capsys):
    code, doc, _ = run(capsys, "check-positivity", fx("zero_poly.json"))
    assert code == 0


def test_check_positivity_example62_f(capsys):
    code, doc, _ = run(capsys, "check-positivity", fx("example62.json"))
    assert code == 10
    assert min(doc["eigenvalues"]) == pytest.approx(-1.0)
    assert "witness" in doc


def test_check_positivity_huge_coefficients(capsys, tmp_path):
    # ||A||_F ~ 1e200: its plain sum of squares overflows, and an infinite
    # norm would make the PSD tolerance -inf and the verdict "psd".
    f = random_poly(np.random.default_rng(0), 2, 2, scale=1e200)
    path = tmp_path / "huge.json"
    path.write_text(serialize.dumps(
        {"format": serialize.FORMAT, "kind": "positivity", "f": serialize.poly_to_json(f)}))
    code, doc, _ = run(capsys, "check-positivity", str(path))
    assert code == 10
    assert doc["verdict"] == "not-psd"
    assert min(doc["eigenvalues"]) < -1e200
    assert doc["witness"]["value"] < 0


def test_check_positivity_norm_past_the_largest_float(capsys, tmp_path):
    # one block -1.5e308 * I2: finite entries whose Frobenius norm is inf, which
    # made the PSD tolerance -inf and the verdict "psd" for a negative definite f
    path = tmp_path / "past_range.json"
    path.write_text(json.dumps({"format": serialize.FORMAT, "kind": "positivity",
                                "f": {"m": 1, "q": 2, "blocks": [[(-1.5e308 * np.eye(2)).tolist()]]}}))
    code, doc, _ = run(capsys, "check-positivity", str(path))
    assert code == cli.EXIT_PARSE
    assert doc["error"] == "parse"


def test_check_positivity_sos(capsys, tmp_path):
    out = tmp_path / "h1_result.json"
    code, doc, _ = run(capsys, "check-positivity", "--sos", "-o", str(out), fx("h1.json"))
    assert code == 0
    assert doc["sos"]["rank"] == 1
    on_disk = json.loads(out.read_text())
    assert on_disk == doc


def test_slemma_example62_certificate(capsys, tmp_path):
    out = tmp_path / "cert.json"
    code, doc, err = run(capsys, "slemma", "-o", str(out), fx("example62.json"))
    assert code == 0
    assert doc["type"] == "cp-certificate"
    assert doc["residual_lambda_min"] >= -1e-6
    assert doc["options"]["seed"] == 42
    assert "certificate found" in err
    d = doc["diagnostics"]
    assert type(d["certify_evals"]) is int and type(d["separator_evals"]) is int
    assert json.loads(out.read_text()) == doc

    # round trip through the verifier
    code2, doc2, _ = run(capsys, "verify", str(out), fx("example62.json"))
    assert code2 == 0
    assert doc2["verified"] is True


def test_slemma_counterexample(capsys, tmp_path):
    out = tmp_path / "ce.json"
    code, doc, _ = run(capsys, "slemma", "-o", str(out), fx("slemma_counterexample.json"))
    assert code == 11
    assert doc["type"] == "counterexample"
    assert doc["refutes"] == "projected-domination"
    assert doc["violation"] <= -1e-6
    assert doc["diagnostics"]["multiplier_evals"] >= 1  # q = 1: the multiplier's bracket
    assert json.loads(out.read_text()) == doc

    code2, doc2, _ = run(capsys, "verify", str(out), fx("slemma_counterexample.json"))
    assert code2 == 0
    assert doc2["verified"] is True


def test_slemma_hereditary(capsys, tmp_path):
    out = tmp_path / "hce.json"
    code, doc, _ = run(capsys, "slemma-hereditary", "-o", str(out),
                       fx("hereditary_counterexample.json"))
    assert code == 11
    assert doc["type"] == "counterexample-hereditary"

    code2, doc2, _ = run(capsys, "verify", str(out), fx("hereditary_counterexample.json"))
    assert code2 == 0
    assert doc2["verified"] is True


def test_slemma_missing_slater(capsys):
    code, doc, _ = run(capsys, "slemma", fx("missing_slater.json"))
    assert code == 2
    assert doc["error"] == "parse"


def test_slemma_bad_dimensions(capsys):
    code, doc, _ = run(capsys, "slemma", fx("bad_dimensions.json"))
    assert code == 3
    assert doc["error"] == "dimension"


def test_slemma_slater_violated(capsys, tmp_path):
    doc = json.loads(open(fx("example62.json")).read())
    doc["slater"] = {"n": 1, "kind": "symmetric", "mats": [[[0.0]], [[1.0]]]}
    path = tmp_path / "bad_slater.json"
    path.write_text(serialize.dumps(doc))
    code, out, _ = run(capsys, "slemma", str(path))
    assert code == 4
    assert out["error"] == "slater-violated"
    # the same instance as a fixture, for the console script's one-shot run
    assert json.loads(open(fx("slater_violated.json")).read()) == doc


def test_verify_rejects_bogus_certificate_on_huge_coefficients(capsys, tmp_path):
    # The instance, scaled by 1e200, has a counterexample; the identity map is no certificate.
    doc = json.loads(open(fx("slemma_counterexample.json")).read())
    for key in ("f", "g"):
        doc[key]["blocks"] = (1e200 * np.array(doc[key]["blocks"], dtype=float)).tolist()
    inst = tmp_path / "huge.json"
    inst.write_text(json.dumps(doc))
    cert = ns.CPCertificate(J=ns.new_choi(np.eye(1), 1, 1), residual=np.zeros((2, 2)))
    cert_path = tmp_path / "bogus.json"
    cert_path.write_text(serialize.dumps(serialize.certificate_to_json(cert, {})))
    code, doc, _ = run(capsys, "verify", str(cert_path), str(inst))
    assert code == 10
    assert doc["verified"] is False


def test_verify_norm_past_the_largest_float(capsys, tmp_path):
    # f = -1.5e308 * (x1 x1 (x) I2) is not dominated by g; its norm is inf
    doc = {"format": serialize.FORMAT, "kind": "slemma",
           "f": {"m": 1, "q": 2, "blocks": [[(-1.5e308 * np.eye(2)).tolist()]]},
           "g": {"m": 1, "q": 2, "blocks": [[np.eye(2).tolist()]]}}
    inst = tmp_path / "past_range.json"
    inst.write_text(json.dumps(doc))
    cert = ns.CPCertificate(J=ns.new_choi(np.eye(4) / 4.0, 2, 2), residual=np.zeros((2, 2)))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(serialize.dumps(serialize.certificate_to_json(cert, {})))
    code, out, _ = run(capsys, "verify", str(cert_path), str(inst))
    assert code == cli.EXIT_PARSE
    assert out["error"] == "parse"


def test_slemma_huge_coefficients_exit_code(capsys, tmp_path):
    from test_slemma import huge_block_identity_instance

    f, g, slater = huge_block_identity_instance()
    path = tmp_path / "huge.json"
    path.write_text(serialize.dumps({
        "format": serialize.FORMAT, "kind": "slemma",
        "f": serialize.poly_to_json(f), "g": serialize.poly_to_json(g),
        "slater": serialize.tuple_to_json(slater),
    }))
    out = tmp_path / "out.json"
    code, doc, _ = run(capsys, "slemma", "--budget", "300", "-o", str(out), str(path))
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_DIMENSION, cli.EXIT_SLATER,
                    cli.EXIT_NEGATIVE, cli.EXIT_COUNTEREXAMPLE, cli.EXIT_INCONCLUSIVE)
    if code in (cli.EXIT_OK, cli.EXIT_COUNTEREXAMPLE):
        assert run(capsys, "verify", str(out), str(path))[0] == 0


def test_slemma_certifies_the_scale_gap_at_q2_off_the_trace_one_slice(capsys, tmp_path):
    # f = x1x1 (x) I_2, g = 4 x1x1 (x) I_2: every trace-one map phi has
    # tr phi(I_2) = 1, so A - (1 (x) phi) B = I_2 - 4 phi(I_2) is never PSD
    # there, while phi = id / 4 (trace 1/2) is a certificate.  The certify
    # search is not bound to the slice: its first two points, both trace one,
    # fail, and its first Douglas-Rachford candidate certifies.
    path = fx("scale_gap_q2.json")
    out = tmp_path / "cert.json"
    code, doc, _ = run(capsys, "slemma", "--budget", "500", "-o", str(out), path)
    assert code == cli.EXIT_OK
    assert abs(np.trace(np.array(doc["J"]["J"])) - 1.0) > 0.5
    assert doc["residual_lambda_min"] >= 0.0
    d = doc["diagnostics"]
    assert (d["certify_evals"], d["separator_evals"]) == (3, 2)
    assert run(capsys, "verify", str(out), path)[0] == cli.EXIT_OK


def check_near_miss_inconclusive(capsys, budget):
    # f = x1x1 (x) diag(1, -2^-22), g = x1x1 (x) I_2: (A - (1 (x) phi) B)_22 =
    # -2^-22 - phi(I_2)_22 <= -2^-22 for every CP phi, so no certificate
    # exists, and the best separator value, min(lambda_min(M), -<A, M>) near
    # M = e_2 e_2^T, is about 2^-23, far below tol_strict.  Neither side
    # settles at any budget.
    path = fx("near_miss_q2.json")
    code, doc, _ = run(capsys, "slemma", "--budget", str(budget), path)
    assert code == cli.EXIT_INCONCLUSIVE
    with open(path) as fh:
        inst = serialize.instance_from_json(json.load(fh))
    assert np.array_equal(ns.coefficient_matrix(inst["f"]), np.diag([1.0, -2.0 ** -22]))
    assert np.array_equal(ns.coefficient_matrix(inst["g"]), np.eye(2))
    expected = ns.decide(inst["f"], inst["g"], inst["slater"], budget=budget).diagnostics
    for key in ("certify_evals", "separator_evals"):
        assert budget >= doc["diagnostics"][key] == expected[key] > 0
    # Every separator point M has T = M (x) I_2 PSD, so its bound is <A, M> >= -2^-22;
    # a bound below -tol cut certify short.
    keys = list(doc["diagnostics"])
    assert keys[keys.index("certify_best") + 1] == "certify_bound"
    bound = doc["diagnostics"]["certify_bound"]
    assert bound == expected["certify_bound"]
    assert -2.0 ** -22 <= bound < -ns.DEFAULT_TOL
    assert doc["diagnostics"]["certify_evals"] < budget
    assert doc["diagnostics"]["certify_best"] <= -2.0 ** -22 * (1.0 - 1e-9)


def test_slemma_inconclusive_reports_the_evaluations_of_each_side(capsys):
    check_near_miss_inconclusive(capsys, 600)


@pytest.mark.parametrize("budget", [500, 1000, 5000])
def test_slemma_inconclusive_evaluations_stay_within_the_budget(capsys, budget):
    check_near_miss_inconclusive(capsys, budget)


def test_slemma_scale_gap_at_q1_runs_no_search(capsys, tmp_path):
    # f = x1x1, g = 4 x1x1: every multiplier in [0, 1/4] certifies, and
    # h(lambda) = 1 - 4 lambda falls at 0, so one evaluation of h gives the
    # certificate J = [[0]], whose residual is f's coefficient matrix [[1]]
    out = tmp_path / "cert.json"
    code, doc, _ = run(capsys, "slemma", "--budget", "500", "-o", str(out), fx("scale_gap.json"))
    assert code == cli.EXIT_OK
    assert doc["J"] == {"s": 1, "t": 1, "J": [[0.0]]}
    assert doc["residual_lambda_min"] == 1.0 and doc["residual"] == [[1.0]]
    assert run(capsys, "verify", str(out), fx("scale_gap.json"))[0] == cli.EXIT_OK
    d = doc["diagnostics"]
    assert d["certify_bound"] == d["certify_best"] == 1.0
    assert (d["certify_evals"], d["separator_evals"], d["separator_best"]) == (0, 0, None)
    assert (d["multiplier"], d["multiplier_value"], d["multiplier_evals"]) == (0.0, 1.0, 1)


def test_certificate_at_certifys_first_point_reports_no_separator_value(capsys, tmp_path):
    # the separator makes no evaluation, so its best value is null, not -inf,
    # which has no JSON form
    rng = np.random.default_rng(3)
    g, x = slater_poly(rng, 2, 3)
    f, g, _ = planted_certificate_instance(rng, 2, 3, noise_margin=2.0, g=g)
    inst, out = tmp_path / "inst.json", tmp_path / "cert.json"
    inst.write_text(serialize.dumps({"format": serialize.FORMAT, "kind": "slemma",
                                     "f": serialize.poly_to_json(f), "g": serialize.poly_to_json(g),
                                     "slater": serialize.tuple_to_json(ns.new_tuple(x.reshape(2, 1, 1)))}))
    code, doc, _ = run(capsys, "slemma", "-o", str(out), str(inst))
    assert code == cli.EXIT_OK
    d = doc["diagnostics"]
    assert (d["certify_evals"], d["separator_evals"]) == (1, 0)
    assert d["separator_best"] is None and d["certify_bound"] is None
    assert json.loads(out.read_text()) == doc
    assert run(capsys, "verify", str(out), str(inst))[0] == cli.EXIT_OK


@pytest.mark.parametrize("sign,code", [(1.0, cli.EXIT_NEGATIVE), (-1.0, cli.EXIT_OK)])
def test_verify_of_a_choi_matrix_near_the_float_range_exits_without_a_traceback(capsys, tmp_path, sign, code):
    # phi = 4e307 id against g = +-4 x1x1 (x) I_2: the residual check fails
    # for +; for - phi is a certificate, whose spot-check gaps, past the float
    # range at the seeded tuples, are recomputed at the tuples scaled down
    f = ns.new_quad_poly(np.eye(2).reshape(1, 1, 2, 2))
    g = ns.new_quad_poly(sign * 4.0 * np.eye(2).reshape(1, 1, 2, 2))
    cert = ns.CPCertificate(J=ns.new_choi(4e307 * ns.identity_choi(2).J, 2, 2), residual=np.zeros((2, 2)))
    inst, cert_path = tmp_path / "inst.json", tmp_path / "cert.json"
    inst.write_text(serialize.dumps({"format": serialize.FORMAT, "kind": "slemma",
                                     "f": serialize.poly_to_json(f), "g": serialize.poly_to_json(g),
                                     "slater": serialize.tuple_to_json(ns.new_tuple([[[1.0]]]))}))
    cert_path.write_text(serialize.dumps(serialize.certificate_to_json(cert, {})))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, "verify", str(cert_path), str(inst))[0] == code


def test_scalar_slemma_certificate(capsys):
    code, doc, _ = run(capsys, "scalar-slemma", fx("scalar_certificate.json"))
    assert code == 0
    assert doc["outcome"] == "certificate"
    # h(lambda) = lambda_min(I - lambda diag(1, -1)) falls at 0: one eigensolve, lambda 0
    assert doc["lambda"] == 0.0
    assert doc["diagnostics"]["multiplier_evals"] == 1
    assert doc["diagnostics"]["bound"] == 1.0  # h falls at 0: the bound is h(0)
    assert "separator_evals" not in doc["diagnostics"]  # scalar-slemma runs no search


def test_scalar_slemma_settled_during_the_doubling_prints_a_null_bound(capsys, tmp_path):
    # h(lambda) = min(3 - lambda, -1 + 2 lambda) rises at 0 and is 1 at lambda = 1,
    # where it still rises: the bisection settles there with no bracket, so
    # there is no bound, and JSON has null for it
    doc = {"format": "ncslemma/1", "kind": "scalar-slemma", "f": {"A": [[3.0, 0.0], [0.0, -1.0]]},
           "g": {"A": [[1.0, 0.0], [0.0, -2.0]]}, "slater": [1.0, 0.0]}
    path = tmp_path / "settled.json"
    path.write_text(serialize.dumps(doc))
    code, out, _ = run(capsys, "scalar-slemma", str(path))
    assert code == cli.EXIT_OK == 0
    assert (out["outcome"], out["lambda"]) == ("certificate", 1.0)
    d = out["diagnostics"]
    assert "bound" in d and d["bound"] is None
    assert (d["best_value"], d["bracket_hi"], d["multiplier_evals"]) == (1.0, 1.0, 2)


def test_scalar_slemma_dead_zone_exits_inconclusive(capsys, tmp_path):
    # max h = -1e-7 lies between -tol_strict and -tol: no verdict either way
    doc = {"format": "ncslemma/1", "kind": "scalar-slemma", "f": {"A": [[0.5, 0.0], [0.0, -1e-7]]},
           "g": {"A": [[1.0, 0.0], [0.0, 0.0]]}, "slater": [1.0, 0.0]}
    path = tmp_path / "dead_zone.json"
    path.write_text(serialize.dumps(doc))
    code, out, _ = run(capsys, "scalar-slemma", str(path))
    assert code == cli.EXIT_INCONCLUSIVE == 12
    assert out["outcome"] == "inconclusive"
    assert out["diagnostics"]["best_value"] == -1e-7
    assert "lambda" not in out and "x" not in out


def test_scalar_slemma_counterexample(capsys):
    code, doc, _ = run(capsys, "scalar-slemma", fx("scalar_counterexample.json"))
    assert code == 11
    assert doc["outcome"] == "counterexample"
    # h falls at 0, so the multiplier search ends after one eigensolve, and
    # its bottom eigenvector v_0 is the separator v_0 v_0^T: no search runs.
    assert doc["diagnostics"]["multiplier_evals"] == 1
    assert "separator_evals" not in doc["diagnostics"]
    x = np.array(doc["x"])
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    B = np.diag([1.0, 0.0])
    assert x @ A @ x <= -1e-6
    assert x @ B @ x >= -1e-8


NAN, INF = float("nan"), float("inf")
SCALAR_INSTANCE = {"format": serialize.FORMAT, "kind": "scalar-slemma",
                   "f": {"A": [[0.0, 1.0], [1.0, 0.0]]}, "g": {"A": [[1.0, 0.0], [0.0, 0.5]]},
                   "slater": [1.0, 0.0]}


@pytest.mark.parametrize("where,value", [
    (("f", "A"), [[NAN, 0.0], [0.0, -1.0]]),  # exited 0 with "certificate" lambda 1.16e-45
    (("g", "A"), [[1.0, 0.0], [0.0, INF]]),
    (("f", "a"), [NAN, 0.0]),
    (("g", "a0"), INF),
    (("slater",), [NAN, 0.0]),  # passed the Slater test and exited 11
], ids=["nan-f.A", "inf-g.A", "nan-f.a", "inf-g.a0", "nan-slater"])
def test_scalar_slemma_non_finite_input_is_parse_error(capsys, tmp_path, where, value):
    doc = json.loads(json.dumps(SCALAR_INSTANCE))
    target = doc
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(doc))  # json writes NaN and Infinity, and reads them back
    code, out, _ = run(capsys, "scalar-slemma", str(path))
    assert code == cli.EXIT_PARSE
    assert out["error"] == "parse"


def test_homogenize_command(capsys, tmp_path):
    out = tmp_path / "h.json"
    code, doc, _ = run(capsys, "homogenize", "-o", str(out), fx("homogenize_affine.json"))
    assert code == 0
    assert doc["feasible"] is True
    assert doc["lambda_min"] >= -1e-8
    C = np.array(doc["coefficient_matrix"])
    assert float(np.linalg.eigvalsh(C)[0]) >= -1e-8


def test_homogenize_near_the_largest_float(capsys, tmp_path):
    # the search symmetrizes each iterate; with a constant of 1e308 * I that sum
    # must not overflow into a NaN step
    doc = json.loads(open(fx("homogenize_affine.json")).read())
    doc["constant"] = (1e308 * np.eye(2)).tolist()
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "homogenize", str(path))
    assert code == 0
    assert out["type"] == "homogenization"
    assert out["feasible"] is True


def test_evaluate_past_the_float_range_is_named(capsys, tmp_path):
    doc = json.loads(open(fx("example61_tuple.json")).read())
    doc["projection"] = (1e160 * np.array(doc["projection"])).tolist()
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "evaluate", "--project", fx("example61_f.json"), str(path))
    assert code == 2
    assert out["error"] == "parse"
    assert out["detail"] == "f(X) is past the float range"


def test_evaluate_example61_projected(capsys):
    code, doc, _ = run(capsys, "evaluate", "--project",
                       fx("example61_f.json"), fx("example61_tuple.json"))
    assert code == 0
    value = np.array(doc["value"])
    expected = np.zeros((24, 24))
    expected[2, 2] = -1.0
    assert np.abs(value - expected).max() <= 1e-12

    code, doc, _ = run(capsys, "evaluate", "--project",
                       fx("example61_g.json"), fx("example61_tuple.json"))
    assert code == 0
    value = np.array(doc["value"])
    expected = np.zeros((24, 24))
    expected[2, 2] = 1.0
    assert np.abs(value - expected).max() <= 1e-12


def test_evaluate_unprojected(capsys):
    code, doc, _ = run(capsys, "evaluate",
                       fx("example61_f.json"), fx("example61_tuple.json"))
    assert code == 0
    assert np.array(doc["value"]).shape == (24, 24)


def test_evaluate_general_tuple_is_hereditary(capsys, tmp_path):
    # a general (not symmetric) tuple is evaluated as sum A_ij (x) X_i X_j^T
    mats = [[[1.0, 2.0], [0.0, -1.0]], [[0.0, 1.0], [3.0, 0.5]]]
    path = tmp_path / "general.json"
    path.write_text(serialize.dumps({"n": 2, "kind": "general", "mats": mats}))
    code, doc, _ = run(capsys, "evaluate", fx("example62.json"), str(path))
    assert code == 0
    f = serialize.instance_from_json(json.loads(open(fx("example62.json")).read()))["f"]
    want = ns.evaluate_hereditary(f, ns.new_tuple(np.array(mats), kind="general"))
    np.testing.assert_array_equal(np.array(doc["value"]), want)


def test_evaluate_project_requires_projection(capsys, tmp_path):
    tup = {"n": 1, "kind": "symmetric", "mats": [[[1.0]], [[2.0]]]}
    path = tmp_path / "tuple.json"
    path.write_text(serialize.dumps(tup))
    code, doc, _ = run(capsys, "evaluate", "--project", fx("example62.json"), str(path))
    assert code == 2


def test_evaluate_g_of_slemma_instance(capsys, tmp_path):
    tup = {"n": 1, "kind": "symmetric", "mats": [[[1.0]], [[2.0]]]}
    path = tmp_path / "tuple.json"
    path.write_text(serialize.dumps(tup))
    code, doc, _ = run(capsys, "evaluate", "--poly", "g", fx("example62.json"), str(path))
    assert code == 0
    assert np.allclose(np.array(doc["value"]), np.diag([-3.0, 1.0]), atol=1e-12)


def test_missing_file(capsys):
    code, doc, _ = run(capsys, "check-positivity", "/nonexistent/file.json")
    assert code == 2


def test_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    code, doc, _ = run(capsys, "check-positivity", str(path))
    assert code == 2


def test_reproducible_output(capsys):
    code1, doc1, _ = run(capsys, "slemma", "--seed", "7", fx("example62.json"))
    code2, doc2, _ = run(capsys, "slemma", "--seed", "7", fx("example62.json"))
    assert code1 == code2 == 0
    assert doc1 == doc2
    assert doc1["options"]["seed"] == 7


def test_reused_parser_carries_nothing_between_calls(capsys, tmp_path):
    # main builds its parser once per process; no option of one command line
    # may leak into the next
    assert cli.build_parser() is cli.build_parser()
    inst = json.loads(open(fx("example62.json")).read())
    inst["options"] = {"seed": 3}
    path, out, cert = tmp_path / "example62_seed3.json", tmp_path / "out.json", tmp_path / "cert.json"
    path.write_text(json.dumps(inst))

    run(capsys, "slemma", "--budget", "3", "--seed", "7", "-o", str(out), str(path))
    first = out.read_text()
    assert json.loads(first)["options"]["budget"] == 3

    code, doc, _ = run(capsys, "slemma", str(path))
    assert code == cli.EXIT_OK
    assert doc["options"] == serialize.options_from_json(inst)
    assert doc["options"]["seed"] == 3
    assert out.read_text() == first
    cert.write_text(json.dumps(doc))

    code, doc, _ = run(capsys, "slemma", "--budget", "x", str(path))
    assert code == cli.EXIT_PARSE
    assert doc["error"] == "parse"

    code, doc, _ = run(capsys, "verify", str(cert), str(path))
    assert code == cli.EXIT_OK
    assert doc["verified"] is True
    assert doc["options"]["budget"] == 5000


def test_importing_the_cli_builds_no_parser():
    code = ("import ncslemma.cli as cli; assert cli.build_parser.cache_info().currsize == 0; "
            "cli.main(['--help'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ncslemma")


class ClosedPipe:
    """A stdout whose reader has gone: every write and flush raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv,want", [
    (["evaluate", "--project", fx("example61_f.json"), fx("example61_tuple.json")], cli.EXIT_OK),
    (["evaluate", fx("missing.json"), fx("example61_tuple.json")], cli.EXIT_PARSE),
])
def test_closed_stdout_keeps_the_exit_code(argv, want, monkeypatch, capsys, tmp_path):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        assert cli.main(argv) == want
        # stdout now points at devnull, so the flush at exit cannot fail again
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err.count("\n") == 1  # the one-line summary, no traceback


def test_console_run_into_a_closed_pipe_exits_with_the_verdict():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ncslemma.cli", "evaluate", "--project",
             fx("example61_f.json"), fx("example61_tuple.json")],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stderr.startswith("evaluated f:") and "Error" not in proc.stderr


# Each of these used to get through: nan and 1e300 turned a residual with
# lambda_min = -1.618 into a "certificate", --tol-strict 0 gave a
# counterexample with violation 0.0, --seed -1 crashed with a traceback and
# --budget -5 was silently inconclusive.
@pytest.mark.parametrize("option", [
    ["--tol", "nan"],
    ["--tol", "1e300"],
    ["--tol-strict", "0"],
    ["--seed", "-1"],
    ["--budget", "-5"],
], ids=["tol-nan", "tol-1e300", "tol-strict-0", "seed-negative", "budget-negative"])
def test_option_out_of_range_is_parse_error(capsys, option):
    code, doc, err = run(capsys, "slemma", *option, fx("slemma_counterexample.json"))
    assert code == 2
    assert doc["error"] == "parse"
    assert err.startswith("error:")


@pytest.mark.parametrize("options", [
    {"tol": float("nan")},
    {"tol": -1e-8},
    {"tol": 1e-5},
    {"tol": 0.0, "tol_strict": 0.0},
    {"tol_strict": float("inf")},
    {"budget": 0},
    {"seed": -3},
    {"budget": "many"},
], ids=["tol-nan", "tol-negative", "tol-above-strict", "strict-zero", "strict-inf", "budget-zero",
        "seed-negative", "budget-not-a-number"])
def test_file_option_out_of_range_is_parse_error(capsys, tmp_path, options):
    doc = json.loads(open(fx("slemma_counterexample.json")).read())
    doc["options"] = options
    path = tmp_path / "bad_options.json"
    path.write_text(json.dumps(doc))  # json writes NaN/Infinity, which json.loads reads back
    code, out, _ = run(capsys, "slemma", str(path))
    assert code == 2
    assert out["error"] == "parse"


def test_option_range_edges_are_accepted(capsys):
    code, doc, _ = run(capsys, "check-positivity", "--tol", "0", "--tol-strict", "1e-300",
                       "--budget", "1", "--seed", "0", fx("h1.json"))
    assert code == 0
    assert doc["options"] == {"tol": 0.0, "tol_strict": 1e-300, "budget": 1, "seed": 0}
    code, doc, _ = run(capsys, "check-positivity", "--tol", "1e-6", fx("h1.json"))
    assert code == 0
    assert doc["options"]["tol"] == doc["options"]["tol_strict"] == 1e-6


def test_stdout_is_machine_readable_even_on_error(capsys):
    # every path must print JSON on stdout; the human report goes to stderr
    code = cli.main(["slemma", fx("missing_slater.json")])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["error"] == "parse"
    assert captured.err.startswith("error:")


# argparse used to print its usage on stderr and exit 2 with nothing on stdout.
@pytest.mark.parametrize("argv", [
    ["slemma", "--budget", "x", fx("example62.json")],
    ["slemma", "--no-such-flag", fx("example62.json")],
    ["slemma"],
], ids=["budget-not-an-integer", "unknown-flag", "missing-positional"])
def test_malformed_command_line_exits_2_with_json(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_PARSE
    assert out["error"] == "parse"
    assert err.startswith("error:")


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["slemma", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ncslemma slemma")


def test_slemma_past_the_dimension_limit_exits_3_with_json(capsys, tmp_path):
    # q = 65: the certificate search would hold 4225 x 4225 matrices
    q = 65
    doc = {"format": serialize.FORMAT, "kind": "slemma",
           "f": {"m": 1, "q": q, "blocks": [[(-np.eye(q)).tolist()]]},
           "g": {"m": 1, "q": q, "blocks": [[np.eye(q).tolist()]]},
           "slater": {"n": 1, "kind": "symmetric", "mats": [[[1.0]]]}}
    path = tmp_path / "too_large.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "slemma", str(path))
    assert code == cli.EXIT_DIMENSION
    assert out["error"] == "dimension"
    assert err.startswith("error:")


def emitted(directory, command, fixture):
    """Write the result file ``ncslemma <command> -o`` gives for a fixture; return its path."""
    path = directory / f"{fixture}.out.json"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main([command, "-o", str(path), fx(f"{fixture}.json")])
    return path


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    directory = tmp_path_factory.mktemp("results")
    return {"certificate": emitted(directory, "slemma", "example62"),
            "counterexample": emitted(directory, "slemma", "slemma_counterexample")}


# (edited file, command line with FILE for the edited copy, field path, value).
# Each one used to end cli.main with an uncaught exception: exit 1 and no JSON.
MALFORMED = {
    "f.m-string": ("h1", ["check-positivity", "FILE"], ("f", "m"), "x"),
    "f.m-null": ("h1", ["check-positivity", "FILE"], ("f", "m"), None),
    "f.m-1e400": ("h1", ["check-positivity", "FILE"], ("f", "m"), 1e400),  # inf, written as Infinity
    "f.q-list": ("h1", ["check-positivity", "FILE"], ("f", "q"), [2]),
    "slater.n-string": ("example62", ["slemma", "FILE"], ("slater", "n"), "x"),
    "scalar-f.a0-string": ("scalar_certificate", ["scalar-slemma", "FILE"], ("f", "a0"), "x"),
    "scalar-f.a-string": ("scalar_certificate", ["scalar-slemma", "FILE"], ("f", "a"), "x"),
    "scalar-slater-string": ("scalar_certificate", ["scalar-slemma", "FILE"], ("slater",), "x"),
    "linear-string": ("homogenize_affine", ["homogenize", "FILE"], ("linear",), "x"),
    "certificate-residual_lambda_min-string": (
        "certificate", ["verify", "FILE", fx("example62.json")], ("residual_lambda_min",), "x"),
    "certificate-J.s-string": (
        "certificate", ["verify", "FILE", fx("example62.json")], ("J", "s"), "x"),
    "counterexample-rank-string": (
        "counterexample", ["verify", "FILE", fx("slemma_counterexample.json")], ("rank",), "x"),
    "counterexample-violation-null": (
        "counterexample", ["verify", "FILE", fx("slemma_counterexample.json")], ("violation",), None),
    "counterexample-E-string": (
        "counterexample", ["verify", "FILE", fx("slemma_counterexample.json")], ("E",), "x"),
    "projection-strings": ("example61_tuple", ["evaluate", "--project", fx("example61_f.json"), "FILE"],
                           ("projection",), [["a"]]),
    "projection-string": ("example61_tuple", ["evaluate", "--project", fx("example61_f.json"), "FILE"],
                          ("projection",), "x"),
    "projection-ragged": ("example61_tuple", ["evaluate", "--project", fx("example61_f.json"), "FILE"],
                          ("projection",), [[1, 2], [3]]),
}


# Each field read as a number must hold a JSON number of its kind: numpy and
# int() used to read "2" and "1e-8", true as 1 and a budget of 2.7 as 2 (so
# example62 with all of these ran at budget 2 and exited 12).  A fractional
# value is a number, so it stays valid where a real is read.
WRONG_TYPE = [
    ("dimension", "example62", "slemma", ("f", "m"), ("2", 2.5, True)),
    ("option-budget", "example62", "slemma", ("options", "budget"), ("200", 2.7, True)),
    ("option-tol", "example62", "slemma", ("options", "tol"), ("1e-8", True)),
    ("scalar-a0", "scalar_certificate", "scalar-slemma", ("f", "a0"), ("0", True)),
    ("array-entry", "example62", "slemma", ("f", "blocks", 0, 0, 0, 0), ("1", True)),
    ("slater-entry", "example62", "slemma", ("slater", "mats", 0, 0, 0), ("1", True)),
    ("scalar-slater-entry", "scalar_certificate", "scalar-slemma", ("slater", 0), ("1", True)),
]
MALFORMED.update({f"{field}-{value!r}": (source, [command, "FILE"], where, value)
                  for field, source, command, where, values in WRONG_TYPE for value in values})


def edit(source, where, value, path):
    """Write ``source`` with the field at ``where`` (made if absent) set to ``value`` to ``path``."""
    with open(source) as fh:
        doc = json.load(fh)
    target = doc
    for key in where[:-1]:
        target = target.setdefault(key, {}) if isinstance(target, dict) else target[key]
    target[where[-1]] = value
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_field_exits_2_with_json(capsys, tmp_path, results, case):
    source, argv, where, value = MALFORMED[case]
    path = edit(results.get(source) or fx(f"{source}.json"), where, value, tmp_path / "edited.json")
    code, out, err = run(capsys, *[path if a == "FILE" else a for a in argv])
    assert code == cli.EXIT_PARSE
    assert out["error"] == "parse"
    assert err.startswith("error:")


def test_integral_floats_are_read_as_integers(capsys, tmp_path):
    path = tmp_path / "edited.json"
    edit(fx("example62.json"), ("options",), {"budget": 200.0, "seed": 7.0}, path)
    edit(str(path), ("f", "m"), 2.0, path)
    code, out, _ = run(capsys, "slemma", str(path))
    assert code == cli.EXIT_OK
    assert out["options"]["budget"] == 200 and type(out["options"]["budget"]) is int


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",  # not UTF-8
    b"[" * 100000 + b"]" * 100000,  # nested past the recursion limit
], ids=["undecodable-bytes", "deep-nesting"])
def test_unreadable_instance_file_exits_2_with_json(capsys, tmp_path, content):
    path = tmp_path / "instance.json"
    path.write_bytes(content)
    code, out, _ = run(capsys, "check-positivity", str(path))
    assert code == cli.EXIT_PARSE
    assert out["error"] == "parse"


def test_unwritable_output_exits_2_with_json(capsys, tmp_path):
    code, out, _ = run(capsys, "check-positivity", "-o", str(tmp_path / "missing" / "out.json"),
                       fx("h1.json"))
    assert code == cli.EXIT_PARSE
    assert out["error"] == "parse"
