import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ncslemma as ns
from ncslemma import cli, serialize

from helpers import random_poly

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


def test_slemma_inconclusive_reports_the_evaluations_of_each_side(capsys, tmp_path):
    # f = x1x1, g = 4 x1x1: the multiplier 1/4 lies outside the trace-one slice
    f = ns.new_quad_poly(np.ones((1, 1, 1, 1)))
    g = ns.new_quad_poly(4.0 * np.ones((1, 1, 1, 1)))
    slater = ns.new_tuple([[[1.0]]])
    path = tmp_path / "scale_gap.json"
    path.write_text(serialize.dumps({
        "format": serialize.FORMAT, "kind": "slemma",
        "f": serialize.poly_to_json(f), "g": serialize.poly_to_json(g),
        "slater": serialize.tuple_to_json(slater),
    }))
    code, doc, _ = run(capsys, "slemma", "--budget", "600", str(path))
    assert code == cli.EXIT_INCONCLUSIVE
    expected = ns.decide(f, g, slater, budget=600).diagnostics
    for key in ("certify_evals", "separator_evals"):
        assert doc["diagnostics"][key] == expected[key] > 0
    # Every separator point bounds every certify value by <A, M> - lambda_min = 1 - 4.
    keys = list(doc["diagnostics"])
    assert keys[keys.index("certify_best") + 1] == "certify_bound"
    assert doc["diagnostics"]["certify_bound"] == expected["certify_bound"] == -3.0


def test_scalar_slemma_certificate(capsys):
    code, doc, _ = run(capsys, "scalar-slemma", fx("scalar_certificate.json"))
    assert code == 0
    assert doc["outcome"] == "certificate"
    assert 0.0 <= doc["lambda"] <= 1.0


def test_scalar_slemma_counterexample(capsys):
    code, doc, _ = run(capsys, "scalar-slemma", fx("scalar_counterexample.json"))
    assert code == 11
    assert doc["outcome"] == "counterexample"
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


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_field_exits_2_with_json(capsys, tmp_path, results, case):
    source, argv, where, value = MALFORMED[case]
    with open(results.get(source) or fx(f"{source}.json")) as fh:
        doc = json.load(fh)
    target = doc
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == cli.EXIT_PARSE
    assert out["error"] == "parse"
    assert err.startswith("error:")


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
