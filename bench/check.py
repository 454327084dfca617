"""Output checker: every decision of the benchmark passes through here.

Each checker receives the case (with its planted truth) and what the
library returned, and returns ``Verdict(failures, inconclusive, verify_s)``:

* ``failures`` lists every way the answer is wrong: a verdict that
  contradicts the planted truth, an emitted object the re-verifier rejects
  at default tolerances, CLI stdout that is not strict JSON, or an exit code
  outside the documented set.  A failure never aborts the run;
* ``verify_s`` is the wall time of the re-verification a user runs on the
  emitted object (``verify_certificate`` / ``verify_counterexample``,
  ``ncslemma verify`` for the CLI, the library's PSD and evaluation
  routines for scalar, homogenization and SOS answers); ``None`` when
  nothing was emitted.

Checks that do not depend on the library use numpy functions bound here at
import time, before any tracing wrapper is installed.
"""

import contextlib
import io
import json
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from numpy.linalg import eigvalsh as _eigvalsh

from gen import DOMINATED, REFUTABLE

TOL = 1e-8
TOL_STRICT = 1e-6
EXIT_CODES = {0, 2, 3, 4, 10, 11, 12}


@dataclass
class Verdict:
    failures: list = field(default_factory=list)
    inconclusive: bool = False
    verify_s: float = None


def _lmin(S):
    return float(_eigvalsh((S + S.T) / 2.0)[0])


def _psd(S, tol=TOL):
    return _lmin(S) >= -tol * (1.0 + np.linalg.norm(S))


def _matrix(blocks):
    m, q = blocks.shape[0], blocks.shape[2]
    return blocks.transpose(0, 2, 1, 3).reshape(m * q, m * q)


def _evaluate(blocks, mats):
    """f(X) = sum_ij A_ij (x) X_i X_j, computed independently of the library."""
    m = blocks.shape[0]
    return sum(np.kron(blocks[i, j], mats[i] @ mats[j]) for i in range(m) for j in range(m))


def _timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - t0


def check_slemma(case, decision, lib):
    """decide / decide_hereditary: verdict vs truth, then the library's re-verifier."""
    v = Verdict()
    f, g = case.args[:2]
    hereditary = case.op == "decide_hereditary"
    if decision.kind == "inconclusive":
        v.inconclusive = True
        return v
    if decision.kind == "certificate":
        if case.truth != DOMINATED:
            v.failures.append("certificate for a refutable instance")
        ok, v.verify_s = _timed(lib.slemma.verify_certificate, decision.certificate, f, g)
        if not ok:
            v.failures.append("certificate rejected by verify_certificate")
        return v
    if decision.kind == "counterexample":
        if case.truth != REFUTABLE:
            v.failures.append("counterexample for a dominated instance")
        want = lib.slemma.HereditaryCounterexample if hereditary else lib.slemma.Counterexample
        if type(decision.counterexample) is not want:
            v.failures.append(f"counterexample has type {type(decision.counterexample).__name__}")
        ok, v.verify_s = _timed(lib.slemma.verify_counterexample, decision.counterexample, f, g)
        if not ok:
            v.failures.append("counterexample rejected by verify_counterexample")
        return v
    v.failures.append(f"unknown decision kind {decision.kind!r}")
    return v


def check_scalar(case, result, lib):
    """scalar_slemma: multiplier lambda >= 0 with A - lambda B PSD, or a vector x."""
    v = Verdict()
    A, B = case.data["A"], case.data["B"]
    if result.outcome == "inconclusive":
        v.inconclusive = True
        return v
    if result.outcome == "certificate":
        if case.truth != DOMINATED:
            v.failures.append("multiplier for a refutable pair")
        lam = result.lam
        ok, v.verify_s = _timed(lib.linalg.is_psd, A - lam * B)
        if not (lam is not None and lam >= 0.0 and ok and _psd(A - lam * B)):
            v.failures.append(f"multiplier {lam!r} does not make A - lambda B PSD")
        return v
    if result.outcome == "counterexample":
        if case.truth != REFUTABLE:
            v.failures.append("counterexample for a dominated pair")
        x = np.asarray(result.x, dtype=float)
        (ax, bx), v.verify_s = _timed(lambda: (float(x @ A @ x), float(x @ B @ x)))
        if not (ax <= -TOL_STRICT and bx >= -TOL):
            v.failures.append(f"vector x gives x'Ax={ax:.3e}, x'Bx={bx:.3e}")
        return v
    v.failures.append(f"unknown scalar outcome {result.outcome!r}")
    return v


def check_homogenize(case, result, lib):
    """homogenize: verdict vs truth, block structure, and the reported lambda_min."""
    v = Verdict()
    quad, linear, A0 = case.data["quad"], case.data["linear"], case.data["constant"]
    m, q = quad.shape[0], quad.shape[2]
    C = np.asarray(result.coefficient)
    H = np.asarray(result.h_blocks)
    lam, v.verify_s = _timed(lib.linalg.lambda_min, C)
    structure = [
        np.abs(C - C.T).max(),
        np.abs(C[:q, :q] - A0).max(),
        np.abs(C[q:, q:] - _matrix(quad)).max(),
    ]
    for i in range(m):
        rows = slice((i + 1) * q, (i + 2) * q)
        structure += [np.abs(C[rows, :q] - H[i]).max(),
                      np.abs(C[:q, rows] - H[i].T).max(),
                      np.abs(H[i] + H[i].T - linear[i]).max()]
    if max(structure) > 1e-10 * (1.0 + np.linalg.norm(C)):
        v.failures.append(f"homogenization structure off by {max(structure):.3e}")
    own = _lmin(C)
    if abs(own - result.lambda_min) > 1e-9 * (1.0 + np.linalg.norm(C)) or abs(own - lam) > 1e-9:
        v.failures.append(f"reported lambda_min {result.lambda_min:.3e}, recomputed {own:.3e}")
    if result.feasible != (own >= -TOL - 1e-12):
        v.failures.append(f"feasible={result.feasible} but lambda_min={own:.3e}")
    if result.feasible != (case.truth == "feasible"):
        v.failures.append(f"feasible={result.feasible} contradicts planted {case.truth}")
    return v


def check_positivity(case, result, lib):
    """is_globally_psd (+ sos_factor): verdict vs truth, SOS identity or witness value."""
    v = Verdict()
    report, sf = result
    blocks = case.data["f"]
    m, q = blocks.shape[0], blocks.shape[2]
    if report.verdict != case.truth:
        v.failures.append(f"verdict {report.verdict} contradicts planted {case.truth}")
        return v
    f = case.args[0]
    if report.verdict == "psd":
        W = np.asarray(sf.factors)
        gram = np.einsum("irb,jrc->ijbc", W, W)  # A_ij = W_i^T W_j
        err = np.abs(gram - blocks).max()
        if err > 1e-8 * (1.0 + np.linalg.norm(blocks)):
            v.failures.append(f"SOS factor reproduces the blocks only to {err:.3e}")
        rng = np.random.default_rng(m * 100 + q)
        raw = rng.standard_normal((m, 3, 3))
        X = lib.poly.new_tuple((raw + raw.transpose(0, 2, 1)) / 2.0)
        t0 = perf_counter()
        fx = lib.poly.evaluate(f, X)
        gap = np.abs(lib.positivity.evaluate_factor(sf, X) - fx).max()
        v.verify_s = perf_counter() - t0
        if gap > 1e-8 * (1.0 + np.abs(fx).max()):
            v.failures.append(f"L(X)^T L(X) differs from f(X) by {gap:.3e}")
        return v
    if report.witness_point is None:
        v.failures.append("not-psd verdict without a witness")
        return v
    w = np.asarray(report.witness_vector)
    t0 = perf_counter()
    lib_val = float(w @ lib.poly.evaluate(f, report.witness_point) @ w)
    v.verify_s = perf_counter() - t0
    own = float(w @ _evaluate(blocks, np.asarray(report.witness_point.mats)) @ w)
    if not (own <= -0.5 * TOL_STRICT and abs(own - report.witness_value) <= 1e-9 * (1 + abs(own))
            and abs(own - lib_val) <= 1e-9 * (1 + abs(own))):
        v.failures.append(f"witness value {report.witness_value!r}, recomputed {own:.3e}")
    return v


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON")
    return json.loads(text, parse_constant=reject)


def run_cli(lib, argv):
    """In-process ``ncslemma`` call; returns (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), perf_counter() - t0


def _parse(v, what, code, text, allowed):
    if code not in EXIT_CODES:
        v.failures.append(f"{what}: exit code {code!r} outside the documented set")
        return None
    try:
        doc = _strict_json(text)
    except ValueError as exc:
        v.failures.append(f"{what}: stdout is not strict JSON ({exc})")
        return None
    if code not in allowed:
        v.failures.append(f"{what}: exit code {code} ({doc.get('error', doc.get('type'))})")
        return None
    return doc


def check_cli(case, result, lib):
    """One CLI decision: exit code and strict JSON, then ``ncslemma verify`` on its output.

    Only ``ncslemma verify`` is timed as verification here; the SOS factor of
    ``check-positivity`` is checked against the planted blocks, untimed.
    """
    v = Verdict()
    code, text, _ = result
    paths = case.data["paths"]
    if case.op == "cli-check-positivity":
        doc = _parse(v, "check-positivity", code, text, {0})
        if doc is None:
            return v
        if doc.get("verdict") != "psd" or "sos" not in doc:
            v.failures.append("check-positivity: no psd verdict with SOS factor")
            return v
        W = np.asarray(doc["sos"]["factors"], dtype=float)
        blocks = case.data["psd"]
        err = np.abs(np.einsum("irb,jrc->ijbc", W, W) - blocks).max()
        if err > 1e-8 * (1.0 + np.linalg.norm(blocks)):
            v.failures.append(f"check-positivity: SOS factor off by {err:.3e}")
        return v

    hereditary = case.op == "cli-slemma-hereditary"
    inst = paths["hereditary" if hereditary else "slemma"]
    what = case.op[4:]
    doc = _parse(v, what, code, text, {0, 11, 12})
    if doc is None:
        return v
    if code == 12:
        v.inconclusive = True
        return v
    if code == 11:
        v.failures.append(f"{what}: counterexample for a dominated instance")
    out_path = paths["out_h" if hereditary else "out"]
    try:
        with open(out_path) as fh:
            if _strict_json(fh.read()) != doc:
                v.failures.append(f"{what}: -o file differs from stdout")
    except (OSError, ValueError) as exc:
        v.failures.append(f"{what}: -o file unreadable ({exc})")
    vcode, vtext, v.verify_s = run_cli(lib, ["verify", out_path, inst])
    vdoc = _parse(v, "verify", vcode, vtext, {0, 10})
    if vdoc is not None and not (vcode == 0 and vdoc.get("verified") is True):
        v.failures.append(f"verify rejected the {what} output")
    return v


CHECKERS = {
    "decide": check_slemma,
    "decide_hereditary": check_slemma,
    "scalar_slemma": check_scalar,
    "homogenize": check_homogenize,
    "positivity": check_positivity,
    "cli-slemma": check_cli,
    "cli-slemma-hereditary": check_cli,
    "cli-check-positivity": check_cli,
}
