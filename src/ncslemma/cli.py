"""Command-line front end.

Every command reads JSON instance files tagged "ncslemma/1", prints a
machine-readable JSON result on stdout (the human-readable summary goes to
stderr) and exits with a code that is a function of the verdict alone:

    0   positive verdict (psd / certificate / feasible / verified)
    2   parse or schema error
    3   dimension error
    4   Slater condition violated
    10  negative verdict (not-psd / infeasible / verification failed)
    11  counterexample produced
    12  inconclusive (budget exhausted or dead zone)

Options given on the command line override the instance file's options
block; whatever was in effect is recorded in every output for provenance.
The values must satisfy 0 <= tol <= tol_strict, tol_strict > 0 (both
finite), budget >= 1 and seed >= 0, wherever they come from; anything else
is exit code 2.
"""

import argparse
import sys

import numpy as np

from . import serialize
from .errors import (
    AsymmetricCoefficients,
    DimensionTooLarge,
    InvalidInput,
    NotGloballyPSD,
    ParseError,
    ShapeMismatch,
    SlaterViolated,
)
from .linalg import sym_eig
from .poly import evaluate, evaluate_compressed, evaluate_hereditary
from .positivity import is_globally_psd, scalar_slemma, sos_factor
from .serialize import tuple_to_json
from .slemma import (
    decide,
    decide_hereditary,
    homogenize,
    verify_certificate,
    verify_counterexample,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_SLATER = 4
EXIT_NEGATIVE = 10
EXIT_COUNTEREXAMPLE = 11
EXIT_INCONCLUSIVE = 12

PARSE_ERRORS = (ParseError, InvalidInput, AsymmetricCoefficients)
DIMENSION_ERRORS = (ShapeMismatch, DimensionTooLarge)


def _emit(doc: dict, out_path, summary: str) -> None:
    text = serialize.dumps(doc)
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(summary, file=sys.stderr)


def _load_json(path):
    try:
        with open(path) as fh:
            return serialize.loads(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _merge_options(options: dict, args) -> dict:
    opts = dict(options)
    for key, attr in (("tol", "tol"), ("tol_strict", "tol_strict"),
                      ("budget", "budget"), ("seed", "seed")):
        val = getattr(args, attr, None)
        if val is not None:
            opts[key] = val
    return serialize.check_options(opts)


def cmd_check_positivity(args) -> int:
    inst = serialize.instance_from_json(_load_json(args.instance))
    if inst["kind"] not in ("positivity", "slemma", "slemma-hereditary", "homogenize"):
        raise ParseError(f"kind {inst['kind']!r} has no polynomial to check")
    opts = _merge_options(inst["options"], args)
    f = inst["f"]
    report = is_globally_psd(f, tol=opts["tol"], tol_strict=opts["tol_strict"])
    doc = {
        "format": serialize.FORMAT,
        "type": "positivity-report",
        "verdict": report.verdict,
        "eigenvalues": report.eigenvalues.tolist(),
        "options": opts,
    }
    if report.verdict == "psd":
        if args.sos:
            sf = sos_factor(f, tol=opts["tol"])
            doc["sos"] = {"rank": sf.rank, "factors": sf.factors.tolist()}
        _emit(doc, args.output, "globally positive semidefinite")
        return EXIT_OK
    if report.witness_point is not None:
        doc["witness"] = {
            "X": tuple_to_json(report.witness_point),
            "vector": report.witness_vector.tolist(),
            "value": report.witness_value,
        }
    _emit(doc, args.output,
          f"not positive semidefinite (lambda_min = {report.eigenvalues[-1]:.6e})")
    return EXIT_NEGATIVE


def cmd_slemma(args, hereditary: bool) -> int:
    inst = serialize.instance_from_json(_load_json(args.instance))
    want = "slemma-hereditary" if hereditary else "slemma"
    if inst["kind"] != want:
        raise ParseError(f"expected a {want} instance, got {inst['kind']!r}")
    opts = _merge_options(inst["options"], args)
    decider = decide_hereditary if hereditary else decide
    decision = decider(
        inst["f"], inst["g"], inst["slater"],
        budget=opts["budget"], tol=opts["tol"],
        tol_strict=opts["tol_strict"], seed=opts["seed"],
    )
    if decision.kind == "certificate":
        doc = serialize.certificate_to_json(decision.certificate, opts)
        _emit(doc, args.output,
              f"certificate found (residual lambda_min = "
              f"{decision.certificate.residual_lambda_min:.6e})")
        return EXIT_OK
    if decision.kind == "counterexample":
        doc = serialize.counterexample_to_json(decision.counterexample, opts)
        _emit(doc, args.output,
              f"counterexample found (violation = "
              f"{decision.counterexample.violation:.6e})")
        return EXIT_COUNTEREXAMPLE
    doc = {
        "format": serialize.FORMAT,
        "type": "inconclusive",
        "diagnostics": {k: v for k, v in decision.diagnostics.items()},
        "options": opts,
    }
    _emit(doc, args.output, "inconclusive: budget exhausted on both searches")
    return EXIT_INCONCLUSIVE


def cmd_scalar_slemma(args) -> int:
    inst = serialize.instance_from_json(_load_json(args.instance))
    if inst["kind"] != "scalar-slemma":
        raise ParseError(f"expected a scalar-slemma instance, got {inst['kind']!r}")
    opts = _merge_options(inst["options"], args)
    result = scalar_slemma(
        inst["f"], inst["g"], inst["slater"],
        tol=opts["tol"], tol_strict=opts["tol_strict"],
        budget=opts["budget"], seed=opts["seed"],
    )
    doc = {
        "format": serialize.FORMAT,
        "type": "scalar-slemma-result",
        "outcome": result.outcome,
        "diagnostics": result.diagnostics,
        "options": opts,
    }
    if result.outcome == "certificate":
        doc["lambda"] = result.lam
        _emit(doc, args.output, f"certificate: lambda = {result.lam:.12g}")
        return EXIT_OK
    if result.outcome == "counterexample":
        doc["x"] = result.x.tolist()
        _emit(doc, args.output, "counterexample found")
        return EXIT_COUNTEREXAMPLE
    _emit(doc, args.output, "inconclusive")
    return EXIT_INCONCLUSIVE


def cmd_homogenize(args) -> int:
    inst = serialize.instance_from_json(_load_json(args.instance))
    if inst["kind"] != "homogenize":
        raise ParseError(f"expected a homogenize instance, got {inst['kind']!r}")
    opts = _merge_options(inst["options"], args)
    result = homogenize(
        inst["f"], inst["linear"], inst["constant"],
        budget=opts["budget"], tol=opts["tol"], seed=opts["seed"],
    )
    doc = {
        "format": serialize.FORMAT,
        "type": "homogenization",
        "feasible": result.feasible,
        "lambda_min": result.lambda_min,
        "mixed_blocks": result.h_blocks.tolist(),
        "coefficient_matrix": result.coefficient.tolist(),
        "options": opts,
    }
    if result.feasible:
        _emit(doc, args.output,
              f"PSD homogenization found (lambda_min = {result.lambda_min:.6e})")
        return EXIT_OK
    _emit(doc, args.output,
          f"no PSD homogenization (best lambda_min = {result.lambda_min:.6e})")
    return EXIT_NEGATIVE


def cmd_verify(args) -> int:
    cert_doc = _load_json(args.certificate)
    inst = serialize.instance_from_json(_load_json(args.instance))
    if inst["kind"] not in ("slemma", "slemma-hereditary"):
        raise ParseError("verification needs a slemma or slemma-hereditary instance")
    opts = _merge_options(inst["options"], args)
    kind = cert_doc.get("type") if isinstance(cert_doc, dict) else None
    if kind == "cp-certificate":
        cert = serialize.certificate_from_json(cert_doc)
        ok = verify_certificate(cert, inst["f"], inst["g"],
                                tol=opts["tol"], seed=opts["seed"])
    elif kind in ("counterexample", "counterexample-hereditary"):
        ce = serialize.counterexample_from_json(cert_doc)
        ok = verify_counterexample(ce, inst["f"], inst["g"],
                                   tol=opts["tol"], tol_strict=opts["tol_strict"])
    else:
        raise ParseError(f"unknown certificate type {kind!r}")
    doc = {
        "format": serialize.FORMAT,
        "type": "verification",
        "verified": bool(ok),
        "options": opts,
    }
    _emit(doc, args.output, "verification passed" if ok else "verification FAILED")
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_evaluate(args) -> int:
    inst = serialize.instance_from_json(_load_json(args.instance))
    opts = _merge_options(inst["options"], args)
    which = args.poly
    if which == "g" and "g" not in inst:
        raise ParseError("instance has no polynomial g")
    p = inst["g"] if which == "g" else inst["f"]
    if not hasattr(p, "blocks"):
        raise ParseError("instance polynomial is not matrix-valued")
    tup_doc = _load_json(args.tuple)
    if not isinstance(tup_doc, dict):
        raise ParseError("tuple file must be a JSON object")
    X = serialize.tuple_from_json(tup_doc)
    if X.m != p.m:
        raise ShapeMismatch(f"tuple has m={X.m}, polynomial has m={p.m}")
    if args.project:
        if "projection" not in tup_doc:
            raise ParseError("--project requires a projection matrix in the tuple file")
        Q = np.asarray(tup_doc["projection"], dtype=float)
        value = evaluate_compressed(p, X, Q)
    elif X.kind == "general":
        value = evaluate_hereditary(p, X)
    else:
        value = evaluate(p, X)
    eig = sym_eig(value)
    doc = {
        "format": serialize.FORMAT,
        "type": "evaluation",
        "polynomial": which,
        "projected": bool(args.project),
        "value": value.tolist(),
        "eigenvalues": eig.values.tolist(),
        "options": opts,
    }
    _emit(doc, args.output,
          f"evaluated {which}: {value.shape[0]}x{value.shape[1]}, "
          f"lambda_min = {eig.values[-1]:.6e}")
    return EXIT_OK


def _add_common(sub):
    sub.add_argument("--tol", type=float, default=None,
                     help="PSD acceptance tolerance (default 1e-8)")
    sub.add_argument("--tol-strict", dest="tol_strict", type=float, default=None,
                     help="strict-inequality margin (default 1e-6)")
    sub.add_argument("--budget", type=int, default=None,
                     help="iteration budget for searches (default 5000)")
    sub.add_argument("--seed", type=int, default=None,
                     help="seed for all randomized starts (default 42)")
    sub.add_argument("-o", "--output", default=None,
                     help="also write the result JSON to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncslemma",
        description="Positivity and S-lemma certificates for quadratic "
                    "matrix-valued NC polynomials.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check-positivity", help="global PSD test of f")
    p.add_argument("instance")
    p.add_argument("--sos", action="store_true",
                   help="emit a sum-of-squares factorization when PSD")
    _add_common(p)
    p.set_defaults(fn=cmd_check_positivity)

    p = subs.add_parser("slemma", help="decide domination of f over g")
    p.add_argument("instance")
    _add_common(p)
    p.set_defaults(fn=lambda a: cmd_slemma(a, hereditary=False))

    p = subs.add_parser("slemma-hereditary", help="decide hereditary domination")
    p.add_argument("instance")
    _add_common(p)
    p.set_defaults(fn=lambda a: cmd_slemma(a, hereditary=True))

    p = subs.add_parser("scalar-slemma", help="scalar-coefficient S-lemma")
    p.add_argument("instance")
    _add_common(p)
    p.set_defaults(fn=cmd_scalar_slemma)

    p = subs.add_parser("homogenize", help="search for a PSD homogenization")
    p.add_argument("instance")
    _add_common(p)
    p.set_defaults(fn=cmd_homogenize)

    p = subs.add_parser("verify", help="re-verify an emitted certificate file")
    p.add_argument("certificate")
    p.add_argument("instance")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = subs.add_parser("evaluate", help="evaluate a polynomial at a tuple")
    p.add_argument("instance")
    p.add_argument("tuple")
    p.add_argument("--poly", choices=("f", "g"), default="f",
                   help="which polynomial of the instance to evaluate")
    p.add_argument("--project", action="store_true",
                   help="compress with the projection stored in the tuple file")
    _add_common(p)
    p.set_defaults(fn=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SlaterViolated as exc:
        print(serialize.dumps({"error": "slater-violated", "detail": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SLATER
    except DIMENSION_ERRORS as exc:
        print(serialize.dumps({"error": "dimension", "detail": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except PARSE_ERRORS as exc:
        print(serialize.dumps({"error": "parse", "detail": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotGloballyPSD as exc:
        print(serialize.dumps({"error": "not-globally-psd", "detail": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
