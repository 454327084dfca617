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
is exit code 2.  So is any file, or field of a file, that cannot be read as
what it should hold (sizes that disagree are exit code 3), and any malformed
command line; every error prints a JSON object with an "error" tag on stdout too.
A reader that closes stdout before the result is written (``| head -1``)
leaves the exit code as it is.

The argument parser is built on the first ``main`` call and reused by every
later call in the same process, so a caller that runs many commands in one
process pays for it once; importing the module does not build it.
"""

import argparse
import functools
import os
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

# Errors that end a command with a JSON error object: type -> (error tag, exit code).
ERRORS = {
    SlaterViolated: ("slater-violated", EXIT_SLATER),
    ShapeMismatch: ("dimension", EXIT_DIMENSION),
    DimensionTooLarge: ("dimension", EXIT_DIMENSION),
    ParseError: ("parse", EXIT_PARSE),
    InvalidInput: ("parse", EXIT_PARSE),
    AsymmetricCoefficients: ("parse", EXIT_PARSE),
    NotGloballyPSD: ("not-globally-psd", EXIT_NEGATIVE),
}

# Instance kinds with a matrix-valued polynomial f.
MATRIX_KINDS = ("positivity", "slemma", "slemma-hereditary", "homogenize")


def _load_json(path):
    try:
        with open(path) as fh:
            return serialize.loads(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _merge_options(options: dict, args) -> dict:
    opts = dict(options)
    for key in ("tol", "tol_strict", "budget", "seed"):
        val = getattr(args, key)
        if val is not None:
            opts[key] = val
    return serialize.check_options(opts)


def _run(args) -> int:
    """Every command: load the instance, check its kind, merge options, run, emit the JSON."""
    inst = serialize.instance_from_json(_load_json(args.instance))
    if inst["kind"] not in args.kinds:
        raise ParseError(f"{args.command} needs a {' or '.join(args.kinds)} instance, "
                         f"got {inst['kind']!r}")
    doc, summary, code = args.fn(args, inst, _merge_options(inst["options"], args))
    text = serialize.dumps(doc)
    if args.output:  # written first, so a failed write leaves stdout to the error object
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ParseError(f"cannot write {args.output}: {exc}") from exc
    _print_result(text)
    print(summary, file=sys.stderr)
    return code


def _print_result(text):
    """Print the JSON result; a reader that closed stdout early keeps the exit code."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # As the Python docs advise for SIGPIPE: point stdout at devnull, so the
        # interpreter's own flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# Each command below returns (JSON document, stderr summary, exit code).

def cmd_check_positivity(args, inst, opts):
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
        return doc, "globally positive semidefinite", EXIT_OK
    if report.witness_point is not None:
        doc["witness"] = {
            "X": tuple_to_json(report.witness_point),
            "vector": report.witness_vector.tolist(),
            "value": report.witness_value,
        }
    return (doc, f"not positive semidefinite (lambda_min = {report.eigenvalues[-1]:.6e})",
            EXIT_NEGATIVE)


def cmd_slemma(args, inst, opts):
    decider = decide_hereditary if inst["kind"] == "slemma-hereditary" else decide
    decision = decider(
        inst["f"], inst["g"], inst["slater"],
        budget=opts["budget"], tol=opts["tol"], tol_strict=opts["tol_strict"],
    )
    # every document carries what the decision did; the readers of the two object
    # kinds skip the key, as they skip "options"
    if decision.kind == "certificate":
        doc = serialize.certificate_to_json(decision.certificate, opts)
        doc["diagnostics"] = decision.diagnostics
        return (doc, f"certificate found (residual lambda_min = "
                     f"{decision.certificate.residual_lambda_min:.6e})", EXIT_OK)
    if decision.kind == "counterexample":
        doc = serialize.counterexample_to_json(decision.counterexample, opts)
        doc["diagnostics"] = decision.diagnostics
        return (doc, f"counterexample found (violation = "
                     f"{decision.counterexample.violation:.6e})", EXIT_COUNTEREXAMPLE)
    doc = {
        "format": serialize.FORMAT,
        "type": "inconclusive",
        "diagnostics": decision.diagnostics,
        "options": opts,
    }
    return doc, "inconclusive: no verified certificate or counterexample", EXIT_INCONCLUSIVE


def cmd_scalar_slemma(args, inst, opts):
    result = scalar_slemma(
        inst["f"], inst["g"], inst["slater"], tol=opts["tol"], tol_strict=opts["tol_strict"],
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
        return doc, f"certificate: lambda = {result.lam:.12g}", EXIT_OK
    if result.outcome == "counterexample":
        doc["x"] = result.x.tolist()
        return doc, "counterexample found", EXIT_COUNTEREXAMPLE
    return doc, "inconclusive", EXIT_INCONCLUSIVE


def cmd_homogenize(args, inst, opts):
    result = homogenize(inst["f"], inst["linear"], inst["constant"],
                        budget=opts["budget"], tol=opts["tol"])
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
        return (doc, f"PSD homogenization found (lambda_min = {result.lambda_min:.6e})",
                EXIT_OK)
    return (doc, f"no PSD homogenization (lambda_min = {result.lambda_min:.6e})",
            EXIT_NEGATIVE)


def cmd_verify(args, inst, opts):
    cert_doc = _load_json(args.certificate)
    if isinstance(cert_doc, dict) and cert_doc.get("type") == "cp-certificate":
        cert = serialize.certificate_from_json(cert_doc)
        ok = verify_certificate(cert, inst["f"], inst["g"],
                                tol=opts["tol"], seed=opts["seed"])
    else:
        ce = serialize.counterexample_from_json(cert_doc)
        ok = verify_counterexample(ce, inst["f"], inst["g"],
                                   tol=opts["tol"], tol_strict=opts["tol_strict"])
    doc = {
        "format": serialize.FORMAT,
        "type": "verification",
        "verified": bool(ok),
        "options": opts,
    }
    return doc, "verification passed" if ok else "verification FAILED", (
        EXIT_OK if ok else EXIT_NEGATIVE)


def cmd_evaluate(args, inst, opts):
    which = args.poly
    if which not in inst:
        raise ParseError(f"instance has no polynomial {which}")
    p = inst[which]
    tup_doc = _load_json(args.tuple)
    X = serialize.tuple_from_json(tup_doc)
    if X.m != p.m:
        raise ShapeMismatch(f"tuple has m={X.m}, polynomial has m={p.m}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is named below
        if args.project:
            value = evaluate_compressed(p, X, serialize.projection_from_json(tup_doc))
        elif X.kind == "general":
            value = evaluate_hereditary(p, X)
        else:
            value = evaluate(p, X)
    if not np.isfinite(value).all():
        raise InvalidInput(f"{which}(X) is past the float range")
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
    return doc, (f"evaluated {which}: {value.shape[0]}x{value.shape[1]}, "
                 f"lambda_min = {eig.values[-1]:.6e}"), EXIT_OK


def _add_common(sub):
    sub.add_argument("--tol", type=float, default=None,
                     help="PSD acceptance tolerance (default 1e-8)")
    sub.add_argument("--tol-strict", dest="tol_strict", type=float, default=None,
                     help="strict-inequality margin (default 1e-6)")
    sub.add_argument("--budget", type=int, default=None,
                     help="evaluation budget N for searches (default 5000); slemma and "
                          "slemma-hereditary run each of their two searches for at most N "
                          "evaluations; it does not apply at q = 1, where they run no "
                          "search, nor to scalar-slemma")
    sub.add_argument("--seed", type=int, default=None,
                     help="seed of the spot-check tuples verify draws (default 42); "
                          "the searches draw no random numbers")
    sub.add_argument("-o", "--output", default=None,
                     help="also write the result JSON to this file")


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as ParseError; its subcommand parsers do too."""

    def error(self, message):
        raise ParseError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ncslemma`` argument parser, built once per process on the first call.

    Every later call returns the same parser; ``parse_args`` keeps no state
    from one command line to the next.  The parser holds the ``cmd_*``
    functions, which look up the library functions they call at call time.
    """
    parser = _Parser(
        prog="ncslemma",
        description="Positivity and S-lemma certificates for quadratic "
                    "matrix-valued NC polynomials.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, help, fn, kinds, *positional):
        p = subs.add_parser(name, help=help)
        for arg in positional:
            p.add_argument(arg)
        p.set_defaults(fn=fn, kinds=kinds)
        return p

    p = command("check-positivity", "global PSD test of f", cmd_check_positivity,
                MATRIX_KINDS, "instance")
    p.add_argument("--sos", action="store_true",
                   help="emit a sum-of-squares factorization when PSD")
    command("slemma", "decide domination of f over g", cmd_slemma, ("slemma",), "instance")
    command("slemma-hereditary", "decide hereditary domination", cmd_slemma,
            ("slemma-hereditary",), "instance")
    command("scalar-slemma", "scalar-coefficient S-lemma", cmd_scalar_slemma,
            ("scalar-slemma",), "instance")
    command("homogenize", "search for a PSD homogenization", cmd_homogenize,
            ("homogenize",), "instance")
    command("verify", "re-verify an emitted certificate file", cmd_verify,
            ("slemma", "slemma-hereditary"), "certificate", "instance")
    p = command("evaluate", "evaluate a polynomial at a tuple", cmd_evaluate,
                MATRIX_KINDS, "instance", "tuple")
    p.add_argument("--poly", choices=("f", "g"), default="f",
                   help="which polynomial of the instance to evaluate")
    p.add_argument("--project", action="store_true",
                   help="compress with the projection stored in the tuple file")
    for p in subs.choices.values():
        _add_common(p)
    return parser


def main(argv=None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except tuple(ERRORS) as exc:
        tag, code = next(ERRORS[t] for t in type(exc).__mro__ if t in ERRORS)
        _print_result(serialize.dumps({"error": tag, "detail": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
