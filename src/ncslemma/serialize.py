"""JSON serialization for instances, tuples, certificates and counterexamples.

All files carry the format tag "ncslemma/1".  Matrices are nested row-major
lists and every real is written with 17 significant digits so doubles
round-trip losslessly.
"""

import json
import math

import numpy as np

from .errors import ParseError, ShapeMismatch
from .linalg import DEFAULT_BUDGET, DEFAULT_SEED, DEFAULT_TOL, DEFAULT_TOL_STRICT
from .poly import (
    MatTuple,
    NCQuadPoly,
    ScalarQuad,
    new_quad_poly,
    new_scalar_quad,
    new_tuple,
)
from .cpmaps import ChoiMatrix, new_choi
from .slemma import CPCertificate, Counterexample, HereditaryCounterexample

FORMAT = "ncslemma/1"

KINDS = ("positivity", "slemma", "slemma-hereditary", "scalar-slemma", "homogenize")


def dumps(obj) -> str:
    """Serialize to JSON with all floats at 17 significant digits."""
    return _render(obj, 0)


def _render(obj, indent: int) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}  {json.dumps(str(k))}: {_render(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, np.integer, np.floating)) for v in seq)
        if flat:
            return "[" + ", ".join(_render(v, 0) for v in seq) + "]"
        rows = [f"{pad}  {_render(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist(), indent)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if obj is None:
        return "null"
    return json.dumps(obj)


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _require(doc: dict, key: str):
    if key not in doc:
        raise ParseError(f"missing field {key!r}")
    return doc[key]


def _matrix(data, what: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what} is not a numeric array") from exc
    if arr.ndim != 2:
        raise ParseError(f"{what} must be a 2-D array")
    return arr


def poly_to_json(p: NCQuadPoly) -> dict:
    return {"m": p.m, "q": p.q, "blocks": p.blocks.tolist()}


def poly_from_json(doc) -> NCQuadPoly:
    if not isinstance(doc, dict):
        raise ParseError("polynomial must be an object")
    m = int(_require(doc, "m"))
    q = int(_require(doc, "q"))
    try:
        blocks = np.asarray(_require(doc, "blocks"), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError("blocks is not a numeric array") from exc
    if blocks.shape != (m, m, q, q):
        raise ShapeMismatch(
            f"blocks has shape {blocks.shape}, expected {(m, m, q, q)}"
        )
    return new_quad_poly(blocks)


def tuple_to_json(X: MatTuple) -> dict:
    return {"n": X.n, "kind": X.kind, "mats": X.mats.tolist()}


def tuple_from_json(doc) -> MatTuple:
    if not isinstance(doc, dict):
        raise ParseError("tuple must be an object")
    n = int(_require(doc, "n"))
    kind = doc.get("kind", "symmetric")
    try:
        mats = np.asarray(_require(doc, "mats"), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError("mats is not a numeric array") from exc
    if mats.ndim != 3 or mats.shape[1:] != (n, n):
        raise ShapeMismatch(f"mats has shape {mats.shape}, expected (m, {n}, {n})")
    return new_tuple(mats, kind=kind)


def scalar_quad_from_json(doc) -> ScalarQuad:
    if not isinstance(doc, dict):
        raise ParseError("scalar quadratic must be an object")
    A = _matrix(_require(doc, "A"), "A")
    a = doc.get("a")
    a0 = float(doc.get("a0", 0.0))
    return new_scalar_quad(A, a=a, a0=a0)


def choi_to_json(J: ChoiMatrix) -> dict:
    return {"s": J.s, "t": J.t, "J": J.J.tolist()}


def choi_from_json(doc) -> ChoiMatrix:
    if not isinstance(doc, dict):
        raise ParseError("Choi matrix must be an object")
    s = int(_require(doc, "s"))
    t = int(_require(doc, "t"))
    return new_choi(_matrix(_require(doc, "J"), "J"), s, t)


def check_options(opts: dict) -> dict:
    """Return ``opts`` if every value is in range; raise ParseError otherwise.

    The ranges are 0 <= tol <= tol_strict and tol_strict > 0, both finite,
    budget >= 1 and seed >= 0.  A positive tol_strict keeps every reported
    violation strictly negative.
    """
    tol, tol_strict = opts["tol"], opts["tol_strict"]
    if not (math.isfinite(tol) and math.isfinite(tol_strict)):
        raise ParseError(f"tol={tol!r} and tol_strict={tol_strict!r} must be finite")
    if not (0.0 <= tol <= tol_strict and tol_strict > 0.0):
        raise ParseError(f"options need 0 <= tol <= tol_strict and tol_strict > 0, "
                         f"got tol={tol!r}, tol_strict={tol_strict!r}")
    if opts["budget"] < 1:
        raise ParseError(f"budget={opts['budget']} must be at least 1")
    if opts["seed"] < 0:
        raise ParseError(f"seed={opts['seed']} must be nonnegative")
    return opts


def options_from_json(doc: dict) -> dict:
    opts = doc.get("options", {}) or {}
    if not isinstance(opts, dict):
        raise ParseError("options must be an object")
    try:
        parsed = {
            "tol": float(opts.get("tol", DEFAULT_TOL)),
            "tol_strict": float(opts.get("tol_strict", DEFAULT_TOL_STRICT)),
            "budget": int(opts.get("budget", DEFAULT_BUDGET)),
            "seed": int(opts.get("seed", DEFAULT_SEED)),
        }
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"options: {exc}") from exc
    return check_options(parsed)


def instance_from_json(doc) -> dict:
    """Parse and validate an instance file into a plain dict.

    Returns keys: kind, options, and the kind-specific payload (f, g,
    slater, linear, constant).  Dimension inconsistencies raise
    ShapeMismatch; schema problems raise ParseError.
    """
    if not isinstance(doc, dict):
        raise ParseError("instance must be a JSON object")
    if doc.get("format") != FORMAT:
        raise ParseError(f'missing or unsupported format tag (expected "{FORMAT}")')
    kind = _require(doc, "kind")
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    out = {"kind": kind, "options": options_from_json(doc)}

    if kind == "positivity":
        out["f"] = poly_from_json(_require(doc, "f"))
        return out

    if kind in ("slemma", "slemma-hereditary"):
        out["f"] = poly_from_json(_require(doc, "f"))
        out["g"] = poly_from_json(_require(doc, "g"))
        if out["f"].m != out["g"].m:
            raise ShapeMismatch("f and g disagree on the number of variables")
        slater = tuple_from_json(_require(doc, "slater"))
        if slater.m != out["f"].m:
            raise ShapeMismatch("slater tuple disagrees on the number of variables")
        if kind == "slemma" and slater.kind != "symmetric":
            raise ShapeMismatch("slemma requires a symmetric slater tuple")
        out["slater"] = slater
        return out

    if kind == "scalar-slemma":
        out["f"] = scalar_quad_from_json(_require(doc, "f"))
        out["g"] = scalar_quad_from_json(_require(doc, "g"))
        if out["f"].m != out["g"].m:
            raise ShapeMismatch("f and g disagree on the number of variables")
        slater = np.asarray(_require(doc, "slater"), dtype=float)
        if slater.shape != (out["f"].m,):
            raise ShapeMismatch("slater point has the wrong length")
        out["slater"] = slater
        return out

    # homogenize
    f = poly_from_json(_require(doc, "f"))
    linear = np.asarray(_require(doc, "linear"), dtype=float)
    constant = _matrix(_require(doc, "constant"), "constant")
    if linear.shape != (f.m, f.q, f.q):
        raise ShapeMismatch(
            f"linear part has shape {linear.shape}, expected {(f.m, f.q, f.q)}"
        )
    if constant.shape != (f.q, f.q):
        raise ShapeMismatch("constant part has the wrong shape")
    out["f"] = f
    out["linear"] = linear
    out["constant"] = constant
    return out


def certificate_to_json(cert: CPCertificate, options: dict) -> dict:
    return {
        "format": FORMAT,
        "type": "cp-certificate",
        "J": choi_to_json(cert.J),
        "residual_lambda_min": cert.residual_lambda_min,
        "residual": cert.residual.tolist(),
        "options": options,
    }


def certificate_from_json(doc) -> CPCertificate:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ParseError("not an ncslemma/1 file")
    if doc.get("type") != "cp-certificate":
        raise ParseError(f"expected a cp-certificate file, got {doc.get('type')!r}")
    J = choi_from_json(_require(doc, "J"))
    residual = _matrix(_require(doc, "residual"), "residual")
    return CPCertificate(
        J=J,
        residual=residual,
        residual_lambda_min=float(_require(doc, "residual_lambda_min")),
    )


def counterexample_to_json(ce, options: dict) -> dict:
    if isinstance(ce, HereditaryCounterexample):
        return {
            "format": FORMAT,
            "type": "counterexample-hereditary",
            "refutes": "hereditary-domination",
            "M": ce.M.tolist(),
            "rank": ce.rank,
            "X": tuple_to_json(ce.X),
            "E": ce.E.tolist(),
            "violation": ce.violation,
            "options": options,
        }
    return {
        "format": FORMAT,
        "type": "counterexample",
        "refutes": "projected-domination",
        "M": ce.M.tolist(),
        "rank": ce.rank,
        "X": tuple_to_json(ce.X),
        "P": ce.P.tolist(),
        "E": ce.E.tolist(),
        "violation": ce.violation,
        "options": options,
    }


def counterexample_from_json(doc):
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ParseError("not an ncslemma/1 file")
    kind = doc.get("type")
    M = _matrix(_require(doc, "M"), "M")
    X = tuple_from_json(_require(doc, "X"))
    E = np.asarray(_require(doc, "E"), dtype=float)
    violation = float(_require(doc, "violation"))
    rank = int(doc.get("rank", 0))
    if kind == "counterexample":
        P = _matrix(_require(doc, "P"), "P")
        return Counterexample(M=M, rank=rank, X=X, P=P, E=E, violation=violation)
    if kind == "counterexample-hereditary":
        return HereditaryCounterexample(M=M, rank=rank, X=X, E=E, violation=violation)
    raise ParseError(f"expected a counterexample file, got {kind!r}")
