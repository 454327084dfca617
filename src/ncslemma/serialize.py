"""JSON serialization for instances, tuples, certificates and counterexamples.

All files carry the format tag "ncslemma/1".  Matrices are nested row-major
lists.  Documents are written on one line, every real in the shortest text
that reads back as the same double, so doubles round-trip losslessly.
"""

import json
import math
from itertools import chain

import numpy as np

from .errors import InvalidInput, ParseError, ShapeMismatch
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
    """Serialize to one line of JSON; numpy arrays and scalars become plain values.

    Floats are written as Python's repr, the shortest text that reads back
    as the same double.  A NaN or infinite float has no JSON form and
    raises InvalidInput.
    """
    try:
        return json.dumps(obj, allow_nan=False, default=_plain)
    except ValueError as exc:
        raise InvalidInput(f"no JSON form: {exc}") from exc


def _plain(obj):
    """A numpy array or scalar as the Python list or value it holds."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def loads(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ParseError(f"invalid JSON: {exc}") from exc


_REQUIRED = object()


def _field(doc: dict, key: str, default=_REQUIRED):
    if key in doc:
        return doc[key]
    if default is _REQUIRED:
        raise ParseError(f"missing field {key!r}")
    return default


def _read(doc: dict, key: str, convert, what: str, default=_REQUIRED):
    """``convert`` applied to ``doc[key]`` (or to ``default`` when the key is absent).

    Every number and array in a document is read here, so any value that
    does not convert is a ParseError.
    """
    value = _field(doc, key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{key} is not {what}: {exc}") from exc


def _integer(value) -> int:
    """A JSON integer; an integral float such as 2.0 passes, strings and booleans do not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _numbers(value) -> np.ndarray:
    """``value`` as a float array; entries that are not JSON numbers, or ragged nesting, raise."""
    arr = np.asarray(value, dtype=float)  # ragged nesting raises here
    entries = [value]
    for _ in range(arr.ndim):
        entries = chain.from_iterable(entries)
    if not set(map(type, entries)) <= {int, float}:  # numpy reads "1.5", true and null too
        raise TypeError("entries must be numbers")
    return arr


def _int(doc: dict, key: str, default=_REQUIRED) -> int:
    return _read(doc, key, _integer, "an integer", default)


def _float(doc: dict, key: str, default=_REQUIRED) -> float:
    return _read(doc, key, _real, "a number", default)


def _array(doc: dict, key: str, ndim=None) -> np.ndarray:
    """A float array; a wrong ``ndim`` is a ParseError, any other shape is the caller's check."""
    arr = _read(doc, key, _numbers, "a numeric array")
    if ndim is not None and arr.ndim != ndim:
        raise ParseError(f"{key} must be a {ndim}-D array")
    return arr


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be an object")
    return doc


def poly_to_json(p: NCQuadPoly) -> dict:
    return {"m": p.m, "q": p.q, "blocks": p.blocks.tolist()}


def poly_from_json(doc) -> NCQuadPoly:
    doc = _object(doc, "polynomial")
    m, q, blocks = _int(doc, "m"), _int(doc, "q"), _array(doc, "blocks")
    if blocks.shape != (m, m, q, q):
        raise ShapeMismatch(
            f"blocks has shape {blocks.shape}, expected {(m, m, q, q)}"
        )
    return new_quad_poly(blocks)


def tuple_to_json(X: MatTuple) -> dict:
    return {"n": X.n, "kind": X.kind, "mats": X.mats.tolist()}


def tuple_from_json(doc) -> MatTuple:
    doc = _object(doc, "tuple")
    n, mats = _int(doc, "n"), _array(doc, "mats")
    if mats.ndim != 3 or mats.shape[1:] != (n, n):
        raise ShapeMismatch(f"mats has shape {mats.shape}, expected (m, {n}, {n})")
    return new_tuple(mats, kind=doc.get("kind", "symmetric"))


def projection_from_json(doc) -> np.ndarray:
    """The ``projection`` matrix a tuple file may carry for compressed evaluation."""
    return _array(_object(doc, "tuple"), "projection")


def scalar_quad_from_json(doc) -> ScalarQuad:
    doc = _object(doc, "scalar quadratic")
    a = None if doc.get("a") is None else _array(doc, "a")
    return new_scalar_quad(_array(doc, "A", 2), a=a, a0=_float(doc, "a0", 0.0))


def choi_to_json(J: ChoiMatrix) -> dict:
    return {"s": J.s, "t": J.t, "J": J.J.tolist()}


def choi_from_json(doc) -> ChoiMatrix:
    doc = _object(doc, "Choi matrix")
    return new_choi(_array(doc, "J", 2), _int(doc, "s"), _int(doc, "t"))


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
    opts = _object(doc.get("options", {}) or {}, "options")
    return check_options({
        "tol": _float(opts, "tol", DEFAULT_TOL),
        "tol_strict": _float(opts, "tol_strict", DEFAULT_TOL_STRICT),
        "budget": _int(opts, "budget", DEFAULT_BUDGET),
        "seed": _int(opts, "seed", DEFAULT_SEED),
    })


def instance_from_json(doc) -> dict:
    """Parse and validate an instance file into a plain dict.

    Returns keys: kind, options, and the kind-specific payload (f, g,
    slater, linear, constant).  Dimension inconsistencies raise
    ShapeMismatch; schema problems raise ParseError.
    """
    doc = _object(doc, "instance")
    if doc.get("format") != FORMAT:
        raise ParseError(f'missing or unsupported format tag (expected "{FORMAT}")')
    kind = _field(doc, "kind")
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    out = {"kind": kind, "options": options_from_json(doc)}

    if kind == "positivity":
        out["f"] = poly_from_json(_field(doc, "f"))
        return out

    if kind == "homogenize":
        f = poly_from_json(_field(doc, "f"))
        linear = _array(doc, "linear")
        constant = _array(doc, "constant", 2)
        if linear.shape != (f.m, f.q, f.q):
            raise ShapeMismatch(
                f"linear part has shape {linear.shape}, expected {(f.m, f.q, f.q)}"
            )
        if constant.shape != (f.q, f.q):
            raise ShapeMismatch("constant part has the wrong shape")
        out.update(f=f, linear=linear, constant=constant)
        return out

    # f dominating g under the Slater point
    read = scalar_quad_from_json if kind == "scalar-slemma" else poly_from_json
    f, g = read(_field(doc, "f")), read(_field(doc, "g"))
    if f.m != g.m:
        raise ShapeMismatch("f and g disagree on the number of variables")
    if kind == "scalar-slemma":
        slater = _array(doc, "slater")
        if slater.shape != (f.m,):
            raise ShapeMismatch("slater point has the wrong length")
    else:
        slater = tuple_from_json(_field(doc, "slater"))
        if slater.m != f.m:
            raise ShapeMismatch("slater tuple disagrees on the number of variables")
        if kind == "slemma" and slater.kind != "symmetric":
            raise ShapeMismatch("slemma requires a symmetric slater tuple")
    out.update(f=f, g=g, slater=slater)
    return out


def _file_type(doc, types) -> str:
    """The ``type`` of an ncslemma/1 result file, which must be one of ``types``."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ParseError("not an ncslemma/1 file")
    kind = doc.get("type")
    if kind not in types:
        raise ParseError(f"expected a {' or '.join(types)} file, got {kind!r}")
    return kind


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
    _file_type(doc, ("cp-certificate",))
    return CPCertificate(
        J=choi_from_json(_field(doc, "J")),
        residual=_array(doc, "residual", 2),
        residual_lambda_min=_float(doc, "residual_lambda_min"),
    )


def counterexample_to_json(ce, options: dict) -> dict:
    hereditary = isinstance(ce, HereditaryCounterexample)
    doc = {
        "format": FORMAT,
        "type": "counterexample-hereditary" if hereditary else "counterexample",
        "refutes": "hereditary-domination" if hereditary else "projected-domination",
        "M": ce.M.tolist(),
        "rank": ce.rank,
        "X": tuple_to_json(ce.X),
    }
    if not hereditary:
        doc["P"] = ce.P.tolist()
    doc.update(E=ce.E.tolist(), violation=ce.violation, options=options)
    return doc


def counterexample_from_json(doc):
    kind = _file_type(doc, ("counterexample", "counterexample-hereditary"))
    fields = dict(
        M=_array(doc, "M", 2),
        rank=_int(doc, "rank", 0),
        X=tuple_from_json(_field(doc, "X")),
        E=_array(doc, "E", 1),
        violation=_float(doc, "violation"),
    )
    if kind == "counterexample":
        return Counterexample(P=_array(doc, "P", 2), **fields)
    return HereditaryCounterexample(**fields)
