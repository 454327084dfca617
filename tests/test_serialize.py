import json

import numpy as np
import pytest

import ncslemma as ns
from ncslemma import serialize
from ncslemma.errors import InvalidInput, ParseError, ShapeMismatch

from helpers import random_poly, random_sym, random_sym_tuple


def test_dumps_writes_one_line_of_shortest_round_trip_floats():
    text = serialize.dumps({"x": 1.0 / 3.0, "y": [0.1, 2.0], "z": {"w": np.eye(2)}})
    assert text == ('{"x": 0.3333333333333333, "y": [0.1, 2.0], '
                    '"z": {"w": [[1.0, 0.0], [0.0, 1.0]]}}')
    doc = json.loads(text)
    assert doc["x"] == 1.0 / 3.0
    assert doc["y"] == [0.1, 2.0]


def test_dumps_roundtrips_doubles():
    rng = np.random.default_rng(0)
    values = list(rng.standard_normal(100) * 10.0 ** rng.integers(-8, 8, size=100))
    parsed = json.loads(serialize.dumps({"v": values}))["v"]
    assert parsed == values


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, np.float64("nan")],
                         ids=["nan", "inf", "minus-inf", "numpy-nan"])
def test_dumps_rejects_non_finite_floats(value):
    # a bare nan or inf is not JSON
    with pytest.raises(InvalidInput):
        serialize.dumps({"a": 1.0, "b": [[0.5, value]]})


def test_poly_roundtrip():
    rng = np.random.default_rng(1)
    p = random_poly(rng, 3, 2)
    doc = json.loads(serialize.dumps(serialize.poly_to_json(p)))
    q = serialize.poly_from_json(doc)
    assert np.array_equal(q.blocks, p.blocks)


def test_tuple_roundtrip():
    rng = np.random.default_rng(2)
    X = random_sym_tuple(rng, 2, 3)
    doc = json.loads(serialize.dumps(serialize.tuple_to_json(X)))
    Y = serialize.tuple_from_json(doc)
    assert Y.kind == "symmetric"
    assert np.array_equal(Y.mats, X.mats)


def test_choi_roundtrip():
    rng = np.random.default_rng(3)
    J = ns.new_choi(random_sym(rng, 4), 2, 2)
    doc = json.loads(serialize.dumps(serialize.choi_to_json(J)))
    K = serialize.choi_from_json(doc)
    assert (K.s, K.t) == (2, 2)
    assert np.array_equal(K.J, J.J)


def test_instance_requires_format_tag():
    with pytest.raises(ParseError):
        serialize.instance_from_json({"kind": "positivity"})
    with pytest.raises(ParseError):
        serialize.instance_from_json({"format": "ncslemma/2", "kind": "positivity"})


def test_instance_unknown_kind():
    with pytest.raises(ParseError):
        serialize.instance_from_json({"format": "ncslemma/1", "kind": "sos"})


def test_instance_missing_slater():
    rng = np.random.default_rng(4)
    p = serialize.poly_to_json(random_poly(rng, 2, 1))
    with pytest.raises(ParseError):
        serialize.instance_from_json(
            {"format": "ncslemma/1", "kind": "slemma", "f": p, "g": p}
        )


def test_instance_dimension_mismatch():
    rng = np.random.default_rng(5)
    f = serialize.poly_to_json(random_poly(rng, 2, 1))
    g = serialize.poly_to_json(random_poly(rng, 3, 1))
    with pytest.raises(ShapeMismatch):
        serialize.instance_from_json(
            {"format": "ncslemma/1", "kind": "slemma", "f": f, "g": g,
             "slater": {"n": 1, "kind": "symmetric", "mats": [[[1.0]], [[0.0]]]}}
        )


def test_instance_options_defaults():
    rng = np.random.default_rng(6)
    p = serialize.poly_to_json(random_poly(rng, 2, 1))
    inst = serialize.instance_from_json(
        {"format": "ncslemma/1", "kind": "positivity", "f": p}
    )
    assert inst["options"] == {
        "tol": 1e-8, "tol_strict": 1e-6, "budget": 5000, "seed": 42
    }
    inst = serialize.instance_from_json(
        {"format": "ncslemma/1", "kind": "positivity", "f": p,
         "options": {"tol": 1e-6, "seed": 7}}
    )
    assert inst["options"]["tol"] == 1e-6
    assert inst["options"]["seed"] == 7
    assert inst["options"]["budget"] == 5000


def test_certificate_roundtrip():
    from test_poly import example_62_f, example_62_g

    f, g = example_62_f(), example_62_g()
    cert = ns.certify(f, g, ns.new_tuple([[[1.0]], [[0.0]]])).certificate
    opts = {"tol": 1e-8, "tol_strict": 1e-6, "budget": 5000, "seed": 42}
    doc = json.loads(serialize.dumps(serialize.certificate_to_json(cert, opts)))
    back = serialize.certificate_from_json(doc)
    assert np.array_equal(back.J.J, cert.J.J)
    assert back.residual_lambda_min == cert.residual_lambda_min
    assert ns.verify_certificate(back, f, g)


def test_counterexample_roundtrip():
    f = ns.scalar_to_nc(ns.new_scalar_quad([[0.0, 1.0], [1.0, 0.0]]))
    g = ns.scalar_to_nc(ns.new_scalar_quad([[1.0, 0.0], [0.0, 0.0]]))
    sep = ns.find_separator(f, g, ns.new_tuple([[[1.0]], [[0.0]]]))
    ce = ns.build_counterexample(f, g, sep.M)
    opts = {"tol": 1e-8, "tol_strict": 1e-6, "budget": 5000, "seed": 42}
    doc = json.loads(serialize.dumps(serialize.counterexample_to_json(ce, opts)))
    assert doc["refutes"] == "projected-domination"
    back = serialize.counterexample_from_json(doc)
    assert np.array_equal(back.M, ce.M)
    assert ns.verify_counterexample(back, f, g)

    hce = ns.build_counterexample_hereditary(f, g, sep.M)
    doc = json.loads(serialize.dumps(serialize.counterexample_to_json(hce, opts)))
    assert doc["type"] == "counterexample-hereditary"
    back = serialize.counterexample_from_json(doc)
    assert isinstance(back, ns.HereditaryCounterexample)
    assert ns.verify_counterexample(back, f, g)


def test_loads_rejects_garbage():
    with pytest.raises(ParseError):
        serialize.loads("{not json")


EDGE_FLOATS = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308)


def _random_number(rng):
    pick = rng.integers(8)
    if pick == 0:
        return float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
    if pick == 1:
        return int(rng.integers(-10**12, 10**12))
    if pick == 2:
        return bool(rng.integers(2))
    if pick == 3:
        return np.float64(rng.standard_normal() * 10.0 ** rng.integers(-20, 20))
    if pick == 4:
        return np.int64(rng.integers(-10**12, 10**12))
    if pick == 5:
        return np.bool_(rng.integers(2))
    if pick == 6:
        return np.float32(rng.standard_normal())
    return EDGE_FLOATS[rng.integers(len(EDGE_FLOATS))]


def _random_document(rng, depth=0):
    pick = rng.integers(7) if depth < 4 else rng.integers(2)
    if pick == 0:
        return _random_number(rng)
    if pick == 1:  # a row of numbers, possibly empty, possibly mixed
        row = [_random_number(rng) for _ in range(rng.integers(7))]
        return tuple(row) if rng.integers(4) == 0 else row
    if pick == 2:
        return [_random_document(rng, depth + 1) for _ in range(rng.integers(4))]
    if pick == 3:
        return {f"k{i}": _random_document(rng, depth + 1) for i in range(rng.integers(4))}
    if pick == 4:
        return rng.standard_normal(tuple(rng.integers(1, 4, size=rng.integers(1, 4))))
    if pick == 5:
        return [None, "text", _random_number(rng)]
    return []


def _python(obj):
    """``obj`` with numpy values and tuples turned into the Python values json reads back."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return _python(obj.tolist())
    if isinstance(obj, dict):
        return {k: _python(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_python(v) for v in obj]
    return obj


def _same(a, b):
    """Equal with the same types throughout, and floats equal bit for bit (-0.0 is not 0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def test_dumps_round_trips_random_documents_bit_for_bit():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        doc = _random_document(rng)
        assert _same(json.loads(serialize.dumps(doc)), _python(doc))


@pytest.mark.parametrize("bad", [float("nan"), -np.inf, np.float64("inf"), np.float32("nan")],
                         ids=["nan", "numpy-minus-inf", "numpy-inf", "float32-nan"])
@pytest.mark.parametrize("where", ["scalar", "flat-row", "mixed-row", "ndarray"])
def test_dumps_rejects_non_finite_values_anywhere(bad, where):
    doc = {"scalar": {"v": bad}, "flat-row": {"v": [1, 0.5, bad]},
           "mixed-row": {"v": [np.bool_(True), bad]}, "ndarray": {"v": np.array([[1.0], [bad]])}}[where]
    with pytest.raises(InvalidInput):
        serialize.dumps(doc)
