"""The benchmark traces the library by replacing names where the calling
module binds them (bench/spans.py).  A refactor that unbinds one of those
names drops its span and its counts without failing the traced run, so
these tests pin every binding the tracer and the evaluation counter use."""

import importlib
import importlib.util
from pathlib import Path

from ncslemma import linalg

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in bench_spans().SPANS
        if not callable(getattr(importlib.import_module(f"ncslemma.{module}"), attr, None))
    ]
    assert missing == []


def test_ascent_is_bound_where_the_evaluation_counter_wraps_it():
    for module in ("slemma", "linalg"):
        bound = getattr(importlib.import_module(f"ncslemma.{module}"), "supergradient_ascent")
        assert bound is linalg.supergradient_ascent
