"""Property test of the command line: any one field of any fixture replaced by
a hostile value still ends with a documented exit code and strict JSON on stdout."""

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from ncslemma import cli

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
EXIT_CODES = {0, 2, 3, 4, 10, 11, 12}
# Given on the command line, so no drawn options block can lift it.
BUDGET = ["--budget", "200"]


def fx(name):
    return os.path.join(FIXTURES, name)


def main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    return json.loads(text, parse_constant=reject_constant)


# name -> (file to edit, command line with FILE for the edited copy)
INSTANCES = {
    "h1.json": "check-positivity", "h2.json": "check-positivity",
    "zero_poly.json": "check-positivity", "example61_f.json": "check-positivity",
    "example62.json": "slemma", "slemma_counterexample.json": "slemma",
    "bad_dimensions.json": "slemma", "missing_slater.json": "slemma",
    "hereditary_counterexample.json": "slemma-hereditary",
    "scalar_certificate.json": "scalar-slemma", "scalar_counterexample.json": "scalar-slemma",
    "homogenize_affine.json": "homogenize",
}
CASES = {name: (fx(name), [command, *BUDGET, "FILE"]) for name, command in INSTANCES.items()}
CASES["example61_tuple.json"] = (
    fx("example61_tuple.json"), ["evaluate", "--project", fx("example61_f.json"), "FILE"])
# the certificate and counterexamples the CLI emits, edited and re-verified
EMITTED = {"certificate": ("slemma", "example62.json"),
           "counterexample": ("slemma", "slemma_counterexample.json"),
           "counterexample-hereditary": ("slemma-hereditary", "hereditary_counterexample.json")}


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """A scratch directory, and CASES with the emitted result files added."""
    directory = tmp_path_factory.mktemp("fuzz")
    cases = dict(CASES)
    for name, (command, instance) in EMITTED.items():
        assert main([command, *BUDGET, "-o", str(directory / name), fx(instance)])[0] in (0, 11)
        cases[name] = (str(directory / name), ["verify", "FILE", fx(instance)])
    return directory, cases


def fields(doc, prefix=()):
    """Paths to every object member, and to the first element of every list."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list) and doc:
        items = [(0, doc[0])]
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from fields(value, prefix + (key,))


HOSTILE = st.one_of(
    st.text(max_size=4),
    st.none(),
    st.lists(st.one_of(st.integers(-3, 3), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.sampled_from([1e308, -1e308, 1e300, float("inf"), float("-inf")]),
    st.integers(max_value=-1),
    st.sampled_from(["2", "1e-8", 2.7, 0.5, True, False]),  # numeric strings, fractions, booleans
)


@pytest.mark.parametrize("case", [*INSTANCES, "example61_tuple.json", *EMITTED])
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_one_hostile_field_gives_a_documented_exit_and_strict_json(cases, case, data):
    work, cases = cases
    source, argv = cases[case]
    with open(source) as fh:
        doc = json.load(fh)
    path = data.draw(st.sampled_from(list(fields(doc))))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = data.draw(HOSTILE)
    edited = work / "edited.json"
    edited.write_text(json.dumps(doc))
    code, text = main([str(edited) if a == "FILE" else a for a in argv])
    assert code in EXIT_CODES
    strict_json(text)
